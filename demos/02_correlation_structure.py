"""Correlation and determination matrices.

The Pearson correlation of two centered columns is the cosine of the angle
between them, and its square (the determination coefficient) is the share
of variance the two variables have in common.  This demo loads the bundled
7-variable weather correlation matrix and prints which pairs share the most
variance, then shows the cosine identity on raw columns.
"""

import numpy as np

from facpca import DataMatrix, correlation_matrix
from facpca.datasets import dataset1_corr_path
from facpca.reporting import read_correlation_csv

corr = read_correlation_csv(dataset1_corr_path())
shared = corr.entries**2

print(f"variables: {', '.join(corr.labels)}")
print("\nstrongest shared-variance pairs:")
pairs = [
    (shared[i, j], corr.labels[i], corr.labels[j], corr.entries[i, j])
    for i in range(corr.size)
    for j in range(i + 1, corr.size)
]
for share, a, b, r in sorted(pairs, reverse=True)[:5]:
    print(f"  {a} ~ {b}:  r = {r:+.3f}   shared variance = {share * 100:5.2f}%")

# the cosine identity: correlation equals the cosine between centered columns
rng = np.random.default_rng(2)
x = rng.normal(size=500)
y = 0.6 * x + 0.8 * rng.normal(size=500)
xc = x - x.mean()
yc = y - y.mean()
cosine = float(xc @ yc / (np.linalg.norm(xc) * np.linalg.norm(yc)))
print("\ncosine identity on synthetic columns:")
r = correlation_matrix(DataMatrix(np.column_stack([x, y]), ("x", "y"))).entries[0, 1]
print(f"  correlation(x, y) = {r:.12f}")
print(f"  cos(x, y)         = {cosine:.12f}")
