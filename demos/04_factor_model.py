"""Factor loadings, communalities and the reduced factor model.

Scaling each eigenvector by the square root of its eigenvalue gives the
loading matrix: entry (i, j) is the correlation between variable i and
factor j, so its square is the variance of variable i that factor j
explains.  Keeping only the first k columns leaves a reduced model; each
row's remaining variance goes to a unique factor with weight
sqrt(1 - communality).
"""

import numpy as np

from facpca import (
    build_model,
    communalities,
    eigen_symmetric,
    full_loadings,
    minvar_count,
    truncate,
)
from facpca.datasets import dataset1_corr_path
from facpca.reporting import read_correlation_csv

corr = read_correlation_csv(dataset1_corr_path())
eig = eigen_symmetric(corr.entries, correlation_input=True)
loadings = full_loadings(eig, corr.labels)

print("cumulative explained variance per variable (percent):")
cumulative = minvar_count(loadings, 0.51).cumulative * 100
for label, row in zip(loadings.variable_labels, cumulative):
    print(f"  {label}: " + "  ".join(f"{v:6.2f}" for v in row))

model = build_model(truncate(loadings, 3))
print("\nthree-factor model:")
for label, common, weight in zip(
    model.variable_labels, communalities(model.loadings), model.unique_weights
):
    print(f"  {label}: communality = {common * 100:6.2f}%   unique weight = {weight:.4f}")

# the loading matrix expressed in the eigenvector basis is symmetric
product = loadings.entries @ eig.eigenvectors.T
print("\nloadings in the eigenvector basis (symmetric by construction):")
print(f"  max|M - M'| = {np.max(np.abs(product - product.T)):.2e}")
print(f"  M[0, 0] = {product[0, 0]:.3f}, M[1, 2] = {product[1, 2]:.3f}")
