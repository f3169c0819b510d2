"""Plane rotations and the eigensolver.

A plane rotation is an identity matrix with four modified elements; a
product of them can express any rotation.  The cyclic Jacobi method is
built from exactly this toolkit: it sweeps over every coordinate plane,
zeroing one off-diagonal entry per rotation, until the matrix is diagonal,
accumulating the rotations into the eigenvector matrix.  ``eigen_symmetric``
runs LAPACK's solver instead; the tests keep the Jacobi solver as the
accuracy reference it is checked against.
"""

import numpy as np

from facpca import compose_rotation, eigen_symmetric, plane_rotation
from facpca.reporting import read_correlation_csv
from facpca.datasets import dataset1_corr_path

# composing rotations cheaply equals the full matrix product
accumulated = np.eye(4)
full = np.eye(4)
for (i, j, angle) in [(0, 1, 0.3), (1, 3, -0.7), (0, 2, 1.1), (2, 3, 0.25)]:
    accumulated = compose_rotation(accumulated, i, j, angle)
    full = full @ plane_rotation(4, i, j, angle)
print("rotation composition vs full product:",
      f"max diff = {np.max(np.abs(accumulated - full)):.2e}")

corr = read_correlation_csv(dataset1_corr_path())
eig = eigen_symmetric(corr.entries, correlation_input=True)

print("\neigenvalues of the weather correlation matrix:")
print(" ", np.array2string(eig.eigenvalues, precision=3))

u = eig.eigenvectors
print("\nsolver quality:")
print(f"  orthogonality  max|U'U - I|        = {np.max(np.abs(u.T @ u - np.eye(7))):.2e}")
rebuilt = u @ np.diag(eig.eigenvalues) @ u.T
print(f"  reconstruction max|U L U' - R|     = {np.max(np.abs(rebuilt - corr.entries)):.2e}")
print(f"  trace preserved |sum(l) - trace(R)| = {abs(eig.eigenvalues.sum() - 7.0):.2e}")
