"""The eigensolver and the checks its output must pass.

``eigen_symmetric`` runs LAPACK's symmetric solver and returns the
eigenvalues sorted non-increasing with matching eigenvector columns.  For
a correlation matrix R the eigenvectors U are orthonormal, U L U' rebuilds
R, and the eigenvalues sum to the trace of R, which is the number of
variables.  The tests keep the cyclic Jacobi solver as the accuracy
reference the LAPACK engine is checked against.
"""

import numpy as np

from facpca import eigen_symmetric
from facpca.reporting import read_correlation_csv
from facpca.datasets import dataset1_corr_path

corr = read_correlation_csv(dataset1_corr_path())
eig = eigen_symmetric(corr.entries, correlation_input=True)

print("eigenvalues of the weather correlation matrix:")
print(" ", np.array2string(eig.eigenvalues, precision=3))

u = eig.eigenvectors
print("\nsolver quality:")
print(f"  orthogonality  max|U'U - I|        = {np.max(np.abs(u.T @ u - np.eye(7))):.2e}")
rebuilt = u @ np.diag(eig.eigenvalues) @ u.T
print(f"  reconstruction max|U L U' - R|     = {np.max(np.abs(rebuilt - corr.entries)):.2e}")
print(f"  trace preserved |sum(l) - trace(R)| = {abs(eig.eigenvalues.sum() - 7.0):.2e}")
