"""Varimax rotation towards simple structure.

An orthogonal rotation of the retained factors changes neither the
communalities nor the model fit, but it can concentrate each variable's
loadings on few factors, which makes the factors interpretable.  Varimax
maximizes the variance of the squared loadings.  It first sweeps the factor
planes twice, picking in each the angle that maximizes that variance; a
rotation that those two sweeps do not settle continues with Newton steps
until the criterion's relative gradient is at most 1e-12 or a step gains
nothing the objective's rounding can show, and ends with a pairwise sweep
that certifies that no plane can improve it.  The weather rotation takes
that whole path: two sweeps, the Newton steps, one certificate sweep.
With four factors the weather variables separate cleanly: each variable
ends up dominated by a single factor.
"""

import numpy as np

from facpca import (
    communalities,
    eigen_symmetric,
    full_loadings,
    truncate,
    varimax,
    varimax_objective,
)
from facpca.datasets import dataset1_corr_path
from facpca.reporting import read_correlation_csv

corr = read_correlation_csv(dataset1_corr_path())
eig = eigen_symmetric(corr.entries, correlation_input=True)
four = truncate(full_loadings(eig, corr.labels), 4)

result = varimax(four)
print(f"converged after {result.sweeps_used} sweeps")
print(f"objective: {result.objective_trace[0]:.4f} -> {result.objective_trace[-1]:.4f}")

print("\nshare of each variable's variance on its dominant factor:")
for label, before_row, after_row in zip(
    four.variable_labels, four.entries**2, result.rotated.entries**2
):
    print(
        f"  {label}: before {100 * before_row.max():5.1f}%  ->  "
        f"after {100 * after_row.max():5.1f}%  (factor F{1 + int(np.argmax(after_row))})"
    )

drift = np.max(np.abs(communalities(result.rotated) - communalities(four)))
print(f"\ncommunalities preserved to {drift:.2e}")
print(f"rotation matrix orthogonal to "
      f"{np.max(np.abs(result.rotation.T @ result.rotation - np.eye(4))):.2e}")
print(f"objective recomputed from scratch: {varimax_objective(result.rotated):.4f} "
      "(on the de-normalized rows)")
