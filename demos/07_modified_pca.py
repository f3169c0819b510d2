"""The modified PCA pipeline end to end.

``Analysis`` correlates, decomposes, picks the component count with the
minimum-per-variable rule, and its ``scores`` project the standardized
data onto that many eigenvectors.  Component scores are uncorrelated and
their variances equal the eigenvalues, so the retained scores carry the
promised share of every variable's variance.

Raw observations are simulated from the factor model fitted to the bundled
weather correlation matrix, so the pipeline's sample statistics land close
to the published ones.
"""

import numpy as np

from facpca import Analysis, build_model, eigen_symmetric, full_loadings, simulate
from facpca.datasets import dataset1_corr_path
from facpca.reporting import read_correlation_csv

corr = read_correlation_csv(dataset1_corr_path())
eig = eigen_symmetric(corr.entries, correlation_input=True)
model = build_model(full_loadings(eig, corr.labels))
observations = simulate(model, draws=20_000, seed=7)
print(f"simulated {observations.n_observations} observations "
      f"of {observations.n_variables} variables")

result = Analysis(observations, epsilon=0.51)
retained = result.retention.chosen
print(f"\nretained components: {retained}, explaining "
      f"{result.variance.cumulative_pct[retained - 1]:.2f}% of the total variance")
print("score column variances vs eigenvalues:")
centered = result.scores - result.scores.mean(axis=0)
variances = np.mean(centered**2, axis=0)
for j, (got, want) in enumerate(zip(variances, result.variance.eigenvalue), start=1):
    print(f"  PC{j}: variance = {got:.4f}   eigenvalue = {want:.4f}")

cross = centered.T @ centered / result.scores.shape[0]
cross /= np.sqrt(np.outer(variances, variances))
print(f"\nlargest cross-correlation between scores: "
      f"{np.max(np.abs(cross - np.eye(retained))):.2e}")

worst = min(result.retention.min_var[retained - 1], 1.0)
print(f"worst-explained variable keeps {worst * 100:.2f}% of its variance "
      f"(threshold {result.retention.threshold:.0%})")
