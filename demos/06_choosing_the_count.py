"""How many factors or components to keep?

The classic criteria (Kaiser, half the variable count, explained-variance
percentage, the scree plot) all look at the eigenvalues, i.e. at averages
over all variables, and they can disagree.  The minimum-per-variable rule
instead keeps adding factors until every single variable has most of its
variance explained.  It reads the squared entries of the full loading
matrix, and its per-prefix ledger shows exactly which variable is the
current bottleneck.
"""

from facpca import (
    eigen_symmetric,
    full_loadings,
    half_count,
    kaiser_count,
    minvar_count,
    percentage_count,
    scree_data,
    variance_table,
)
from facpca.datasets import dataset1_corr_path
from facpca.reporting import read_correlation_csv

corr = read_correlation_csv(dataset1_corr_path())
eig = eigen_symmetric(corr.entries, correlation_input=True)
variance = variance_table(eig.eigenvalues)
loadings = full_loadings(eig, corr.labels)

print("classic criteria:")
print(f"  kaiser (eigenvalue >= 1):        {kaiser_count(eig.eigenvalues)}")
print(f"  half the variable count:         {half_count(eig.size)}")
print(f"  explained variance >= 80%:       {percentage_count(variance, 80.0)}")
print("  scree series (read the elbow yourself):")
print("   ", " ".join(f"{v:.3f}" for _, v in scree_data(eig.eigenvalues)))

report = minvar_count(loadings, epsilon=0.51)
print(f"\nminimum-per-variable rule (threshold {report.threshold:.0%}):")
print("  factors   EigVal   MinVar   AverVar   worst variable")
for i, (pct, low, avg, nr) in enumerate(
    zip(variance.pct, report.min_var, report.aver_var, report.nr_min_var), start=1
):
    marker = " <- chosen" if i == report.chosen else ""
    worst = loadings.variable_labels[nr - 1] if nr else "none"
    print(f"  {i:>7}   {pct:6.2f}%  {low * 100:6.2f}%  {avg * 100:6.2f}%   {worst}{marker}")

print(f"\nchosen count: {report.chosen}")
print("raising the threshold can only increase the count:")
for epsilon in (0.51, 0.6, 0.75, 0.9):
    print(f"  threshold {epsilon:.2f} -> {minvar_count(loadings, epsilon).chosen} factors")
