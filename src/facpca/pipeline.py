"""The analysis core: ``Analysis`` runs the pipeline on one input.

Each stage runs at most once, when first asked for.  ``Analysis.scores`` is
the modified PCA's output: the standardized data on as many leading
eigenvectors as the per-variable retention rule keeps.  The CSV readers and
the table builders live in ``facpca.reporting``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .eigen import EigenDecomposition, eigen_symmetric
from .errors import DataError, SizeError, ThresholdError
from .factors import LoadingMatrix, full_loadings, truncate
from .reporting import read_correlation_csv, read_data_csv
from .retention import RetentionReport, VarianceTable, check_epsilon, minvar_count, variance_table
from .stats import CorrelationMatrix, DataMatrix, correlation_matrix, standardize
from .varimax import RotationResult, varimax

__all__ = ["Analysis"]


def _is_number(value, kind: type) -> bool:
    """Whether ``value`` is a ``kind`` number; a bool is a flag, not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class Analysis:
    """The pipeline over one input; each stage runs at most once, on first use.

    ``source`` is a CSV path or an in-memory ``DataMatrix`` of observations.
    ``kind`` is ``"raw"`` (observations) or ``"corr"`` (a correlation matrix
    CSV).  The other fields are the settings: each default and check lives
    here, and all are checked on construction, before any input is read.
    ``factors`` fixes the count ``truncated`` keeps, in place of the
    min-variance rule's count at ``epsilon``; ``rotation`` is None when not
    rotating; ``percent`` is the explained-variance criterion's threshold.
    """

    source: str | Path | DataMatrix
    kind: str = "raw"
    epsilon: float = 0.51
    factors: int | None = None
    rotate: str = "varimax"
    kaiser_normalize: bool = True
    percent: float = 80.0

    def __post_init__(self) -> None:
        if not isinstance(self.source, (str, Path, DataMatrix)):
            raise DataError(f"source must be a CSV path or a DataMatrix, got {self.source!r}")
        if self.kind not in ("raw", "corr"):
            raise DataError(f"unknown input kind {self.kind!r}")
        if self.kind == "corr" and isinstance(self.source, DataMatrix):
            raise DataError("a DataMatrix holds observations, not a correlation matrix")
        if not _is_number(self.epsilon, numbers.Real):
            raise ThresholdError(f"epsilon must be a real number, got {self.epsilon!r}")
        check_epsilon(self.epsilon)
        if self.factors is not None:
            if not _is_number(self.factors, numbers.Integral):
                raise SizeError(f"factor count override must be an integer, got {self.factors!r}")
            if self.factors < 1:
                raise SizeError("factor count override must be at least 1")
        if self.rotate not in ("varimax", "none"):
            raise DataError(f"unknown rotation {self.rotate!r}")
        if not isinstance(self.kaiser_normalize, (bool, np.bool_)):
            raise DataError(f"kaiser_normalize must be a bool, got {self.kaiser_normalize!r}")
        if self.rotate == "none" and not self.kaiser_normalize:
            raise DataError("kaiser_normalize=False has no effect with rotate='none'")
        if not _is_number(self.percent, numbers.Real):
            raise ThresholdError(f"percent threshold must be a real number, got {self.percent!r}")
        if not 0.0 < self.percent <= 100.0:
            raise ThresholdError(f"percent threshold must lie in (0, 100], got {self.percent}")

    @cached_property
    def _observations(self) -> tuple[DataMatrix, int]:
        if self.kind != "raw":
            raise DataError(f"{self.source}: a correlation matrix holds no observations")
        if isinstance(self.source, DataMatrix):
            return self.source, 0
        return read_data_csv(self.source)

    @property
    def data(self) -> DataMatrix:
        return self._observations[0]

    @property
    def dropped_rows(self) -> int:
        """Rows of a raw input dropped for missing values; 0 for a correlation input."""
        return self._observations[1] if self.kind == "raw" else 0

    @cached_property
    def corr(self) -> CorrelationMatrix:
        if self.kind == "corr":
            return read_correlation_csv(self.source)
        return correlation_matrix(self.data)

    @cached_property
    def eig(self) -> EigenDecomposition:
        return eigen_symmetric(self.corr.entries, correlation_input=True)

    @cached_property
    def loadings(self) -> LoadingMatrix:
        return full_loadings(self.eig, self.corr.labels)

    @cached_property
    def variance(self) -> VarianceTable:
        return variance_table(self.eig.eigenvalues)

    @cached_property
    def retention(self) -> RetentionReport:
        return minvar_count(self.loadings, self.epsilon)

    @cached_property
    def truncated(self) -> LoadingMatrix:
        k = self.factors or self.retention.chosen
        if k > self.corr.size:
            raise SizeError(f"factor count override {k} exceeds the {self.corr.size} variables")
        return truncate(self.loadings, k)

    @cached_property
    def rotation(self) -> RotationResult | None:
        if self.rotate == "none" or self.truncated.k < 2:
            return None
        return varimax(self.truncated, normalize=self.kaiser_normalize)

    @cached_property
    def scores(self) -> np.ndarray:
        """The standardized data on the ``truncated.k`` leading eigenvectors, read-only.

        These are the modified PCA's component scores.  They keep the
        eigenvalues as their variances; divide column j by sqrt(eigenvalue_j)
        if standardized components are needed instead.
        """
        scores = standardize(self.data).values @ self.eig.eigenvectors[:, : self.truncated.k]
        scores.flags.writeable = False
        return scores
