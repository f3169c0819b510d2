"""Principal component and exploratory factor analysis on correlation matrices.

The library covers the shared PCA/FA pipeline (standardization, Pearson
correlation, LAPACK eigendecomposition with a defined order for tied
eigenvalues, factor loadings, Varimax rotation) and a retention rule that
keeps adding factors until every variable has most of its variance
explained.  ``Analysis`` (``facpca.pipeline``) runs that pipeline on one
input, each stage at most once; its ``scores`` are the modified PCA's
component scores, the standardized data on the leading eigenvectors.
"""

from .eigen import EigenDecomposition, eigen_symmetric
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateColumnError,
    FacpcaError,
    InconsistentModelError,
    NotPositiveSemidefiniteError,
    OrderError,
    ParseError,
    ShapeError,
    SizeError,
    ThresholdError,
)
from .factors import (
    FactorModel,
    LoadingMatrix,
    build_model,
    communalities,
    full_loadings,
    simulate,
    truncate,
)
from .pipeline import Analysis
from .retention import (
    RetentionReport,
    VarianceTable,
    half_count,
    kaiser_count,
    minvar_count,
    percentage_count,
    scree_data,
    variance_table,
)
from .stats import (
    CorrelationMatrix,
    DataMatrix,
    VariableStats,
    correlation_matrix,
    determination_matrix,
    standardize,
    summarize,
)
from .varimax import RotationResult, varimax, varimax_objective

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # stats
    "DataMatrix",
    "VariableStats",
    "CorrelationMatrix",
    "summarize",
    "standardize",
    "correlation_matrix",
    "determination_matrix",
    # eigen
    "EigenDecomposition",
    "eigen_symmetric",
    # factors
    "LoadingMatrix",
    "FactorModel",
    "full_loadings",
    "truncate",
    "communalities",
    "build_model",
    "simulate",
    # varimax
    "RotationResult",
    "varimax_objective",
    "varimax",
    # retention
    "RetentionReport",
    "VarianceTable",
    "variance_table",
    "kaiser_count",
    "percentage_count",
    "half_count",
    "minvar_count",
    "scree_data",
    # pipeline
    "Analysis",
    # errors
    "FacpcaError",
    "SizeError",
    "DataError",
    "DegenerateColumnError",
    "ShapeError",
    "NotPositiveSemidefiniteError",
    "ConvergenceError",
    "ThresholdError",
    "OrderError",
    "InconsistentModelError",
    "ParseError",
]
