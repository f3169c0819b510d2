"""Exception types shared across the library."""


class FacpcaError(Exception):
    """Base class for every error raised by this package."""


class SizeError(FacpcaError):
    """Too few elements, or a count/index outside its admissible range."""


class DataError(FacpcaError):
    """Input values violate a data contract (non-finite cells, bad labels, ...)."""


class DegenerateColumnError(FacpcaError):
    """A column is constant, so correlation-based quantities are undefined."""


class ShapeError(FacpcaError):
    """Matrix shape or symmetry requirement violated."""


class NotPositiveSemidefiniteError(FacpcaError):
    """A matrix that must be positive semidefinite has a clearly negative eigenvalue."""


class ConvergenceError(FacpcaError):
    """An iterative solver exhausted its sweep budget without converging."""


class ThresholdError(FacpcaError):
    """A threshold parameter lies outside its admissible interval."""


class OrderError(FacpcaError):
    """A sequence that must be sorted non-increasing is not."""


class InconsistentModelError(FacpcaError):
    """Derived quantities contradict each other beyond numerical tolerance."""


class ParseError(FacpcaError):
    """A CSV file could not be parsed; the message carries the line number."""
