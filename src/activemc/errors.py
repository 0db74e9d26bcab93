"""Exception types raised across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(ValueError):
    """Input contains NaN or infinite entries."""


class RankDeficiencyError(ValueError):
    """Unregularized least squares hit a singular normal system."""


class DegenerateLabelsError(ValueError):
    """A label vector that must contain both classes does not."""


class StratificationError(RuntimeError):
    """No two-class train/test partition found within the retry budget."""


class DivergenceError(RuntimeError):
    """The completion solver produced a non-finite objective value."""


class DatasetFormatError(ValueError):
    """A dataset file could not be parsed; message carries the location."""

