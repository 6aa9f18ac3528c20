"""Exception types shared across the package."""


class DuplicatePointError(ValueError):
    """A candidate coincides (exactly or numerically) with an already-labeled point."""


class OutOfRangeError(ValueError):
    """A 1-D candidate lies outside the hull of the labeled positions."""


class EmptyPoolError(ValueError):
    """Selection was requested from an empty candidate pool."""


class ConditioningError(RuntimeError):
    """The kernel matrix does not factor, or its solve misses the residual bound.

    Attributes
    ----------
    condition : float
        Estimated condition number of the offending matrix.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


class IngestionError(ValueError):
    """A dataset file failed validation.

    Attributes
    ----------
    row : int or None
        1-based row number of the offending record (0 for the header).
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
