"""Exception types shared across the package."""


class CempcaError(Exception):
    """Base class for all library errors."""


class InvalidInputError(CempcaError):
    """An argument violates an operation's preconditions."""


class SettingError(InvalidInputError):
    """A fit setting is out of range; the message is "<setting> <rule>"."""

    def __init__(self, setting, rule):
        super().__init__(f"{setting} {rule}")
        self.setting = setting
        self.rule = rule


class DataError(CempcaError):
    """A dataset file is missing or unreadable."""


class ParseError(DataError):
    """Malformed CSV content; carries the 1-based row/column location."""

    def __init__(self, message, row=None, column=None):
        if row is not None:
            message = f"{message} (row {row}, column {column})"
        super().__init__(message)
        self.row = row
        self.column = column


class NumericalError(CempcaError):
    """A computation failed numerically; raised as is when it left the
    representable range (overflow, all-zero densities). A restart that
    raises one is skipped, and the CLI exits 4."""


class SingularMatrixError(NumericalError):
    """A factorization failed on a matrix that should be positive-definite."""


class EmptyClusterError(NumericalError):
    """A cluster received zero total weight during a parameter update."""

    def __init__(self, cluster):
        super().__init__(f"cluster {cluster} has no assigned weight")
        self.cluster = cluster


class DegenerateUpdateError(NumericalError):
    """An orthogonality update hit a rank-deficient matrix."""
