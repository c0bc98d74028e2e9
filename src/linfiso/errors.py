"""Exception types shared across the package."""


class LinfisoError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(LinfisoError, ValueError):
    """Operand shapes are incompatible or a square matrix was required."""


class BoundsError(LinfisoError, IndexError):
    """A row, column, or coordinate index is out of range."""


class SingularMatrixError(LinfisoError, ArithmeticError):
    """A matrix that had to be inverted has determinant zero."""


class InvalidBasisError(LinfisoError, ValueError):
    """Input rows or columns do not form a basis of the right rank."""


class InadmissibleSetError(LinfisoError, ValueError):
    """The chosen index set has a singular square block."""


class WrongCodimensionError(LinfisoError, ValueError):
    """An operation specific to codimension 2 was called elsewhere."""


class ContractError(LinfisoError, ValueError):
    """A caller-supplied object violates a documented precondition."""


class LpModelError(LinfisoError, ValueError):
    """A linear program is malformed (shape mismatch, bad sense, bad bound)."""


class SetBudgetError(LinfisoError):
    """A scan would visit more index sets than its budget allows; raised
    before the scan starts."""


class InstanceFormatError(LinfisoError, ValueError):
    """An instance file cannot be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalConsistencyError(LinfisoError, RuntimeError):
    """An identity that must hold in exact arithmetic failed; report a bug."""
