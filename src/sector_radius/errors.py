"""Exception types raised by the library and mapped to CLI exit codes."""


class SectorRadiusError(Exception):
    """Base class for all library errors."""


class MatrixShapeError(SectorRadiusError, ValueError):
    """Input is not a well-formed matrix for the operation (wrong shape,
    non-finite entries, or not Hermitian where required)."""


class ParameterError(SectorRadiusError, ValueError):
    """A scalar parameter is outside its admissible range."""


class FeasibilityError(SectorRadiusError, ValueError):
    """A constructor's feasibility constraints are violated.

    The message names the violated inequality.
    """


class DegenerateError(SectorRadiusError, ValueError):
    """The input is degenerate for the requested operation (zero matrix,
    eigenvector input where a two-dimensional span is needed, ...)."""


class ConstructionError(SectorRadiusError, RuntimeError):
    """A constructor's matrix fails one of its postconditions."""


class UsageError(SectorRadiusError, ValueError):
    """Malformed user input at the CLI boundary (bad JSON, bad document)."""
