"""Exception types shared across the package."""


class ChemobranchError(Exception):
    """Base class for all package errors."""


class LineageDepthExceeded(ChemobranchError):
    """Raised when a genealogy word grows past the packed-integer capacity."""


class DimensionMismatch(ChemobranchError):
    """Raised when two objects carry different spatial dimensions."""


class GridMismatch(ChemobranchError):
    """Raised when two fields or sources live on different grids."""


class NonFiniteAtom(ChemobranchError):
    """Raised when an empirical measure contains a non-finite position or weight."""


class NonFiniteQuery(ChemobranchError):
    """Raised when a field is evaluated at a non-finite point."""


class NonFiniteState(ChemobranchError):
    """Raised when a simulation produces non-finite positions or field values."""


class PopulationExplosion(ChemobranchError):
    """Raised when the live-cell count exceeds the configured cap."""


class EmptyEnsemble(ChemobranchError):
    """Raised when estimating a mean measure from zero replicas."""


class PicardStalled(ChemobranchError):
    """Raised when the fixed-point field iteration stops contracting.

    Carries the sequence of iteration gaps for diagnosis.
    """

    def __init__(self, message, gaps=None):
        super().__init__(message)
        self.gaps = list(gaps) if gaps is not None else []


class CFLViolation(ChemobranchError):
    """Raised when the upwind advection step would violate its CFL bound.

    Carries the dt that would satisfy the bound.
    """

    def __init__(self, message, required_dt=None):
        super().__init__(message)
        self.required_dt = required_dt


class ConfigInvalid(ChemobranchError, ValueError):
    """Raised when a setting fails validation.

    ``field`` names the offending value: a config key, or the field of the
    type that owns the rule (the config loader renames it to its key).
    """

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
