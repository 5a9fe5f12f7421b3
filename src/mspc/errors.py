"""Exception types shared across the toolkit."""


class MspcError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(MspcError, ValueError):
    """An experiment config lacks a required key or holds an unknown one."""


class DimensionMismatch(MspcError, ValueError):
    """Operands have incompatible shapes."""


class DomainError(MspcError, ValueError):
    """Scalar argument lies outside its mathematical domain."""


class NotSymmetric(MspcError, ValueError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class IndefiniteMatrix(MspcError, ValueError):
    """A matrix expected positive (semi)definite has a negative eigenvalue."""


class InsufficientData(MspcError, ValueError):
    """Regression problem has fewer rows than unknowns."""


class SingularInformation(MspcError, ValueError):
    """Information matrix is (numerically) singular: data not exciting enough."""


class DeltaTooSmall(MspcError, ValueError):
    """Confidence level delta must exceed the constraint probability p."""


class InfeasibleInitialState(MspcError, ValueError):
    """The decision-free initial-state chance constraint is violated."""
