"""Exception types shared across the package, and the exponent check."""

import math


class BoxworldError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(BoxworldError, ValueError):
    """Operands act on different numbers of systems."""


class DomainError(BoxworldError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ResourceError(BoxworldError):
    """The requested computation exceeds the supported problem size."""


class ValidationError(BoxworldError, ValueError):
    """A state or table violates one of its defining axioms."""


class NoSignalingError(ValidationError):
    """A marginal distribution depends on a discarded party's setting."""


class IncompleteMomentError(BoxworldError, KeyError):
    """A required moment is absent from the supplied table."""


class InconsistencyError(BoxworldError):
    """Supplied moments do not correspond to any probability distribution."""


def validate_exponent(p: float) -> float:
    """Normalize an uncertainty exponent: any float >= 1, or infinity."""
    if p == math.inf:
        return p
    p = float(p)
    if not p >= 1.0:
        raise DomainError(f"the exponent must satisfy p >= 1, got {p}")
    return p
