"""Exception types shared across the package."""

__all__ = ["GridTooCoarse", "DivergenceWarning", "ZeroArrival", "GridMismatch",
           "UnstableConfig", "ConfigError"]


class GridTooCoarse(ValueError):
    """Energy grid spacing too coarse for the requested time window (aliasing risk)."""


class DivergenceWarning(FloatingPointError):
    """Evanescent growth exponent would overflow; the requested translation is in
    the non-physical regime (amplitude grows without bound).  Also raised for
    an arrival probability or arrival-time density that is not finite."""


class ZeroArrival(ArithmeticError):
    """Arrival probability numerically zero; the time density is undefined."""


class GridMismatch(ValueError):
    """Two distributions do not share the same time grid."""


class UnstableConfig(ValueError):
    """Grid-solver configuration violates its resolution/step-size bounds."""


class ConfigError(ValueError):
    """Invalid scenario configuration, with the offending field named."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
