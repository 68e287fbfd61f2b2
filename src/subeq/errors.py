"""Exception types shared across the package."""


class SubeqError(Exception):
    """Base class for package errors."""


class DimensionMismatch(SubeqError, ValueError):
    """Operands live in incompatible dimensions."""


class SamplerExhausted(SubeqError, RuntimeError):
    """Rejection sampling hit its draw cap before collecting enough members."""


class NotHyperbolicError(SubeqError, RuntimeError):
    """A one-parameter restriction of a polynomial had roots too far from the
    real axis."""


class BracketError(SubeqError, RuntimeError):
    """Nodewise root bracketing failed even after expansion; the membership
    fiber along the value axis is empty."""


class GeometryError(SubeqError, ValueError):
    """Degenerate or inconsistent domain geometry (vanishing gradient of the
    defining function, point not on the boundary, ...)."""


class ConfigError(SubeqError, ValueError):
    """Malformed problem configuration."""
