"""Exception types shared across the package."""

__all__ = [
    "HardynumError",
    "UnsupportedShape",
    "BasepointOutsideDomain",
    "DegenerateDomain",
    "ZeroMeasure",
    "TooFewPoints",
    "DivergentCase",
]


class HardynumError(ValueError):
    """Base class for all package-specific errors."""


class UnsupportedShape(HardynumError):
    """No closed form is available for this domain."""


class BasepointOutsideDomain(HardynumError):
    """Walk start point is not an interior point."""


class DegenerateDomain(HardynumError):
    """Domain has empty interior or no reachable boundary."""


class ZeroMeasure(HardynumError):
    """A decay profile entry is exactly zero where a positive value is required."""


class TooFewPoints(HardynumError):
    """Not enough profile entries for the requested computation."""


class DivergentCase(HardynumError):
    """The requested exponent makes both sides of the identity infinite."""
