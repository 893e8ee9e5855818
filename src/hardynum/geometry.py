"""Planar domain geometry.

Domains are open connected subsets of the complex plane. Built-in shapes:

    HalfPlane      right half-plane {Re z > 0}
    Sector         {|arg z| < opening/2}, anchored at the origin, bisected by
                   the positive real axis, opening in (0, 2*pi]
    Disk           {|z - center| < radius}
    DiskExterior   {|z - center| > radius}

These four are the only shapes: every query, oracle and JSON form handles
each of them and nothing else.

Every domain carries a basepoint (an interior point used as the start of
random walks and as the pole of Green's functions; the constructor default
is 1 for HalfPlane and Sector, 0 for Disk and 2 for DiskExterior) and three
structural flags: ``regular`` (all boundary points regular for the Dirichlet
problem), ``bounded`` and ``simply_connected``. ``DiskExterior`` is not
regular: its boundary in the extended plane includes the point at infinity,
which planar Brownian motion never reaches.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import (
    BasepointOutsideDomain,
    DegenerateDomain,
    HardynumError,
    UnsupportedShape,
)

__all__ = [
    "Domain",
    "HalfPlane",
    "Sector",
    "Disk",
    "DiskExterior",
    "domain_to_dict",
    "domain_from_dict",
    "load_domain",
    "dump_domain",
]

_TWO_PI = 2 * math.pi


class Domain:
    """Base class; concrete shapes implement the geometric queries."""

    shape: str
    basepoint: complex
    regular: bool
    bounded: bool
    simply_connected: bool

    def contains(self, z: complex) -> bool:
        raise NotImplementedError

    # ---- vector queries (no containment checks) -------------------------

    def distances(self, zs: np.ndarray) -> np.ndarray:
        """Exact distance from each query point to the boundary."""
        raise NotImplementedError

    def projections(self, zs: np.ndarray) -> np.ndarray:
        """Nearest boundary point for each query point."""
        raise NotImplementedError

    # ---- structure -------------------------------------------------------

    def boundary_modulus_sup(self) -> float:
        """sup{|w| : w on the boundary}."""
        raise NotImplementedError

    def _check_basepoint(self) -> None:
        b = self.basepoint
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise DegenerateDomain(f"basepoint must have finite components, got {b!r}")
        if not self.contains(self.basepoint):
            raise BasepointOutsideDomain(
                f"basepoint {self.basepoint!r} is not inside the domain"
            )


class HalfPlane(Domain):
    """Right half-plane {Re z > 0}."""

    shape = "half_plane"
    regular = True
    bounded = False
    simply_connected = True

    def __init__(self, basepoint: complex = 1.0) -> None:
        self.basepoint = complex(basepoint)
        self._check_basepoint()

    def contains(self, z: complex) -> bool:
        return complex(z).real > 0.0

    def distances(self, zs: np.ndarray) -> np.ndarray:
        return zs.real.copy()

    def projections(self, zs: np.ndarray) -> np.ndarray:
        return 1j * zs.imag

    def boundary_modulus_sup(self) -> float:
        return math.inf

    def __repr__(self) -> str:
        return f"HalfPlane(basepoint={self.basepoint!r})"


class Sector(Domain):
    """Origin-anchored sector around the positive real axis.

    opening = 2*pi gives the plane slit along the negative real axis.
    """

    shape = "sector"
    regular = True
    bounded = False
    simply_connected = True

    def __init__(self, opening: float, basepoint: complex = 1.0) -> None:
        if not (0.0 < opening <= _TWO_PI):
            raise DegenerateDomain(f"sector opening must be in (0, 2*pi], got {opening!r}")
        self.opening = float(opening)
        self._cos_half = math.cos(self.opening / 2)
        self._sin_half = math.sin(self.opening / 2)
        self.basepoint = complex(basepoint)
        self._check_basepoint()

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if z == 0:
            return False
        return abs(math.atan2(z.imag, z.real)) < self.opening / 2

    def _frame(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # By the symmetry about the real axis the nearest ray of z is the
        # upper ray for the folded point (x, |y|); in that ray's frame
        # `along` is the coordinate along the ray, `perp` the distance from
        # its line. Behind the vertex (along < 0) the nearest point is 0.
        c, s = self._cos_half, self._sin_half
        x, y = zs.real, np.abs(zs.imag)
        along = x * c + y * s
        perp = np.abs(y * c - x * s)
        return along, perp

    def distances(self, zs: np.ndarray) -> np.ndarray:
        along, perp = self._frame(zs)
        return np.where(along >= 0.0, perp, np.abs(zs))

    def projections(self, zs: np.ndarray) -> np.ndarray:
        along, _ = self._frame(zs)
        # copysign, not sign: y = +-0.0 must still land on a ray
        ray = self._cos_half + 1j * np.copysign(self._sin_half, zs.imag)
        return np.maximum(along, 0.0) * ray

    def boundary_modulus_sup(self) -> float:
        return math.inf

    def __repr__(self) -> str:
        return f"Sector(opening={self.opening!r}, basepoint={self.basepoint!r})"


class _Round(Domain):
    """The parts Disk and DiskExterior share: the circle |z - center| = radius."""

    def __init__(self, radius: float, basepoint: complex, center: complex) -> None:
        if not (math.isfinite(radius) and radius > 0.0):
            raise DegenerateDomain(f"{self.shape} radius must be positive, got {radius!r}")
        self.radius = float(radius)
        self.center = complex(center)
        self.basepoint = complex(basepoint)
        self._check_basepoint()

    def projections(self, zs: np.ndarray) -> np.ndarray:
        rel = zs - self.center
        mod = np.abs(rel)
        # the center is equidistant from the whole circle; it projects to center + radius
        at_center = mod == 0.0
        rel = np.where(at_center, 1.0, rel)
        mod = np.where(at_center, 1.0, mod)
        return self.center + self.radius * rel / mod

    def boundary_modulus_sup(self) -> float:
        return abs(self.center) + self.radius

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(radius={self.radius!r}, basepoint={self.basepoint!r}, "
            f"center={self.center!r})"
        )


class Disk(_Round):
    """Open disk {|z - center| < radius}."""

    shape = "disk"
    regular = True
    bounded = True
    simply_connected = True

    def __init__(self, radius: float, basepoint: complex = 0.0, center: complex = 0.0) -> None:
        super().__init__(radius, basepoint, center)

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - self.center) < self.radius

    def distances(self, zs: np.ndarray) -> np.ndarray:
        return self.radius - np.abs(zs - self.center)


class DiskExterior(_Round):
    """Exterior {|z - center| > radius}.

    Not regular: the point at infinity belongs to the boundary in the
    extended plane but is never hit by planar Brownian motion, so the
    harmonic-measure decay formula does not apply.
    """

    shape = "disk_exterior"
    regular = False
    bounded = False
    simply_connected = False

    def __init__(self, radius: float, basepoint: complex = 2.0, center: complex = 0.0) -> None:
        super().__init__(radius, basepoint, center)

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - self.center) > self.radius

    def distances(self, zs: np.ndarray) -> np.ndarray:
        return np.abs(zs - self.center) - self.radius


# ---- JSON interface ------------------------------------------------------


def domain_to_dict(d: Domain) -> dict:
    out: dict = {"shape": d.shape}
    if isinstance(d, Sector):
        out["opening"] = d.opening
    if isinstance(d, _Round):
        out["radius"] = d.radius
        if d.center != 0:
            out["center"] = [d.center.real, d.center.imag]
    out["basepoint"] = [d.basepoint.real, d.basepoint.imag]
    out["regular"] = d.regular
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_from(data: dict, field: str) -> float:
    if field not in data:
        raise HardynumError(f"shape {data['shape']!r} needs the domain field {field!r}")
    value = data[field]
    if not _is_number(value):
        raise HardynumError(f"domain field {field!r} must be a number, got {value!r}")
    return float(value)


def _point_from(data: dict, field: str) -> dict:
    """{field: point} when the field is given, a number or a pair [re, im] of
    numbers; {} when it is not, so that the constructor default applies."""
    if field not in data:
        return {}
    value = data[field]
    if _is_number(value):
        return {field: complex(value)}
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return {field: complex(float(value[0]), float(value[1]))}
    raise HardynumError(
        f"domain field {field!r} must be a number or a pair [re, im], got {value!r}"
    )


def domain_from_dict(data: dict) -> Domain:
    """The domain a JSON object describes; an omitted basepoint or center
    takes the constructor's default."""
    if not isinstance(data, dict):
        raise HardynumError(f"a domain must be a JSON object, got {type(data).__name__}")
    shape = data.get("shape")
    basepoint = _point_from(data, "basepoint")
    # "regular" is derived from the shape and ignored on input
    if shape == "half_plane":
        return HalfPlane(**basepoint)
    if shape == "sector":
        return Sector(_number_from(data, "opening"), **basepoint)
    round_cls = {"disk": Disk, "disk_exterior": DiskExterior}.get(shape)
    if round_cls is not None:
        return round_cls(_number_from(data, "radius"), **basepoint, **_point_from(data, "center"))
    raise UnsupportedShape(f"unknown shape {shape!r}")


def load_domain(path: str) -> Domain:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HardynumError(f"domain file {path} is not valid JSON: {exc}") from None
    return domain_from_dict(data)


def dump_domain(d: Domain, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(domain_to_dict(d), fh, indent=2)
        fh.write("\n")
