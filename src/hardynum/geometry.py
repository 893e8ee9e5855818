"""Planar domain geometry.

Domains are open connected subsets of the complex plane. Built-in shapes:

    HalfPlane      right half-plane {Re z > 0}
    Sector         {|arg z| < opening/2}, anchored at the origin, bisected by
                   the positive real axis, opening in (0, 2*pi]
    Disk           {|z - center| < radius}
    DiskExterior   {|z - center| > radius}

Every domain carries a basepoint (an interior point used as the start of
random walks and as the pole of Green's functions) and three structural
flags: ``regular`` (all boundary points regular for the Dirichlet problem),
``bounded`` and ``simply_connected``. ``DiskExterior`` is not regular: its
boundary in the extended plane includes the point at infinity, which planar
Brownian motion never reaches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasepointOutsideDomain,
    DegenerateDomain,
    HardynumError,
    UnsupportedShape,
    ZeroScale,
)

__all__ = [
    "TailQuery",
    "Domain",
    "HalfPlane",
    "Sector",
    "Disk",
    "DiskExterior",
    "MappedDomain",
    "affine_image",
    "domain_to_dict",
    "domain_from_dict",
    "load_domain",
    "dump_domain",
]

_TWO_PI = 2 * math.pi


def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DegenerateDomain(f"{what} must have finite components, got {z!r}")
    return z


@dataclass(frozen=True)
class TailQuery:
    """Tail-set query: the part of the boundary with modulus above r."""

    r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise DegenerateDomain(f"tail radius must be finite and >= 0, got {self.r!r}")


class Domain:
    """Base class; concrete shapes implement the geometric queries."""

    shape: str = "generic"
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
        _require_finite(self.basepoint, "basepoint")
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


class MappedDomain(Domain):
    """Affine image a*D + b of a base domain, with exact pulled-back queries.

    It has no JSON form and no closed-form oracle."""

    shape = "generic"

    def __init__(self, base: Domain, a: complex, b: complex) -> None:
        self._base = base
        self._a = complex(a)
        self._b = complex(b)
        self.basepoint = self._a * base.basepoint + self._b
        self.regular = base.regular
        self.bounded = base.bounded
        self.simply_connected = base.simply_connected

    def _pull(self, z: complex) -> complex:
        return (complex(z) - self._b) / self._a

    def contains(self, z: complex) -> bool:
        return self._base.contains(self._pull(z))

    def distances(self, zs: np.ndarray) -> np.ndarray:
        # affine maps scale all distances by |a|, so exactness is preserved
        return abs(self._a) * self._base.distances((zs - self._b) / self._a)

    def projections(self, zs: np.ndarray) -> np.ndarray:
        return self._a * self._base.projections((zs - self._b) / self._a) + self._b

    def boundary_modulus_sup(self) -> float:
        base_sup = self._base.boundary_modulus_sup()
        if math.isinf(base_sup):
            return math.inf
        return abs(self._a) * base_sup + abs(self._b)

    def __repr__(self) -> str:
        return f"MappedDomain({self._base!r}, a={self._a!r}, b={self._b!r})"


def affine_image(d: Domain, a_coef: complex, b_coef: complex) -> Domain:
    """Image of the domain under z -> a_coef*z + b_coef.

    Disks stay disks under every affine map. Half-planes and sectors stay
    built-in only when the map fixes their defining rays (positive real
    scaling, plus an imaginary translation for the half-plane); otherwise the
    result is a wrapped domain with exact pulled-back queries.
    """
    a = complex(a_coef)
    b = complex(b_coef)
    if a == 0:
        raise ZeroScale("affine map needs a nonzero linear coefficient")
    _require_finite(a, "a_coef")
    _require_finite(b, "b_coef")

    new_base = a * d.basepoint + b
    if isinstance(d, _Round):
        return type(d)(abs(a) * d.radius, new_base, a * d.center + b)
    if isinstance(d, HalfPlane) and a.imag == 0 and a.real > 0 and b.real == 0:
        return HalfPlane(new_base)
    if isinstance(d, Sector) and a.imag == 0 and a.real > 0 and b == 0:
        return Sector(d.opening, new_base)
    return MappedDomain(d, a, b)


# ---- JSON interface ------------------------------------------------------


def domain_to_dict(d: Domain) -> dict:
    if d.shape == "generic":
        raise UnsupportedShape(f"domain {d!r} has no JSON form; only built-in shapes do")
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


def _point_from(data: dict, field: str, default) -> complex:
    """A number, or a pair [re, im] of numbers."""
    value = data.get(field, default)
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(float(value[0]), float(value[1]))
    raise HardynumError(
        f"domain field {field!r} must be a number or a pair [re, im], got {value!r}"
    )


def domain_from_dict(data: dict) -> Domain:
    if not isinstance(data, dict):
        raise HardynumError(f"a domain must be a JSON object, got {type(data).__name__}")
    shape = data.get("shape")
    basepoint = _point_from(data, "basepoint", [1.0, 0.0])
    # "regular" is derived from the shape and ignored on input
    if shape == "half_plane":
        return HalfPlane(basepoint)
    if shape == "sector":
        return Sector(_number_from(data, "opening"), basepoint)
    round_cls = {"disk": Disk, "disk_exterior": DiskExterior}.get(shape)
    if round_cls is not None:
        return round_cls(_number_from(data, "radius"), basepoint, _point_from(data, "center", 0.0))
    raise UnsupportedShape(f"unknown shape {shape!r}")


def load_domain(path: str) -> Domain:
    with open(path, "r", encoding="utf-8") as fh:
        return domain_from_dict(json.load(fh))


def dump_domain(d: Domain, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(domain_to_dict(d), fh, indent=2)
        fh.write("\n")
