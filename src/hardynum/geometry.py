"""Planar domain geometry.

Domains are open connected subsets of the complex plane. Built-in shapes:

    HalfPlane      right half-plane {Re z > 0}
    Sector         {|arg z| < opening/2}, anchored at the origin, bisected by
                   the positive real axis, opening in (0, 2*pi]
    Disk           {|z - center| < radius}
    DiskExterior   {|z - center| > radius}
    GenericSdf     user-supplied membership predicate plus a positive lower
                   bound on the distance to the boundary

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
from typing import Callable

import numpy as np

from .errors import (
    BasepointOutsideDomain,
    DegenerateDomain,
    QueryOutsideDomain,
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
    "GenericSdf",
    "MappedDomain",
    "in_tail",
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

    # ---- scalar queries -------------------------------------------------

    def contains(self, z: complex) -> bool:
        raise NotImplementedError

    def boundary_distance(self, z: complex) -> float:
        """Distance from an interior point to the boundary.

        Exact for built-in shapes, a positive lower bound for GenericSdf.
        Raises QueryOutsideDomain for points not inside.
        """
        if not self.contains(z):
            raise QueryOutsideDomain(f"{z!r} is not in the domain")
        return float(self.distances(np.asarray([z], dtype=complex))[0])

    # ---- vector internals (no containment checks) -----------------------

    def distances(self, zs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def projections(self, zs: np.ndarray) -> np.ndarray:
        """Nearest boundary point for each query point.

        For GenericSdf there is no projection oracle; the query point itself
        is returned, which is within the absorption shell of the true
        projection for the points the walk produces.
        """
        raise NotImplementedError

    # ---- structure -------------------------------------------------------

    def boundary_modulus_sup(self) -> float | None:
        """sup{|w| : w on the boundary}; None when unknown."""
        raise NotImplementedError

    def affine(self, a: complex, b: complex) -> "Domain":
        return affine_image(self, a, b)

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


class Disk(Domain):
    """Open disk {|z - center| < radius}."""

    shape = "disk"
    regular = True
    bounded = True
    simply_connected = True

    def __init__(self, radius: float, basepoint: complex = 0.0, center: complex = 0.0) -> None:
        if not (math.isfinite(radius) and radius > 0.0):
            raise DegenerateDomain(f"disk radius must be positive, got {radius!r}")
        self.radius = float(radius)
        self.center = complex(center)
        self.basepoint = complex(basepoint)
        self._check_basepoint()

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - self.center) < self.radius

    def distances(self, zs: np.ndarray) -> np.ndarray:
        return self.radius - np.abs(zs - self.center)

    def projections(self, zs: np.ndarray) -> np.ndarray:
        rel = zs - self.center
        mod = np.abs(rel)
        # basepoint exactly at the center projects to an arbitrary boundary point
        safe = np.where(mod == 0.0, 1.0, mod)
        return self.center + self.radius * rel / safe

    def boundary_modulus_sup(self) -> float:
        return abs(self.center) + self.radius

    def __repr__(self) -> str:
        return f"Disk(radius={self.radius!r}, basepoint={self.basepoint!r}, center={self.center!r})"


class DiskExterior(Domain):
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
        if not (math.isfinite(radius) and radius > 0.0):
            raise DegenerateDomain(f"radius must be positive, got {radius!r}")
        self.radius = float(radius)
        self.center = complex(center)
        self.basepoint = complex(basepoint)
        self._check_basepoint()

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - self.center) > self.radius

    def distances(self, zs: np.ndarray) -> np.ndarray:
        return np.abs(zs - self.center) - self.radius

    def projections(self, zs: np.ndarray) -> np.ndarray:
        rel = zs - self.center
        mod = np.abs(rel)
        safe = np.where(mod == 0.0, 1.0, mod)
        return self.center + self.radius * rel / safe

    def boundary_modulus_sup(self) -> float:
        return abs(self.center) + self.radius

    def __repr__(self) -> str:
        return (
            f"DiskExterior(radius={self.radius!r}, basepoint={self.basepoint!r}, "
            f"center={self.center!r})"
        )


class GenericSdf(Domain):
    """Domain given by a membership predicate and a distance lower bound."""

    shape = "generic"

    def __init__(
        self,
        contains_fn: Callable[[complex], bool],
        distance_fn: Callable[[complex], float],
        basepoint: complex,
        bounded: bool,
        simply_connected: bool,
        regular: bool = True,
    ) -> None:
        self._contains_fn = contains_fn
        self._distance_fn = distance_fn
        self.basepoint = complex(basepoint)
        self.bounded = bool(bounded)
        self.simply_connected = bool(simply_connected)
        self.regular = bool(regular)
        self._check_basepoint()

    def contains(self, z: complex) -> bool:
        return bool(self._contains_fn(complex(z)))

    def distances(self, zs: np.ndarray) -> np.ndarray:
        out = np.empty(len(zs), dtype=float)
        for i, z in enumerate(zs):
            out[i] = self._distance_fn(complex(z))
        return out

    def projections(self, zs: np.ndarray) -> np.ndarray:
        # no projection oracle; the caller only sees points within the
        # absorption shell, so the point itself is an epsilon-accurate proxy
        return np.asarray(zs, dtype=complex)

    def boundary_modulus_sup(self) -> float | None:
        return None if self.bounded else math.inf

    def __repr__(self) -> str:
        return f"GenericSdf(basepoint={self.basepoint!r}, bounded={self.bounded!r})"


class MappedDomain(Domain):
    """Affine image a*D + b of a base domain; behaves like a GenericSdf."""

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

    def boundary_modulus_sup(self) -> float | None:
        base_sup = self._base.boundary_modulus_sup()
        if base_sup is None:
            return None
        if math.isinf(base_sup):
            return math.inf
        return abs(self._a) * base_sup + abs(self._b)

    def __repr__(self) -> str:
        return f"MappedDomain({self._base!r}, a={self._a!r}, b={self._b!r})"


def in_tail(d: Domain, z: complex, q: TailQuery) -> bool:
    """Whether the nearest boundary point to z has modulus above q.r."""
    proj = d.projections(np.asarray([z], dtype=complex))
    return bool(np.abs(proj)[0] > q.r)


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
    if isinstance(d, Disk):
        return Disk(abs(a) * d.radius, new_base, a * d.center + b)
    if isinstance(d, DiskExterior):
        return DiskExterior(abs(a) * d.radius, new_base, a * d.center + b)
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
    if isinstance(d, (Disk, DiskExterior)):
        out["radius"] = d.radius
        if d.center != 0:
            out["center"] = [d.center.real, d.center.imag]
    out["basepoint"] = [d.basepoint.real, d.basepoint.imag]
    out["regular"] = d.regular
    return out


def _point_from(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    re, im = value
    return complex(float(re), float(im))


def domain_from_dict(data: dict) -> Domain:
    shape = data.get("shape")
    basepoint = _point_from(data.get("basepoint", [1.0, 0.0]))
    # "regular" is derived from the shape and ignored on input
    if shape == "half_plane":
        return HalfPlane(basepoint)
    if shape == "sector":
        return Sector(float(data["opening"]), basepoint)
    if shape == "disk":
        return Disk(float(data["radius"]), basepoint, _point_from(data.get("center", 0.0)))
    if shape == "disk_exterior":
        return DiskExterior(float(data["radius"]), basepoint, _point_from(data.get("center", 0.0)))
    raise UnsupportedShape(f"unknown shape {shape!r}")


def load_domain(path: str) -> Domain:
    with open(path, "r", encoding="utf-8") as fh:
        return domain_from_dict(json.load(fh))


def dump_domain(d: Domain, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(domain_to_dict(d), fh, indent=2)
        fh.write("\n")
