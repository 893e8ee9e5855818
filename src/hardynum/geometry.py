"""Planar domain geometry and each shape's closed forms.

Domains are open connected subsets of the complex plane. Built-in shapes:

    HalfPlane      right half-plane {Re z > 0}
    Sector         {|arg z| < opening/2}, anchored at the origin, bisected by
                   the positive real axis, opening in (0, 2*pi]
    Disk           {|z - center| < radius}
    DiskExterior   {|z - center| > radius}

These four are the only shapes: every query, closed form and JSON form
handles each of them and nothing else.

Every domain carries a basepoint (an interior point used as the start of
random walks and as the pole of Green's functions; the constructor default
is 1 for HalfPlane and Sector, 0 for Disk and 2 for DiskExterior) and three
structural flags: ``regular`` (all boundary points regular for the Dirichlet
problem), ``bounded`` and ``simply_connected``. ``DiskExterior`` is not
regular: its boundary in the extended plane includes the point at infinity,
which planar Brownian motion never reaches.

Each class carries its closed forms, the ground truth of the Monte Carlo and
identity checks: the decay exponent, the harmonic measure of the boundary
beyond modulus r and the Green's function, both seen from the basepoint, and
where they are non-smooth. The base Domain raises UnsupportedShape for each.
All are exact, with no series truncation and no quadrature. The tail measure:

    half-plane   1 - (1/pi) * (atan((r-y)/x) + atan((r+y)/x)),  a = x + iy,
                 evaluated as (1/pi) * (atan(x/(r-y)) + atan(x/(r+y)))
                 for r > |y|, where the first form cancels
    sector       pulled back through w -> w**(pi/opening), which maps the
                 sector conformally onto the right half-plane and sends the
                 tail beyond r to the tail beyond r**(pi/opening)
    disk(s)      0 once r clears every boundary modulus, 1 below all of them

The function side (function_norms) integrates a covering map f of the unit
disk onto the domain, f(0) the basepoint. Four instances carry one in closed
form, as log|f| (_log_modulus); every other instance raises UnsupportedShape.
A shape with a map also declares odd_mirror; singular_angles, where in
[0, pi] |f| turns singular at the rim, both ends or neither if odd_mirror;
and grading_floor, how deep the graded panels of its growth table reach:
each graded rule starts with a panel that spans this fraction of its scale,
the gap 1 - |z| for the theta panels toward a singular end. The base
Domain's 1e-9 resolves exp-cayley's peak, about gap**1.5 wide; a map that
varies on the scale of the gap takes a shallower floor, at which every mean
of its table agrees with the 1e-9 table's to 1e-12 relative:

    HalfPlane()                      cayley (1+z)/(1-z)            0, pi   1e-1
    Sector(opening)                  cayley^beta, beta=opening/pi  0, pi   1e-1
    Disk(1.0)                        the identity z                none    1e-4
    DiskExterior(1.0, basepoint=e)   exp-cayley exp((1+z)/(1-z)),  0       1e-9
                                     a covering map, not univalent

A shape whose map is another shape's map to a power declares it once, as
_map_power = (base, beta), and inherits log|f| = beta log|g| from it, g the
base's map: the sector's base is HalfPlane() and beta = opening/pi, since
|cayley^beta|^p = |cayley|^(beta p). Every other map is its own base, with
beta 1. A growth table is built on the base's map and reads it at beta p
(function_norms.NodeTable).
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
    "exact_hm",
    "exact_green",
]

_TWO_PI = 2 * math.pi


class Domain:
    """Base class; concrete shapes implement the geometric queries."""

    shape: str
    basepoint: complex
    regular: bool
    bounded: bool
    simply_connected: bool

    def contains(self, z):
        """Whether z lies in the domain; z is a point or an array of points,
        and an array gives a bool array."""
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

    # ---- closed forms: each shape overrides the ones it has -------------

    @property
    def decay_exponent(self) -> float:
        """Exact power-law decay rate of the tail measure in r (inf for bounded tails)."""
        raise UnsupportedShape(f"no closed-form decay exponent for {self!r}")

    @property
    def hm_breaks(self) -> tuple[float, ...]:
        """Radii where the tail measure is non-smooth."""
        raise UnsupportedShape(f"no closed-form harmonic measure for {self!r}")

    def circle_breaks(self, r: float) -> list[float]:
        """Angles in (-pi, pi) where the circle |z| = r crosses the boundary."""
        raise UnsupportedShape(f"no boundary crossings known for {self!r}")

    def _tail(self, r):  # a float for a float radius, an array for an array
        raise UnsupportedShape(f"no closed-form harmonic measure for {self!r}")

    def _green(self, z: np.ndarray) -> np.ndarray:
        raise UnsupportedShape(f"no closed-form Green's function for {self!r}")

    # ---- covering map f of the unit disk, f(0) = basepoint --------------

    # whether theta -> pi - theta, which swaps sin2 and cos2, negates log|f|
    odd_mirror = False
    singular_angles: tuple[float, ...]  # see the module docstring
    grading_floor = 1e-9  # see the module docstring

    @property
    def _map_power(self) -> tuple[Domain, float]:
        """(base, beta): the covering map is the base's map to the power beta.
        A map is its own base unless its shape declares another."""
        return self, 1.0

    def _log_modulus(self, s, sin2, cos2):
        """log|f| at z = (1-s) e^{i theta}, elementwise.

        The angle enters as sin2 = sin^2(theta/2) and cos2 = cos^2(theta/2),
        so a caller can mirror theta about pi/2 by swapping them without
        losing the digits of |1+z| near theta = pi. Here it is beta times the
        base's log|f| (_map_power), for a shape that declares a base.
        """
        base, beta = self._map_power
        if base is self:
            raise UnsupportedShape(f"no closed-form covering map for {self!r}")
        return beta * base._log_modulus(s, sin2, cos2)

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

    def contains(self, z):
        return np.real(z) > 0.0

    def distances(self, zs: np.ndarray) -> np.ndarray:
        return zs.real.copy()

    def projections(self, zs: np.ndarray) -> np.ndarray:
        return 1j * zs.imag

    def boundary_modulus_sup(self) -> float:
        return math.inf

    decay_exponent = 1.0
    hm_breaks = ()

    def circle_breaks(self, r: float) -> list[float]:
        return [-0.5 * math.pi, 0.5 * math.pi]

    def _tail(self, r):
        return _halfplane_tail(self.basepoint, r)

    def _green(self, z: np.ndarray) -> np.ndarray:
        return _halfplane_green(self.basepoint, z)

    odd_mirror = True
    singular_angles = (0.0, math.pi)  # the pole and the zero of (1+z)/(1-z)
    grading_floor = 1e-1  # the pole varies on the scale of the gap

    def _log_modulus(self, s, sin2, cos2):
        if self.basepoint != 1.0:
            return super()._log_modulus(s, sin2, cos2)
        return _cayley_log_modulus(s, sin2, cos2)

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

    def contains(self, z):
        return (z != 0) & (np.abs(np.angle(z)) < 0.5 * self.opening)

    def _frame(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # By the symmetry about the real axis the nearest ray of z is the
        # upper ray for the folded point (x, |y|); in that ray's frame
        # `along` is the coordinate along the ray, `perp` the distance from
        # its line. Behind the vertex (along < 0) the nearest point is 0.
        # along = x c + y s and perp = |y c - x s|, each operation as written
        # and in that order, in place on three new arrays
        c, s = self._cos_half, self._sin_half
        x, y = zs.real, np.abs(zs.imag)
        scratch = np.multiply(y, s)
        along = np.multiply(x, c)
        along += scratch
        np.multiply(x, s, out=scratch)
        y *= c
        y -= scratch
        return along, np.abs(y, out=y)

    def distances(self, zs: np.ndarray) -> np.ndarray:
        along, perp = self._frame(zs)
        behind = np.flatnonzero(along < 0.0)  # NaN rows are not: their perp is NaN
        del along  # freed before the gather
        perp[behind] = np.abs(zs[behind])
        return perp

    def projections(self, zs: np.ndarray) -> np.ndarray:
        # _frame's `along` alone, the same operations in the same order
        scratch = np.abs(zs.imag)
        scratch *= self._sin_half
        along = np.multiply(zs.real, self._cos_half)
        along += scratch
        # copysign, not sign: y = +-0.0 must still land on a ray
        ray = self._cos_half + 1j * np.copysign(self._sin_half, zs.imag)
        return np.maximum(along, 0.0) * ray

    def boundary_modulus_sup(self) -> float:
        return math.inf

    hm_breaks = ()

    @property
    def decay_exponent(self) -> float:
        return math.pi / self.opening

    def circle_breaks(self, r: float) -> list[float]:
        half = 0.5 * self.opening
        return [t for t in (-half, half) if -math.pi < t < math.pi]

    def _tail(self, r):
        return _halfplane_tail(self.basepoint**self.decay_exponent, r**self.decay_exponent)

    def _green(self, z: np.ndarray) -> np.ndarray:
        power = self.decay_exponent
        return np.where(self.contains(z), _halfplane_green(self.basepoint**power, z**power), 0.0)

    odd_mirror = True
    singular_angles = (0.0, math.pi)  # the pole and the zero of (1+z)/(1-z)
    grading_floor = HalfPlane.grading_floor  # its table is the half-plane's

    @property
    def _map_power(self) -> tuple[Domain, float]:
        # cayley^beta maps the disk onto the sector and 0 to 1
        if self.basepoint != 1.0:
            return super()._map_power
        return HalfPlane(), self.opening / math.pi

    def __repr__(self) -> str:
        return f"Sector(opening={self.opening!r}, basepoint={self.basepoint!r})"


class _Round(Domain):
    """The parts Disk and DiskExterior share: the circle |z - center| = radius."""

    def __init__(self, radius: float, basepoint: complex, center: complex) -> None:
        if not (math.isfinite(radius) and radius > 0.0):
            raise DegenerateDomain(f"{self.shape} radius must be positive, got {radius!r}")
        self.radius = float(radius)
        self._radius = np.array(self.radius)  # 0-d, for the per-call distances
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

    decay_exponent = math.inf

    @property
    def hm_breaks(self) -> tuple[float, float]:
        dist = abs(self.center)
        return (abs(dist - self.radius), dist + self.radius)

    def circle_breaks(self, r: float) -> list[float]:
        dist = abs(self.center)
        cos_phi = (r * r + dist * dist - self.radius**2) / (2.0 * r * dist) if dist else 1.0
        if abs(cos_phi) >= 1.0:  # a centered circle, or r outside the band hm_breaks
            return []
        phi = math.acos(cos_phi)
        base = math.atan2(self.center.imag, self.center.real)
        # wrap into (-pi, pi]
        wrapped = (math.atan2(math.sin(t), math.cos(t)) for t in (base - phi, base + phi))
        return sorted(t for t in wrapped if -math.pi < t < math.pi)

    def _tail(self, r):
        lo, hi = self.hm_breaks
        if np.any((lo < r) & (r < hi)):
            raise UnsupportedShape(f"tail radius inside the boundary modulus band of {self!r}")
        # beyond hi the tail set is empty; below lo it is the entire boundary
        tail = np.where(r >= hi, 0.0, 1.0)
        return tail if np.ndim(r) else float(tail)

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
    singular_angles = ()  # the identity's |z| is constant on every circle
    grading_floor = 1e-4  # |z|^p (1-s) is smooth but at the center, s = 1

    def __init__(self, radius: float, basepoint: complex = 0.0, center: complex = 0.0) -> None:
        super().__init__(radius, basepoint, center)

    def contains(self, z):
        return np.abs(z - self.center) < self.radius

    def distances(self, zs: np.ndarray) -> np.ndarray:
        dist = np.abs(zs - self.center if self.center else zs)
        return np.subtract(self._radius, dist, out=dist)

    def _green(self, z: np.ndarray) -> np.ndarray:
        a = self.basepoint - self.center
        u = z - self.center
        val = np.log(np.abs(self.radius**2 - np.conj(a) * u) / (self.radius * np.abs(u - a)))
        return np.where(np.abs(u) < self.radius, np.maximum(val, 0.0), 0.0)

    def _log_modulus(self, s, sin2, cos2):
        if (self.radius, self.center, self.basepoint) != (1.0, 0.0, 0.0):
            return super()._log_modulus(s, sin2, cos2)
        return np.broadcast_to(np.log(1.0 - s), np.shape(sin2))


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
    singular_angles = (0.0,)  # the essential singularity of exp((1+z)/(1-z))

    def __init__(self, radius: float, basepoint: complex = 2.0, center: complex = 0.0) -> None:
        super().__init__(radius, basepoint, center)

    def contains(self, z):
        return np.abs(z - self.center) > self.radius

    def distances(self, zs: np.ndarray) -> np.ndarray:
        dist = np.abs(zs - self.center if self.center else zs)
        dist -= self._radius
        return dist

    def _log_modulus(self, s, sin2, cos2):
        if (self.radius, self.center, self.basepoint) != (1.0, 0.0, math.e):
            return super()._log_modulus(s, sin2, cos2)
        # log|exp(w)| = Re w, and Re (1+z)/(1-z) = s(2-s) / |1-z|^2
        return s * (2.0 - s) / (s * s + 4.0 * (1.0 - s) * sin2)


# ---- closed forms ----------------------------------------------------------


def _halfplane_tail(a: complex, r):
    # integral of the Poisson kernel of {Re z > 0} over {it : |t| > r}.
    # For r > |y| both arctangents of the first form near pi/2 and its
    # 1 - ... cancels; atan(s) = pi/2 - atan(1/s) for s > 0 gives the
    # complementary form, which does not.
    x, y = a.real, a.imag
    if np.ndim(r) == 0:
        if r > abs(y):
            return (math.atan(x / (r - y)) + math.atan(x / (r + y))) / math.pi
        return 1.0 - (math.atan((r - y) / x) + math.atan((r + y) / x)) / math.pi
    far = r > abs(y)
    # each form only where it is used, so no division by r -+ y = 0
    rf, rn = r[far], r[~far]
    out = np.empty_like(r)
    out[far] = (np.arctan(x / (rf - y)) + np.arctan(x / (rf + y))) / math.pi
    out[~far] = 1.0 - (np.arctan((rn - y) / x) + np.arctan((rn + y) / x)) / math.pi
    return out


def _halfplane_green(a: complex, w: np.ndarray) -> np.ndarray:
    val = np.log(np.abs((w + np.conj(a)) / (w - a)))
    return np.where(w.real > 0.0, np.maximum(val, 0.0), 0.0)


def _cayley_log_modulus(s, sin2, cos2):
    # log|(1+z)/(1-z)| from the cancellation-free moduli at z = (1-s) e^{i theta}:
    # |1 -+ z|^2 = s^2 + 4(1-s) sin^2(theta/2), resp. cos^2(theta/2)
    base = 4.0 * (1.0 - s)
    return 0.5 * np.log(s * s + base * cos2) - 0.5 * np.log(s * s + base * sin2)


def exact_hm(d: Domain, r):
    """Harmonic measure of the boundary tail beyond modulus r, from the basepoint.

    r is a radius or an array-like of radii; an array gives an array, and a
    radius a float from math-module arithmetic.
    """
    radii = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(radii) & (radii >= 0)):
        raise ValueError(f"tail radius must be finite and >= 0, got {r!r}")
    return d._tail(radii if radii.ndim else float(radii))


def exact_green(d: Domain, w):
    """Green's function of the domain with pole at the basepoint; +inf at the pole.

    Extended by zero outside the domain, which also gives the correct value
    0 in the limit |w| -> infinity. w is a point or an array of points; an
    array gives an array and a point a float.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        green = d._green(np.asarray(w, dtype=complex))
    return green if np.ndim(w) else float(green)


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


# the fields each shape reads besides "shape", "basepoint" and "regular"
_SHAPE_FIELDS = {
    "half_plane": (),
    "sector": ("opening",),
    "disk": ("radius", "center"),
    "disk_exterior": ("radius", "center"),
}


def domain_from_dict(data: dict) -> Domain:
    """The domain a JSON object describes; an omitted basepoint or center
    takes the constructor's default, and a field the shape does not read is
    an error."""
    if not isinstance(data, dict):
        raise HardynumError(f"a domain must be a JSON object, got {type(data).__name__}")
    shape = data.get("shape")
    if not isinstance(shape, str) or shape not in _SHAPE_FIELDS:
        raise UnsupportedShape(f"unknown shape {shape!r}")
    # "regular" is derived from the shape and ignored on input
    unread = [k for k in data if k not in ("shape", "basepoint", "regular", *_SHAPE_FIELDS[shape])]
    if unread:
        raise HardynumError(f"shape {shape!r} has no domain field {', '.join(map(repr, unread))}")
    basepoint = _point_from(data, "basepoint")
    if shape == "half_plane":
        return HalfPlane(**basepoint)
    if shape == "sector":
        return Sector(_number_from(data, "opening"), **basepoint)
    round_cls = Disk if shape == "disk" else DiskExterior
    return round_cls(_number_from(data, "radius"), **basepoint, **_point_from(data, "center"))


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
