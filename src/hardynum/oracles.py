"""Closed-form reference values for harmonic measure and Green's functions.

These are the ground truth that the Monte Carlo estimators are checked
against. Everything here is an exact formula; no series truncation and no
quadrature.

Harmonic measure of the boundary tail E_r = {w on the boundary : |w| > r}
seen from the basepoint:

    half-plane   1 - (1/pi) * (atan((r-y)/x) + atan((r+y)/x)),  a = x + iy,
                 evaluated as (1/pi) * (atan(x/(r-y)) + atan(x/(r+y)))
                 for r > |y|, where the first form cancels
    sector       pulled back through w -> w**(pi/opening), which maps the
                 sector conformally onto the right half-plane and sends the
                 tail beyond r to the tail beyond r**(pi/opening)
    disk(s)      0 once r clears every boundary modulus, 1 below all of them
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedShape
from .geometry import Disk, DiskExterior, Domain, HalfPlane, Sector

__all__ = ["exact_hm", "exact_green", "decay_exponent"]


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
    r = np.asarray(r, dtype=float)
    far = r > abs(y)
    # each form only where it is used, so no division by r -+ y = 0
    rf, rn = r[far], r[~far]
    out = np.empty_like(r)
    out[far] = (np.arctan(x / (rf - y)) + np.arctan(x / (rf + y))) / math.pi
    out[~far] = 1.0 - (np.arctan((rn - y) / x) + np.arctan((rn + y) / x)) / math.pi
    return out


def exact_hm(d: Domain, r):
    """Harmonic measure of the boundary tail beyond modulus r, from the basepoint.

    r is a radius or an array of radii; an array gives an array, and a radius
    a float from math-module arithmetic.
    """
    if not np.all(np.isfinite(r) & (np.asarray(r) >= 0)):
        raise ValueError(f"tail radius must be finite and >= 0, got {r!r}")

    if isinstance(d, HalfPlane):
        return _halfplane_tail(d.basepoint, r)

    if isinstance(d, Sector):
        power = math.pi / d.opening
        a = complex(d.basepoint) ** power
        return _halfplane_tail(a, r**power)

    if isinstance(d, (Disk, DiskExterior)):
        lo = abs(abs(d.center) - d.radius)
        hi = abs(d.center) + d.radius
        if np.any((lo < r) & (r < hi)):
            raise UnsupportedShape(
                "off-center disk with tail radius inside the boundary modulus band"
            )
        # beyond hi the tail set is empty; below lo it is the entire boundary
        tail = np.where(r >= hi, 0.0, 1.0)
        return tail if np.ndim(r) else float(tail)

    raise UnsupportedShape(f"no closed-form harmonic measure for {d!r}")


def exact_green(d: Domain, w):
    """Green's function of the domain with pole at the basepoint; +inf at the pole.

    Extended by zero outside the domain, which also gives the correct value
    0 in the limit |w| -> infinity. w is a point or an array of points; an
    array gives an array and a point a float.
    """
    z = np.asarray(w, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(d, HalfPlane):
            green = _halfplane_green(d.basepoint, z)
        elif isinstance(d, Sector):
            power = math.pi / d.opening
            inside = (z != 0) & (np.abs(np.angle(z)) < 0.5 * d.opening)
            green = np.where(inside, _halfplane_green(complex(d.basepoint) ** power, z**power), 0.0)
        elif isinstance(d, Disk):
            a = d.basepoint - d.center
            u = z - d.center
            val = np.log(np.abs(d.radius**2 - np.conj(a) * u) / (d.radius * np.abs(u - a)))
            green = np.where(np.abs(u) < d.radius, np.maximum(val, 0.0), 0.0)
        else:
            raise UnsupportedShape(f"no closed-form Green's function for {d!r}")
    return green if np.ndim(w) else float(green)


def _halfplane_green(a: complex, w: np.ndarray) -> np.ndarray:
    val = np.log(np.abs((w + np.conj(a)) / (w - a)))
    return np.where(w.real > 0.0, np.maximum(val, 0.0), 0.0)


def decay_exponent(d: Domain) -> float:
    """Exact power-law decay rate of exact_hm in r (inf for bounded tails)."""
    if isinstance(d, HalfPlane):
        return 1.0
    if isinstance(d, Sector):
        return math.pi / d.opening
    if isinstance(d, (Disk, DiskExterior)):
        return math.inf
    raise UnsupportedShape(f"no closed-form decay exponent for {d!r}")
