"""Numerical verification of the harmonic-measure and Green-function
identities that connect tail decay to circle averages.

Everything here runs against closed-form oracles, never Monte Carlo
profiles: these are exact statements, and agreement to rounding is the
point. No integral stops at a truncation radius.

The verified statements, with a the basepoint and E_t the part of the
boundary outside radius t:

  circle average     (1/2pi) int g(a, r e^{i theta}) d theta
                        = int_r^inf omega(a, E_t) dt/t            (r > |a|)
  moment exchange    int_|a|^inf r^(p-1) (int g d theta) dr
                        = (2pi/p) (int_|a|^inf omega(a, E_t) t^(p-1) dt
                                   - |a|^p int_|a|^inf omega(a, E_t) dt/t)
                                                                  (p < q)

Each tolerance is 100 times the worst relative error measured on the shapes
the tests require to pass, rounded up: the suite on the half-plane,
Sector(pi/2), Sector(pi), Sector(1.5 pi) and the slit Sector(2 pi), each at
basepoints 1 and 1 + 0.5i; the circle average on the half-plane and
Sector(pi/2) at r = 1e6 and on Disk(2) at r = 1; the moment exchange on
HalfPlane(2e4). The circle average's worst is 3.9e-16 (the slit, r = 2), the
moment exchange's 9.5e-16 (the half-plane at 1 + 0.5i), so a closed form off
by 1e-12 fails both.

Every integral goes through function_norms.quad, the package's one rule:
composite Gauss-Legendre on panels graded toward both ends of each piece
between breakpoints. Circle integrals break where the circle crosses the
boundary and at arg(a), so that the panels grade toward the pole, and run
over the arcs inside the domain only, since the Green's function is 0 off
it. Every radial integral, in dt/t and in t^(p-1) dt alike, runs in one
change of variable that maps (lo, inf) onto a bounded interval
(_radial_integral), broken at the radii where the oracle measure is
non-smooth. The oracles are evaluated once per integral, on the whole node
array, and the moment exchange evaluates the Green's function on a grid of
radii and angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentCase
from .function_norms import quad
from .geometry import Domain, HalfPlane, exact_green, exact_hm

__all__ = [
    "IdentityReport",
    "baernstein_identity",
    "fubini_identity",
    "run_identity_suite",
]

SWEEP_RADII = tuple(float(2**k) for k in range(1, 11))

BAERNSTEIN_TOL = 4e-14  # 100 x 3.9e-16, the slit at r = 2
FUBINI_TOL = 1e-13  # 100 x 9.5e-16, the half-plane at basepoint 1 + 0.5i

_FAR = 1e50  # (t / lo)^q at the farthest radius a radial integral reads
_REL_FLOOR = 1e-300
_RADIAL_BLOCK = 16  # radii per call of the circle integral; bounds its 2-D node arrays


@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    relative_error: float
    tolerance: float
    passed: bool


def _rel_error(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale < _REL_FLOOR:
        return 0.0
    return abs(lhs - rhs) / scale


def _green_circle_integral(d: Domain, r, points=None):
    """int_{-pi}^{pi} g(a, r e^{i theta}) d theta (unnormalized).

    r is a radius, or a column of radii for one integral per row; points
    defaults to d.circle_breaks(r) and arg(a), and must suit every row. g is
    0 off the domain, so the arcs between breaks are integrated one by one,
    and only those whose midpoint lies in the domain on some row, asked of
    the domain once per arc for all rows.
    """
    if not np.all(r > abs(d.basepoint)):
        raise ValueError("circle radius must exceed |basepoint|")
    points = [*d.circle_breaks(r), cmath.phase(d.basepoint)] if points is None else points
    edges = sorted({-math.pi, math.pi, *(t for t in points if -math.pi < t < math.pi)})
    total = np.zeros(np.shape(r)[:-1])
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = cmath.exp(0.5j * (lo + hi))
        if np.any(d.contains(np.ravel(r) * mid)):
            total = total + quad(lambda theta: exact_green(d, r * np.exp(1j * theta)), lo, hi)[0]
    return float(total) if np.ndim(r) == 0 else total


def _radial_integral(d: Domain, fn, lo: float, p: float) -> float:
    """int_lo^inf t^(p-1) fn(t) dt, fn taking an array of radii and non-smooth
    at d.hm_breaks.

    The integral runs in w = t^k, where t^(p-1) dt = t^(p-k) dw / k. For a
    decay exponent q < inf, k = p - q maps (lo, inf) onto (0, lo^k), and
    fn t^q stays smooth as w -> 0. fn is read at no radius t past
    lo * _FAR^(1/q), where fn t^q equals its limit to within 1/_FAR relative
    and the squares in the Green's function do not overflow. A bounded
    shape's fn vanishes beyond boundary_modulus_sup(); there k = p absorbs
    the weight's singularity at t = 0 into dw / p (k = 1 at p = 0), and fn
    is read at no radius below the least normal float.
    """
    q = d.decay_exponent
    if math.isfinite(q):
        k, hi, t_end = p - q, math.inf, lo * _FAR ** (1.0 / q)
    else:
        k, hi, t_end = (p if p > 0.0 else 1.0), d.boundary_modulus_sup(), np.finfo(float).tiny
    if not lo < hi:
        return 0.0
    w_end = t_end**k

    def integrand(w):
        t = np.maximum(w, w_end) ** (1.0 / k)
        return fn(t) * t ** (p - k)

    edges = sorted((lo**k, hi**k))
    return quad(integrand, *edges, points=[b**k for b in d.hm_breaks if lo < b < hi])[0] / abs(k)


def baernstein_identity(d: Domain, r: float) -> IdentityReport:
    """Circle average of the Green's function vs the tail measure integral."""
    lhs = _radial_integral(d, lambda t: exact_hm(d, t), r, 0.0)
    rhs = _green_circle_integral(d, r) / (2.0 * math.pi)
    rel = _rel_error(lhs, rhs)
    return IdentityReport(
        name="circle_average_vs_tail",
        lhs=lhs,
        rhs=rhs,
        relative_error=rel,
        tolerance=BAERNSTEIN_TOL,
        passed=rel <= BAERNSTEIN_TOL,
    )


def fubini_identity(d: Domain, p: float, omega_fn=None) -> IdentityReport:
    """Moment exchange between the Green circle average and the tail measure.

    omega_fn replaces the oracle tail measure, so a test can check that a
    broken measure fails the identity; it defaults to the oracle.
    """
    if not (p > 0.0):
        raise ValueError("exponent p must be positive")
    a_mod = abs(d.basepoint)
    q = d.decay_exponent
    if p >= q:
        raise DivergentCase(
            f"moment p={p} meets the decay exponent {q}; both sides are infinite"
        )
    omega = omega_fn if omega_fn is not None else (lambda t: exact_hm(d, t))

    # The rhs comes first: exact_hm rejects the off-center disks, the one
    # shape whose circle breaks move with r. Its factor 1 - (|a|/t)^p is
    # taken as two integrals, since (|a|/t)^p is not smooth in w at w = 0.
    rhs = _radial_integral(d, omega, a_mod, p)
    if a_mod > 0.0:
        rhs -= a_mod**p * _radial_integral(d, omega, a_mod, 0.0)
    rhs *= 2.0 * math.pi / p

    angles = [*d.circle_breaks(a_mod + 1.0), cmath.phase(d.basepoint)]

    def lhs_integrand(r):
        return np.concatenate([
            _green_circle_integral(d, r[k:k + _RADIAL_BLOCK, None], points=angles)
            for k in range(0, r.size, _RADIAL_BLOCK)])

    # the circle means are non-smooth where the oracle measure is
    lhs = _radial_integral(d, lhs_integrand, a_mod, p)

    rel = _rel_error(lhs, rhs)
    return IdentityReport(
        name="moment_exchange",
        lhs=lhs,
        rhs=rhs,
        relative_error=rel,
        tolerance=FUBINI_TOL,
        passed=rel <= FUBINI_TOL,
    )


def run_identity_suite(d: Domain | None = None) -> list[IdentityReport]:
    """The circle-average identity at r in {2, 4, ..., 1024} and the moment
    exchange at p = min(0.5, q/2) on one oracle domain, the half-plane by
    default.

    On the half-plane and on Sector(opening) for opening in {0.1, pi/4, pi/2,
    pi, 1.5 pi, 2 pi}, at basepoint 1, both identities hold to 1.9e-14. On a
    disk whose pole is its center the circle means have a log singularity at
    r = 0, which w = r^p keeps: the moment exchange errs by 3.2e-12 and
    fails. exact_hm rejects the off-center disks.
    """
    if d is None:
        d = HalfPlane(basepoint=1.0 + 0.0j)
    reports = [baernstein_identity(d, r) for r in SWEEP_RADII]
    reports.append(fubini_identity(d, p=min(0.5, 0.5 * d.decay_exponent)))
    return reports
