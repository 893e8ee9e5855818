"""Numerical verification of the harmonic-measure and Green-function
identities that connect tail decay to circle averages.

Everything here runs against closed-form oracles, never Monte Carlo
profiles: these are exact statements, and quadrature-level agreement is the
point. Tail extrapolation beyond a truncation radius uses the domain's known
decay exponent, not a fitted one.

The verified statements, with a the basepoint and E_t the part of the
boundary outside radius t:

  circle average     (1/2pi) int g(a, r e^{i theta}) d theta
                        = int_r^inf omega(a, E_t) dt/t            (r > |a|)
  moment exchange    int_|a|^R r^(p-1) (int g d theta) dr
                        = (2pi/p) int_|a|^R omega(a, E_t) t^(p-1)
                                  (1 - |a|^p / t^p) dt            (p < q)

Each tolerance is 100 times the worst relative error measured on the shapes
the tests require to pass, rounded up: the half-plane (r = 2..1024 and 1e6,
p = 0.5), the suite on Sector(pi), Sector(pi/2) (r = 2, 8, 64) and Disk(2)
(r = 1). The circle average's worst is 5.85e-11 (half-plane, r = 1e6), the
moment exchange's 2.24e-11 (half-plane), so a closed form off by 1e-8 fails
both.

Every integral goes through function_norms.quad, the package's one rule:
composite Gauss-Legendre on panels graded toward both ends of each piece
between breakpoints. Circle integrals break where the circle crosses the
boundary and run over the arcs inside the domain only, since the Green's
function is 0 off it; dt/t integrals run in u = log t and break at the radii
where the oracle measure is non-smooth. The oracles are evaluated once per
integral, on the whole node array, and the moment exchange evaluates the
Green's function on a grid of radii and angles, with its circles also broken
at arg(a), so that the panels grade toward the pole as r -> |a|. Its radial
integrals run in u = log r, and below r = 1 around a pole at the origin in
s = r^p.
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

BAERNSTEIN_TOL = 6e-9  # 100 x 5.85e-11, the half-plane at r = 1e6
FUBINI_TOL = 2.3e-9  # 100 x 2.24e-11, the half-plane at p = 0.5

_TAIL_FACTOR = 1e4  # truncation radius multiple for dt/t integrals
_MOMENT_R_MAX = 1e4  # truncation radius of the moment exchange
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
    defaults to d.circle_breaks(r) and must suit every row. g is 0 off the
    domain, so the arcs between breaks are integrated one by one, and only
    those whose midpoint lies in the domain on some row, asked of the domain
    once per arc for all rows.
    """
    if not np.all(r > abs(d.basepoint)):
        raise ValueError("circle radius must exceed |basepoint|")
    points = d.circle_breaks(r) if points is None else points
    edges = sorted({-math.pi, math.pi, *(t for t in points if -math.pi < t < math.pi)})
    total = np.zeros(np.shape(r)[:-1])
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = cmath.exp(0.5j * (lo + hi))
        if np.any(d.contains(np.ravel(r) * mid)):
            total = total + quad(lambda theta: exact_green(d, r * np.exp(1j * theta)), lo, hi)[0]
    return float(total) if np.ndim(r) == 0 else total


def _tail_log_integral(d: Domain, r: float) -> float:
    """int_r^inf omega(a, E_t) dt/t with a power-law tail beyond r * 1e4."""
    q = d.decay_exponent
    top = r * _TAIL_FACTOR
    pts = [math.log(b / r) for b in d.hm_breaks if r < b < top]
    val = quad(lambda u: exact_hm(d, r * np.exp(u)), 0.0, math.log(top / r), points=pts)[0]
    tail = 0.0 if math.isinf(q) else exact_hm(d, top) / q
    return val + tail


def _radial_integral(fn, a_mod: float, p: float, points=()) -> float:
    """int t^(p-1) fn(t) dt over (a_mod, _MOMENT_R_MAX), fn taking an array of
    radii and points the radii where fn is non-smooth.

    Above a_mod, or above 1 for a_mod = 0, the integral runs in u = log t.
    For a_mod = 0 the part over (0, 1) runs in s = t^p, which absorbs the
    weight t^(p-1), a singularity at t = 0 for p < 1, into ds/p.
    """
    lo = a_mod if a_mod > 0.0 else 1.0
    log_pts = [math.log(b) for b in points if lo < b < _MOMENT_R_MAX]
    val = quad(lambda u: fn(np.exp(u)) * np.exp(p * u), math.log(lo), math.log(_MOMENT_R_MAX),
               points=log_pts)[0]
    if a_mod == 0.0:
        # for small p, s^(1/p) underflows near s = 0; the least normal
        # radius stands in there
        def head(s):
            return fn(np.maximum(s ** (1.0 / p), np.finfo(float).tiny))

        val += quad(head, 0.0, 1.0, points=[b**p for b in points if b < 1.0])[0] / p
    return val


def baernstein_identity(d: Domain, r: float) -> IdentityReport:
    """Circle average of the Green's function vs the tail measure integral."""
    lhs = _tail_log_integral(d, r)
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
    """Moment exchange between the Green circle average and the tail measure,
    over radii up to _MOMENT_R_MAX with the oracle's power-law tail beyond.

    omega_fn replaces the oracle tail measure, so a test can check that a
    broken measure fails the identity; it defaults to the oracle.
    """
    if not (p > 0.0):
        raise ValueError("exponent p must be positive")
    r_max = _MOMENT_R_MAX
    a_mod = abs(d.basepoint)
    if not (r_max > a_mod):
        raise ValueError("truncation radius must exceed |basepoint|")
    q = d.decay_exponent
    if p >= q:
        raise DivergentCase(
            f"moment p={p} meets the decay exponent {q}; both sides are infinite"
        )
    omega = omega_fn if omega_fn is not None else (lambda t: exact_hm(d, t))
    omega_top = omega(r_max)

    # The rhs comes first: exact_hm rejects the off-center disks, the one
    # shape whose circle breaks move with r.
    def rhs_integrand(t):
        return omega(t) * (1.0 - (a_mod / t) ** p)

    rhs = _radial_integral(rhs_integrand, a_mod, p, d.hm_breaks)
    if math.isfinite(q):
        rhs += omega_top * (r_max**p / (q - p) - a_mod**p / q)
    rhs *= 2.0 * math.pi / p

    angles = [*d.circle_breaks(r_max), cmath.phase(d.basepoint)]

    def lhs_integrand(r):
        return np.concatenate([
            _green_circle_integral(d, r[k:k + _RADIAL_BLOCK, None], points=angles)
            for k in range(0, r.size, _RADIAL_BLOCK)])

    # the circle means are non-smooth where the oracle measure is
    lhs = _radial_integral(lhs_integrand, a_mod, p, d.hm_breaks)
    if math.isfinite(q):
        lhs += 2.0 * math.pi * omega_top * r_max**p / (q * (q - p))

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
    exchange at p = 0.5 on one oracle domain, the half-plane by default.

    On shapes with a small decay exponent the power-law tail taken beyond
    the truncation radii (_TAIL_FACTOR * r and _MOMENT_R_MAX) errs by more
    than the tolerances. On Sector(1.5 pi) the moment exchange errs by 7.4e-8
    and fails. On the slit, Sector(2 pi), the circle average errs by 1.2e-7
    at r = 2, halving with each doubling of r, and p = 0.5 meets q, so the
    moment exchange raises DivergentCase.
    """
    if d is None:
        d = HalfPlane(basepoint=1.0 + 0.0j)
    reports = [baernstein_identity(d, r) for r in SWEEP_RADII]
    reports.append(fubini_identity(d, p=0.5))
    return reports
