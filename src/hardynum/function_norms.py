"""Integral means, area integrals, and empirical critical exponents for a
small catalog of analytic test functions on the unit disk.

Everything here is numerical but deterministic, and every disk-side integral
goes through one rule: composite Gauss-Legendre on geometrically graded
panels, summed in log space with logsumexp, so astronomically large
integrands such as exp((1+z)/(1-z)) never overflow. Circle means grade their
theta panels at the scale s of the boundary gap, toward theta = 0 and toward
theta = pi; area integrals nest those circle means inside the same rule in s,
graded toward both ends of each radial band. The rule has no tolerance
parameter: its node count, panel density and grading floor are module
constants, and its accuracy contract is CIRCLE_REL_TOL relative error on
circle means and AREA_REL_TOL on area integrals, which the tests check
against closed forms and against adaptive quadrature. Critical exponents are
located by bisection on a bounded/unbounded growth classifier.

Radii are parametrized by the boundary gap s = 1 - r throughout, which keeps
the integrand formulas cancellation-free down to s ~ 1e-12:

    |1 - z|^2 = s^2 + 4(1-s) sin^2(theta/2)
    |1 + z|^2 = s^2 + 4(1-s) cos^2(theta/2)
    Re (1+z)/(1-z) = s(2-s) / |1 - z|^2        for z = (1-s) e^{i theta}
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc, logsumexp
from scipy.special import gamma as gamma_fn

from .errors import QuadratureFailure, UnsupportedImage, ZeroOnDisk
from .geometry import Disk, Domain, HalfPlane, Sector

__all__ = [
    "CatalogFunction",
    "cayley",
    "sector_power",
    "exp_cayley",
    "identity_map",
    "hardy_mean",
    "log_hardy_mean",
    "bergman_integral",
    "log_bergman_integral",
    "yamashita_integral",
    "change_of_variable_check",
    "GrowthProfile",
    "hardy_growth_profile",
    "bergman_growth_profile",
    "EmpiricalExponents",
    "empirical_hb",
    "CIRCLE_REL_TOL",
    "AREA_REL_TOL",
]

KIND_CAYLEY = "cayley"
KIND_SECTOR_POWER = "sector_power"
KIND_EXP_CAYLEY = "exp_cayley"
KIND_IDENTITY = "identity"

CIRCLE_REL_TOL = 1e-8
AREA_REL_TOL = 1e-6

# growth-classifier settings; see hardy_growth_profile / bergman_growth_profile
HARDY_GAPS = (1e-4, 1e-7, 1e-10)
BERGMAN_GAPS = (1e-3, 1e-5, 1e-7)
# Slope thresholds sit just under the measured log-divergence slope of a
# critically non-member integrand (~0.048 for circle means at gap 1e-10,
# ~0.082 for area integrals at gap 1e-7), so exactly-critical probes
# classify as unbounded and near-critical probes split at the right spot.
HARDY_SLOPE_TOL = 0.045
BERGMAN_SLOPE_TOL = 0.075

P_MAX = 8.0
HARDY_RESOLUTION = 0.05
BERGMAN_RESOLUTION = 0.1

CLASS_BOUNDED = "bounded"
CLASS_UNBOUNDED = "unbounded"
CLASS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CatalogFunction:
    """Analytic map of the unit disk, one of four closed-form kinds.

    kind "cayley" is (1+z)/(1-z) onto the right half-plane; "sector_power"
    raises it to the power beta in (0, 2], mapping onto a sector of opening
    beta*pi; "exp_cayley" is scale * exp((1+z)/(1-z)), an infinite-valence
    map onto the exterior of the disk of radius scale; "identity" is z.
    """

    kind: str
    beta: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (KIND_CAYLEY, KIND_SECTOR_POWER, KIND_EXP_CAYLEY, KIND_IDENTITY):
            raise ValueError(f"unknown catalog kind: {self.kind!r}")
        if self.kind == KIND_SECTOR_POWER and not (0.0 < self.beta <= 2.0):
            raise ValueError("sector power beta must lie in (0, 2]")
        if self.kind == KIND_EXP_CAYLEY and not (self.scale > 0.0):
            raise ValueError("exp-cayley scale must be positive")

    @property
    def univalent(self) -> bool:
        return self.kind != KIND_EXP_CAYLEY

    @property
    def zero_free(self) -> bool:
        return self.kind != KIND_IDENTITY

    def value(self, z: complex) -> complex:
        z = complex(z)
        if self.kind == KIND_IDENTITY:
            return z
        w = (1.0 + z) / (1.0 - z)
        if self.kind == KIND_CAYLEY:
            return w
        if self.kind == KIND_SECTOR_POWER:
            return w**self.beta
        return self.scale * _cexp(w)

    def derivative(self, z: complex) -> complex:
        z = complex(z)
        if self.kind == KIND_IDENTITY:
            return 1.0 + 0.0j
        dcay = 2.0 / (1.0 - z) ** 2
        if self.kind == KIND_CAYLEY:
            return dcay
        w = (1.0 + z) / (1.0 - z)
        if self.kind == KIND_SECTOR_POWER:
            return self.beta * w ** (self.beta - 1.0) * dcay
        return self.scale * _cexp(w) * dcay

    def log_abs(self, z: complex) -> float:
        """log |f(z)|, computed without forming f(z) when it would overflow."""
        z = complex(z)
        if self.kind == KIND_IDENTITY:
            return math.log(abs(z)) if z != 0 else -math.inf
        num = abs(1.0 + z)
        den = abs(1.0 - z)
        if self.kind == KIND_CAYLEY:
            return math.log(num) - math.log(den)
        if self.kind == KIND_SECTOR_POWER:
            return self.beta * (math.log(num) - math.log(den))
        w = (1.0 + z) / (1.0 - z)
        return math.log(self.scale) + w.real

    def image_domain(self) -> Domain:
        """The image as a plane domain, for univalent kinds only."""
        if self.kind == KIND_CAYLEY:
            return HalfPlane(basepoint=1.0 + 0.0j)
        if self.kind == KIND_SECTOR_POWER:
            return Sector(opening=self.beta * math.pi, basepoint=1.0 + 0.0j)
        if self.kind == KIND_IDENTITY:
            return Disk(radius=1.0, basepoint=0.0j)
        raise UnsupportedImage("exp-cayley is not univalent; its image is not a plane domain")


def _cexp(w: complex) -> complex:
    try:
        return cmath.exp(w)
    except OverflowError:
        return complex(math.inf, math.nan)


def cayley() -> CatalogFunction:
    return CatalogFunction(KIND_CAYLEY)


def sector_power(beta: float) -> CatalogFunction:
    return CatalogFunction(KIND_SECTOR_POWER, beta=beta)


def exp_cayley(scale: float = 1.0) -> CatalogFunction:
    return CatalogFunction(KIND_EXP_CAYLEY, scale=scale)


def identity_map() -> CatalogFunction:
    return CatalogFunction(KIND_IDENTITY)


# ---------------------------------------------------------------------------
# the quadrature rule: composite Gauss-Legendre on geometrically graded panels

GL_NODES = 10
PANELS_PER_DECADE = 2
GRADING_FLOOR = 1e-9
RADIAL_BLOCK = 16  # radial nodes per block of circle means; bounds the 2-D node arrays

_GL_T, _GL_W = np.polynomial.legendre.leggauss(GL_NODES)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W  # moved to [0, 1]


def _graded_rule(h: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights on [0, length], one row per scale in the column h.

    The panels are [0, GRADING_FLOOR * h] and then geometric panels,
    PANELS_PER_DECADE per decade, up to length. All rows share the panel count
    of the smallest scale; edges beyond length are clipped to it, so rows with
    a larger scale end in zero-width panels whose weights are exactly zero.
    """
    n = math.ceil(PANELS_PER_DECADE * math.log10(length / (GRADING_FLOOR * h.min())))
    edges = np.minimum(GRADING_FLOOR * h * 10.0 ** (np.arange(n + 1) / PANELS_PER_DECADE), length)
    edges = np.concatenate([np.zeros_like(h), edges], axis=1)
    edges[:, -1] = length
    width = np.diff(edges, axis=1)[:, :, None]
    t = (edges[:, :-1, None] + width * _GL_T).reshape(len(h), -1)
    return t, (width * _GL_W).reshape(len(h), -1)


def _log_kernel(f: CatalogFunction, p_f: float, p_fp: float, s: np.ndarray,
                sin2: np.ndarray, cos2: np.ndarray) -> np.ndarray:
    """log( |f|^p_f * |f'|^p_fp ) at z = (1-s) e^{i theta}, elementwise.

    The angle enters as sin2 = sin^2(theta/2) and cos2 = cos^2(theta/2), so a
    caller can mirror theta about pi/2 by swapping them without losing the
    digits of |1+z| near theta = pi.
    """
    if f.kind == KIND_IDENTITY:
        return np.broadcast_to(p_f * np.log(1.0 - s), sin2.shape)  # f' == 1
    base = 4.0 * (1.0 - s)
    m_minus = s * s + base * sin2  # |1-z|^2
    log_minus = 0.5 * np.log(m_minus)
    if f.kind == KIND_EXP_CAYLEY:
        log_f = math.log(f.scale) + s * (2.0 - s) / m_minus
        log_fp = log_f + math.log(2.0) - 2.0 * log_minus
    else:  # cayley is sector_power at beta = 1
        b = f.beta
        log_plus = 0.5 * np.log(s * s + base * cos2)  # log |1+z|
        log_f = b * (log_plus - log_minus)
        log_fp = math.log(2.0 * b) + (b - 1.0) * log_plus - (b + 1.0) * log_minus
    return p_f * log_f + p_fp * log_fp


def _log_circle_means(f: CatalogFunction, p_f: float, p_fp: float, s) -> np.ndarray:
    """log of the circle integral of |f|^p_f |f'|^p_fp over theta in [0, 2pi),
    at radius 1 - s for each gap in the sequence s.

    All catalog kinds have real Taylor coefficients, so the integrand is
    symmetric about theta = 0 and the integral is twice the [0, pi] part. That
    half is split at pi/2, and each quarter is graded at scale s toward its
    end: toward theta = 0, where 1/|1-z| peaks, and toward theta = pi, where
    |1+z| has its cusp.
    """
    s = np.asarray(s, dtype=float)[:, None]
    t, w = _graded_rule(s, 0.5 * math.pi)
    sin2, cos2 = np.sin(0.5 * t) ** 2, np.cos(0.5 * t) ** 2
    g = np.concatenate([_log_kernel(f, p_f, p_fp, s, sin2, cos2),
                        _log_kernel(f, p_f, p_fp, s, cos2, sin2)], axis=1)
    return math.log(2.0) + logsumexp(g, b=np.concatenate([w, w], axis=1), axis=1)


def log_hardy_mean(f: CatalogFunction, p: float, r: float) -> float:
    """log of the integral mean of |f|^p over the circle of radius r."""
    if not (0.0 <= r < 1.0):
        raise ValueError("radius must lie in [0, 1)")
    if p < 0:
        raise ValueError("exponent p must be nonnegative")
    if r == 0.0:
        v = abs(f.value(0.0))
        return math.log(2.0 * math.pi) + (p * math.log(v) if v > 0 else (-math.inf if p > 0 else 0.0))
    return float(_log_circle_means(f, p, 0.0, [1.0 - r])[0])


def hardy_mean(f: CatalogFunction, p: float, r: float) -> float:
    """Integral of |f(r e^{i theta})|^p d theta; inf if it overflows a float."""
    lv = log_hardy_mean(f, p, r)
    if lv == -math.inf:
        return 0.0
    try:
        return math.exp(lv)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# radial nesting


def _log_radial_integral(f: CatalogFunction, p_f: float, p_fp: float,
                         s_lo: float, s_hi: float, log_weight) -> float:
    """log of integral over s in [s_lo, s_hi] of M(s) * exp(log_weight(s)) ds,
    where M(s) is the circle integral of |f|^p_f |f'|^p_fp at radius 1 - s.

    Area integrals in the coordinates (s, theta) read
    integral r dr dtheta = integral over s of (1-s) * [circle part] ds,
    and the (1-s) Jacobian is folded into log_weight by the callers. The band
    is split at its midpoint, and each half is graded toward its end at the
    scale of that end: near s_lo the circle means grow on the scale s_lo (and
    on s_lo^2 for exponentially large means), and s_hi = 1 is the center of
    the disk, where the Green weight log(1/r) is singular.
    """
    half = 0.5 * (s_hi - s_lo)
    t_lo, w_lo = _graded_rule(np.array([[s_lo]]), half)
    t_hi, w_hi = _graded_rule(np.array([[s_hi]]), half)
    s = np.concatenate([s_lo + t_lo[0], s_hi - t_hi[0]])
    log_m = np.concatenate([_log_circle_means(f, p_f, p_fp, s[k:k + RADIAL_BLOCK])
                            for k in range(0, s.size, RADIAL_BLOCK)])
    return float(logsumexp(log_m + log_weight(s), b=np.concatenate([w_lo[0], w_hi[0]])))


def _area_log_weight(alpha: float):
    """(1-s) from the area Jacobian times (1-|z|^2)^alpha = (s(2-s))^alpha."""
    return lambda s: np.log(1.0 - s) + alpha * np.log(s * (2.0 - s))


def _green_log_weight(w: float):
    """(1-s) from the area Jacobian times (log 1/r)^w with r = 1 - s."""
    return lambda s: np.log(1.0 - s) + w * np.log(-np.log1p(-s))


def log_bergman_integral(f: CatalogFunction, p: float, alpha: float, delta: float) -> float:
    """log of the area integral of |f|^p (1-|z|^2)^alpha over |z| <= 1 - delta."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if p < 0:
        raise ValueError("exponent p must be nonnegative")
    if alpha <= -1.0:
        raise ValueError("weight alpha must be > -1")
    return _log_radial_integral(f, p, 0.0, delta, 1.0, _area_log_weight(alpha))


def bergman_integral(f: CatalogFunction, p: float, alpha: float, delta: float) -> float:
    lv = log_bergman_integral(f, p, alpha, delta)
    if lv == -math.inf:
        return 0.0
    try:
        return math.exp(lv)
    except OverflowError:
        return math.inf


def yamashita_integral(f: CatalogFunction, p: float, delta: float,
                       alpha: float | None = None) -> float:
    """Area integral of |f|^(p-2) |f'|^2 (log 1/|z|)^w over delta <= |z| <= 1 - delta,
    plus a closed-form estimate of the |z| < delta core; w is 1 unweighted and
    alpha + 2 in the weighted variant.

    The core estimate freezes |f|^(p-2)|f'|^2 at its center value, which is
    accurate because catalog integrands are analytic and slowly varying near 0.
    """
    if not (0.0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 0.5)")
    if p < 2.0 and not f.zero_free:
        raise ZeroOnDisk("integrand |f|^(p-2) is non-integrable at a zero of f when p < 2")
    w = 1.0 if alpha is None else alpha + 2.0
    if w <= 0.0:
        raise ValueError("weight power must be positive")

    log_ring = _log_radial_integral(f, p - 2.0, 2.0, delta, 1.0 - delta, _green_log_weight(w))
    ring = math.exp(log_ring) if log_ring > -math.inf else 0.0

    # core |z| < delta: integral_0^delta r (log 1/r)^w dr = Gamma(w+1, 2 log 1/delta) / 2^(w+1)
    v0 = abs(f.value(0.0))
    d0 = abs(f.derivative(0.0))
    if v0 == 0.0:
        center = d0**2 if p == 2.0 else 0.0
    else:
        center = v0 ** (p - 2.0) * d0**2
    x = 2.0 * math.log(1.0 / delta)
    radial_core = gammaincc(w + 1.0, x) * gamma_fn(w + 1.0) / 2.0 ** (w + 1.0)
    core = center * 2.0 * math.pi * radial_core
    return ring + core


# ---------------------------------------------------------------------------
# change of variable: disk-side area integral vs image-plane Green integral


def _quad(fn, a, b, rel, points=None, limit=800) -> float:
    val, err, info, *rest = quad(fn, a, b, epsrel=rel, epsabs=0.0, limit=limit,
                                 points=points, full_output=1)
    if rest:
        scale = max(abs(val), 1e-300)
        if err > 100.0 * rel * scale:
            raise QuadratureFailure(f"quadrature did not converge: {rest[0]}")
    return val


def change_of_variable_check(f: CatalogFunction, p: float, delta: float) -> tuple[float, float]:
    """Both sides of the Green-function change of variable for the truncated
    region |z| <= 1 - delta, for univalent catalog maps with unbounded image.

    Left side: area integral over the disk region of |f|^(p-2) |f'|^2 log(1/|z|),
    by the module's quadrature rule.
    Right side: area integral over the image of the region of |w|^(p-2) times
    the half-plane Green's function with pole at f(0), written in the Cayley
    coordinate u (where w = u^beta) so one formula covers every opening:

        rhs = beta^2 * integral over the disk |u - 1| <= rho centered... (the
        image of |z| <= R under the Cayley map is the disk |u - c| <= rho with
        c = (1+R^2)/(1-R^2), rho = 2R/(1-R^2)) of
        |u|^(beta p - 2) * log|(u+1)/(u-1)| dA(u),

    parametrized by polar coordinates around u = 1 where the Green factor has
    its logarithmic singularity. The right side is integrated by adaptive
    scipy quadrature to AREA_REL_TOL, an independent route to the same number.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if not f.univalent:
        raise UnsupportedImage("change of variable needs a univalent map")
    if f.kind == KIND_IDENTITY:
        raise UnsupportedImage("image is bounded; no Green integral to compare against")
    beta = f.beta if f.kind == KIND_SECTOR_POWER else 1.0

    lhs_log = _log_radial_integral(f, p - 2.0, 2.0, delta, 1.0, _green_log_weight(1.0))
    lhs = math.exp(lhs_log) if lhs_log > -math.inf else 0.0

    big_r = 1.0 - delta
    c = (1.0 + big_r**2) / (1.0 - big_r**2)
    rho = 2.0 * big_r / (1.0 - big_r**2)
    d = c - 1.0
    power = beta * p - 2.0

    def s_max(phi: float) -> float:
        disc = rho * rho - (d * math.sin(phi)) ** 2
        return d * math.cos(phi) + math.sqrt(max(disc, 0.0))

    def inner(phi: float) -> float:
        cos_phi = math.cos(phi)
        top = s_max(phi)

        def integrand(s: float) -> float:
            if s <= 0.0:
                return 0.0
            mod_u_sq = 1.0 + 2.0 * s * cos_phi + s * s
            mod_u_plus1_sq = 4.0 + 4.0 * s * cos_phi + s * s
            green = 0.5 * math.log(mod_u_plus1_sq) - math.log(s)
            return math.exp(0.5 * power * math.log(mod_u_sq)) * green * s

        pts = sorted({min(10.0**k, top * 0.5) for k in range(-6, 3)})
        return _quad(integrand, 0.0, top, 0.1 * AREA_REL_TOL, points=pts, limit=400)

    rhs = 2.0 * beta**2 * _quad(inner, 0.0, math.pi, AREA_REL_TOL, limit=200)
    return lhs, rhs


# ---------------------------------------------------------------------------
# growth classification and empirical critical exponents


@dataclass(frozen=True)
class GrowthProfile:
    """Truncated norms along a sequence of shrinking boundary gaps.

    log_values holds the log of each truncated integral; classification says
    whether the sequence looks convergent as the gap closes. The decision
    statistic is the last log-log slope d(log value) / d(log 1/gap), which
    tends to 0 for convergent integrals and to the divergence rate otherwise.
    """

    gaps: tuple[float, ...]
    log_values: tuple[float, ...]
    slopes: tuple[float, ...]
    classification: str


def _classify_growth(gaps, log_values, slope_tol) -> GrowthProfile:
    slopes = []
    for k in range(1, len(gaps)):
        dx = math.log(gaps[k - 1] / gaps[k])
        slopes.append((log_values[k] - log_values[k - 1]) / dx)
    if any(not math.isfinite(v) for v in log_values):
        cls = CLASS_UNBOUNDED if log_values[-1] == math.inf else CLASS_INCONCLUSIVE
    else:
        cls = CLASS_UNBOUNDED if slopes[-1] > slope_tol else CLASS_BOUNDED
    return GrowthProfile(tuple(gaps), tuple(log_values), tuple(slopes), cls)


def hardy_growth_profile(f: CatalogFunction, p: float,
                         gaps: tuple[float, ...] = HARDY_GAPS) -> GrowthProfile:
    """Circle means along radii 1 - gap; bounded means f is in H^p."""
    vals = [float(v) for v in _log_circle_means(f, p, 0.0, gaps)]
    return _classify_growth(gaps, vals, HARDY_SLOPE_TOL)


def bergman_growth_profile(f: CatalogFunction, p: float, alpha: float = 0.0,
                           gaps: tuple[float, ...] = BERGMAN_GAPS) -> GrowthProfile:
    """Truncated area integrals at shrinking gaps, computed incrementally:
    the annulus between consecutive gaps is integrated once and accumulated."""
    bands = sorted(gaps) + [1.0]  # ascending gap boundaries
    seg_logs = [
        _log_radial_integral(f, p, 0.0, bands[k], bands[k + 1], _area_log_weight(alpha))
        for k in range(len(bands) - 1)
    ]
    # the truncated integral at a given gap sums every segment above that gap
    acc = np.logaddexp.accumulate(seg_logs[::-1])[::-1]
    log_by_gap = dict(zip(bands, acc))
    vals = [float(log_by_gap[g]) for g in gaps]
    return _classify_growth(gaps, vals, BERGMAN_SLOPE_TOL)


@dataclass(frozen=True)
class EmpiricalExponents:
    """Empirical Hardy and Bergman numbers of a catalog function.

    h_hat is the largest p (up to the probe cap) with bounded circle means,
    and b_hat is the analogous area-integral exponent divided by 2 (the
    unweighted Bergman number). Brackets record the final bisection interval;
    inf means every probe up to the cap was bounded, 0 means none was.
    """

    h_hat: float
    b_hat: float
    h_bracket: tuple[float, float]
    b_bracket: tuple[float, float]


def _bisect_critical(classify, resolution: float) -> tuple[float, tuple[float, float]]:
    if classify(P_MAX) == CLASS_BOUNDED:
        return math.inf, (P_MAX, math.inf)
    lo, hi = 0.0, P_MAX
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        cls = classify(mid)
        if cls == CLASS_BOUNDED:
            lo = mid
        elif cls == CLASS_UNBOUNDED:
            hi = mid
        else:
            break  # inconclusive probe: stop refining, keep the wide bracket
    if lo == 0.0:
        return 0.0, (lo, hi)
    return 0.5 * (lo + hi), (lo, hi)


def empirical_hb(f: CatalogFunction) -> EmpiricalExponents:
    """Bisect the bounded/unbounded transition of circle means and area
    integrals; resolution 0.05 in the Hardy exponent and in b_hat = p/2."""
    h_hat, h_bracket = _bisect_critical(
        lambda p: hardy_growth_profile(f, p).classification, HARDY_RESOLUTION
    )
    b_crit, b_bracket = _bisect_critical(
        lambda p: bergman_growth_profile(f, p).classification, BERGMAN_RESOLUTION
    )
    b_hat = b_crit / 2.0 if math.isfinite(b_crit) else b_crit
    b_bracket = tuple(x / 2.0 if math.isfinite(x) else x for x in b_bracket)
    return EmpiricalExponents(h_hat, b_hat, h_bracket, b_bracket)
