"""Integral means, area integrals, and empirical critical exponents of the
covering map f of the unit disk onto a domain, f(0) its basepoint, for the
domains that carry one in closed form (see geometry; every other domain
raises UnsupportedShape).

Everything here is numerical but deterministic, and every disk-side integral
goes through one rule: composite Gauss-Legendre on geometrically graded
panels, summed in log space (max-shift, exp, weight, sum, log), so
astronomically large integrands such as exp((1+z)/(1-z)) never overflow.
Circle means grade their theta panels at the scale s of the boundary gap,
toward theta = 0 and toward theta = pi; area integrals nest those circle
means inside the same rule in s, graded toward the outer end of each radial
band and, for the band that reaches the center, toward the center as well;
a band's half toward an inner end holds nothing singular and takes
INNER_PANELS uniform panels.
The rule has no tolerance parameter: its node count, panel density and
grading floor are module constants, and its accuracy contract is
CIRCLE_REL_TOL relative error on circle means and AREA_REL_TOL on area
integrals, which the tests check against closed forms and against adaptive
quadrature.

quad is the same rule for a real integral over an interval: the package's
other integrals (the identity suite) go through it.

Every integrand is exp(p log|f|), times the area weight
(1-|z|^2)^alpha on bands, and the nodes depend only on the circles and bands,
never on p or alpha. Critical exponents are located by bisection on a
bounded/unbounded growth classifier, whose circles (HARDY_GAPS) and bands
(BERGMAN_GAPS) are fixed; NodeTable(d) evaluates the log|f| of the domain d
once on all their nodes, and every probe of one map at any exponent is then a
weighted log-space sum over that one table.

A table keeps each set of circles flat: the logs of all its positive-width
panels in one contiguous array, each stored less its row's largest log|f|,
which is taken once at build, with each row's panel range. For p >= 0, p
times a stored log is already the shifted term of a probe, whose largest per
row is 0: a probe scales, floors, exponentiates and sums the whole set in a
few fixed-size chunks, and adds p times each row maximum back to the row's
log. The terms are floored at EXP_FLOOR before exp, which keeps exp off the
subnormal and underflowing results that cost it one to two orders of
magnitude more per value; NodeTable says why the floor changes no result.

Radii are parametrized by the boundary gap s = 1 - r throughout, which keeps
the integrand formulas cancellation-free down to s ~ 1e-12:

    |1 - z|^2 = s^2 + 4(1-s) sin^2(theta/2)
    |1 + z|^2 = s^2 + 4(1-s) cos^2(theta/2)
    Re (1+z)/(1-z) = s(2-s) / |1 - z|^2        for z = (1-s) e^{i theta}
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain

__all__ = [
    "NodeTable",
    "GrowthProfile",
    "hardy_growth_profile",
    "bergman_growth_profile",
    "EmpiricalExponents",
    "empirical_hb",
]

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


# ---------------------------------------------------------------------------
# the quadrature rule: composite Gauss-Legendre on geometrically graded panels

GL_NODES = 10
PANELS_PER_DECADE = 2
GRADING_FLOOR = 1e-9
# circles per grading block (_Circles): the circles of one block share a
# panel count (see _graded_rule), so the block fixes where their nodes lie
RADIAL_BLOCK = 16
# uniform panels on the half of a band toward an inner end s_hi < 1 (_Band)
INNER_PANELS = 4
# a probe exponentiates p (log|f| - row max), floored at EXP_FLOOR,
# PROBE_CHUNK panels of each quarter circle at a time; see NodeTable for why
# the floor changes no result
EXP_FLOOR = -600.0
PROBE_CHUNK = 4096

_GL_T, _GL_W = np.polynomial.legendre.leggauss(GL_NODES)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W  # moved to [0, 1]


def _graded_edges(h: np.ndarray, length: float) -> np.ndarray:
    """Panel edges on [0, length], one row per scale in the column h.

    The panels are [0, GRADING_FLOOR * h] and then geometric panels,
    PANELS_PER_DECADE per decade, up to length. All rows share the panel count
    of the smallest scale; edges beyond length are clipped to it, so rows with
    a larger scale end in zero-width panels.
    """
    n = math.ceil(PANELS_PER_DECADE * math.log10(length / (GRADING_FLOOR * h.min())))
    edges = np.minimum(GRADING_FLOOR * h * 10.0 ** (np.arange(n + 1) / PANELS_PER_DECADE), length)
    edges = np.concatenate([np.zeros_like(h), edges], axis=1)
    edges[:, -1] = length
    return edges


def _graded_rule(h: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t on the panels of _graded_edges, one row per scale in the column
    h, and the width of each panel (_gl_weights turns widths into weights);
    the zero-width panels have weights exactly zero."""
    edges = _graded_edges(h, length)
    width = np.diff(edges, axis=1)
    t = (edges[:, :-1, None] + width[:, :, None] * _GL_T).reshape(len(h), -1)
    return t, width


def _gl_weights(width: np.ndarray) -> np.ndarray:
    """The weights of the nodes of _graded_rule, from its panel widths."""
    return (width[:, :, None] * _GL_W).reshape(len(width), -1)


QUAD_PANEL_CAP = 0.25 * math.pi  # widest panel of quad
# (2n - 1) * P_{n-1} at the nodes, times the weights: a dot product with the
# integrand gives its highest Legendre coefficient on the panel
_GL_TAIL = ((2 * GL_NODES - 1) * _GL_W
            * np.polynomial.legendre.legval(2.0 * _GL_T - 1.0, [0.0] * (GL_NODES - 1) + [1.0]))


def _capped_widths(length: float) -> np.ndarray:
    """Panel widths of _graded_rule on [0, length] at scale length, with each
    panel wider than QUAD_PANEL_CAP split into equal panels no wider."""
    width = _graded_rule(np.array([[length]]), length)[1][0]
    k = np.ceil(width / QUAD_PANEL_CAP)
    return np.repeat(width / k, k.astype(int))


def quad(fn, a: float, b: float, points=(), full_output: int = 0):
    """Integral of fn over [a, b] by the module's rule.

    [a, b] is split at the points inside it, and each piece is graded from
    its midpoint toward both of its ends, where an integrand may have a kink,
    a cusp or an integrable singularity; no panel is wider than
    QUAD_PANEL_CAP. fn is called once, on the array of all nodes, and
    returns a value per node, a scalar (a constant integrand), or an array
    whose last axis runs over the nodes, integrated along that axis.

    Returns (value, abserr), or (value, abserr, {"neval": n}) under
    full_output, n the number of integrand values. abserr sums, over the
    panels, the panel width times the integrand's highest Legendre
    coefficient on the panel: a pessimistic estimate, zero for polynomials
    of degree below GL_NODES - 1.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"quad needs finite a < b, got [{a!r}, {b!r}]")
    edges = [a, *sorted({float(x) for x in points if a < x < b}), b]
    starts, widths = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        width = _capped_widths(0.5 * (hi - lo))
        offset = np.cumsum(width) - width
        starts += [lo + offset, hi - offset - width]
        widths += [width, width]
    start, width = np.concatenate(starts), np.concatenate(widths)
    t = (start[:, None] + width[:, None] * _GL_T).ravel()
    values = np.asarray(fn(t), dtype=float)
    values = np.broadcast_to(values, np.broadcast_shapes(values.shape, t.shape))
    value = values @ _gl_weights(width[None])[0]
    coef = values.reshape(*values.shape[:-1], width.size, GL_NODES) @ _GL_TAIL
    abserr = np.abs(coef) @ width
    if values.ndim == 1:
        value, abserr = float(value), float(abserr)
    if full_output:
        return value, abserr, {"neval": values.size}
    return value, abserr


def _log_sum_exp(g: np.ndarray, w: np.ndarray, axis=-1) -> np.ndarray:
    """log of the sum over axis of w * exp(g), for weights w >= 0 that
    broadcast against g.

    The shift is the largest g at a node of positive weight, so the
    zero-weight nodes of clipped panels neither set it nor enter the sum, and
    a slice without a finite weighted entry reduces to -inf.
    """
    g = np.where(w > 0.0, g, -np.inf)
    shift = np.max(g, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    g -= shift
    np.exp(g, out=g)
    g *= w
    with np.errstate(divide="ignore"):
        return np.log(np.sum(g, axis=axis)) + np.squeeze(shift, axis=axis)


class _Circles:
    """log|f| of the domain d's covering map on the theta nodes of the
    circles at radius 1 - s, one row per gap in the 1-D array s.

    Every closed-form map of geometry has real Taylor coefficients, so the
    integrand is symmetric about theta = 0 and the circle integral is twice
    the [0, pi] part. That half is split at pi/2 into two quarters, and each
    is graded at scale s toward its end: toward theta = 0, where 1/|1-z|
    peaks, and toward theta = pi, where |1+z| has its cusp. The quarters
    mirror each other panel by panel, so they share their panel widths; on a
    shape with odd_mirror, the mirror quarter's logs are the first quarter's
    negated. The rows are graded RADIAL_BLOCK at a time (_graded_edges),
    which fixes the node positions; the HARDY_GAPS circles form one block.

    The table is flat and relative to each row's maximum. Panel k of the
    table is a positive-width panel of width width[k]; log_f[0, k] holds
    log|f| - row_max at its GL_NODES nodes in the quarter toward theta = 0,
    and log_f[1, k] at their mirror images in the quarter toward theta = pi.
    Row i owns the row_count[i] panels from row_start[i] on, and row_max[i]
    is the largest log|f| over them, so every stored log is at most 0; a
    row whose largest log|f| is not finite is stored unshifted, with
    row_max 0.
    """

    def __init__(self, d: Domain, s: np.ndarray) -> None:
        rules = []
        for k in range(0, s.size, RADIAL_BLOCK):
            rows = s[k:k + RADIAL_BLOCK]
            edges = _graded_edges(rows[:, None], 0.5 * math.pi)
            width = np.diff(edges, axis=1)
            keep = width > 0.0  # the zero-width panels carry no weight
            rules.append((rows, edges[:, :-1][keep], width[keep], keep.sum(axis=1)))
        self.row_count = np.concatenate([count for *_, count in rules])
        self.row_start = np.cumsum(self.row_count) - self.row_count
        panels = int(self.row_count.sum())
        self.width = np.concatenate([width for _, _, width, _ in rules])
        self.log_f = np.empty((2, panels, GL_NODES))
        at = 0
        for s_rows, start, width, count in rules:
            span = slice(at, at + width.size)
            t = start[:, None] + width[:, None] * _GL_T
            sin2, cos2 = np.sin(0.5 * t) ** 2, np.cos(0.5 * t) ** 2
            s_nodes = np.repeat(s_rows, count)[:, None]
            self.log_f[0, span] = d._log_modulus(s_nodes, sin2, cos2)
            if d.odd_mirror:
                np.negative(self.log_f[0, span], out=self.log_f[1, span])
            else:
                self.log_f[1, span] = d._log_modulus(s_nodes, cos2, sin2)
            at = span.stop
        # reduceat over the flat nodes: reducing the 10-long node axis is ~10x slower
        start = self.row_start * GL_NODES
        row_max = np.maximum(np.maximum.reduceat(self.log_f[0].ravel(), start),
                             np.maximum.reduceat(self.log_f[1].ravel(), start))
        self.row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        self.log_f -= np.repeat(self.row_max, self.row_count)[:, None]

    def log_means(self, p: float) -> np.ndarray:
        """log of the circle integral of |f|^p, one per row, for p >= 0."""
        if not p >= 0.0:
            raise ValueError(f"circle means need an exponent p >= 0, got {p!r}")
        # p times a stored log is p log|f| less p row_max; each row stores its
        # largest log as exactly 0, so its largest term is exp(0) = 1
        panels = self.width.size
        sums = np.empty(panels)
        buf = np.empty((2, min(PROBE_CHUNK, panels), GL_NODES))
        for lo in range(0, panels, PROBE_CHUNK):
            hi = min(lo + PROBE_CHUNK, panels)
            chunk = np.multiply(self.log_f[:, lo:hi], p, out=buf[:, :hi - lo])
            np.maximum(chunk, EXP_FLOOR, out=chunk)
            np.exp(chunk, out=chunk)
            quarters = chunk @ _GL_W
            np.add(quarters[0], quarters[1], out=sums[lo:hi])
        sums *= self.width
        with np.errstate(divide="ignore"):
            return math.log(2.0) + np.log(np.add.reduceat(sums, self.row_start)) + p * self.row_max


def _uniform_rule(length: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and panel widths, as _graded_rule gives them for one row, of
    INNER_PANELS equal panels on [0, length]."""
    width = np.full((1, INNER_PANELS), length / INNER_PANELS)
    t = ((np.arange(INNER_PANELS)[:, None] + _GL_T) * width[0, 0]).reshape(1, -1)
    return t, width


class _Band:
    """Radial nodes of the band s in [s_lo, s_hi] and the circle nodes at each.

    Area integrals in the coordinates (s, theta) read
    integral r dr dtheta = integral over s of (1-s) * [circle part] ds.
    The band is split at its midpoint. The half toward s_lo is graded toward
    s_lo at the scale s_lo: there the circle means grow on the scale s_lo
    (and on s_lo^2 for exponentially large means). Nothing singular lies at
    an inner end s_hi < 1, so the half toward it is INNER_PANELS uniform
    panels. At s_hi = 1, the center of the disk, |f|^p (1-s) has a kink for
    a map with f(0) = 0, so there the half stays graded toward s_hi. One
    _Circles holds the circles at every radial node.
    """

    def __init__(self, d: Domain, s_lo: float, s_hi: float) -> None:
        half = 0.5 * (s_hi - s_lo)
        t_lo, width_lo = _graded_rule(np.array([[s_lo]]), half)
        t_hi, width_hi = (_graded_rule(np.array([[s_hi]]), half) if s_hi == 1.0
                          else _uniform_rule(half))
        self.s = np.concatenate([s_lo + t_lo[0], s_hi - t_hi[0]])
        self.w = np.concatenate([_gl_weights(width_lo)[0], _gl_weights(width_hi)[0]])
        self.circles = _Circles(d, self.s)

    def log_integral(self, p: float, alpha: float) -> float:
        """log of the band integral of M(s) (1-s) (s(2-s))^alpha ds, M(s) the circle
        integral of |f|^p at r = 1 - s: the area Jacobian times (1-r^2)^alpha."""
        s = self.s
        log_w = np.log(1.0 - s) + alpha * np.log(s * (2.0 - s))
        return float(_log_sum_exp(self.circles.log_means(p) + log_w, self.w))


class NodeTable:
    """log|f| of one domain's covering map on the quadrature nodes of the growth
    classifier: the circles at the radii 1 - HARDY_GAPS and the radial bands
    between consecutive BERGMAN_GAPS and from the largest to the center.

    The logs are evaluated once here, each set of circles in one flat table
    stored less each row's largest log|f| (see _Circles). A probe at p >= 0
    scales the stored logs by p, floors, exponentiates, weights and sums, and
    adds p times the row maximum back.

    Before exp, each term p (log|f| - row max) is floored at EXP_FLOOR = -600.
    The largest term of a row is exp(0) = 1 at a weight of at least
    GRADING_FLOOR * gap * min(GL weight), about 3e-21 at the smallest gap
    1e-10, while every floored term adds at most exp(-600) ~ 3e-261 times a
    weight below 1; the at most ~800 terms of a row shift its sum by under
    1e-230 relative, far below one rounding, and the tests find the floored and
    unfloored sums bit-identical on exp-cayley (the disk exterior's map) at
    P_MAX.

    A table holds 539,640 logs (26,880 band panels and 102 circle panels),
    4.6 MB in all: keep it while probing one map, not longer.
    """

    def __init__(self, d: Domain) -> None:
        d._log_modulus(0.5, 0.5, 0.5)  # a domain with no map raises before any node is built
        self._circles = _Circles(d, np.array(HARDY_GAPS))
        self._bands = [_Band(d, *band) for band in _bands(BERGMAN_GAPS)]

    def log_circle_means(self, p: float) -> np.ndarray:
        """log of the circle integral of |f|^p at each radius 1 - HARDY_GAPS."""
        return self._circles.log_means(p)

    def log_band_integrals(self, p: float, alpha: float) -> list[float]:
        """log of the area integral of |f|^p (1-|z|^2)^alpha over each band,
        in _bands order: the annuli of gaps s = 1 - |z| in the band."""
        return [band.log_integral(p, alpha) for band in self._bands]


def _bands(gaps) -> list[tuple[float, float]]:
    """The bands between consecutive gaps, and from the largest gap to the center."""
    edges = sorted(gaps) + [1.0]
    return list(zip(edges[:-1], edges[1:]))


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


def check_exponents(p: float, alpha: float = 0.0) -> None:
    """Raise ValueError unless 0 < p < inf and -1 < alpha < inf."""
    if not (0.0 < p < math.inf):
        raise ValueError(f"exponent p must be finite and > 0, got {p!r}")
    if not (-1.0 < alpha < math.inf):
        raise ValueError(f"weight alpha must be finite and > -1, got {alpha!r}")


def check_growth_exponents(p: float, alpha: float = 0.0) -> None:
    """Raise ValueError unless 0 < p <= P_MAX and -1 < alpha < inf.

    The growth classifier is calibrated on the exponents that empirical_hb
    bisects only; above P_MAX a bounded function's slow approach to its
    limit reads as divergence.
    """
    check_exponents(p, alpha)
    if p > P_MAX:
        raise ValueError(f"growth probes need an exponent p <= P_MAX = {P_MAX:g}, got {p!r}")


def hardy_growth_profile(d: Domain | NodeTable, p: float) -> GrowthProfile:
    """Circle means at the radii 1 - HARDY_GAPS; bounded means f is in H^p.

    d is a domain or its NodeTable; a domain gets a table of its own, bands
    included, so probe one domain several times through one table.
    """
    check_growth_exponents(p)
    table = d if isinstance(d, NodeTable) else NodeTable(d)
    vals = [float(v) for v in table.log_circle_means(p)]
    return _classify_growth(HARDY_GAPS, vals, HARDY_SLOPE_TOL)


def bergman_growth_profile(d: Domain | NodeTable, p: float,
                           alpha: float = 0.0) -> GrowthProfile:
    """Truncated area integrals at the gaps BERGMAN_GAPS, computed incrementally:
    the annulus between consecutive gaps is integrated once and accumulated.

    d is a domain or its NodeTable; a domain gets a table of its own, circles
    included.
    """
    check_growth_exponents(p, alpha)
    table = d if isinstance(d, NodeTable) else NodeTable(d)
    seg_logs = table.log_band_integrals(p, alpha)
    # the bands run inward from the smallest gap and BERGMAN_GAPS shrinks, so
    # the truncated integral at its k-th gap sums the last k + 1 bands
    vals = [float(v) for v in np.logaddexp.accumulate(seg_logs[::-1])]
    return _classify_growth(BERGMAN_GAPS, vals, BERGMAN_SLOPE_TOL)


@dataclass(frozen=True)
class EmpiricalExponents:
    """Empirical Hardy and Bergman numbers of a domain's covering map.

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


def empirical_hb(d: Domain | NodeTable) -> EmpiricalExponents:
    """Bisect the bounded/unbounded transition of circle means and area
    integrals; resolution 0.05 in the Hardy exponent and in b_hat = p/2.

    d is a domain or its NodeTable; every probe reads that one table.
    """
    table = d if isinstance(d, NodeTable) else NodeTable(d)
    h_hat, h_bracket = _bisect_critical(
        lambda p: hardy_growth_profile(table, p).classification, HARDY_RESOLUTION
    )
    b_crit, b_bracket = _bisect_critical(
        lambda p: bergman_growth_profile(table, p).classification, BERGMAN_RESOLUTION
    )
    b_hat = b_crit / 2.0 if math.isfinite(b_crit) else b_crit
    b_bracket = tuple(x / 2.0 if math.isfinite(x) else x for x in b_bracket)
    return EmpiricalExponents(h_hat, b_hat, h_bracket, b_bracket)
