"""Integral means, area integrals, and empirical critical exponents of the
covering map f of the unit disk onto a domain, f(0) its basepoint, for the
domains that carry one in closed form (see geometry; every other domain
raises UnsupportedShape).

Everything here is numerical but deterministic, and every disk-side integral
goes through one rule: composite Gauss-Legendre on geometrically graded
panels, summed in log space (max-shift, exp, weight, sum, log), so
astronomically large integrands such as exp((1+z)/(1-z)) never overflow.
Circle means grade their theta panels at the scale s of the boundary gap,
toward theta = 0 and theta = pi where the domain lists them in
singular_angles; area integrals nest those circle means inside the same rule
in s, graded toward the outer end of each radial band and, for the band that
reaches the center, toward the center as well. Other theta-quarters, and a
band's half toward an inner end, hold nothing singular and take INNER_PANELS
uniform panels. Each map's graded panels reach down to its own
grading_floor times their scale (see geometry): 1e-1 for cayley, 1e-4 for
the identity and 1e-9 for exp-cayley, whose peak is far narrower than the gap.
The rule has no tolerance parameter: its node count and panel density are
module constants and its grading floor a constant of each map, and its
accuracy contract is CIRCLE_REL_TOL relative error on circle means and
AREA_REL_TOL on area integrals, which the tests check against closed forms
and against adaptive quadrature.

quad is the same rule for a real integral over an interval, graded to
GRADING_FLOOR: the package's other integrals (the identity suite) go through
it.

Every integrand is exp(p log|f|), times the area weight
(1-|z|^2)^alpha on bands, and the nodes depend only on the circles and bands,
never on p or alpha. Critical exponents are read off the growth slopes of
the circle means at the gaps HARDY_GAPS and of the area integrals at
BERGMAN_GAPS (empirical_hb); NodeTable(d) evaluates the log|f| of the domain
d once on all their nodes, and every probe of one map at any exponent is then a
weighted log-space sum over that one table. A map that is a power of
another's, f = g^beta (the sector's, of the half-plane's Cayley map), shares
g's table and reads it at beta p, and a table keeps the circle means of each
exponent it has summed, so a probe that another probe or another power has
already made costs nothing.

A table keeps each set of circles flat: the logs of the positive-width panels
of both theta-quarters in one contiguous array, each stored less its row's
largest log|f|, taken once at build. For p >= 0, p times a stored log is
already the shifted term of a probe, whose largest per row is 0: a probe
scales, floors, exponentiates and sums the whole set in a few fixed-size
chunks, and adds p times each row maximum back to the row's log. The terms
are floored at EXP_FLOOR before exp, which keeps exp off the subnormal and
underflowing results that cost it one to two orders of magnitude more per
value; NodeTable says why the floor changes no result.

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
# empirical_hb reads an exponent only off probes whose last slope exceeds
# this: nearer the critical exponent the integral's bounded part, and at it
# a log divergence (slope ~0.05), bend the slope off the line p/h - 1
LINE_SLOPE_MIN = 0.2

CLASS_BOUNDED = "bounded"
CLASS_UNBOUNDED = "unbounded"
CLASS_INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# the quadrature rule: composite Gauss-Legendre on geometrically graded panels

GL_NODES = 10
PANELS_PER_DECADE = 2
# quad's; a growth table grades to its own map's grading_floor
GRADING_FLOOR = Domain.grading_floor
# uniform panels on a theta-quarter or band half that holds nothing singular
INNER_PANELS = 4
# panels per log|f| evaluation of a table build (_Circles); it moves no node
NODE_CHUNK = 512
# a probe exponentiates p (log|f| - row max), floored at EXP_FLOOR,
# PROBE_CHUNK panels at a time; NodeTable says why the floor changes no result
EXP_FLOOR = -600.0
PROBE_CHUNK = 4096

_GL_T, _GL_W = np.polynomial.legendre.leggauss(GL_NODES)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W  # moved to [0, 1]


def _graded_edges(h: np.ndarray, length: float, floor: float) -> np.ndarray:
    """Panel edges on [0, length], one row per scale in the column h.

    The panels are [0, floor * h] and then geometric panels,
    PANELS_PER_DECADE per decade, up to length. All rows share the panel count
    of the smallest scale; edges beyond length are clipped to it, so rows with
    a larger scale end in zero-width panels.
    """
    n = math.ceil(PANELS_PER_DECADE * math.log10(length / (floor * h.min())))
    edges = np.minimum(floor * h * 10.0 ** (np.arange(n + 1) / PANELS_PER_DECADE), length)
    edges = np.concatenate([np.zeros_like(h), edges], axis=1)
    edges[:, -1] = length
    return edges


def _uniform_edges(length: float) -> np.ndarray:
    """Panel edges of INNER_PANELS equal panels on [0, length], as one row."""
    return np.linspace(0.0, length, INNER_PANELS + 1)[None]


def _rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t on the panels between consecutive edges, one row per row of
    edges, and the panel widths (_gl_weights: zero on zero-width panels)."""
    width = np.diff(edges, axis=1)
    t = (edges[:, :-1, None] + width[:, :, None] * _GL_T).reshape(len(edges), -1)
    return t, width


def _gl_weights(width: np.ndarray) -> np.ndarray:
    """The weights of the nodes of _rule, from its panel widths."""
    return (width[:, :, None] * _GL_W).reshape(len(width), -1)


QUAD_PANEL_CAP = 0.25 * math.pi  # widest panel of quad
# (2n - 1) * P_{n-1} at the nodes, times the weights: a dot product with the
# integrand gives its highest Legendre coefficient on the panel
_GL_TAIL = ((2 * GL_NODES - 1) * _GL_W
            * np.polynomial.legendre.legval(2.0 * _GL_T - 1.0, [0.0] * (GL_NODES - 1) + [1.0]))


def _capped_widths(length: float) -> np.ndarray:
    """Panel widths of _graded_edges on [0, length] at scale length, with each
    panel wider than QUAD_PANEL_CAP split into equal panels no wider."""
    width = np.diff(_graded_edges(np.array([[length]]), length, GRADING_FLOOR))[0]
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


def _quarter_rule(s: np.ndarray, floor: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and width of the positive-width panels of [0, pi/2] on each circle
    at gap s, graded toward 0 at scale s down to floor * s, or uniform when
    floor is None, and each row's count."""
    edges = (_graded_edges(s[:, None], 0.5 * math.pi, floor) if floor is not None
             else np.repeat(_uniform_edges(0.5 * math.pi), s.size, axis=0))
    width = np.diff(edges, axis=1)
    keep = width > 0.0  # the zero-width panels carry no weight
    return edges[:, :-1][keep], width[keep], keep.sum(axis=1)


def _half_angle_squares(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin^2(t/2) and cos^2(t/2) for 0 <= t <= pi/2 from one tan, which costs
    numpy a fraction of a sin and a cos: with tau = tan(t/4), they are
    4 tau^2 / (1 + tau^2)^2 and ((1 - tau^2) / (1 + tau^2))^2."""
    tau2 = np.tan(0.25 * t) ** 2
    inv = 1.0 / (1.0 + tau2)
    return 4.0 * tau2 * inv * inv, ((1.0 - tau2) * inv) ** 2


class _Circles:
    """log|f| of the domain d's covering map on the theta nodes of the
    circles at radius 1 - s, one row per gap in the 1-D array s.

    Every closed-form map of geometry has real Taylor coefficients, so the
    circle integral is twice the [0, pi] part, split at pi/2 into two
    quarters. A quarter whose end, theta = 0 or pi, is in d.singular_angles
    is graded toward it at scale s down to d.grading_floor * s, any other is
    uniform (_quarter_rule); log|f| is evaluated NODE_CHUNK panels at a
    time, node-major so each ufunc runs along a chunk (_half_angle_squares
    gives the angles). On an odd_mirror shape the quarter toward pi holds the
    first quarter's logs negated.

    The table is flat and relative to each row's maximum: log_f[k] holds
    log|f| - row_max at the GL_NODES nodes of a positive-width panel of width
    width[k % width.size]. Segment i < rows is row i's quarter toward 0 and
    segment rows + i its quarter toward pi, at the mirror images pi - t of the
    nodes t; segment j owns the seg_count[j] panels from seg_start[j] on.
    width holds each distinct quarter rule's widths once: both quarters' in
    order, or one quarter's when the two share a rule. row_max[i] is the
    largest log|f| over row i, so every stored log is at most 0; a row whose
    largest log|f| is not finite is stored unshifted, with row_max 0.
    """

    def __init__(self, d: Domain, s: np.ndarray) -> None:
        floors = [d.grading_floor if end in d.singular_angles else None for end in (0.0, math.pi)]
        rules = {f: _quarter_rule(s, f) for f in set(floors)}  # quarters alike share one
        quarters = [rules[f] for f in floors]
        self.seg_count = np.concatenate([count for *_, count in quarters])
        self.seg_start = np.cumsum(self.seg_count) - self.seg_count
        self.width = np.concatenate([rules[f][1] for f in dict.fromkeys(floors)])
        self.log_f = np.empty((self.seg_count.sum(), GL_NODES))
        for mirror, (start, width, count) in enumerate(quarters):
            out = self.log_f[-width.size:] if mirror else self.log_f[:width.size]
            if mirror and d.odd_mirror:
                np.negative(self.log_f[:width.size], out=out)
                continue
            s_panels = np.repeat(s, count)
            for lo in range(0, width.size, NODE_CHUNK):
                span = slice(lo, lo + NODE_CHUNK)
                sin2, cos2 = _half_angle_squares(start[span] + width[span] * _GL_T[:, None])
                sin2, cos2 = (cos2, sin2) if mirror else (sin2, cos2)  # at pi - t
                out[span] = d._log_modulus(s_panels[span], sin2, cos2).T
        # reduceat over the flat nodes: reducing the 10-long node axis is ~10x slower
        row_max = np.maximum.reduceat(self.log_f.ravel(), self.seg_start * GL_NODES)
        row_max = row_max.reshape(2, -1).max(axis=0)
        self.row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        self.log_f -= np.repeat(np.tile(self.row_max, 2), self.seg_count)[:, None]

    def log_means(self, p: float) -> np.ndarray:
        """log of the circle integral of |f|^p, one per row, for p >= 0."""
        if not p >= 0.0:
            raise ValueError(f"circle means need an exponent p >= 0, got {p!r}")
        # p times a stored log is p log|f| less p row_max; each row stores its
        # largest log as exactly 0, so its largest term is exp(0) = 1
        sums = np.empty(len(self.log_f))
        buf = np.empty((min(PROBE_CHUNK, sums.size), GL_NODES))
        for lo in range(0, sums.size, PROBE_CHUNK):
            span = slice(lo, lo + PROBE_CHUNK)
            chunk = np.multiply(self.log_f[span], p, out=buf[:sums[span].size])
            np.maximum(chunk, EXP_FLOOR, out=chunk)
            np.exp(chunk, out=chunk)
            np.matmul(chunk, _GL_W, out=sums[span])
        by_width = sums.reshape(-1, self.width.size)  # one row per copy of width
        by_width *= self.width
        quarters = np.add.reduceat(sums, self.seg_start).reshape(2, -1)
        with np.errstate(divide="ignore"):
            return math.log(2.0) + np.log(quarters[0] + quarters[1]) + p * self.row_max


class _Band:
    """Radial nodes of the band s in [s_lo, s_hi] and the circle nodes at each.

    Area integrals in the coordinates (s, theta) read
    integral r dr dtheta = integral over s of (1-s) * [circle part] ds.
    The band is split at its midpoint. The half toward s_lo is graded toward
    s_lo at the scale s_lo: there the circle means grow on the scale s_lo
    (and on s_lo^2 for exponentially large means). Nothing singular lies at
    an inner end s_hi < 1, so the half toward it is INNER_PANELS uniform
    panels. At s_hi = 1, the center of the disk, |f|^p (1-s) has a kink for
    a map with f(0) = 0, so there the half stays graded toward s_hi. Both
    graded halves reach down to d.grading_floor times their scale. One
    _Circles holds the circles at every radial node.
    """

    def __init__(self, d: Domain, s_lo: float, s_hi: float) -> None:
        half = 0.5 * (s_hi - s_lo)
        t_lo, width_lo = _rule(_graded_edges(np.array([[s_lo]]), half, d.grading_floor))
        t_hi, width_hi = _rule(_graded_edges(np.array([[s_hi]]), half, d.grading_floor)
                               if s_hi == 1.0 else _uniform_edges(half))
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

    The table holds the logs of the map's base g and its power beta, f = g^beta
    (geometry's _map_power): |f|^p = |g|^(beta p), so a probe at p reads the
    base's sums at beta p. power(beta) gives the table of another power of the
    same base without building one: the sector's table is the half-plane's.
    When beta is a power of two, as for the right-angle sector (1/2) and the
    slit (2), every result is bit for bit that of a table of f's own logs;
    another beta moves it at rounding level.

    The logs are evaluated once here, each set of circles in one flat table
    (_Circles) less each row's largest log|f|; a probe at p >= 0 scales them
    by p, floors, exponentiates, weights, sums and adds p times it back, one
    exp pass per probe.

    Before exp, each term p (log|f| - row max) is floored at EXP_FLOOR = -600.
    The largest term of a row is exp(0) = 1 at a weight of at least
    grading_floor * gap * min(GL weight) on a graded panel, the map's own
    grading_floor: about 3e-21 on exp-cayley (the disk exterior's map, 1e-9)
    at the smallest gap 1e-10, 3e-13 on cayley (1e-1); and 0.013 on a uniform
    quarter's panel. Every floored term adds at most exp(-600) ~ 3e-261
    times a weight below 1; the at most ~800 terms of a row shift its sum by
    under 1e-230 relative, far below one rounding, and the tests find the
    floored and unfloored sums bit-identical on exp-cayley at P_MAX.

    With its panel widths, a table holds 77,880 logs (0.65 MB) on the
    half-plane, which the sector shares, 309,140 (2.7 MB) on exp-cayley and
    46,640 (0.39 MB) on the identity: keep it while probing the powers of one
    base map, not longer.
    """

    def __init__(self, d: Domain) -> None:
        self.base, self.beta = d._map_power
        self.base._log_modulus(0.5, 0.5, 0.5)  # a domain with no map raises before any node is built
        self._circles = _Circles(self.base, np.array(HARDY_GAPS))
        self._bands = [_Band(self.base, *band) for band in _bands(BERGMAN_GAPS)]

    def power(self, beta: float) -> NodeTable:
        """The table of this table's map to the power beta: the same logs and
        means, read at beta times each probe's exponent."""
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__, beta=self.beta * beta)
        return view

    def log_circle_means(self, p: float) -> np.ndarray:
        """log of the circle integral of |f|^p at each radius 1 - HARDY_GAPS."""
        return self._circles.log_means(self.beta * p)

    def log_band_integrals(self, p: float, alpha: float) -> list[float]:
        """log of the area integral of |f|^p (1-|z|^2)^alpha over each band,
        in _bands order: the annuli of gaps s = 1 - |z| in the band."""
        return [band.log_integral(self.beta * p, alpha) for band in self._bands]


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
    slopes = [(v1 - v0) / math.log(g0 / g1)
              for g0, g1, v0, v1 in zip(gaps, gaps[1:], log_values, log_values[1:])]
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

    The growth classifier is calibrated on the exponents up to P_MAX, the
    largest that empirical_hb probes; above it a bounded function's slow
    approach to its limit reads as divergence.
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

    h_hat is read off the circle means' growth slopes and b_hat, the
    unweighted Bergman number, off the area integrals'; each bracket is the
    estimate less and plus its error (_read_slope_line). inf means the P_MAX
    probe was bounded, 0 an estimate within its error of 0.
    """

    h_hat: float
    b_hat: float
    h_bracket: tuple[float, float]
    b_bracket: tuple[float, float]


def _read_slope_line(probe, offset: float) -> tuple[float, tuple[float, float]]:
    """The mean c of p / (offset + last slope) over probe(p) at p = P_MAX and
    P_MAX/2 where that slope exceeds LINE_SLOPE_MIN, and its bracket c -+ error:
    the largest change from a reading at the previous gap, plus the readings'
    spread. A c within its error of 0 reads 0. Bounded at P_MAX, c >= P_MAX/offset;
    read at no probe, c is between P_MAX/(offset + LINE_SLOPE_MIN) and P_MAX/offset."""
    top = probe(P_MAX)
    if top.classification == CLASS_BOUNDED:
        return math.inf, (P_MAX / offset, math.inf)
    readings = [(p / (offset + g.slopes[-1]), p / (offset + g.slopes[-2]))
                for p, g in ((P_MAX, top), (0.5 * P_MAX, probe(0.5 * P_MAX)))
                if g.slopes[-1] > LINE_SLOPE_MIN]
    if not readings:
        lo, hi = P_MAX / (offset + LINE_SLOPE_MIN), P_MAX / offset
        return 0.5 * (lo + hi), (lo, hi)
    values = [last for last, _ in readings]
    c = sum(values) / len(values)
    error = max(abs(last - prev) for last, prev in readings) + max(values) - min(values)
    return (0.0, (0.0, c + error)) if c <= error else (c, (c - error, c + error))


def empirical_hb(d: Domain | NodeTable) -> EmpiricalExponents:
    """h and b off the growth slopes: above the critical exponent, for boundary
    growth |1 - z|^(-1/h), the last log-log slopes of circle means and area
    integrals are p/h - 1 and p/b - 2. d is a domain or its NodeTable; every
    probe reads that one table."""
    table = d if isinstance(d, NodeTable) else NodeTable(d)
    h_hat, h_bracket = _read_slope_line(lambda p: hardy_growth_profile(table, p), 1.0)
    b_hat, b_bracket = _read_slope_line(lambda p: bergman_growth_profile(table, p), 2.0)
    return EmpiricalExponents(h_hat, b_hat, h_bracket, b_bracket)
