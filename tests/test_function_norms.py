"""Integral means, area integrals, and growth classification of the covering
maps of the catalog domains."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as euler_beta
from scipy.special import betainc, logsumexp

from hardynum import (
    Disk,
    DiskExterior,
    Domain,
    HalfPlane,
    Sector,
    UnsupportedShape,
    bergman_growth_profile,
    default_grid,
    empirical_hb,
    estimate_hardy_number,
    hardy_growth_profile,
    oracle_profile,
)
from hardynum import function_norms, identities
from hardynum.function_norms import (
    AREA_REL_TOL,
    BERGMAN_GAPS,
    CIRCLE_REL_TOL,
    GRADING_FLOOR,
    HARDY_GAPS,
    P_MAX,
    NodeTable,
    _Band,
    _bands,
    _Circles,
    _gl_weights,
    _graded_edges,
    _log_sum_exp,
    _rule,
)

TWO_PI = 2 * math.pi
# the norms output names, each with the domain whose covering map it probes
CATALOG = {
    "cayley": HalfPlane(),
    "sector_power_half": Sector(0.5 * math.pi),
    "exp_cayley": DiskExterior(1.0, basepoint=math.e),
    "identity": Disk(1.0),
}
CAYLEY, HALF, EXP_CAYLEY, IDENTITY = CATALOG.values()
# each map in closed form, f(0) the domain's basepoint
COVERING_MAPS = {
    "cayley": lambda z: (1 + z) / (1 - z),
    "sector_power_half": lambda z: cmath.sqrt((1 + z) / (1 - z)),
    "exp_cayley": lambda z: cmath.exp((1 + z) / (1 - z)),
    "identity": lambda z: z,
}


def log_modulus_f(name, s, theta):
    """log |f((1-s) e^{i theta})| of the named map from the cancellation-free
    moduli."""
    if name == "identity":
        return math.log(1.0 - s)
    m_minus = s * s + 4.0 * (1.0 - s) * math.sin(0.5 * theta) ** 2
    if name == "exp_cayley":
        return s * (2.0 - s) / m_minus
    m_plus = s * s + 4.0 * (1.0 - s) * math.cos(0.5 * theta) ** 2
    beta = {"cayley": 1.0, "sector_power_half": 0.5}[name]
    return 0.5 * beta * (math.log(m_plus) - math.log(m_minus))


def one_circle_log_mean(d, p, r):
    """log circle integral of |f|^p at radius r, f the covering map of d, by
    the rule the growth table is built from, on its one circle."""
    return float(_Circles(d, np.array([1.0 - r])).log_means(p)[0])


def one_band_log_integral(d, p, alpha, delta):
    """log area integral of |f|^p (1-|z|^2)^alpha over |z| <= 1 - delta, f the
    covering map of d, by the rule the growth table is built from, on its one
    band."""
    return _Band(d, delta, 1.0).log_integral(p, alpha)


def quad_log_mean(name, p, s):
    """log circle integral of |f|^p, f the named map, by adaptive quadrature
    of exp(g - max g), with breaks at the peak scales s * 10^k."""
    breaks = sorted({min(s * 10.0**k, 0.5 * math.pi) for k in range(-6, 5)})
    g = lambda t: p * log_modulus_f(name, s, t)
    shift = max(g(t) for t in [0.0, math.pi] + breaks)
    val = quad(lambda t: math.exp(g(t) - shift), 0.0, math.pi, points=breaks,
               epsrel=1e-9, epsabs=0.0, limit=500)[0]
    return shift + math.log(2.0 * val)


# ---- the 1-D rule -------------------------------------------------------------


@pytest.mark.parametrize("rule", [function_norms.quad, identities.quad],
                         ids=["function_norms.quad", "identities.quad"])
def test_quad_full_output_contract(rule):
    sizes = []

    def poly(t):
        sizes.append(t.size)
        return t**7 - 3.0 * t**2 + 1.0

    result = rule(poly, -1.0, 2.0, points=(0.5, 7.0), full_output=1)
    assert len(result) == 3 and set(result[2]) == {"neval"}
    value, abserr, info = result
    assert len(sizes) == 1 and info["neval"] == sizes[0]
    exact = (2.0**8 - 1.0) / 8.0 - (8.0 + 1.0) + 3.0
    assert value == pytest.approx(exact, rel=1e-14)
    assert abserr <= 1e-12
    assert rule(poly, -1.0, 2.0, points=(0.5,)) == (value, abserr)
    # a scalar return is a constant integrand, counted at every node
    const = rule(lambda t: 2.0, -math.pi, math.pi, full_output=1)
    assert const[0] == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert const[2]["neval"] == rule(np.cos, -math.pi, math.pi, full_output=1)[2]["neval"]
    # an array integrand is integrated along its last axis, one value per row
    rows, _ = rule(lambda t: np.outer([1.0, 2.0], t**2), 0.0, 3.0)
    np.testing.assert_allclose(rows, [9.0, 18.0], rtol=1e-14)
    with pytest.raises(ValueError):
        rule(np.cos, 1.0, 1.0)


def test_quad_abserr_bounds_the_error_at_endpoint_singularities():
    value, abserr = function_norms.quad(np.log, 0.0, 1.0)
    assert value == pytest.approx(-1.0, rel=1e-11) and abs(value + 1.0) <= abserr
    value, abserr = function_norms.quad(lambda t: t**-0.5, 0.0, 1.0)
    assert abs(value - 2.0) <= abserr


# ---- covering maps ------------------------------------------------------------


def test_catalog_flags_and_values():
    # f(0) is the basepoint: log|f| at s = 1 is log|basepoint|, whatever theta
    with np.errstate(divide="ignore"):  # the identity's log|f(0)| = log 0
        for d in CATALOG.values():
            for sin2 in (0.0, 0.3, 1.0):
                got = d._log_modulus(np.array(1.0), np.array(sin2), np.array(1.0 - sin2))
                assert got == np.log(abs(d.basepoint)), (d, sin2)
    assert [d.odd_mirror for d in CATALOG.values()] == [True, True, False, False]
    assert not Domain.odd_mirror
    # theta -> pi - theta negates an odd map's log|f|, so it is singular at
    # both ends or at neither
    assert [d.singular_angles for d in CATALOG.values()] == [
        (0.0, math.pi), (0.0, math.pi), (0.0,), ()]
    # the sector's map is the half-plane's to the power beta = opening / pi;
    # every other map is its own base
    assert [(repr(base), beta) for base, beta in (d._map_power for d in CATALOG.values())] == [
        (repr(CAYLEY), 1.0), (repr(CAYLEY), 0.5), (repr(EXP_CAYLEY), 1.0), (repr(IDENTITY), 1.0)]
    assert all(d._map_power[0] is d for d in (CAYLEY, EXP_CAYLEY, IDENTITY))


@pytest.mark.parametrize("name", list(CATALOG))
def test_log_modulus_matches_the_closed_form(name):
    d, f = CATALOG[name], COVERING_MAPS[name]
    assert f(0.0) == d.basepoint
    for s in (0.9, 0.5, 0.1, 1e-2):
        for theta in np.linspace(0.0, math.pi, 13):
            ref = math.log(abs(f(cmath.rect(1.0 - s, theta))))
            sin2, cos2 = math.sin(0.5 * theta) ** 2, math.cos(0.5 * theta) ** 2
            got = float(d._log_modulus(np.array(s), np.array(sin2), np.array(cos2)))
            # relative, absolute below 1, where log|f| crosses 0
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0), (name, s, theta)
            if d.odd_mirror:
                mirrored = d._log_modulus(np.array(s), np.array(cos2), np.array(sin2))
                assert mirrored == -got, (name, s, theta)


def test_image_domains():
    # the norms output names probe the maps onto these domains
    from hardynum.cli import _CATALOG

    assert [(name, repr(d)) for name, d in _CATALOG] == [
        (name, repr(d)) for name, d in CATALOG.items()]
    assert CATALOG["sector_power_half"].opening / math.pi == 0.5


@pytest.mark.parametrize("d", [HalfPlane(2.0), Sector(math.pi, 2.0), Disk(2.0),
                               Disk(1.0, center=0.5), DiskExterior(1.0)], ids=repr)
def test_domains_without_a_closed_form_map_are_rejected(d, monkeypatch):
    class NoCircles:
        def __init__(self, *args):
            raise AssertionError("a node was built for a domain with no covering map")

    monkeypatch.setattr(function_norms, "_Circles", NoCircles)
    with pytest.raises(UnsupportedShape, match="covering map"):
        NodeTable(d)
    with pytest.raises(UnsupportedShape, match="covering map"):
        hardy_growth_profile(d, 1.0)


def test_catalog_parameter_validation():
    # the sector power's exponent beta = opening / pi lies in (0, 2]
    with pytest.raises(ValueError):
        Sector(0.0)
    with pytest.raises(ValueError):
        Sector(3.0 * math.pi)


# ---- log-space sums and the node table --------------------------------------


def test_log_sum_exp_matches_scipy():
    rng = np.random.default_rng(7)
    g = rng.uniform(-300.0, 300.0, (40, 2, 250))
    w = rng.uniform(0.0, 1.0, (40, 1, 250))
    w[:, :, ::7] = 0.0
    got = _log_sum_exp(g, w, axis=(1, 2))
    ref = logsumexp(g, b=np.broadcast_to(w, g.shape), axis=(1, 2))
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
    got, ref = _log_sum_exp(g[:, 0], w[:, 0]), logsumexp(g[:, 0], b=w[:, 0], axis=-1)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_log_sum_exp_edge_cases():
    inf = math.inf
    g = np.array([[1000.0, 0.0, 1.0],     # the zero-weight node must not set the shift
                  [-inf, -inf, -inf],     # nothing to sum
                  [5.0, -inf, -inf],      # the only finite entry has zero weight
                  [inf, 0.0, 1.0]])       # a zero-weight inf adds nothing either
    w = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_sum_exp(g, w)
    assert got[0] == pytest.approx(math.log(1.0 + math.e), rel=1e-15)
    assert got[1] == -inf and got[2] == -inf
    assert got[3] == got[0]


def test_one_table_serves_every_probe():
    for f in CATALOG.values():
        growth = NodeTable(f)
        for p, alpha in ((2.5, 1.0), (0.5, 0.0), (2.5, 1.0)):  # the repeat catches a mutated table
            # each circle of the three-row table agrees with its own one-row
            # table: the rows form one grading block either way
            for gap, v in zip(HARDY_GAPS, growth.log_circle_means(p)):
                ref = _Circles(f, np.array([gap])).log_means(p)[0]
                assert abs(v - ref) <= 1e-13 * abs(ref), (f, p, gap)
            assert hardy_growth_profile(growth, p) == hardy_growth_profile(f, p)
            profile = bergman_growth_profile(growth, p, alpha)
            assert profile == bergman_growth_profile(f, p, alpha)
            # the outermost gap is one band on both sides; inner gaps sum
            # bands, which agree with one long band to the rule's accuracy
            for gap, v in zip(BERGMAN_GAPS, profile.log_values):
                ref = one_band_log_integral(f, p, alpha, gap)
                tol = 1e-13 if gap == max(BERGMAN_GAPS) else AREA_REL_TOL
                assert abs(v - ref) <= tol * abs(ref), (f, p, alpha, gap)


def _reference_log_means(f, s, p):
    """log circle means at radii 1 - s, as the package computed them before
    its flat table: both quarters graded toward their ends on every map, on
    one 2-D node array whose zero-width nodes are masked out of a max-shifted
    log-sum-exp that nothing floors."""
    rows = s[:, None]
    t, width = _rule(_graded_edges(rows, 0.5 * math.pi, GRADING_FLOOR))
    sin2, cos2 = np.sin(0.5 * t) ** 2, np.cos(0.5 * t) ** 2
    g = p * np.stack([f._log_modulus(rows, sin2, cos2), f._log_modulus(rows, cos2, sin2)], axis=1)
    w = _gl_weights(width)[:, None, :]
    return math.log(2.0) + _log_sum_exp(g, w, axis=(1, 2))


@settings(max_examples=60, deadline=None)
@given(
    f=st.sampled_from(list(CATALOG.values())),
    p=st.floats(0.0, 8.0),
    alpha=st.floats(-1.0, 3.0, exclude_min=True),
    where=st.sampled_from(["circles", *_bands(BERGMAN_GAPS)]),
)
def test_flat_table_matches_the_block_reference(f, p, alpha, where):
    # the error is relative on the log values, absolute below 1, where a log
    # value may cross zero
    close = lambda got, ref: np.all(np.abs(got - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0))
    if where == "circles":
        got = _Circles(f, np.array(HARDY_GAPS)).log_means(p)
        ref = _reference_log_means(f, np.array(HARDY_GAPS), p)
        assert got.shape == ref.shape and close(got, ref), (f, p)
        return
    nodes = _Band(f, *where)
    got = nodes.circles.log_means(p)
    ref = _reference_log_means(f, nodes.s, p)
    assert got.shape == ref.shape and close(got, ref), (f, p, where)
    # (1-s) from the area Jacobian times (1-|z|^2)^alpha = (s(2-s))^alpha
    s = nodes.s
    ref_integral = _log_sum_exp(ref + np.log(1.0 - s) + alpha * np.log(s * (2.0 - s)), nodes.w)
    assert close(nodes.log_integral(p, alpha), ref_integral), (f, alpha)


def test_exp_floor_changes_no_result(monkeypatch):
    # exp-cayley at the largest probe exponent: p log|f| spans ~1e12 within a
    # row, so 44% of its shifted terms lie below the floor; the table stores
    # log|f| relative to each row maximum, so p times it is the shifted term
    table = NodeTable(EXP_CAYLEY)
    circles = [table._circles, *(band.circles for band in table._bands)]
    shifted = [P_MAX * c.log_f for c in circles]
    below = sum(np.count_nonzero(g < function_norms.EXP_FLOOR) for g in shifted)
    assert below > 0.4 * sum(g.size for g in shifted)
    floored = [c.log_means(P_MAX) for c in circles]
    monkeypatch.setattr(function_norms, "EXP_FLOOR", -math.inf)
    for c, got in zip(circles, floored):
        c._memo.clear()  # sum again, unfloored
        np.testing.assert_array_equal(got, c.log_means(P_MAX))


def test_circle_means_need_a_non_negative_exponent():
    # the table stores log|f| less each row maximum, which bounds p log|f| from
    # above only for p >= 0
    table = NodeTable(EXP_CAYLEY)
    for circles in (table._circles, *(band.circles for band in table._bands)):
        with pytest.raises(ValueError, match="p >= 0"):
            circles.log_means(-0.5)
        assert np.all(np.isfinite(circles.log_means(0.0)))


def test_growth_table_node_counts_are_pinned():
    # per table: 3 circles, and 3 bands. A graded panel rule on [0, L] at
    # scale h and floor F has ceil(2 log10(L / (F h))) geometric panels after
    # [0, F h]; the inner half of a band off the center is INNER_PANELS
    # uniform panels. At F = 1e-1 (cayley) a theta-quarter graded at the gaps
    # 1e-4, 1e-7, 1e-10 has 12, 18 and 24 panels, and the bands 110, 110 and
    # 120 radial nodes; at 1e-9 (exp-cayley), 28, 34 and 40 panels and 270,
    # 270 and 440 nodes; at 1e-4 (the identity, whose theta-quarters are all
    # uniform), 170, 170 and 240 nodes. A uniform quarter has INNER_PANELS
    # panels per circle. Stored logs are GL_NODES per panel; quarters that
    # share a rule share its widths, so cayley and the identity store half
    # their widths
    counts = {  # radial nodes, circle panels, band circle panels, stored logs, stored widths
        "cayley": (340, 108, 7_680, 77_880, 3_894),
        "exp_cayley": (980, 114, 30_800, 309_140, 30_914),
        "identity": (580, 24, 4_640, 46_640, 2_332),
    }
    tables = {}
    for name, count in counts.items():
        table = tables[name] = NodeTable(CATALOG[name])
        bands = table._bands
        circles = (table._circles, *(b.circles for b in bands))
        assert (sum(band.s.size for band in bands), table._circles.seg_count.sum(),
                sum(b.circles.seg_count.sum() for b in bands),
                sum(c.log_f.size for c in circles), sum(c.width.size for c in circles)) == count, name
        assert all(np.all(c.log_f <= 0.0) for c in circles)
    # the sector holds no logs of its own: its table is built on the
    # half-plane's map, and a power of the half-plane's table shares its logs
    own = NodeTable(HALF)
    assert (repr(own.base), own.beta) == (repr(CAYLEY), 0.5)
    np.testing.assert_array_equal(own._circles.log_f, tables["cayley"]._circles.log_f)
    view = tables["cayley"].power(0.5)
    assert view.beta == 0.5 and tables["cayley"].beta == 1.0
    assert view._circles is tables["cayley"]._circles
    assert all(a is b for a, b in zip(view._bands, tables["cayley"]._bands))


def test_shallow_grading_changes_no_mean(monkeypatch):
    # cayley's pole varies on the scale of the gap and the identity has no
    # singular end on the rim, so their tables grade only to their own
    # grading_floor; the tables graded to GRADING_FLOOR, as exp-cayley's peak
    # needs, give every circle mean and band integral to 1e-12 relative,
    # which is 1e-12 on their logs
    def values(table):
        out = []
        for p in np.arange(1, 4 * P_MAX + 1) / 4:
            out += [*table.log_circle_means(p)]
            for alpha in (-0.5, 0.0, 1.0):
                out += table.log_band_integrals(p, alpha)
        return np.array(out)

    for d in (CAYLEY, IDENTITY):
        assert d.grading_floor > GRADING_FLOOR
        shallow = values(NodeTable(d))
        monkeypatch.setattr(type(d), "grading_floor", GRADING_FLOOR)
        deep = values(NodeTable(d))
        monkeypatch.undo()
        assert np.all(np.isfinite(deep)), d
        assert np.max(np.abs(shallow - deep)) <= 1e-12, d


def test_exp_cayley_needs_the_deep_floor(monkeypatch):
    # exp-cayley's peak at gap 1e-10 is about 2.5e-6 gaps wide: graded only
    # to cayley's floor, its P_MAX circle mean misses the 40-digit reference
    # of test_means_match_high_precision_references by far more than its tolerance
    assert DiskExterior.grading_floor == GRADING_FLOOR
    monkeypatch.setattr(DiskExterior, "grading_floor", HalfPlane.grading_floor)
    got = hardy_growth_profile(EXP_CAYLEY, P_MAX).log_values[-1]
    assert abs(got - EXP_CAYLEY_P_MAX_LOG_MEAN) > 1.0


@pytest.mark.parametrize("beta", [0.5, 2.0, 1.5])
def test_shared_table_matches_the_sectors_own_logs(beta):
    # the sector's own logs, beta log|cayley| through the generic path, and
    # the half-plane's table read at beta p agree bit for bit when beta is a
    # power of two, since (beta p) L and p (beta L) then round alike; another
    # beta agrees to rounding
    sector = Sector(beta * math.pi)
    own_circles = _Circles(sector, np.array(HARDY_GAPS))
    own_bands = [_Band(sector, *band) for band in _bands(BERGMAN_GAPS)]
    built, view = NodeTable(sector), NodeTable(CAYLEY).power(beta)
    exact = beta in (0.5, 2.0)
    worst = 0.0
    for p in (0.5, 1.5, 2.5, 7.9):
        own = [*own_circles.log_means(p)]
        for alpha in (0.0, 1.0):
            own += [band.log_integral(p, alpha) for band in own_bands]
        for table in (built, view):
            got = [*table.log_circle_means(p)]
            for alpha in (0.0, 1.0):
                got += table.log_band_integrals(p, alpha)
            if exact:
                assert got == own, (beta, p)
            else:
                rel = np.abs(np.subtract(got, own)) / np.abs(own)
                worst = max(worst, float(rel.max()))
    assert worst <= 1e-14, worst


def test_repeated_exponents_take_no_second_exp_pass(monkeypatch):
    table = NodeTable(CAYLEY)
    first = table.log_circle_means(1.5)
    with pytest.raises(ValueError):
        first[0] = 0.0  # the kept means are read-only
    band_means = [band.circles.log_means(1.5) for band in table._bands]
    assert not any(means.flags.writeable for means in band_means)
    exp = np.exp
    calls = []
    monkeypatch.setattr(np, "exp", lambda *args, **kwargs: calls.append(args) or exp(*args, **kwargs))
    again = table.log_circle_means(1.5)
    # the sector's probe at 3 is the half-plane's at 1.5
    sector = table.power(0.5).log_circle_means(3.0)
    assert not calls
    for means in (again, sector):
        assert means is first
    np.testing.assert_array_equal(first, NodeTable(CAYLEY).log_circle_means(1.5))


def test_uniform_quarters_match_the_graded_reference():
    # exp-cayley's quarter toward theta = pi holds nothing singular and takes
    # INNER_PANELS uniform panels; they agree with grading it as well (the
    # identity's uniform quarters meet its closed form in test_identity_means_exact)
    table = NodeTable(EXP_CAYLEY)
    circles = [(np.array(HARDY_GAPS), table._circles),
               *((band.s, band.circles) for band in table._bands)]
    for p in (0.5, 2.5, 7.9):
        for s, c in circles:
            got, ref = c.log_means(p), _reference_log_means(EXP_CAYLEY, s, p)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0)), p


def test_node_chunk_changes_no_bit(monkeypatch):
    # the table's analogue of --chunk invariance: log|f| evaluated one panel
    # at a time lands bit for bit where the default chunk puts it. Exp-cayley
    # has a graded quarter and a uniform mirrored one, the identity two
    # uniform ones; an odd_mirror map negates a whole graded quarter
    for f in (EXP_CAYLEY, IDENTITY):
        tables = [NodeTable(f)]
        monkeypatch.setattr(function_norms, "NODE_CHUNK", 1)
        tables.append(NodeTable(f))
        monkeypatch.undo()
        default, single = ([t._circles, *(b.circles for b in t._bands)] for t in tables)
        for a, b in zip(default, single):
            for field in ("log_f", "width", "row_max", "seg_count"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)


def test_half_angle_squares_match_sin_and_cos():
    # the table takes sin^2(t/2) and cos^2(t/2) from one tan per node; they
    # agree with numpy's sin and cos to 1e-15 relative at every angle of a
    # quarter, down to 1e-19, below exp-cayley's first node at gap 1e-10
    rng = np.random.default_rng(0)
    t = np.concatenate([np.geomspace(1e-19, 0.5 * math.pi, 20_001),
                        rng.uniform(0.0, 0.5 * math.pi, 20_000)])
    sin2, cos2 = function_norms._half_angle_squares(t)
    np.testing.assert_allclose(sin2, np.sin(0.5 * t) ** 2, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(cos2, np.cos(0.5 * t) ** 2, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("d", [CAYLEY, HALF], ids=["cayley", "sector_power_half"])
def test_mirrored_quarters_are_exact_negations(d, monkeypatch):
    # an odd_mirror map fills its quarter toward pi by negating the first;
    # evaluated at pi - t, by swapping the two squares, it is that bit for bit
    s = np.array([*HARDY_GAPS, *BERGMAN_GAPS])
    mirrored = _Circles(d, s)
    monkeypatch.setattr(type(d), "odd_mirror", False)
    evaluated = _Circles(d, s)
    for field in ("log_f", "row_max"):
        np.testing.assert_array_equal(getattr(evaluated, field), getattr(mirrored, field))


def _graded_band_rule(band):
    """Radial nodes and weights of a band graded toward both of its ends."""
    s_lo, s_hi = band
    half = 0.5 * (s_hi - s_lo)
    t_lo, width_lo = _rule(_graded_edges(np.array([[s_lo]]), half, GRADING_FLOOR))
    t_hi, width_hi = _rule(_graded_edges(np.array([[s_hi]]), half, GRADING_FLOOR))
    s = np.concatenate([s_lo + t_lo[0], s_hi - t_hi[0]])
    return s, np.concatenate([_gl_weights(width_lo)[0], _gl_weights(width_hi)[0]])


def test_uniform_inner_halves_match_the_graded_bands():
    # the half of a band toward an inner end s_hi < 1 holds nothing singular,
    # so its uniform panels agree with grading it toward s_hi as well
    for f in CATALOG.values():
        table = NodeTable(f)
        for p in (0.5, 2.5, 7.9):
            graded = []
            for band in _bands(BERGMAN_GAPS):
                s, w = _graded_band_rule(band)
                log_means = _reference_log_means(f, s, p)
                graded.append((band, s, w, log_means))
            for alpha in (-0.9, 0.0, 3.0):
                # log_band_integrals gives the bands in _bands order
                for (band, s, w, log_means), got in zip(graded, table.log_band_integrals(p, alpha)):
                    ref = _log_sum_exp(log_means + np.log(1.0 - s) + alpha * np.log(s * (2.0 - s)), w)
                    assert abs(got - ref) <= 1e-9 * abs(ref), (f, band, p, alpha)


# ---- circle means ------------------------------------------------------------


def test_cayley_second_mean_closed_form():
    # integral of |(1+z)/(1-z)|^2 over the circle of radius r is
    # 2*pi*(1 + 4 r^2 / (1 - r^2))
    for r in (0.1, 0.5, 0.9, 0.999, 0.9999):
        expected = TWO_PI * (1.0 + 4.0 * r * r / (1.0 - r * r))
        assert one_circle_log_mean(CAYLEY, 2.0, r) == pytest.approx(math.log(expected), abs=1e-10)


# exp-cayley's log circle mean at gap 1e-10 and p = P_MAX = 8, to 40 digits
EXP_CAYLEY_P_MAX_LOG_MEAN = 159999999956.64728836


def test_means_match_high_precision_references():
    # 40-digit mpmath integrals of the same cancellation-free integrands; the
    # last is exp-cayley's peak at gap 1e-10, about 2.5e-6 gaps wide, whose
    # log near 1.6e11 resolves only to one ulp (3e-5)
    cases = (
        (one_circle_log_mean(EXP_CAYLEY, 1 / 32, 1 - 1e-4), 613.11317670270873),
        (hardy_growth_profile(CAYLEY, 1.5).log_values[-1], 14.209746761257510),
        (hardy_growth_profile(EXP_CAYLEY, 8.0).log_values[-1], EXP_CAYLEY_P_MAX_LOG_MEAN),
    )
    for got, ref in cases:
        assert abs(got - ref) <= 1e-8 + math.ulp(ref), ref


def test_circle_means_match_adaptive_quadrature():
    for name, d in CATALOG.items():
        for p in (0.5, 1.0, 2.0, 4.0):
            for gap in (1e-1, 1e-4, 1e-7):
                r = 1.0 - gap
                ref = quad_log_mean(name, p, 1.0 - r)
                # a log value near 8e7 (exp-cayley at gap 1e-7) resolves only ~1.5e-8
                tol = CIRCLE_REL_TOL + math.ulp(ref)
                assert abs(one_circle_log_mean(d, p, r) - ref) <= tol, (name, p, gap)


def test_identity_means_exact():
    for p in (0.5, 1.0, 3.0):
        for r in (0.2, 0.8):
            assert one_circle_log_mean(IDENTITY, p, r) == pytest.approx(
                math.log(TWO_PI) + p * math.log(r), abs=1e-10
            )
    # |z| is constant on each circle, which the table's uniform quarters
    # integrate to rounding at every radius it holds
    table = NodeTable(IDENTITY)
    circles = [(np.array(HARDY_GAPS), table._circles),
               *((band.s, band.circles) for band in table._bands)]
    for p in (0.5, 2.5, 7.9):
        for s, c in circles:
            ref = math.log(TWO_PI) + p * np.log(1.0 - s)
            assert np.all(np.abs(c.log_means(p) - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0)), p


def test_sector_power_mean_is_cayley_power_mean():
    # |cayley^beta|^p = |cayley|^(beta*p) pointwise, so the means coincide
    for beta in (0.5, 1.0, 2.0):
        for p in (1.0, 2.0):
            for r in (0.4, 0.9, 1.0 - 1e-7):
                lhs = one_circle_log_mean(Sector(beta * math.pi), p, r)
                rhs = one_circle_log_mean(CAYLEY, beta * p, r)
                assert lhs == pytest.approx(rhs, abs=1e-8)


def test_means_monotone_in_radius():
    radii = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    for f in (CAYLEY, HALF, IDENTITY, EXP_CAYLEY):
        for p in (0.5, 2.0):
            vals = [one_circle_log_mean(f, p, r) for r in radii]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:])), (f, p)


# ---- area integrals ------------------------------------------------------------


def test_cayley_bergman_closed_form():
    # integral of |(1+z)/(1-z)|^2 over |z| <= R is
    # 2*pi*(-3 R^2 / 2 - 2 log(1 - R^2))
    for delta in (0.5, 0.2, 0.05, 1e-4):
        radius = 1.0 - delta
        expected = TWO_PI * (-1.5 * radius**2 - 2.0 * math.log(1.0 - radius**2))
        got = one_band_log_integral(CAYLEY, 2.0, 0.0, delta)
        assert got == pytest.approx(math.log(expected), abs=1e-8)


def test_area_band_matches_adaptive_quadrature():
    # exp-cayley's area integrand is a boundary layer of width ~delta^2 at |z| = 1 - delta
    delta = 1e-3
    log_h = lambda s: quad_log_mean("exp_cayley", 1.0, s) + math.log(1.0 - s)
    shift = log_h(delta)
    breaks = [delta + delta * 10.0**k for k in range(-6, 2)]
    val = quad(lambda s: math.exp(log_h(s) - shift), delta, 1.0, points=breaks,
               epsrel=1e-9, epsabs=0.0, limit=500)[0]
    ref = shift + math.log(val)
    got = one_band_log_integral(EXP_CAYLEY, 1.0, 0.0, delta)
    assert got == pytest.approx(ref, abs=AREA_REL_TOL)


def test_identity_weighted_area_integral():
    # integral of |z| (1 - |z|^2) over the unit disk is 4 pi / 15
    got = one_band_log_integral(IDENTITY, 1.0, 1.0, 1e-8)
    assert got == pytest.approx(math.log(4.0 * math.pi / 15.0), abs=1e-5)


def test_identity_area_integrals_match_the_incomplete_beta():
    # the integral of |z|^p (1-|z|^2)^alpha over |z| <= R is, with u = |z|^2,
    # pi B(p/2+1, alpha+1) I_{R^2}(p/2+1, alpha+1); at non-integer p and alpha
    # the integrand is no polynomial that a Gauss rule integrates exactly
    for p in (0.1, 0.5, 2.5, 7.9):
        for alpha in (-0.9, 0.0, 3.0):
            for delta in (1e-3, 1e-7):
                a, b = 0.5 * p + 1.0, alpha + 1.0
                ref = math.log(math.pi * euler_beta(a, b) * betainc(a, b, (1.0 - delta) ** 2))
                got = one_band_log_integral(IDENTITY, p, alpha, delta)
                assert abs(math.expm1(got - ref)) <= AREA_REL_TOL, (p, alpha, delta)


def test_exp_cayley_truncations_blow_up():
    # the weighted area integral grows without bound as the rim is approached
    levels = [one_band_log_integral(EXP_CAYLEY, 1.0, 0.0, d) for d in (1e-1, 1e-2, 1e-3)]
    assert levels[1] - levels[0] > math.log(10.0)
    assert levels[2] - levels[1] > math.log(10.0)


# ---- growth classification --------------------------------------------------------


def test_hardy_growth_classification_brackets_critical_exponent():
    cay, half = NodeTable(CAYLEY), NodeTable(HALF)
    assert hardy_growth_profile(cay, 0.9).classification == "bounded"
    assert hardy_growth_profile(cay, 1.1).classification == "unbounded"
    assert hardy_growth_profile(half, 1.8).classification == "bounded"
    assert hardy_growth_profile(half, 2.2).classification == "unbounded"


def test_bergman_growth_classification_brackets_critical_exponent():
    cay = NodeTable(CAYLEY)
    assert bergman_growth_profile(cay, 1.8, 0.0).classification == "bounded"
    assert bergman_growth_profile(cay, 2.2, 0.0).classification == "unbounded"
    # the weight shifts the critical exponent proportionally
    assert bergman_growth_profile(cay, 2.7, 1.0).classification == "bounded"
    assert bergman_growth_profile(cay, 3.3, 1.0).classification == "unbounded"


def test_growth_profile_shape():
    profile = hardy_growth_profile(CAYLEY, 0.9)
    assert len(profile.log_values) == len(profile.gaps)
    assert len(profile.slopes) == len(profile.gaps) - 1
    assert profile.classification in {"bounded", "unbounded", "inconclusive"}


def test_bounded_function_bounded_at_every_exponent():
    table = NodeTable(IDENTITY)
    for p in (0.5, 4.0):
        assert hardy_growth_profile(table, p).classification == "bounded"
        assert bergman_growth_profile(table, p, 0.0).classification == "bounded"


def test_exp_cayley_unbounded_at_every_exponent():
    table = NodeTable(EXP_CAYLEY)
    for p in (0.5, 2.0):
        assert hardy_growth_profile(table, p).classification == "unbounded"
        assert bergman_growth_profile(table, p, 0.0).classification == "unbounded"


def test_growth_probes_stop_at_p_max(monkeypatch):
    # the classifier is calibrated on the exponents up to P_MAX, which empirical_hb probes:
    # above P_MAX the identity map's slow approach to its limit read as
    # divergence, so a probe there fails before any table is built
    table = NodeTable(IDENTITY)
    assert hardy_growth_profile(table, P_MAX).classification == "bounded"
    assert bergman_growth_profile(table, P_MAX, 1.0).classification == "bounded"

    class NoTable(NodeTable):
        def __init__(self, d):
            raise AssertionError("a growth probe built a table before checking its exponent")

    monkeypatch.setattr(function_norms, "NodeTable", NoTable)
    for p in (P_MAX + 0.5, 1e5, 1e300):
        with pytest.raises(ValueError, match="P_MAX"):
            hardy_growth_profile(IDENTITY, p)
        with pytest.raises(ValueError, match="P_MAX"):
            bergman_growth_profile(IDENTITY, p, 1.0)


# ---- empirical exponents -------------------------------------------------------------


# the exact (h, b) of the power-type maps, whose boundary growth is |1 - z|^(-1/h)
SLOPE_LINE_MAPS = {
    "cayley": (CAYLEY, 1.0),
    "sector_power_half": (HALF, 2.0),
    "sector_1.5pi": (Sector(1.5 * math.pi), 2.0 / 3.0),
    "slit": (Sector(TWO_PI), 0.5),
}


@pytest.mark.parametrize("name", SLOPE_LINE_MAPS)
def test_empirical_exponents_read_the_slope_line(name):
    # above the critical exponent the last slopes are p/h - 1 and p/b - 2: h
    # is read to 1e-3 and b to 1e-2, each with an error at most that which
    # covers the exact value, from the domain or its table alike
    d, exact = SLOPE_LINE_MAPS[name]
    for source in (d, NodeTable(d)):
        result = empirical_hb(source)
        for value, (lo, hi), tol in ((result.h_hat, result.h_bracket, 1e-3),
                                     (result.b_hat, result.b_bracket, 1e-2)):
            assert abs(value - exact) <= tol, (value, exact)
            assert lo <= exact <= hi and lo < value < hi, (lo, value, hi)
            assert hi - value == pytest.approx(value - lo) and hi - lo <= 2.0 * tol


def test_empirical_exponents_at_the_ends():
    # exp-cayley's slopes are huge at every probe, so its readings are within
    # their errors of 0: it reads exactly 0, in brackets from 0; the identity
    # is bounded at P_MAX on both sides
    for source in (EXP_CAYLEY, NodeTable(EXP_CAYLEY)):
        result = empirical_hb(source)
        assert result.h_hat == result.b_hat == 0.0
        assert result.h_bracket[0] == result.b_bracket[0] == 0.0
        assert 0.0 < result.h_bracket[1] <= 1e-3 and 0.0 < result.b_bracket[1] <= 1e-2
    for source in (IDENTITY, NodeTable(IDENTITY)):
        result = empirical_hb(source)
        assert result.h_hat == result.b_hat == math.inf
        assert (result.h_bracket, result.b_bracket) == ((P_MAX, math.inf), (P_MAX / 2, math.inf))


def test_slopes_too_near_critical_give_a_bracket():
    # a sector of opening pi/h has h = b = h. At h = 7.5 the Hardy slope at
    # P_MAX is unbounded but under LINE_SLOPE_MIN, and at h = 3.8 so is the
    # Bergman one: no probe is read, and the exponent is bracketed by
    # P_MAX / (offset + LINE_SLOPE_MIN) and P_MAX / offset, offset 1 or 2
    result = empirical_hb(Sector(math.pi / 7.5))
    assert result.h_bracket == (P_MAX / (1.0 + function_norms.LINE_SLOPE_MIN), P_MAX)
    assert result.h_bracket[0] < 7.5 < result.h_bracket[1]
    assert (result.b_hat, result.b_bracket) == (math.inf, (P_MAX / 2, math.inf))
    result = empirical_hb(Sector(math.pi / 3.8))
    assert abs(result.h_hat - 3.8) <= 1e-3
    assert result.b_bracket == (P_MAX / (2.0 + function_norms.LINE_SLOPE_MIN), P_MAX / 2)
    assert result.b_bracket[0] < 3.8 < result.b_bracket[1]


def test_empirical_exponents_cayley():
    result = empirical_hb(CAYLEY)
    assert result.h_hat == pytest.approx(1.0, abs=0.05)
    assert result.b_hat == pytest.approx(1.0, abs=0.05)
    assert result.h_hat <= result.b_hat + 0.05
    assert abs(result.h_hat - result.b_hat) <= 0.1
    lo, hi = result.h_bracket
    assert lo <= result.h_hat <= hi


def test_empirical_exponents_bounded_function_infinite():
    result = empirical_hb(IDENTITY)
    assert result.h_hat == math.inf
    assert result.b_hat == math.inf


def test_empirical_exponents_exp_cayley_zero():
    result = empirical_hb(EXP_CAYLEY)
    assert result.h_hat == 0.0
    assert result.b_hat == 0.0


def test_empirical_exponent_matches_image_domain_estimate():
    # one object for both sides: the domain and its covering map
    d = HalfPlane()
    domain_side = estimate_hardy_number(oracle_profile(d, default_grid(d))).value
    assert abs(empirical_hb(d).h_hat - domain_side) <= 0.15
