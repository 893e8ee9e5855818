"""Integral means, area integrals, and growth classification on the catalog."""

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
    HalfPlane,
    Sector,
    bergman_growth_profile,
    cayley,
    default_grid,
    empirical_hb,
    estimate_hardy_number,
    exp_cayley,
    hardy_growth_profile,
    identity_map,
    oracle_profile,
    sector_power,
)
from hardynum import function_norms, identities
from hardynum.function_norms import (
    AREA_REL_TOL,
    BERGMAN_GAPS,
    CIRCLE_REL_TOL,
    HARDY_GAPS,
    P_MAX,
    NodeTable,
    _Band,
    _bands,
    _Circles,
    _gl_weights,
    _graded_rule,
    _log_moduli,
    _log_sum_exp,
)

TWO_PI = 2 * math.pi
CATALOG = (cayley(), sector_power(0.5), exp_cayley(), identity_map())


def log_modulus_f(f, s, theta):
    """log |f((1-s) e^{i theta})| from the cancellation-free moduli."""
    if f.kind == "identity":
        return math.log(1.0 - s)
    m_minus = s * s + 4.0 * (1.0 - s) * math.sin(0.5 * theta) ** 2
    if f.kind == "exp_cayley":
        return s * (2.0 - s) / m_minus
    m_plus = s * s + 4.0 * (1.0 - s) * math.cos(0.5 * theta) ** 2
    return 0.5 * f.beta * (math.log(m_plus) - math.log(m_minus))


def one_circle_log_mean(f, p, r):
    """log circle integral of |f|^p at radius r, by the rule the growth table
    is built from, on its one circle."""
    return float(_Circles(f, np.array([1.0 - r])).log_means(p)[0])


def one_band_log_integral(f, p, alpha, delta):
    """log area integral of |f|^p (1-|z|^2)^alpha over |z| <= 1 - delta, by the
    rule the growth table is built from, on its one band."""
    return _Band(f, delta, 1.0).log_integral(p, alpha)


def quad_log_mean(f, p, s):
    """log circle integral of |f|^p by adaptive quadrature of exp(g - max g),
    with breaks at the peak scales s * 10^k."""
    breaks = sorted({min(s * 10.0**k, 0.5 * math.pi) for k in range(-6, 5)})
    g = lambda t: p * log_modulus_f(f, s, t)
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


# ---- catalog ---------------------------------------------------------------


def test_catalog_flags_and_values():
    f = cayley()
    assert f.univalent
    assert f.value(0.0) == pytest.approx(1.0)

    g = identity_map()
    assert g.univalent
    assert g.value(0.25j) == 0.25j

    e = exp_cayley()
    assert not e.univalent
    assert abs(e.value(0.0)) == pytest.approx(math.e)

    h = sector_power(0.5)
    assert h.univalent
    assert h.value(0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["cayley", "exp_cayley", "identity"])
@pytest.mark.parametrize("beta", [2.0, math.nan])
def test_catalog_rejects_beta_on_kinds_that_ignore_it(kind, beta):
    # only sector_power reads beta; elsewhere it would reach log|f| alone
    with pytest.raises(ValueError, match="takes no beta"):
        function_norms.CatalogFunction(kind, beta=beta)


def test_image_domains():
    assert isinstance(cayley().image_domain(), HalfPlane)
    img = sector_power(0.5).image_domain()
    assert isinstance(img, Sector)
    assert img.opening == pytest.approx(math.pi / 2)


def test_catalog_parameter_validation():
    with pytest.raises(ValueError):
        sector_power(0.0)
    with pytest.raises(ValueError):
        sector_power(3.0)


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
    for f in CATALOG:
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


def _reference_log_means(f, s, p, block):
    """log circle means at radii 1 - s, as the package computed them before
    its flat table: one 2-D node array per block of rows, its zero-width nodes
    masked out of a max-shifted log-sum-exp that nothing floors."""
    out = []
    for k in range(0, s.size, block):
        rows = s[k:k + block, None]
        t, width = _graded_rule(rows, 0.5 * math.pi)
        sin2, cos2 = np.sin(0.5 * t) ** 2, np.cos(0.5 * t) ** 2
        g = p * np.stack([_log_moduli(f, rows, sin2, cos2), _log_moduli(f, rows, cos2, sin2)],
                         axis=1)
        w = _gl_weights(width)[:, None, :]
        out.append(math.log(2.0) + _log_sum_exp(g, w, axis=(1, 2)))
    return np.concatenate(out)


@settings(max_examples=60, deadline=None)
@given(
    f=st.sampled_from(CATALOG),
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
        ref = _reference_log_means(f, np.array(HARDY_GAPS), p, len(HARDY_GAPS))
        assert got.shape == ref.shape and close(got, ref), (f, p)
        return
    nodes = _Band(f, *where)
    got = nodes.circles.log_means(p)
    ref = _reference_log_means(f, nodes.s, p, function_norms.RADIAL_BLOCK)
    assert got.shape == ref.shape and close(got, ref), (f, p, where)
    # (1-s) from the area Jacobian times (1-|z|^2)^alpha = (s(2-s))^alpha
    s = nodes.s
    ref_integral = _log_sum_exp(ref + np.log(1.0 - s) + alpha * np.log(s * (2.0 - s)), nodes.w)
    assert close(nodes.log_integral(p, alpha), ref_integral), (f, alpha)


def test_exp_floor_changes_no_result(monkeypatch):
    # exp-cayley at the largest probe exponent: p log|f| spans ~1e12 within a
    # row, so most of its shifted terms lie below the floor; the table stores
    # log|f| relative to each row maximum, so p times it is the shifted term
    table = NodeTable(exp_cayley())
    circles = [table._circles, *(band.circles for band in table._bands)]
    shifted = [P_MAX * c.log_f for c in circles]
    below = sum(np.count_nonzero(g < function_norms.EXP_FLOOR) for g in shifted)
    assert below > 0.5 * sum(g.size for g in shifted)
    floored = [c.log_means(P_MAX) for c in circles]
    monkeypatch.setattr(function_norms, "EXP_FLOOR", -math.inf)
    for c, got in zip(circles, floored):
        np.testing.assert_array_equal(got, c.log_means(P_MAX))


def test_circle_means_need_a_non_negative_exponent():
    # the table stores log|f| less each row maximum, which bounds p log|f| from
    # above only for p >= 0
    table = NodeTable(exp_cayley())
    for circles in (table._circles, *(band.circles for band in table._bands)):
        with pytest.raises(ValueError, match="p >= 0"):
            circles.log_means(-0.5)
        assert np.all(np.isfinite(circles.log_means(0.0)))


def test_growth_table_node_counts_are_pinned():
    # per table: 3 circles of 34 panels, and 3 bands whose radial nodes carry
    # 26,880 circle panels; the inner half of each band off the center is
    # INNER_PANELS uniform panels, 40 radial nodes where grading took 190
    for f in CATALOG:
        table = NodeTable(f)
        bands = table._bands
        assert table._circles.width.size == 102
        assert sum(band.s.size for band in bands) == 980
        assert sum(band.circles.width.size for band in bands) == 26_880
        assert all(np.all(c.log_f <= 0.0) for c in (table._circles, *(b.circles for b in bands)))


def _graded_band_rule(band):
    """Radial nodes and weights of a band graded toward both of its ends."""
    s_lo, s_hi = band
    half = 0.5 * (s_hi - s_lo)
    t_lo, width_lo = _graded_rule(np.array([[s_lo]]), half)
    t_hi, width_hi = _graded_rule(np.array([[s_hi]]), half)
    s = np.concatenate([s_lo + t_lo[0], s_hi - t_hi[0]])
    return s, np.concatenate([_gl_weights(width_lo)[0], _gl_weights(width_hi)[0]])


def test_uniform_inner_halves_match_the_graded_bands():
    # the half of a band toward an inner end s_hi < 1 holds nothing singular,
    # so its uniform panels agree with grading it toward s_hi as well
    for f in CATALOG:
        table = NodeTable(f)
        for p in (0.5, 2.5, 7.9):
            graded = []
            for band in _bands(BERGMAN_GAPS):
                s, w = _graded_band_rule(band)
                log_means = _reference_log_means(f, s, p, function_norms.RADIAL_BLOCK)
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
        assert one_circle_log_mean(cayley(), 2.0, r) == pytest.approx(math.log(expected), abs=1e-10)


def test_means_match_high_precision_references():
    # 40-digit mpmath integrals of the same cancellation-free integrands; the
    # last is exp-cayley's peak at gap 1e-10, about 2.5e-6 gaps wide, whose
    # log near 1.6e11 resolves only to one ulp (3e-5)
    cases = (
        (one_circle_log_mean(exp_cayley(), 1 / 32, 1 - 1e-4), 613.11317670270873),
        (hardy_growth_profile(cayley(), 1.5).log_values[-1], 14.209746761257510),
        (hardy_growth_profile(exp_cayley(), 8.0).log_values[-1], 159999999956.64728836),
    )
    for got, ref in cases:
        assert abs(got - ref) <= 1e-8 + math.ulp(ref), ref


def test_circle_means_match_adaptive_quadrature():
    for f in CATALOG:
        for p in (0.5, 1.0, 2.0, 4.0):
            for gap in (1e-1, 1e-4, 1e-7):
                r = 1.0 - gap
                ref = quad_log_mean(f, p, 1.0 - r)
                # a log value near 8e7 (exp-cayley at gap 1e-7) resolves only ~1.5e-8
                tol = CIRCLE_REL_TOL + math.ulp(ref)
                assert abs(one_circle_log_mean(f, p, r) - ref) <= tol, (f, p, gap)


def test_identity_means_exact():
    for p in (0.5, 1.0, 3.0):
        for r in (0.2, 0.8):
            assert one_circle_log_mean(identity_map(), p, r) == pytest.approx(
                math.log(TWO_PI) + p * math.log(r), abs=1e-10
            )


def test_sector_power_mean_is_cayley_power_mean():
    # |cayley^beta|^p = |cayley|^(beta*p) pointwise, so the means coincide
    for beta in (0.5, 1.0, 2.0):
        for p in (1.0, 2.0):
            for r in (0.4, 0.9, 1.0 - 1e-7):
                lhs = one_circle_log_mean(sector_power(beta), p, r)
                rhs = one_circle_log_mean(cayley(), beta * p, r)
                assert lhs == pytest.approx(rhs, abs=1e-8)


def test_means_monotone_in_radius():
    radii = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    for f in (cayley(), sector_power(0.5), identity_map(), exp_cayley()):
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
        got = one_band_log_integral(cayley(), 2.0, 0.0, delta)
        assert got == pytest.approx(math.log(expected), abs=1e-8)


def test_area_band_matches_adaptive_quadrature():
    # exp-cayley's area integrand is a boundary layer of width ~delta^2 at |z| = 1 - delta
    f, delta = exp_cayley(), 1e-3
    log_h = lambda s: quad_log_mean(f, 1.0, s) + math.log(1.0 - s)
    shift = log_h(delta)
    breaks = [delta + delta * 10.0**k for k in range(-6, 2)]
    val = quad(lambda s: math.exp(log_h(s) - shift), delta, 1.0, points=breaks,
               epsrel=1e-9, epsabs=0.0, limit=500)[0]
    ref = shift + math.log(val)
    assert one_band_log_integral(f, 1.0, 0.0, delta) == pytest.approx(ref, abs=AREA_REL_TOL)


def test_identity_weighted_area_integral():
    # integral of |z| (1 - |z|^2) over the unit disk is 4 pi / 15
    got = one_band_log_integral(identity_map(), 1.0, 1.0, 1e-8)
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
                got = one_band_log_integral(identity_map(), p, alpha, delta)
                assert abs(math.expm1(got - ref)) <= AREA_REL_TOL, (p, alpha, delta)


def test_exp_cayley_truncations_blow_up():
    # the weighted area integral grows without bound as the rim is approached
    f = exp_cayley()
    levels = [one_band_log_integral(f, 1.0, 0.0, d) for d in (1e-1, 1e-2, 1e-3)]
    assert levels[1] - levels[0] > math.log(10.0)
    assert levels[2] - levels[1] > math.log(10.0)


# ---- growth classification --------------------------------------------------------


def test_hardy_growth_classification_brackets_critical_exponent():
    cay, half = NodeTable(cayley()), NodeTable(sector_power(0.5))
    assert hardy_growth_profile(cay, 0.9).classification == "bounded"
    assert hardy_growth_profile(cay, 1.1).classification == "unbounded"
    assert hardy_growth_profile(half, 1.8).classification == "bounded"
    assert hardy_growth_profile(half, 2.2).classification == "unbounded"


def test_bergman_growth_classification_brackets_critical_exponent():
    cay = NodeTable(cayley())
    assert bergman_growth_profile(cay, 1.8, 0.0).classification == "bounded"
    assert bergman_growth_profile(cay, 2.2, 0.0).classification == "unbounded"
    # the weight shifts the critical exponent proportionally
    assert bergman_growth_profile(cay, 2.7, 1.0).classification == "bounded"
    assert bergman_growth_profile(cay, 3.3, 1.0).classification == "unbounded"


def test_growth_profile_shape():
    profile = hardy_growth_profile(cayley(), 0.9)
    assert len(profile.log_values) == len(profile.gaps)
    assert len(profile.slopes) == len(profile.gaps) - 1
    assert profile.classification in {"bounded", "unbounded", "inconclusive"}


def test_bounded_function_bounded_at_every_exponent():
    table = NodeTable(identity_map())
    for p in (0.5, 4.0):
        assert hardy_growth_profile(table, p).classification == "bounded"
        assert bergman_growth_profile(table, p, 0.0).classification == "bounded"


def test_exp_cayley_unbounded_at_every_exponent():
    table = NodeTable(exp_cayley())
    for p in (0.5, 2.0):
        assert hardy_growth_profile(table, p).classification == "unbounded"
        assert bergman_growth_profile(table, p, 0.0).classification == "unbounded"


def test_growth_probes_stop_at_p_max(monkeypatch):
    # the classifier is calibrated on the exponents empirical_hb bisects:
    # above P_MAX the identity map's slow approach to its limit read as
    # divergence, so a probe there fails before any table is built
    table = NodeTable(identity_map())
    assert hardy_growth_profile(table, P_MAX).classification == "bounded"
    assert bergman_growth_profile(table, P_MAX, 1.0).classification == "bounded"

    class NoTable(NodeTable):
        def __init__(self, f):
            raise AssertionError("a growth probe built a table before checking its exponent")

    monkeypatch.setattr(function_norms, "NodeTable", NoTable)
    for p in (P_MAX + 0.5, 1e5, 1e300):
        with pytest.raises(ValueError, match="P_MAX"):
            hardy_growth_profile(identity_map(), p)
        with pytest.raises(ValueError, match="P_MAX"):
            bergman_growth_profile(identity_map(), p, 1.0)


# ---- empirical exponents -------------------------------------------------------------


def test_empirical_brackets_are_pinned():
    # the brackets of every catalog function, as the per-probe quadrature gave them
    expected = {
        "cayley": ((0.96875, 1.0), (0.96875, 1.0)),
        "sector_power_half": ((1.96875, 2.0), (1.96875, 2.0)),
        "exp_cayley": ((0.0, 0.03125), (0.0, 0.03125)),
        "identity": ((8.0, math.inf), (4.0, math.inf)),
    }
    for name, f in zip(expected, CATALOG):
        for source in (f, NodeTable(f)):
            result = empirical_hb(source)
            assert (result.h_bracket, result.b_bracket) == expected[name], name


def test_empirical_exponents_cayley():
    result = empirical_hb(cayley())
    assert result.h_hat == pytest.approx(1.0, abs=0.05)
    assert result.b_hat == pytest.approx(1.0, abs=0.05)
    assert result.h_hat <= result.b_hat + 0.05
    assert abs(result.h_hat - result.b_hat) <= 0.1
    lo, hi = result.h_bracket
    assert lo <= result.h_hat <= hi


def test_empirical_exponents_bounded_function_infinite():
    result = empirical_hb(identity_map())
    assert result.h_hat == math.inf
    assert result.b_hat == math.inf


def test_empirical_exponents_exp_cayley_zero():
    result = empirical_hb(exp_cayley())
    assert result.h_hat == 0.0
    assert result.b_hat == 0.0


def test_empirical_exponent_matches_image_domain_estimate():
    f = cayley()
    d = f.image_domain()
    domain_side = estimate_hardy_number(oracle_profile(d, default_grid(d))).value
    assert abs(empirical_hb(f).h_hat - domain_side) <= 0.15
