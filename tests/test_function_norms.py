"""Integral means, area integrals, and growth classification on the catalog."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

from hardynum import (
    HalfPlane,
    Sector,
    UnsupportedImage,
    bergman_growth_profile,
    cayley,
    default_grid,
    empirical_hb,
    estimate_hardy_number,
    exp_cayley,
    hardy_growth_profile,
    identity_map,
    log_bergman_integral,
    log_hardy_mean,
    oracle_profile,
    sector_power,
)
from hardynum import function_norms, identities
from hardynum.function_norms import (
    AREA_REL_TOL,
    BERGMAN_GAPS,
    CIRCLE_REL_TOL,
    NodeTable,
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


def quad_log_mean(f, p, s):
    """log circle integral of |f|^p by adaptive quadrature of exp(g - max g),
    with breaks at the peak scales s * 10^k."""
    breaks = sorted({min(s * 10.0**k, 0.5 * math.pi) for k in range(-6, 5)})
    g = lambda t: p * log_modulus_f(f, s, t)
    shift = max(g(t) for t in [0.0, math.pi] + breaks)
    val = quad(lambda t: math.exp(g(t) - shift), 0.0, math.pi, points=breaks,
               epsrel=1e-9, epsabs=0.0, limit=500)[0]
    return shift + math.log(2.0 * val)


# ---- change of variable: disk-side area integral vs image-plane Green integral


def _green_log_weight(s):
    """(1-s) from the area Jacobian times the Green weight log 1/r, r = 1 - s."""
    return np.log(1.0 - s) + np.log(-np.log1p(-s))


def _quad(fn, a, b, rel, points=None, limit=800) -> float:
    val, err, info, *rest = quad(fn, a, b, epsrel=rel, epsabs=0.0, limit=limit,
                                 points=points, full_output=1)
    if rest and err > 100.0 * rel * max(abs(val), 1e-300):
        pytest.fail(f"quadrature did not converge: {rest[0]}")
    return val


def change_of_variable_check(f, p, delta):
    """Both sides of the Green-function change of variable for the truncated
    region |z| <= 1 - delta, for univalent catalog maps with unbounded image.

    Left side: area integral over the disk region of |f|^(p-2) |f'|^2 log(1/|z|),
    by the package's rule (a NodeTable band integral).
    Right side: area integral over the image of the region of |w|^(p-2) times
    the Green's function of the image with pole at f(0), written in the
    Cayley coordinate u = (1+z)/(1-z) (where w = u^beta) so one formula
    covers every opening. The image of |z| <= R = 1 - delta under the Cayley
    map is the disk |u - c| <= rho with c = (1+R^2)/(1-R^2) and
    rho = 2R/(1-R^2); there the Green factor is the half-plane one,
    log|(u+1)/(u-1)|, and dA(w) = beta^2 |u|^(2 beta - 2) dA(u). In polar
    coordinates u = 1 + s e^{i phi} around the pole,

        rhs = 2 beta^2 * integral over phi in [0, pi] of
              integral over s in [0, s_max(phi)] of
              |u|^(beta p - 2) * log|(u+1)/(u-1)| * s ds dphi,

    where s_max(phi) reaches the boundary circle and the factor 2 (with
    phi in [0, pi] only) comes from the symmetry phi <-> -phi of the
    integrand and of the disk. The right side is integrated by adaptive scipy
    quadrature to AREA_REL_TOL, an independent route to the same number.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if not f.univalent:
        raise UnsupportedImage("change of variable needs a univalent map")
    if f.kind == "identity":
        raise UnsupportedImage("image is bounded; no Green integral to compare against")
    beta = f.beta if f.kind == "sector_power" else 1.0

    band = (delta, 1.0)
    lhs_log = NodeTable(f, bands=[band], derivative=True).log_band_integral(
        band, p - 2.0, 2.0, _green_log_weight)
    lhs = math.exp(lhs_log) if lhs_log > -math.inf else 0.0

    big_r = 1.0 - delta
    c = (1.0 + big_r**2) / (1.0 - big_r**2)
    rho = 2.0 * big_r / (1.0 - big_r**2)
    d = c - 1.0
    power = beta * p - 2.0

    def s_max(phi):
        disc = rho * rho - (d * math.sin(phi)) ** 2
        return d * math.cos(phi) + math.sqrt(max(disc, 0.0))

    def inner(phi):
        cos_phi = math.cos(phi)
        top = s_max(phi)

        def integrand(s):
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
    # dyadic gaps, so that 1 - (1 - gap) == gap and log_hardy_mean sees the
    # very circles of the table
    gaps = (2.0**-14, 2.0**-24, 2.0**-34)
    for f in CATALOG:
        table = NodeTable(f, gaps)
        growth = NodeTable.for_growth(f)
        for p, alpha in ((2.5, 1.0), (0.5, 0.0), (2.5, 1.0)):  # the repeat catches a mutated table
            for gap, v in zip(gaps, hardy_growth_profile(table, p, gaps).log_values):
                ref = log_hardy_mean(f, p, 1.0 - gap)
                assert abs(v - ref) <= 1e-13 * abs(ref), (f, p, gap)
            assert hardy_growth_profile(growth, p) == hardy_growth_profile(f, p)
            profile = bergman_growth_profile(growth, p, alpha)
            assert profile == bergman_growth_profile(f, p, alpha)
            # the outermost gap is one band on both sides; inner gaps sum
            # bands, which agree with one long band to the rule's accuracy
            for gap, v in zip(BERGMAN_GAPS, profile.log_values):
                ref = log_bergman_integral(f, p, alpha, gap)
                tol = 1e-13 if gap == max(BERGMAN_GAPS) else AREA_REL_TOL
                assert abs(v - ref) <= tol * abs(ref), (f, p, alpha, gap)


def test_table_holds_only_its_own_nodes():
    table = NodeTable(cayley(), gaps=(1e-3,), bands=[(1e-3, 1.0)])
    with pytest.raises(ValueError):
        table.log_circle_means((1e-4,), 1.0)
    with pytest.raises(ValueError):
        table.log_band_integral((1e-4, 1.0), 1.0, 0.0, lambda s: 0.0 * s)
    with pytest.raises(ValueError):  # no log|f'| without derivative=True
        table.log_circle_means((1e-3,), 1.0, 2.0)


# ---- circle means ------------------------------------------------------------


def test_cayley_second_mean_closed_form():
    # integral of |(1+z)/(1-z)|^2 over the circle of radius r is
    # 2*pi*(1 + 4 r^2 / (1 - r^2))
    for r in (0.1, 0.5, 0.9, 0.999, 0.9999):
        expected = TWO_PI * (1.0 + 4.0 * r * r / (1.0 - r * r))
        assert log_hardy_mean(cayley(), 2.0, r) == pytest.approx(math.log(expected), abs=1e-10)


def test_means_match_high_precision_references():
    # 40-digit mpmath integrals of the same cancellation-free integrands; the
    # last is exp-cayley's peak at gap 1e-10, about 2.5e-6 gaps wide, whose
    # log near 1.6e11 resolves only to one ulp (3e-5)
    cases = (
        (log_hardy_mean(exp_cayley(), 1 / 32, 1 - 1e-4), 613.11317670270873),
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
                assert abs(log_hardy_mean(f, p, r) - ref) <= tol, (f, p, gap)


def test_identity_means_exact():
    for p in (0.5, 1.0, 3.0):
        for r in (0.2, 0.8):
            assert log_hardy_mean(identity_map(), p, r) == pytest.approx(
                math.log(TWO_PI) + p * math.log(r), abs=1e-10
            )


def test_mean_at_center_is_point_value():
    assert log_hardy_mean(cayley(), 2.0, 0.0) == pytest.approx(math.log(TWO_PI), abs=1e-12)
    assert log_hardy_mean(exp_cayley(), 1.0, 0.0) == pytest.approx(math.log(TWO_PI) + 1.0,
                                                                   abs=1e-12)


def test_sector_power_mean_is_cayley_power_mean():
    # |cayley^beta|^p = |cayley|^(beta*p) pointwise, so the means coincide
    for beta in (0.5, 1.0, 2.0):
        for p in (1.0, 2.0):
            for r in (0.4, 0.9, 1.0 - 1e-7):
                lhs = log_hardy_mean(sector_power(beta), p, r)
                rhs = log_hardy_mean(cayley(), beta * p, r)
                assert lhs == pytest.approx(rhs, abs=1e-8)


def test_means_monotone_in_radius():
    radii = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    for f in (cayley(), sector_power(0.5), identity_map(), exp_cayley()):
        for p in (0.5, 2.0):
            vals = [log_hardy_mean(f, p, r) for r in radii]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:])), (f, p)


def test_mean_parameter_validation():
    with pytest.raises(ValueError):
        log_hardy_mean(cayley(), -1.0, 0.5)
    with pytest.raises(ValueError):
        log_hardy_mean(cayley(), math.nan, 0.5)
    with pytest.raises(ValueError):
        log_hardy_mean(cayley(), 1.0, 1.0)
    with pytest.raises(ValueError):
        log_hardy_mean(cayley(), 1.0, -0.1)


# ---- area integrals ------------------------------------------------------------


def test_cayley_bergman_closed_form():
    # integral of |(1+z)/(1-z)|^2 over |z| <= R is
    # 2*pi*(-3 R^2 / 2 - 2 log(1 - R^2))
    for delta in (0.5, 0.2, 0.05, 1e-4):
        radius = 1.0 - delta
        expected = TWO_PI * (-1.5 * radius**2 - 2.0 * math.log(1.0 - radius**2))
        got = log_bergman_integral(cayley(), 2.0, 0.0, delta)
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
    assert log_bergman_integral(f, 1.0, 0.0, delta) == pytest.approx(ref, abs=AREA_REL_TOL)


def test_identity_weighted_area_integral():
    # integral of |z| (1 - |z|^2) over the unit disk is 4 pi / 15
    got = log_bergman_integral(identity_map(), 1.0, 1.0, 1e-8)
    assert got == pytest.approx(math.log(4.0 * math.pi / 15.0), abs=1e-5)


def test_exp_cayley_truncations_blow_up():
    # the weighted area integral grows without bound as the rim is approached
    f = exp_cayley()
    levels = [log_bergman_integral(f, 1.0, 0.0, d) for d in (1e-1, 1e-2, 1e-3)]
    assert levels[1] - levels[0] > math.log(10.0)
    assert levels[2] - levels[1] > math.log(10.0)


def test_area_parameter_validation():
    with pytest.raises(ValueError):
        log_bergman_integral(cayley(), 1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        log_bergman_integral(cayley(), 1.0, math.nan, 0.1)
    with pytest.raises(ValueError):
        log_bergman_integral(cayley(), math.nan, 0.0, 0.1)
    with pytest.raises(ValueError):
        log_bergman_integral(cayley(), 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        log_bergman_integral(cayley(), 1.0, 0.0, 1.0)


def test_change_of_variable_two_routes_agree():
    for f in (cayley(), sector_power(0.5)):
        for delta in (0.5, 1e-2, 1e-3):
            lhs, rhs = change_of_variable_check(f, 0.5, delta)
            assert rhs == pytest.approx(lhs, rel=1e-5), (f, delta)


def test_change_of_variable_needs_univalent_unbounded_image():
    with pytest.raises(UnsupportedImage):
        change_of_variable_check(exp_cayley(), 0.5, 0.1)
    with pytest.raises(UnsupportedImage):
        change_of_variable_check(identity_map(), 0.5, 0.1)


# ---- growth classification --------------------------------------------------------


def test_hardy_growth_classification_brackets_critical_exponent():
    assert hardy_growth_profile(cayley(), 0.9).classification == "bounded"
    assert hardy_growth_profile(cayley(), 1.1).classification == "unbounded"
    assert hardy_growth_profile(sector_power(0.5), 1.8).classification == "bounded"
    assert hardy_growth_profile(sector_power(0.5), 2.2).classification == "unbounded"


def test_bergman_growth_classification_brackets_critical_exponent():
    assert bergman_growth_profile(cayley(), 1.8, 0.0).classification == "bounded"
    assert bergman_growth_profile(cayley(), 2.2, 0.0).classification == "unbounded"
    # the weight shifts the critical exponent proportionally
    assert bergman_growth_profile(cayley(), 2.7, 1.0).classification == "bounded"
    assert bergman_growth_profile(cayley(), 3.3, 1.0).classification == "unbounded"


def test_growth_profile_shape():
    profile = hardy_growth_profile(cayley(), 0.9)
    assert len(profile.log_values) == len(profile.gaps)
    assert len(profile.slopes) == len(profile.gaps) - 1
    assert profile.classification in {"bounded", "unbounded", "inconclusive"}


def test_bounded_function_bounded_at_every_exponent():
    for p in (0.5, 4.0):
        assert hardy_growth_profile(identity_map(), p).classification == "bounded"
        assert bergman_growth_profile(identity_map(), p, 0.0).classification == "bounded"


def test_exp_cayley_unbounded_at_every_exponent():
    for p in (0.5, 2.0):
        assert hardy_growth_profile(exp_cayley(), p).classification == "unbounded"
        assert bergman_growth_profile(exp_cayley(), p, 0.0).classification == "unbounded"


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
        for source in (f, NodeTable.for_growth(f)):
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
