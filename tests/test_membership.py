"""Space-membership classification from fitted decay exponents."""

import math

import numpy as np
import pytest

from hardynum import (
    DecayFit,
    DecayProfile,
    HalfPlane,
    MembershipQuery,
    ProfileEntry,
    TooFewPoints,
    ZeroMeasure,
    classify_bergman,
    classify_hardy,
    default_grid,
    fit_decay,
    oracle_profile,
)
from hardynum.membership import DEFAULT_MARGIN


def power_profile(q, amp=1.0, radii=None, source="oracle", stderr_rel=0.0):
    radii = radii if radii is not None else [2.0 * 2**k for k in range(10)]
    entries = tuple(
        ProfileEntry(r, amp * r**-q, stderr=stderr_rel * amp * r**-q) for r in radii
    )
    return DecayProfile(entries=entries, source=source, domain_regular=True,
                        domain_bounded=False, boundary_sup=math.inf)


# ---- fitting -------------------------------------------------------------


def test_fit_exact_on_power_law():
    fit = fit_decay(power_profile(q=1.5, amp=0.9))
    assert fit.q == pytest.approx(1.5, rel=1e-12)
    assert fit.log_intercept == pytest.approx(-math.log(0.9), abs=1e-12)
    assert fit.residual < 1e-10
    assert fit.n_points == 5
    assert fit.fit_range == (2.0 * 2**5, 2.0 * 2**9)


def test_fit_window_controls_points():
    fit = fit_decay(power_profile(q=1.0), tail_window=2)
    assert fit.n_points == 3


def test_fit_rejects_degenerate_profiles():
    # a bounded domain's tail is empty beyond its boundary: omega decays
    # faster than any power
    zeros = tuple(ProfileEntry(r, 0.0) for r in (2.0, 4.0, 8.0))
    profile = DecayProfile(entries=zeros, source="oracle", domain_regular=True,
                           domain_bounded=True, boundary_sup=1.0)
    fit = fit_decay(profile)
    assert fit.q == math.inf and fit.log_intercept == math.inf
    assert classify_hardy(fit, MembershipQuery(2.5)).verdict == "member"

    one = DecayProfile(
        entries=(ProfileEntry(2.0, 0.5), ProfileEntry(4.0, 0.0)),
        source="oracle", domain_regular=True, domain_bounded=True, boundary_sup=3.0,
    )
    assert fit_decay(one).q == math.inf

    # the same empty tail on a non-regular domain (a disk exterior) is no decay rate
    non_regular = DecayProfile(entries=zeros, source="monte_carlo", domain_regular=False,
                               domain_bounded=False, boundary_sup=1.0)
    with pytest.raises(ZeroMeasure):
        fit_decay(non_regular)

    unexplained = DecayProfile(entries=zeros, source="monte_carlo", domain_regular=True,
                               domain_bounded=False, boundary_sup=math.inf)
    with pytest.raises(ZeroMeasure):
        fit_decay(unexplained)

    single = DecayProfile(
        entries=(ProfileEntry(2.0, 0.5, 0.01), ProfileEntry(4.0, 0.0)),
        source="monte_carlo", domain_regular=True, domain_bounded=False, boundary_sup=math.inf,
    )
    with pytest.raises(TooFewPoints):
        fit_decay(single)


def test_fit_ignores_noisy_monte_carlo_tail():
    radii = [2.0 * 2**k for k in range(10)]
    entries = []
    for i, r in enumerate(radii):
        omega = r**-2.0
        rel = 0.01 if i < 6 else 0.8
        entries.append(ProfileEntry(r, omega, stderr=rel * omega))
    profile = DecayProfile(entries=tuple(entries), source="monte_carlo",
                           domain_regular=True, domain_bounded=False,
                           boundary_sup=math.inf)
    fit = fit_decay(profile, tail_window=4)
    assert fit.fit_range == (radii[1], radii[5])
    assert fit.q == pytest.approx(2.0, rel=1e-9)


# ---- query validation -------------------------------------------------------


def test_query_validation():
    MembershipQuery(1.0)
    MembershipQuery(1.0, alpha=-0.5)
    with pytest.raises(ValueError):
        MembershipQuery(0.0)
    with pytest.raises(ValueError):
        MembershipQuery(-1.0)
    with pytest.raises(ValueError):
        MembershipQuery(1.0, alpha=-1.0)
    for p, alpha in ((math.inf, None), (math.nan, None), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            MembershipQuery(p, alpha=alpha)


def test_bergman_query_needs_alpha():
    fit = fit_decay(power_profile(q=1.0))
    with pytest.raises(ValueError):
        classify_bergman(fit, MembershipQuery(1.0))


# ---- verdicts -----------------------------------------------------------------


def halfplane_fit():
    d = HalfPlane(1.0)
    return fit_decay(oracle_profile(d, default_grid(d)))


def test_hardy_verdicts_on_halfplane():
    fit = halfplane_fit()
    member = classify_hardy(fit, MembershipQuery(0.5))
    assert member.verdict == "member"
    assert member.rationale == "decay_sufficient"
    assert member.query_ratio == 0.5

    out = classify_hardy(fit, MembershipQuery(2.0))
    assert out.verdict == "not_member"
    assert out.rationale == "integral_diverges"

    near = classify_hardy(fit, MembershipQuery(1.0))
    assert near.verdict == "inconclusive"
    assert near.rationale == "near_critical"
    assert abs(near.critical_ratio - 1.0) < 0.05


def test_bergman_verdicts_on_halfplane():
    fit = halfplane_fit()
    member = classify_bergman(fit, MembershipQuery(1.5, alpha=0.0))
    assert member.verdict == "member"
    assert member.rationale == "embedding_sufficient"
    assert member.query_ratio == pytest.approx(0.75)

    out = classify_bergman(fit, MembershipQuery(3.0, alpha=0.0))
    assert out.verdict == "not_member"


def test_margin_boundaries():
    fit = DecayFit(q=1.0, log_intercept=0.0, residual=0.0,
                   fit_range=(2.0, 32.0), n_points=5, stderr=0.0)
    assert classify_hardy(fit, MembershipQuery(0.94)).verdict == "member"
    assert classify_hardy(fit, MembershipQuery(0.96)).verdict == "inconclusive"
    assert classify_hardy(fit, MembershipQuery(1.04)).verdict == "inconclusive"
    assert classify_hardy(fit, MembershipQuery(1.06)).verdict == "not_member"
    assert classify_hardy(fit, MembershipQuery(1.06)).margin == DEFAULT_MARGIN == 0.05


def test_hardy_bergman_coherence():
    # scaling p by alpha + 2 keeps the critical ratio, hence the verdict
    fit = halfplane_fit()
    for p in (0.3, 0.7, 0.99, 1.3, 2.5):
        hardy = classify_hardy(fit, MembershipQuery(p))
        for alpha in (-0.5, 0.0, 1.0, 3.0):
            bergman = classify_bergman(fit, MembershipQuery(p * (alpha + 2.0), alpha=alpha))
            assert bergman.verdict == hardy.verdict, (p, alpha)


def test_embedding_direction_never_contradicted():
    # Hardy membership at p0 with p/(alpha+2) <= p0 <= p forbids Bergman rejection
    fit = halfplane_fit()
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 50:
        p0 = rng.uniform(0.05, 3.0)
        if classify_hardy(fit, MembershipQuery(p0)).verdict != "member":
            continue
        alpha = rng.uniform(-0.9, 3.0)
        p = rng.uniform(p0, p0 * (alpha + 2.0))
        verdict = classify_bergman(fit, MembershipQuery(p, alpha=alpha)).verdict
        assert verdict != "not_member", (p0, p, alpha)
        checked += 1
