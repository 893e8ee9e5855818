"""Decay-exponent estimator: synthetic exactness, oracle targets, warnings."""

import math

import numpy as np
import pytest

from hardynum import (
    DecayProfile,
    Disk,
    DiskExterior,
    HalfPlane,
    ProfileEntry,
    Sector,
    TooFewPoints,
    WosConfig,
    affine_image,
    default_grid,
    estimate_hardy_number,
    estimate_profile,
    fit_decay,
    oracle_profile,
)
from hardynum.hardy_estimator import (
    UNRELIABLE_RATIO,
    WARN_BOUNDED,
    WARN_NON_REGULAR,
    WARN_UNTERMINATED,
    WARN_ZERO_TAIL,
)


def power_law_profile(q, amp=1.0, n_walks=None):
    """omega = amp * r**-q on 2 * 2**k; with n_walks, the binomial standard
    errors of that many shared walks."""
    omegas = [(r, amp * r**-q) for r in (2.0 * 2**k for k in range(10))]
    entries = tuple(
        ProfileEntry(r=r, omega=w, stderr=math.sqrt(w * (1.0 - w) / n_walks) if n_walks else 0.0)
        for r, w in omegas
    )
    return DecayProfile(
        entries=entries,
        source="monte_carlo" if n_walks else "oracle",
        domain_regular=True,
        domain_bounded=False,
        boundary_sup=math.inf,
    )


# ---- profile construction ---------------------------------------------------


def test_profile_requires_increasing_radii():
    with pytest.raises(ValueError):
        DecayProfile(
            entries=(ProfileEntry(4.0, 0.5), ProfileEntry(2.0, 0.9)),
            source="oracle",
        )


def test_oracle_profile_must_be_monotone():
    with pytest.raises(ValueError):
        DecayProfile(
            entries=(ProfileEntry(2.0, 0.1), ProfileEntry(4.0, 0.5)),
            source="oracle",
        )


def test_entries_must_be_probabilities():
    with pytest.raises(ValueError):
        DecayProfile(entries=(ProfileEntry(2.0, 1.5),), source="oracle")


# ---- synthetic exactness -------------------------------------------------------


def test_estimator_recovers_exponent_exactly_for_any_window():
    for q in (0.5, 1.0, 2.0, 3.25):
        profile = power_law_profile(q=q, amp=0.7)
        for window in (1, 2, 4, 6):
            est = estimate_hardy_number(profile, tail_window=window)
            assert est.value == pytest.approx(q, rel=1e-12)
            assert est.warnings == ()
            assert est.tail_window == window


# ---- oracle-profile targets --------------------------------------------------


def test_halfplane_oracle_estimate_near_one():
    d = HalfPlane(1.0)
    est = estimate_hardy_number(oracle_profile(d, default_grid(d)))
    assert est.value == pytest.approx(1.0, abs=1e-3)


def test_sector_oracle_estimates():
    d = Sector(math.pi / 2, 1.0)
    est = estimate_hardy_number(oracle_profile(d, default_grid(d)))
    assert est.value == pytest.approx(2.0, abs=1e-3)

    slit = Sector(2 * math.pi, 1.0)
    est = estimate_hardy_number(oracle_profile(slit, default_grid(slit)))
    assert est.value == pytest.approx(0.5, abs=1e-3)


def test_narrower_sector_has_larger_exponent():
    openings = [math.pi / 3, math.pi / 2, math.pi, 1.5 * math.pi, 2 * math.pi]
    values = []
    for opening in openings:
        d = Sector(opening, 1.0)
        values.append(estimate_hardy_number(oracle_profile(d, default_grid(d))).value)
    for narrow, wide in zip(values, values[1:]):
        assert narrow >= wide - 0.01


def test_affine_invariance_on_oracle_profiles():
    pairs = [
        (HalfPlane(1.0), affine_image(HalfPlane(1.0), 3.0, 1.5j)),
        (Sector(math.pi / 2, 1.0), affine_image(Sector(math.pi / 2, 1.0), 0.5, 0.0)),
    ]
    for d, img in pairs:
        a = estimate_hardy_number(oracle_profile(d, default_grid(d))).value
        b = estimate_hardy_number(oracle_profile(img, default_grid(img))).value
        assert abs(a - b) <= 0.05


def test_simply_connected_estimates_at_least_half():
    domains = [HalfPlane(1.0), Sector(math.pi / 2), Sector(math.pi), Sector(2 * math.pi)]
    for d in domains:
        est = estimate_hardy_number(oracle_profile(d, default_grid(d)))
        assert est.value >= 0.5 - 0.1


# ---- zero-measure handling ---------------------------------------------------


def test_bounded_domain_reports_infinity():
    d = Disk(1.0, basepoint=0.0)
    est = estimate_hardy_number(oracle_profile(d, default_grid(d)))
    assert est.value == math.inf
    assert WARN_BOUNDED in est.warnings
    assert WARN_ZERO_TAIL in est.warnings
    assert est.warnings.index(WARN_BOUNDED) < est.warnings.index(WARN_ZERO_TAIL)


def test_non_regular_domain_reports_infinity():
    d = DiskExterior(1.0)
    est = estimate_hardy_number(oracle_profile(d, default_grid(d)))
    assert est.value == math.inf
    assert WARN_NON_REGULAR in est.warnings
    assert WARN_ZERO_TAIL in est.warnings


def test_all_zero_monte_carlo_profile_without_domain_cause():
    entries = tuple(ProfileEntry(r, 0.0) for r in (2.0, 4.0, 8.0, 16.0, 32.0))
    profile = DecayProfile(entries=entries, source="monte_carlo",
                           domain_regular=True, domain_bounded=False,
                           boundary_sup=math.inf)
    est = estimate_hardy_number(profile)
    assert est.value == math.inf
    assert est.warnings == (WARN_ZERO_TAIL,)


def test_sampling_zero_is_dropped_not_infinite():
    # one empty-count radius inside an otherwise clean power law
    radii = [2.0 * 2**k for k in range(9)]
    entries = []
    for r in radii:
        omega = 0.0 if r == 64.0 else r**-1.0
        entries.append(ProfileEntry(r, omega, stderr=0.01 * omega))
    profile = DecayProfile(entries=tuple(entries), source="monte_carlo",
                           domain_regular=True, domain_bounded=False,
                           boundary_sup=math.inf)
    est = estimate_hardy_number(profile)
    assert est.value == pytest.approx(1.0, rel=1e-9)
    assert est.warnings == ()


def test_structural_zero_past_boundary_sup_is_infinite():
    # for a bounded boundary, omega = 0 past its outer modulus is exact
    entries = (ProfileEntry(2.0, 0.0), ProfileEntry(4.0, 0.0))
    profile = DecayProfile(entries=entries, source="monte_carlo",
                           domain_regular=False, domain_bounded=False,
                           boundary_sup=1.0)
    est = estimate_hardy_number(profile, tail_window=1)
    assert est.value == math.inf
    assert est.warnings[0] == WARN_NON_REGULAR


# ---- noisy-tail trimming -----------------------------------------------------


def test_noisy_tail_is_trimmed_to_reliable_prefix():
    radii = [2.0 * 2**k for k in range(10)]
    entries = []
    for i, r in enumerate(radii):
        omega = r**-1.0
        rel = 0.01 if i < 6 else 1.0  # the last four radii are noise
        entries.append(ProfileEntry(r, omega, stderr=rel * omega))
    profile = DecayProfile(entries=tuple(entries), source="monte_carlo",
                           domain_regular=True, domain_bounded=False,
                           boundary_sup=math.inf)
    est = estimate_hardy_number(profile, tail_window=4)
    assert est.used_radii == (radii[1], radii[5])  # the fit window
    assert est.value == pytest.approx(1.0, rel=1e-9)


def test_trimming_keeps_minimum_window():
    # even an all-noisy profile keeps window+1 points rather than none
    radii = [2.0 * 2**k for k in range(6)]
    entries = tuple(ProfileEntry(r, r**-1.0, stderr=r**-1.0) for r in radii)
    profile = DecayProfile(entries=entries, source="monte_carlo",
                           domain_regular=True, domain_bounded=False,
                           boundary_sup=math.inf)
    est = estimate_hardy_number(profile, tail_window=3)
    assert est.used_radii == (radii[0], radii[3])


def test_ci_halfwidth_positive_for_noisy_profiles():
    # binomial errors; a constant relative error would shift every
    # log(omega) alike under the shared-walk covariance and leave the slope exact
    profile = power_law_profile(q=1.0, n_walks=100_000)
    est = estimate_hardy_number(profile)
    assert est.ci_halfwidth > 0.0
    assert est.ci_halfwidth == pytest.approx(1.96 * fit_decay(profile).stderr, rel=1e-12)


def test_ci_halfwidth_is_calibrated_across_seeds():
    # the reported 95% half-width matches the seed-to-seed spread of the
    # estimate and covers the oracle exponent at about its stated rate
    for d, q in ((HalfPlane(1.0), 1.0), (Sector(2 * math.pi, 1.0), 0.5)):
        grid = default_grid(d)
        ests = [estimate_hardy_number(estimate_profile(d, grid, WosConfig(20_000, seed=s)))
                for s in range(20)]
        values = np.array([e.value for e in ests])
        half = np.array([e.ci_halfwidth for e in ests])
        ratio = np.mean(half / 1.96) / np.std(values, ddof=1)
        assert 2.0 / 3.0 <= ratio <= 1.5, (d, ratio)
        assert np.count_nonzero(np.abs(values - q) <= half) >= 16, (d, values, half)


def test_unterminated_walks_are_flagged():
    # a 30-step budget leaves about half of the slit-plane walks running;
    # the survivors alone read q = 0.88 here against a true 0.5
    d = Sector(2 * math.pi, 1.0)
    profile = estimate_profile(d, default_grid(d), WosConfig(20_000, seed=0, max_steps=30))
    assert profile.n_samples == 20_000
    assert profile.n_unterminated > UNRELIABLE_RATIO * profile.n_samples
    assert WARN_UNTERMINATED in estimate_hardy_number(profile).warnings


# ---- validation ---------------------------------------------------------------


def test_too_few_points():
    profile = DecayProfile(entries=(ProfileEntry(2.0, 0.5),), source="oracle",
                           domain_regular=True, domain_bounded=False,
                           boundary_sup=math.inf)
    with pytest.raises(TooFewPoints):
        estimate_hardy_number(profile)


def test_window_must_be_positive():
    with pytest.raises(ValueError, match="tail_window must be >= 1"):
        estimate_hardy_number(power_law_profile(1.0), tail_window=0)
    with pytest.raises(ValueError, match="tail_window must be >= 1"):
        fit_decay(power_law_profile(1.0), tail_window=0)


def test_default_grid_shape():
    grid = default_grid(HalfPlane(1.0))
    assert grid[0] == 2.0
    assert len(grid) == 13
    assert grid[-1] == 2.0 * 2**12
    assert default_grid(HalfPlane(5.0))[0] == 10.0
