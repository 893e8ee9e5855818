"""Walk-on-spheres sampler: oracle agreement, determinism, edge cases."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardynum import (
    DegenerateDomain,
    Disk,
    DiskExterior,
    HalfPlane,
    Sector,
    TailQuery,
    WosConfig,
    affine_image,
    estimate_hm,
    estimate_profile,
    exact_hm,
)
from hardynum.wos import _exit_moduli, _jump, absorption_epsilon


def test_config_validation():
    with pytest.raises(ValueError):
        WosConfig(n_samples=0)
    with pytest.raises(ValueError):
        WosConfig(n_samples=100, chunk_size=0)
    with pytest.raises(ValueError):
        WosConfig(n_samples=100, max_steps=0)
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match="seed must lie in"):
            WosConfig(n_samples=100, seed=seed)
    assert WosConfig(n_samples=100, seed=2**64 - 1).seed == 2**64 - 1


def test_epsilon_defaults_scale_with_basepoint():
    assert absorption_epsilon(HalfPlane(1.0)) == pytest.approx(1e-6)
    assert absorption_epsilon(HalfPlane(100.0)) == pytest.approx(1e-4)


def test_halfplane_matches_oracle_within_four_sigma():
    d = HalfPlane(1.0)
    cfg = WosConfig(n_samples=100_000, seed=0)
    est = estimate_hm(d, TailQuery(10.0), cfg)
    truth = exact_hm(d, 10.0)
    assert est.n_unterminated == 0
    assert abs(est.value - truth) <= 4.0 * est.stderr


def test_sector_matches_oracle_within_four_sigma(fast_cfg):
    d = Sector(math.pi / 2, 1.0)
    est = estimate_hm(d, TailQuery(5.0), fast_cfg)
    truth = exact_hm(d, 5.0)
    assert abs(est.value - truth) <= 4.0 * est.stderr


def test_profile_monotone_exactly(fast_cfg):
    profile = estimate_profile(HalfPlane(1.0), [1.0, 2.0, 4.0, 8.0, 16.0], fast_cfg)
    omegas = profile.omegas()
    assert np.all(np.diff(omegas) <= 0.0)
    assert profile.source == "monte_carlo"
    assert profile.domain_regular is True
    assert profile.domain_bounded is False


def test_profile_entry_equals_single_radius_run(fast_cfg):
    # shared-walk profiles and one-off estimates reuse the same streams
    d = HalfPlane(1.0)
    profile = estimate_profile(d, [2.0, 8.0], fast_cfg)
    single = estimate_hm(d, TailQuery(8.0), fast_cfg)
    assert profile.entries[1].omega == single.value
    assert profile.entries[1].stderr == single.stderr


def test_bit_identical_across_chunk_sizes():
    d = HalfPlane(1.0)
    q = TailQuery(10.0)
    runs = [
        estimate_hm(d, q, WosConfig(n_samples=20_000, seed=5, chunk_size=c))
        for c in (20_000, 977, 3_000)
    ]
    assert len({(e.value, e.stderr, e.n_unterminated) for e in runs}) == 1


def test_different_seeds_differ():
    d = HalfPlane(1.0)
    q = TailQuery(4.0)
    a = estimate_hm(d, q, WosConfig(n_samples=5_000, seed=1))
    b = estimate_hm(d, q, WosConfig(n_samples=5_000, seed=2))
    assert a.value != b.value


def test_scale_invariance_real_factor(fast_cfg):
    # z -> 2z sends the tail past r to the tail past 2r
    d = HalfPlane(1.0)
    img = affine_image(d, 2.0, 0.0)
    a = estimate_hm(d, TailQuery(6.0), fast_cfg)
    b = estimate_hm(img, TailQuery(12.0), fast_cfg)
    assert abs(a.value - b.value) <= 4.0 * (a.stderr + b.stderr)


def test_scale_invariance_rotation(fast_cfg):
    # rotations keep moduli: wrapped-domain walks agree with the base domain
    d = HalfPlane(1.0)
    img = affine_image(d, 2.0j, 0.0)
    a = estimate_hm(d, TailQuery(6.0), fast_cfg)
    b = estimate_hm(img, TailQuery(12.0), fast_cfg)
    assert abs(a.value - b.value) <= 4.0 * (a.stderr + b.stderr)


def test_disk_exterior_tail_measure_is_zero(tiny_cfg):
    # every absorbed walk lands on the unit circle, inside any r > 1
    d = DiskExterior(1.0)
    for r in (1.5, 2.0, 10.0):
        est = estimate_hm(d, TailQuery(r), tiny_cfg)
        assert est.value == 0.0
        assert est.stderr == 0.0


def test_bounded_disk_step_values(tiny_cfg):
    d = Disk(1.0, basepoint=0.0)
    assert estimate_hm(d, TailQuery(0.5), tiny_cfg).value == 1.0
    assert estimate_hm(d, TailQuery(2.0), tiny_cfg).value == 0.0
    assert estimate_hm(d, TailQuery(2.0), tiny_cfg).n_unterminated == 0


def test_no_termination_raises():
    cfg = WosConfig(n_samples=100, seed=0, max_steps=1)
    with pytest.raises(DegenerateDomain):
        estimate_hm(HalfPlane(1.0), TailQuery(2.0), cfg)


def test_unterminated_walks_reported_not_hidden():
    # a tight step budget on the exterior domain leaves some walks running
    cfg = WosConfig(n_samples=500, seed=3, max_steps=50)
    est = estimate_hm(DiskExterior(1.0), TailQuery(2.0), cfg)
    assert est.n_unterminated > 0
    assert est.n_samples == 500


def test_grid_validation(fast_cfg):
    with pytest.raises(ValueError):
        estimate_profile(HalfPlane(1.0), [], fast_cfg)
    with pytest.raises(ValueError):
        estimate_profile(HalfPlane(1.0), [4.0, 2.0], fast_cfg)


def test_jump_direction_matches_mpmath():
    # the half-angle step against 40-digit cos/sin of 2*pi*u, on random
    # dyadic u and on the edges of [0, 1) and of its octants
    rng = np.random.default_rng(11)
    u = np.concatenate([
        rng.integers(0, 2**53, size=500) * 2.0**-53,
        [0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5 + 2.0**-53, 1.0 - 2.0**-53],
        np.arange(1, 8) / 8,
    ])
    z = np.zeros(u.size, dtype=complex)
    _jump(z, np.ones(u.size), u)
    with mpmath.workdps(40):
        for ui, zi in zip(u, z):
            theta = 2 * mpmath.pi * mpmath.mpf(float(ui))
            c, s = mpmath.mpf(zi.real), mpmath.mpf(zi.imag)
            assert abs(c - mpmath.cos(theta)) <= 1e-15, ui
            assert abs(s - mpmath.sin(theta)) <= 1e-15, ui
            assert abs(mpmath.sqrt(c * c + s * s) - 1) <= 4 * 2.0**-52, ui


def test_jump_moves_in_place_by_dist():
    z = np.array([1.0 + 2.0j, -3.0 + 0.5j, 0.25 - 4.0j])
    start = z.copy()
    dist = np.array([0.5, 2.0, 1e-3])
    u = np.array([0.125, 0.5, 0.875])
    _jump(z, dist, u)
    assert np.allclose(z, start + dist * np.exp(2j * np.pi * u), rtol=0, atol=1e-15)


CHUNK_DOMAINS = {
    "half_plane": HalfPlane(1.0),
    "slit": Sector(2 * math.pi, 1.0),
    "right_sector": Sector(math.pi / 2, 1.0),
    "disk_exterior": DiskExterior(1.0),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(CHUNK_DOMAINS)),
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 64),
    data=st.data(),
)
def test_exit_moduli_are_chunk_invariant(name, seed, n, data):
    # the walks are elementwise in keyed streams, so batching changes no bit,
    # not even which walks are left unterminated (nan) by the step budget
    chunk = data.draw(st.integers(1, n), label="chunk")
    d = CHUNK_DOMAINS[name]
    whole = _exit_moduli(d, WosConfig(n_samples=n, seed=seed, max_steps=500, chunk_size=n))
    parts = _exit_moduli(d, WosConfig(n_samples=n, seed=seed, max_steps=500, chunk_size=chunk))
    assert np.array_equal(np.isnan(whole), np.isnan(parts))
    assert whole.view(np.uint64).tolist() == parts.view(np.uint64).tolist()
