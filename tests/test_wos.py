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
    WosConfig,
    estimate_hm,
    estimate_profile,
    exact_hm,
)
from hardynum import wos
from hardynum.rng import stream_keys, uniforms
from hardynum.wos import (
    BLOCK_DRAWS,
    COMPACT_SHARE,
    MAX_BLOCK_STEPS,
    _exit_moduli,
    _jump,
    absorption_epsilon,
)


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
    profile = estimate_profile(d, [10.0], cfg)
    est = profile.entries[0]
    truth = exact_hm(d, 10.0)
    assert profile.n_unterminated == 0
    assert abs(est.omega - truth) <= 4.0 * est.stderr


def test_sector_matches_oracle_within_four_sigma(fast_cfg):
    d = Sector(math.pi / 2, 1.0)
    est = estimate_hm(d, 5.0, fast_cfg)
    truth = exact_hm(d, 5.0)
    assert abs(est.omega - truth) <= 4.0 * est.stderr


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
    single = estimate_hm(d, 8.0, fast_cfg)
    assert profile.entries[1].omega == single.omega
    assert profile.entries[1].stderr == single.stderr


def test_bit_identical_across_chunk_sizes():
    d = HalfPlane(1.0)
    runs = [
        estimate_profile(d, [10.0], WosConfig(n_samples=20_000, seed=5, chunk_size=c))
        for c in (20_000, 977, 3_000)
    ]
    assert len({(p.entries, p.n_unterminated) for p in runs}) == 1


def test_different_seeds_differ():
    d = HalfPlane(1.0)
    a = estimate_hm(d, 4.0, WosConfig(n_samples=5_000, seed=1))
    b = estimate_hm(d, 4.0, WosConfig(n_samples=5_000, seed=2))
    assert a.omega != b.omega


def test_scale_invariance_real_factor(fast_cfg):
    # z -> 2z maps HalfPlane(1) onto HalfPlane(2) and the tail past r to the tail past 2r
    a = estimate_hm(HalfPlane(1.0), 6.0, fast_cfg)
    b = estimate_hm(HalfPlane(2.0), 12.0, fast_cfg)
    assert abs(a.omega - b.omega) <= 4.0 * (a.stderr + b.stderr)


def test_scale_invariance_rotation(tiny_cfg):
    # a rotation about the origin keeps moduli: an off-center disk and its
    # rotated copy give the same tail measure at a radius inside their band
    d = Disk(1.0, basepoint=1.5, center=1.5)
    turn = complex(math.cos(2.0), math.sin(2.0))
    img = Disk(1.0, basepoint=1.5 * turn, center=1.5 * turn)
    a = estimate_hm(d, 1.2, tiny_cfg)
    b = estimate_hm(img, 1.2, tiny_cfg)
    assert 0.0 < a.omega < 1.0
    assert abs(a.omega - b.omega) <= 4.0 * (a.stderr + b.stderr)


def test_disk_exterior_tail_measure_is_zero(tiny_cfg):
    # every absorbed walk lands on the unit circle, inside any r > 1
    d = DiskExterior(1.0)
    for r in (1.5, 2.0, 10.0):
        est = estimate_hm(d, r, tiny_cfg)
        assert est.omega == 0.0
        assert est.stderr == 0.0


def test_bounded_disk_step_values(tiny_cfg):
    d = Disk(1.0, basepoint=0.0)
    assert estimate_hm(d, 0.5, tiny_cfg).omega == 1.0
    assert estimate_hm(d, 2.0, tiny_cfg).omega == 0.0
    assert estimate_profile(d, [2.0], tiny_cfg).n_unterminated == 0


def test_no_termination_raises():
    cfg = WosConfig(n_samples=100, seed=0, max_steps=1)
    with pytest.raises(DegenerateDomain):
        estimate_hm(HalfPlane(1.0), 2.0, cfg)


def test_unterminated_walks_reported_not_hidden():
    # a tight step budget on the exterior domain leaves some walks running
    cfg = WosConfig(n_samples=500, seed=3, max_steps=50)
    profile = estimate_profile(DiskExterior(1.0), [2.0], cfg)
    assert profile.n_unterminated > 0
    assert profile.n_samples == 500


def _no_walks(*args):
    raise AssertionError("walks ran before the radius check")


def test_grid_validation(fast_cfg, monkeypatch):
    monkeypatch.setattr(wos, "_exit_moduli", _no_walks)
    with pytest.raises(ValueError):
        estimate_profile(HalfPlane(1.0), [], fast_cfg)
    with pytest.raises(ValueError):
        estimate_profile(HalfPlane(1.0), [4.0, 2.0], fast_cfg)
    for grid in ([2.0, math.inf], [-1.0, 2.0], [2.0, math.nan, 4.0]):
        with pytest.raises(ValueError, match="finite and >= 0"):
            estimate_profile(HalfPlane(1.0), grid, fast_cfg)


def test_estimate_hm_rejects_bad_radius(fast_cfg, monkeypatch):
    monkeypatch.setattr(wos, "_exit_moduli", _no_walks)
    for r in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and >= 0"):
            estimate_hm(HalfPlane(1.0), r, fast_cfg)


_GRID = [0.0, 1.0, 2.5, 4.0]


@pytest.mark.parametrize("moduli", [
    [math.nan, 0.0, 1.0, 1.0, 2.5, 3.0, 4.0, 5.0, math.nan, 0.5],  # some equal to radii
    [10.0, 20.0, 4.5],  # all beyond
    [0.0, 0.0, 1.0],  # none beyond the first radius
    [2.5],  # a single walk, on a radius
    [math.nan, 7.0, math.nan],  # a single terminated walk
], ids=["mixed", "all_beyond", "none_beyond", "single_equal", "single_beyond"])
def test_hit_counts_match_brute_force(monkeypatch, moduli):
    # a walk is beyond r only when its exit modulus exceeds r; equal is not beyond
    monkeypatch.setattr(wos, "_exit_moduli", lambda d, cfg: np.array(moduli))
    cfg = WosConfig(n_samples=len(moduli))
    profile = estimate_profile(HalfPlane(1.0), _GRID, cfg)
    terminated = [m for m in moduli if not math.isnan(m)]
    n = len(terminated)
    assert profile.n_unterminated == len(moduli) - n
    for r, e in zip(_GRID, profile.entries):
        omega = sum(m > r for m in terminated) / n
        assert (e.r, e.omega, e.stderr) == (r, omega, math.sqrt(omega * (1.0 - omega) / n))
        assert type(e.omega) is float and type(e.stderr) is float
        assert estimate_hm(HalfPlane(1.0), r, cfg) == e


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
    t = np.tan(np.pi * u)
    _jump(z.real, z.imag, np.ones(u.size), t, 1.0 + t * t, np.empty(u.size))
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
    t = np.tan(np.pi * u)
    _jump(z.real, z.imag, dist.copy(), t, 1.0 + t * t, np.empty(3))
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


# ---- step blocks against the per-step kernel ---------------------------------


def _reference_walk(d, eps, max_steps, keys):
    """The per-step kernel: one uniforms call and one tan per step, absorbed
    walkers removed at once. Returns the exit moduli and each walk's last
    position (nan for an absorbed walk)."""
    m = len(keys)
    z = np.full(m, complex(d.basepoint), dtype=complex)
    out = np.full(m, np.nan)
    pos = np.arange(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(max_steps):
            dist = d.distances(z)
            hit = dist < eps
            if np.count_nonzero(hit):
                out[pos[hit]] = np.abs(d.projections(z[hit]))
                keep = ~hit
                z, pos, keys, dist = z[keep], pos[keep], keys[keep], dist[keep]
                if z.size == 0:
                    break
            t = np.tan(np.pi * uniforms(keys, step))
            g = 2.0 * dist / (1.0 + t * t)
            z.real += g - dist
            z.imag += g * t
    last = np.full(m, complex(math.nan, math.nan))
    last[pos] = z
    return out, last


BLOCK_DOMAINS = {**CHUNK_DOMAINS, "disk": Disk(1.0, basepoint=0.5 + 0.25j)}
# walker counts at which the block width changes, and one on either side
_WIDE = BLOCK_DRAWS // MAX_BLOCK_STEPS
# and counts around the first compaction: with 1/COMPACT_SHARE rows one
# absorption compacts and with one more row it does not; 80 and 2731 rows
# cross a block-width change (to 64 steps, and from 1 step to 2) when
# their first compaction drops a quarter of them
_SHARE_ROWS = round(1 / COMPACT_SHARE)
BLOCK_WALKERS = sorted({1, 2, 3, _SHARE_ROWS, _SHARE_ROWS + 1, _WIDE - 1, _WIDE, _WIDE + 1, 80,
                        BLOCK_DRAWS // 2, BLOCK_DRAWS // 2 + 1, 2731, BLOCK_DRAWS,
                        BLOCK_DRAWS + 1, 3000})


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BLOCK_DOMAINS)),
    seed=st.integers(0, 2**64 - 1),
    n=st.sampled_from(BLOCK_WALKERS),
    max_steps=st.sampled_from([1, 2, MAX_BLOCK_STEPS - 1, MAX_BLOCK_STEPS + 1, 130]),
)
def test_step_blocks_change_no_bit(name, seed, n, max_steps):
    # drawing several steps per call changes no exit modulus, and leaves the
    # same walks unterminated (nan) when the budget is not a whole number of
    # blocks
    d = BLOCK_DOMAINS[name]
    cfg = WosConfig(n_samples=n, seed=seed, max_steps=max_steps)
    keys = stream_keys(seed, np.arange(n, dtype=np.uint64))
    want, _ = _reference_walk(d, absorption_epsilon(d), max_steps, keys)
    got = _exit_moduli(d, cfg)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_frozen_and_saturated_rows_change_no_bit():
    # from a basepoint at 1e307 most walks overflow: their rows saturate to
    # inf/nan and walk on beside the frozen rows of the absorbed walks, which
    # stay below the compaction share here
    d = DiskExterior(1.0, 1e307)
    n, max_steps, seed = 3000, 300, 4
    keys = stream_keys(seed, np.arange(n, dtype=np.uint64))
    want, last = _reference_walk(d, absorption_epsilon(d), max_steps, keys)
    got = _exit_moduli(d, WosConfig(n_samples=n, seed=seed, max_steps=max_steps))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    running = np.isnan(want)
    assert np.count_nonzero(~running) == 403 < COMPACT_SHARE * n
    assert np.count_nonzero(~np.isfinite(last[running])) == 2572
    assert np.count_nonzero(np.isfinite(last[running])) == 25


@pytest.mark.parametrize("name", sorted(BLOCK_DOMAINS))
def test_frozen_rows_are_never_absorbed_again(name):
    # the kernel keeps an absorbed walker's row at a NaN position until the
    # next compaction, and writes the jump into the distance array: every
    # shape must return NaN there (never below eps) and an array of its own
    d = BLOCK_DOMAINS[name]
    zs = np.array([wos._FROZEN, d.basepoint])
    dist = d.distances(zs)
    assert np.isnan(dist[0]) and dist[1] > 0.0
    assert not np.shares_memory(dist, zs)
