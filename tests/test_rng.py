"""Counter-based random streams: determinism, chunk invariance, uniformity."""

import numpy as np

from hardynum.rng import stream_keys, uniforms


def test_streams_are_deterministic():
    idx = np.arange(1000, dtype=np.uint64)
    a = uniforms(stream_keys(7, idx), step=3)
    b = uniforms(stream_keys(7, idx), step=3)
    assert np.array_equal(a, b)


def test_seed_and_step_change_the_stream():
    idx = np.arange(1000, dtype=np.uint64)
    base = uniforms(stream_keys(7, idx), step=3)
    assert not np.array_equal(base, uniforms(stream_keys(8, idx), step=3))
    assert not np.array_equal(base, uniforms(stream_keys(7, idx), step=4))


def test_chunking_does_not_change_values():
    # the draw for sample i depends only on (seed, i, step), never on batching
    n = 10_000
    idx = np.arange(n, dtype=np.uint64)
    whole = uniforms(stream_keys(42, idx), step=5)
    for chunk in (1, 997, 4096):
        parts = [
            uniforms(stream_keys(42, idx[lo : lo + chunk]), step=5)
            for lo in range(0, n, chunk)
        ]
        assert np.array_equal(np.concatenate(parts), whole)


def test_values_in_unit_interval():
    idx = np.arange(100_000, dtype=np.uint64)
    u = uniforms(stream_keys(3, idx), step=0)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_rough_uniformity():
    n = 200_000
    idx = np.arange(n, dtype=np.uint64)
    u = uniforms(stream_keys(123, idx), step=1)
    assert abs(u.mean() - 0.5) < 0.005
    counts, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
    # each decile within 5 sigma of the expected count
    expected = n / 10
    sigma = (n * 0.1 * 0.9) ** 0.5
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def test_steps_look_independent():
    idx = np.arange(50_000, dtype=np.uint64)
    keys = stream_keys(9, idx)
    a = uniforms(keys, step=0) - 0.5
    b = uniforms(keys, step=1) - 0.5
    corr = float(np.mean(a * b) / (a.std() * b.std()))
    assert abs(corr) < 0.02


# ---- pin: the stream bits against a pure-Python splitmix64 ---------------

MASK = (1 << 64) - 1
PHI = 0x9E3779B97F4A7C15


def _ref_mix(x):
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def _ref_key(seed, index):
    return _ref_mix((seed + (index + 1) * PHI) & MASK)


def _ref_uniform(key, step):
    return (_ref_mix((key + PHI * (step + 1)) & MASK) >> 11) * 2.0**-53


PIN_INDICES = [0, 1, 2, 12_345, 2**32, 2**63, 2**64 - 2, 2**64 - 1]
WRAPPING_KEYS = [2**64 - 1, 2**64 - 2, 2**64 - PHI, 2**64 - PHI - 1, 0, 1, PHI, 2**63]


def test_stream_bits_match_python_reference():
    # every sum and product below wraps modulo 2**64; RuntimeWarning is an
    # error in this suite, so this also shows that the wrap warns nothing
    idx = np.array(PIN_INDICES, dtype=np.uint64)
    for seed in (0, 7, 2**64 - 1):
        keys = stream_keys(seed, idx)
        assert [int(k) for k in keys] == [_ref_key(seed, i) for i in PIN_INDICES]
        for key_list in ([int(k) for k in keys], WRAPPING_KEYS):
            key_arr = np.array(key_list, dtype=np.uint64)
            for step in (0, 1, 10**6):
                got = uniforms(key_arr, step)
                assert got.tolist() == [_ref_uniform(k, step) for k in key_list]


def test_array_steps_give_the_stacked_per_step_draws():
    # an array of steps pairs each key with its own step: tiling the keys
    # over k steps gives the k per-step draws stacked, bit for bit
    keys = [_ref_key(7, i) for i in PIN_INDICES] + WRAPPING_KEYS
    key_arr = np.array(keys, dtype=np.uint64)
    steps = [0, 1, 2, 63, 64, 10**6, 2**40]
    got = uniforms(np.tile(key_arr, len(steps)),
                   np.repeat(np.array(steps, dtype=np.int64), len(keys)))
    stacked = np.concatenate([uniforms(key_arr, s) for s in steps])
    assert got.tolist() == stacked.tolist()
    assert got.tolist() == [_ref_uniform(k, s) for s in steps for k in keys]
    # any order of (key, step) pairs, with an unsigned step array
    order = np.random.default_rng(5).permutation(got.size)
    pairs = uniforms(np.tile(key_arr, len(steps))[order],
                     np.repeat(np.array(steps, dtype=np.uint64), len(keys))[order])
    assert pairs.tolist() == got[order].tolist()


def test_stream_bits_are_pinned():
    # literal values, so the reference above cannot drift with the code
    idx = np.array([0, 2**64 - 1], dtype=np.uint64)
    keys = stream_keys(2**64 - 1, idx)
    assert [int(k) for k in keys] == [0xE4D971771B652C20, 0xB4D055FCF2CBBD7B]
    assert uniforms(keys, 0).tolist() == [
        float.fromhex("0x1.77082a9eca89cp-2"),
        float.fromhex("0x1.4aeef0578a553p-1"),
    ]
    assert uniforms(keys, 10**6).tolist() == [
        float.fromhex("0x1.d832d8ffdeb30p-2"),
        float.fromhex("0x1.baabfff5af434p-3"),
    ]


def test_draws_leave_their_inputs_unchanged():
    # the finalizer works in place, on a fresh sum and never on the caller's
    # indices, keys or steps
    idx = np.arange(100, dtype=np.uint64)
    keys = stream_keys(5, idx)
    steps = np.arange(100, dtype=np.uint64)
    before = [a.copy() for a in (idx, keys, steps)]
    stream_keys(5, idx)
    uniforms(keys, 3)
    uniforms(keys, steps)
    assert all(np.array_equal(a, b) for a, b in zip((idx, keys, steps), before))
