"""Counter-based random streams for reproducible Monte Carlo.

Each sample owns a keyed stream; draw k of stream i depends only on
(seed, i, k). Results are therefore bit-identical no matter how samples are
batched, vectorized or scheduled. The generator is the splitmix64 finalizer
over a Weyl sequence, applied twice: once to derive the per-sample key from
(seed, sample index), once per draw. Since a draw depends on nothing but
its (key, step) pair, one call can draw many steps of many streams at once.

All arithmetic is on uint64 arrays, which wrap modulo 2**64 without a
warning, so no call needs an ``np.errstate``.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_PHI = 0x9E3779B97F4A7C15
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
_S11 = np.uint64(11)
_S27 = np.uint64(27)
_S30 = np.uint64(30)
_S31 = np.uint64(31)


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> _S30)) * _M1
    x = (x ^ (x >> _S27)) * _M2
    return x ^ (x >> _S31)


def stream_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """64-bit key per global sample index (``indices`` is an array)."""
    base = np.uint64(seed & _MASK)
    offsets = (indices.astype(np.uint64) + _ONE) * np.uint64(_PHI)
    return _mix(base + offsets)


def uniforms(keys: np.ndarray, step) -> np.ndarray:
    """The step-th uniform in [0, 1) of each keyed stream.

    ``step`` is an int, or an integer array shaped like ``keys`` that gives
    each key its own step: element j is then draw ``step[j]`` of stream
    ``keys[j]``, the same bits as ``uniforms(keys[j:j+1], int(step[j]))``.
    """
    if np.ndim(step) == 0:
        counter = np.uint64((_PHI * (int(step) + 1)) & _MASK)
    else:
        counter = (step.astype(np.uint64) + _ONE) * np.uint64(_PHI)
    bits = _mix(keys + counter)
    # top 53 bits give a dyadic uniform in [0, 1)
    return (bits >> _S11) * 2.0**-53
