"""Counter-based random streams for reproducible Monte Carlo.

Each sample owns a keyed stream; draw k of stream i depends only on
(seed, i, k). Results are therefore bit-identical no matter how samples are
batched, vectorized or scheduled. The generator is the splitmix64 finalizer
over a Weyl sequence, applied twice: once to derive the per-sample key from
(seed, sample index), once per draw. Since a draw depends on nothing but
its (key, step) pair, one call can draw many steps of many streams at once.

A key can be moved along its stream: ``advance(keys, k)`` adds k times the
Weyl increment, so ``uniforms(advance(keys, k), s) == uniforms(keys, s + k)``
bit for bit, for any integers k and s (negative k rewinds the stream).

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
    """The splitmix64 finalizer, in place: x is overwritten and returned."""
    s = x >> _S30
    x ^= s
    x *= _M1
    np.right_shift(x, _S27, out=s)
    x ^= s
    x *= _M2
    np.right_shift(x, _S31, out=s)
    x ^= s
    return x


def stream_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """64-bit key per global sample index (``indices`` is an array)."""
    x = indices.astype(np.uint64, copy=False) * np.uint64(_PHI)  # i*PHI, then
    x += np.uint64((seed + _PHI) & _MASK)  # PHI + seed in place: (i + 1)*PHI + seed
    return _mix(x)


def advance(keys: np.ndarray, k: int) -> np.ndarray:
    """Move each key k draws along its stream, in place; returns keys."""
    keys += np.uint64((_PHI * k) & _MASK)
    return keys


def uniforms(keys: np.ndarray, step) -> np.ndarray:
    """The step-th uniform in [0, 1) of each keyed stream.

    ``step`` is an int, or an integer array shaped like ``keys`` that gives
    each key its own step: element j is then draw ``step[j]`` of stream
    ``keys[j]``, the same bits as ``uniforms(keys[j:j+1], int(step[j]))``.
    """
    if np.ndim(step) == 0:
        counter = np.uint64((_PHI * (int(step) + 1)) & _MASK)
    else:
        counter = step.astype(np.uint64, copy=False) + _ONE
        counter *= np.uint64(_PHI)
    bits = _mix(keys + counter)
    # top 53 bits give a dyadic uniform in [0, 1)
    bits >>= _S11
    return bits * 2.0**-53
