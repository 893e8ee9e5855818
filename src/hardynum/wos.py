"""Walk-on-spheres sampling of harmonic measure.

A walk starts at the basepoint and repeatedly jumps to a uniform point on
the largest circle centered at the walker that stays inside the domain; its
radius is the boundary distance. It is absorbed once the boundary distance
drops below the absorption shell epsilon; the absorbed position is then
projected to the nearest boundary point, whose modulus is the exit modulus.
There is no outer truncation sphere: walks far from the boundary keep going
and either come back or exhaust the step budget, in which case they are
reported as unterminated and excluded from the frequency estimate.

One pass counts, at every radius r of a profile, the walks whose exit
modulus exceeds r (equal is not beyond); omega(r) = hits / n and its
binomial stderr use the n terminated walks. estimate_hm returns the entry
of a one-radius profile.

Each jump takes its direction theta = 2*pi*u from one uniform u, in
half-angle form: with t = tan(pi*u), (cos theta, sin theta) =
(2/(1 + t*t) - 1, 2*t/(1 + t*t)). A walker-step therefore costs one
transcendental, the tan, where cos and sin cost two.

Randomness comes from counter-based per-sample streams keyed by
(seed, sample index), so estimates are bit-identical for a fixed seed and
sample count no matter which row a walk runs in or how many step together.

The walker pool. The kernel steps min(chunk_size, n) rows, each with a
position, a sample index and a cursor: the walk's key rewound (rng.advance)
by the step at which the walk entered, so draw `step` of the cursor is the
walk's own next draw. While walks wait to enter, a row whose walk is
absorbed or takes the last jump of its max_steps budget takes the next
sample index at the basepoint after the jump; the next hit test is that
walk's step 0. So no row is frozen until the step that starts the last walk;
from there the pool drains, with the frozen rows below.

Step blocks. When few walkers step together, as in the drain's long tail,
numpy's per-call overhead and not arithmetic sets the cost of a step. So the
kernel draws the uniforms, and takes their tan and 1 + t*t, for up to
MAX_BLOCK_STEPS steps in one call, keeping a block to about BLOCK_DRAWS
draws: a wide pool gets one step per block. A block is drawn after the
step's absorptions and never runs past the last walk's budget, and its width
follows the row count (frozen rows included); a row that takes a new walk
gets the rest of the block drawn from its new cursor. No bit changes: draw k
of a stream depends only on (key, k), and tan and the step formula act
elementwise.

Frozen rows. In the drain, an ended walk's row stays in the arrays, frozen
at a NaN position. Every shape's distance there is NaN, never below epsilon,
so the row is never absorbed again; its jumps keep it NaN. Only once frozen
rows make up COMPACT_SHARE of the rows are the per-row arrays and block
columns compacted, with one index array; compacting at every absorbing step
cost more. A block's unused draws are the columns it drops at a refill, a
compaction or the end, at most MAX_BLOCK_STEPS - 1 per walk.

In-place steps. A step writes 2*dist, then its quotient by the block's
1 + t*t, into one scratch row, then g - dist into the distance array, and
adds g - dist and g*t to the position through its real and imaginary
views: the same operations in the same order as
g = 2*dist / (1 + t*t); z += (g - dist) + i*g*t, with no temporaries. A
step that absorbs no walker makes eight numpy calls besides the distances:
the hit test dist < eps and its count_nonzero, and six for the jump.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDomain
from .geometry import Domain
from .hardy_estimator import DecayProfile, ProfileEntry
from .rng import advance, stream_keys, uniforms

__all__ = ["WosConfig", "estimate_hm", "estimate_profile"]

DEFAULT_CHUNK = 16384  # the walker pool width; the width never changes a result
# step blocks (see the module docstring): up to BLOCK_DRAWS draws and
# MAX_BLOCK_STEPS steps per block; blocking never changes a result either
BLOCK_DRAWS = 4096
MAX_BLOCK_STEPS = 64
# frozen rows (see the module docstring) are compacted away once they are
# this share of the rows; compaction never changes a result either
COMPACT_SHARE = 0.25
_FROZEN = complex(math.nan, math.nan)  # the position of an absorbed walker's row
_NEVER = np.iinfo(np.int64).max  # the entry step of an ended walk's row: never late
_TWO = np.array(2.0)  # a 0-d operand skips the per-call conversion of a Python float


def absorption_epsilon(d: Domain) -> float:
    """The absorption shell: 1e-6 * max(1, |basepoint|)."""
    return 1e-6 * max(1.0, abs(d.basepoint))


@dataclass(frozen=True)
class WosConfig:
    n_samples: int
    seed: int = 0
    max_steps: int = 1_000_000
    chunk_size: int = DEFAULT_CHUNK

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        # stream_keys keeps the low 64 bits of the seed, so a seed outside
        # this range would silently share its streams with one inside it
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed!r}")
        if self.max_steps < 1 or self.chunk_size < 1:
            raise ValueError("max_steps and chunk_size must be >= 1")


def _exit_moduli(d: Domain, cfg: WosConfig) -> np.ndarray:
    """Modulus of the boundary projection of each absorbed walk (nan if not absorbed).

    Every built-in constructor checks that the basepoint is inside the
    domain, so its boundary distance is positive and finite.
    """
    n, max_steps = cfg.n_samples, cfg.max_steps
    m = min(cfg.chunk_size, n)  # the pool width
    keys = stream_keys(cfg.seed, np.arange(n, dtype=np.uint64))
    out = np.full(n, np.nan)
    z = np.full(m, complex(d.basepoint), dtype=complex)
    re, im = z.real, z.imag  # views: the jump writes through them
    pos, cur, born = np.arange(m), keys[:m], np.zeros(m, dtype=np.int64)
    g = np.empty(m)  # the jump's scratch row
    eps = np.array(absorption_epsilon(d))  # 0-d, like _TWO
    queued = m  # the sample index of the next walk to enter the pool
    oldest = last = 0  # a lower and an upper bound on the running walks' entry steps
    frozen, n_frozen = [], 0  # rows frozen since the last compaction
    new = pos[:0]  # rows that take the next walks after this step's jump
    t = den = None  # the block: tan(pi*u) and 1 + t*t, one row per step

    # Walks in unbounded domains can wander past float range; the position
    # saturates to inf/nan, its distance is never below eps again, and the
    # walk is counted as unterminated. Suppress the harmless overflow signal.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in itertools.count():
            dist = d.distances(z)
            done = np.less(dist, eps)
            if np.count_nonzero(done) or step + 1 - max_steps >= oldest:
                done = np.flatnonzero(done)
                out[pos[done]] = np.abs(d.projections(z[done]))
                if step + 1 - max_steps >= oldest:  # a walk may take its last jump now
                    born[np.concatenate([done, *frozen])] = _NEVER  # ended walks are not late
                    done = np.concatenate([done, np.flatnonzero(born <= step + 1 - max_steps)])
                    oldest = min(int(born.min()), step + 1)
                new, done = done[:n - queued], done[n - queued:]
                if done.size:
                    z[done] = _FROZEN
                    frozen.append(done)
                    n_frozen += done.size
                    if n_frozen == z.size:
                        break
                    if n_frozen >= COMPACT_SHARE * z.size:
                        alive = np.ones(z.size, dtype=bool)
                        alive[np.concatenate(frozen)] = False
                        keep = np.flatnonzero(alive)
                        z, pos, cur, born = z[keep], pos[keep], cur[keep], born[keep]
                        re, im, g, dist = z.real, z.imag, g[:keep.size], dist[keep]
                        if t is not None:
                            t, den, row = t[row:, keep], den[row:, keep], 0
                        frozen, n_frozen, new = [], 0, np.searchsorted(keep, new)
            if t is None:
                t, den = _directions(cur, step, _block_steps(z.size, last + max_steps - step))
                row = 0
            _jump(re, im, dist, t[row], den[row], g)
            row += 1
            if row == len(t):
                t = den = None  # a spent block kept to the next draw raises peak memory
            if new.size:
                last, end = step + 1, queued + new.size
                z[new], pos[new], born[new] = d.basepoint, np.arange(queued, end), last
                cur[new] = advance(keys[queued:end], -last)
                if t is not None:  # the rest of the block, for the new walks
                    t[row:, new], den[row:, new] = _directions(cur[new], last, len(t) - row)
                queued, new = end, new[:0]
    return out


def _block_steps(rows: int, steps_left: int) -> int:
    """Steps drawn in one block for this many rows (1 for wide sets)."""
    return min(MAX_BLOCK_STEPS, steps_left, max(1, BLOCK_DRAWS // rows))


def _directions(keys: np.ndarray, step: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """t = tan(pi*u) for the draws of steps step..step+k-1, one row per step,
    and 1 + t*t."""
    m = len(keys)
    if k == 1:  # the scalar step, with no per-draw step array on a wide set
        t = uniforms(keys, step)[None]
    else:
        # one key per draw, so a caller counting keys counts draws
        steps = np.repeat(np.arange(step, step + k, dtype=np.uint64), m)
        t = uniforms(np.tile(keys, k), steps).reshape(k, m)
    np.multiply(t, np.pi, out=t)
    np.tan(t, out=t)
    den = t * t
    den += 1.0
    return t, den


def _jump(re: np.ndarray, im: np.ndarray, dist: np.ndarray, t: np.ndarray, den: np.ndarray,
          g: np.ndarray) -> None:
    """Move each walker (re, im), in place, by dist in the direction 2*pi*u,
    where t = tan(pi*u) and den = 1 + t*t: g = 2*dist / den, then re += g - dist
    and im += g*t. dist and the scratch row g are overwritten."""
    np.multiply(dist, _TWO, out=g)
    np.divide(g, den, out=g)
    np.subtract(g, dist, out=dist)
    np.add(re, dist, out=re)
    np.multiply(g, t, out=g)
    np.add(im, g, out=im)


def _profile(d: Domain, grid: list[float], cfg: WosConfig) -> DecayProfile:
    """omega at every grid radius from one walk set, counted in one pass."""
    radii = [float(r) for r in grid]
    if any(b <= a for a, b in zip(radii, radii[1:])) or not radii:
        raise ValueError("grid must be a non-empty strictly increasing radius list")
    # NaN fails both comparisons
    if not all(0.0 <= r < math.inf for r in radii):
        raise ValueError(f"tail radii must be finite and >= 0, got {radii!r}")

    moduli = _exit_moduli(d, cfg)
    terminated = moduli[~np.isnan(moduli)]
    n = terminated.size
    if n == 0:
        raise DegenerateDomain("no walk terminated within the step budget")
    # a walk is beyond radii[j] iff j < (number of radii below its modulus),
    # so the hits at radii[j] are the walks in bins j + 1 and up
    bins = np.bincount(np.searchsorted(radii, terminated, side="left"), minlength=len(radii) + 1)
    omega = np.cumsum(bins[::-1])[::-1][1:] / n
    stderr = np.sqrt(omega * (1.0 - omega) / n)
    return DecayProfile(
        entries=tuple(map(ProfileEntry, radii, omega.tolist(), stderr.tolist())),
        source="monte_carlo",
        domain_regular=d.regular,
        domain_bounded=d.bounded,
        boundary_sup=d.boundary_modulus_sup(),
        n_samples=cfg.n_samples,
        n_unterminated=cfg.n_samples - n,
    )


def estimate_hm(d: Domain, r: float, cfg: WosConfig) -> ProfileEntry:
    """Monte Carlo estimate of the harmonic measure of the tail beyond modulus r,
    as the ProfileEntry (r, omega, stderr) of a one-radius profile."""
    return _profile(d, [r], cfg).entries[0]


def estimate_profile(d: Domain, grid: list[float], cfg: WosConfig) -> DecayProfile:
    """Decay profile over a strictly increasing radius grid from one shared
    walk set, so the estimated omega is exactly non-increasing within a run."""
    return _profile(d, grid, cfg)
