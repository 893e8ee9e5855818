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
sample count no matter how the samples are batched or parallelized.

Step blocks. When few walkers are left, as in the long tail of a
disk-exterior run, numpy's per-call overhead and not arithmetic sets the
cost of a step. So the kernel draws the uniforms, and takes their tan, for
up to MAX_BLOCK_STEPS steps in one call, keeping a block to about
BLOCK_DRAWS draws; a wide walker set gets one step per block, as it
would without blocks. A block is drawn after the step's absorptions and
never runs past max_steps; when walkers are absorbed mid-block, its
columns are compacted with the same mask as the walkers. No bit changes:
draw k of a stream depends only on (key, k), whatever call makes it, and
tan and the step formula act elementwise. A block only costs the draws of
its steps that an absorbed walker no longer needs, at most
MAX_BLOCK_STEPS - 1 per walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDomain
from .geometry import Domain
from .hardy_estimator import DecayProfile, ProfileEntry
from .rng import stream_keys, uniforms

__all__ = ["WosConfig", "estimate_hm", "estimate_profile"]

DEFAULT_CHUNK = 65536  # walks per batch; batching never changes a result
# step blocks (see the module docstring): up to BLOCK_DRAWS draws and
# MAX_BLOCK_STEPS steps per block; blocking never changes a result either
BLOCK_DRAWS = 4096
MAX_BLOCK_STEPS = 64


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
    eps = absorption_epsilon(d)
    out = np.full(cfg.n_samples, np.nan)
    for lo in range(0, cfg.n_samples, cfg.chunk_size):
        hi = min(lo + cfg.chunk_size, cfg.n_samples)
        keys = stream_keys(cfg.seed, np.arange(lo, hi, dtype=np.uint64))
        out[lo:hi] = _walk_chunk(d, eps, cfg.max_steps, keys)
    return out


def _block_steps(walkers: int, steps_left: int) -> int:
    """Steps drawn in one block for this many live walkers (1 for wide sets)."""
    return min(MAX_BLOCK_STEPS, steps_left, max(1, BLOCK_DRAWS // walkers))


def _walk_chunk(d: Domain, eps: float, max_steps: int, keys: np.ndarray) -> np.ndarray:
    m = len(keys)
    z = np.full(m, complex(d.basepoint), dtype=complex)
    out = np.full(m, np.nan)
    pos = np.arange(m)
    block = None  # rows of tan(pi*u) for steps not yet taken, one column per walker

    # Walks in unbounded domains can wander past float range; the position
    # saturates to inf/nan, its distance is never below eps again, and the
    # walk is counted as unterminated. Suppress the harmless overflow signal.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(max_steps):
            dist = d.distances(z)
            hit = dist < eps
            if np.count_nonzero(hit):
                out[pos[hit]] = np.abs(d.projections(z[hit]))
                keep = ~hit
                z = z[keep]
                pos = pos[keep]
                keys = keys[keep]
                dist = dist[keep]
                if z.size == 0:
                    break
                if block is not None:
                    block = block[row:, keep]
                    row = 0
            if block is None:
                block = _directions(keys, step, _block_steps(z.size, max_steps - step))
                row = 0
            _jump(z, dist, block[row])
            row += 1
            if row == len(block):
                block = None  # a spent block kept to the next draw raises peak memory
    return out


def _directions(keys: np.ndarray, step: int, k: int) -> np.ndarray:
    """tan(pi*u) for the draws of steps step..step+k-1, one row per step."""
    m = len(keys)
    if k == 1:  # the scalar step, with no per-draw step array on a wide set
        return np.tan(np.pi * uniforms(keys, step))[None]
    # one key per draw, so a caller counting keys counts draws
    steps = np.repeat(np.arange(step, step + k, dtype=np.uint64), m)
    return np.tan(np.pi * uniforms(np.tile(keys, k), steps)).reshape(k, m)


def _jump(z: np.ndarray, dist: np.ndarray, t: np.ndarray) -> None:
    """Move each z, in place, by dist in the direction 2*pi*u, where t = tan(pi*u)."""
    g = 2.0 * dist / (1.0 + t * t)
    z.real += g - dist
    z.imag += g * t


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
