"""Walk-on-spheres sampling of harmonic measure.

A walk starts at the basepoint and repeatedly jumps to a uniform point on
the largest circle centered at the walker that stays inside the domain; its
radius is the boundary distance. It is absorbed once the boundary distance
drops below the absorption shell epsilon; the absorbed position is then
projected to the nearest boundary point and scored against the tail query.
There is no outer truncation sphere: walks far from the boundary keep going
and either come back or exhaust the step budget, in which case they are
reported as unterminated and excluded from the frequency estimate.

Each jump takes its direction theta = 2*pi*u from one uniform u, in
half-angle form: with t = tan(pi*u), (cos theta, sin theta) =
(2/(1 + t*t) - 1, 2*t/(1 + t*t)). A walker-step therefore costs one
transcendental, the tan, where cos and sin cost two.

Randomness comes from counter-based per-sample streams keyed by
(seed, sample index), so estimates are bit-identical for a fixed seed and
sample count no matter how the samples are batched or parallelized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasepointOutsideDomain, DegenerateDomain
from .geometry import Domain, TailQuery
from .hardy_estimator import DecayProfile, ProfileEntry
from .rng import stream_keys, uniforms

__all__ = ["WosConfig", "HmEstimate", "estimate_hm", "estimate_profile"]

DEFAULT_CHUNK = 65536  # walks per batch; batching never changes a result


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


@dataclass(frozen=True)
class HmEstimate:
    value: float
    stderr: float
    n_samples: int
    n_unterminated: int
    r: float


def _exit_moduli(d: Domain, cfg: WosConfig) -> np.ndarray:
    """Modulus of the boundary projection of each absorbed walk (nan if not absorbed)."""
    if not d.contains(d.basepoint):
        raise BasepointOutsideDomain(f"basepoint {d.basepoint!r} not inside domain")
    start_dist = float(d.distances(np.asarray([d.basepoint], dtype=complex))[0])
    if not (math.isfinite(start_dist) and start_dist > 0.0):
        raise DegenerateDomain(
            f"boundary distance at the basepoint must be positive, got {start_dist!r}"
        )
    eps = absorption_epsilon(d)

    out = np.full(cfg.n_samples, np.nan)
    for lo in range(0, cfg.n_samples, cfg.chunk_size):
        hi = min(lo + cfg.chunk_size, cfg.n_samples)
        keys = stream_keys(cfg.seed, np.arange(lo, hi, dtype=np.uint64))
        out[lo:hi] = _walk_chunk(d, eps, cfg.max_steps, keys)
    return out


def _walk_chunk(d: Domain, eps: float, max_steps: int, keys: np.ndarray) -> np.ndarray:
    m = len(keys)
    z = np.full(m, complex(d.basepoint), dtype=complex)
    out = np.full(m, np.nan)
    pos = np.arange(m)

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
            _jump(z, dist, uniforms(keys, step))
    return out


def _jump(z: np.ndarray, dist: np.ndarray, u: np.ndarray) -> None:
    """Move each z, in place, by dist in the direction 2*pi*u (half-angle form)."""
    t = np.tan(np.pi * u)
    g = 2.0 * dist / (1.0 + t * t)
    z.real += g - dist
    z.imag += g * t


def _estimate_from_moduli(moduli: np.ndarray, r: float, n: int) -> HmEstimate:
    terminated = moduli[~np.isnan(moduli)]
    n_unterminated = n - terminated.size
    if terminated.size == 0:
        raise DegenerateDomain("no walk terminated within the step budget")
    hits = int(np.count_nonzero(terminated > r))
    value = hits / terminated.size
    stderr = math.sqrt(value * (1.0 - value) / terminated.size)
    return HmEstimate(
        value=value,
        stderr=stderr,
        n_samples=n,
        n_unterminated=n_unterminated,
        r=float(r),
    )


def estimate_hm(d: Domain, q: TailQuery, cfg: WosConfig) -> HmEstimate:
    """Monte Carlo estimate of the harmonic measure of the tail beyond q.r."""
    moduli = _exit_moduli(d, cfg)
    return _estimate_from_moduli(moduli, q.r, cfg.n_samples)


def estimate_profile(d: Domain, grid: list[float], cfg: WosConfig) -> DecayProfile:
    """Decay profile over a radius grid, one shared walk set for all radii.

    Each absorbed walk scores every grid radius below its exit modulus, so
    the estimated omega is exactly non-increasing within a run.
    """
    radii = [float(r) for r in grid]
    if any(b <= a for a, b in zip(radii, radii[1:])) or not radii:
        raise ValueError("grid must be a non-empty strictly increasing radius list")
    if radii[0] < 0:
        raise ValueError("grid radii must be >= 0")

    moduli = _exit_moduli(d, cfg)
    ests = [_estimate_from_moduli(moduli, r, cfg.n_samples) for r in radii]
    return DecayProfile(
        entries=tuple(ProfileEntry(r=e.r, omega=e.value, stderr=e.stderr) for e in ests),
        source="monte_carlo",
        domain_regular=d.regular,
        domain_bounded=d.bounded,
        boundary_sup=d.boundary_modulus_sup(),
        n_samples=cfg.n_samples,
        n_unterminated=ests[0].n_unterminated,
    )
