"""Hardy number estimation from harmonic-measure decay profiles.

For a domain whose boundary tails E_r carry positive harmonic measure, the
Hardy number equals

    liminf over r of  log(1 / omega(r)) / log(r)

which this module approximates by the minimum of the local log-log slopes
over the last few grid points of a decay profile. Profiles can come from the
closed-form oracles or from the walk-on-spheres sampler; Monte Carlo
profiles are first trimmed to the radii whose estimates are statistically
informative, since an empirical zero at a rarely-hit radius says nothing
about the true decay.

An exact zero is a different matter: when the tail set itself is empty
(bounded domains, disk exteriors past their boundary radius) the formula
produces +inf, and the estimate carries a warning saying whether that +inf
is meaningful (bounded domain) or an artifact (non-regular domain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewPoints, ZeroMeasure
from .geometry import Domain
from .oracles import exact_hm

__all__ = [
    "ProfileEntry",
    "DecayProfile",
    "HardyNumberEstimate",
    "local_slopes",
    "estimate_hardy_number",
    "default_grid",
    "oracle_profile",
]

# Monte Carlo profile entries above this relative standard error are dropped
# before slopes are taken (an entry backed by a handful of tail hits has a
# log-scale noise comparable to the slope itself).
MAX_REL_STDERR = 0.05

# confidence multiplier for the reported halfwidth
_CI_FACTOR = 1.96

WARN_ZERO_TAIL = "zero_measure_tail"
WARN_NON_REGULAR = "non_regular_domain"
WARN_BOUNDED = "bounded_domain"


@dataclass(frozen=True)
class ProfileEntry:
    r: float
    omega: float
    stderr: float = 0.0


@dataclass(frozen=True)
class DecayProfile:
    """Harmonic-measure decay samples omega(r) over an increasing radius grid."""

    entries: tuple[ProfileEntry, ...]
    source: str  # "oracle" or "monte_carlo"
    domain_regular: bool | None = None
    domain_bounded: bool | None = None
    boundary_sup: float | None = None  # sup of boundary moduli; None if unknown

    def __post_init__(self) -> None:
        radii = [e.r for e in self.entries]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("profile radii must be strictly increasing")
        for e in self.entries:
            if not (0.0 <= e.omega <= 1.0) or e.stderr < 0.0:
                raise ValueError(f"bad profile entry {e!r}")
        if self.source == "oracle":
            omegas = [e.omega for e in self.entries]
            if any(b > a + 1e-12 for a, b in zip(omegas, omegas[1:])):
                raise ValueError("oracle profiles must be non-increasing in r")

    def radii(self) -> np.ndarray:
        return np.array([e.r for e in self.entries])

    def omegas(self) -> np.ndarray:
        return np.array([e.omega for e in self.entries])


@dataclass(frozen=True)
class HardyNumberEstimate:
    value: float  # math.inf marks an empty tail
    local_slopes: tuple[float, ...]
    tail_window: int
    ci_halfwidth: float
    warnings: tuple[str, ...] = ()
    used_radii: tuple[float, float] | None = None


def local_slopes(profile: DecayProfile) -> np.ndarray:
    """Log-log slopes of 1/omega between consecutive grid radii."""
    if len(profile.entries) < 2:
        raise TooFewPoints("need at least two profile entries for a slope")
    omega = profile.omegas()
    if np.any(omega == 0.0):
        raise ZeroMeasure("profile contains omega = 0; the decay rate there is +inf")
    log_inv = -np.log(omega)
    log_r = np.log(profile.radii())
    return np.diff(log_inv) / np.diff(log_r)


def _slope_stderrs(entries: list[ProfileEntry]) -> np.ndarray:
    # delta method: d log(omega) = d omega / omega, consecutive entries
    # treated as independent (an overestimate when walks are shared)
    rel = np.array([e.stderr / e.omega for e in entries])
    gaps = np.diff(np.log([e.r for e in entries]))
    return np.sqrt(rel[:-1] ** 2 + rel[1:] ** 2) / gaps


def _structural_zero(profile: DecayProfile, entry: ProfileEntry) -> bool:
    # a zero is structural when the boundary simply has no points beyond r
    if profile.source == "oracle":
        return True
    sup = profile.boundary_sup
    if sup is not None and not math.isinf(sup):
        return entry.r >= sup
    if profile.domain_bounded:
        return True
    return False


def _informative_entries(profile: DecayProfile, tail_window: int) -> list[ProfileEntry]:
    """The positive-omega entries up to the first whose relative standard
    error exceeds MAX_REL_STDERR, keeping at least tail_window + 1 of them when
    that many are positive. Oracle entries carry no stderr and are all kept."""
    positive = [e for e in profile.entries if e.omega > 0.0]
    kept = 0
    for e in positive:
        if e.stderr / e.omega > MAX_REL_STDERR:
            break
        kept += 1
    used = positive[:max(kept, min(tail_window + 1, len(positive)))]
    if len(used) < 2:
        raise TooFewPoints("fewer than two informative profile entries")
    return used


def estimate_hardy_number(profile: DecayProfile, tail_window: int = 4) -> HardyNumberEstimate:
    """Liminf proxy: minimum local slope over the trailing window.

    Returns +inf with warnings when the boundary tail is empty at some
    finite radius. For Monte Carlo profiles, entries with relative standard
    error above MAX_REL_STDERR (and empty-count entries at radii the
    boundary does reach) are dropped before the window is applied, keeping at
    least tail_window + 1 entries when that many carry information at all.
    """
    if tail_window < 1:
        raise ValueError("tail_window must be >= 1")
    if len(profile.entries) < tail_window + 1:
        raise TooFewPoints(
            f"profile has {len(profile.entries)} entries, need {tail_window + 1}"
        )

    zero_entries = [e for e in profile.entries if e.omega == 0.0]
    structural = [e for e in zero_entries if _structural_zero(profile, e)]
    all_zero = len(zero_entries) == len(profile.entries)
    if structural or all_zero:
        warnings = []
        if profile.domain_regular is False:
            warnings.append(WARN_NON_REGULAR)
        if profile.domain_bounded:
            warnings.append(WARN_BOUNDED)
        warnings.append(WARN_ZERO_TAIL)
        return HardyNumberEstimate(
            value=math.inf,
            local_slopes=(),
            tail_window=tail_window,
            ci_halfwidth=0.0,
            warnings=tuple(warnings),
        )

    used = _informative_entries(profile, tail_window)
    sub = DecayProfile(tuple(used), profile.source)
    slopes = local_slopes(sub)
    stderrs = _slope_stderrs(used)
    window = min(tail_window, len(slopes))
    tail_slopes = slopes[-window:]
    tail_stderrs = stderrs[-window:]
    k = int(np.argmin(tail_slopes))
    return HardyNumberEstimate(
        value=float(tail_slopes[k]),
        local_slopes=tuple(float(s) for s in slopes),
        tail_window=tail_window,
        ci_halfwidth=float(_CI_FACTOR * tail_stderrs[k]),
        warnings=(),
        used_radii=(used[0].r, used[-1].r),
    )


def default_grid(d: Domain, count: int = 13, ratio: float = 2.0) -> list[float]:
    """Geometric radius grid 2*max(1, |basepoint|) * ratio**k."""
    if count < 2 or ratio <= 1.0:
        raise ValueError("need count >= 2 and ratio > 1")
    r0 = 2.0 * max(1.0, abs(d.basepoint))
    return [r0 * ratio**k for k in range(count)]


def oracle_profile(d: Domain, grid: list[float]) -> DecayProfile:
    """Exact decay profile from the closed-form oracle."""
    entries = tuple(ProfileEntry(r=float(r), omega=exact_hm(d, r)) for r in grid)
    return DecayProfile(
        entries,
        source="oracle",
        domain_regular=d.regular,
        domain_bounded=d.bounded,
        boundary_sup=d.boundary_modulus_sup(),
    )
