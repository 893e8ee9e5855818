"""Hardy number estimation from harmonic-measure decay profiles.

For a domain whose boundary tails E_r carry positive harmonic measure, the
Hardy number equals

    liminf over r of  log(1 / omega(r)) / log(r)

which this module approximates by the slope q of a least-squares line
through (log r, log 1/omega) over the last tail_window + 1 informative grid
points of a decay profile (fit_decay). The same fit feeds the membership
classifiers, so the Hardy number and the membership verdicts rest on one
exponent. Profiles can come from the closed-form oracles or from the
walk-on-spheres sampler; Monte Carlo profiles are first trimmed to the radii
whose estimates are statistically informative, since an empirical zero at a
rarely-hit radius says nothing about the true decay.

An exact zero is a different matter under one empty-tail rule: omega = 0 at
or beyond the largest boundary modulus (DecayProfile.boundary_sup), where
the tail set is empty. There the formula produces +inf, and the estimate
carries a warning saying whether that +inf is meaningful (bounded domain)
or an artifact (non-regular domain). An unbounded boundary has
boundary_sup = inf, so every zero on it is a sampling or rounding zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewPoints, ZeroMeasure
from .geometry import Domain, exact_hm

__all__ = [
    "ProfileEntry",
    "DecayProfile",
    "DecayFit",
    "HardyNumberEstimate",
    "fit_decay",
    "sampling_warnings",
    "estimate_hardy_number",
    "default_grid",
    "oracle_profile",
]

# Monte Carlo profile entries above this relative standard error are dropped
# before the fit (an entry backed by a handful of tail hits has a log-scale
# noise comparable to the slope itself).
MAX_REL_STDERR = 0.05

# the fit runs through the last DEFAULT_WINDOW + 1 informative radii
DEFAULT_WINDOW = 4

# confidence multiplier for the reported halfwidth
_CI_FACTOR = 1.96

# fraction of unterminated walks above which an estimate is flagged
UNRELIABLE_RATIO = 0.01

WARN_ZERO_TAIL = "zero_measure_tail"
WARN_NON_REGULAR = "non_regular_domain"
WARN_BOUNDED = "bounded_domain"
WARN_UNTERMINATED = "unterminated_walks"


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
    boundary_sup: float = math.inf  # sup of boundary moduli
    n_samples: int = 0  # walks behind a Monte Carlo profile
    n_unterminated: int = 0  # walks that exhausted the step budget

    def __post_init__(self) -> None:
        radii = [e.r for e in self.entries]
        # an infinite radius would sit at or beyond any boundary_sup, inf included
        if not all(map(math.isfinite, radii)):
            raise ValueError("profile radii must be finite")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("profile radii must be strictly increasing")
        for e in self.entries:
            if not (0.0 <= e.omega <= 1.0) or e.stderr < 0.0:
                raise ValueError(f"bad profile entry {e!r}")
        if self.source == "oracle":
            omegas = [e.omega for e in self.entries]
            if any(b > a + 1e-12 for a, b in zip(omegas, omegas[1:])):
                raise ValueError("oracle profiles must be non-increasing in r")

    def omegas(self) -> np.ndarray:
        return np.array([e.omega for e in self.entries])


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power law omega ~ exp(-log_intercept) * r**(-q).

    The fitted line is log(1/omega) = q * log(r) + log_intercept, so
    log_intercept is minus the log of the amplitude. stderr is the
    delta-method standard error of q (0 for oracle profiles).
    """

    q: float
    log_intercept: float
    residual: float  # max abs deviation in log space
    fit_range: tuple[float, float]
    n_points: int
    stderr: float


@dataclass(frozen=True)
class HardyNumberEstimate:
    value: float  # math.inf marks an empty tail
    tail_window: int
    ci_halfwidth: float  # 95% half-width on value
    warnings: tuple[str, ...] = ()
    used_radii: tuple[float, float] | None = None


def _informative_entries(profile: DecayProfile, tail_window: int) -> list[ProfileEntry]:
    """The positive entries (r > 0 and 0 < omega < 1: both logs are finite,
    and omega = 1 says nothing about the decay) up to the first whose relative
    standard error exceeds MAX_REL_STDERR, keeping at least tail_window + 1 of
    them when that many are positive. Oracle entries carry no stderr and are
    all kept."""
    positive = [e for e in profile.entries if e.r > 0.0 and 0.0 < e.omega < 1.0]
    kept = 0
    for e in positive:
        if e.stderr / e.omega > MAX_REL_STDERR:
            break
        kept += 1
    used = positive[:max(kept, min(tail_window + 1, len(positive)))]
    if len(used) < 2:
        raise TooFewPoints("fewer than two informative profile entries")
    return used


def check_tail_window(tail_window: int) -> None:
    """Raise ValueError unless the fit window spans at least two entries."""
    if tail_window < 1:
        raise ValueError("tail_window must be >= 1")


def fit_decay(profile: DecayProfile, tail_window: int = DEFAULT_WINDOW) -> DecayFit:
    """Least-squares line through (log r, log 1/omega) over the last
    tail_window + 1 informative entries.

    A zero at or beyond profile.boundary_sup, where the tail set is empty,
    means omega vanishes faster than any power: the fit is q = inf, with
    log_intercept = inf (zero amplitude). On a non-regular domain that zero is
    an artifact of the boundary, not a decay rate, and ZeroMeasure is raised,
    as it is for a profile that is zero everywhere for no structural reason.
    """
    check_tail_window(tail_window)
    zeros = [e for e in profile.entries if e.omega == 0.0]
    structural = any(e.r >= profile.boundary_sup for e in zeros)
    if structural and profile.domain_regular is not False:
        span = (profile.entries[0].r, profile.entries[-1].r)
        return DecayFit(math.inf, math.inf, 0.0, span, len(profile.entries), 0.0)
    if structural:
        raise ZeroMeasure("the tail measure vanishes on a non-regular domain; no decay rate to fit")
    if len(zeros) == len(profile.entries):
        raise ZeroMeasure("profile is identically zero; no decay rate to fit")
    used = _informative_entries(profile, tail_window)[-(tail_window + 1):]
    log_r = np.log([e.r for e in used])
    log_inv = -np.log([e.omega for e in used])
    q, intercept = np.polyfit(log_r, log_inv, 1)
    residual = float(np.max(np.abs(q * log_r + intercept - log_inv)))
    # The walks beyond r_j are a subset of those beyond r_i <= r_j, so
    # Cov(log omega_i, log omega_j) = (stderr_i / omega_i)**2; c holds the
    # least-squares slope weights, q = c @ log_inv.
    rel2 = np.array([(e.stderr / e.omega) ** 2 for e in used])
    k = np.arange(len(used))
    dx = log_r - log_r.mean()
    c = dx / (dx @ dx)
    var = float(c @ rel2[np.minimum.outer(k, k)] @ c)
    return DecayFit(
        q=float(q),
        log_intercept=float(intercept),
        residual=residual,
        fit_range=(used[0].r, used[-1].r),
        n_points=len(used),
        stderr=math.sqrt(max(var, 0.0)),  # rounding can dip below 0 when var is ~0
    )


def sampling_warnings(profile: DecayProfile) -> list[str]:
    """The warnings every fit to this profile carries: unterminated_walks when
    more than UNRELIABLE_RATIO of the walks exhausted their step budget, since
    the fit then sees only the walks that found the boundary."""
    if profile.n_unterminated > UNRELIABLE_RATIO * profile.n_samples:
        return [WARN_UNTERMINATED]
    return []


def estimate_hardy_number(profile: DecayProfile,
                          tail_window: int = DEFAULT_WINDOW) -> HardyNumberEstimate:
    """The decay exponent of fit_decay, with a 95% half-width and warnings.

    Where the tail is empty -- fit_decay returns q = inf or raises
    ZeroMeasure -- the estimate is +inf with warnings saying whether that is
    meaningful (bounded domain) or an artifact (non-regular domain). The
    sampling_warnings of the profile come first.
    """
    warnings = sampling_warnings(profile)
    try:
        fit = fit_decay(profile, tail_window)
    except ZeroMeasure:
        fit = None
    if fit is not None and math.isfinite(fit.q):
        return HardyNumberEstimate(
            value=fit.q,
            tail_window=tail_window,
            ci_halfwidth=_CI_FACTOR * fit.stderr,
            warnings=tuple(warnings),
            used_radii=fit.fit_range,
        )
    if profile.domain_regular is False:
        warnings.append(WARN_NON_REGULAR)
    if profile.domain_bounded:
        warnings.append(WARN_BOUNDED)
    warnings.append(WARN_ZERO_TAIL)
    return HardyNumberEstimate(math.inf, tail_window, 0.0, tuple(warnings))


def default_grid(d: Domain) -> list[float]:
    """Geometric radius grid 2*max(1, |basepoint|) * 2**k, k = 0..12."""
    r0 = 2.0 * max(1.0, abs(d.basepoint))
    return [r0 * 2.0**k for k in range(13)]


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
