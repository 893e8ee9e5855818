"""Hardy and weighted-Bergman membership from fitted decay exponents.

The covering map of a domain whose harmonic-measure tails decay like
r**(-q) belongs to H^p when p < q and fails to belong when p > q; the
weighted Bergman space A^p_alpha compares p/(alpha+2) against the same
exponent. Near the critical index both memberships are genuinely
undecidable from decay rates alone (either can happen), so the classifiers
return a three-valued verdict with an explicit margin. The exponent is the
DecayFit of hardy_estimator.fit_decay, the fit behind the Hardy number.

Membership verdicts for Bergman spaces are only ever justified through the
embedding H^q into A^p_alpha (valid when p/(alpha+2) <= q <= p); the
divergence direction uses the integral test directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .hardy_estimator import DecayFit, DecayProfile, fit_decay

__all__ = [
    "MembershipQuery",
    "MembershipVerdict",
    "IntegralEstimate",
    "classify_hardy",
    "classify_bergman",
    "criterion_integral",
    "DEFAULT_MARGIN",
]

DEFAULT_MARGIN = 0.05

VERDICT_MEMBER = "member"
VERDICT_NOT_MEMBER = "not_member"
VERDICT_INCONCLUSIVE = "inconclusive"

RATIONALE_DECAY = "decay_sufficient"
RATIONALE_DIVERGES = "integral_diverges"
RATIONALE_NEAR_CRITICAL = "near_critical"
RATIONALE_EMBEDDING = "embedding_sufficient"


@dataclass(frozen=True)
class MembershipQuery:
    p: float
    alpha: float | None = None  # None queries H^p, a number queries A^p_alpha

    def __post_init__(self) -> None:
        if not (self.p > 0):
            raise ValueError("exponent p must be positive")
        if self.alpha is not None and not (self.alpha > -1):
            raise ValueError("weight alpha must be > -1")


@dataclass(frozen=True)
class MembershipVerdict:
    verdict: str
    margin: float
    rationale: str
    critical_ratio: float  # fitted decay exponent q
    query_ratio: float  # p for Hardy, p/(alpha+2) for Bergman


def _three_way(ratio: float, q: float, margin: float, member_rationale: str) -> MembershipVerdict:
    if ratio < q - margin:
        return MembershipVerdict(VERDICT_MEMBER, margin, member_rationale, q, ratio)
    if ratio > q + margin:
        return MembershipVerdict(VERDICT_NOT_MEMBER, margin, RATIONALE_DIVERGES, q, ratio)
    return MembershipVerdict(VERDICT_INCONCLUSIVE, margin, RATIONALE_NEAR_CRITICAL, q, ratio)


def classify_hardy(
    fit: DecayFit, query: MembershipQuery, margin: float = DEFAULT_MARGIN
) -> MembershipVerdict:
    """H^p membership: member when p clears the decay exponent by the margin."""
    return _three_way(query.p, fit.q, margin, RATIONALE_DECAY)


def classify_bergman(
    fit: DecayFit, query: MembershipQuery, margin: float = DEFAULT_MARGIN
) -> MembershipVerdict:
    """A^p_alpha membership via the critical ratio p/(alpha+2).

    The member direction is justified by the embedding of H^q (with
    p/(alpha+2) < q and q <= p handled by picking the exponent inside that
    range); the non-member direction is the divergence of the weighted
    integral test, which shares the same threshold.
    """
    if query.alpha is None:
        raise ValueError("Bergman query needs a weight alpha")
    ratio = query.p / (query.alpha + 2.0)
    return _three_way(ratio, fit.q, margin, RATIONALE_EMBEDDING)


@dataclass(frozen=True)
class IntegralEstimate:
    value: float  # truncated + extrapolated tail; inf when divergent
    truncated: float
    tail: float
    divergent: bool
    skipped_zero_entries: int


def criterion_integral(
    profile: DecayProfile,
    query: MembershipQuery,
    fit: DecayFit | None = None,
    tail_window: int = 4,
) -> IntegralEstimate:
    """Integral test sum: trapezoid of t**(p-1) * omega(t)**beta plus a fitted tail.

    beta is 1 for a Hardy query and alpha + 2 for a Bergman query. The tail
    beyond the profile is extrapolated with the fitted power law and flagged
    divergent when p - q*beta >= 0.
    """
    beta = 1.0 if query.alpha is None else query.alpha + 2.0
    if fit is None:
        fit = fit_decay(profile, tail_window)

    entries = [e for e in profile.entries if e.omega > 0.0]
    skipped = len(profile.entries) - len(entries)
    t = np.array([e.r for e in entries])
    omega = np.array([e.omega for e in entries])
    if t.size >= 2:
        truncated = float(trapezoid(t ** (query.p - 1.0) * omega**beta, t))
    else:
        truncated = 0.0

    power = query.p - fit.q * beta
    if power >= 0.0:
        return IntegralEstimate(math.inf, truncated, math.inf, True, skipped)

    r_max = float(t[-1]) if t.size else profile.entries[-1].r
    # fitted law: omega(t)**beta = exp(-beta*log_intercept) * t**(-q*beta)
    amplitude = math.exp(-beta * fit.log_intercept)
    tail = amplitude * r_max**power / (-power)
    return IntegralEstimate(truncated + tail, truncated, tail, False, skipped)
