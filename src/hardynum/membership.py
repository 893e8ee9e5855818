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

from dataclasses import dataclass

from .function_norms import check_exponents
from .hardy_estimator import DecayFit

__all__ = [
    "MembershipQuery",
    "MembershipVerdict",
    "classify_hardy",
    "classify_bergman",
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
        check_exponents(self.p, 0.0 if self.alpha is None else self.alpha)


@dataclass(frozen=True)
class MembershipVerdict:
    verdict: str
    margin: float
    rationale: str
    critical_ratio: float  # fitted decay exponent q
    query_ratio: float  # p for Hardy, p/(alpha+2) for Bergman


def _three_way(ratio: float, q: float, member_rationale: str) -> MembershipVerdict:
    margin = DEFAULT_MARGIN
    if ratio < q - margin:
        return MembershipVerdict(VERDICT_MEMBER, margin, member_rationale, q, ratio)
    if ratio > q + margin:
        return MembershipVerdict(VERDICT_NOT_MEMBER, margin, RATIONALE_DIVERGES, q, ratio)
    return MembershipVerdict(VERDICT_INCONCLUSIVE, margin, RATIONALE_NEAR_CRITICAL, q, ratio)


def classify_hardy(fit: DecayFit, query: MembershipQuery) -> MembershipVerdict:
    """H^p membership: member when p clears the decay exponent by the margin."""
    return _three_way(query.p, fit.q, RATIONALE_DECAY)


def classify_bergman(fit: DecayFit, query: MembershipQuery) -> MembershipVerdict:
    """A^p_alpha membership via the critical ratio p/(alpha+2).

    The member direction is justified by the embedding of H^q (with
    p/(alpha+2) < q and q <= p handled by picking the exponent inside that
    range); the non-member direction is the divergence of the weighted
    integral test, which shares the same threshold.
    """
    if query.alpha is None:
        raise ValueError("Bergman query needs a weight alpha")
    ratio = query.p / (query.alpha + 2.0)
    return _three_way(ratio, fit.q, RATIONALE_EMBEDDING)
