"""Exact integral identities linking harmonic measure and the Green's function."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hardynum import (
    Disk,
    DivergentCase,
    HalfPlane,
    Sector,
    baernstein_identity,
    exact_green,
    exact_hm,
    fubini_identity,
    jensen_check,
    run_identity_suite,
    tail_lower_bound,
)
from hardynum import function_norms, identities
from hardynum.identities import (
    SWEEP_ALPHAS,
    SWEEP_RADII,
    _green_circle_integral,
    _tail_log_integral,
)

SCIPY_DOMAINS = (HalfPlane(1.0), Sector(math.pi / 2, 1.0), Sector(2 * math.pi, 1.0))
R_MAX = 1e4  # the truncation radius of the tail and moment integrals


def scipy_quad(fn, a, b, points=()):
    # At large radii the oracles lose digits to cancellation (a log near 0,
    # 1 minus arctans near pi/2), and quad reports that it cannot reach 1e-12;
    # its own error estimate must still stay below a quarter of the 1e-8
    # compared (the worst, the right sector's tail at r = 1024, is 2.1e-9).
    val, err, _info, *message = quad(fn, a, b, points=sorted(points) or None, epsrel=1e-12,
                                     epsabs=0.0, limit=1000, full_output=1)
    assert err <= 2.5e-9 * abs(val), message
    return val


def scipy_circle_integral(d, r, power=1.0, points=()):
    half = 0.5 * getattr(d, "opening", math.pi)
    breaks = {t for t in (-half, half) if -math.pi < t < math.pi} | set(points)
    return scipy_quad(lambda th: exact_green(d, cmath.rect(r, th)) ** power,
                      -math.pi, math.pi, breaks)


# ---- the package's rule against adaptive quadrature ----------------------------


@pytest.mark.parametrize("d", SCIPY_DOMAINS, ids=repr)
def test_circle_and_tail_integrals_match_adaptive_quadrature(d):
    q = d.decay_exponent
    for r in SWEEP_RADII:
        for power in (1.0, *(alpha + 2.0 for alpha in SWEEP_ALPHAS)):
            ref = scipy_circle_integral(d, r, power)
            assert _green_circle_integral(d, r, power) == pytest.approx(ref, rel=1e-8), (r, power)
        ref = scipy_quad(lambda u: exact_hm(d, r * math.exp(u)), 0.0, math.log(R_MAX))
        ref += exact_hm(d, r * R_MAX) / q
        assert _tail_log_integral(d, r) == pytest.approx(ref, rel=1e-8), r


def _record_green(monkeypatch):
    """The list of every array of Green's function values identities evaluates."""
    values = []

    def green(d, z):
        values.append(exact_green(d, z))
        return values[-1]

    monkeypatch.setattr(identities, "exact_green", green)
    return values


@pytest.mark.parametrize("d", (*SCIPY_DOMAINS, Disk(2.0, basepoint=0.0)), ids=repr)
def test_circle_integrals_skip_the_arcs_off_the_domain(d, monkeypatch):
    # g is 0 off the domain: the arcs there take no node, and the arcs inside
    # keep theirs, so the whole-circle rule gives the same integral
    values = _record_green(monkeypatch)
    for r in (1.5, 4.0, 64.0):
        whole = function_norms.quad(lambda t: exact_green(d, r * np.exp(1j * t)),
                                    -math.pi, math.pi, points=d.circle_breaks(r))[0]
        assert _green_circle_integral(d, r) == pytest.approx(whole, rel=1e-13, abs=0.0), r
    assert all(np.all(v > 0.0) for v in values)


@pytest.mark.parametrize("d", (*SCIPY_DOMAINS, Disk(2.0, basepoint=0.0)), ids=repr)
def test_circle_integrals_ask_the_domain_once_per_arc(d, monkeypatch):
    # one array containment test per arc between breaks, for all rows at once;
    # the sector's Green's function masks with contains too, uncounted here
    shapes, in_green = [], []
    contains = type(d).contains

    def counted(self, z):
        if not in_green:
            shapes.append(np.shape(z))
        return contains(self, z)

    def green(d, z):
        in_green.append(True)
        try:
            return exact_green(d, z)
        finally:
            in_green.pop()

    monkeypatch.setattr(type(d), "contains", counted)
    monkeypatch.setattr(identities, "exact_green", green)
    points = d.circle_breaks(4.0)
    arcs = len({-math.pi, math.pi, *(t for t in points if -math.pi < t < math.pi)}) - 1
    for r in (4.0, np.array([[4.0], [8.0], [16.0]])):
        shapes.clear()
        _green_circle_integral(d, r, points=points)
        assert shapes == [(np.size(r),)] * arcs, r


def test_identity_suite_evaluates_no_green_off_the_domain(monkeypatch):
    # the moment exchange integrates blocks of circles at once, each on the
    # arcs inside the domain
    values = _record_green(monkeypatch)
    run_identity_suite()
    assert values and all(np.all(v > 0.0) for v in values)


def scipy_radial(fn, a_mod, p, breaks=()):
    # int r^(p-1) fn(r) dr over (a_mod, R_MAX): in u = log r above
    # max(a_mod, 1), and in r below, where quad's extrapolation copes with the
    # weight's singularity at r = 0
    lo = max(a_mod, 1.0)
    val = scipy_quad(lambda u: math.exp(p * u) * fn(math.exp(u)), math.log(lo), math.log(R_MAX),
                     {math.log(b) for b in breaks if lo < b < R_MAX})
    if a_mod < lo:
        val += scipy_quad(lambda r: r ** (p - 1.0) * fn(r), a_mod, lo, {b for b in breaks if b < lo})
    return val


# the three shapes with basepoint 1 at half their decay exponent, and the
# disk with its pole at the center, whose circle means have a kink at r = 2
MOMENT_CASES = [(d, 0.5 * d.decay_exponent, ()) for d in SCIPY_DOMAINS]
MOMENT_CASES.append((Disk(2.0, basepoint=0.0), 0.5, (2.0,)))


@pytest.mark.parametrize("d, p, breaks", MOMENT_CASES, ids=[repr(d) for d, _, _ in MOMENT_CASES])
def test_moment_integrals_match_adaptive_quadrature(d, p, breaks):
    a_mod = abs(d.basepoint)
    q = d.decay_exponent
    rhs = scipy_radial(lambda t: exact_hm(d, t) * (1.0 - (a_mod / t) ** p), a_mod, p, breaks)
    lhs = scipy_radial(lambda r: scipy_circle_integral(d, r, points=[0.0]), a_mod, p, breaks)
    if math.isfinite(q):
        omega_top = exact_hm(d, R_MAX)
        rhs += omega_top * (R_MAX**p / (q - p) - a_mod**p / q)
        lhs += 2.0 * math.pi * omega_top * R_MAX**p / (q * (q - p))
    report = fubini_identity(d, p)
    assert report.lhs == pytest.approx(lhs, rel=1e-8)
    assert report.rhs == pytest.approx(2.0 * math.pi / p * rhs, rel=1e-8)


# ---- the identities -------------------------------------------------------------


def test_circle_average_matches_tail_integral_on_halfplane():
    d = HalfPlane(1.0)
    for r in SWEEP_RADII:
        report = baernstein_identity(d, r)
        assert report.passed, report
        assert report.relative_error <= report.tolerance


def test_circle_average_identity_on_sector():
    d = Sector(math.pi / 2, 1.0)
    for r in (2.0, 8.0, 64.0):
        report = baernstein_identity(d, r)
        assert report.passed, report


def test_circle_average_identity_disk_exact_case():
    # centered disk of radius 2 probed at r=1: both sides equal log 2 exactly
    report = baernstein_identity(Disk(2.0, basepoint=0.0), 1.0)
    assert report.lhs == pytest.approx(math.log(2.0), rel=1e-12)
    assert report.rhs == pytest.approx(math.log(2.0), rel=1e-12)
    assert report.passed


def test_both_sides_vanish_at_large_radius():
    d = HalfPlane(1.0)
    far = baernstein_identity(d, 1e6)
    assert far.lhs < 1e-5 and far.rhs < 1e-5
    assert far.passed


def test_derivative_of_tail_integral_recovers_measure():
    # d/dr of the tail integral equals -omega(r)/r, scaled to the circle side
    d = HalfPlane(1.0)
    for r in (4.0, 32.0):
        h = r * 1e-5
        lhs_hi = baernstein_identity(d, r + h).lhs
        lhs_lo = baernstein_identity(d, r - h).lhs
        derivative = (lhs_hi - lhs_lo) / (2 * h)
        expected = -exact_hm(d, r) / r
        assert derivative == pytest.approx(expected, rel=1e-2)


def test_moment_exchange_on_halfplane():
    report = fubini_identity(HalfPlane(1.0), p=0.5)
    assert report.passed
    assert report.relative_error <= report.tolerance
    assert report.lhs > 0.0


def test_moment_exchange_divergent_exponent_rejected():
    # the r^(p-1) moment diverges once p reaches the decay exponent
    with pytest.raises(DivergentCase):
        fubini_identity(HalfPlane(1.0), p=1.0)
    with pytest.raises(DivergentCase):
        fubini_identity(HalfPlane(1.0), p=2.0)


def test_moment_exchange_detects_broken_inputs():
    # an intentionally corrupted measure must fail the cross-check
    d = HalfPlane(1.0)
    report = fubini_identity(d, p=0.5, omega_fn=lambda t: 2.0 * exact_hm(d, t))
    assert not report.passed


def test_green_power_mean_inequality_sweep():
    d = HalfPlane(1.0)
    for r in SWEEP_RADII:
        for alpha in SWEEP_ALPHAS:
            report = jensen_check(d, r, alpha)
            assert report.passed, (r, alpha)
            assert report.lhs <= report.rhs * (1.0 + 1e-9)


def test_green_power_mean_equality_for_constant_green():
    # centered disk: the Green's function is constant on centered circles
    report = jensen_check(Disk(2.0, basepoint=0.0), 1.0, alpha=1.0)
    assert report.passed
    assert report.lhs == pytest.approx(report.rhs, rel=1e-12)


def test_green_power_mean_override_hooks():
    d = HalfPlane(1.0)
    # constant boundary data: power mean equals the mean's power exactly
    const = jensen_check(d, 2.0, alpha=1.0, green_fn=lambda theta: 2.0)
    assert const.passed
    assert const.lhs == pytest.approx(const.rhs, rel=1e-12)
    # genuinely varying data leaves a strict gap
    varying = jensen_check(d, 2.0, alpha=0.0, green_fn=lambda theta: 1.0 + theta**2)
    assert varying.passed
    assert varying.relative_error > 1e-3

    with pytest.raises(ValueError):
        jensen_check(d, 2.0, alpha=-1.5)


def test_tail_doubling_bound_sweep():
    d = HalfPlane(1.0)
    for r in SWEEP_RADII:
        report = tail_lower_bound(d, r)
        assert report.passed
        assert report.lhs >= report.rhs * (1.0 - 1e-9)


def test_tail_doubling_bound_trivial_for_bounded_boundary():
    # omega(2r) = 0 once 2r clears the disk boundary, so the bound is 0
    report = tail_lower_bound(Disk(2.0, basepoint=0.0), 1.5)
    assert report.rhs == 0.0
    assert report.passed


def test_suite_composition_and_pass():
    reports = run_identity_suite()
    assert len(reports) == 61
    names = {}
    for rep in reports:
        names[rep.name] = names.get(rep.name, 0) + 1
        assert rep.passed, rep
    assert names == {
        "circle_average_vs_tail": 10,
        "moment_exchange": 1,
        "green_power_mean": 40,
        "tail_doubling_bound": 10,
    }


def test_suite_accepts_other_domains():
    reports = run_identity_suite(Sector(math.pi, 1.0))
    assert all(rep.passed for rep in reports)
