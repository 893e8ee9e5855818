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
    run_identity_suite,
)
from hardynum import function_norms, identities
from hardynum.identities import SWEEP_RADII, _green_circle_integral

SCIPY_DOMAINS = (HalfPlane(1.0), Sector(math.pi / 2, 1.0), Sector(2 * math.pi, 1.0))


def scipy_quad(fn, a, b, points=()):
    # b may be inf, which scipy takes as a whole range of its own, with no
    # points; quad may report that it cannot reach 1e-12, but its own error
    # estimate must stay below a quarter of the 1e-8 compared
    val, err, _info, *message = quad(fn, a, b, points=sorted(points) or None, epsrel=1e-12,
                                     epsabs=0.0, limit=1000, full_output=1)
    assert err <= 2.5e-9 * abs(val), message
    return val


def scipy_circle_integral(d, r, points=()):
    half = 0.5 * getattr(d, "opening", math.pi)
    breaks = {t for t in (-half, half) if -math.pi < t < math.pi} | set(points)
    return scipy_quad(lambda th: exact_green(d, cmath.rect(r, th)), -math.pi, math.pi, breaks)


# ---- the package's rule against adaptive quadrature ----------------------------


@pytest.mark.parametrize("d", SCIPY_DOMAINS, ids=repr)
def test_circle_and_tail_integrals_match_adaptive_quadrature(d):
    for r in SWEEP_RADII:
        ref = scipy_circle_integral(d, r)
        assert _green_circle_integral(d, r) == pytest.approx(ref, rel=1e-8), r
        ref = scipy_quad(lambda t: exact_hm(d, t) / t, r, math.inf)
        assert baernstein_identity(d, r).lhs == pytest.approx(ref, rel=1e-8), r


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
    # keep theirs, so the whole-circle rule on the same breaks, the boundary
    # crossings and arg(a), gives the same integral
    values = _record_green(monkeypatch)
    for r in (1.5, 4.0, 64.0):
        breaks = [*d.circle_breaks(r), cmath.phase(d.basepoint)]
        whole = function_norms.quad(lambda t: exact_green(d, r * np.exp(1j * t)),
                                    -math.pi, math.pi, points=breaks)[0]
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
    # int r^(p-1) fn(r) dr over (a_mod, inf), one scipy range between each
    # two breaks and one beyond the last; quad's extrapolation copes with the
    # weight's singularity at r = 0
    edges = [a_mod, *sorted(b for b in breaks if b > a_mod), math.inf]
    return sum(scipy_quad(lambda r: r ** (p - 1.0) * fn(r), lo, hi)
               for lo, hi in zip(edges[:-1], edges[1:]))


# the three shapes with basepoint 1 at half their decay exponent, and the
# disk with its pole at the center, whose circle means have a kink at r = 2
MOMENT_CASES = [(d, 0.5 * d.decay_exponent, ()) for d in SCIPY_DOMAINS]
MOMENT_CASES.append((Disk(2.0, basepoint=0.0), 0.5, (2.0,)))


@pytest.mark.parametrize("d, p, breaks", MOMENT_CASES, ids=[repr(d) for d, _, _ in MOMENT_CASES])
def test_moment_integrals_match_adaptive_quadrature(d, p, breaks):
    a_mod = abs(d.basepoint)
    rhs = scipy_radial(lambda t: exact_hm(d, t) * (1.0 - (a_mod / t) ** p), a_mod, p, breaks)
    lhs = scipy_radial(lambda r: scipy_circle_integral(d, r, points=[0.0]), a_mod, p, breaks)
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
    for r in (2.0, 8.0, 64.0, 1e6):
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


def test_moment_exchange_takes_a_far_basepoint():
    # no truncation radius for the basepoint to exceed
    report = fubini_identity(HalfPlane(2e4), p=0.5)
    assert report.passed, report


def test_moment_exchange_near_the_decay_exponent():
    # at p = 0.99 q the radii of the w nodes nearest 0 overflow; they are read
    # at the far radius, where fn t^q has reached its limit
    for d in (HalfPlane(1.0), Sector(2 * math.pi, 1.0)):
        report = fubini_identity(d, p=0.99 * d.decay_exponent)
        assert report.relative_error <= 1e-12, report


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


def test_suite_composition_and_pass():
    reports = run_identity_suite()
    assert len(reports) == 11
    names = {}
    for rep in reports:
        names[rep.name] = names.get(rep.name, 0) + 1
        assert rep.passed, rep
    assert names == {"circle_average_vs_tail": 10, "moment_exchange": 1}


def _failed_with_scaled_tail(monkeypatch, factor):
    # both identities read the half-plane's tail measure
    tail = HalfPlane._tail
    monkeypatch.setattr(HalfPlane, "_tail", lambda self, r: factor * tail(self, r))
    return {rep.name for rep in run_identity_suite() if not rep.passed}


def test_suite_fails_a_tail_closed_form_off_by_1e_8(monkeypatch):
    failed = _failed_with_scaled_tail(monkeypatch, 1.0 + 1e-8)
    assert failed == {"circle_average_vs_tail", "moment_exchange"}


def test_suite_fails_a_tail_closed_form_off_by_1e_12(monkeypatch):
    failed = _failed_with_scaled_tail(monkeypatch, 1.0 + 1e-12)
    assert failed == {"circle_average_vs_tail", "moment_exchange"}


def test_suite_accepts_other_domains():
    # every closed-form unbounded shape, on the axis and off it; the slit's
    # moment exchange runs at half its decay exponent 1/2
    for opening in (None, 0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi):
        for a in (1.0, 1.0 + 0.5j):
            d = HalfPlane(a) if opening is None else Sector(opening, a)
            reports = run_identity_suite(d)
            assert all(rep.passed for rep in reports), reports
