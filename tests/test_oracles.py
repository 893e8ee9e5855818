"""Closed-form harmonic measure and Green's function checks."""

import math

import mpmath
import numpy as np
import pytest

from hardynum import (
    Disk,
    DiskExterior,
    Domain,
    HalfPlane,
    Sector,
    UnsupportedShape,
    exact_green,
    exact_hm,
)

# frozen reference values, computed once from the closed forms
HALFPLANE_R10 = 0.06345103486110704
SECTOR_HALFPI_R10 = 0.006365985529816376


def test_halfplane_frozen_values():
    d = HalfPlane(1.0)
    assert exact_hm(d, 10.0) == pytest.approx(HALFPLANE_R10, rel=1e-15)
    # at r = |a| = 1 the two boundary rays split the measure evenly
    assert exact_hm(d, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert exact_hm(d, 0.0) == 1.0


def test_sector_frozen_value():
    d = Sector(math.pi / 2, 1.0)
    assert exact_hm(d, 10.0) == pytest.approx(SECTOR_HALFPI_R10, rel=1e-13)
    assert exact_hm(d, 0.0) == 1.0


@pytest.mark.parametrize("d, power", [
    (HalfPlane(1.0), 1),
    (HalfPlane(2.0 - 3.0j), 1),
    (Sector(math.pi / 2, 1.0), 2),
    (Sector(math.pi / 2, 1.5 + 0.5j), 2),
], ids=repr)
def test_tail_against_mpmath_far_out(d, power):
    # 50-digit mpmath of the closed form, through r = 1e12: omega falls to
    # 1e-25 there, and a form that cancels would lose every digit
    radii = np.geomspace(0.5, 1e12, 50)
    arr = exact_hm(d, radii)
    with mpmath.workdps(50):
        a = mpmath.mpc(d.basepoint.real, d.basepoint.imag) ** power
        x, y = a.real, a.imag
        for r, got in zip(radii, arr):
            rp = mpmath.mpf(float(r)) ** power
            truth = 1 - (mpmath.atan((rp - y) / x) + mpmath.atan((rp + y) / x)) / mpmath.pi
            for value in (got, exact_hm(d, float(r))):
                assert abs(value - truth) <= 1e-13 * truth, r


def test_sector_agrees_with_halfplane_pullback():
    # z -> z^(pi/opening) maps the sector onto the half-plane and sends
    # the tail past r to the tail past r^(pi/opening)
    for opening in (math.pi / 3, math.pi / 2, math.pi, 1.7 * math.pi, 2 * math.pi):
        k = math.pi / opening
        for r in (2.0, 10.0, 100.0):
            lhs = exact_hm(Sector(opening, 1.0), r)
            rhs = exact_hm(HalfPlane(1.0), r**k)
            assert lhs == pytest.approx(rhs, rel=1e-12), (opening, r)


def test_hm_monotone_and_in_unit_interval():
    rng = np.random.default_rng(21)
    domains = [
        HalfPlane(1.0),
        HalfPlane(2.0 + 3.0j),
        Sector(math.pi / 2),
        Sector(2 * math.pi, 0.25),
        Disk(2.0),
        DiskExterior(1.0),
    ]
    for d in domains:
        radii = np.sort(rng.uniform(0.0, 50.0, size=30))
        vals = [exact_hm(d, float(r)) for r in radii]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_halfplane_tail_decay_exponent_one():
    # r * omega(r) approaches a constant: slope of log(1/omega) vs log(r) is 1
    d = HalfPlane(1.0)
    v1, v2 = exact_hm(d, 1e5), exact_hm(d, 2e5)
    slope = math.log(v1 / v2) / math.log(2.0)
    assert slope == pytest.approx(1.0, abs=1e-9)


def test_slit_plane_decay_exponent_half():
    d = Sector(2 * math.pi, 1.0)
    v1, v2 = exact_hm(d, 1e6), exact_hm(d, 4e6)
    assert v1 / v2 == pytest.approx(2.0, rel=1e-3)


def test_disk_and_exterior_step_values():
    assert exact_hm(Disk(1.0), 0.5) == 1.0
    assert exact_hm(Disk(1.0), 1.0) == 0.0
    assert exact_hm(Disk(1.0), 3.0) == 0.0
    assert exact_hm(DiskExterior(1.0), 0.5) == 1.0
    assert exact_hm(DiskExterior(1.0), 2.0) == 0.0


def test_offcenter_disk_inside_band_unsupported():
    d = Disk(1.0, basepoint=0.5, center=0.5)  # boundary moduli span [0.5, 1.5]
    assert exact_hm(d, 0.25) == 1.0
    assert exact_hm(d, 2.0) == 0.0
    with pytest.raises(UnsupportedShape):
        exact_hm(d, 1.0)


def test_generic_domain_has_no_oracle():
    class UpperHalfPlane(Domain):
        basepoint = 1j

    g = UpperHalfPlane()
    with pytest.raises(UnsupportedShape):
        exact_hm(g, 2.0)
    with pytest.raises(UnsupportedShape):
        g.decay_exponent
    with pytest.raises(UnsupportedShape, match="covering map"):
        g._log_modulus(0.5, 0.5, 0.5)
    assert not g.odd_mirror


# ---- Green's function -------------------------------------------------------


def test_halfplane_green_basic_properties():
    d = HalfPlane(1.0 + 0.5j)
    a = d.basepoint
    assert exact_green(d, a + 0.3) > 0.0
    # vanishes on the boundary and decays at infinity
    assert exact_green(d, 2.0j) == pytest.approx(0.0, abs=1e-15)
    assert exact_green(d, 1e9 + 5j) == pytest.approx(0.0, abs=1e-8)
    # symmetry in pole and argument
    w = 3.0 - 1.0j
    assert exact_green(d, w) == pytest.approx(
        exact_green(HalfPlane(w), a), rel=1e-13
    )


def test_disk_green_centered_formula():
    d = Disk(2.0, basepoint=0.0)
    for m in (0.5, 1.0, 1.9):
        assert exact_green(d, m + 0j) == pytest.approx(math.log(2.0 / m), rel=1e-14)
    assert exact_green(d, 2.0 + 0j) == pytest.approx(0.0, abs=1e-15)
    assert exact_green(d, 5.0 + 0j) == 0.0  # extended by zero outside


def test_sector_green_matches_halfplane_pullback():
    opening = math.pi / 2
    k = math.pi / opening
    d = Sector(opening, 1.0)
    for w in (2.0 + 0.5j, 0.5 + 0.2j, 4.0 - 1.0j):
        if not d.contains(w):
            continue
        expected = exact_green(HalfPlane(1.0), w**k)
        assert exact_green(d, w) == pytest.approx(expected, rel=1e-12)


def test_green_zero_outside_domain():
    assert exact_green(HalfPlane(1.0), -2.0 + 1j) == 0.0
    assert exact_green(Sector(math.pi / 2, 1.0), -1.0 + 0j) == 0.0


def test_decay_exponents():
    assert HalfPlane(1.0).decay_exponent == 1.0
    assert Sector(math.pi / 2).decay_exponent == 2.0
    assert Sector(2 * math.pi).decay_exponent == 0.5
    assert Disk(1.0).decay_exponent == math.inf
    assert DiskExterior(1.0).decay_exponent == math.inf


# ---- array path ---------------------------------------------------------------

ARRAY_DOMAINS = (HalfPlane(1.0 + 0.5j), Sector(math.pi / 2, 1.0), Sector(2 * math.pi, 2.0 + 1.0j),
                 Disk(2.0, basepoint=0.5 + 0.2j, center=0.3j), Disk(2.0, basepoint=0.0))


def test_scalar_tail_values_are_pinned():
    # a radius takes math-module arithmetic and gives these exact floats,
    # each within an ulp of its 50-digit value
    hm = ((HalfPlane(1.0 + 0.5j), 3.7, 0.1708140132778468),
          (Sector(2 * math.pi, 1.0), 123.5, 0.05713188481985686),
          (Sector(2 * math.pi, 2.0 + 1.0j), 0.25, 0.7987047951439694))
    for d, r, value in hm:
        assert type(exact_hm(d, r)) is float and exact_hm(d, r) == value


def _green_reference(d, w):
    # the closed forms one point at a time, in math-module arithmetic
    w = complex(w)
    if not d.contains(w):
        return 0.0
    if isinstance(d, Disk):
        a, u = d.basepoint - d.center, w - d.center
        if u == a:
            return math.inf
        return max(math.log(abs(d.radius**2 - a.conjugate() * u) / (d.radius * abs(u - a))), 0.0)
    a = complex(d.basepoint)
    if isinstance(d, Sector):
        power = math.pi / d.opening
        a, w = a**power, w**power
    if w == a:
        return math.inf
    return max(math.log(abs((w + a.conjugate()) / (w - a))), 0.0)


def _probe_points(d):
    rng = np.random.default_rng(11)
    w = 3.0 * (rng.normal(size=500) + 1j * rng.normal(size=500))
    # the pole, the origin, boundary points and points just off the boundary
    return np.concatenate([w, [d.basepoint, 0j, -2.0 + 0j, 2j, 1e-300 + 1j, 1.0 + 1.0000001j]])


@pytest.mark.parametrize("d", ARRAY_DOMAINS, ids=repr)
def test_green_matches_pointwise_formula(d):
    w = _probe_points(d)
    got = exact_green(d, w)
    assert got.shape == w.shape
    np.testing.assert_allclose(got, [_green_reference(d, x) for x in w], rtol=1e-12, atol=1e-12)
    assert all(type(exact_green(d, x)) is float and exact_green(d, x) == g for x, g in zip(w, got))


@pytest.mark.parametrize("d", [d for d in ARRAY_DOMAINS if not (isinstance(d, Disk) and d.center)],
                         ids=repr)
def test_tail_array_matches_scalar_path(d):
    # off-center disks have no tail measure inside their modulus band
    r = np.concatenate([np.linspace(0.0, 50.0, 501), [1e6, 2.0]])
    got = exact_hm(d, r)
    want = np.array([exact_hm(d, float(x)) for x in r])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # any array-like of radii takes the array path, ints included
    np.testing.assert_array_equal(exact_hm(d, r.tolist()), got)
    np.testing.assert_array_equal(exact_hm(d, [0, 2, 4]), exact_hm(d, np.array([0.0, 2.0, 4.0])))
