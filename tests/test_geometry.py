"""Geometry: shapes, distances, projections, circle crossings, JSON round trips."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardynum import (
    BasepointOutsideDomain,
    DegenerateDomain,
    Disk,
    DiskExterior,
    HalfPlane,
    HardynumError,
    Sector,
    UnsupportedShape,
    domain_from_dict,
    domain_to_dict,
    dump_domain,
    load_domain,
)

SHAPES = [
    HalfPlane(1.0),
    HalfPlane(3.0 + 2.0j),
    Sector(math.pi / 2),
    Sector(2 * math.pi, 0.5),
    Disk(1.0),
    Disk(2.0, 0.5 + 0.25j, 0.5),
    DiskExterior(1.0),
    DiskExterior(0.5, 3.0 - 1.0j, 1.0j),
]


def _interior_points(d, rng, n=40):
    """Rejection-sample interior points near the basepoint."""
    pts = []
    scale = max(1.0, abs(d.basepoint))
    while len(pts) < n:
        z = d.basepoint + complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * scale
        if d.contains(z):
            pts.append(z)
    return pts


# ---- validation ----------------------------------------------------------


def test_degenerate_shapes_rejected():
    with pytest.raises(DegenerateDomain):
        Sector(0.0)
    with pytest.raises(DegenerateDomain):
        Sector(-1.0)
    with pytest.raises(DegenerateDomain):
        Sector(2 * math.pi + 0.1)
    with pytest.raises(DegenerateDomain):
        Disk(0.0)
    with pytest.raises(DegenerateDomain):
        DiskExterior(-2.0)


def test_basepoint_must_be_inside():
    with pytest.raises(BasepointOutsideDomain):
        HalfPlane(-1.0)
    with pytest.raises(BasepointOutsideDomain):
        Sector(math.pi / 2, basepoint=-1.0)
    with pytest.raises(BasepointOutsideDomain):
        Disk(1.0, basepoint=2.0)
    with pytest.raises(BasepointOutsideDomain):
        DiskExterior(1.0, basepoint=0.5)


# ---- distance / projection correctness -----------------------------------


def test_inscribed_circle_stays_inside():
    # the ball of radius distances(z) about an interior point is inside
    rng = np.random.default_rng(11)
    angles = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    for d in SHAPES:
        for z in _interior_points(d, rng, n=25):
            rad = d.distances(np.array([z]))[0] * (1.0 - 1e-9)
            if rad <= 0:
                continue
            probes = z + rad * np.exp(1j * angles)
            assert all(d.contains(w) for w in probes), (d, z)


def test_projection_lies_on_boundary_at_stated_distance():
    rng = np.random.default_rng(12)
    for d in SHAPES:
        pts = np.array(_interior_points(d, rng, n=25), dtype=complex)
        dist = d.distances(pts)
        proj = d.projections(pts)
        scale = np.maximum(1.0, np.abs(pts))
        assert np.allclose(np.abs(proj - pts), dist, rtol=1e-12, atol=1e-12)
        # a boundary point is at distance zero from the boundary
        assert np.all(np.abs(d.distances(proj)) <= 1e-9 * scale)


SECTOR_OPENINGS = [math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]


def _sector_rays(opening):
    half = opening / 2
    return [complex(math.cos(half), math.sin(half)), complex(math.cos(half), -math.sin(half))]


def _brute_distance(z, d):
    """Distance from z to a sampled boundary of d: the two rays of a sector,
    the imaginary axis as the rays from 0 through +-i, or the circle. The
    distance to each piece is unimodal in its parameter, so zooming in around
    the best sample converges to it."""
    if isinstance(d, (Disk, DiskExterior)):
        pieces = [(lambda t: d.center + d.radius * np.exp(1j * t), -math.inf, 2 * math.pi)]
    else:
        rays = [1j, -1j] if isinstance(d, HalfPlane) else _sector_rays(d.opening)
        pieces = [(lambda t, u=u: t * u, 0.0, 4.0 * abs(z) + 1.0) for u in rays]
    best = math.inf
    for curve, floor, hi in pieces:
        lo = 0.0
        for _ in range(8):
            t = np.linspace(lo, hi, 1001)
            dist = np.abs(z - curve(t))
            k = int(np.argmin(dist))
            width = hi - lo
            lo, hi = max(t[k] - width / 500, floor), t[k] + width / 500
        best = min(best, float(dist.min()))
    return best


def _sector_probe_points(opening, rng):
    rays = _sector_rays(opening)
    pts = list(3.0 * (rng.normal(size=40) + 1j * rng.normal(size=40)))
    # on the real axis with both signs of zero
    pts += [complex(x, y) for x in (-2.0, -0.5, 0.5, 2.0) for y in (0.0, -0.0)]
    # within 1e-9 of either ray, on both sides of it
    for u in rays:
        for t in (0.3, 1.0, 7.0):
            for off in (1e-9, -1e-9, 1e-10, -3e-12):
                pts.append(t * u + off * 1j * u)
    return np.array(pts, dtype=complex), rays


@pytest.mark.parametrize("opening", SECTOR_OPENINGS)
def test_sector_distances_and_projections_match_brute_force(opening):
    d = Sector(opening)
    pts, rays = _sector_probe_points(opening, np.random.default_rng(21))
    behind = [all((z * u.conjugate()).real < 0 for u in rays) for z in pts]
    assert any(behind)  # points past the vertex of both rays are covered
    dist = d.distances(pts)
    proj = d.projections(pts)
    scale = np.maximum(1.0, np.abs(pts))
    ref = np.array([_brute_distance(z, d) for z in pts])
    assert np.all(np.abs(dist - ref) <= 1e-12 * scale)
    # the projection is at the stated distance and lies on a ray
    assert np.all(np.abs(np.abs(pts - proj) - dist) <= 1e-12 * scale)
    on_ray = np.min([np.abs(proj - np.abs(proj) * u) for u in rays], axis=0)
    assert np.all(on_ray <= 1e-12 * scale)


def test_halfplane_distance_is_real_part():
    d = HalfPlane(1.0)
    zs = np.array([1.0 + 5j, 0.25 - 3j, 7.0 + 0j])
    assert np.array_equal(d.distances(zs), zs.real)
    assert np.array_equal(d.projections(zs), 1j * zs.imag)


def test_disk_exterior_projection_points_at_circle():
    d = DiskExterior(2.0, basepoint=5.0)
    z = np.array([5.0 + 0j, -1.0 + 4j])
    proj = d.projections(z)
    assert np.allclose(np.abs(proj), 2.0, rtol=1e-14)


@pytest.mark.parametrize("d", [s for s in SHAPES if isinstance(s, (Disk, DiskExterior))], ids=repr)
def test_center_projects_onto_the_circle(d):
    # the whole circle is nearest to the center; its projection is center + radius
    zs = np.array([d.center, d.center + 0.5j])
    proj = d.projections(zs)
    assert proj[0] == d.center + d.radius
    assert abs(abs(proj[1] - d.center) - d.radius) <= 1e-15 * d.radius


_COORDS = st.floats(-4.0, 4.0)
_POINTS = st.builds(complex, _COORDS, _COORDS)
_RADII = st.floats(0.1, 4.0)
_SHAPES = st.one_of(
    st.builds(HalfPlane, st.builds(complex, _RADII, _COORDS)),
    st.builds(Sector, st.floats(0.1, 2 * math.pi), _RADII),
    st.builds(lambda r, c: Disk(r, c + 0.5 * r, c), _RADII, _POINTS),
    st.builds(lambda r, c: DiskExterior(r, c + 2.0 * r, c), _RADII, _POINTS),
)


@settings(max_examples=100, deadline=None)
@given(d=_SHAPES,
       offsets=st.lists(st.builds(complex, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
                        max_size=16))
def test_distances_and_projections_match_brute_force(d, offsets):
    # every built-in shape against a sampled boundary: the distance, the
    # projection at that distance, and the projection on the boundary
    zs = np.array([z for z in (d.basepoint + w for w in [0j, *offsets]) if d.contains(z)])
    dist = d.distances(zs)
    # the constructor put the basepoint inside, so the walks start at a
    # positive finite distance; wos relies on this and does not re-check it
    assert zs[0] == d.basepoint
    assert math.isfinite(dist[0]) and dist[0] > 0.0
    proj = d.projections(zs)
    tol = 1e-12 * np.maximum(1.0, np.abs(zs))
    assert np.all(np.abs(dist - [_brute_distance(z, d) for z in zs]) <= tol)
    assert np.all(np.abs(np.abs(zs - proj) - dist) <= tol)
    assert np.all(np.array([_brute_distance(w, d) for w in proj]) <= tol)


# ---- structure flags --------------------------------------------------------


def test_structure_flags():
    assert HalfPlane(1.0).bounded is False
    assert HalfPlane(1.0).regular is True
    assert Disk(1.0).bounded is True
    assert DiskExterior(1.0).regular is False
    assert DiskExterior(1.0).simply_connected is False
    assert Sector(2 * math.pi).simply_connected is True


def test_boundary_modulus_sup():
    assert HalfPlane(1.0).boundary_modulus_sup() == math.inf
    assert Disk(2.0).boundary_modulus_sup() == 2.0
    assert Disk(1.0, 3.0, 3.0).boundary_modulus_sup() == 4.0
    assert DiskExterior(1.0).boundary_modulus_sup() == 1.0


@pytest.mark.parametrize("center", [1.5 + 1.0j, 0.5j, -2.0 + 0.0j], ids=repr)
def test_offcenter_circle_breaks_solve_the_crossing_equation(center):
    # two crossings strictly inside the band of boundary moduli, none outside
    # it; at -2 the crossings lie either side of arg = +-pi, where they wrap
    d = Disk(1.0, basepoint=center, center=center)
    lo, hi = d.hm_breaks
    for r in np.linspace(lo, hi, 7)[1:-1]:
        angles = d.circle_breaks(r)
        assert len(angles) == 2 and angles == sorted(angles)
        for t in angles:
            assert -math.pi < t < math.pi
            assert abs(abs(r * cmath.exp(1j * t) - center) - d.radius) <= 1e-12
    for r in (0.5 * lo, 2.0 * hi):
        assert d.circle_breaks(r) == []


# ---- JSON -------------------------------------------------------------------


def test_json_round_trip_all_shapes():
    for d in SHAPES:
        back = domain_from_dict(domain_to_dict(d))
        assert type(back) is type(d)
        assert back.basepoint == d.basepoint
        if isinstance(d, Sector):
            assert back.opening == d.opening
        if isinstance(d, (Disk, DiskExterior)):
            assert back.radius == d.radius
            assert back.center == d.center


def test_json_file_round_trip(tmp_path):
    d = Sector(math.pi / 2, 1.0 + 0.5j)
    path = tmp_path / "dom.json"
    dump_domain(d, str(path))
    data = json.loads(path.read_text())
    assert data["shape"] == "sector"
    back = load_domain(str(path))
    assert isinstance(back, Sector)
    assert back.opening == d.opening and back.basepoint == d.basepoint


def test_json_rejects_unknown_shape():
    with pytest.raises(UnsupportedShape):
        domain_from_dict({"shape": "pacman", "basepoint": [1.0, 0.0]})


@pytest.mark.parametrize("data, unread", [
    ({"shape": "disk", "radius": 1, "centre": [5, 0]}, "'centre'"),
    ({"shape": "half_plane", "basepiont": [2.0, 0.0]}, "'basepiont'"),
    ({"shape": "half_plane", "opening": 1.0}, "'opening'"),
    ({"shape": "sector", "opening": 1.0, "radius": 1.0}, "'radius'"),
], ids=["centre", "basepiont", "half_plane_opening", "sector_radius"])
def test_json_rejects_fields_the_shape_does_not_read(data, unread):
    # an unread field would otherwise fall back to a default without a word
    with pytest.raises(HardynumError, match=unread):
        domain_from_dict(data)


@pytest.mark.parametrize("data, default", [
    ({"shape": "half_plane"}, HalfPlane()),
    ({"shape": "sector", "opening": math.pi / 2}, Sector(math.pi / 2)),
    ({"shape": "disk", "radius": 2.0}, Disk(2.0)),
    ({"shape": "disk_exterior", "radius": 1.0}, DiskExterior(1.0)),
], ids=["half_plane", "sector", "disk", "disk_exterior"])
def test_json_without_basepoint_takes_the_constructor_default(data, default):
    d = domain_from_dict(data)
    assert d.basepoint == {"half_plane": 1, "sector": 1, "disk": 0, "disk_exterior": 2}[d.shape]
    assert domain_to_dict(d) == domain_to_dict(default)


def test_json_scalar_basepoint_accepted():
    d = domain_from_dict({"shape": "half_plane", "basepoint": 2.0})
    assert d.basepoint == 2.0 + 0j
