"""Geometry: shapes, distances, projections, affine maps, JSON round trips."""

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
    MappedDomain,
    Sector,
    TailQuery,
    UnsupportedShape,
    ZeroScale,
    affine_image,
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


def test_tail_query_validation():
    TailQuery(0.0)
    TailQuery(10.0)
    with pytest.raises(ValueError):
        TailQuery(-1.0)
    with pytest.raises(ValueError):
        TailQuery(math.inf)
    with pytest.raises(ValueError):
        TailQuery(math.nan)


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


def _brute_ray_distance(z, rays):
    # minimum over sampled points t*u, t >= 0, of both rays; the distance is
    # convex in t, so zooming in around the best sample converges to it
    best = math.inf
    for u in rays:
        lo, hi = 0.0, 4.0 * abs(z) + 1.0
        for _ in range(8):
            t = np.linspace(lo, hi, 1001)
            dist = np.abs(z - t * u)
            k = int(np.argmin(dist))
            width = hi - lo
            lo, hi = max(t[k] - width / 500, 0.0), t[k] + width / 500
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
    ref = np.array([_brute_ray_distance(z, rays) for z in pts])
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


# ---- affine maps -----------------------------------------------------------


def test_affine_image_preserves_contains():
    rng = np.random.default_rng(14)
    for d in SHAPES:
        for _ in range(6):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(a) < 0.1:
                a = 1.5j
            b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            img = affine_image(d, a, b)
            assert img.basepoint == a * d.basepoint + b
            for z in _interior_points(d, rng, n=8):
                assert img.contains(a * z + b)
            # points outside map to points outside
            for _ in range(8):
                w = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
                assert d.contains(w) == img.contains(a * w + b)


def test_affine_closed_families():
    img = affine_image(Disk(1.0, 0.5), 2.0j, 1.0)
    assert isinstance(img, Disk)
    assert img.radius == 2.0
    assert img.center == 1.0
    assert img.basepoint == 1.0 + 1.0j

    img = affine_image(DiskExterior(1.0), 3.0, 0.0)
    assert isinstance(img, DiskExterior) and img.radius == 3.0

    assert isinstance(affine_image(HalfPlane(1.0), 2.0, 5.0j), HalfPlane)
    assert isinstance(affine_image(Sector(math.pi), 0.5, 0.0), Sector)
    # maps that move the defining rays fall back to the wrapped form
    assert isinstance(affine_image(HalfPlane(1.0), 1.0j, 0.0), MappedDomain)
    assert isinstance(affine_image(Sector(math.pi), 1.0, 1.0), MappedDomain)


def test_affine_zero_scale_rejected():
    with pytest.raises(ZeroScale):
        affine_image(HalfPlane(1.0), 0.0, 1.0)


_COORDS = st.floats(-4.0, 4.0)
_POINTS = st.builds(complex, _COORDS, _COORDS)
_RADII = st.floats(0.1, 4.0)
_SHAPES = st.one_of(
    st.builds(HalfPlane, st.builds(complex, _RADII, _COORDS)),
    st.builds(Sector, st.floats(0.1, 2 * math.pi), _RADII),
    st.builds(lambda r, c: Disk(r, c + 0.5 * r, c), _RADII, _POINTS),
    st.builds(lambda r, c: DiskExterior(r, c + 2.0 * r, c), _RADII, _POINTS),
)
# positive reals keep half-planes and sectors in their closed families
_SCALES = st.one_of(_RADII, st.builds(cmath.rect, _RADII, st.floats(-math.pi, math.pi)))


def _unique_projection(d, zs):
    """Points off the set where two boundary points are nearest (the bisector
    of a sector, the center of a disk), where the projection is well defined."""
    scale = np.maximum(1.0, np.abs(zs))
    if isinstance(d, Sector):
        return np.abs(zs.imag) > 1e-9 * scale
    if isinstance(d, (Disk, DiskExterior)):
        return np.abs(zs - d.center) > 1e-9 * scale
    return np.ones(zs.shape, dtype=bool)


@settings(max_examples=100, deadline=None)
@given(d=_SHAPES, a=_SCALES, b=st.one_of(st.just(0j), _POINTS),
       offsets=st.lists(st.builds(complex, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
                        max_size=16))
def test_affine_image_maps_distances_and_projections(d, a, b, offsets):
    # built-in images and MappedDomain alike: distances scale by |a| and
    # nearest boundary points map along with the domain
    img = affine_image(d, a, b)
    zs = np.array([z for z in (d.basepoint + w for w in [0j, *offsets]) if d.contains(z)])
    ws = a * zs + b
    tol = 1e-12 * np.maximum(1.0, np.abs(zs))
    assert np.all(np.abs(img.distances(ws) - abs(a) * d.distances(zs)) <= tol)
    unique = _unique_projection(d, zs)
    gap = np.abs(img.projections(ws[unique]) - (a * d.projections(zs[unique]) + b))
    assert np.all(gap <= tol[unique])


def test_mapped_domain_scales_distances_exactly():
    base = HalfPlane(1.0)
    img = affine_image(base, 2.0j, 0.0)  # rotated, stays exact
    zs = np.array([1.0 + 2j, 3.0 - 1j, 0.5 + 0j])
    assert np.allclose(img.distances(2.0j * zs), 2.0 * base.distances(zs), rtol=1e-14)
    assert img.bounded == base.bounded
    assert img.regular == base.regular
    assert img.simply_connected == base.simply_connected


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


def test_json_rejects_unknown_shape_and_generic():
    with pytest.raises(UnsupportedShape):
        domain_from_dict({"shape": "pacman", "basepoint": [1.0, 0.0]})
    rotated = affine_image(HalfPlane(1.0), 1.0j, 0.0)  # a MappedDomain
    with pytest.raises(UnsupportedShape):
        domain_to_dict(rotated)


def test_json_scalar_basepoint_accepted():
    d = domain_from_dict({"shape": "half_plane", "basepoint": 2.0})
    assert d.basepoint == 2.0 + 0j
