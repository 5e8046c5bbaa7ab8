"""Geometry kernel tests.

Frozen numeric expectations here were derived independently before the fast
implementations existed: circumcenters by solving the two perpendicular
bisector equations by hand, hulls by inspection.  The fast code has to come
to them, not the other way round.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gathersim.geometry import (
    CONCAVE,
    CONVEX,
    STRAIGHT,
    DegenerateHull,
    Point,
    Polygon,
    _segment_distance,
    _shuffle,
    collinear,
    convex_hull,
    dist,
    hull_boundary_contains,
    make_sector_pair,
    on_circle,
    point_between_collinear,
    point_on_segment,
    points_coincide,
    sector_contains,
    smallest_enclosing_circle,
    strictly_inside_circle,
)


# Circumcenter of {(0,0),(1,0),(0.5,0.8660254)} from the bisector equations
#   x = 0.5
#   0.25 + y^2 = (y - 0.8660254)^2  =>  y = (0.8660254^2 - 0.25) / (2 * 0.8660254)
EQUILATERAL = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 0.8660254)]
EQUILATERAL_CENTER_Y = 0.2886751320718538
EQUILATERAL_RADIUS = 0.5773502679281463


def _finite_coord():
    return st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=64)


def _points(min_size, max_size):
    return st.lists(
        st.tuples(_finite_coord(), _finite_coord()).map(lambda t: Point(*t)),
        min_size=min_size,
        max_size=max_size,
        unique=True,
    )


# -- coincidence, segments, betweenness -------------------------------------


def test_points_coincide_basic():
    assert points_coincide(Point(0, 0), Point(0, 0))
    assert not points_coincide(Point(0, 0), Point(1, 0))
    assert points_coincide(Point(0, 0), Point(0, 5e-10))


def test_point_on_segment_examples():
    a, b = Point(0, 0), Point(2, 0)
    assert point_on_segment(Point(1, 0), a, b)
    assert not point_on_segment(Point(1, 1), a, b)
    assert not point_on_segment(Point(3, 0), a, b)


def test_point_on_segment_includes_endpoints():
    a, b = Point(1, 2), Point(5, -3)
    assert point_on_segment(a, a, b)
    assert point_on_segment(b, a, b)


def test_point_between_collinear_examples():
    assert point_between_collinear(Point(1, 0), Point(0, 0), Point(2, 0))
    assert not point_between_collinear(Point(0, 0), Point(1, 0), Point(2, 0))
    # endpoint coincidence is not "strictly between"
    assert not point_between_collinear(Point(2, 0), Point(0, 0), Point(2, 0))


def test_point_between_collinear_rejects_off_line():
    with pytest.raises(ValueError):
        point_between_collinear(Point(1, 1), Point(0, 0), Point(2, 0))


def test_collinear_is_scale_free():
    a, b, c = Point(0, 0), Point(1, 0), Point(2, 1e-12)
    assert collinear(a, b, c)
    scale = 1e6
    assert collinear(
        Point(a.x * scale, a.y * scale),
        Point(b.x * scale, b.y * scale),
        Point(c.x * scale, c.y * scale),
    )


# -- sector pairs ------------------------------------------------------------


def test_sector_pair_right_angle_kinds():
    pair = make_sector_pair(Point(1, 0), Point(0, 1), Point(0, 0))
    assert pair is not None
    assert {pair.kind1, pair.kind2} == {CONVEX, CONCAVE}


def test_sector_pair_straight():
    pair = make_sector_pair(Point(-1, 0), Point(1, 0), Point(0, 0))
    assert pair is not None
    assert (pair.kind1, pair.kind2) == (STRAIGHT, STRAIGHT)


def test_sector_pair_collinear_not_between_is_none():
    assert make_sector_pair(Point(1, 0), Point(2, 0), Point(0, 0)) is None


def test_sector_pair_coincident_inputs_rejected():
    with pytest.raises(ValueError):
        make_sector_pair(Point(1, 0), Point(1, 0), Point(0, 0))
    with pytest.raises(ValueError):
        make_sector_pair(Point(1, 0), Point(0, 1), Point(1, 0))


def test_sector_contains_examples():
    pair = make_sector_pair(Point(1, 0), Point(0, 1), Point(0, 0))
    convex_side = 1 if pair.kind1 == CONVEX else 2
    concave_side = 3 - convex_side
    assert sector_contains(pair, convex_side, Point(1, 1))
    assert not sector_contains(pair, concave_side, Point(1, 1))
    # on a bounding half-line: in neither
    assert not sector_contains(pair, 1, Point(2, 0))
    assert not sector_contains(pair, 2, Point(2, 0))
    assert sector_contains(pair, concave_side, Point(-1, -1))


def test_sector_apex_in_neither():
    pair = make_sector_pair(Point(1, 0), Point(0, 1), Point(0, 0))
    assert not sector_contains(pair, 1, Point(0, 0))
    assert not sector_contains(pair, 2, Point(0, 0))


def test_sector_half_line_beyond_anchor_excluded():
    # The half-line through r extends past r; q behind the apex is NOT on it.
    pair = make_sector_pair(Point(1, 0), Point(0, 1), Point(0, 0))
    assert not sector_contains(pair, 1, Point(5, 0))
    assert not sector_contains(pair, 2, Point(5, 0))
    # (-1, 0) is behind the apex relative to r=(1,0): belongs to a sector.
    assert sector_contains(pair, 1, Point(-1, 0)) or sector_contains(pair, 2, Point(-1, 0))


def test_straight_sectors_are_half_planes():
    pair = make_sector_pair(Point(-1, 0), Point(1, 0), Point(0, 0))
    above = Point(0.3, 2.0)
    below = Point(-0.7, -0.1)
    assert sector_contains(pair, 1, above) != sector_contains(pair, 2, above)
    assert sector_contains(pair, 1, above) != sector_contains(pair, 1, below)


@settings(max_examples=300)
@given(_points(3, 3), st.tuples(_finite_coord(), _finite_coord()))
def test_sector_exclusivity(pts, raw_q):
    """Any probe off the half-lines lies in exactly one of the two sectors."""
    r, rp, c = pts
    q = Point(*raw_q)
    try:
        pair = make_sector_pair(r, rp, c)
    except ValueError:
        return
    if pair is None:
        return
    in1 = sector_contains(pair, 1, q)
    in2 = sector_contains(pair, 2, q)
    assert not (in1 and in2)
    on_ray = (
        points_coincide(q, c)
        or (collinear(c, r, q) and (r.x - c.x) * (q.x - c.x) + (r.y - c.y) * (q.y - c.y) >= 0)
        or (collinear(c, rp, q) and (rp.x - c.x) * (q.x - c.x) + (rp.y - c.y) * (q.y - c.y) >= 0)
    )
    if on_ray:
        assert not in1 and not in2
    else:
        assert in1 or in2


# -- smallest enclosing circle ----------------------------------------------


def test_sec_two_points():
    sec = smallest_enclosing_circle([Point(0, 0), Point(2, 0)])
    assert points_coincide(sec.center, Point(1, 0))
    assert abs(sec.radius - 1.0) <= 1e-12


def test_sec_equilateral_frozen_values():
    sec = smallest_enclosing_circle(EQUILATERAL)
    assert abs(sec.center.x - 0.5) <= 1e-12
    assert abs(sec.center.y - EQUILATERAL_CENTER_Y) <= 1e-12
    assert abs(sec.radius - EQUILATERAL_RADIUS) <= 1e-12


def test_sec_third_point_inside():
    sec = smallest_enclosing_circle([Point(0, 0), Point(4, 0), Point(2, 1)])
    assert points_coincide(sec.center, Point(2, 0))
    assert abs(sec.radius - 2.0) <= 1e-12
    assert strictly_inside_circle(Point(2, 1), sec)


def test_sec_single_point():
    sec = smallest_enclosing_circle([Point(3, 3)])
    assert sec.center == Point(3, 3)
    assert sec.radius == 0.0


def test_sec_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        smallest_enclosing_circle([])
    with pytest.raises(ValueError):
        smallest_enclosing_circle([Point(1, 1), Point(1, 1)])


def test_sec_input_order_invariant_bitwise():
    rng = random.Random(7)
    pts = [Point(rng.random() * 10, rng.random() * 10) for _ in range(9)]
    base = smallest_enclosing_circle(pts)
    for _ in range(10):
        rng.shuffle(pts)
        assert smallest_enclosing_circle(pts) == base


@settings(max_examples=200, deadline=None)
@given(_points(1, 12))
def test_sec_encloses_and_is_supported(pts):
    sec = smallest_enclosing_circle(pts)
    span = max(1.0, sec.radius)
    for p in pts:
        assert dist(p, sec.center) <= sec.radius + 1e-9 * span
    if len(pts) == 1:
        assert sec.radius == 0.0
        return
    rim = [p for p in pts if abs(dist(p, sec.center) - sec.radius) <= 1e-9 * span]
    assert len(rim) >= 2
    if len(rim) == 2:
        assert abs(dist(rim[0], rim[1]) - 2 * sec.radius) <= 1e-8 * span


# -- convex hull -------------------------------------------------------------


def test_hull_square_with_interior_point():
    hull = convex_hull([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1), Point(0.5, 0.5)])
    assert isinstance(hull, Polygon)
    assert set(hull.vertices) == {Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)}
    assert hull.vertices[0] == Point(0, 0)


def test_hull_collinear_degenerate():
    hull = convex_hull([Point(0, 0), Point(1, 0), Point(2, 0)])
    assert hull == DegenerateHull(Point(0, 0), Point(2, 0))


def test_hull_triangle():
    pts = [Point(0, 0), Point(3, 0), Point(0, 4)]
    hull = convex_hull(pts)
    assert isinstance(hull, Polygon)
    assert set(hull.vertices) == set(pts)


def test_hull_boundary_contains():
    hull = convex_hull([Point(0, 0), Point(2, 0), Point(0, 2)])
    assert hull_boundary_contains(hull, Point(1, 0))
    assert hull_boundary_contains(hull, Point(0, 0))
    assert hull_boundary_contains(hull, Point(1, 1))  # on the hypotenuse
    assert not hull_boundary_contains(hull, Point(0.5, 0.5))
    assert not hull_boundary_contains(hull, Point(3, 3))


@settings(max_examples=200, deadline=None)
@given(_points(1, 15))
def test_hull_contains_all_points_and_is_convex(pts):
    hull = convex_hull(pts)
    if isinstance(hull, DegenerateHull):
        for p in pts:
            assert _segment_distance(p, hull.a, hull.b) <= 1e-6
        return
    verts = hull.vertices
    assert set(verts) <= set(pts)
    # counterclockwise and strictly convex at every corner
    m = len(verts)
    if m >= 3:
        area2 = sum(
            verts[i].x * verts[(i + 1) % m].y - verts[(i + 1) % m].x * verts[i].y
            for i in range(m)
        )
        assert area2 > 0
        for i in range(m):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % m]
            cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
            assert cross > 0
    # every input point inside or on the hull
    for p in pts:
        for i in range(m):
            a, b = verts[i], verts[(i + 1) % m]
            cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
            assert cross >= -1e-6 * max(1.0, dist(a, b)) * max(1.0, dist(a, p))


# -- circle predicates -------------------------------------------------------


def test_on_circle_and_inside():
    sec = smallest_enclosing_circle([Point(-1, 0), Point(1, 0)])
    assert on_circle(Point(1, 0), sec)
    assert on_circle(Point(0, 1), sec)
    assert strictly_inside_circle(Point(0.5, 0), sec)
    assert not strictly_inside_circle(Point(1, 0), sec)
    assert not on_circle(Point(0, 0), sec)



def test_sec_shuffle_makes_the_standard_librarys_permutation():
    # The kernel seeds with a CRC-32; these cover its ends and its range.
    rng = random.Random("shuffle seeds")
    seeds = [0, 1, 2**32 - 1] + [rng.getrandbits(32) for _ in range(17)]
    for seed in seeds:
        for n in [*range(301), 1001]:
            expected = list(range(n))
            random.Random(seed).shuffle(expected)
            got = list(range(n))
            _shuffle(got, seed)
            assert got == expected, (seed, n)
