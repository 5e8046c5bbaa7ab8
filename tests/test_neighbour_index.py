"""The eps-neighbour index against the quadratic scans it replaced.

normalize and the careful-separation monitor once compared every position
with every other one.  Those loops are kept here, verbatim, as the oracles:
the indexed versions must give the same representatives, counts and order,
and the same first report, for every eps >= 0 and every finite coordinate.
The package runs at the fixed geometry.EPS; at_eps checks the other values.
"""

import math
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gathersim.analysis import MONITOR_RULES
from gathersim.geometry import Point, PointGrid, dist, points_coincide
from gathersim.model import normalize
from gathersim.simulator import Robot
from other_eps import at_eps

EPSILONS = (0.0, 5e-324, 1e-9, 1e-3)


def _reference_normalize(raw_positions, eps):
    occupied = {}
    for raw in raw_positions:
        p = Point(raw[0], raw[1])
        for rep in occupied:
            if dist(p, rep) <= eps:
                occupied[rep] += 1
                break
        else:
            occupied[p] = 1
    return occupied


def _reference_careful_separation(tr):
    if len(tr.maxima_before) > 2:
        return None
    maxima = tr.maxima_before
    bots_b = tr.before.robots
    bots_a = tr.after.robots
    for i in range(len(bots_b)):
        for j in range(i + 1, len(bots_b)):
            if points_coincide(bots_b[i].pos, bots_b[j].pos):
                continue
            if not points_coincide(bots_a[i].pos, bots_a[j].pos):
                continue
            if any(points_coincide(bots_a[i].pos, m) for m in maxima):
                continue
            return (
                f"robots {i} and {j} merged at "
                f"{bots_a[i].pos}, which is not a maximum point"
            )
    return None


def _transition(before, after, maxima):
    """The parts of the (before, after) snapshots the separation rule reads,
    and the same step as the reference reads it."""
    robots_b = [Robot(p, 1.0) for p in before]
    robots_a = [Robot(p, 1.0) for p in after]
    snap_b = SimpleNamespace(robots=robots_b, maxima=tuple(maxima))
    snap_a = SimpleNamespace(robots=robots_a)
    tr = SimpleNamespace(maxima_before=tuple(maxima), before=snap_b, after=snap_a)
    return (snap_b, snap_a), tr


def _exact(occupied):
    """Items with the sign of zero kept: Point(-0.0, 0) == Point(0.0, 0)."""
    return [(p.x.hex(), p.y.hex(), count) for p, count in occupied.items()]


def _coordinate():
    return st.one_of(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-1e308, max_value=1e308),
        st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324]),
    )


@st.composite
def _positions(draw, eps):
    """A few clusters walked by gaps of eps/2..2*eps, single ulps, repeats and -0.0."""
    points = []
    for _ in range(draw(st.integers(1, 4))):
        x, y = draw(_coordinate()), draw(_coordinate())
        for _ in range(draw(st.integers(1, 6))):
            points.append(Point(x, y))
            move = draw(st.sampled_from(["gap", "ulp", "repeat", "sign-of-zero"]))
            if move == "gap":
                gap = draw(st.one_of(
                    st.sampled_from([eps, math.nextafter(eps, 0.0)]),
                    st.floats(min_value=eps / 2, max_value=2 * eps),
                ))
                angle = draw(st.one_of(
                    st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]),
                    st.floats(0.0, math.tau),
                ))
                x, y = x + gap * math.cos(angle), y + gap * math.sin(angle)
            elif move == "ulp":
                x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
            elif move == "sign-of-zero":
                x, y = (-x if x == 0.0 else x), (-y if y == 0.0 else y)
    return draw(st.permutations(points))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_normalize_matches_quadratic_reference(data):
    eps = data.draw(st.sampled_from(EPSILONS), label="eps")
    raw = data.draw(_positions(eps), label="raw")
    with at_eps(eps):
        got = normalize(raw).occupied
    assert _exact(got) == _exact(_reference_normalize(raw, eps))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_careful_separation_matches_quadratic_reference(data):
    eps = data.draw(st.sampled_from(EPSILONS), label="eps")
    pool = data.draw(_positions(eps), label="pool")
    n = data.draw(st.integers(2, 12), label="n")
    spot = st.sampled_from(pool)
    snaps, tr = _transition(
        [data.draw(spot) for _ in range(n)],
        [data.draw(spot) for _ in range(n)],
        data.draw(st.lists(spot, max_size=3), label="maxima"),
    )
    with at_eps(eps):
        assert MONITOR_RULES["careful_separation"](*snaps) == _reference_careful_separation(tr)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_careful_separation_skips_movers_that_land_exactly_on_a_maximum(data):
    # Every robot stays or lands exactly on a maximum, as under round robin
    # in the one- and two-maxima branches: no pair can offend, and the rule
    # must say so without building a grid.
    eps = data.draw(st.sampled_from(EPSILONS), label="eps")
    pool = data.draw(_positions(eps), label="pool")
    spot = st.sampled_from(pool)
    maxima = data.draw(st.lists(spot, min_size=1, max_size=2), label="maxima")
    before = data.draw(st.lists(spot, min_size=2, max_size=12), label="before")
    after = [data.draw(st.sampled_from([p] + maxima)) for p in before]
    snaps, tr = _transition(before, after, maxima)
    with at_eps(eps), mock.patch("gathersim.analysis.PointGrid", side_effect=AssertionError):
        assert MONITOR_RULES["careful_separation"](*snaps) is _reference_careful_separation(tr) is None


def test_careful_separation_tests_only_the_first_robot_against_the_maxima():
    # (0.0008, 0) is within eps of the maximum, (0.0015, 0) is not; the two
    # are within eps of each other.
    near, far = Point(0.0008, 0.0), Point(0.0015, 0.0)
    before = [Point(5.0, 0.0), Point(6.0, 0.0)]
    for after, expected in [
        ([far, near], "robots 0 and 1 merged at Point(x=0.0015, y=0.0), which is not a maximum point"),
        ([near, far], None),
    ]:
        snaps, tr = _transition(before, after, [Point(0.0, 0.0)])
        with at_eps(1e-3):
            got = MONITOR_RULES["careful_separation"](*snaps)
            assert got == _reference_careful_separation(tr) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_grid_within_is_exactly_the_eps_ball(data):
    eps = data.draw(st.sampled_from(EPSILONS), label="eps")
    points = data.draw(_positions(eps), label="points")
    grid = PointGrid(points, eps)
    for k, p in enumerate(points):
        grid.add(p, k)
    for q in points:
        expected = [k for k, p in enumerate(points) if dist(q, p) <= eps]
        assert sorted(grid.within(q)) == expected


def test_normalize_keeps_one_ulp_neighbours_near_1e300_apart():
    raw = [Point(1e300, 0.0), Point(1e300 * (1 + 2e-16), 0.0)]
    assert normalize(raw).occupied == {raw[0]: 1, raw[1]: 1}


def test_normalize_with_zero_eps_merges_only_equal_points():
    raw = [Point(0.0, 1.0), Point(-0.0, 1.0), Point(5e-324, 1.0), Point(0.0, 1.0)]
    with at_eps(0.0):
        got = normalize(raw).occupied
    assert _exact(got) == [(0.0.hex(), 1.0.hex(), 3), (5e-324.hex(), 1.0.hex(), 1)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError):
        normalize([Point(0.0, 0.0), Point(0.0, bad)])
