"""The eps-neighbour index against the quadratic scans it replaced.

normalize and the careful-separation monitor once compared every position
with every other one.  Those loops are kept here, verbatim, as the oracles:
the indexed versions must give the same representatives, counts and order,
and the same first report, for every eps >= 0 and every finite coordinate.
The package runs at the fixed geometry.EPS; at_eps checks the other values.
The monitor builds no grid when every mover stands alone by the after
configuration's own index, so its cases build that configuration with
normalize, as every snapshot does, and check both paths.
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

# The last has a mantissa of all ones: it sits just below the grid's half-width.
EPSILONS = (0.0, 5e-324, 1e-9, 1e-3, math.nextafter(2.0**-29, 0.0))


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
    and the same step as the reference reads it.  The after configuration is
    normalize of the after positions, as on every snapshot, so call this
    inside at_eps."""
    robots_b = [Robot(p, 1.0) for p in before]
    robots_a = [Robot(p, 1.0) for p in after]
    snap_b = SimpleNamespace(robots=robots_b, config=SimpleNamespace(maxima=tuple(maxima)))
    snap_a = SimpleNamespace(robots=robots_a, config=normalize(after))
    tr = SimpleNamespace(maxima_before=tuple(maxima), before=snap_b, after=snap_a)
    return (snap_b, snap_a), tr


def _exact(occupied):
    """Items with the sign of zero kept: Point(-0.0, 0) == Point(0.0, 0)."""
    return [(p.x.hex(), p.y.hex(), count) for p, count in occupied.items()]


def _coordinate():
    return st.one_of(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-1e308, max_value=1e308),
        st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 1e308, -1e308]),
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
    before = [data.draw(spot) for _ in range(n)]
    after = [data.draw(spot) for _ in range(n)]
    maxima = data.draw(st.lists(spot, max_size=3), label="maxima")
    with at_eps(eps):
        snaps, tr = _transition(before, after, maxima)
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
    with at_eps(eps), mock.patch("gathersim.analysis.PointGrid", side_effect=AssertionError):
        snaps, tr = _transition(before, after, maxima)
        assert MONITOR_RULES["careful_separation"](*snaps) is _reference_careful_separation(tr) is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_careful_separation_builds_no_grid_when_every_mover_is_alone(data):
    # Robots stand on sites of a lattice far coarser than eps.  Each mover
    # lands on a site that no other robot holds after the step, so no robot
    # is within eps of it, and the rule must say so from the configuration's
    # own index, without building a grid.
    eps = data.draw(st.sampled_from(EPSILONS), label="eps")
    unit = max(data.draw(st.sampled_from([1.0, 2.0**-500, 2.0**500, 1e300]), label="unit"), 1e4 * eps)
    sites = [Point(unit * x, unit * y) for x in range(-3, 4) for y in range(-3, 4)]
    order = data.draw(st.permutations(sites), label="order")
    n = data.draw(st.integers(2, 12), label="n")
    movers = data.draw(st.integers(1, n), label="movers")
    landing = order[:movers]
    stayers = [data.draw(st.sampled_from(order[movers:])) for _ in range(n - movers)]
    before = [data.draw(st.sampled_from([s for s in sites if s != p])) for p in landing] + stayers
    robot_order = data.draw(st.permutations(range(n)), label="robot order")
    before = [before[k] for k in robot_order]
    after = [(landing + stayers)[k] for k in robot_order]
    maxima = data.draw(st.lists(st.sampled_from(sites), max_size=2), label="maxima")
    with at_eps(eps), mock.patch("gathersim.analysis.PointGrid", side_effect=AssertionError):
        snaps, tr = _transition(before, after, maxima)
        assert MONITOR_RULES["careful_separation"](*snaps) is _reference_careful_separation(tr) is None


@pytest.mark.parametrize("eps", [eps for eps in EPSILONS if eps > 0.0])
@pytest.mark.parametrize("gap", [1.5, 2.0])
def test_careful_separation_scans_a_grid_when_a_robot_is_within_two_eps(eps, gap):
    # The mover's nearest other robot is more than eps but at most 2 eps
    # away: the mover is not alone by its configuration's index, so the rule
    # builds its grid, and finds no pair, as the reference does.
    near = Point(0.0, 0.5)
    landing = Point(gap * eps, 0.5)
    before, after = [near, Point(0.75, 0.5), Point(0.5, 0.0)], [near, landing, Point(0.5, 0.0)]
    with at_eps(eps), mock.patch("gathersim.analysis.PointGrid", wraps=PointGrid) as grid:
        snaps, tr = _transition(before, after, [Point(0.5, 0.0)])
        assert eps < dist(near, landing) <= 2 * eps
        assert MONITOR_RULES["careful_separation"](*snaps) is _reference_careful_separation(tr) is None
        assert grid.call_count == 1


@pytest.mark.parametrize("eps", [eps for eps in EPSILONS if eps > 0.0])
def test_careful_separation_finds_a_neighbour_whose_key_is_beyond_eps(eps):
    # Robot 1 joins robot 0's key, nearly 2 eps from where robot 2 lands.
    # Robot 2 then holds its own key alone, and no key lies within eps of
    # it, yet robot 1 does: the rule must scan, and report the pair.
    before = [Point(1.8 * eps, 0.0), Point(0.9 * eps, 0.0), Point(0.5, 0.5)]
    after = before[:2] + [Point(0.0, 0.0)]
    with at_eps(eps):
        snaps, tr = _transition(before, after, [Point(0.5, 0.0)])
        assert snaps[1].config.occupied == {before[0]: 2, after[2]: 1}
        got = MONITOR_RULES["careful_separation"](*snaps)
        assert got == _reference_careful_separation(tr) is not None


def test_careful_separation_tests_only_the_first_robot_against_the_maxima():
    # (0.0008, 0) is within eps of the maximum, (0.0015, 0) is not; the two
    # are within eps of each other.
    near, far = Point(0.0008, 0.0), Point(0.0015, 0.0)
    before = [Point(5.0, 0.0), Point(6.0, 0.0)]
    for after, expected in [
        ([far, near], "robots 0 and 1 merged at Point(x=0.0015, y=0.0), which is not a maximum point"),
        ([near, far], None),
    ]:
        with at_eps(1e-3):
            snaps, tr = _transition(before, after, [Point(0.0, 0.0)])
            got = MONITOR_RULES["careful_separation"](*snaps)
            assert got == _reference_careful_separation(tr) == expected


def _edges(points, eps):
    """Points on and beside the half-cell edges of the grid that points and
    eps make: the two multiples of its half-width h around each coordinate
    of the first point, odd multiples being the middle of a cell, each with
    its neighbours one ulp and eps away, and signed zeros, subnormals and
    the largest magnitude.  None is larger than the largest coordinate."""
    largest = max((abs(c) for p in points for c in p), default=0.0)
    h = math.ldexp(1.0, math.frexp(max(eps, largest * 2.0**-51))[1])
    values = [0.0, -0.0, 5e-324, -5e-324, largest, -largest]
    for v in points[0]:
        for edge in (math.floor(v / h) * h, (math.floor(v / h) + 1) * h):
            values += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf), edge - eps, edge + eps]
    values = [v for v in values if abs(v) <= largest]
    x, y = points[0]
    return [Point(v, y) for v in values] + [Point(x, v) for v in values] + [Point(v, -v) for v in values[:6]]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_grid_within_is_exactly_the_eps_ball(data):
    eps = data.draw(st.sampled_from(EPSILONS), label="eps")
    points = data.draw(_positions(eps), label="points")
    points += _edges(points, eps)
    grid = PointGrid(points, eps)
    for k, p in enumerate(points):
        grid.add(p, k)
    for q in points:
        expected = [k for k, p in enumerate(points) if dist(q, p) <= eps]
        assert sorted(grid.within(q)) == expected
        # The block holds every point two steps of eps away.
        two_steps = {k for r in expected for k in grid.within(points[r])}
        assert two_steps <= {k for _, k in grid.block(q)}


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
