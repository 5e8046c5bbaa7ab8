"""Decision rule tests.

Each branch gets a hand-built view whose expected action was worked out by
hand first.  The equivariance checks then push those same views through
random similarity frames and demand the decision survives the trip.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gathersim.geometry import (
    EPS,
    Point,
    dist,
    point_on_segment,
    points_coincide,
    smallest_enclosing_circle,
)
from gathersim.model import (
    Configuration,
    ego_images,
    observe,
    random_frame,
)
from gathersim.protocol import (
    BRANCH_ALL_TO_CENTER,
    BRANCH_BOUNDARY_TO_CENTER,
    BRANCH_INSIDE_TO_CENTER,
    BRANCH_TWO_MAX,
    BRANCH_UNIQUE_MAX,
    MOVE_CAREFUL,
    MOVE_DIRECT,
    STAY,
    Action,
    choose_closest_position,
    classify_branch,
    compute_action,
    pair_action,
    path_is_clear,
)
from gathersim.simulator import Robot, Snapshot, step


SQUARE = [Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]
PENTAGON = [
    Point(math.cos(k * math.tau / 5), math.sin(k * math.tau / 5)) for k in range(5)
]


def _strong_view(occupied):
    return Configuration(dict(occupied))


# -- action construction ------------------------------------------------------


def test_action_validation():
    with pytest.raises(ValueError):
        Action(STAY, Point(0, 0))
    with pytest.raises(ValueError):
        Action(MOVE_CAREFUL)
    with pytest.raises(ValueError):
        Action(MOVE_DIRECT, Point(math.inf, 0))
    with pytest.raises(ValueError):
        Action("wander", Point(0, 0))
    # Trace records carry the branch label without JSON escaping, so only the rule's labels pass.
    with pytest.raises(ValueError):
        Action(STAY, branch='say "hi"')
    assert Action(STAY).target is None


# -- unique maximum -----------------------------------------------------------


def test_unique_max_others_walk_carefully():
    view = _strong_view({Point(0, 0): 3, Point(4, 0): 1, Point(2, 3): 1})
    act = compute_action(view, Point(4, 0))
    assert act == Action(MOVE_CAREFUL, Point(0, 0), BRANCH_UNIQUE_MAX)


def test_unique_max_occupant_stays():
    view = _strong_view({Point(0, 0): 3, Point(4, 0): 1, Point(2, 3): 1})
    act = compute_action(view, Point(0, 0))
    assert act == Action(STAY, branch=BRANCH_UNIQUE_MAX)


def test_gathered_point_is_fixed():
    view = _strong_view({Point(2, -1): 7})
    act = compute_action(view, Point(2, -1))
    assert act.kind == STAY


# -- two maxima ---------------------------------------------------------------


def test_two_max_goes_to_closer():
    view = _strong_view({Point(0, 0): 2, Point(6, 0): 2, Point(1, 0): 1})
    act = compute_action(view, Point(1, 0))
    assert act == Action(MOVE_CAREFUL, Point(0, 0), BRANCH_TWO_MAX)


def test_two_max_occupants_stay():
    view = _strong_view({Point(0, 0): 2, Point(6, 0): 2, Point(1, 0): 1})
    for own in (Point(0, 0), Point(6, 0)):
        assert compute_action(view, own) == Action(
            STAY, branch=BRANCH_TWO_MAX
        )


def test_choose_closest_examples():
    assert choose_closest_position(Point(0, 0), Point(1, 0), Point(3, 0)) == Point(1, 0)
    # exact tie: p1 wins, and p1 is the lexicographically first of the pair
    assert choose_closest_position(Point(0, 0), Point(-1, 0), Point(1, 0)) == Point(-1, 0)
    assert choose_closest_position(Point(0, 3), Point(0, 0), Point(0, 5)) == Point(0, 5)


def test_choose_closest_rejects_identical():
    with pytest.raises(ValueError):
        choose_closest_position(Point(0, 0), Point(1, 1), Point(1, 1))


def test_two_max_tie_targets_lex_first_maximum():
    # Robot halfway between the maxima: classify_branch orders them, the
    # tie-break lands on the lexicographically first.
    view = _strong_view({Point(2, 0): 2, Point(-2, 0): 2, Point(0, 0): 1})
    act = compute_action(view, Point(0, 0))
    assert act == Action(MOVE_CAREFUL, Point(-2, 0), BRANCH_TWO_MAX)


# -- three or more maxima (circle contraction) --------------------------------


def test_empty_interior_everyone_moves_to_center():
    view = _strong_view({p: 1 for p in PENTAGON})
    sec = smallest_enclosing_circle(PENTAGON)
    for own in PENTAGON:
        act = compute_action(view, own)
        assert act.kind == MOVE_DIRECT
        assert act.branch == BRANCH_ALL_TO_CENTER
        assert act.target == sec.center
        assert dist(act.target, Point(0, 0)) <= 1e-9


def test_interior_at_center_boundary_maxima_move():
    view = _strong_view({p: 1 for p in SQUARE} | {Point(0, 0): 1})
    for corner in SQUARE:
        act = compute_action(view, corner)
        assert act.kind == MOVE_DIRECT
        assert act.branch == BRANCH_BOUNDARY_TO_CENTER
        assert dist(act.target, Point(0, 0)) <= 1e-9
    # the robot already at the center has nowhere to go
    act = compute_action(view, Point(0, 0))
    assert act == Action(STAY, branch=BRANCH_BOUNDARY_TO_CENTER)


def test_interior_off_center_only_inside_moves():
    inside = Point(0.3, 0.2)
    view = _strong_view({p: 1 for p in SQUARE} | {inside: 1})
    act = compute_action(view, inside)
    assert act.kind == MOVE_DIRECT
    assert act.branch == BRANCH_INSIDE_TO_CENTER
    assert dist(act.target, Point(0, 0)) <= 1e-9
    for corner in SQUARE:
        assert compute_action(view, corner) == Action(
            STAY, branch=BRANCH_INSIDE_TO_CENTER
        )


def test_boundary_to_center_skips_non_maximal_boundary():
    # Doubled corners are the maxima; the single corner sits on the circle
    # but not in MaxP, so it must hold still.
    view = _strong_view(
        {Point(1, 0): 2, Point(0, 1): 2, Point(-1, 0): 2, Point(0, -1): 1, Point(0, 0): 1}
    )
    info = classify_branch(view.occupied)
    assert info.label == BRANCH_BOUNDARY_TO_CENTER
    assert compute_action(view, Point(0, -1)).kind == STAY
    assert compute_action(view, Point(1, 0)).kind == MOVE_DIRECT


def test_pair_action_keeps_the_count_of_each_image_that_rounds_to_one_point():
    # The robot's rim point holds one robot, as does a point whose image
    # rounds onto it; merged they would hold two, a maximum, and move in.
    # The configuration's counts keep them one robot short, so it stays.
    images = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 0.0)]
    assert pair_action(images, [1, 2, 2, 2, 1, 1]) == (STAY, None, BRANCH_BOUNDARY_TO_CENTER)
    assert pair_action(images[:-1], [2, 2, 2, 2, 1]) == (MOVE_DIRECT, Point(1.0, 0.0), BRANCH_BOUNDARY_TO_CENTER)


def test_classify_branch_geometry_fields():
    occupied = {p: 1 for p in SQUARE} | {Point(0, 0): 1}
    info = classify_branch(occupied)
    assert info.label == BRANCH_BOUNDARY_TO_CENTER
    assert set(info.boundary) == set(SQUARE)
    assert info.interior == (Point(0, 0),)
    assert info.maxima == tuple(sorted(occupied))
    assert dist(info.sec.center, Point(0, 0)) <= 1e-9
    assert abs(info.sec.radius - 1.0) <= 1e-9


# -- the careful-path predicate ----------------------------------------------


def test_path_clear_endpoints_only():
    assert path_is_clear([Point(0, 0), Point(4, 0)], Point(4, 0), Point(0, 0))


def test_path_blocked_by_midpoint_robot():
    occupied = [Point(0, 0), Point(2, 0), Point(4, 0)]
    assert not path_is_clear(occupied, Point(4, 0), Point(0, 0))


def test_path_ignores_off_segment_robot():
    occupied = [Point(0, 0), Point(2, 1), Point(4, 0)]
    assert path_is_clear(occupied, Point(4, 0), Point(0, 0))


def test_path_accepts_occupancy_map():
    occupied = {Point(0, 0): 2, Point(2, 0): 1, Point(4, 0): 1}
    assert not path_is_clear(occupied, Point(4, 0), Point(0, 0))


def _unpruned_path_is_clear(occupied, start, goal):
    """The veto as it was before it skipped points outside the segment's
    widened box, kept verbatim as the oracle."""
    for q in occupied:
        if points_coincide(q, start) or points_coincide(q, goal):
            continue
        if point_on_segment(q, start, goal):
            return False
    return True


# Zeros of both signs, subnormals, the smallest normal, 2**53 (where the
# float grid is 2 wide) and coordinates whose differences overflow.
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308, 1.0, -1.0, 2.0**53, 1.7e308, -1.7e308]
_COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from(_SPECIAL_FLOATS),
)


@st.composite
def _veto_cases(draw):
    """A segment and occupied points placed near its endpoints, along it and
    on the edges of its bounding box: a few EPS, a few margin units
    (2**-50 times the longer side) or a few ulps away."""
    start = Point(draw(_COORDS), draw(_COORDS))
    goal = draw(st.one_of(st.just(start), st.builds(Point, _COORDS, _COORDS)))
    (sx, sy), (gx, gy) = start, goal
    side = max(abs(gx - sx), abs(gy - sy))

    def near(x):
        unit = draw(st.sampled_from([EPS, 2.0**-50 * side, math.ulp(x)]))
        return x + draw(st.integers(-4, 4)) * unit

    def edge(a, b, t):
        return draw(st.sampled_from([min(a, b), max(a, b), (1.0 - t) * a + t * b]))

    occupied = []
    for _ in range(draw(st.integers(1, 6))):
        t = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-0.5, 1.5)))
        q = draw(
            st.sampled_from(
                [
                    Point(near(edge(sx, gx, t)), near(edge(sy, gy, t))),
                    Point(near((1.0 - t) * sx + t * gx), near((1.0 - t) * sy + t * gy)),
                    Point(draw(_COORDS), draw(_COORDS)),
                ]
            )
        )
        occupied.append(q if math.isfinite(q.x) and math.isfinite(q.y) else start)
    return start, goal, occupied


@settings(max_examples=1000, deadline=None)
@given(_veto_cases())
# q lies 1 outside the box, yet the rounded distance to the segment is 0:
# gx - sx rounds from -(2**53 + 3) to -(2**53 + 4), so t = 1 exactly.  A
# margin of EPS alone lets the veto miss it.
@example((Point(9007199254740996.0, 0.0), Point(1.0, 0.0), [Point(0.0, 0.0)]))
@example((Point(1.7e308, -1.7e308), Point(-1.7e308, 1.7e308), [Point(0.0, 0.0), Point(-0.0, 5e-324)]))
@example((Point(-0.0, 0.0), Point(0.0, -0.0), [Point(5e-324, -5e-324), Point(2 * EPS, 0.0)]))
def test_the_boxed_veto_decides_as_the_unpruned_scan(case):
    """Skipping the points outside the segment's widened box changes no verdict,
    one point at a time or all together."""
    start, goal, occupied = case
    for q in occupied:
        assert path_is_clear([q], start, goal) == _unpruned_path_is_clear([q], start, goal), q
    assert path_is_clear(occupied, start, goal) == _unpruned_path_is_clear(occupied, start, goal)


def test_the_veto_settles_only_points_near_the_segment():
    """On 101 robots with a unique maximum every other robot is a careful
    mover; each veto must settle a few nearby points, not scan all of them."""
    rng = random.Random(101)
    points = [Point(rng.random(), rng.random()) for _ in range(100)]
    snap = Snapshot([Robot(p, 1.0) for p in [points[0], *points]])
    n = len(snap.robots)
    everyone = range(n)
    with mock.patch("gathersim.simulator.path_is_clear", wraps=path_is_clear) as veto, mock.patch(
        "gathersim.protocol.point_on_segment", wraps=point_on_segment
    ) as settled:
        boxed, boxed_actions = step(snap, everyone)
    with mock.patch("gathersim.simulator.path_is_clear", _unpruned_path_is_clear):
        unpruned, unpruned_actions = step(snap, everyone)
    assert (unpruned.robots, unpruned_actions) == (boxed.robots, boxed_actions)
    assert veto.call_count == 99
    assert settled.call_count / veto.call_count < n / 4


# -- determinism, totality, equivariance --------------------------------------


@settings(max_examples=200)
@given(
    st.dictionaries(
        st.tuples(
            st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8)
        ).map(lambda t: Point(float(t[0]), float(t[1]))),
        st.integers(min_value=1, max_value=4),
        min_size=1,
        max_size=9,
    ),
    st.integers(min_value=0, max_value=10**6),
)
def test_every_view_maps_to_exactly_one_branch(raw_occupied, pick):
    """Lattice views cannot fall through the rule or hit two branches at once."""
    view = _strong_view(raw_occupied)
    own = sorted(raw_occupied)[pick % len(raw_occupied)]
    act = compute_action(view, own)
    assert act.kind in (STAY, MOVE_CAREFUL, MOVE_DIRECT)
    assert act.branch in (
        BRANCH_UNIQUE_MAX,
        BRANCH_TWO_MAX,
        BRANCH_ALL_TO_CENTER,
        BRANCH_BOUNDARY_TO_CENTER,
        BRANCH_INSIDE_TO_CENTER,
    )
    assert (act.target is None) == (act.kind == STAY)
    # purity: same inputs, same answer
    assert compute_action(view, own) == act


EQUIVARIANCE_CONFIGS = [
    {Point(0, 0): 3, Point(4, 0): 1, Point(2, 3): 1},
    {Point(0, 0): 2, Point(6, 0): 2, Point(1, 0): 1},
    {p: 1 for p in PENTAGON},
    {p: 1 for p in SQUARE} | {Point(0, 0): 1},
    {p: 1 for p in SQUARE} | {Point(0.3, 0.2): 1},
]


@pytest.mark.parametrize("occupied", EQUIVARIANCE_CONFIGS)
def test_similarity_equivariance(occupied):
    """A robot's decision does not depend on its private frame.

    The kind and branch must agree between the global view and any local
    view; the local target must be the local image of the global target.
    None of these configurations has a two-max distance tie, so the
    tie-break never enters.
    """
    cfg = Configuration(occupied)
    rng = random.Random(20240817)
    for own in occupied:
        global_act = compute_action(cfg, own)
        for _ in range(8):
            frame = random_frame(rng)
            local_view = observe(cfg, frame, own)
            local_act = compute_action(local_view, Point(0.0, 0.0))
            assert local_act.kind == global_act.kind
            assert local_act.branch == global_act.branch
            if global_act.target is not None:
                expected = Point(*ego_images(frame, own, [global_act.target])[0][0])
                assert dist(local_act.target, expected) <= 1e-8 * max(1.0, frame.scale)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ).map(lambda t: Point(*t)),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    st.integers(min_value=1, max_value=2),
    st.data(),
)
def test_a_view_of_only_the_maxima_decides_as_the_full_view(points, n_max, data):
    """With one or two maxima the rule reads nothing but them and the robot's
    own position, so observing only the maxima gives the same action, bit for
    bit, wherever observe keeps the occupied points apart."""
    n_max = min(n_max, len(points))
    top = data.draw(st.integers(min_value=1 if len(points) == n_max else 2, max_value=5), label="top")
    lower = st.integers(min_value=1, max_value=top - 1) if top > 1 else st.nothing()
    occupied = {p: top if k < n_max else data.draw(lower) for k, p in enumerate(points)}
    full = Configuration(occupied)
    only_maxima = Configuration({p: top for p in points[:n_max]})
    own = data.draw(st.sampled_from(points), label="own")
    frame = random_frame(random.Random(data.draw(st.integers(0, 2**32))))
    full_view = observe(full, frame, own)
    assume(len(full_view.occupied) == len(occupied))
    want = compute_action(full_view, Point(0.0, 0.0))
    got = compute_action(observe(only_maxima, frame, own), Point(0.0, 0.0))
    assert want.branch in (BRANCH_UNIQUE_MAX, BRANCH_TWO_MAX)
    assert repr(got) == repr(want)
