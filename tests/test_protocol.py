"""Decision rule tests.

Each branch gets a hand-built view whose expected action was worked out by
hand first.  The equivariance checks then push those same views through
random similarity frames and demand the decision survives the trip.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gathersim.geometry import Point, Tolerance, dist, smallest_enclosing_circle
from gathersim.model import (
    IDENTITY_FRAME,
    Configuration,
    ego_frame,
    observe,
    random_frame,
    to_local,
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
    path_is_clear,
)

TOL = Tolerance()

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
    act = compute_action(view, Point(4, 0), TOL)
    assert act == Action(MOVE_CAREFUL, Point(0, 0), BRANCH_UNIQUE_MAX)


def test_unique_max_occupant_stays():
    view = _strong_view({Point(0, 0): 3, Point(4, 0): 1, Point(2, 3): 1})
    act = compute_action(view, Point(0, 0), TOL)
    assert act == Action(STAY, branch=BRANCH_UNIQUE_MAX)


def test_gathered_point_is_fixed():
    view = _strong_view({Point(2, -1): 7})
    act = compute_action(view, Point(2, -1), TOL)
    assert act.kind == STAY


# -- two maxima ---------------------------------------------------------------


def test_two_max_goes_to_closer():
    view = _strong_view({Point(0, 0): 2, Point(6, 0): 2, Point(1, 0): 1})
    act = compute_action(view, Point(1, 0), TOL)
    assert act == Action(MOVE_CAREFUL, Point(0, 0), BRANCH_TWO_MAX)


def test_two_max_occupants_stay():
    view = _strong_view({Point(0, 0): 2, Point(6, 0): 2, Point(1, 0): 1})
    for own in (Point(0, 0), Point(6, 0)):
        assert compute_action(view, own, TOL) == Action(
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
    act = compute_action(view, Point(0, 0), TOL)
    assert act == Action(MOVE_CAREFUL, Point(-2, 0), BRANCH_TWO_MAX)


# -- three or more maxima (circle contraction) --------------------------------


def test_empty_interior_everyone_moves_to_center():
    view = _strong_view({p: 1 for p in PENTAGON})
    sec = smallest_enclosing_circle(PENTAGON)
    for own in PENTAGON:
        act = compute_action(view, own, TOL)
        assert act.kind == MOVE_DIRECT
        assert act.branch == BRANCH_ALL_TO_CENTER
        assert act.target == sec.center
        assert dist(act.target, Point(0, 0)) <= 1e-9


def test_interior_at_center_boundary_maxima_move():
    view = _strong_view({p: 1 for p in SQUARE} | {Point(0, 0): 1})
    for corner in SQUARE:
        act = compute_action(view, corner, TOL)
        assert act.kind == MOVE_DIRECT
        assert act.branch == BRANCH_BOUNDARY_TO_CENTER
        assert dist(act.target, Point(0, 0)) <= 1e-9
    # the robot already at the center has nowhere to go
    act = compute_action(view, Point(0, 0), TOL)
    assert act == Action(STAY, branch=BRANCH_BOUNDARY_TO_CENTER)


def test_interior_off_center_only_inside_moves():
    inside = Point(0.3, 0.2)
    view = _strong_view({p: 1 for p in SQUARE} | {inside: 1})
    act = compute_action(view, inside, TOL)
    assert act.kind == MOVE_DIRECT
    assert act.branch == BRANCH_INSIDE_TO_CENTER
    assert dist(act.target, Point(0, 0)) <= 1e-9
    for corner in SQUARE:
        assert compute_action(view, corner, TOL) == Action(
            STAY, branch=BRANCH_INSIDE_TO_CENTER
        )


def test_boundary_to_center_skips_non_maximal_boundary():
    # Doubled corners are the maxima; the single corner sits on the circle
    # but not in MaxP, so it must hold still.
    view = _strong_view(
        {Point(1, 0): 2, Point(0, 1): 2, Point(-1, 0): 2, Point(0, -1): 1, Point(0, 0): 1}
    )
    info = classify_branch(view.occupied, TOL)
    assert info.label == BRANCH_BOUNDARY_TO_CENTER
    assert compute_action(view, Point(0, -1), TOL).kind == STAY
    assert compute_action(view, Point(1, 0), TOL).kind == MOVE_DIRECT


def test_classify_branch_geometry_fields():
    occupied = {p: 1 for p in SQUARE} | {Point(0, 0): 1}
    info = classify_branch(occupied, TOL)
    assert info.label == BRANCH_BOUNDARY_TO_CENTER
    assert set(info.boundary) == set(SQUARE)
    assert info.interior == (Point(0, 0),)
    assert info.maxima == tuple(sorted(occupied))
    assert dist(info.sec.center, Point(0, 0)) <= 1e-9
    assert abs(info.sec.radius - 1.0) <= 1e-9


# -- the careful-path predicate ----------------------------------------------


def test_path_clear_endpoints_only():
    assert path_is_clear([Point(0, 0), Point(4, 0)], Point(4, 0), Point(0, 0), TOL)


def test_path_blocked_by_midpoint_robot():
    occupied = [Point(0, 0), Point(2, 0), Point(4, 0)]
    assert not path_is_clear(occupied, Point(4, 0), Point(0, 0), TOL)


def test_path_ignores_off_segment_robot():
    occupied = [Point(0, 0), Point(2, 1), Point(4, 0)]
    assert path_is_clear(occupied, Point(4, 0), Point(0, 0), TOL)


def test_path_accepts_occupancy_map():
    occupied = {Point(0, 0): 2, Point(2, 0): 1, Point(4, 0): 1}
    assert not path_is_clear(occupied, Point(4, 0), Point(0, 0), TOL)


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
    act = compute_action(view, own, TOL)
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
    assert compute_action(view, own, TOL) == act


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
        global_act = compute_action(observe(cfg, IDENTITY_FRAME), own, TOL)
        for _ in range(8):
            frame = ego_frame(random_frame(rng), own)
            local_view = observe(cfg, frame)
            local_act = compute_action(local_view, Point(0.0, 0.0), TOL)
            assert local_act.kind == global_act.kind
            assert local_act.branch == global_act.branch
            if global_act.target is not None:
                expected = to_local(frame, global_act.target)
                assert dist(local_act.target, expected) <= 1e-8 * max(1.0, frame.scale)
