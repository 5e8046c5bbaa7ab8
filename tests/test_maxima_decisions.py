"""Decisions under one or two maxima, against the per-robot view.

``simulator.decide`` maps only the maxima into a woken robot's frame when
there are one or two of them and no two occupied points can map to one
image, and every occupied point otherwise, and decides on them as plain
pairs.  The oracle is the view path: the robot observes the whole
configuration through its ego frame, ``compute_action`` runs on that view,
and the target goes back through ``to_global`` and is snapped to the nearest
occupied point.  Kind, branch and every bit of the target must agree.
"""

import math
import random
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gathersim.simulator as simulator
from gathersim.analysis import random_robots
from gathersim.geometry import EPS, Point
from gathersim.model import Frame, ego_frame, ego_images, observe, to_global
from gathersim.protocol import Action, compute_action
from gathersim.simulator import BOUNDARY_ONLY, Robot, SchedulerSpec, Snapshot, decide, run


def _view_decision(snap, robot):
    """The rule's action for robot through its view of the whole configuration, snapped, before the veto."""
    frame = ego_frame(robot.frame, robot.pos)
    action = compute_action(observe(snap.config, frame), Point(0.0, 0.0))
    if action.target is None:
        return action
    target = to_global(frame, action.target)
    return Action(action.kind, snap.config.key_near(target) or target, action.branch)


def _bits(action):
    target = None if action.target is None else (action.target.x.hex(), action.target.y.hex())
    return action.kind, action.branch, target


def _coordinate():
    """Small integers, zero with either sign."""
    return st.integers(-4, 4).flatmap(lambda i: st.just(float(i)) if i else st.sampled_from([0.0, -0.0]))


def _frames():
    return st.builds(
        Frame,
        rotation=st.one_of(
            st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]),
            st.floats(min_value=-10.0, max_value=10.0),
        ),
        scale=st.one_of(
            st.integers(-20, 20).map(lambda e: 2.0**e),
            st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e),
        ),
        translation=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        reflected=st.booleans(),
    )


@st.composite
def _cases(draw):
    """Three robots on each of one or two maxima, others alone, and one more
    robot, under its own frame: on a maximum, within 2*EPS of one, on the
    bisector of two (an exact tie in global coordinates), on the grid, or far."""
    # Around a large base the way back from a robot's frame misses a maximum
    # by more than EPS; maxima 1.5*EPS apart seen from far away round to one
    # point in the robot's frame.
    base = draw(st.sampled_from([0.0, 2.0**30, -(2.0**40), 2.0**44]))
    unit = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3, 1e3, 1.5 * EPS] + [math.ulp(base)] * 3 * (base != 0.0)))
    points = draw(st.lists(st.tuples(_coordinate(), _coordinate()), min_size=1, max_size=6, unique=True))
    points = [Point(base + x * unit, base + y * unit) for x, y in points]
    top = draw(st.integers(1, min(2, len(points))))
    robots = [Robot(p, 1.0) for p in points[:top] for _ in range(3)] + [Robot(p, 1.0) for p in points[top:]]
    a, b = points[0], points[top - 1]
    place = draw(st.sampled_from(["on", "near", "bisector", "grid", "far"]))
    if place == "on":
        # The same point, zeros possibly of the other sign.
        x, y = draw(st.sampled_from([a, b]))
        pos = Point(-x if x == 0.0 and draw(st.booleans()) else x, -y if y == 0.0 and draw(st.booleans()) else y)
    elif place == "near":
        dx, dy = (draw(st.floats(-2 * EPS, 2 * EPS)) for _ in range(2))
        x, y = draw(st.sampled_from([a, b]))
        pos = Point(x + dx, y + dy)
    elif place == "bisector":
        t = draw(st.integers(-3, 3))
        pos = Point((a.x + b.x) / 2 - t * (b.y - a.y), (a.y + b.y) / 2 + t * (b.x - a.x))
    elif place == "grid":
        x, y = draw(st.tuples(_coordinate(), _coordinate()))
        pos = Point(base + x * unit, base + y * unit)
    else:
        x, y = draw(st.tuples(_coordinate(), _coordinate()).filter(any))
        pos = Point(a.x + x * 2.0**30, a.y + y * 2.0**30)
    robot = Robot(pos, 1.0, draw(_frames()))
    return [robot] + robots if draw(st.booleans()) else robots + [robot]


@settings(max_examples=600, deadline=None)
@given(_cases())
def test_maxima_decisions_equal_the_view_path_bit_for_bit(robots):
    snap = Snapshot(robots)
    assert len(snap.maxima) <= 2
    for robot in snap.robots:
        assert _bits(decide(snap, robot)) == _bits(_view_decision(snap, robot))


def test_robots_whose_frames_merge_two_other_points_into_a_new_maximum_decide_as_the_view_path():
    # Three robots at (0, 0) make the unique maximum.  Seen under rotation 1,
    # the two camps of two near (2**41, 2**45) round to one image holding four,
    # which the view makes its unique maximum instead.
    positions = [(0.0, 0.0)] * 3 + [(2.0**41, 2.0**45)] * 2 + [(2.0**41 + 2.0**-11, 2.0**45)] * 2 + [(-5.0, 0.0)]
    snap = Snapshot([Robot(Point(x, y), 1.0, Frame(rotation=1.0)) for x, y in positions])
    assert snap.maxima == [Point(0.0, 0.0)]
    decisions = [decide(snap, robot) for robot in snap.robots]
    assert [_bits(d) for d in decisions] == [_bits(_view_decision(snap, robot)) for robot in snap.robots]
    merged = Point(2199023255552.002, 2.0**45)
    assert [(d.kind, d.target) for d in decisions] == [("move_careful", merged)] * 3 + [("stay", None)] * 4 + [
        ("move_careful", merged)
    ]


@settings(max_examples=500, deadline=None)
@given(
    base=st.tuples(st.floats(-(2.0**16), 2.0**16), st.floats(-(2.0**16), 2.0**16)),
    steps=st.lists(st.tuples(st.floats(0.0, math.tau), st.floats(1.0, 1.5)), min_size=1, max_size=5),
    own=st.integers(0, 5),
    frame=st.builds(
        Frame,
        rotation=st.floats(-1e6, 1e6),
        scale=st.sampled_from([2.0**-900, 2.0**900, 1.0]) | st.integers(-900, 900).map(lambda e: 2.0**e),
        reflected=st.booleans(),
    ),
)
def test_no_two_occupied_points_share_an_image_within_the_bound(base, steps, own, frame):
    # A chain of points just over EPS apart, all within 2**16 of the origin.
    points = [Point(*base)]
    for angle, reach in steps:
        x, y = points[-1]
        points.append(Point(x + reach * EPS * math.cos(angle), y + reach * EPS * math.sin(angle)))
    snap = Snapshot([Robot(p, 1.0, frame) for p in points])
    assume(snap.config.clustering.grid.largest <= simulator._MERGE_FREE_EXTENT and len(snap.config.occupied) == len(points))
    images, _ = ego_images(frame, points[own % len(points)], snap.config.occupied)
    assert len(set(images)) == len(images)


def count_calls(monkeypatch, *functions):
    """Patch every binding of each function in the gathersim modules, by
    whatever name, to count its calls; returns name -> list of arguments."""
    calls = {f.__name__: [] for f in functions}
    for name, module in list(sys.modules.items()):
        if name != "gathersim" and not name.startswith("gathersim."):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is f for f in functions):

                def counted(*args, real=value):
                    calls[real.__name__].append(args)
                    return real(*args)

                monkeypatch.setattr(module, attr, counted)
    return calls


def test_maxima_decisions_observe_no_view(monkeypatch):
    views = count_calls(monkeypatch, observe, compute_action)
    decisions = []
    real_decide = simulator.decide

    def recording_decide(snap, robot):
        decisions.append(len(snap.maxima))
        return real_decide(snap, robot)

    monkeypatch.setattr(simulator, "decide", recording_decide)
    outcome, _ = run(random_robots(random.Random("maxima:observe"), 11), SchedulerSpec(BOUNDARY_ONLY, seed=3))
    assert outcome.status == "gathered"
    assert any(m <= 2 for m in decisions)
    assert views == {"observe": [], "compute_action": []}
