"""Decisions under one or two maxima, on the configuration.

``simulator.decide`` applies the rule to the robot's global position and
the configuration's maxima: a robot within EPS of a maximum stays, and any
other walks carefully to the closer one, the maximum itself.  Only a tie of
the two global distances, up to rounding (``geometry.near_tie``), reads the
robot's frame.  Three checks hold it to that: an exact oracle over
``Fraction`` squared distances, invariance under the robot's frame bar the
tie, and the view path under identity frames: the robot observes the whole
configuration from its own position (``observe``), ``compute_action`` runs
on that view, and the target goes back through ``ego_images``'s map to
global coordinates and is snapped to the nearest occupied point.
"""

import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import gathersim.simulator as simulator
from gathersim.analysis import random_robots
from gathersim.geometry import EPS, Point, near_tie, points_coincide
from gathersim.model import Frame, ego_images, observe
from gathersim.protocol import MOVE_CAREFUL, STAY, Action, choose_closest_position, compute_action
from gathersim.simulator import BOUNDARY_ONLY, Robot, SchedulerSpec, Snapshot, decide, run


def _view_decision(snap, robot):
    """The rule's action for robot through its view of the whole configuration, snapped, before the veto."""
    action = compute_action(observe(snap.config, robot.frame, robot.pos), Point(0.0, 0.0))
    if action.target is None:
        return action
    target = ego_images(robot.frame, robot.pos, [])[1](action.target)
    return Action(action.kind, snap.config.key_near(target) or target, action.branch)


def _square(p, q):
    """The exact squared distance between two points."""
    return (Fraction(p.x) - Fraction(q.x)) ** 2 + (Fraction(p.y) - Fraction(q.y)) ** 2


def _clear_of_a_tie(robot, maxima):
    """Whether the exact distances to two maxima differ by more than twice near_tie's window."""
    sp, sq = (_square(robot.pos, m) for m in maxima)
    dp, dq = math.sqrt(sp), math.sqrt(sq)
    m = max(abs(c) for point in (robot.pos, *maxima) for c in point)
    return abs(float(sp - sq)) / (dp + dq) > 2.0**-44 * (m + dp + dq)


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
        reflected=st.booleans(),
    )


@st.composite
def _cases(draw, small=False):
    """Three robots on each of one or two maxima, others alone, and one more
    robot, under its own frame: on a maximum, within 2*EPS of one, on the
    bisector of two (an exact tie in global coordinates), on the grid, or
    far.  ``small`` keeps every coordinate within 2**16 of the origin."""
    # Around a large base the way back from a robot's frame misses a maximum
    # by more than EPS; maxima 1.5*EPS apart seen from far away round to one
    # point in the robot's frame.
    base = 0.0 if small else draw(st.sampled_from([0.0, 2.0**30, -(2.0**40), 2.0**44]))
    unit = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3, 1e3, 1.5 * EPS] + [math.ulp(base)] * 3 * (base != 0.0)))
    points = draw(st.lists(st.tuples(_coordinate(), _coordinate()), min_size=1, max_size=6, unique=True))
    points = [Point(base + x * unit, base + y * unit) for x, y in points]
    top = draw(st.integers(1, min(2, len(points))))
    robots = [Robot(p, 1.0) for p in points[:top] for _ in range(3)] + [Robot(p, 1.0) for p in points[top:]]
    a, b = points[0], points[top - 1]
    place = draw(st.sampled_from(["on", "near", "bisector", "grid"] + ["far"] * (not small)))
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
def test_maxima_decisions_follow_the_exact_rule(robots):
    snap = Snapshot(robots)
    maxima = snap.config.maxima
    assert len(maxima) <= 2
    branch = "unique_max" if len(maxima) == 1 else "two_max"
    for robot in snap.robots:
        action = decide(snap, robot)
        if any(points_coincide(robot.pos, m) for m in maxima):
            assert action == Action(STAY, branch=branch)
            continue
        assert (action.kind, action.branch) == (MOVE_CAREFUL, branch)
        if len(maxima) == 1 or _clear_of_a_tie(robot, maxima):
            closest = min(maxima, key=lambda m: _square(robot.pos, m))
            assert _bits(action) == _bits(Action(MOVE_CAREFUL, closest, branch))
        else:
            assert any(_bits(action) == _bits(Action(MOVE_CAREFUL, m, branch)) for m in maxima)


@settings(max_examples=600, deadline=None)
@given(_cases())
def test_maxima_decisions_are_the_same_under_every_frame_bar_a_tie(robots):
    snap = Snapshot(robots)
    maxima = snap.config.maxima
    for robot in snap.robots:
        action = decide(snap, robot)
        if action.kind == MOVE_CAREFUL and len(maxima) == 2 and near_tie(robot.pos, *maxima):
            # The view breaks the tie: choose_closest_position on the images, sorted as a view's maxima.
            images = [Point(*q) for q in ego_images(robot.frame, robot.pos, maxima)[0]]
            if images[0] != images[1]:
                picked = choose_closest_position(Point(0.0, 0.0), *sorted(images))
                assert action.target == maxima[images.index(picked)]
        else:
            assert _bits(action) == _bits(decide(snap, replace(robot, frame=Frame())))


@settings(max_examples=600, deadline=None)
@given(_cases(small=True))
def test_maxima_decisions_equal_the_view_path_bit_for_bit(robots):
    snap = Snapshot([replace(robot, frame=Frame()) for robot in robots])
    for robot in snap.robots:
        assert _bits(decide(snap, robot)) == _bits(_view_decision(snap, robot))


def test_robots_whose_frames_merge_two_other_points_into_a_new_maximum_decide_on_the_configuration():
    # Three robots at (0, 0) make the unique maximum.  Seen under rotation 1,
    # the two camps of two near (2**41, 2**45) round to one image holding four,
    # which a view makes its unique maximum instead.  The rule reads only the
    # configuration's maximum, so every robot off it walks there exactly.
    positions = [(0.0, 0.0)] * 3 + [(2.0**41, 2.0**45)] * 2 + [(2.0**41 + 2.0**-11, 2.0**45)] * 2 + [(-5.0, 0.0)]
    snap = Snapshot([Robot(Point(x, y), 1.0, Frame(rotation=1.0)) for x, y in positions])
    assert snap.config.maxima == [Point(0.0, 0.0)]
    merged = Point(2199023255552.002, 2.0**45)
    assert _view_decision(snap, snap.robots[0]).target == merged
    decisions = [decide(snap, robot) for robot in snap.robots]
    assert [(d.kind, d.target) for d in decisions] == [("stay", None)] * 3 + [("move_careful", Point(0.0, 0.0))] * 5


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
        decisions.append(len(snap.config.maxima))
        return real_decide(snap, robot)

    monkeypatch.setattr(simulator, "decide", recording_decide)
    outcome, _ = run(random_robots(random.Random("maxima:observe"), 11), SchedulerSpec(BOUNDARY_ONLY, seed=3))
    assert outcome.status == "gathered"
    assert any(m <= 2 for m in decisions)
    assert views == {"observe": [], "compute_action": []}
