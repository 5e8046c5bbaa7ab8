"""Decisions under three or more maxima, against the per-robot view.

``simulator.decide`` maps every occupied point into a woken robot's frame as
a plain pair and decides on the pairs (``protocol.sec_action``) when there
are three or more maxima and no two images are equal.  The oracle is the view
path that decided such robots before: the robot observes the whole
configuration through its ego frame, ``compute_action`` runs on that view,
and the target goes back through ``to_global`` and is snapped to the nearest
occupied point.  Kind, branch and every bit of the target must agree.
"""

import math
import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import gathersim.simulator as simulator
from gathersim import cli
from gathersim.analysis import random_point_set
from gathersim.geometry import EPS, Point
from gathersim.model import Frame, ego_frame, observe, random_frame, to_global
from gathersim.protocol import Action, compute_action
from gathersim.simulator import RANDOM_SUBSET, Robot, SchedulerSpec, Snapshot, decide, run
from test_maxima_decisions import _bits, _coordinate, _frames
from test_output_pins import MERGE_CONFIGS


def _view_decision(snap, robot):
    """The rule's action for robot through its view of the configuration, snapped, before the veto."""
    frame = ego_frame(robot.frame, robot.pos)
    action = compute_action(observe(snap.config, frame), Point(0.0, 0.0))
    if action.target is None:
        return action
    target = to_global(frame, action.target)
    return Action(action.kind, snap.config.key_near(target) or target, action.branch)


def _merges(snap, robot):
    return len(observe(snap.config, ego_frame(robot.frame, robot.pos)).occupied) < len(snap.config.occupied)


@st.composite
def _points(draw):
    """A shape's name, its distinct points and an n-gon's center, else None:
    a random set on a grid, a regular n-gon, or neighbouring floats far from
    the origin, whose images from there often merge."""
    shape = draw(st.sampled_from(["grid", "ngon", "merged"]))
    if shape == "ngon":
        n = draw(st.integers(3, 12))
        radius = draw(st.sampled_from([1.0, 3.0, 1e-3, 1e4]))
        cx, cy = draw(st.sampled_from([(0.0, 0.0), (0.5, -2.0), (1e3, 1e3)]))
        phase = draw(st.floats(0.0, math.tau))
        angles = [phase + math.tau * k / n for k in range(n)]
        return shape, [Point(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles], Point(cx, cy)
    grid = draw(st.lists(st.tuples(_coordinate(), _coordinate()), min_size=3, max_size=9, unique=True))
    if shape == "merged":
        # Seen from the origin, the larger y rounds away steps of one or two ulps in x.
        x0 = draw(st.sampled_from([2.0**41, -(2.0**44), 2.0**30]))
        dx, y0 = math.ulp(x0) * draw(st.sampled_from([1, 2])), 16.0 * x0
        return shape, [Point(x0 + x * dx, y0 + y * math.ulp(y0)) for x, y in grid], None
    unit = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3, 1e3, 1.5 * EPS]))
    return shape, [Point(x * unit, y * unit) for x, y in grid], None


@st.composite
def _cases(draw):
    """Robots with three or more maxima, most likely: ``top`` on each maximum
    and fewer on the other points, and one more robot on a point (zeros
    possibly of the other sign), within 2*EPS of one, or far from all, or
    some at the exact center of an n-gon.  Up to three frames take turns
    over the robots."""
    shape, points, center = draw(_points())
    top = draw(st.integers(1, 3))
    maxima = draw(st.integers(3, len(points)))
    counts = [top] * maxima + [draw(st.integers(1, max(1, top - 1))) for _ in points[maxima:]]
    place = draw(st.sampled_from(["on", "near", "far"] + ["center"] * (center is not None)))
    if place == "center":
        extra = [center] * draw(st.integers(1, top))
    elif place == "far":
        extra = [Point(0.0, 0.0) if shape == "merged" else Point(2.0**30, -(2.0**30))]
    else:
        anchor = draw(st.integers(0, len(points) - 1))
        x, y = points[anchor]
        if place == "on":
            extra = [Point(-x if x == 0.0 and draw(st.booleans()) else x, -y if y == 0.0 and draw(st.booleans()) else y)]
        else:
            extra = [Point(x + draw(st.floats(-2 * EPS, 2 * EPS)), y + draw(st.floats(-2 * EPS, 2 * EPS)))]
        if counts[anchor] == top:
            # The extra robot may join its anchor; the other maxima keep up.
            counts = [count + (count == top and i != anchor) for i, count in enumerate(counts)]
    positions = [p for p, count in zip(points, counts) for _ in range(count)] + extra
    frames = draw(st.lists(_frames(), min_size=1, max_size=3))
    event(f"{shape}, {place}")
    return [Robot(p, 1.0, frames[i % len(frames)]) for i, p in enumerate(positions)]


def _assert_decisions_equal_the_view_path(robots, deciders):
    snap = Snapshot(robots)
    assert len(snap.maxima) > 2
    for i in deciders:
        robot = snap.robots[i]
        event("merged" if _merges(snap, robot) else "distinct images")
        decision = decide(snap, robot)
        event(f"{decision.kind}, {decision.branch}")
        assert _bits(decision) == _bits(_view_decision(snap, robot))


@settings(max_examples=600, deadline=None)
@given(_cases())
def test_sec_decisions_equal_the_view_path_bit_for_bit(robots):
    # A robot more than EPS from the maximum it was placed by leaves it one robot short.
    assume(len(Snapshot(robots).maxima) > 2)
    _assert_decisions_equal_the_view_path(robots, range(len(robots)))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0**-20, 2.0**20, 1e-6, 1e6]), st.booleans())
def test_sec_decisions_on_201_points_equal_the_view_path(seed, scale, reflected):
    rng = random.Random(seed)
    points = random_point_set(rng, 201)
    robots = [Robot(p, 1.0, Frame(rng.uniform(0.0, math.tau), scale, reflected=reflected)) for p in points]
    _assert_decisions_equal_the_view_path(robots, rng.sample(range(201), 8))


# Distances of exactly EPS, in the frame of the last robot listed, where
# each test of the rule turns: a point EPS inside the rim is on it; an
# interior point EPS from the center is at it; a robot EPS from an interior
# point stands on it.  Every point holds a maximum.
EDGES = (
    ("all_to_center", [Point(4 * EPS, 0.0), Point(2 * EPS, EPS), Point(0.0, 0.0)]),
    ("boundary_to_center", [Point(8 * EPS, 0.0), Point(4 * EPS, EPS), Point(0.0, 0.0)]),
    (
        "inside_to_center",
        [Point(x, y) for x in (-1.0, 3.0) for y in (-2.0, 2.0) for _ in range(2)] + [Point(-EPS, 0.0), Point(0.0, 0.0)],
    ),
)


@pytest.mark.parametrize("branch, points", EDGES, ids=[branch for branch, _ in EDGES])
def test_sec_decisions_at_exactly_eps_equal_the_view_path(branch, points):
    snap = Snapshot([Robot(p, 1.0) for p in points])
    decision = decide(snap, snap.robots[-1])
    assert (decision.kind, decision.branch) == ("move_direct", branch)
    assert _bits(decision) == _bits(_view_decision(snap, snap.robots[-1]))


def _counting(monkeypatch, names):
    """Replace each named simulator binding with one that counts its calls into the returned dict."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(simulator, name)

        def counted(*args, real=real, name=name):
            calls[name].append(args)
            return real(*args)

        monkeypatch.setattr(simulator, name, counted)
    return calls


def test_distinct_points_are_decided_without_a_view(monkeypatch):
    rng = random.Random("sec decisions: 31 distinct")
    robots = [Robot(p, rng.uniform(0.05, 0.3), random_frame(rng)) for p in random_point_set(rng, 31)]
    calls = _counting(monkeypatch, ["observe", "compute_action", "decide"])
    outcome, _ = run(robots, SchedulerSpec(RANDOM_SUBSET, seed=5))
    assert outcome.status == "gathered"
    assert any(len(snap.maxima) > 2 for snap, _ in calls["decide"])
    assert calls["observe"] == [] and calls["compute_action"] == []


def test_only_robots_whose_images_merge_observe(monkeypatch):
    merging = []
    real_decide = simulator.decide

    def recording_decide(snap, robot):
        if len(snap.maxima) > 2 and _merges(snap, robot):
            merging.append(ego_frame(robot.frame, robot.pos))
        return real_decide(snap, robot)

    calls = _counting(monkeypatch, ["observe"])
    monkeypatch.setattr(simulator, "decide", recording_decide)
    for data in MERGE_CONFIGS:
        config = cli.parse_config(data)
        run(config.robots, config.scheduler)
    assert merging and [frame for _, frame in calls["observe"]] == merging
