"""Decisions under three or more maxima, against the per-robot view.

``simulator.decide`` maps every occupied point into a woken robot's frame as
a plain pair when there are three or more maxima and decides on the pairs
and the configuration's own counts (``protocol.pair_action``); it merges
nothing.  The oracle is the view path that decided such robots before: the
robot observes the whole configuration from its own position, and
``compute_action`` runs on that view; the target goes back through
``ego_images``'s map to global coordinates and is snapped to the nearest
occupied point (``_view_decision``, kept in ``test_maxima_decisions.py``).
Where the images are pairwise distinct, kind, branch and every bit of the
target must agree.  Where two images round to one point, the view merges
them and may see other maxima, while ``decide`` keeps the counts; there a
second oracle, ``_unmerged_decision``, applies the rule to the images with
the configuration's counts through the view path's predicates.
"""

import math
import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import gathersim.simulator as simulator
from gathersim import cli
from gathersim.analysis import random_point_set
from gathersim.geometry import EPS, Point, on_circle, points_coincide, smallest_enclosing_circle
from gathersim.model import Frame, ego_images, observe, random_frame
from gathersim.protocol import (
    BRANCH_ALL_TO_CENTER,
    BRANCH_BOUNDARY_TO_CENTER,
    BRANCH_INSIDE_TO_CENTER,
    MOVE_DIRECT,
    STAY,
    Action,
    compute_action,
    pair_action,
)
from gathersim.simulator import RANDOM_SUBSET, Robot, SchedulerSpec, Snapshot, decide, run
from test_maxima_decisions import _bits, _coordinate, _frames, _view_decision, count_calls
from test_output_pins import MERGE_CONFIGS


def _merges(snap, robot):
    return len(observe(snap.config, robot.frame, robot.pos).occupied) < len(snap.config.occupied)


def _unmerged_decision(snap, robot):
    """The SEC rule for robot on its images of the occupied points, each with
    the configuration's count, unmerged, decided as compute_action decides,
    and snapped as decide snaps."""
    images, to_global = ego_images(robot.frame, robot.pos, snap.config.occupied)
    points = [Point(*q) for q in images]
    counts = list(snap.config.occupied.values())
    sec = smallest_enclosing_circle(points)
    interior = [p for p in points if not on_circle(p, sec)]
    if not interior:
        label, movers = BRANCH_ALL_TO_CENTER, points
    elif all(points_coincide(p, sec.center) for p in interior):
        top = max(counts)
        label = BRANCH_BOUNDARY_TO_CENTER
        movers = [p for p, count in zip(points, counts) if count == top and on_circle(p, sec)]
    else:
        label, movers = BRANCH_INSIDE_TO_CENTER, interior
    own = Point(0.0, 0.0)
    if any(points_coincide(own, p) for p in movers) and not points_coincide(own, sec.center):
        target = to_global(sec.center)
        return Action(MOVE_DIRECT, snap.config.key_near(target) or target, label)
    return Action(STAY, branch=label)


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
    """Each robot's decision equals the view path's where its images are
    pairwise distinct, and _unmerged_decision's on an SEC branch where not."""
    snap = Snapshot(robots)
    assert len(snap.config.maxima) > 2
    for i in deciders:
        robot = snap.robots[i]
        merged = _merges(snap, robot)
        event("merged" if merged else "distinct images")
        decision = decide(snap, robot)
        event(f"{decision.kind}, {decision.branch}")
        oracle = _unmerged_decision if merged else _view_decision
        assert _bits(decision) == _bits(oracle(snap, robot))


@settings(max_examples=600, deadline=None)
@given(_cases())
def test_sec_decisions_equal_the_view_path_bit_for_bit(robots):
    # A robot more than EPS from the maximum it was placed by leaves it one robot short.
    assume(len(Snapshot(robots).config.maxima) > 2)
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


def _ngon(n, radius, phase):
    return [Point(radius * math.cos(phase + math.tau * k / n), radius * math.sin(phase + math.tau * k / n)) for k in range(n)]


@st.composite
def _rim_cases(draw):
    """Robots on a regular n-gon, ``top`` on each vertex, possibly some at its
    center, and one more robot near a vertex or the center, which holds one
    robot fewer: at it, or about EPS from it in its own frame, which has scale
    2**20 or 2**-20.  Every robot shares that frame."""
    n, top = draw(st.integers(3, 9)), draw(st.integers(1, 3))
    vertices = _ngon(n, draw(st.sampled_from([1.0, 1e-3, 1e3])), draw(st.floats(0.0, math.tau)))
    anchor = draw(st.just(-1) | st.integers(0, n - 1))  # -1 is the center
    centered = draw(st.integers(int(anchor < 0), max(1, top - 1)))
    scale = draw(st.sampled_from([2.0**20, 2.0**-20]))
    reach = draw(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0])) * EPS / scale
    angle = draw(st.floats(0.0, math.tau))
    x, y = vertices[anchor] if anchor >= 0 else (0.0, 0.0)
    extra = Point(x + reach * math.cos(angle), y + reach * math.sin(angle))
    frame = Frame(draw(st.floats(0.0, math.tau)), scale, reflected=draw(st.booleans()))
    positions = [v for k, v in enumerate(vertices) for _ in range(top - (k == anchor))]
    positions += [Point(0.0, 0.0)] * centered + [extra]
    event(f"scale 2**{int(math.log2(scale))}, {'rim' if anchor >= 0 else 'center'}, reach {reach * scale / EPS:.3g} EPS")
    return [Robot(p, 1.0, frame) for p in positions]


@settings(max_examples=300, deadline=None)
@given(_rim_cases())
def test_rim_and_center_decisions_at_large_and_small_scales_equal_the_view_path(robots):
    assume(len(Snapshot(robots).config.maxima) > 2)
    _assert_decisions_equal_the_view_path(robots, range(len(robots)))


def _near_cases(scale):
    """Pentagons of pairs where the last robot stands half an EPS, in its own
    frame, from a point it stands on in its view: along the rim from a vertex
    (with one robot there, so that normalize merging them keeps five maxima),
    or from an interior point at the center or off it."""
    near = 0.5 * EPS / scale
    phases = [0.3 + math.tau * k / 5 for k in range(5)]
    rim = [Point(math.cos(a), math.sin(a)) for a in phases]
    beside = Point(math.cos(phases[0] + near), math.sin(phases[0] + near))
    return {
        "vertex": rim[1:] * 2 + [rim[0], beside],
        "vertex, center": rim[1:] * 2 + [rim[0], Point(0.0, 0.0), beside],
        "center": rim * 2 + [Point(0.0, 0.0), Point(near, 0.0)],
        "off center": rim * 2 + [Point(0.25, 0.0), Point(0.25 + near, 0.0)],
    }


@pytest.mark.parametrize("scale", [2.0**20, 2.0**-20], ids=["2**20", "2**-20"])
def test_robots_within_eps_of_a_point_in_their_frame_decide_as_the_view_path(scale):
    outcomes = {}
    for name, positions in _near_cases(scale).items():
        snap = Snapshot([Robot(p, 1.0, Frame(0.7, scale, reflected=True)) for p in positions])
        decisions = [decide(snap, robot) for robot in snap.robots]
        assert [_bits(d) for d in decisions] == [_bits(_view_decision(snap, robot)) for robot in snap.robots]
        outcomes[name] = (len(snap.config.occupied), decisions[-1].branch, decisions[-1].kind)
    # At 2**20 normalize merges the last robot into its point.  At 2**-20 it is a
    # point of its own, but its frame shrinks every distance 2**20 times.
    if scale > 1.0:
        assert outcomes == {
            "vertex": (5, "all_to_center", "move_direct"),
            "vertex, center": (6, "boundary_to_center", "move_direct"),
            "center": (6, "boundary_to_center", "stay"),
            "off center": (6, "inside_to_center", "move_direct"),
        }
    else:
        assert outcomes == {
            "vertex": (6, "all_to_center", "move_direct"),
            "vertex, center": (7, "boundary_to_center", "stay"),
            "center": (7, "boundary_to_center", "stay"),
            "off center": (7, "inside_to_center", "move_direct"),
        }


SUBNORMALS = st.integers(-(2**52), 2**52).map(lambda k: k * 5e-324)


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False) | SUBNORMALS, st.floats(allow_nan=False) | SUBNORMALS)
def test_hypot_is_never_below_the_larger_coordinate(x, y):
    # pair_action keeps only the images with |x| <= EPS and |y| <= EPS when it
    # looks for the one the robot stands on, which is exact on this premise.
    assert math.hypot(x, y) >= max(abs(x), abs(y))


def test_merged_views_are_decided_on_the_configurations_counts(monkeypatch):
    # Robot 0 of each merge configuration sees two occupied points as one in
    # its view: among five maxima that point would become the view's unique
    # maximum, and among three camps of two a fourth.  It decides on the
    # configuration's counts instead, so it takes an SEC branch both times.
    calls = count_calls(monkeypatch, pair_action)["pair_action"]
    seen, views = [], []
    for data in MERGE_CONFIGS:
        config = cli.parse_config(data)
        snap = Snapshot(config.robots)
        robot = snap.robots[0]
        assert len(snap.config.maxima) >= 3 and _merges(snap, robot)
        decision = decide(snap, robot)
        images, counts = calls[-1]
        assert len(set(images)) < len(images) and counts == list(snap.config.occupied.values())
        assert _bits(decision) == _bits(_unmerged_decision(snap, robot))
        seen.append((len(snap.config.maxima), decision.kind, decision.branch))
        views.append(_view_decision(snap, robot).branch)
    assert views == ["unique_max", "inside_to_center"]
    assert seen == [(5, "stay", "inside_to_center"), (3, "stay", "inside_to_center")]


def _recorded_decisions(monkeypatch):
    """Patch simulator.decide to record each (snapshot, robot) it decides, into the returned list."""
    decisions = []
    real = simulator.decide

    def recording(snap, robot):
        decisions.append((snap, robot))
        return real(snap, robot)

    monkeypatch.setattr(simulator, "decide", recording)
    return decisions


def test_distinct_points_are_decided_without_a_view(monkeypatch):
    rng = random.Random("sec decisions: 31 distinct")
    robots = [Robot(p, rng.uniform(0.05, 0.3), random_frame(rng)) for p in random_point_set(rng, 31)]
    views = count_calls(monkeypatch, observe, compute_action)
    decisions = _recorded_decisions(monkeypatch)
    outcome, _ = run(robots, SchedulerSpec(RANDOM_SUBSET, seed=5))
    assert outcome.status == "gathered"
    assert any(len(snap.config.maxima) > 2 for snap, _ in decisions)
    assert views == {"observe": [], "compute_action": []}


def test_robots_whose_images_merge_decide_without_a_view(monkeypatch):
    views = count_calls(monkeypatch, observe, compute_action)
    decisions = _recorded_decisions(monkeypatch)
    for data in MERGE_CONFIGS:
        config = cli.parse_config(data)
        outcome, _ = run(config.robots, config.scheduler)
        assert outcome.status == "gathered"
    assert any(_merges(snap, robot) for snap, robot in decisions)
    assert views == {"observe": [], "compute_action": []}
