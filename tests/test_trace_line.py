"""trace_line against the json.dumps writer it replaced, and the record it caches.

trace_line once built a dict and handed it to json.dumps.  That writer is
kept here, verbatim, as the oracle: the records written now must equal it
byte for byte, for sleeping and woken robots, every action kind and branch
label, and every finite coordinate.  A sleeping robot's record is cached on
the frozen Robot, so the last tests check that the cache never shows an old
position and never shows in fields, equality, hashing or repr.
"""

import dataclasses
import json

from hypothesis import given
from hypothesis import strategies as st

from gathersim.geometry import Point
from gathersim.model import Frame
from gathersim.protocol import BRANCHES, MOVE_CAREFUL, MOVE_DIRECT, STAY, Action
from gathersim.simulator import Robot, trace_line

EDGE_COORDINATES = (0.0, -0.0, 5e-324, -5e-324, 1e-05, 1e16, 1e308, -1e308, 0.1, 1.0 / 3.0, 7, -3)


def _reference_trace_line(t, robot, action):
    target = None if action is None else action.target
    return json.dumps(
        {
            "t": t,
            "robot_id": robot.ident,
            "activated": action is not None,
            "branch": None if action is None else action.branch,
            "action": None if action is None else action.kind,
            "target_x": None if target is None else target.x,
            "target_y": None if target is None else target.y,
            "new_x": robot.pos.x,
            "new_y": robot.pos.y,
        },
        separators=(",", ":"),
    )


_COORDINATE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_COORDINATES),
)
_POINT = st.builds(Point, _COORDINATE, _COORDINATE)
_IDENT = st.one_of(st.integers(min_value=0, max_value=1000), st.integers(min_value=-(2**100), max_value=2**100))
_STEP = st.one_of(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=2**70))
_ROBOT = st.builds(Robot, _IDENT, _POINT, st.sampled_from([1.0, 0.02, 1e308]))
_BRANCH = st.sampled_from((None,) + BRANCHES)
_ACTION = st.one_of(
    st.none(),
    st.builds(Action, st.just(STAY), st.none(), _BRANCH),
    st.builds(Action, st.sampled_from([MOVE_CAREFUL, MOVE_DIRECT]), _POINT, _BRANCH),
)


@given(_STEP, _ROBOT, _ACTION)
def test_trace_line_matches_json_dumps(t, robot, action):
    assert trace_line(t, robot, action) == _reference_trace_line(t, robot, action)


@given(_STEP, _ROBOT)
def test_a_sleeping_robot_keeps_matching_step_after_step(t, robot):
    for step in (t, t + 1, t + 2):
        assert trace_line(step, robot, None) == _reference_trace_line(step, robot, None)


def test_every_kind_and_branch_label():
    robot = Robot(12, Point(-0.0, 1e-05), 1.0)
    for branch in (None,) + BRANCHES:
        actions = [Action(STAY, branch=branch)]
        actions += [Action(kind, Point(1e16, -5e-324), branch) for kind in (MOVE_CAREFUL, MOVE_DIRECT)]
        for action in actions:
            line = trace_line(4, robot, action)
            assert line == _reference_trace_line(4, robot, action)
            assert json.loads(line)["branch"] == branch


def test_the_sleeping_record_follows_the_robot_it_is_built_from():
    robot = Robot(3, Point(0.5, -2.0), 1.0)
    trace_line(0, robot, None)
    moved = dataclasses.replace(robot, pos=Point(1e308, -0.0))
    reframed = dataclasses.replace(robot, frame=Frame(rotation=1.0, reflected=True))
    assert "asleep_record" not in vars(moved) and "asleep_record" not in vars(reframed)
    for other in (moved, reframed):
        assert trace_line(1, other, None) == _reference_trace_line(1, other, None)
    assert json.loads(trace_line(1, moved, None))["new_x"] == 1e308
    assert trace_line(2, robot, None) == _reference_trace_line(2, robot, None)


def test_the_cached_record_is_invisible_to_equality_hash_and_repr():
    cached, fresh = Robot(5, Point(0.25, 4.0), 1.0), Robot(5, Point(0.25, 4.0), 1.0)
    trace_line(0, cached, None)
    assert "asleep_record" in vars(cached) and "asleep_record" not in vars(fresh)
    assert cached == fresh
    assert hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    assert dataclasses.astuple(cached) == dataclasses.astuple(fresh)
    assert [f.name for f in dataclasses.fields(Robot)] == ["ident", "pos", "sigma", "frame"]
