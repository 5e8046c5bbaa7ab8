"""trace_line and run's stream against the json.dumps writer trace_line replaced.

trace_line once built a dict and handed it to json.dumps.  That writer is
kept here, verbatim, as the oracle: the records written now must equal it
byte for byte, for sleeping and woken robots, every action kind and branch
label, and every finite coordinate.  ``run`` does not call trace_line: it
keeps one record per robot and writes each step in one piece.  The last
tests check that stream against the oracle directly, line by line, for the
actions ``step`` actually returned.
"""

import dataclasses
import io
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gathersim.simulator as simulator
from gathersim.geometry import Point
from gathersim.model import Frame
from gathersim.analysis import attach_lemma_monitors, random_robots
from gathersim.protocol import BRANCH_UNIQUE_MAX, BRANCHES, MOVE_CAREFUL, MOVE_DIRECT, STAY, Action
from gathersim.simulator import (
    RANDOM_SUBSET,
    ROUND_ROBIN,
    SCRIPTED,
    SYNCHRONOUS,
    Robot,
    SchedulerSpec,
    trace_line,
)

EDGE_COORDINATES = (0.0, -0.0, 5e-324, -5e-324, 1e-05, 1e16, 1e308, -1e308, 0.1, 1.0 / 3.0, 7, -3)


def _reference_trace_line(t, i, robot, action):
    target = None if action is None else action.target
    return json.dumps(
        {
            "t": t,
            "robot_id": i,
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
_INDEX = st.one_of(st.integers(min_value=0, max_value=1000), st.integers(min_value=-(2**100), max_value=2**100))
_STEP = st.one_of(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=2**70))
_ROBOT = st.builds(Robot, _POINT, st.sampled_from([1.0, 0.02, 1e308]))
_BRANCH = st.sampled_from((None,) + BRANCHES)
_ACTION = st.one_of(
    st.none(),
    st.builds(Action, st.just(STAY), st.none(), _BRANCH),
    st.builds(Action, st.sampled_from([MOVE_CAREFUL, MOVE_DIRECT]), _POINT, _BRANCH),
)


@given(_STEP, _INDEX, _ROBOT, _ACTION)
def test_trace_line_matches_json_dumps(t, i, robot, action):
    assert trace_line(t, i, robot, action) == _reference_trace_line(t, i, robot, action)


@given(_STEP, _INDEX, _ROBOT)
def test_a_sleeping_robot_keeps_matching_step_after_step(t, i, robot):
    for step in (t, t + 1, t + 2):
        assert trace_line(step, i, robot, None) == _reference_trace_line(step, i, robot, None)


def test_every_kind_and_branch_label():
    robot = Robot(Point(-0.0, 1e-05), 1.0)
    for branch in (None,) + BRANCHES:
        actions = [Action(STAY, branch=branch)]
        actions += [Action(kind, Point(1e16, -5e-324), branch) for kind in (MOVE_CAREFUL, MOVE_DIRECT)]
        for action in actions:
            line = trace_line(4, 12, robot, action)
            assert line == _reference_trace_line(4, 12, robot, action)
            assert json.loads(line)["branch"] == branch


def test_the_sleeping_record_follows_the_robot_it_is_built_from():
    robot = Robot(Point(0.5, -2.0), 1.0)
    moved = dataclasses.replace(robot, pos=Point(1e308, -0.0))
    reframed = dataclasses.replace(robot, frame=Frame(rotation=1.0, reflected=True))
    for other in (robot, moved, reframed):
        assert trace_line(1, 3, other, None) == _reference_trace_line(1, 3, other, None)
    assert json.loads(trace_line(1, 3, moved, None))["new_x"] == 1e308


def _streamed_and_per_robot(monkeypatch, robots, spec, **kwargs):
    """The bytes run streams, and the same steps written by the json.dumps oracle per robot per step."""
    steps = []
    real_step = simulator.step

    def recording_step(snap, active):
        after, actions = real_step(snap, active)
        steps.append((snap.t, after.robots, actions))
        return after, actions

    monkeypatch.setattr(simulator, "step", recording_step)
    sink = io.StringIO()
    outcome, written = simulator.run(robots, spec, trace=sink, **kwargs)
    expected = "".join(
        _reference_trace_line(t, i, robot, actions.get(i)) + "\n"
        for t, after, actions in steps
        for i, robot in enumerate(after)
    )
    assert outcome.final_t == len(steps) > 1
    assert written == len(robots) * len(steps)
    return sink.getvalue(), expected, steps


@pytest.mark.parametrize(
    "strategy, refresh",
    [(SYNCHRONOUS, False), (RANDOM_SUBSET, False), (ROUND_ROBIN, True)],
    ids=["synchronous", "random_subset", "round_robin-refresh_frames"],
)
def test_a_run_streams_what_trace_line_writes_for_each_step(monkeypatch, strategy, refresh):
    robots = random_robots(random.Random(f"stream:{strategy}"), 7)
    streamed, expected, _ = _streamed_and_per_robot(
        monkeypatch, robots, SchedulerSpec(strategy, 3), monitors=attach_lemma_monitors(),
        refresh_frames=refresh,
    )
    assert streamed == expected


def test_a_scripted_run_with_a_vetoed_careful_move_streams_what_trace_line_writes(monkeypatch):
    # Two robots make a unique maximum at the origin; robot 2 stands on the
    # way of robots 3 and 4 to it, so their careful moves are vetoed.
    robots = [Robot(Point(x, 0.0), 1.0, Frame(rotation=x, reflected=i % 2 == 1))
              for i, x in enumerate((0.0, 0.0, 2.0, 4.0, 6.0))]
    spec = SchedulerSpec(SCRIPTED, script=((3, 4), (2,), (3, 4), (0, 1, 2, 3, 4)))
    streamed, expected, steps = _streamed_and_per_robot(monkeypatch, robots, spec)
    assert streamed == expected
    vetoed = [(t, i) for t, after, actions in steps for i, action in actions.items()
              if action.kind == STAY and action.branch == BRANCH_UNIQUE_MAX
              and after[i].pos != Point(0.0, 0.0)]
    assert vetoed[:2] == [(0, 3), (0, 4)]
