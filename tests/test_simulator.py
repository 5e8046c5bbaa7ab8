"""Engine tests: scheduling, motion caps, snapshot steps, full runs.

The three-robot collinear walk is traced by hand below and pinned exactly;
it exercises the circle-contraction branch end to end with the motion cap
active, which no single-module test can.
"""

import dataclasses
import json
import math
import warnings

import pytest

import gathersim.simulator as simulator
from gathersim.analysis import attach_lemma_monitors
from gathersim.geometry import Point, Tolerance, dist
from gathersim.model import Frame
from gathersim.protocol import (
    BRANCH_BOUNDARY_TO_CENTER,
    BRANCH_UNIQUE_MAX,
    MOVE_CAREFUL,
    MOVE_DIRECT,
    STAY,
)
from gathersim.simulator import (
    BOUNDARY_ONLY,
    GATHERED,
    RANDOM_SUBSET,
    ROUND_ROBIN,
    SCRIPTED,
    STEP_LIMIT_REACHED,
    STRATEGIES,
    SYNCHRONOUS,
    MonitorReport,
    Robot,
    SchedulerSpec,
    Snapshot,
    apply_motion,
    initial_state,
    next_active,
    run,
    step,
    trace_line,
)

TOL = Tolerance()


def _line(robot_positions, sigma=1.0):
    return [
        Robot(i, Point(*pos), sigma) for i, pos in enumerate(robot_positions)
    ]


def _records(trace):
    return [json.loads(line) for line in trace]


# -- robots and state ---------------------------------------------------------


def test_robot_validation():
    with pytest.raises(ValueError):
        Robot(0, Point(0, 0), 0.0)
    with pytest.raises(ValueError):
        Robot(0, Point(0, 0), -1.0)
    with pytest.raises(ValueError):
        Robot(0, Point(math.nan, 0), 1.0)


def test_initial_state_validation():
    with pytest.raises(ValueError):
        initial_state([])
    with pytest.raises(ValueError):
        initial_state([Robot(1, Point(0, 0), 1), Robot(1, Point(1, 0), 1)])


def test_initial_state_copies_robots():
    bots = [Robot(0, Point(0, 0), 1)]
    state = initial_state(bots)
    state.robots[0] = Robot(0, Point(9, 9), 1)
    assert bots[0].pos == Point(0, 0)


def test_robots_are_frozen():
    robot = Robot(0, Point(0, 0), 1)
    trace_line(0, robot, None)  # fills the cached record
    with pytest.raises(dataclasses.FrozenInstanceError):
        robot.pos = Point(9, 9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        robot.asleep_record = ""
    assert robot.pos == Point(0, 0)


# -- scheduling ---------------------------------------------------------------


def test_synchronous_wakes_everyone():
    state = initial_state(_line([(i, 0) for i in range(5)]))
    snap = Snapshot(state, TOL)
    assert next_active(SchedulerSpec(SYNCHRONOUS), snap) == [0, 1, 2, 3, 4]


def test_round_robin_cycles_by_step():
    state = initial_state(_line([(0, 0), (1, 0), (2, 0)]))
    snap = Snapshot(state, TOL)
    state.t = 4
    assert next_active(SchedulerSpec(ROUND_ROBIN), snap) == [1]


def test_random_subset_forces_starved_robot():
    # With seed 0 the raw draw at t=10 is {3}; robot 2 has been idle for the
    # whole fairness window, so the post-filter must add it.
    state = initial_state(_line([(i, 0) for i in range(4)]))
    snap = Snapshot(state, TOL)
    state.t = 10
    state.last_active = [9, 9, 7, 9]
    spec = SchedulerSpec(RANDOM_SUBSET, seed=0, fairness_bound=3)
    assert next_active(spec, snap) == [2, 3]


def test_random_subset_never_empty_and_replayable():
    state = initial_state(_line([(0, 0), (1, 0), (2, 0)]))
    snap = Snapshot(state, TOL)
    spec = SchedulerSpec(RANDOM_SUBSET, seed=11)
    for t in range(200):
        state.t = t
        active = next_active(spec, snap)
        assert active
        assert active == sorted(set(active))
        assert all(0 <= i < 3 for i in active)
        assert next_active(spec, snap) == active


def test_boundary_only_starves_interior():
    state = initial_state(
        _line([(1, 0), (0, 1), (-1, 0), (0, -1), (0.3, 0.2)])
    )
    snap = Snapshot(state, TOL)
    active = next_active(SchedulerSpec(BOUNDARY_ONLY), snap)
    assert active == [0, 1, 2, 3]


def test_scripted_cycles_and_validates():
    state = initial_state(_line([(0, 0), (1, 0), (2, 0)]))
    snap = Snapshot(state, TOL)
    spec = SchedulerSpec(SCRIPTED, script=((0,), (1, 2)))
    assert next_active(spec, snap) == [0]
    state.t = 1
    assert next_active(spec, snap) == [1, 2]
    state.t = 2
    assert next_active(spec, snap) == [0]
    bad = SchedulerSpec(SCRIPTED, script=((7,),))
    with pytest.raises(ValueError):
        next_active(bad, snap)


def test_scheduler_spec_validation():
    with pytest.raises(ValueError):
        SchedulerSpec("lazy")
    with pytest.raises(ValueError):
        SchedulerSpec(SYNCHRONOUS, fairness_bound=0)
    with pytest.raises(ValueError):
        SchedulerSpec(SCRIPTED)
    with pytest.raises(ValueError):
        SchedulerSpec(SCRIPTED, script=((),))


# -- motion -------------------------------------------------------------------


def test_motion_within_cap_is_bit_exact():
    r = Robot(0, Point(0, 0), 1.0)
    assert apply_motion(r, Point(0.5, 0)) == Point(0.5, 0)
    messy = Point(0.1 + 0.2, -0.3)
    assert apply_motion(Robot(0, Point(1, 1), 5.0), messy) == messy


def test_motion_caps_at_sigma():
    r = Robot(0, Point(0, 0), 1.0)
    got = apply_motion(r, Point(3, 0))
    assert dist(got, Point(1, 0)) <= 1e-12


def test_motion_follows_unit_vector():
    r = Robot(0, Point(0, 0), 1.0)
    got = apply_motion(r, Point(3, 4))
    assert dist(got, Point(0.6, 0.8)) <= 1e-12


@pytest.mark.parametrize(
    "start, target",
    [
        (Point(1e308, 0.0), Point(-1e308, 0.0)),
        (Point(1e308, 1e308), Point(-1e308, -1e308)),
        (Point(1.7e308, 1.7e308), Point(-1.7e308, -1.7e308)),
    ],
)
@pytest.mark.parametrize("sigma", [1.0, 1e307])
def test_motion_survives_an_overflowing_distance(start, target, sigma):
    # dist(start, target) is inf; the robot still takes a finite capped step
    # toward the target.
    assert math.isinf(dist(start, target))
    got = apply_motion(Robot(0, start, sigma), target)
    assert math.isfinite(got.x) and math.isfinite(got.y)
    assert dist(start, got) <= sigma * (1.0 + 1e-15)
    if sigma > 1.0:
        # A step this long shows at 1e308: it covers sigma toward the target.
        assert dist(start, got) >= 0.99 * sigma
        assert got.x < start.x
        assert got.y == start.y if start.y == target.y else got.y < start.y


# -- single steps -------------------------------------------------------------


def test_step_requires_valid_active_set():
    state = initial_state(_line([(0, 0), (1, 0)]))
    with pytest.raises(ValueError):
        step(Snapshot(state, TOL), [])
    with pytest.raises(ValueError):
        step(Snapshot(state, TOL), [5])


def test_step_gathered_fixed_point():
    state = initial_state([Robot(i, Point(2, 3), 1) for i in range(5)])
    after, actions = step(Snapshot(state, TOL), range(5))
    assert after.t == 1
    assert [r.pos for r in after.robots] == [Point(2, 3)] * 5
    assert sorted(actions) == [0, 1, 2, 3, 4]
    assert all(a.kind == STAY for a in actions.values())


def test_step_three_collinear_hand_trace():
    # Singletons at 0, 2, 4 on the x axis: the enclosing circle is centered
    # at (2,0), the middle robot is interior and already central, so the two
    # rim robots head inward and the cap stops them after one unit.
    state = initial_state(_line([(0, 0), (2, 0), (4, 0)]))
    after, actions = step(Snapshot(state, TOL), [0, 1, 2])
    assert [r.pos for r in after.robots] == [Point(1, 0), Point(2, 0), Point(3, 0)]
    assert [actions[i].kind for i in range(3)] == [MOVE_DIRECT, STAY, MOVE_DIRECT]
    assert all(a.branch == BRANCH_BOUNDARY_TO_CENTER for a in actions.values())
    assert actions[0].target == Point(2, 0)


def test_step_blocked_careful_move_keeps_branch():
    state = initial_state(
        [
            Robot(0, Point(0, 0), 1),
            Robot(1, Point(0, 0), 1),
            Robot(2, Point(2, 0), 1),
            Robot(3, Point(4, 0), 1),
        ]
    )
    before = Snapshot(state, TOL)
    after, actions = step(before, [0, 1, 2, 3])
    blocked = actions[3]
    assert blocked.kind == STAY
    assert blocked.branch == BRANCH_UNIQUE_MAX
    assert blocked.target is None
    assert after.robots[3] is before.state.robots[3]
    assert after.robots[3].pos == Point(4, 0)
    # the robot in front walked; the one behind still judged the old snapshot
    mover = actions[2]
    assert mover.kind == MOVE_CAREFUL
    assert mover.target == Point(0, 0)
    assert after.robots[2].pos == Point(1, 0)


def test_step_inactive_robots_untouched():
    state = initial_state(_line([(0, 0), (2, 0), (4, 0)]))
    after, actions = step(Snapshot(state, TOL), [0])
    assert after.robots[1].pos == Point(2, 0)
    assert after.robots[2].pos == Point(4, 0)
    assert list(actions) == [0]
    assert after.last_active == [0, -1, -1]
    assert state.last_active == [-1, -1, -1]


def test_step_snapshot_single_activation_matches_full():
    # A lone activated robot must decide exactly as it would have in the
    # synchronous step, because both read the same frozen snapshot.
    mk = lambda: initial_state(_line([(0, 0), (2, 0), (4, 0)]))
    solo_after, solo_actions = step(Snapshot(mk(), TOL), [0])
    full_after, full_actions = step(Snapshot(mk(), TOL), [0, 1, 2])
    assert solo_actions[0] == full_actions[0]
    assert solo_after.robots[0].pos == full_after.robots[0].pos


def test_round_robin_step_touches_only_the_woken_robot():
    snap = Snapshot(initial_state(_line([(0, 0), (2, 0), (4, 0), (1, 3), (5, 2)], sigma=0.6)), TOL)
    spec = SchedulerSpec(ROUND_ROBIN)
    kinds = set()
    for _ in range(10):
        active = next_active(spec, snap)
        state, actions = step(snap, active)
        assert list(actions) == active
        for i, (old, new) in enumerate(zip(snap.state.robots, state.robots)):
            if i not in actions or actions[i].kind == STAY:
                assert new is old
            else:
                assert new.pos != old.pos
            kinds.add(actions[i].kind if i in actions else None)
        snap = Snapshot(state, TOL)
    assert {None, STAY, MOVE_DIRECT} <= kinds


# -- full runs ----------------------------------------------------------------


def test_single_robot_is_gathered_immediately():
    outcome, trace = run(
        [Robot(0, Point(5, 5), 1)], SchedulerSpec(SYNCHRONOUS), tol=TOL, record_trace=True
    )
    assert outcome.status == GATHERED
    assert outcome.final_t == 0
    assert outcome.final_config.occupied == {Point(5, 5): 1}
    assert trace == []


def test_three_collinear_gathers_at_center():
    outcome, _ = run(_line([(0, 0), (2, 0), (4, 0)]), SchedulerSpec(SYNCHRONOUS), tol=TOL)
    assert outcome.status == GATHERED
    assert outcome.final_t == 2
    assert outcome.final_config.occupied == {Point(2, 0): 3}


def test_three_collinear_fast_sigma_gathers_in_one():
    outcome, _ = run(
        _line([(0, 0), (2, 0), (4, 0)], sigma=10.0), SchedulerSpec(SYNCHRONOUS), tol=TOL
    )
    assert outcome.status == GATHERED
    assert outcome.final_t == 1


def test_gathered_start_stays_gathered_without_stopping():
    bots = [Robot(i, Point(-3, 7), 2) for i in range(5)]
    outcome, trace = run(
        bots,
        SchedulerSpec(RANDOM_SUBSET, seed=5),
        tol=TOL,
        max_steps=200,
        stop_on_gather=False,
        record_trace=True,
    )
    assert outcome.status == GATHERED
    assert outcome.final_t == 200
    assert outcome.final_config.occupied == {Point(-3, 7): 5}
    assert len(trace) == 5 * 200
    assert all((r["new_x"], r["new_y"]) == (-3, 7) for r in _records(trace))


def test_run_validates_max_steps():
    with pytest.raises(ValueError):
        run([Robot(0, Point(0, 0), 1)], SchedulerSpec(SYNCHRONOUS), tol=TOL, max_steps=0)


def test_even_robot_count_warns():
    bots = _line([(0, 0), (1, 0)])
    with pytest.warns(RuntimeWarning, match="even"):
        run(bots, SchedulerSpec(SYNCHRONOUS), tol=TOL, max_steps=5)


def test_step_limit_status():
    # One robot activated per 2-step script on a 3-robot line cannot finish
    # in 3 steps.
    bots = _line([(0, 0), (2, 0), (4, 0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcome, _ = run(
            bots, SchedulerSpec(ROUND_ROBIN), tol=TOL, max_steps=3
        )
    assert outcome.status == STEP_LIMIT_REACHED
    assert outcome.final_t == 3


def test_fairness_window_covers_every_robot():
    bots = _line([(i * 1.0, (i * i) % 3 * 1.0) for i in range(5)], sigma=0.05)
    bound = 4
    outcome, trace = run(
        bots,
        SchedulerSpec(RANDOM_SUBSET, seed=3, fairness_bound=bound),
        tol=TOL,
        max_steps=120,
        stop_on_gather=False,
        record_trace=True,
    )
    by_step = {}
    for r in _records(trace):
        if r["activated"]:
            by_step.setdefault(r["t"], set()).add(r["robot_id"])
    horizon = max(by_step) + 1
    assert horizon == 120
    for w in range(horizon - bound + 1):
        window = set()
        for t in range(w, w + bound):
            window |= by_step.get(t, set())
        assert window == {0, 1, 2, 3, 4}, f"window at {w} missed someone"


def test_boundary_adversary_cannot_prevent_gathering():
    bots = _line([(1, 0), (0, 1), (-1, 0), (0, -1), (0.3, 0.2)])
    outcome, trace = run(bots, SchedulerSpec(BOUNDARY_ONLY), tol=TOL, record_trace=True)
    assert outcome.status == GATHERED
    # the interior robot slept until the fairness bound (3n = 15) forced it
    first_active = min(r["t"] for r in _records(trace) if r["robot_id"] == 4 and r["activated"])
    assert first_active == 14


def test_trace_is_deterministic():
    def go():
        bots = [
            Robot(0, Point(0, 0), 0.7, Frame(rotation=1.0, scale=1.5)),
            Robot(1, Point(3, 1), 0.9, Frame(reflected=True)),
            Robot(2, Point(1, 4), 0.8),
        ]
        outcome, trace = run(
            bots, SchedulerSpec(RANDOM_SUBSET, seed=42), tol=TOL, record_trace=True,
            refresh_frames=True,
        )
        return outcome, "\n".join(trace)

    first_outcome, first_text = go()
    second_outcome, second_text = go()
    assert first_text == second_text
    assert first_outcome.status == second_outcome.status == GATHERED
    assert first_outcome.final_t == second_outcome.final_t


def test_trace_events_respect_stay_invariant():
    bots = _line([(0, 0), (2, 0), (4, 0), (1, 3), (5, 2)], sigma=0.4)
    _, trace = run(bots, SchedulerSpec(RANDOM_SUBSET, seed=9), tol=TOL, record_trace=True)
    pos = {i: (float(p[0]), float(p[1])) for i, p in enumerate([(0, 0), (2, 0), (4, 0), (1, 3), (5, 2)])}
    for r in _records(trace):
        new_pos = (r["new_x"], r["new_y"])
        if not r["activated"] or r["action"] == STAY:
            assert new_pos == pos[r["robot_id"]]
        if not r["activated"]:
            assert r["action"] is None and r["target_x"] is None and r["target_y"] is None
        pos[r["robot_id"]] = new_pos


def test_trace_line_format():
    bots = _line([(0, 0), (2, 0), (4, 0)])
    _, trace = run(bots, SchedulerSpec(SYNCHRONOUS), tol=TOL, record_trace=True)
    line = trace[0]
    assert line.startswith('{"t":0,"robot_id":0,"activated":true,')
    record = json.loads(line)
    assert list(record) == [
        "t", "robot_id", "activated", "branch", "action",
        "target_x", "target_y", "new_x", "new_y",
    ]
    stay_line = next(r for r in _records(trace) if r["action"] == STAY)
    assert stay_line["target_x"] is None and stay_line["target_y"] is None
    assert trace_line(3, Robot(7, Point(0.5, -2.0), 1), None) == (
        '{"t":3,"robot_id":7,"activated":false,"branch":null,"action":null,'
        '"target_x":null,"target_y":null,"new_x":0.5,"new_y":-2.0}'
    )


def test_robot_count_conserved_every_step():
    bots = _line([(0, 0), (2, 0), (4, 0), (0, 3), (3, 3)], sigma=0.6)
    counts = []
    outcome, _ = run(
        bots,
        SchedulerSpec(RANDOM_SUBSET, seed=2),
        tol=TOL,
        monitors={"count": lambda before, after: counts.append(after.config.robot_count)},
    )
    assert outcome.status == GATHERED
    assert counts and all(c == 5 for c in counts)


def test_run_reports_each_rule_message_with_step_and_configuration():
    def on_gathering(before, after):
        return f"gathered from t={before.state.t}" if after.config.is_gathered() else None

    outcome, _ = run(
        _line([(0, 0), (2, 0), (4, 0)]),
        SchedulerSpec(SYNCHRONOUS),
        tol=TOL,
        monitors={"quiet": lambda before, after: None, "gathering": on_gathering},
    )
    assert outcome.final_t == 2
    assert outcome.monitor_violations == [
        MonitorReport("gathering", 1, "gathered from t=1", outcome.final_config)
    ]


def test_after_snapshot_of_a_step_is_the_before_snapshot_of_the_next():
    pairs = []
    outcome, _ = run(
        _line([(0, 0), (2, 0), (4, 0), (0, 3), (3, 3)], sigma=0.6),
        SchedulerSpec(BOUNDARY_ONLY),
        tol=TOL,
        monitors={"pairs": lambda before, after: pairs.append((before, after))},
    )
    assert len(pairs) == outcome.final_t > 1
    assert [b.state.t for b, _ in pairs] == list(range(outcome.final_t))
    assert all(prev_after is before for (_, prev_after), (before, _) in zip(pairs, pairs[1:]))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_configuration_is_normalized_once(strategy, monkeypatch):
    calls = []
    real_normalize = simulator.normalize

    def counting_normalize(*args, **kwargs):
        calls.append(args)
        return real_normalize(*args, **kwargs)

    monkeypatch.setattr(simulator, "normalize", counting_normalize)
    script = ((0,), (1, 2), (3, 4)) if strategy == SCRIPTED else None
    outcome, _ = run(
        _line([(0, 0), (2, 0), (4, 0), (0, 3), (3, 3)], sigma=0.6),
        SchedulerSpec(strategy, seed=3, script=script),
        tol=TOL,
        monitors=attach_lemma_monitors(),
    )
    assert outcome.status == GATHERED and outcome.final_t > 1
    assert len(calls) == outcome.final_t + 1


def test_scripted_run_follows_script_until_forced():
    bots = _line([(0, 0), (2, 0), (4, 0)])
    spec = SchedulerSpec(SCRIPTED, script=((0,), (1,), (2,)))
    outcome, trace = run(bots, spec, tol=TOL, max_steps=6, record_trace=True)
    assert len(trace) == 3 * outcome.final_t
    for r in _records(trace):
        # default bound 3n = 9 never kicks in within 6 steps
        assert r["activated"] == (r["robot_id"] == r["t"] % 3)
