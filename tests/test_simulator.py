"""Engine tests: scheduling, motion caps, snapshot steps, full runs.

The three-robot collinear walk is traced by hand below and pinned exactly;
it exercises the circle-contraction branch end to end with the motion cap
active, which no single-module test can.
"""

import dataclasses
import json
import math
import random
import warnings

import pytest

import gathersim.model as model
import gathersim.simulator as simulator
from gathersim import cli
from gathersim.analysis import attach_lemma_monitors, random_robots
from gathersim.geometry import Point, dist
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
    FIXED_POINT,
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
    next_active,
    run,
    step,
    trace_line,
)
from streamed import traced_run
from test_snapshot_successor import _assert_is_normalize_of



def _line(robot_positions, sigma=1.0):
    return [Robot(Point(*pos), sigma) for pos in robot_positions]


def _records(trace):
    return [json.loads(line) for line in trace]


# -- robots and snapshots -----------------------------------------------------


def test_robot_validation():
    with pytest.raises(ValueError):
        Robot(Point(0, 0), 0.0)
    with pytest.raises(ValueError):
        Robot(Point(0, 0), -1.0)
    with pytest.raises(ValueError):
        Robot(Point(math.nan, 0), 1.0)


def test_snapshot_validation():
    with pytest.raises(ValueError):
        Snapshot([])


def test_snapshot_copies_robots():
    bots = [Robot(Point(0, 0), 1)]
    snap = Snapshot(bots)
    snap.robots[0] = Robot(Point(9, 9), 1)
    assert bots[0].pos == Point(0, 0)
    assert (snap.t, snap.last_active) == (0, [-1])


def test_robots_are_frozen():
    robot = Robot(Point(0, 0), 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        robot.pos = Point(9, 9)
    assert robot.pos == Point(0, 0)


# -- scheduling ---------------------------------------------------------------


def test_synchronous_wakes_everyone():
    snap = Snapshot(_line([(i, 0) for i in range(5)]))
    assert next_active(SchedulerSpec(SYNCHRONOUS), snap) == [0, 1, 2, 3, 4]


def test_round_robin_cycles_by_step():
    snap = Snapshot(_line([(0, 0), (1, 0), (2, 0)]), t=4)
    assert next_active(SchedulerSpec(ROUND_ROBIN), snap) == [1]


def test_random_subset_forces_starved_robot():
    # With seed 0 the raw draw at t=10 is {3}; robot 2 has been idle for the
    # whole fairness window, so the post-filter must add it.
    snap = Snapshot(_line([(i, 0) for i in range(4)]), t=10, last_active=[9, 9, 7, 9])
    spec = SchedulerSpec(RANDOM_SUBSET, seed=0, fairness_bound=3)
    assert next_active(spec, snap) == [2, 3]


def test_random_subset_never_empty_and_replayable():
    snap = Snapshot(_line([(0, 0), (1, 0), (2, 0)]))
    spec = SchedulerSpec(RANDOM_SUBSET, seed=11)
    for t in range(200):
        snap.t = t
        active = next_active(spec, snap)
        assert active
        assert active == sorted(set(active))
        assert all(0 <= i < 3 for i in active)
        assert next_active(spec, snap) == active


def test_boundary_only_starves_interior():
    snap = Snapshot(_line([(1, 0), (0, 1), (-1, 0), (0, -1), (0.3, 0.2)]))
    active = next_active(SchedulerSpec(BOUNDARY_ONLY), snap)
    assert active == [0, 1, 2, 3]


def test_scripted_cycles_and_validates():
    snap = Snapshot(_line([(0, 0), (1, 0), (2, 0)]))
    spec = SchedulerSpec(SCRIPTED, script=((0,), (1, 2)))
    assert next_active(spec, snap) == [0]
    snap.t = 1
    assert next_active(spec, snap) == [1, 2]
    snap.t = 2
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
    r = Robot(Point(0, 0), 1.0)
    assert apply_motion(r, Point(0.5, 0)) == Point(0.5, 0)
    messy = Point(0.1 + 0.2, -0.3)
    assert apply_motion(Robot(Point(1, 1), 5.0), messy) == messy


def test_motion_caps_at_sigma():
    r = Robot(Point(0, 0), 1.0)
    got = apply_motion(r, Point(3, 0))
    assert dist(got, Point(1, 0)) <= 1e-12


def test_motion_follows_unit_vector():
    r = Robot(Point(0, 0), 1.0)
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
    got = apply_motion(Robot(start, sigma), target)
    assert math.isfinite(got.x) and math.isfinite(got.y)
    assert dist(start, got) <= sigma * (1.0 + 1e-15)
    if sigma > 1.0:
        # A step this long shows at 1e308: it covers sigma toward the target.
        assert dist(start, got) >= 0.99 * sigma
        assert got.x < start.x
        assert got.y == start.y if start.y == target.y else got.y < start.y


# -- single steps -------------------------------------------------------------


def test_step_requires_valid_active_set():
    snap = Snapshot(_line([(0, 0), (1, 0)]))
    with pytest.raises(ValueError):
        step(snap, [])
    with pytest.raises(ValueError):
        step(snap, [5])
    # The message names the least unknown index, and nothing is decided first.
    for active, unknown in (([9, 1, 5], 5), ([1, 9, -3, -4], -4)):
        with pytest.raises(ValueError, match=f"unknown robot index {unknown}$"):
            step(snap, active)
    assert snap.config.decided == {}


def test_step_gathered_fixed_point():
    after, actions = step(Snapshot([Robot(Point(2, 3), 1)] * 5), range(5))
    assert after.t == 1
    assert [r.pos for r in after.robots] == [Point(2, 3)] * 5
    assert sorted(actions) == [0, 1, 2, 3, 4]
    assert all(a.kind == STAY for a in actions.values())


def test_step_three_collinear_hand_trace():
    # Singletons at 0, 2, 4 on the x axis: the enclosing circle is centered
    # at (2,0), the middle robot is interior and already central, so the two
    # rim robots head inward and the cap stops them after one unit.
    after, actions = step(Snapshot(_line([(0, 0), (2, 0), (4, 0)])), [0, 1, 2])
    assert [r.pos for r in after.robots] == [Point(1, 0), Point(2, 0), Point(3, 0)]
    assert [actions[i].kind for i in range(3)] == [MOVE_DIRECT, STAY, MOVE_DIRECT]
    assert all(a.branch == BRANCH_BOUNDARY_TO_CENTER for a in actions.values())
    assert actions[0].target == Point(2, 0)


def test_step_blocked_careful_move_keeps_branch():
    before = Snapshot(_line([(0, 0), (0, 0), (2, 0), (4, 0)]))
    after, actions = step(before, [0, 1, 2, 3])
    blocked = actions[3]
    assert blocked.kind == STAY
    assert blocked.branch == BRANCH_UNIQUE_MAX
    assert blocked.target is None
    assert after.robots[3] is before.robots[3]
    assert after.robots[3].pos == Point(4, 0)
    # the robot in front walked; the one behind still judged the old snapshot
    mover = actions[2]
    assert mover.kind == MOVE_CAREFUL
    assert mover.target == Point(0, 0)
    assert after.robots[2].pos == Point(1, 0)


def test_step_inactive_robots_untouched():
    before = Snapshot(_line([(0, 0), (2, 0), (4, 0)]))
    after, actions = step(before, [0])
    assert after.robots[1].pos == Point(2, 0)
    assert after.robots[2].pos == Point(4, 0)
    assert list(actions) == [0]
    assert after.last_active == [0, -1, -1]
    assert before.last_active == [-1, -1, -1]


def test_step_snapshot_single_activation_matches_full():
    # A lone activated robot must decide exactly as it would have in the
    # synchronous step, because both read the same frozen snapshot.
    snap = Snapshot(_line([(0, 0), (2, 0), (4, 0)]))
    solo_after, solo_actions = step(snap, [0])
    full_after, full_actions = step(snap, [0, 1, 2])
    assert solo_actions[0] == full_actions[0]
    assert solo_after.robots[0].pos == full_after.robots[0].pos


def test_round_robin_step_touches_only_the_woken_robot(monkeypatch):
    """Chained outside run, step still returns snapshots whose configuration
    is normalize of their positions, whether derived or recomputed."""
    calls = []
    real_normalize = model.normalize

    def counting_normalize(positions):
        calls.append(positions)
        return real_normalize(positions)

    # model.successor calls normalize when a configuration cannot be derived.
    monkeypatch.setattr(model, "normalize", counting_normalize)
    # Float coordinates, so that the configurations compare bit for bit.
    # Three double points: robot 0 leaves robot 1 behind on the point it
    # created, which model.successor cannot derive.
    snap = Snapshot(_line([(0.0, 0.0), (0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (1.0, 3.0), (1.0, 3.0)], sigma=2.0))
    spec = SchedulerSpec(ROUND_ROBIN)
    kinds = set()
    derived_moves = 0
    for _ in range(10):
        active = next_active(spec, snap)
        calls_before = len(calls)
        after, actions = step(snap, active)
        assert list(actions) == active
        assert after.t == snap.t + 1
        assert after.last_active == [snap.t if i in active else t for i, t in enumerate(snap.last_active)]
        for i, (old, new) in enumerate(zip(snap.robots, after.robots)):
            if i not in actions or actions[i].kind == STAY:
                assert new is old
            else:
                assert new.pos != old.pos
            kinds.add(actions[i].kind if i in actions else None)
        _assert_is_normalize_of(after.config, [r.pos for r in after.robots])
        moved = any(after.robots[i] is not snap.robots[i] for i in actions)
        derived_moves += moved and len(calls) == calls_before
        snap = after
    assert {None, STAY, MOVE_DIRECT} <= kinds
    # Both paths ran: moves derived without normalize, and moves that fell back to it.
    assert derived_moves > 0
    assert calls


# -- full runs ----------------------------------------------------------------


def test_single_robot_is_gathered_immediately():
    outcome, trace = traced_run([Robot(Point(5, 5), 1)], SchedulerSpec(SYNCHRONOUS))
    assert outcome.status == GATHERED
    assert outcome.final_t == 0
    assert outcome.final_config.occupied == {Point(5, 5): 1}
    assert trace == []


def test_three_collinear_gathers_at_center():
    outcome, _ = run(_line([(0, 0), (2, 0), (4, 0)]), SchedulerSpec(SYNCHRONOUS))
    assert outcome.status == GATHERED
    assert outcome.final_t == 2
    assert outcome.final_config.occupied == {Point(2, 0): 3}


def test_three_collinear_fast_sigma_gathers_in_one():
    outcome, _ = run(
        _line([(0, 0), (2, 0), (4, 0)], sigma=10.0), SchedulerSpec(SYNCHRONOUS)
    )
    assert outcome.status == GATHERED
    assert outcome.final_t == 1


def test_gathered_start_stays_gathered_without_stopping():
    bots = [Robot(Point(-3, 7), 2)] * 5
    outcome, trace = traced_run(
        bots,
        SchedulerSpec(RANDOM_SUBSET, seed=5),
        max_steps=200,
        stop_on_gather=False,
    )
    assert outcome.status == GATHERED
    assert outcome.final_t == 200
    assert outcome.final_config.occupied == {Point(-3, 7): 5}
    assert len(trace) == 5 * 200
    assert all((r["new_x"], r["new_y"]) == (-3, 7) for r in _records(trace))


def test_run_validates_max_steps():
    with pytest.raises(ValueError):
        run([Robot(Point(0, 0), 1)], SchedulerSpec(SYNCHRONOUS), max_steps=0)


def test_even_robot_count_warns():
    bots = _line([(0, 0), (1, 0)])
    with pytest.warns(RuntimeWarning, match="even"):
        run(bots, SchedulerSpec(SYNCHRONOUS), max_steps=5)


def test_step_limit_status():
    # One robot activated per 2-step script on a 3-robot line cannot finish
    # in 3 steps.
    bots = _line([(0, 0), (2, 0), (4, 0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcome, _ = run(bots, SchedulerSpec(ROUND_ROBIN), max_steps=3)
    assert outcome.status == STEP_LIMIT_REACHED
    assert outcome.final_t == 3


# A stall that used to run to the step limit with silent monitors:
# coordinates so large that a unit move rounds to no move.  (name, robots)
STALLS = (("huge", [((1e300, 0.0), Frame()), ((-1e300, 0.0), Frame()), ((0.0, 1e300), Frame())]),)


@pytest.mark.parametrize("name, placed", STALLS, ids=[s[0] for s in STALLS])
def test_stall_ends_at_its_fixed_point(name, placed):
    bots = [Robot(Point(*pos), 1.0, frame) for pos, frame in placed]
    outcome, _ = run(bots, SchedulerSpec(SYNCHRONOUS, 1), monitors=attach_lemma_monitors())
    assert outcome.status == FIXED_POINT
    assert outcome.final_t == 1
    assert len(outcome.final_config.occupied) > 1
    assert outcome.monitor_violations == []


def test_robots_whose_unit_is_far_below_eps_gather():
    # In a frame with unit 1e-8 the robot at x = 0.06 sees the other two
    # within eps of itself, in its own units; it walks to their maximum all
    # the same, since the rule reads no unit there.
    bots = [Robot(Point(x, 0.0), 1.0, Frame(scale=1e-8)) for x in (0.0, 0.0, 0.06)]
    outcome, _ = run(bots, SchedulerSpec(SYNCHRONOUS, 1), monitors=attach_lemma_monitors())
    assert (outcome.status, outcome.final_t) == (GATHERED, 1)
    assert outcome.final_config.occupied == {Point(0.0, 0.0): 3}
    assert outcome.monitor_violations == []


# A stall that ended at a fixed point while decisions went through frames:
# near 2**45, where one ulp is 2**-7, a careful move's target was the
# maximum mapped into the mover's frame and back, 0.002 beside it and so
# beyond eps, and the veto found the maximum itself on the way there, at
# every wake.  The target is now the maximum.  (position, frame), sigma 1e15.
ULP_STALL = (
    ((0.0, 0.0), Frame(rotation=1.0)),
    ((2.0**41, 2.0**45), Frame()),
    ((2.0**41 + 2.0**-11, 2.0**45), Frame(rotation=2.0, reflected=True)),
    ((-(2.0**45), 0.0), Frame(scale=3.0)),
    ((0.0, -(2.0**44)), Frame(rotation=-1.0)),
)


def test_careful_moves_near_2_45_land_on_their_maximum_and_gather():
    # Under five maxima robot 2 sees its point and robot 1's as one image,
    # but decides on the configuration's counts: every robot takes the SEC
    # branch at t=0, and no careful move is made before one maximum forms.
    bots = [Robot(Point(*pos), 1e15, frame) for pos, frame in ULP_STALL]
    outcome, _ = run(bots, SchedulerSpec(SYNCHRONOUS), monitors=attach_lemma_monitors())
    assert (outcome.status, outcome.final_t) == (GATHERED, 3)
    assert outcome.final_config.occupied == {Point(-16492674416640.0, 2.0**44): 5}
    assert outcome.monitor_violations == []


def test_careful_moves_near_2_45_land_exactly_on_a_maximum_of_two():
    # A second robot on (2**41, 2**45) makes it the unique maximum.  Every
    # careful move targets it exactly, the one from an ulp beside it included.
    extra = (((2.0**41, 2.0**45), Frame(rotation=0.5)), ((2.0**45, 2.0**44), Frame(scale=0.5, reflected=True)))
    bots = [Robot(Point(*pos), 1e15, frame) for pos, frame in ULP_STALL + extra]
    outcome, trace = traced_run(bots, SchedulerSpec(SYNCHRONOUS), monitors=attach_lemma_monitors())
    assert (outcome.status, outcome.final_t) == (GATHERED, 2)
    assert outcome.final_config.occupied == {Point(2.0**41, 2.0**45): 7}
    assert outcome.monitor_violations == []
    moves = [r for r in _records(trace) if r["action"] == "move_careful"]
    assert sorted(r["robot_id"] for r in moves) == [0, 2, 3, 4, 6]
    assert all((r["target_x"], r["target_y"]) == (2.0**41, 2.0**45) for r in moves)


@pytest.mark.parametrize(
    "strategy, steps", [(BOUNDARY_ONLY, 2), (RANDOM_SUBSET, 3)], ids=["boundary", "random"]
)
def test_start_that_stalled_at_eps_zero_gathers(strategy, steps):
    # At eps = 0 robot 0, within rounding of the center, counted as interior
    # and its move to the center landed back on itself, so the boundary froze.
    bots = random_robots(random.Random("pin:3:1"), 3)
    outcome, _ = run(bots, SchedulerSpec(strategy, 1), monitors=attach_lemma_monitors())
    assert outcome.status == GATHERED
    assert outcome.final_t == steps
    assert outcome.monitor_violations == []


def test_fixed_point_waits_until_every_robot_has_woken():
    # Robot 0 stands on the unique maximum and stays; robot 2 would walk to
    # it but sleeps until the fairness bound forces it awake at t = 49.
    bots = _line([(0, 0), (0, 0), (3, 0)])
    spec = SchedulerSpec(SCRIPTED, fairness_bound=50, script=((0,),))
    outcome, _ = run(bots, spec, max_steps=20)
    assert outcome.status == STEP_LIMIT_REACHED
    assert outcome.final_t == 20
    outcome, _ = run(bots, spec)
    assert outcome.status == GATHERED
    assert outcome.final_t > 50


def test_fixed_point_never_declared_with_refreshed_frames():
    # Two camps of two always stay, whatever their frames, but frames drawn
    # afresh each step could change a decision, so the run goes to its limit.
    bots = _line([(0, 0), (0, 0), (1, 0), (1, 0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fixed, _ = run(bots, SchedulerSpec(SYNCHRONOUS), max_steps=30)
        refreshed, _ = run(bots, SchedulerSpec(SYNCHRONOUS), max_steps=30, refresh_frames=True)
    assert (fixed.status, fixed.final_t) == (FIXED_POINT, 1)
    assert (refreshed.status, refreshed.final_t) == (STEP_LIMIT_REACHED, 30)
    assert len(refreshed.final_config.occupied) == 2


def test_refreshed_frames_change_no_snapshot_a_step_returned():
    kept = []

    def keep(before, after):
        kept.append((after, list(after.robots)))

    bots = _line([(i * 1.0, (i * i) % 3 * 1.0) for i in range(5)], sigma=0.05)
    run(bots, SchedulerSpec(ROUND_ROBIN), max_steps=5, monitors={"keep": keep}, refresh_frames=True)
    assert len(kept) == 5
    for after, robots in kept:
        assert len(after.robots) == 5 and all(a is b for a, b in zip(after.robots, robots))


def test_fairness_window_covers_every_robot():
    bots = _line([(i * 1.0, (i * i) % 3 * 1.0) for i in range(5)], sigma=0.05)
    bound = 4
    outcome, trace = traced_run(
        bots,
        SchedulerSpec(RANDOM_SUBSET, seed=3, fairness_bound=bound),
        max_steps=120,
        stop_on_gather=False,
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
    outcome, trace = traced_run(bots, SchedulerSpec(BOUNDARY_ONLY))
    assert outcome.status == GATHERED
    # the interior robot slept until the fairness bound (3n = 15) forced it
    first_active = min(r["t"] for r in _records(trace) if r["robot_id"] == 4 and r["activated"])
    assert first_active == 14


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_frame_translation_changes_no_byte_of_the_trace(strategy):
    # A frame is centred on its robot: the config's tx and ty are checked and
    # dropped, so they reach no decision.
    robots = random_robots(random.Random("translation"), 9)
    scheduler = {"strategy": strategy, "seed": 5}
    if strategy == SCRIPTED:
        scheduler["script"] = [[i] for i in range(9)]
    rng = random.Random("translation:offsets")
    traces = []
    for draw in range(4):
        config = cli.parse_config({
            "robots": [
                {"x": r.pos.x, "y": r.pos.y, "sigma": r.sigma, "frame": {
                    "rotation": r.frame.rotation, "scale": r.frame.scale, "reflected": r.frame.reflected,
                    "tx": rng.uniform(-1e6, 1e6) if draw else 0.0, "ty": rng.uniform(-1e6, 1e6) if draw else 0.0,
                }}
                for r in robots
            ],
            "scheduler": scheduler,
        })
        assert config.robots == robots
        outcome, trace = traced_run(config.robots, config.scheduler, monitors=attach_lemma_monitors())
        assert outcome.status == GATHERED and not outcome.monitor_violations
        traces.append(trace)
    assert traces[0] and all(trace == traces[0] for trace in traces[1:])


def test_trace_is_deterministic():
    def go():
        bots = [
            Robot(Point(0, 0), 0.7, Frame(rotation=1.0, scale=1.5)),
            Robot(Point(3, 1), 0.9, Frame(reflected=True)),
            Robot(Point(1, 4), 0.8),
        ]
        outcome, trace = traced_run(bots, SchedulerSpec(RANDOM_SUBSET, seed=42), refresh_frames=True)
        return outcome, "\n".join(trace)

    first_outcome, first_text = go()
    second_outcome, second_text = go()
    assert first_text == second_text
    assert first_outcome.status == second_outcome.status == GATHERED
    assert first_outcome.final_t == second_outcome.final_t


def test_trace_events_respect_stay_invariant():
    bots = _line([(0, 0), (2, 0), (4, 0), (1, 3), (5, 2)], sigma=0.4)
    _, trace = traced_run(bots, SchedulerSpec(RANDOM_SUBSET, seed=9))
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
    _, trace = traced_run(bots, SchedulerSpec(SYNCHRONOUS))
    line = trace[0]
    assert line.startswith('{"t":0,"robot_id":0,"activated":true,')
    record = json.loads(line)
    assert list(record) == [
        "t", "robot_id", "activated", "branch", "action",
        "target_x", "target_y", "new_x", "new_y",
    ]
    stay_line = next(r for r in _records(trace) if r["action"] == STAY)
    assert stay_line["target_x"] is None and stay_line["target_y"] is None
    assert trace_line(3, 7, Robot(Point(0.5, -2.0), 1), None) == (
        '{"t":3,"robot_id":7,"activated":false,"branch":null,"action":null,'
        '"target_x":null,"target_y":null,"new_x":0.5,"new_y":-2.0}'
    )


def test_robot_count_conserved_every_step():
    bots = _line([(0, 0), (2, 0), (4, 0), (0, 3), (3, 3)], sigma=0.6)
    counts = []
    outcome, _ = run(
        bots,
        SchedulerSpec(RANDOM_SUBSET, seed=2),
        monitors={"count": lambda before, after: counts.append(sum(after.config.occupied.values()))},
    )
    assert outcome.status == GATHERED
    assert counts and all(c == 5 for c in counts)


def test_run_reports_each_rule_message_with_step_and_configuration():
    def on_gathering(before, after):
        return f"gathered from t={before.t}" if after.config.is_gathered() else None

    outcome, _ = run(
        _line([(0, 0), (2, 0), (4, 0)]),
        SchedulerSpec(SYNCHRONOUS),
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
        monitors={"pairs": lambda before, after: pairs.append((before, after))},
    )
    assert len(pairs) == outcome.final_t > 1
    assert [b.t for b, _ in pairs] == list(range(outcome.final_t))
    assert all(prev_after is before for (_, prev_after), (before, _) in zip(pairs, pairs[1:]))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_configuration_is_normalized_once(strategy, monkeypatch):
    """At most once: the first snapshot normalizes every position, and a
    later one only when it cannot be derived from the one before."""
    calls = []
    real_normalize = model.normalize

    def counting_normalize(*args, **kwargs):
        calls.append(args)
        return real_normalize(*args, **kwargs)

    # simulator binds normalize for the first snapshot; model.successor
    # calls it when a snapshot cannot be derived.
    monkeypatch.setattr(simulator, "normalize", counting_normalize)
    monkeypatch.setattr(model, "normalize", counting_normalize)
    script = ((0,), (1, 2), (3, 4)) if strategy == SCRIPTED else None
    outcome, _ = run(
        _line([(0, 0), (2, 0), (4, 0), (0, 3), (3, 3)], sigma=0.6),
        SchedulerSpec(strategy, seed=3, script=script),
        monitors=attach_lemma_monitors(),
    )
    assert outcome.status == GATHERED and outcome.final_t > 1
    assert 1 <= len(calls) <= outcome.final_t + 1


def test_scripted_run_follows_script_until_forced():
    bots = _line([(0, 0), (2, 0), (4, 0)])
    spec = SchedulerSpec(SCRIPTED, script=((0,), (1,), (2,)))
    outcome, trace = traced_run(bots, spec, max_steps=6)
    assert len(trace) == 3 * outcome.final_t
    for r in _records(trace):
        # default bound 3n = 9 never kicks in within 6 steps
        assert r["activated"] == (r["robot_id"] == r["t"] % 3)
