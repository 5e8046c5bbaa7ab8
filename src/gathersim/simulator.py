"""Discrete-time semi-synchronous execution engine.

Each step the scheduler wakes a non-empty subset of robots.  Every woken
robot observes the same frozen snapshot of the world, decides via the
protocol, and all resulting motions are committed together; nobody sees a
neighbour's move from the same step.  A fairness bound keeps the scheduler
honest: any robot left asleep for too long gets force-included.

Motion is capped per robot: a move covers min(distance, sigma) along the
straight line to the target, so a single activation may fall short but never
overshoots and never veers.

The configuration and the views need not be rebuilt from all n robots.
Each snapshot after the first is derived from the one before and the
robots that moved (model.successor, which falls back to normalize in the
few cases its docstring names).  A woken robot builds no view (decide).
Under one or two maxima it decides on the configuration, for the rule
reads nothing a frame changes there, bar a tie of the two global distances
up to rounding; so robots on one point take one action, decided once.
Under three or more it maps every occupied point into its frame as plain
float pairs and decides on them with the configuration's counts.  The configuration carries what is computed from
it: its maxima, its enclosing circle, which points lie on that circle and
the actions decided on it.  A step in which no robot moves keeps the
configuration object, and with it all of these: a decision is a pure
function of the configuration and the robot's position and frame, so a
robot woken again on an unchanged configuration reuses its action.
The careful-move veto settles only the occupied points in the segment's
widened bounding box (protocol.path_is_clear).
The trace streams to a text sink, one write per step, from a record per
robot that changes only for the robots woken in that step or the one before.

Robots woken in one step decide independently on one snapshot, so under
three or more maxima step decides a large batch in forked slices
(fork_map), when the robots to decide times the occupied points come to
two slices of _SLICE_WORK: the robots are cut into contiguous slices, one
per usable CPU, the first is decided here and each other one in a child
from os.fork, and the children pickle their actions back.  Every action is
the serial one, bit for bit, and comes back in order: the veto, the motion
and the trace follow in index order as before, so no output byte depends
on the CPU count.  A machine without os.fork or with one usable CPU, and a
process with another thread alive, stay serial; ``taskset -c 0`` forces
the serial path.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import threading
import warnings
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Callable, Mapping, Optional, Sequence, TextIO

# Not called here: bench/tests/test_bench.py checks that the span tracer wraps this binding.
from .geometry import Point, dist, near_tie, smallest_enclosing_circle  # noqa: F401
from .model import Configuration, Frame, ego_images, normalize, random_frame, successor
from .protocol import BRANCH_TWO_MAX, BRANCH_UNIQUE_MAX, MOVE_CAREFUL, STAY, Action
from .protocol import maxima_target, pair_action, path_is_clear

# Scheduler strategies.
SYNCHRONOUS = "synchronous"
ROUND_ROBIN = "round_robin"
RANDOM_SUBSET = "random_subset"
BOUNDARY_ONLY = "boundary_only_adversary"
SCRIPTED = "scripted"
STRATEGIES = (SYNCHRONOUS, ROUND_ROBIN, RANDOM_SUBSET, BOUNDARY_ONLY, SCRIPTED)

# Run outcome statuses.
GATHERED = "gathered"
FIXED_POINT = "fixed_point"
STEP_LIMIT_REACHED = "step_limit_reached"


@dataclass(frozen=True)
class Robot:
    """One robot: true position, motion cap, and its private frame.

    Robots are anonymous: a robot is named only by its index in a run's list.
    Frozen, because consecutive snapshots share the robots that did not move.
    """

    pos: Point
    sigma: float
    frame: Frame = Frame()

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError("robot sigma must be positive and finite")
        if not (math.isfinite(self.pos.x) and math.isfinite(self.pos.y)):
            raise ValueError("robot position must be finite")


@dataclass(frozen=True)
class SchedulerSpec:
    """How activation sets are produced.

    ``fairness_bound`` is the K in K-fairness: a robot asleep for K
    consecutive steps is force-included.  None means 3n, resolved at run
    time.  ``script`` is only read by the scripted strategy and cycles when
    exhausted.
    """

    strategy: str = SYNCHRONOUS
    seed: int = 0
    fairness_bound: Optional[int] = None
    script: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown scheduler strategy {self.strategy!r}")
        if self.fairness_bound is not None and self.fairness_bound < 1:
            raise ValueError("fairness_bound must be a positive integer")
        if self.strategy == SCRIPTED:
            if not self.script:
                raise ValueError("scripted strategy needs a non-empty script")
            for step_ids in self.script:
                if not step_ids:
                    raise ValueError("every scripted activation set must be non-empty")


class Snapshot:
    """The world between two steps.

    ``t`` is the next step, ``robots`` a copy of the robots given,
    ``last_active[i]`` the last step robot i woke in, -1 until it wakes, and
    ``config`` normalize of their positions, which carries its maxima,
    enclosing circle, rim tests and decisions.  ``step`` returns the
    snapshot after it, and ``run`` keeps that as the one before the next
    step, so the scheduler, ``step`` and every monitor share one
    configuration.  Only the first
    snapshot of a run normalizes every position: ``step`` derives each later
    configuration from the robots that moved, equal to normalize of its
    positions item for item, or keeps the configuration object when no robot
    moved, and hands it on through ``_over``.
    """

    def __init__(self, robots: Sequence[Robot], t: int = 0, last_active: Optional[list[int]] = None) -> None:
        self.robots = list(robots)
        if not self.robots:
            raise ValueError("need at least one robot")
        self.t = t
        self.last_active = [-1] * len(self.robots) if last_active is None else last_active
        self.config = normalize([r.pos for r in self.robots])

    @classmethod
    def _over(cls, robots: list[Robot], t: int, last_active: list[int], config: Configuration) -> Snapshot:
        """The snapshot of robots, taken as they are, on config, which must be what normalize makes of them."""
        snap = cls.__new__(cls)
        snap.robots, snap.t, snap.last_active, snap.config = robots, t, last_active, config
        return snap


def next_active(spec: SchedulerSpec, snap: Snapshot) -> list[int]:
    """Indices of the robots woken at snap.t, sorted ascending.

    Always non-empty.  The random strategy draws from a stream derived only
    from (seed, t), so replaying a snapshot gives the same set without any
    shared RNG object to keep in sync.
    """
    n = len(snap.robots)
    t = snap.t
    if spec.strategy == SYNCHRONOUS:
        chosen = set(range(n))
    elif spec.strategy == ROUND_ROBIN:
        chosen = {t % n}
    elif spec.strategy == RANDOM_SUBSET:
        rng = random.Random(f"{spec.seed}:scheduler:{t}")
        chosen = {i for i in range(n) if rng.random() < 0.5}
        if not chosen:
            chosen = {rng.randrange(n)}
    elif spec.strategy == BOUNDARY_ONLY:
        # Adversary that starves the interior: only robots currently on the
        # enclosing circle wake up (fairness forcing aside).
        rim = snap.config.rim
        chosen = {i for i, r in enumerate(snap.robots) if rim[r.pos]}
    else:
        assert spec.script is not None
        step_ids = spec.script[t % len(spec.script)]
        chosen = set(step_ids)
        for i in chosen:
            if not (0 <= i < n):
                raise ValueError(f"scripted activation names unknown robot index {i}")
    bound = spec.fairness_bound if spec.fairness_bound is not None else 3 * n
    last_active = snap.last_active
    # No robot is due while the longest asleep has slept less than the bound.
    if t - min(last_active) >= bound:
        chosen |= {i for i in range(n) if t - last_active[i] >= bound}
    active = sorted(chosen)
    assert active, "scheduler produced an empty activation set"
    return active


def apply_motion(robot: Robot, target: Point) -> Point:
    """Where the robot ends up after one activation aimed at target.

    Covers min(distance, sigma); a reachable target is returned bit-exactly
    so robots that arrive really do coincide.
    """
    d = dist(robot.pos, target)
    if d <= robot.sigma:
        return target
    if math.isinf(d):
        # The difference overflowed; its half is finite and points the same
        # way.  Dividing by its larger component keeps the norm finite too.
        hx = target.x / 2.0 - robot.pos.x / 2.0
        hy = target.y / 2.0 - robot.pos.y / 2.0
        m = max(abs(hx), abs(hy))
        ux, uy = hx / m, hy / m
        f = robot.sigma / math.hypot(ux, uy)
        return Point(robot.pos.x + f * ux, robot.pos.y + f * uy)
    f = robot.sigma / d
    return Point(robot.pos.x + f * (target.x - robot.pos.x),
                 robot.pos.y + f * (target.y - robot.pos.y))


def _record_tail(i: int, robot: Robot, action: Optional[Action]) -> str:
    """Robot i's record of a step minus its opening ``{"t":<t>``; ``run`` keeps one per robot."""
    if action is None:
        woke, branch, kind, tx, ty = "false", "null", "null", "null", "null"
    else:
        woke, kind = "true", f'"{action.kind}"'
        branch = "null" if action.branch is None else f'"{action.branch}"'
        tx, ty = ("null", "null") if action.target is None else map(repr, action.target)
    return (
        f',"robot_id":{i},"activated":{woke},"branch":{branch},"action":{kind},'
        f'"target_x":{tx},"target_y":{ty},"new_x":{robot.pos.x!r},"new_y":{robot.pos.y!r}}}'
    )


def trace_line(t: int, i: int, robot: Robot, action: Optional[Action]) -> str:
    """Robot i's record of step t as a JSON line with a fixed key order.

    ``robot`` is the robot after the step and ``action`` what it did, or
    None if it slept; the record's ``robot_id`` is the index i.  A careful
    move vetoed by the clear-path rule is a "stay" with no target; the
    branch still tells you what was attempted.

    The bytes are those of ``json.dumps(record, separators=(",", ":"))``
    over the keys t, robot_id, activated, branch, action, target_x,
    target_y, new_x and new_y.  They are written directly: ``Robot`` and
    ``Action`` admit only finite coordinates, whose ``repr`` is JSON's
    number text, and kinds and branches are fixed ASCII labels.
    """
    return f'{{"t":{t}' + _record_tail(i, robot, action)


def decide(snap: Snapshot, robot: Robot) -> Action:
    """The rule's action for a robot woken on snap, in global coordinates,
    before the careful-move veto.

    With one or two maxima, protocol.maxima_target decides on the robot's
    position and the configuration's maxima, so a target is a maximum
    itself.  Only a tie of the two global distances, up to rounding
    (geometry.near_tie), reads the frame: the robot's view breaks it as
    compute_action would, toward the image nearer the robot, and at an exact
    tie of those toward the lexicographically first.

    With three or more, every occupied point is mapped into the robot's
    frame as a plain pair (model.ego_images), and protocol.pair_action
    decides on the pairs and the configuration's own counts: a similarity
    keeps distinct points distinct, so nothing is merged, even where two
    images round to one.  A target within eps of an occupied point becomes
    that exact point, so robots aiming at one land on it and multiplicity
    grows instead of leaving eps-separated dust.
    """
    config, own = snap.config, robot.pos
    maxima = config.maxima
    if len(maxima) <= 2:
        branch = BRANCH_UNIQUE_MAX if len(maxima) == 1 else BRANCH_TWO_MAX
        target = maxima_target(own, maxima)
        if target is None:
            return Action(STAY, branch=branch)
        if len(maxima) == 2 and near_tie(own, *maxima):
            a, b = ego_images(robot.frame, own, maxima)[0]
            target = maxima[0] if (math.hypot(*a), a) <= (math.hypot(*b), b) else maxima[1]
        return Action(MOVE_CAREFUL, target, branch)
    images, to_global = ego_images(robot.frame, own, config.occupied)
    kind, target, branch = pair_action(images, list(config.occupied.values()))
    if target is None:
        return Action(STAY, branch=branch)
    target = to_global(target)
    return Action(kind, config.key_near(target) or target, branch)


# The robot-points (robots to decide times occupied points) that repay one
# forked slice of a step's decisions.  Measured with CPython 3.11 on two
# Linux vCPUs: forking a child, piping its actions back and reaping it took
# 2.8 ms at 17 MB resident and 5.8 ms at 62 MB; a decision cost 3.5 to 5 us
# per image point, and about 30% more in a child running beside its parent.
# Two slices of 1005 robot-points decided no faster than one process, two of
# 2010 1.27 times as fast.  A slice of 4096 holds 14 to 20 ms of decisions,
# which keeps a margin where a larger heap slows the fork.
_SLICE_WORK = 4096


def fork_map(fn: Callable[[list], list], items: list, work: int) -> list:
    """fn(items), with fn applied to contiguous slices of items in parallel.

    fn must map a list to a list of one result per item, each a pure
    function of its item.  There are as many slices as usable CPUs, but only
    as many as hold _SLICE_WORK of the caller's work each, and no more than
    there are items, so none is empty.  The first slice is mapped here and
    each other one in a child from os.fork, which pickles its results back,
    floats and signs of zero exact; the results are concatenated in order.
    Every child is reaped before this returns or raises.  A slice whose
    child did not exit 0, or could not be forked, is mapped here, so an
    error surfaces as on the serial path.

    One slice means no fork: fn(items) is returned.  That is so without
    os.fork, with one usable CPU or one item, and while another thread is
    alive (a child would hold a copy of every lock that thread held, and no
    thread to release it).
    """
    if work < 2 * _SLICE_WORK or not hasattr(os, "fork") or threading.active_count() > 1:
        return fn(items)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = min(usable, work // _SLICE_WORK, len(items))
    if k < 2:
        return fn(items)
    first, *rest = [items[len(items) * s // k:len(items) * (s + 1) // k] for s in range(k)]
    children: list[tuple[Optional[int], BinaryIO]] = []
    try:
        for part in rest:
            children.append(_fork(fn, part))
        done = fn(first)
        sent = [reader.read() for _, reader in children]
    finally:
        codes = [_reap(pid, reader) for pid, reader in children]
    for part, data, code in zip(rest, sent, codes):
        done += pickle.loads(data) if code == 0 else fn(part)
    return done


def _fork(fn: Callable[[list], list], part: list) -> tuple[Optional[int], BinaryIO]:
    """A child mapping fn over part, and the pipe its pickled results come back on.

    The pid is None if the fork failed; the pipe then reads empty.
    """
    r, w = os.pipe()
    try:
        pid: Optional[int] = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            results = fn(part)
            with open(w, "wb") as sink:
                pickle.dump(results, sink, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            # Never return into the caller's code, and exit without flushing
            # the buffers copied from the parent, a trace sink's among them,
            # or running its atexit handlers.
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _reap(pid: Optional[int], reader: BinaryIO) -> Optional[int]:
    """Close a child's pipe, then wait for it; its exit code, or None if it never ran."""
    reader.close()
    return None if pid is None else os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _decide_ahead(snap: Snapshot, woken: list[int]) -> dict[int, Action]:
    """The actions of the woken robots that reuse no stay, decided by fork_map,
    or nothing under one or two maxima, which are decided once per point
    without a circle: step then decides them one by one.

    A decision is a pure function of the snapshot and the robot, so a child
    decides its slice on its copy of the snapshot: each action is the serial
    one, bit for bit.
    """
    config, robots = snap.config, snap.robots
    if len(config.maxima) < 3:
        return {}
    fresh = [i for i in woken if i not in config.decided or config.decided[i][0] is not robots[i]]
    decided = fork_map(lambda part: [decide(snap, robots[i]) for i in part], fresh, len(fresh) * len(config.occupied))
    return dict(zip(fresh, decided))


def step(snap: Snapshot, active: Sequence[int]) -> tuple[Snapshot, dict[int, Action]]:
    """Execute one semi-synchronous step for the given activation set.

    Returns the next snapshot and, for each woken robot, the action it took
    in global coordinates; a robot that did not move is the same object in
    both snapshots, and the next configuration is derived from this one and
    the robots that moved (model.successor), or is this configuration when
    no robot moved: nothing is copied to hand on what was computed on it.
    Actions are decided on the entry snapshot (``decide``), in forked slices
    when the batch is large, and positions update only at the end.  The
    careful-move veto also reads the snapshot: the rule asked in local
    coordinates, but blocking is a fact about the shared world.

    A robot reuses an action already decided on this configuration
    (``Configuration.decided``).  Under one or two maxima that is the action,
    after the veto, of any robot on its point, unless it read a frame: a
    target under two maxima at a near tie.  Otherwise decide's action is the
    maximum that maxima_target picks from the point, and the veto reads the
    point, that maximum and the configuration; points_coincide, dist,
    near_tie and the veto box are blind to the sign of a zero, so points
    equal as ``Point``s, which (0.0, y) and (-0.0, y) are, take one action
    bit for bit.  A reused move still runs apply_motion for its own robot,
    whose cap is its own.  Under three or more maxima the frame always
    counts, and a robot reuses only a stay it decided itself, as the same
    ``Robot`` object.
    """
    config = snap.config
    decided = config.decided
    if not active:
        raise ValueError("activation set must be non-empty")
    robots = list(snap.robots)
    last_active = list(snap.last_active)
    woken = sorted(set(active))
    if woken[0] < 0 or woken[-1] >= len(robots):
        unknown = next(i for i in woken if not 0 <= i < len(robots))
        raise ValueError(f"activation set names unknown robot index {unknown}")
    maxima = config.maxima
    per_point = len(maxima) <= 2
    # A batch whose every robot, deciding afresh, could not repay a fork calls no fork code.
    ahead = _decide_ahead(snap, woken) if len(woken) * len(config.occupied) >= 2 * _SLICE_WORK else {}
    actions: dict[int, Action] = {}
    origins: dict[int, Point] = {}
    for i in woken:
        robot = robots[i]
        last_active[i] = snap.t
        if per_point:
            action = decided.get(robot.pos)
        else:
            kept = decided.get(i)
            action = kept[1] if kept is not None and kept[0] is robot else None
        if action is None:
            action = ahead.get(i) or decide(snap, robot)
            # Under two maxima a target at a near tie read the robot's frame.
            shared = per_point and (action.target is None or len(maxima) == 1 or not near_tie(robot.pos, *maxima))
            if action.kind == MOVE_CAREFUL and not path_is_clear(config.occupied, robot.pos, action.target):
                action = Action(STAY, branch=action.branch)
            if shared:
                decided[robot.pos] = action
            elif action.target is None and not per_point:
                decided[i] = (robot, action)
        if action.target is not None:
            origins[i] = robot.pos
            robots[i] = Robot(apply_motion(robot, action.target), robot.sigma, robot.frame)
        actions[i] = action
    after = Snapshot._over(robots, snap.t + 1, last_active,
                           successor(config, [r.pos for r in robots], origins) if origins else config)
    return after, actions


# A monitor rule reads the snapshots around one step and returns a message
# describing a violation, or None.
Rule = Callable[[Snapshot, Snapshot], Optional[str]]


@dataclass
class MonitorReport:
    """One finding: which monitor, at which step, what it saw, and the
    configuration the step ended in."""

    monitor: str
    step: int
    description: str
    snapshot: Configuration


@dataclass
class RunOutcome:
    status: str
    final_t: int
    final_config: Configuration
    monitor_violations: list[MonitorReport] = field(default_factory=list)


def run(
    robots: Sequence[Robot],
    scheduler: SchedulerSpec,
    max_steps: Optional[int] = None,
    monitors: Optional[Mapping[str, Rule]] = None,
    stop_on_gather: bool = True,
    trace: Optional[TextIO] = None,
    refresh_frames: bool = False,
) -> tuple[RunOutcome, int]:
    """Drive a full run: schedule, step, monitor, repeat.

    Stops as soon as the configuration collapses to one point (unless
    ``stop_on_gather`` is off, which is how stability-after-gathering gets
    exercised), at a fixed point, or after max_steps steps, defaulting to
    10000 per robot.  A fixed point is an ungathered configuration that every
    robot has observed since the last move: the rule is deterministic and
    oblivious and frames are fixed, so no schedule can change it.  With
    ``refresh_frames`` frames are not fixed, and runs never stop there.
    ``monitors`` maps a name to a rule ``rule(before, after)`` over the
    snapshots around each step; a message it returns becomes a
    ``MonitorReport``.  Findings are collected, never raised; a violated
    invariant is data, and stopping the run would hide what happens next.
    Given a text sink, ``trace``, each step is written to it as it is taken:
    every robot's record, as ``trace_line`` formats it, in one ``write``.  A
    run that raises leaves the steps before the failure there; the second
    item returned is the number of lines written, or 0 without a sink.

    ``refresh_frames`` redraws every robot's frame each step from the
    scheduler seed, an adversarial stress mode; the rule is supposed to be
    indifferent to frames, and this flag lets runs prove it.
    """
    snap = Snapshot(robots)
    n = len(snap.robots)
    if n % 2 == 0:
        warnings.warn(
            f"{n} robots: gathering is not guaranteed for even counts",
            RuntimeWarning,
            stacklevel=2,
        )
    if max_steps is None:
        max_steps = 10000 * n
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    # Each robot's record after {"t":<t>; only robots woken now or a step ago change it.
    tails = [_record_tail(i, r, None) for i, r in enumerate(snap.robots)] if trace is not None else []
    woken: dict[int, Action] = {}
    violations: list[MonitorReport] = []
    status = STEP_LIMIT_REACHED
    last_move = -1
    for _ in range(max_steps):
        if stop_on_gather and snap.config.is_gathered():
            break
        if refresh_frames:
            # A new snapshot over the same configuration: no snapshot a step returned ever changes.
            rng = random.Random(f"{scheduler.seed}:frames:{snap.t}")
            redrawn = [replace(r, frame=random_frame(rng)) for r in snap.robots]
            snap = Snapshot._over(redrawn, snap.t, snap.last_active, snap.config)
        before = snap
        snap, actions = step(before, next_active(scheduler, before))
        if trace is not None:
            for i in woken.keys() | actions.keys():
                tails[i] = _record_tail(i, snap.robots[i], actions.get(i))
            woken = actions
            head = f'{{"t":{before.t}'
            trace.write(head + ("\n" + head).join(tails) + "\n")
        for name, rule in (monitors or {}).items():
            message = rule(before, snap)
            if message is not None:
                violations.append(MonitorReport(name, before.t, message, snap.config))
        # Positions, not action kinds: a move that rounds to no motion is no move.
        if any(snap.robots[i].pos != before.robots[i].pos for i in actions):
            last_move = before.t
        elif not (refresh_frames or snap.config.is_gathered()) and min(snap.last_active) > last_move:
            status = FIXED_POINT
            break
    if snap.config.is_gathered():
        status = GATHERED
    return RunOutcome(status, snap.t, snap.config, violations), len(tails) * snap.t
