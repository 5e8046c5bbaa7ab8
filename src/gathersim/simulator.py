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
robots that moved (model.successor, which falls back to normalize when a
key must be created or reordered).  A woken robot builds no view (decide):
it maps the points the rule reads into its frame as plain float pairs (the
maxima when there are one or two and no two occupied points can map to one
image, every occupied point otherwise), merges those that map to one as its
view would, and decides on the pairs.
The configuration carries what is computed from it: its maxima, its
enclosing circle and the stays decided on it.  A step in which no robot
moves keeps the configuration object, and with it all three: a decision is a
pure function of the configuration and the robot's position and frame, so a
robot woken again on an unchanged configuration reuses its action.
The careful-move veto settles only the occupied points in the segment's
widened bounding box (protocol.path_is_clear).
The trace streams to a text sink, one write per step, from a record per
robot that changes only for the robots woken in that step or the one before.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, TextIO

# Not called here: bench/tests/test_bench.py checks that the span tracer wraps this binding.
from .geometry import Pair, Point, dist, on_circle, smallest_enclosing_circle  # noqa: F401
from .model import Configuration, Frame, ego_images, normalize, random_frame, successor
from .protocol import BRANCH_UNIQUE_MAX, MOVE_CAREFUL, STAY, Action, pair_action, path_is_clear

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
    ``config`` the configuration of their positions, which carries its
    maxima, enclosing circle and stays.  ``step`` returns the snapshot after
    it, and ``run`` keeps that as the one before the next step, so the
    scheduler, ``step`` and every monitor share one configuration.  Only the
    first snapshot of a run normalizes every position; ``step`` derives each
    later configuration from the robots that moved, equal to normalize of
    its positions item for item, and keeps the configuration object when no
    robot moved.  A ``config`` given must be one that normalize or successor
    built, since decisions go through its clustering.
    """

    def __init__(
        self,
        robots: Sequence[Robot],
        t: int = 0,
        last_active: Optional[list[int]] = None,
        config: Optional[Configuration] = None,
    ) -> None:
        self.robots = list(robots)
        if not self.robots:
            raise ValueError("need at least one robot")
        self.t = t
        self.last_active = [-1] * len(self.robots) if last_active is None else last_active
        if config is None:
            config = normalize([r.pos for r in self.robots])
        elif config.clustering is None:
            raise ValueError("config must be built by normalize or successor: it has no clustering")
        self.config = config


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
        chosen = {i for i, r in enumerate(snap.robots) if on_circle(r.pos, snap.config.sec)}
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


# decide maps only the maxima of a configuration no larger than this, for a
# frame scale in this range: no two occupied points can then share an image.
_MERGE_FREE_EXTENT = 2.0**16
_MERGE_FREE_SCALE_LOW = 2.0**-900
_MERGE_FREE_SCALE_HIGH = 2.0**900


def decide(snap: Snapshot, robot: Robot) -> Action:
    """The rule's action for a robot woken on snap, in global coordinates,
    before the careful-move veto.

    The points the rule reads are mapped into the robot's ego frame by
    observe's operations, as plain pairs (model.ego_images).  Images that
    round to one point merge into the first, counts added, as in the view
    observe builds, and protocol.pair_action decides on the pairs as
    compute_action decides on that view.  A target within eps of an occupied
    point becomes that exact point, so robots aiming at one land on it and
    multiplicity grows instead of leaving eps-separated dust.

    With three or more maxima the rule reads every occupied point.  With one
    or two it reads only the maxima, and a robot exactly on the unique
    maximum stays at once, when no two occupied points can map to one image,
    which would change the counts.  Proof, with u = 2**-53, s the frame's
    scale and M a bound on every coordinate magnitude of the occupied points
    and the robot's position (the largest over the positions the
    configuration's neighbour grid indexed: positions reach later
    configurations only by landing on a key, or by not moving): every image
    coordinate is off by at most 16.1 u s M (the linear part of the point
    and of the position, 6.1 u s M each, and the translation's sum,
    4 u s M), while occupied points lie over EPS apart and their exact
    images over (1 - 2u) s EPS apart (the computed cosine and sine are
    within 2u).  M <= 2**16 makes that over three times
    2 * sqrt(2) * 16.1 u s M, and 2**-900 <= s <= 2**900 keeps every product
    finite and its underflow negligible beside s EPS.  Otherwise every
    occupied point is mapped.
    """
    maxima = snap.config.maxima
    if (
        len(maxima) <= 2
        and snap.config.clustering.grid.largest <= _MERGE_FREE_EXTENT
        and _MERGE_FREE_SCALE_LOW <= robot.frame.scale <= _MERGE_FREE_SCALE_HIGH
    ):
        if len(maxima) == 1 and robot.pos == maxima[0]:
            return Action(STAY, branch=BRANCH_UNIQUE_MAX)
        # Only relative counts matter, and the maxima share theirs.
        points, counts = maxima, [1] * len(maxima)
    else:
        points, counts = snap.config.occupied, list(snap.config.occupied.values())
    images, to_global_ = ego_images(robot.frame, robot.pos, points)
    if len(set(images)) < len(images):
        merged: dict[Pair, int] = {}
        for q, count in zip(images, counts):
            merged[q] = merged.get(q, 0) + count
        images, counts = list(merged), list(merged.values())
    kind, target, branch = pair_action(images, counts)
    if target is None:
        return Action(STAY, branch=branch)
    target = to_global_(target)
    return Action(kind, snap.config.key_near(target) or target, branch)


def step(snap: Snapshot, active: Sequence[int]) -> tuple[Snapshot, dict[int, Action]]:
    """Execute one semi-synchronous step for the given activation set.

    Returns the next snapshot and, for each woken robot, the action it took
    in global coordinates; a robot that did not move is the same object in
    both snapshots, and the next configuration is derived from this one and
    the robots that moved (model.successor), or is this configuration when
    no robot moved: nothing is copied to hand on what was computed on it.  A
    robot that already stayed on this configuration reuses that action
    (``Configuration.stays``); any other is decided on the entry snapshot
    (``decide``), and positions update only at the end.  The careful-move
    veto also reads the snapshot: the rule asked in local coordinates, but
    blocking is a fact about the shared world.
    """
    config = snap.config
    stays = config.stays
    if not active:
        raise ValueError("activation set must be non-empty")
    robots = list(snap.robots)
    last_active = list(snap.last_active)
    actions: dict[int, Action] = {}
    origins: dict[int, Point] = {}
    for i in sorted(set(active)):
        if not (0 <= i < len(robots)):
            raise ValueError(f"activation set names unknown robot index {i}")
        robot = robots[i]
        last_active[i] = snap.t
        kept = stays.get(i)
        if kept is not None and kept[0] is robot:
            actions[i] = kept[1]
            continue
        action = decide(snap, robot)
        if action.kind == MOVE_CAREFUL and not path_is_clear(config.occupied, robot.pos, action.target):
            action = Action(STAY, branch=action.branch)
        elif action.target is not None:
            origins[i] = robot.pos
            robots[i] = replace(robot, pos=apply_motion(robot, action.target))
        if i not in origins:
            stays[i] = (robot, action)
        actions[i] = action
    after = Snapshot(robots, snap.t + 1, last_active,
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
            snap = Snapshot(redrawn, snap.t, snap.last_active, snap.config)
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
