"""A step's fresh decisions, forked across CPUs, against the serial path.

``step`` decides a large batch of woken robots in forked children, one
contiguous slice of robots per usable CPU, when the configuration has three or
more maxima.  The serial path is the oracle: under any activation, the
forked path must give the same actions, snapshots and trace bytes, raise
what the serial path raises, and leave no child behind.  The usable CPUs
are patched here, to two or three for the forked path, so it runs on any
machine with ``os.fork``, and to one for the serial path.
"""

import os
import pickle
import random
import threading

import pytest

import gathersim.simulator as simulator
from gathersim.analysis import random_point_set, run_sweep
from gathersim.model import random_frame
from gathersim.simulator import RANDOM_SUBSET, ROUND_ROBIN, SYNCHRONOUS, Robot, SchedulerSpec, Snapshot, run, step

from forked import no_children, usable

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="forked decisions need os.fork")


def _robots(seed, n=201, caps=(0.001, 0.005)):
    """n robots at distinct points of the unit square with random frames and caps short
    enough that no two meet for a dozen steps: every point is a maximum."""
    rng = random.Random(f"parallel:{n}:{seed}")
    return [Robot(p, rng.uniform(*caps), random_frame(rng)) for p in random_point_set(rng, n)]


def _bits(snap, actions):
    """A step's actions and the snapshot after it, every float by its bits, the sign of zero included."""
    def hexed(p):
        return p.x.hex(), p.y.hex()

    return (
        [(i, a.kind, a.branch, a.target and hexed(a.target)) for i, a in actions.items()],
        [(hexed(r.pos), r.sigma.hex(), r.frame) for r in snap.robots],
        snap.t,
        snap.last_active,
        [(hexed(p), count) for p, count in snap.config.occupied.items()],
    )


def _recorded_run(monkeypatch, tmp_path, cpus, robots, spec, **kwargs):
    """run with the trace written to a real file: the trace bytes and every step's bits.

    The sink's buffer holds the whole trace until it closes, so a child that
    flushed its copy of the buffer would write earlier steps twice.
    """
    usable(monkeypatch, cpus)
    steps = []
    real_step = simulator.step

    def recording(snap, active):
        after, actions = real_step(snap, active)
        steps.append(_bits(after, actions))
        return after, actions

    monkeypatch.setattr(simulator, "step", recording)
    path = tmp_path / f"trace-{cpus}.jsonl"
    with open(path, "w", encoding="utf-8", buffering=1 << 20) as sink:
        outcome, written = run(robots, spec, trace=sink, **kwargs)
    monkeypatch.setattr(simulator, "step", real_step)
    return (outcome.status, outcome.final_t, written), steps, path.read_bytes()


@pytest.mark.parametrize("refresh_frames", [False, True], ids=["fixed-frames", "refreshed-frames"])
def test_forked_decisions_equal_the_serial_ones_bit_for_bit(monkeypatch, tmp_path, forks, refresh_frames):
    robots = _robots(0)
    spec = SchedulerSpec(RANDOM_SUBSET, seed=11, fairness_bound=4)
    kwargs = dict(max_steps=12, refresh_frames=refresh_frames)
    serial = _recorded_run(monkeypatch, tmp_path, 1, robots, spec, **kwargs)
    assert forks[0] == 0
    forked = _recorded_run(monkeypatch, tmp_path, 3, robots, spec, **kwargs)
    assert forks[0] == 2 * len(forked[1]) == 24
    assert forked == serial
    no_children()


def test_a_small_batch_or_few_maxima_never_forks(monkeypatch, forks):
    usable(monkeypatch, 2)
    run_sweep(11, 2, 0, SYNCHRONOUS)
    snap = Snapshot(_robots(1))
    for t in range(3):
        snap, _ = step(snap, simulator.next_active(SchedulerSpec(ROUND_ROBIN), snap))
    assert forks[0] == 0
    snap = Snapshot(_robots(1))
    step(snap, range(len(snap.robots)))
    assert forks[0] == 1


def test_a_big_batch_stays_serial_on_one_cpu(monkeypatch, forks):
    usable(monkeypatch, 1)
    snap = Snapshot(_robots(2))
    step(snap, range(len(snap.robots)))
    assert forks[0] == 0


def test_a_big_batch_stays_serial_while_another_thread_lives(monkeypatch, forks):
    usable(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        snap = Snapshot(_robots(3))
        step(snap, range(len(snap.robots)))
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert forks[0] == 0


@pytest.mark.parametrize("where", ["parent's slice", "child's slice"])
def test_a_decision_that_raises_in_any_slice_raises_as_on_the_serial_path(monkeypatch, forks, where):
    robots = _robots(4)
    bad = robots[0 if where == "parent's slice" else -1]
    real_decide = simulator.decide

    def failing(snap, robot):
        if robot is bad:
            raise ArithmeticError(f"cannot decide at {robot.pos}")
        return real_decide(snap, robot)

    monkeypatch.setattr(simulator, "decide", failing)
    raised = []
    for cpus in (1, 2):
        usable(monkeypatch, cpus)
        with pytest.raises(ArithmeticError) as caught:
            step(Snapshot(robots), range(len(robots)))
        raised.append((type(caught.value), str(caught.value)))
    assert forks[0] == 1
    assert raised[0] == raised[1] == (ArithmeticError, f"cannot decide at {bad.pos}")
    no_children()


@pytest.mark.parametrize("failure", ["child dies", "child fails mid-write", "fork fails"])
def test_a_slice_no_child_returns_is_decided_in_the_parent(monkeypatch, failure):
    robots = _robots(5)
    usable(monkeypatch, 1)
    serial = step(Snapshot(robots), range(len(robots)))
    parent = os.getpid()
    real_decide = simulator.decide

    def dying(snap, robot):
        if os.getpid() != parent:
            os._exit(3)
        return real_decide(snap, robot)

    def half_sent(actions, sink, protocol):
        sink.write(pickle.dumps(actions, protocol)[:20])
        sink.flush()
        raise BrokenPipeError("pipe closed mid-write")

    def unforkable():
        raise BlockingIOError("no process left")

    if failure == "child dies":
        monkeypatch.setattr(simulator, "decide", dying)
    elif failure == "child fails mid-write":
        monkeypatch.setattr(pickle, "dump", half_sent)
    else:
        monkeypatch.setattr(os, "fork", unforkable)
    usable(monkeypatch, 2)
    forked = step(Snapshot(robots), range(len(robots)))
    assert _bits(*forked) == _bits(*serial)
    no_children()
