"""A sweep's runs, forked across CPUs, against the serial path.

``run_sweep`` runs a large sweep in contiguous slices of run indices, one per
usable CPU, through ``simulator.fork_map``, the helper ``step`` decides its
large batches with.  The serial path is the oracle: the forked path must give
the same records and summary, show the same warnings, raise what the serial
path raises, fork nothing inside a slice, and leave no child behind.  The
usable CPUs are patched, so it runs on any machine with ``os.fork``.
"""

import os
import pickle
import warnings

import pytest

import gathersim.analysis as analysis
import gathersim.simulator as simulator
from gathersim.analysis import run_sweep
from gathersim.simulator import SCRIPTED, STRATEGIES, SYNCHRONOUS

from forked import no_children, usable

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="forked sweeps need os.fork")

SWEPT = [s for s in STRATEGIES if s != SCRIPTED]
SWEEP_WORK = analysis._SWEEP_WORK


@pytest.fixture(autouse=True)
def small_sweep_slices(monkeypatch):
    """Slices of 48 robot-runs, so that sweeps of a dozen runs fork and the tests stay fast."""
    monkeypatch.setattr(analysis, "_SWEEP_WORK", 48)


def _even_sweep():
    """An even-n sweep of 120 robot-runs, and the warnings it raised as (message, category, filename, lineno)."""
    with warnings.catch_warnings(record=True) as caught:
        result = run_sweep(4, 30, 1, SYNCHRONOUS)
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


@pytest.mark.parametrize("strategy", SWEPT)
def test_forked_sweeps_equal_the_serial_one(monkeypatch, forks, strategy):
    # 11 robots times 14 runs hold three slices of 48 robot-runs.
    results = []
    for cpus in (1, 2, 3):
        usable(monkeypatch, cpus)
        results.append(run_sweep(11, 14, 5, strategy))
    assert forks[0] == 0 + 1 + 2
    assert results[1] == results[0] and results[2] == results[0]
    assert [r["run"] for r in results[0][1]] == list(range(14))
    no_children()


@pytest.mark.parametrize("action", ["always", "default"])
def test_a_forked_sweep_warns_as_the_serial_one(monkeypatch, forks, action):
    shown = []
    for cpus in (1, 2):
        usable(monkeypatch, cpus)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            shown.append(_even_sweep())
    assert forks[0] == 1
    assert shown[1] == shown[0]
    assert len(shown[0][1]) == (30 if action == "always" else 1)
    assert shown[0][1][0][:2] == ("4 robots: gathering is not guaranteed for even counts", RuntimeWarning)
    assert shown[0][1][0][2] == analysis.__file__
    with pytest.warns(RuntimeWarning, match="gathering is not guaranteed"):
        run_sweep(4, 30, 1, SYNCHRONOUS)
    assert forks[0] == 2
    no_children()


def test_a_warning_made_an_error_raises_as_on_the_serial_path(monkeypatch, forks):
    raised = []
    for cpus in (1, 2):
        usable(monkeypatch, cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning) as caught:
                run_sweep(4, 30, 1, SYNCHRONOUS)
        raised.append((type(caught.value), str(caught.value)))
    assert raised[0] == raised[1]
    no_children()


@pytest.mark.parametrize("where", ["parent's slice", "child's slice"])
def test_a_run_that_raises_in_any_slice_raises_as_on_the_serial_path(monkeypatch, forks, where):
    bad = 0 if where == "parent's slice" else 13
    real = analysis._sweep_record

    def failing(n, seed, strategy, monitors, index):
        if index == bad:
            raise ArithmeticError(f"run {index} cannot go on")
        return real(n, seed, strategy, monitors, index)

    monkeypatch.setattr(analysis, "_sweep_record", failing)
    raised = []
    for cpus in (1, 2):
        usable(monkeypatch, cpus)
        with pytest.raises(ArithmeticError) as caught:
            run_sweep(11, 14, 5, SYNCHRONOUS)
        raised.append((type(caught.value), str(caught.value)))
    assert forks[0] == 1
    assert raised[0] == raised[1] == (ArithmeticError, f"run {bad} cannot go on")
    no_children()


@pytest.mark.parametrize("failure", ["child dies", "child fails mid-write", "fork fails"])
def test_a_slice_no_child_returns_is_run_in_the_parent(monkeypatch, failure):
    usable(monkeypatch, 1)
    serial = run_sweep(11, 14, 6, SYNCHRONOUS)
    parent = os.getpid()
    real = analysis._sweep_record

    def dying(n, seed, strategy, monitors, index):
        if os.getpid() != parent:
            os._exit(3)
        return real(n, seed, strategy, monitors, index)

    def half_sent(results, sink, protocol):
        sink.write(pickle.dumps(results, protocol)[:20])
        sink.flush()
        raise BrokenPipeError("pipe closed mid-write")

    def unforkable():
        raise BlockingIOError("no process left")

    if failure == "child dies":
        monkeypatch.setattr(analysis, "_sweep_record", dying)
    elif failure == "child fails mid-write":
        monkeypatch.setattr(pickle, "dump", half_sent)
    else:
        monkeypatch.setattr(os, "fork", unforkable)
    usable(monkeypatch, 2)
    assert run_sweep(11, 14, 6, SYNCHRONOUS) == serial
    no_children()


def test_work_inside_a_slice_forks_nothing(monkeypatch, tmp_path):
    """With every decision batch big enough to fork, the serial sweep forks
    decisions in runs 0, 4 and 8, in both slices of the forked sweep, and the
    forked sweep forks its one sweep child alone, in the parent: neither the
    child nor the parent's own slice forks again."""
    log = tmp_path / "forks"
    real = os.fork

    def logged():
        with open(log, "a", encoding="utf-8") as sink:
            sink.write(f"{os.getpid()}\n")
        return real()

    monkeypatch.setattr(os, "fork", logged)
    monkeypatch.setattr(simulator, "_SLICE_WORK", 1)
    usable(monkeypatch, 2)
    sweep_work = analysis._SWEEP_WORK
    monkeypatch.setattr(analysis, "_SWEEP_WORK", 10**9)
    serial = run_sweep(11, 9, 18, SYNCHRONOUS)
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * 3
    log.unlink()
    monkeypatch.setattr(analysis, "_SWEEP_WORK", sweep_work)
    assert run_sweep(11, 9, 18, SYNCHRONOUS) == serial
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())]
    no_children()


def test_a_sweep_forks_from_two_slices_of_its_work(monkeypatch, forks):
    monkeypatch.setattr(analysis, "_SWEEP_WORK", SWEEP_WORK)
    usable(monkeypatch, 2)
    runs = -(-2 * SWEEP_WORK // 11)
    run_sweep(11, runs - 1, 3, SYNCHRONOUS)
    assert forks[0] == 0
    run_sweep(11, runs, 3, SYNCHRONOUS)
    assert forks[0] == 1
    no_children()


@pytest.mark.parametrize("runs", [1, 2])
def test_a_sweep_of_fewer_runs_than_cpus_forks_no_empty_slice(monkeypatch, forks, runs):
    """Every slice holds a run: a one-run sweep maps in this process alone,
    so its decisions fork as a run's do outside a sweep."""
    monkeypatch.setattr(simulator, "_SLICE_WORK", 1)
    monkeypatch.setattr(analysis, "_SWEEP_WORK", 1)
    usable(monkeypatch, 1)
    serial = run_sweep(11, runs, 18, SYNCHRONOUS)
    usable(monkeypatch, 3)
    parts = []
    real = simulator._fork
    monkeypatch.setattr(simulator, "_fork", lambda fn, part: parts.append(part) or real(fn, part))
    assert run_sweep(11, runs, 18, SYNCHRONOUS) == serial
    if runs == 1:
        assert forks[0] == len(parts) > 0
    else:
        assert parts == [[1]] and forks[0] == 1
    assert all(parts)
    no_children()
