"""Checks of the benchmark itself: its correctness gate and its traced run.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

GATE_INPUTS = 3


@pytest.fixture(scope="module")
def program():
    return run.import_program()


def _main(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_matches_recorded_digests(name, seed, program):
    workload = WORKLOADS[name]
    expected = run.load_expected(name, seed)
    assert expected is not None and len(expected) == workload.inputs
    items = workload.generate(program, seed, run.WORK_DIR / "tests" / name)
    ledger = run.Ledger(expected)
    for index in range(GATE_INPUTS):
        ledger.record(index, run.timed_call(workload, program, items[index])[1])
    assert ledger.errors == []
    assert ledger.attempted == GATE_INPUTS


def test_ledger_flags_a_repeat_that_differs():
    ledger = run.Ledger(None)
    ledger.record(0, Outcome(5, 55, 0, "a"))
    ledger.record(0, Outcome(5, 55, 0, "a"))
    ledger.record(0, Outcome(5, 55, 0, "b"))
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert "earlier run" in ledger.errors[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reproduces_untraced_digests(name, program, tmp_path):
    workload = WORKLOADS[name]
    items = workload.generate(program, run.DEFAULT_SEED, run.WORK_DIR / "tests" / name)
    ledger = run.Ledger(None)
    # A tiny budget makes exactly one plain and one traced run of input 0.
    result = run.measure_traced(workload, program, items, 1e-9, ledger, calibrate.Clock(),
                                tmp_path / "spans.bin")
    assert ledger.attempted == 2 and ledger.errors == []
    metrics = result["metrics"]
    assert metrics["simulator.run.calls"][0] > 0
    assert metrics["simulator.step.calls"][0] == metrics["simulator.run.steps"][0]
    assert metrics["tracing_overhead"][0] > 0
    written = spans.load(tmp_path / "spans.bin")
    assert len(written["start"]) == sum(v for k, (v, _) in metrics.items() if k.endswith(".calls"))


def test_tracer_wraps_every_binding_and_restores_it(program):
    simulator = sys.modules["gathersim.simulator"]
    protocol = sys.modules["gathersim.protocol"]
    original = program.analysis.MONITOR_RULES["careful_separation"]
    before = spans.bindings(program.modules)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(program.modules):
            assert simulator.smallest_enclosing_circle is protocol.smallest_enclosing_circle
            assert simulator.smallest_enclosing_circle is not before[("gathersim.geometry", "smallest_enclosing_circle")]
            assert program.analysis.MONITOR_RULES["careful_separation"] is not original
            raise RuntimeError("the originals must come back even when a run raises")
    after = spans.bindings(program.modules)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_stray_eps_in_the_environment_does_not_change_the_workload(monkeypatch):
    # eps=0.01 merges some of the 101 starting points, which changes the
    # trace; the digests recorded for the default seed only match if the
    # benchmark unsets it.
    monkeypatch.setenv(run.ENV_EPS, "0.01")
    code, lines = _main(["--workload", "sparse_n101", "--seed", str(run.DEFAULT_SEED),
                         "--seconds", "1e-9", "--trace", "0"])
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert "checked against expected.json" in "\n".join(lines)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    code, lines = _main(["--workload", "sweep_n11", "--seconds", "1e-9", "--trace", trace])
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[section]
    }


def test_exits_nonzero_without_printing_a_result_when_the_package_is_missing(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, lines = _main(["--workload", "sweep_n11", "--seconds", "1"])
    assert code != 0 and lines == []


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert spans.tail([float(v) for v in range(100)]) == (89.0, 90.0)
    assert spans.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
