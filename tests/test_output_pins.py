"""Byte-for-byte pins on what the engine writes out.

Refactors of the engine and the monitor layer must not change a single
byte of a trace, a sweep record, a monitor finding or a self-check line.
Each test below hashes one of these outputs and compares it with a digest
recorded before such a refactor.  A changed digest means changed output:
if the change is intended, say why and record the new digest.

The run cases cover what the benchmark's recorded digests do not: the
boundary-only adversary, frames redrawn every step, and eps = 0, at which
the lemma monitors do report findings.
"""

import contextlib
import hashlib
import io
import json
import random
import warnings

from gathersim import cli
from gathersim.analysis import attach_lemma_monitors, random_robots, run_sweep
from gathersim.geometry import Tolerance
from gathersim.simulator import SchedulerSpec, run, trace_line

# (eps, n, strategy, refresh_frames, seed)
RUN_CASES = (
    (0.0, 3, "boundary_only_adversary", True, 13),
    (0.0, 3, "random_subset", True, 2),
    (1e-9, 7, "boundary_only_adversary", False, 0),
    (1e-9, 9, "boundary_only_adversary", True, 1),
    (1e-9, 5, "synchronous", True, 4),
    (1e-9, 6, "boundary_only_adversary", False, 3),
)

RUN_DIGEST = "a78e439ab3040191d74887d38033e497cf035f59467ecf4540e3c572be886c1f"
SWEEP_DIGEST = "9ed7f24d3e07ca2ea2574cd1ff8cd70c59dea7fadbb38b166990bf7a3fdb1347"
CHECK_DIGEST = "7bd7e3bff10cb78142331f855c530b381486c1849c6f5efd668dd39e52be2d4b"
DEMO_DIGEST = "cf81d92f3fb1c6f465a8195d8477e83c6a0451146dae9ea628695d81a7210bd4"


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def _occupied(config):
    return [[p.x.hex(), p.y.hex(), count] for p, count in config.occupied.items()]


def _run_lines(eps, n, strategy, refresh, seed):
    robots = random_robots(random.Random(f"pin:{n}:{seed}"), n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        outcome, trace = run(
            robots,
            SchedulerSpec(strategy, seed),
            tol=Tolerance(eps),
            max_steps=300,
            monitors=attach_lemma_monitors(),
            refresh_frames=refresh,
        )
    yield from (trace_line(event) for event in trace)
    for report in outcome.monitor_violations:
        yield json.dumps([report.monitor, report.step, report.description, _occupied(report.snapshot)])
    yield json.dumps([outcome.status, outcome.final_t, _occupied(outcome.final_config)])


def _cli_lines(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue().splitlines() + [f"exit {code}"]


def test_monitored_run_traces_and_findings_are_pinned():
    lines = [line for case in RUN_CASES for line in _run_lines(*case)]
    assert any(line.startswith('["inside_stays_inside"') for line in lines)
    assert _digest(lines) == RUN_DIGEST


def test_sweep_records_are_pinned():
    lines = []
    for strategy in cli.SWEEP_STRATEGIES:
        for seed in (0, 5):
            summary, records = run_sweep(7, 10, seed, strategy)
            lines += [json.dumps(r, sort_keys=True) for r in records]
            lines.append(json.dumps(vars(summary), sort_keys=True))
    assert _digest(lines) == SWEEP_DIGEST


def test_check_suite_output_is_pinned():
    lines = _cli_lines(["check", "--suite", "all"])
    assert lines[-1] == "exit 0"
    assert _digest(lines) == CHECK_DIGEST


def test_even_witness_output_is_pinned():
    lines = _cli_lines(["demo-even", "--n", "4", "--steps", "200"])
    assert lines[-1] == "exit 0"
    assert _digest(lines) == DEMO_DIGEST
