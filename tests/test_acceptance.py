"""Acceptance gate.

One test per acceptance criterion, each printing a single verdict line
(visible in the summary because pytest runs with -rA).  The randomized
sweeps behind criteria 1 and 3 are shared through a module fixture; they
are the expensive part, a few thousand full simulations.
"""

import random

import pytest

from gathersim.analysis import (
    attach_lemma_monitors,
    check_geometry_suite,
    check_properties_suite,
    even_livelock_demo,
    run_sweep,
)
from gathersim.geometry import Point
from gathersim.model import random_frame
from gathersim.simulator import (
    FIXED_POINT,
    GATHERED,
    RANDOM_SUBSET,
    Robot,
    SchedulerSpec,
    run,
)
from streamed import traced_run


ODD_SIZES = (1, 3, 5, 7, 9, 11)
STRATEGIES = ("synchronous", "round_robin", "random_subset", "boundary_only_adversary")
RUNS_PER_CELL = 200


def _verdict(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _sweep_seed(n, strategy):
    return 1000 + 13 * n + STRATEGIES.index(strategy)


@pytest.fixture(scope="module")
def sweeps():
    results = {}
    for n in ODD_SIZES:
        for strategy in STRATEGIES:
            results[n, strategy] = run_sweep(n, RUNS_PER_CELL, _sweep_seed(n, strategy), strategy)
    return results


def test_criterion_1_every_randomized_run_gathers(sweeps):
    total = 0
    gathered = 0
    longest = 0
    for summary, _ in sweeps.values():
        total += summary.runs
        gathered += summary.gathered
        longest = max(longest, summary.max_steps_to_gather)
    _verdict(
        1,
        gathered == total,
        f"{gathered}/{total} runs gathered over odd n in {ODD_SIZES} x "
        f"{len(STRATEGIES)} schedulers (longest {longest} steps)",
    )


def test_criterion_2_gathered_runs_stay_gathered():
    bad_runs = 0
    violations = 0
    for index in range(50):
        rng = random.Random(f"acceptance2:{index}")
        n = rng.choice([1, 3, 5, 7, 9])
        spot = Point(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        robots = [
            Robot(spot, rng.uniform(0.1, 2.0), random_frame(rng)) for _ in range(n)
        ]
        spec = SchedulerSpec(rng.choice(STRATEGIES), rng.getrandbits(32))
        steps_gathered = []
        outcome, _ = run(
            robots,
            spec,
            max_steps=1000,
            monitors={
                **attach_lemma_monitors(),
                "record": lambda before, after: steps_gathered.append(after.config.is_gathered()),
            },
            stop_on_gather=False,
        )
        violations += len(outcome.monitor_violations)
        if outcome.status != GATHERED or len(steps_gathered) != 1000 or not all(steps_gathered):
            bad_runs += 1
    _verdict(
        2,
        bad_runs == 0 and violations == 0,
        f"50 gathered-start runs held the point for 1000 steps each "
        f"({bad_runs} broke, {violations} monitor findings)",
    )


def test_criterion_3_lemma_monitors_silent(sweeps):
    watched = (
        "unique_max_persistence",
        "two_max_no_escalation",
        "inside_stays_inside",
        "center_containment",
        "careful_separation",
    )
    counts = {name: 0 for name in watched}
    for summary, _ in sweeps.values():
        for name in watched:
            counts[name] += summary.violations.get(name, 0)
    noisy = {name: c for name, c in counts.items() if c}
    _verdict(
        3,
        not noisy,
        f"monitor violations across all {len(sweeps) * RUNS_PER_CELL} sweep runs: "
        f"{noisy or 'none'}",
    )


def test_criterion_4_circle_oracle_agreement():
    checks = check_geometry_suite()
    failed = [detail for _, ok, detail in checks if not ok]
    agreement_detail = checks[0][2]
    _verdict(
        4,
        not failed,
        failed[0] if failed else f"{agreement_detail}; boundary support held on all sets",
    )


def test_criterion_5_geometry_property_checks():
    checks = check_properties_suite()
    failed = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    _verdict(
        5,
        not failed,
        "; ".join(failed) if failed else "sector occupancy, hull equivalence, "
        "rim-on-hull and shrink checks all clean on 500 sets each",
    )


def test_criterion_6_even_witness_never_gathers():
    problems = []
    for n in (2, 4, 6):
        outcome = even_livelock_demo(n)
        counts = sorted(outcome.final_config.occupied.values())
        if outcome.status != FIXED_POINT or counts != [n // 2, n // 2] or outcome.monitor_violations:
            problems.append(f"n={n}: {outcome.status}, counts {counts}")
    _verdict(
        6,
        not problems,
        "; ".join(problems) if problems else
        "n in (2, 4, 6) all reached a fixed point of two camps of n/2 robots with silent monitors",
    )


def test_criterion_7_reruns_are_identical(sweeps):
    def replay():
        rng = random.Random("acceptance7")
        robots = [
            Robot(
                Point(rng.uniform(0, 1), rng.uniform(0, 1)),
                rng.uniform(0.1, 2.0),
                random_frame(rng),
            )
            for _ in range(7)
        ]
        outcome, trace = traced_run(
            robots,
            SchedulerSpec(RANDOM_SUBSET, 1234),
            refresh_frames=True,
        )
        return outcome.status, "\n".join(trace)

    status_a, text_a = replay()
    status_b, text_b = replay()
    trace_same = text_a == text_b and status_a == status_b and len(text_a) > 0

    n, strategy = 5, "random_subset"
    replay = run_sweep(n, RUNS_PER_CELL, _sweep_seed(n, strategy), strategy)
    sweep_same = replay == sweeps[n, strategy]
    _verdict(
        7,
        trace_same and sweep_same,
        f"trace replay byte-identical ({len(text_a.splitlines())} events), "
        f"sweep replay summary identical: {sweep_same}",
    )
