"""Front-end tests: config parsing, subcommands, exit codes, determinism.

main() is exercised in-process with argv lists; file traffic goes through
tmp_path.  Every rejected config must name the offending field, so these
tests grep the diagnostics, not just the exit codes.  The last tests run
``python -m gathersim.cli`` as a process, so that main's result is seen as
the exit status.
"""

import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import gathersim
from gathersim import cli
from gathersim.cli import (
    ConfigError,
    RunConfig,
    dump_config,
    load_config,
    main,
    parse_config,
)
from gathersim.geometry import Point
from gathersim.model import Frame
from gathersim.simulator import Robot, SchedulerSpec


def _write(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _gathered_config(**extra):
    cfg = {
        "robots": [{"x": 1.0, "y": 2.0, "sigma": 1.0} for _ in range(3)],
        "scheduler": {"strategy": "synchronous", "seed": 0},
    }
    cfg.update(extra)
    return cfg


def _line_config(**extra):
    cfg = {
        "robots": [{"x": float(x), "y": 0.0, "sigma": 1.0} for x in (0, 2, 4)],
        "scheduler": {"strategy": "synchronous", "seed": 0},
    }
    cfg.update(extra)
    return cfg


# -- parsing and diagnostics --------------------------------------------------


@pytest.mark.parametrize(
    "mangle, needle",
    [
        (lambda c: c.pop("robots"), "config.robots"),
        (lambda c: c.update(robots=[]), "robots"),
        (lambda c: c["robots"][0].pop("x"), "robots[0].x"),
        (lambda c: c["robots"][0].update(sigma=0.0), "robots[0].sigma"),
        (lambda c: c["robots"][0].update(sigma="fast"), "robots[0].sigma"),
        (lambda c: c["robots"][0].update(frame={"scale": -1.0}), "robots[0].frame.scale"),
        (lambda c: c["robots"][1].update(frame={"reflected": "yes"}), "robots[1].frame.reflected"),
        (lambda c: c["scheduler"].update(strategy="lazy"), "scheduler.strategy"),
        (lambda c: c["scheduler"].update(fairness_bound=0), "scheduler.fairness_bound"),
        (lambda c: c["scheduler"].update(seed=1.5), "scheduler.seed"),
        (lambda c: c.update(detection="psychic"), "detection"),
        (lambda c: c.update(eps=-1.0), "eps"),
        (lambda c: c.update(max_steps=0), "max_steps"),
        (lambda c: c.update(monitors={"psychic": True}), "monitors.psychic"),
        (lambda c: c.update(monitors={"closure": "on"}), "monitors.closure"),
        (lambda c: c.update(trace_path=7), "trace_path"),
        pytest.param(
            lambda c: c.update(trace_path="t.jsonl"), "trace_path: unknown field", id="trace_path-unknown"
        ),
        (lambda c: c.update(refresh_frames="always"), "refresh_frames"),
        pytest.param(lambda c: c.update(detection="weak"), "detection", id="detection-weak"),
        pytest.param(lambda c: c.update(detection="none"), "detection", id="detection-none"),
        (
            lambda c: c.update(scheduler={"strategy": "scripted", "script": [[5]]}),
            "scheduler.script[0][0]",
        ),
        pytest.param(lambda c: c.update(max_step=1), "max_step:", id="unknown-top"),
        pytest.param(lambda c: c["robots"][0].update(sigmaa=5), "robots[0].sigmaa", id="unknown-robot"),
        pytest.param(
            lambda c: c["robots"][0].update(frame={"sclae": 2.0}),
            "robots[0].frame.sclae",
            id="unknown-frame",
        ),
        pytest.param(
            lambda c: c["scheduler"].update(fairnes_bound=2),
            "scheduler.fairnes_bound",
            id="unknown-scheduler",
        ),
        pytest.param(
            lambda c: c["scheduler"].update(script=[[0]]), "scheduler.script", id="script-unscripted"
        ),
        pytest.param(lambda c: c["robots"][0].update(x=10**400), "robots[0].x: too large", id="huge-x"),
        pytest.param(
            lambda c: c["robots"][2].update(frame={"tx": -(10**400)}),
            "robots[2].frame.tx: too large",
            id="huge-frame-tx",
        ),
        pytest.param(lambda c: c.update(eps=1e-9), "eps: unknown field", id="eps-unknown"),
        pytest.param(
            lambda c: c["robots"][1].update(x=2.0**300 * 1.5), "robots[1].x: magnitude", id="far-x"
        ),
        pytest.param(lambda c: c["robots"][2].update(y=-1e103), "robots[2].y: magnitude", id="far-y"),
        pytest.param(
            lambda c: c["robots"][1].update(frame={"scale": 1e120}),
            "robots[1].frame.scale: 1e+120 times the largest coordinate magnitude 2 exceeds 2**300",
            id="far-view",
        ),
    ],
)
def test_parse_errors_name_the_field(mangle, needle):
    cfg = _gathered_config()
    mangle(cfg)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(cfg)
    assert needle in str(excinfo.value)


def test_parse_rejects_non_object_and_bad_script():
    with pytest.raises(ConfigError, match="config"):
        parse_config([1, 2, 3])
    cfg = _gathered_config()
    cfg["scheduler"] = {"strategy": "scripted", "script": [[0], []]}
    with pytest.raises(ConfigError, match=r"scheduler.script\[1\]"):
        parse_config(cfg)


def test_parse_accepts_coordinates_and_views_up_to_2_to_the_300():
    limit = 2.0**300
    cfg = _gathered_config()
    cfg["robots"][0].update(x=-limit, y=limit)
    assert parse_config(cfg).robots[0].pos == Point(-limit, limit)
    cfg = _gathered_config()
    cfg["robots"][2].update(frame={"scale": limit / 2.0})
    assert parse_config(cfg).robots[2].frame.scale == limit / 2.0


def test_parse_defaults():
    config = parse_config({"robots": [{"x": 0.0, "y": 0.0, "sigma": 1.0}]})
    assert config.scheduler == SchedulerSpec("synchronous", 0, None)
    assert config.max_steps is None
    assert config.monitors is None
    assert config.refresh_frames is False


def test_config_round_trip():
    original = RunConfig(
        robots=[
            Robot(0, Point(0.25, -1.5), 0.7, Frame(0.3, 1.2, (0.1, -0.2), True)),
            Robot(1, Point(2.0, 3.0), 1.1),
        ],
        scheduler=SchedulerSpec("random_subset", 99, 6),
        max_steps=500,
        monitors={"closure": True, "radius_progress": False},
        refresh_frames=True,
    )
    assert parse_config(dump_config(original)) == original


def test_config_round_trip_scripted():
    original = RunConfig(
        robots=[Robot(0, Point(0, 0), 1.0)],
        scheduler=SchedulerSpec("scripted", 0, 2, ((0,), (0, 0))),
    )
    assert parse_config(dump_config(original)) == original


def test_load_config_io_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


# -- run subcommand -----------------------------------------------------------


def test_run_gathered_start(tmp_path, capsys):
    path = _write(tmp_path, _gathered_config())
    assert main(["run", "--config", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "gathered"
    assert record["final_t"] == 0
    assert record["occupied"] == [{"x": 1.0, "y": 2.0, "count": 3}]
    assert record["violations"] == []


def test_run_converges_and_reports(tmp_path, capsys):
    path = _write(tmp_path, _line_config())
    assert main(["run", "--config", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "gathered"
    assert record["final_t"] == 2
    assert record["occupied"] == [{"x": 2.0, "y": 0.0, "count": 3}]


def test_run_bad_config_exits_two(tmp_path, capsys):
    cfg = _gathered_config()
    cfg["robots"][0]["sigma"] = 0.0
    path = _write(tmp_path, cfg)
    assert main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "robots[0].sigma" in err


def test_run_huge_json_integer_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(
        '{"robots": [{"x": 1' + "0" * 400 + ', "y": 0, "sigma": 1}]}', encoding="utf-8"
    )
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: robots[0].x: too large")
    assert "Traceback" not in captured.err
    assert captured.out == ""


# Five robots about 1e103 from the origin; the circumcenter solve overflowed
# into a non-finite target.  Scaled down by 1e100 they gather, but a frame of
# scale 1e120 takes that view back out of range.
FAR_ROBOTS = [(1e103, 0.0), (-1e103, 3e102), (2e102, 1e103), (-4e102, -7e102), (5e102, -9e102)]


def _far_config(shrink=1.0, frame=None):
    robots = [
        {"x": x * shrink, "y": y * shrink, "sigma": 1e104 * shrink, "frame": frame or {}}
        for x, y in FAR_ROBOTS
    ]
    return {"robots": robots, "scheduler": {"strategy": "synchronous"}}


@pytest.mark.parametrize(
    "cfg, needle",
    [
        pytest.param(_far_config(), "robots[0].x: magnitude exceeds 2**300", id="far"),
        pytest.param(
            _far_config(1e-100, {"scale": 1e120}), "robots[0].frame.scale: 1e+120 times", id="far-view"
        ),
        pytest.param(_gathered_config(eps=1e-9), "eps: unknown field", id="eps"),
    ],
)
def test_run_rejected_config_exits_two_naming_the_field(tmp_path, capsys, cfg, needle):
    path = _write(tmp_path, cfg)
    assert main(["run", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {needle}")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_run_far_robots_scaled_into_range_gather(tmp_path, capsys):
    path = _write(tmp_path, _far_config(1e-100))
    assert main(["run", "--config", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "gathered" and record["final_t"] == 2


def test_run_weak_detection_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, _gathered_config(detection="weak"))
    assert main(["run", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: detection")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_run_step_limit_exits_one(tmp_path, capsys):
    path = _write(tmp_path, _line_config(max_steps=1))
    assert main(["run", "--config", path]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "step_limit_reached"


def test_run_fixed_point_exits_one(tmp_path, capsys):
    # In a frame with unit 1e-8 the robot at x = 0.06 sees the other two
    # within eps of itself, so nobody ever moves.
    tiny = {"scale": 1e-8}
    cfg = {
        "robots": [{"x": x, "y": 0.0, "sigma": 1.0, "frame": tiny} for x in (0.0, 0.0, 0.06)],
        "scheduler": {"strategy": "synchronous"},
    }
    path = _write(tmp_path, cfg)
    assert main(["run", "--config", path]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "fixed_point"
    assert record["final_t"] == 1
    assert record["violations"] == []


def test_run_trace_replay_is_byte_identical(tmp_path, capsys):
    cfg = _line_config(
        scheduler={"strategy": "random_subset", "seed": 21}, refresh_frames=True
    )
    path = _write(tmp_path, cfg)
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    assert main(["run", "--config", path, "--trace", str(first)]) == 0
    out_one = capsys.readouterr().out
    assert main(["run", "--config", path, "--trace", str(second)]) == 0
    out_two = capsys.readouterr().out
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_bytes()) > 0
    assert out_one == out_two
    for line in first.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        assert set(record) == {
            "t", "robot_id", "activated", "branch", "action",
            "target_x", "target_y", "new_x", "new_y",
        }


def test_run_unwritable_trace_fails_before_the_run(tmp_path, capsys, monkeypatch):
    calls = []
    real_run = cli.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counting_run)
    path = _write(tmp_path, _line_config())
    trace = tmp_path / "no" / "such" / "dir" / "t.jsonl"
    assert main(["run", "--config", path, "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert "cannot write trace" in captured.err
    assert captured.out == ""
    assert calls == []


def _failing_run(*args, **kwargs):
    raise RuntimeError("run failed")


def test_run_that_raises_leaves_no_trace_file(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run", _failing_run)
    path = _write(tmp_path, _line_config())
    trace = tmp_path / "t.jsonl"
    with pytest.raises(RuntimeError, match="run failed"):
        main(["run", "--config", path, "--trace", str(trace)])
    assert not trace.exists()


def _ring_config(n, strategy="round_robin"):
    robots = [
        {"x": math.cos(2 * math.pi * i / n), "y": math.sin(2 * math.pi * i / n), "sigma": 0.3}
        for i in range(n)
    ]
    return {"robots": robots, "scheduler": {"strategy": strategy, "seed": 5}}


def _raising_on_call(k):
    calls = []

    def rule(before, after):
        calls.append(before.state.t)
        if len(calls) == k:
            raise RuntimeError(f"rule raised at step {before.state.t}")
        return None

    return rule


@pytest.mark.parametrize("k", [1, 3])
def test_run_that_raises_keeps_the_steps_it_wrote(tmp_path, monkeypatch, k):
    cfg = _ring_config(5, "random_subset")
    path = _write(tmp_path, cfg)
    full = tmp_path / "full.jsonl"
    assert main(["run", "--config", path, "--trace", str(full)]) == 0
    whole = full.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(whole) > 5 * k

    monkeypatch.setattr(cli, "attach_lemma_monitors", lambda toggles: {"raising": _raising_on_call(k)})
    partial = tmp_path / "partial.jsonl"
    with pytest.raises(RuntimeError, match=f"rule raised at step {k - 1}"):
        main(["run", "--config", path, "--trace", str(partial)])
    # The step a rule raised in was written before the rule ran.
    assert partial.read_text(encoding="utf-8").splitlines(keepends=True) == whole[: 5 * k]


def test_run_reports_the_configuration_of_each_finding(tmp_path, capsys, monkeypatch):
    def probe(before, after):
        return "probe" if before.state.t in (0, 2) else None

    real_attach = cli.attach_lemma_monitors
    monkeypatch.setattr(cli, "attach_lemma_monitors", lambda toggles: {**real_attach(toggles), "probe": probe})
    path = _write(tmp_path, _ring_config(5, "random_subset"))
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--config", path, "--trace", str(trace)]) == 1
    record = json.loads(capsys.readouterr().out)
    counts = {}
    for line in trace.read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        step = counts.setdefault(event["t"], {})
        point = (event["new_x"], event["new_y"])
        step[point] = step.get(point, 0) + 1
    assert record["violations"] == [
        {
            "monitor": "probe",
            "step": t,
            "description": "probe",
            "occupied": [{"x": x, "y": y, "count": k} for (x, y), k in sorted(counts[t].items())],
        }
        for t in (0, 2)
    ]
    assert record["violations"][0]["occupied"] != record["occupied"]


# -- sweep subcommand ---------------------------------------------------------


def test_sweep_writes_records_and_summary(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = main(
        ["sweep", "--n", "3", "--runs", "4", "--seed", "9",
         "--scheduler", "synchronous", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["runs"] == 4
    assert summary["gathered"] == 4
    assert summary["step_limit"] == 0
    assert all(v == 0 for v in summary["violations"].values())
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert [json.loads(l)["run"] for l in lines] == [0, 1, 2, 3]


def test_sweep_is_deterministic(tmp_path, capsys):
    argv = lambda name: [
        "sweep", "--n", "5", "--runs", "3", "--seed", "4",
        "--scheduler", "round_robin", "--out", str(tmp_path / name),
    ]
    assert main(argv("a.jsonl")) == 0
    out_a = capsys.readouterr().out
    assert main(argv("b.jsonl")) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_sweep_rejects_scripted_strategy(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--n", "3", "--runs", "1", "--seed", "0",
              "--scheduler", "scripted", "--out", "x.jsonl"])
    assert excinfo.value.code == 2


def test_sweep_unwritable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args: calls.append(args))
    out = tmp_path / "no" / "such" / "dir" / "records.jsonl"
    code = main(
        ["sweep", "--n", "3", "--runs", "2", "--seed", "0",
         "--scheduler", "synchronous", "--out", str(out)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "cannot write records" in captured.err
    assert captured.out == ""
    assert calls == []


def test_sweep_that_raises_leaves_no_records_file(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", _failing_run)
    out = tmp_path / "records.jsonl"
    with pytest.raises(RuntimeError, match="run failed"):
        main(["sweep", "--n", "3", "--runs", "2", "--seed", "0",
              "--scheduler", "synchronous", "--out", str(out)])
    assert not out.exists()


def _sweep_output(out_path):
    code = main(
        ["sweep", "--n", "5", "--runs", "3", "--seed", "0",
         "--scheduler", "random_subset", "--out", str(out_path)]
    )
    return code, out_path.read_bytes()


def test_sweep_ignores_GATHERSIM_EPS(tmp_path, capsys, monkeypatch):
    # Point sets 10*0.5 apart do not fit in the unit square, so a sweep that read it would fail.
    monkeypatch.delenv("GATHERSIM_EPS", raising=False)
    plain = _sweep_output(tmp_path / "plain.jsonl"), capsys.readouterr()
    monkeypatch.setenv("GATHERSIM_EPS", "0.5")
    with_env = _sweep_output(tmp_path / "env.jsonl"), capsys.readouterr()
    assert plain[0][0] == 0
    assert with_env == plain


# -- output files: run --trace and sweep --out ---------------------------------


class Writer(NamedTuple):
    """A subcommand that writes an output file."""

    work: str  # the cli binding that does the work the file records
    what: str  # how error messages name the file

    def argv(self, tmp_path, target, large=False):
        """Small output stays in the write buffer until the close; large fills it during the work."""
        if self.work == "run":
            cfg = _ring_config(31) if large else _line_config()
            return ["run", "--config", _write(tmp_path, cfg), "--trace", str(target)]
        runs = "100" if large else "2"
        return ["sweep", "--n", "3", "--runs", runs, "--seed", "1",
                "--scheduler", "synchronous", "--out", str(target)]


RUN = Writer("run", "trace")
SWEEP = Writer("run_sweep", "records")
both_writers = pytest.mark.parametrize("writer", [RUN, SWEEP], ids=["run", "sweep"])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@both_writers
def test_work_that_raises_keeps_an_output_path_that_is_no_regular_file(tmp_path, monkeypatch, writer):
    # A named pipe stands in for any device or pipe given as the path, /dev/null among them.
    monkeypatch.setattr(cli, writer.work, _failing_run)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        with pytest.raises(RuntimeError, match="run failed"):
            main(writer.argv(tmp_path, pipe))
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


@both_writers
def test_work_that_raises_keeps_an_output_file_that_is_no_longer_empty(tmp_path, monkeypatch, writer):
    def writing_work(*args, **kwargs):
        out.write_text("written elsewhere\n", encoding="utf-8")
        raise RuntimeError("run failed")

    monkeypatch.setattr(cli, writer.work, writing_work)
    out = tmp_path / "out.jsonl"
    with pytest.raises(RuntimeError, match="run failed"):
        main(writer.argv(tmp_path, out))
    assert out.read_text(encoding="utf-8") == "written elsewhere\n"


@both_writers
def test_work_that_raises_keeps_its_error_when_the_removal_fails(tmp_path, monkeypatch, writer):
    def refusing_remove(target):
        raise PermissionError(target)

    monkeypatch.setattr(cli, writer.work, _failing_run)
    monkeypatch.setattr(cli.os, "remove", refusing_remove)
    out = tmp_path / "out.jsonl"
    with pytest.raises(RuntimeError, match="run failed"):
        main(writer.argv(tmp_path, out))
    assert out.read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "writer, large",
    [(RUN, False), (RUN, True), (SWEEP, False)],
    ids=["at-close", "inside-run", "sweep"],
)
def test_run_to_a_full_device_fails_cleanly(tmp_path, capsys, monkeypatch, writer, large):
    raised = []
    real_work = getattr(cli, writer.work)

    def watched_work(*args, **kwargs):
        try:
            return real_work(*args, **kwargs)
        except OSError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(cli, writer.work, watched_work)
    assert main(writer.argv(tmp_path, "/dev/full", large)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write {writer.what} to /dev/full: [Errno 28]")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    # Only run writes while it works; a sweep writes its records after its runs.
    assert bool(raised) == (writer is RUN and large)


# -- check subcommand ---------------------------------------------------------


def test_check_ignores_GATHERSIM_EPS(capsys, monkeypatch):
    monkeypatch.delenv("GATHERSIM_EPS", raising=False)
    plain = main(["check", "--suite", "all"]), capsys.readouterr()
    monkeypatch.setenv("GATHERSIM_EPS", "0.5")
    with_env = main(["check", "--suite", "all"]), capsys.readouterr()
    assert plain[0] == 0
    assert with_env == plain



def test_check_lemmas_suite(capsys):
    assert main(["check", "--suite", "lemmas"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("PASS ") for l in lines)
    assert any("monitored_sweep_n3_synchronous" in l for l in lines)


def test_check_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--suite", "vibes"])
    assert excinfo.value.code == 2


# -- demo-even subcommand -----------------------------------------------------


def test_demo_even_reports_livelock(capsys):
    assert main(["demo-even", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "status: fixed_point after 1 steps" in out
    assert "final occupancy: (0, 0) x2, (1, 0) x2" in out  # two camps of n/2
    assert "monitor findings: 0" in out


def test_demo_even_rejects_odd_n():
    with pytest.raises(SystemExit) as excinfo:
        main(["demo-even", "--n", "3"])
    assert excinfo.value.code == 2


def test_demo_even_has_no_step_budget():
    with pytest.raises(SystemExit) as excinfo:
        main(["demo-even", "--n", "4", "--steps", "5"])
    assert excinfo.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["conquer"])
    assert excinfo.value.code == 2


# -- the module run as a program ------------------------------------------------


def _program(argv, **kwargs):
    """Run ``python -m gathersim.cli`` on the package these tests import."""
    env = dict(os.environ, PYTHONPATH=str(Path(gathersim.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "gathersim.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, **kwargs,
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (lambda tmp_path: ["demo-even", "--n", "4"], 0),
        (lambda tmp_path: RUN.argv(tmp_path, tmp_path / "no" / "dir" / "t.jsonl"), 1),
        (lambda tmp_path: SWEEP.argv(tmp_path, tmp_path / "no" / "dir" / "r.jsonl"), 1),
        (lambda tmp_path: ["run", "--config", _write(tmp_path, _gathered_config(eps=1e-9))], 2),
    ],
    ids=["demo-even", "unwritable-trace", "unwritable-out", "rejected-config"],
)
def test_program_exit_status_is_mains_result(tmp_path, argv, code):
    result = _program(argv(tmp_path))
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.skipif(resource is None, reason="needs setrlimit")
@both_writers
def test_a_write_that_fails_during_the_work_leaves_no_empty_file(tmp_path, writer):
    def no_file_may_grow():
        resource.setrlimit(resource.RLIMIT_FSIZE, (0, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    out = tmp_path / "out.jsonl"
    result = _program(writer.argv(tmp_path, out, large=True), preexec_fn=no_file_may_grow)
    assert result.returncode == 1
    assert result.stderr.startswith(f"cannot write {writer.what} to {out}: [Errno 27]")
    assert not out.exists()
