"""Front-end tests: config parsing, subcommands, exit codes, determinism.

main() is exercised in-process with argv lists; file traffic goes through
tmp_path.  Every rejected config must name the offending field, so these
tests grep the diagnostics, not just the exit codes.
"""

import json
import os
import stat

import pytest

from gathersim import cli
from gathersim.cli import (
    ConfigError,
    RunConfig,
    default_eps,
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


def test_parse_defaults(monkeypatch):
    monkeypatch.delenv("GATHERSIM_EPS", raising=False)
    config = parse_config({"robots": [{"x": 0.0, "y": 0.0, "sigma": 1.0}]})
    assert config.scheduler == SchedulerSpec("synchronous", 0, None)
    assert config.eps == 1e-9
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
        eps=1e-8,
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


# -- eps override -------------------------------------------------------------


def test_default_eps_env(monkeypatch):
    monkeypatch.delenv("GATHERSIM_EPS", raising=False)
    assert default_eps() == 1e-9
    monkeypatch.setenv("GATHERSIM_EPS", "1e-6")
    assert default_eps() == 1e-6
    monkeypatch.setenv("GATHERSIM_EPS", "three")
    with pytest.raises(ConfigError, match="GATHERSIM_EPS"):
        default_eps()
    monkeypatch.setenv("GATHERSIM_EPS", "-1")
    with pytest.raises(ConfigError, match="GATHERSIM_EPS"):
        default_eps()


def test_config_eps_beats_env(monkeypatch):
    monkeypatch.setenv("GATHERSIM_EPS", "1e-6")
    assert parse_config(_gathered_config()).eps == 1e-6
    assert parse_config(_gathered_config(eps=1e-12)).eps == 1e-12


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


def test_run_that_raises_leaves_no_trace_file(tmp_path):
    # Coordinates near the largest float overflow the rule's geometry into a non-finite target.
    cfg = _gathered_config(robots=[
        {"x": 1e308, "y": 0.0, "sigma": 1.0},
        {"x": -1e308, "y": 0.0, "sigma": 1.0},
        {"x": 0.0, "y": 1e308, "sigma": 1.0},
    ])
    path = _write(tmp_path, cfg)
    trace = tmp_path / "huge.jsonl"
    with pytest.raises(ValueError, match="action target must be finite"):
        main(["run", "--config", path, "--trace", str(trace)])
    assert not trace.exists()


def _failing_run(*args, **kwargs):
    raise RuntimeError("run failed")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_run_that_raises_keeps_a_trace_path_that_is_no_regular_file(tmp_path, monkeypatch):
    # A named pipe stands in for any device or pipe given as --trace, /dev/null among them.
    monkeypatch.setattr(cli, "run", _failing_run)
    path = _write(tmp_path, _line_config())
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        with pytest.raises(RuntimeError, match="run failed"):
            main(["run", "--config", path, "--trace", str(pipe)])
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


def test_run_that_raises_keeps_a_trace_file_that_is_no_longer_empty(tmp_path, monkeypatch):
    def writing_run(*args, **kwargs):
        trace.write_text("written elsewhere\n", encoding="utf-8")
        raise RuntimeError("run failed")

    monkeypatch.setattr(cli, "run", writing_run)
    path = _write(tmp_path, _line_config())
    trace = tmp_path / "t.jsonl"
    with pytest.raises(RuntimeError, match="run failed"):
        main(["run", "--config", path, "--trace", str(trace)])
    assert trace.read_text(encoding="utf-8") == "written elsewhere\n"


def test_run_that_raises_keeps_its_error_when_the_removal_fails(tmp_path, monkeypatch):
    def refusing_remove(target):
        raise PermissionError(target)

    monkeypatch.setattr(cli, "run", _failing_run)
    monkeypatch.setattr(cli.os, "remove", refusing_remove)
    path = _write(tmp_path, _line_config())
    trace = tmp_path / "t.jsonl"
    with pytest.raises(RuntimeError, match="run failed"):
        main(["run", "--config", path, "--trace", str(trace)])
    assert trace.read_bytes() == b""


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


# -- check subcommand ---------------------------------------------------------


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
    assert main(["demo-even", "--n", "4", "--steps", "60"]) == 0
    out = capsys.readouterr().out
    assert "status: step_limit_reached after 60 steps" in out
    assert "two occupied points at every step: yes" in out
    assert "x2" in out  # both camps keep their multiplicity


def test_demo_even_rejects_odd_n():
    with pytest.raises(SystemExit) as excinfo:
        main(["demo-even", "--n", "3", "--steps", "10"])
    assert excinfo.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["conquer"])
    assert excinfo.value.code == 2
