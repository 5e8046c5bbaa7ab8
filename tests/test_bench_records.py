"""The committed benchmark records, ``BENCH_*.json`` at the repository root.

Each perf change commits one, with its before and after numbers.  Every
record must parse, say what it measured and on what, and name only
workloads that ``BENCHMARK.json`` declares.  The test reads the files alone:
no git, so a shallow checkout checks them the same.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = ("topic", "change", "parent_commit", "method", "claim", "machine")


def _workload_names():
    return [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_a_record_says_what_it_measured_on_declared_workloads(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert [field for field in FIELDS if field not in record] == []
    names = _workload_names()
    keys = list(record.get("workloads", {}))
    assert [key for key in keys if not any(key.startswith(name) for name in names)] == []
