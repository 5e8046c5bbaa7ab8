"""What the tests of forked work share beside the forks fixture: patched CPU counts and a check for children left behind."""

import os

import pytest


def usable(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
