"""Gathering simulator for anonymous oblivious robots in the plane.

The package splits into a geometry kernel (circles, hulls, sectors), a model
of what robots can observe, the decision rule itself, a semi-synchronous
execution engine, and verification tooling (oracles, monitors, sweeps).
"""

from .geometry import (
    Circle,
    Point,
    convex_hull,
    smallest_enclosing_circle,
)
from .model import Configuration, Frame, normalize, observe
from .protocol import Action, compute_action
from .simulator import Robot, RunOutcome, SchedulerSpec, Snapshot, run, step
from .analysis import attach_lemma_monitors, even_livelock_demo, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Circle",
    "Configuration",
    "Frame",
    "Point",
    "Robot",
    "RunOutcome",
    "SchedulerSpec",
    "Snapshot",
    "attach_lemma_monitors",
    "compute_action",
    "convex_hull",
    "even_livelock_demo",
    "normalize",
    "observe",
    "run",
    "run_sweep",
    "smallest_enclosing_circle",
    "step",
    "__version__",
]
