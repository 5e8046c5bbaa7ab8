"""Configurations and local coordinate frames.

A configuration is the multiset of occupied points; a robot's view is the
same configuration after its own similarity transform, with exact counts
(strong multiplicity detection).  Robots never share an origin, unit or
handedness, so every observation goes through a Frame.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from .geometry import Point, Tolerance, dist

_DEFAULT_TOL = Tolerance()


@dataclass
class Configuration:
    """Occupied points with exact multiplicities.

    The dict preserves insertion order, which normalize() makes deterministic
    (first-encounter representative per cluster), so iteration order is stable
    across runs with identical input.
    """

    occupied: dict[Point, int]

    def __post_init__(self) -> None:
        if not self.occupied:
            raise ValueError("configuration must occupy at least one point")
        for p, count in self.occupied.items():
            if count < 1:
                raise ValueError(f"multiplicity at {p} must be >= 1, got {count}")

    @property
    def robot_count(self) -> int:
        return sum(self.occupied.values())

    def points(self) -> list[Point]:
        return list(self.occupied)

    def is_gathered(self) -> bool:
        return len(self.occupied) == 1


@dataclass(frozen=True)
class Frame:
    """Similarity transform from global to local coordinates.

    local = scale * R(rotation) * M * global + translation, where M mirrors
    the y axis when ``reflected`` is set.  Inverses exist because scale must
    be positive.
    """

    rotation: float = 0.0
    scale: float = 1.0
    translation: tuple[float, float] = (0.0, 0.0)
    reflected: bool = False

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("frame scale must be positive and finite")


IDENTITY_FRAME = Frame()


def _linear_part(frame: Frame, x: float, y: float) -> tuple[float, float]:
    if frame.reflected:
        y = -y
    c = math.cos(frame.rotation)
    s = math.sin(frame.rotation)
    return frame.scale * (c * x - s * y), frame.scale * (s * x + c * y)


def to_local(frame: Frame, p: Point) -> Point:
    lx, ly = _linear_part(frame, p.x, p.y)
    return Point(lx + frame.translation[0], ly + frame.translation[1])


def to_global(frame: Frame, p: Point) -> Point:
    """Inverse of to_local; to_global(f, to_local(f, p)) == p up to rounding."""
    x = (p.x - frame.translation[0]) / frame.scale
    y = (p.y - frame.translation[1]) / frame.scale
    c = math.cos(frame.rotation)
    s = math.sin(frame.rotation)
    gx = c * x + s * y
    gy = -s * x + c * y
    if frame.reflected:
        gy = -gy
    return Point(gx, gy)


def ego_frame(frame: Frame, pos: Point) -> Frame:
    """Same orientation, scale and handedness, but origin pinned at pos.

    The returned frame maps pos to exactly (0.0, 0.0), bit-for-bit, which is
    what lets a robot recognise "my own position" in its view without any
    tolerance games.
    """
    lx, ly = _linear_part(frame, pos.x, pos.y)
    return Frame(frame.rotation, frame.scale, (-lx, -ly), frame.reflected)


def observe(config: Configuration, frame: Frame) -> Configuration:
    """Project a configuration into a robot's local coordinates, counts kept."""
    return Configuration({to_local(frame, p): count for p, count in config.occupied.items()})


def max_points(occupied: dict[Point, int]) -> list[Point]:
    """Points of maximal multiplicity, in lexicographic order."""
    if not occupied:
        raise ValueError("max_points needs a non-empty occupancy map")
    top = max(occupied.values())
    return sorted(p for p, count in occupied.items() if count == top)


def random_frame(rng: random.Random) -> Frame:
    """Draw a frame with random orientation, unit, handedness and origin."""
    return Frame(
        rotation=rng.uniform(0.0, math.tau),
        scale=rng.uniform(0.5, 2.0),
        translation=(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
        reflected=rng.random() < 0.5,
    )


def normalize(raw_positions: Iterable[Point], tol: Tolerance = _DEFAULT_TOL) -> Configuration:
    """Cluster raw robot positions into a configuration.

    Positions within eps of an already-seen representative join that point;
    the representative is always the first position encountered, so the
    result is deterministic in the input order.
    """
    occupied: dict[Point, int] = {}
    for raw in raw_positions:
        p = Point(raw[0], raw[1])
        for rep in occupied:
            if dist(p, rep) <= tol.eps:
                occupied[rep] += 1
                break
        else:
            occupied[p] = 1
    return Configuration(occupied)
