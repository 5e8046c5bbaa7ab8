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

from .geometry import EPS, Point, PointGrid


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


def _cos_sin(frame: Frame) -> tuple[float, float]:
    return math.cos(frame.rotation), math.sin(frame.rotation)


def _linear_part(frame: Frame, c: float, s: float, x: float, y: float) -> tuple[float, float]:
    """scale * R * M applied to (x, y), given c, s = _cos_sin(frame)."""
    if frame.reflected:
        y = -y
    return frame.scale * (c * x - s * y), frame.scale * (s * x + c * y)


def to_local(frame: Frame, p: Point) -> Point:
    lx, ly = _linear_part(frame, *_cos_sin(frame), p.x, p.y)
    return Point(lx + frame.translation[0], ly + frame.translation[1])


def to_global(frame: Frame, p: Point) -> Point:
    """Inverse of to_local; to_global(f, to_local(f, p)) == p up to rounding."""
    x = (p.x - frame.translation[0]) / frame.scale
    y = (p.y - frame.translation[1]) / frame.scale
    c, s = _cos_sin(frame)
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
    lx, ly = _linear_part(frame, *_cos_sin(frame), pos.x, pos.y)
    return Frame(frame.rotation, frame.scale, (-lx, -ly), frame.reflected)


def observe(config: Configuration, frame: Frame) -> Configuration:
    """Project a configuration into a robot's local coordinates, counts kept.

    Each point maps exactly as to_local maps it, with the same operations in
    the same order; the rotation's cosine and sine are computed once for the
    whole view.
    """
    c, s = _cos_sin(frame)
    scale, reflected = frame.scale, frame.reflected
    tx, ty = frame.translation
    local: dict[Point, int] = {}
    for (x, y), count in config.occupied.items():
        if reflected:
            y = -y
        local[Point(scale * (c * x - s * y) + tx, scale * (s * x + c * y) + ty)] = count
    return Configuration(local)


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


def normalize(raw_positions: Iterable[Point]) -> Configuration:
    """Cluster raw robot positions into a configuration.

    Positions within eps of an already-seen representative join the earliest
    such representative; the representative is always the first position
    encountered, so the result is deterministic in the input order.
    A non-finite coordinate raises ValueError.
    """
    # Points pass through as they are: building a Point costs more than the
    # rest of the loop does per position.
    points = [raw if type(raw) is Point else Point(raw[0], raw[1]) for raw in raw_positions]
    grid = PointGrid(points, EPS)
    occupied: dict[Point, int] = {}
    reps: list[Point] = []
    for p in points:
        # Representatives are pairwise more than eps apart, so one equal to p
        # is the only one within eps of it.
        if p in occupied:
            occupied[p] += 1
            continue
        near = grid.within(p)
        if near:
            occupied[reps[min(near)]] += 1
        else:
            grid.add(p, len(reps))
            reps.append(p)
            occupied[p] = 1
    return Configuration(occupied)
