"""Configurations and local coordinate frames.

A configuration is the multiset of occupied points; a robot's view is the
same configuration after its own similarity transform, with exact counts
(strong multiplicity detection).  Robots never share an origin, unit or
handedness, so every observation goes through a Frame.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .geometry import EPS, Point, PointGrid


class Clustering(NamedTuple):
    """How normalize grouped robot positions, kept to derive the next configuration.

    ``grid`` indexes every key normalize created by its creation rank, and
    ``keys`` maps a rank back to its key.  A key that a later ``successor``
    drops stays in both, so a lookup keeps only the keys still occupied.
    ``creators`` maps each occupied key to the index of the robot that
    created it: the lowest-index robot standing exactly on that point.
    """

    grid: PointGrid
    keys: list[Point]
    creators: dict[Point, int]


@dataclass
class Configuration:
    """Occupied points with exact multiplicities.

    The dict preserves insertion order, which normalize() makes deterministic
    (first-encounter representative per cluster), so iteration order is stable
    across runs with identical input.  A configuration that normalize or
    successor built from robot positions also carries their ``clustering``;
    it takes no part in ``==`` or ``repr``.
    """

    occupied: dict[Point, int]
    clustering: Optional[Clustering] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.occupied:
            raise ValueError("configuration must occupy at least one point")
        for p, count in self.occupied.items():
            if count < 1:
                raise ValueError(f"multiplicity at {p} must be >= 1, got {count}")

    def is_gathered(self) -> bool:
        return len(self.occupied) == 1

    def key_near(self, p: Point) -> Optional[Point]:
        """The first occupied point within eps of p, in dict order, or None.

        Only a configuration that carries its clustering can answer: the
        query goes through its neighbour index.
        """
        assert self.clustering is not None, "key_near needs a normalized configuration"
        keys, occupied = self.clustering.keys, self.occupied
        # Creation rank is dict order, and a dropped key is no longer occupied.
        live = [rank for rank in self.clustering.grid.within(p) if keys[rank] in occupied]
        return keys[min(live)] if live else None


@dataclass(frozen=True)
class Frame:
    """Similarity transform from global to local coordinates.

    local = scale * R(rotation) * M * global + translation, where M mirrors
    the y axis when ``reflected`` is set.  Inverses exist because scale must
    be positive.  A robot's own translation changes no decision: a robot
    observes through ``ego_frame``, which replaces it, so the config keys
    ``tx`` and ``ty`` are accepted and have no effect.
    """

    rotation: float = 0.0
    scale: float = 1.0
    translation: tuple[float, float] = (0.0, 0.0)
    reflected: bool = False

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("frame scale must be positive and finite")


def _cos_sin(frame: Frame) -> tuple[float, float]:
    return math.cos(frame.rotation), math.sin(frame.rotation)


def _linear_part(frame: Frame, c: float, s: float, x: float, y: float) -> tuple[float, float]:
    """scale * R * M applied to (x, y), given c, s = _cos_sin(frame)."""
    if frame.reflected:
        y = -y
    return frame.scale * (c * x - s * y), frame.scale * (s * x + c * y)


def to_local(frame: Frame, p: Point) -> Point:
    return _images(frame, *_cos_sin(frame), *frame.translation, (p,))[0]


def to_global(frame: Frame, p: Point) -> Point:
    """Inverse of to_local; to_global(f, to_local(f, p)) == p up to rounding."""
    return _preimage(frame, *_cos_sin(frame), *frame.translation, p)


def _preimage(frame: Frame, c: float, s: float, tx: float, ty: float, p: Point) -> Point:
    """The inverse of _images's map with the same arguments, on one point."""
    x = (p.x - tx) / frame.scale
    y = (p.y - ty) / frame.scale
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
    whole view.  Two occupied points that round to one local point become
    one point holding both counts, so the view keeps every robot.
    """
    occupied = config.occupied
    local: dict[Point, int] = {}
    for q, count in zip(_images(frame, *_cos_sin(frame), *frame.translation, occupied), occupied.values()):
        local[q] = local.get(q, 0) + count
    return Configuration(local)


def _images(frame: Frame, c: float, s: float, tx: float, ty: float, points: Iterable[Point]) -> list[Point]:
    """scale * R * M, then + (tx, ty), on each point, given c, s = _cos_sin(frame)."""
    # Multiplying by m = -1.0 negates exactly, as _linear_part's mirror does.
    scale, m = frame.scale, -1.0 if frame.reflected else 1.0
    return [Point(scale * (c * x - s * (m * y)) + tx, scale * (s * x + c * (m * y)) + ty) for x, y in points]


def ego_images(frame: Frame, pos: Point, points: Iterable[Point]) -> tuple[list[Point], partial[Point]]:
    """What observe makes of points under ego_frame(frame, pos), merging aside, and to_global
    under it: the same operations, with no Frame built and cosine and sine computed once."""
    c, s = _cos_sin(frame)
    lx, ly = _linear_part(frame, c, s, pos.x, pos.y)
    return _images(frame, c, s, -lx, -ly, points), partial(_preimage, frame, c, s, -lx, -ly)


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
    The result carries its Clustering.  A non-finite coordinate raises
    ValueError.
    """
    # Points pass through as they are: building a Point costs more than the
    # rest of the loop does per position.
    points = [raw if type(raw) is Point else Point(raw[0], raw[1]) for raw in raw_positions]
    grid = PointGrid(points, EPS)
    occupied: dict[Point, int] = {}
    reps: list[Point] = []
    creators: dict[Point, int] = {}
    for i, p in enumerate(points):
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
            creators[p] = i
    return Configuration(occupied, Clustering(grid, reps, creators))


def successor(config: Configuration, positions: Sequence[Point], moved: Mapping[int, Point]) -> Configuration:
    """normalize(positions), derived from the configuration before a move.

    ``config`` is normalize of the positions before, or derived from it by
    earlier calls.  ``moved`` maps, in ascending index order, every robot
    whose position changed in any bit to where it stood; it may hold robots
    that did not move.  Bits matter because a key is its creator's point: a
    creator that went from -0.0 to 0.0 still equals its old point, but
    normalize would key on the new one.

    Beyond copying the counts, the work is in the number of movers whenever
    the move keeps every key and its creation order: a key loses only
    robots, or all of them with its creator, and each mover lands exactly on
    a key whose creator stayed and has a lower index than the mover.
    normalize, walking the positions in index order, then makes the same
    keys in the same order.  Any other move calls normalize.
    """
    clustering = config.clustering
    assert clustering is not None, "successor needs a normalized configuration"
    grid, keys, creators = clustering
    occupied = dict(config.occupied)
    vacated = []
    for i, old in moved.items():
        # A robot standing exactly on a key belongs to it.  Any other has not
        # moved since normalize built the grid, for movers here land on keys,
        # so the earliest key within eps of it is still the one it joined.
        key = old if old in occupied else keys[min(grid.within(old))]
        occupied[key] -= 1
        if creators[key] == i:
            vacated.append(key)
    for i in moved:
        new = positions[i]
        if new in occupied and creators[new] < i:
            occupied[new] += 1
        else:
            return normalize(positions)
    if vacated:
        creators = dict(creators)
        for key in vacated:
            if occupied[key]:
                return normalize(positions)
            del occupied[key], creators[key]
    return Configuration(occupied, Clustering(grid, keys, creators))
