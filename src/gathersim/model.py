"""Configurations and robot-centred frames.

A configuration is the multiset of occupied points, with exact counts
(strong multiplicity detection).  A robot's frame is centred on the robot
and has its own orientation, unit and handedness (Frame); robots share none
of them.  ego_images is the one map into a frame, and observe builds a whole
view on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence

from .geometry import EPS, Circle, Pair, Point, PointGrid, smallest_enclosing_circle

if TYPE_CHECKING:
    from .protocol import Action
    from .simulator import Robot


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
    successor built from robot positions also carries their ``clustering``.

    It keeps what is computed from it: the ``maxima`` and the enclosing
    circle ``sec``, each on first use, and ``stays``, which maps a robot
    index to the ``Robot`` that stayed on it and its stay, a vetoed careful
    move included; a decision reads only the configuration and that robot.
    None of these takes part in ``==`` or ``repr``.
    """

    occupied: dict[Point, int]
    clustering: Optional[Clustering] = field(default=None, compare=False, repr=False)
    # Built with the configuration: before Python 3.12 a cached_property's
    # first read takes a lock, which costs more than the dict, every step.
    stays: dict[int, tuple[Robot, Action]] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.occupied:
            raise ValueError("configuration must occupy at least one point")
        for p, count in self.occupied.items():
            if count < 1:
                raise ValueError(f"multiplicity at {p} must be >= 1, got {count}")

    @cached_property
    def maxima(self) -> list[Point]:
        return max_points(self.occupied)

    @cached_property
    def sec(self) -> Circle:
        return smallest_enclosing_circle(self.occupied)

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
    """A robot's similarity frame, centred on the robot.

    local = scale * R(rotation) * M * (global - pos) in exact arithmetic,
    where M mirrors the y axis when ``reflected`` is set and pos is the
    robot's own position: a robot has no origin of its own, only an
    orientation, a unit and a handedness (ego_images maps into it).
    Inverses exist because scale must be positive.
    """

    rotation: float = 0.0
    scale: float = 1.0
    reflected: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.rotation):
            raise ValueError("frame rotation must be finite")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("frame scale must be positive and finite")


def _preimage(frame: Frame, c: float, s: float, tx: float, ty: float, p: Point) -> Point:
    """The inverse of ego_images's map with the same arguments, on one point."""
    x = (p.x - tx) / frame.scale
    y = (p.y - ty) / frame.scale
    gx = c * x + s * y
    gy = -s * x + c * y
    if frame.reflected:
        gy = -gy
    return Point(gx, gy)


def ego_images(frame: Frame, pos: Point, points: Iterable[Point]) -> tuple[list[Pair], partial[Point]]:
    """The images of points in the frame of a robot at pos, as Pairs, and to_global, the map back.

    Each point p maps to scale * R * M * p - scale * R * M * pos, so pos
    itself maps to exactly (0.0, 0.0), bit for bit: a robot recognises its
    own position without a tolerance.  Cosine and sine are computed once.
    """
    c, s = math.cos(frame.rotation), math.sin(frame.rotation)
    # Multiplying by m = -1.0 negates exactly.
    scale, m = frame.scale, -1.0 if frame.reflected else 1.0
    tx, ty = -(scale * (c * pos.x - s * (m * pos.y))), -(scale * (s * pos.x + c * (m * pos.y)))
    images = [(scale * (c * x - s * (m * y)) + tx, scale * (s * x + c * (m * y)) + ty) for x, y in points]
    return images, partial(_preimage, frame, c, s, tx, ty)


def observe(config: Configuration, frame: Frame, pos: Point) -> Configuration:
    """A robot's view of a configuration: ego_images of its occupied points, counts kept.

    Two occupied points whose images round to one local point become one
    point holding both counts, so the view keeps every robot.
    """
    occupied = config.occupied
    local: dict[Pair, int] = {}
    for q, count in zip(ego_images(frame, pos, occupied)[0], occupied.values()):
        local[q] = local.get(q, 0) + count
    return Configuration({Point(*q): count for q, count in local.items()})


def max_points(occupied: dict[Point, int]) -> list[Point]:
    """Points of maximal multiplicity, in lexicographic order."""
    if not occupied:
        raise ValueError("max_points needs a non-empty occupancy map")
    top = max(occupied.values())
    return sorted(p for p, count in occupied.items() if count == top)


def random_frame(rng: random.Random) -> Frame:
    """Draw a frame with random orientation, unit and handedness.

    Two draws of an origin that frames no longer have are made and dropped,
    so every seeded stream stays as it was.
    """
    rotation, scale = rng.uniform(0.0, math.tau), rng.uniform(0.5, 2.0)
    rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    return Frame(rotation, scale, rng.random() < 0.5)


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
