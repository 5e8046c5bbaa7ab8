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
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .geometry import EPS, Circle, Pair, Point, PointGrid, on_circle, smallest_enclosing_circle

if TYPE_CHECKING:
    from .protocol import Action
    from .simulator import Robot


class Rim(dict):
    """Whether a point lies on ``circle``, tested on its first lookup.

    on_circle is blind to the sign of a zero, as ``Point`` equality is.
    ``circle`` is set after construction: a dict subclass without its own
    ``__init__`` is built at C speed, and one is built per configuration.
    """

    __slots__ = ("circle",)
    circle: Circle

    def __missing__(self, p: Point) -> bool:
        on = self[p] = on_circle(p, self.circle)
        return on


class Clustering(NamedTuple):
    """How normalize grouped robot positions, kept to derive the next configuration.

    ``grid`` indexes every key normalize or successor created, each as its
    own index; ``creators`` maps each occupied key to the index of the robot
    that created it, the lowest-index robot standing exactly on that point.
    A key is live while it is in ``creators``, and keys rank by creator,
    which is dict order.  A key that a later ``successor`` drops stays in
    the grid, which configurations derived from one another share, so a
    lookup keeps only the live keys.  No two entries are equal but for the
    sign of a zero, so a live entry has its key's bits.
    """

    grid: PointGrid
    creators: dict[Point, int]


@dataclass
class Configuration:
    """Occupied points with exact multiplicities.

    The dict preserves insertion order, which normalize() makes deterministic
    (first-encounter representative per cluster), so iteration order is stable
    across runs with identical input.  A configuration that normalize or
    successor built from robot positions also carries their ``clustering``.

    It keeps what is computed from it: the ``maxima``, the enclosing circle
    ``sec`` and its ``rim``, each on first use, and ``decided``, the actions
    decided on it, a vetoed careful move kept as the stay it became.  Under
    one or two maxima ``decided`` maps a robot's point to its action, moves
    included, unless the action read the robot's frame; under three or more
    it maps a robot index to the ``Robot`` that stayed and its stay
    (simulator.step).
    None of these takes part in ``==`` or ``repr``.
    """

    occupied: dict[Point, int]
    clustering: Optional[Clustering] = field(default=None, compare=False, repr=False)
    # Built with the configuration: before Python 3.12 a cached_property's
    # first read takes a lock, which costs more than the dict, every step.
    decided: dict[Union[Point, int], Union[Action, tuple[Robot, Action]]] = field(default_factory=dict, init=False, compare=False, repr=False)

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

    @cached_property
    def rim(self) -> Rim:
        rim = Rim()
        rim.circle = self.sec
        return rim

    def is_gathered(self) -> bool:
        return len(self.occupied) == 1

    def key_near(self, p: Point) -> Optional[Point]:
        """The first occupied point within eps of p, in dict order, or None.

        Only a configuration that carries its clustering can answer: the
        query goes through its neighbour index.
        """
        assert self.clustering is not None, "key_near needs a normalized configuration"
        grid, creators = self.clustering
        # Dict order is creator order, and a dropped key is no longer in creators.
        live = [key for key in grid.within(p) if key in creators]
        return min(live, key=creators.__getitem__) if live else None


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
    creators: dict[Point, int] = {}
    for i, p in enumerate(points):
        # Representatives are pairwise more than eps apart, so one equal to p
        # is the only one within eps of it.
        if p in occupied:
            occupied[p] += 1
            continue
        near = grid.within(p)
        if near:
            occupied[min(near, key=creators.__getitem__)] += 1
        else:
            grid.add(p, p)
            occupied[p] = 1
            creators[p] = i
    return Configuration(occupied, Clustering(grid, creators))


def successor(config: Configuration, positions: Sequence[Point], moved: Mapping[int, Point]) -> Configuration:
    """normalize(positions), derived from the configuration before a move.

    ``config`` is normalize of the positions before, or derived from it by
    earlier calls.  ``moved`` maps, in ascending index order, every robot
    whose position changed in any bit to where it stood; it may hold robots
    that did not move.  Bits matter because a key is its creator's point.

    normalize walks the positions in index order, and each joins the live
    key within eps with the lowest creator, else creates one.  In a result
    of normalize each robot's key is that key among all live ones, for a
    key created later is created by a higher index.  Removing the movers
    first keeps every other robot's key, for a key whose creator stays is
    still the first within eps of it, unless a mover created a key that
    others stay on: that falls back to normalize.  The movers then land in
    index order, each on normalize of the robots placed so far:
    * On a key q with a lower creator, mover i joins it: q is the only key
      within eps of it, and normalize gives it q with nothing else changed.
    * Anywhere else it creates its point q with creator i, a new key or a
      key whose creator has a higher index, once no other live key lies in
      the 3x3 ``block`` around q.  Every robot r within eps of q then has
      its key within 2 eps of q, and the block holds every such key
      (PointGrid), so q is r's own key: i's key changes no other robot's,
      and robots of a re-ranked q, its creator included, stay on it.  The
      key and its entry have q's bits, as in normalize, only if no entry
      equal to q differs from it in the sign of a zero (the key re-ranked,
      or a dropped key a lookup would return); equal entries share a cell,
      which the block reads, and q is not indexed twice.  q must also lie
      within the grid's extent, and a new entry is added only while the
      grid holds fewer than 2n, so dropped keys cannot pile up in a cell.
    Any other move calls normalize.  Keys are then reordered by creator.
    """
    clustering = config.clustering
    assert clustering is not None, "successor needs a normalized configuration"
    grid = clustering.grid
    occupied = dict(config.occupied)
    creators = dict(clustering.creators)
    vacated = []
    for i, old in moved.items():
        key = old if old in occupied else config.key_near(old)
        occupied[key] -= 1
        if creators[key] == i:
            vacated.append(key)
    for key in vacated:
        if occupied[key]:
            return normalize(positions)
        del occupied[key], creators[key]
    ranked = True
    for i in moved:
        new = positions[i]
        if creators.get(new, i) < i:  # a key of a lower creator
            occupied[new] += 1
            continue
        if not (abs(new.x) <= grid.largest and abs(new.y) <= grid.largest):
            return normalize(positions)
        indexed = False
        for p, _ in grid.block(new):
            if p != new:
                if p in creators:
                    return normalize(positions)
            elif (new.x == 0.0 or new.y == 0.0) and repr(p) != repr(new):  # the sign of a zero
                return normalize(positions)
            else:
                indexed = True
        if not indexed:
            if len(grid) >= 2 * len(positions):
                return normalize(positions)
            grid.add(new, new)
        occupied[new] = occupied.get(new, 0) + 1
        creators[new] = i
        ranked = False
    if not ranked:
        creators = dict(sorted(creators.items(), key=lambda item: item[1]))
        occupied = {key: occupied[key] for key in creators}
    return Configuration(occupied, Clustering(grid, creators))
