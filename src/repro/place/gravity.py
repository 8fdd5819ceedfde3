"""Center-of-gravity constructive placement (sections 4.6.5 and 4.6.6).

Box placement inside a partition and partition placement of the whole
design follow the same scheme: place the largest item first, then
repeatedly take the unplaced item most heavily connected to the placed
ones, compute the gravity center of its shared-net terminals and of the
matching terminals already placed, and put the item at the free position
that brings the two centers closest without overlap.

This module implements the scheme generically over :class:`GravityItem`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.geometry import Point, Rect


@dataclass
class GravityItem:
    """An abstract placeable rectangle with connected terminals.

    ``net_points`` maps a net name to the item-local positions of the
    item's terminals on that net; ``weight`` ranks the item for
    first-placement (the paper uses the module count).
    """

    key: str
    width: int
    height: int
    net_points: dict[str, list[Point]] = field(default_factory=dict)
    weight: int = 1

    @property
    def nets(self) -> set[str]:
        return set(self.net_points)


def _shared_centers(
    item: GravityItem,
    placed: dict[str, Point],
    items: dict[str, GravityItem],
) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """(g0, g1): gravity of the candidate's shared-net terminals in local
    coordinates, and of the placed items' terminals on those nets in
    absolute coordinates.  ``None`` when no net is shared."""
    sx0 = sy0 = n0 = 0.0
    sx1 = sy1 = n1 = 0.0
    for net, local_pts in item.net_points.items():
        contributions = []
        for key, pos in placed.items():
            for p in items[key].net_points.get(net, ()):
                contributions.append(Point(pos.x + p.x, pos.y + p.y))
        if not contributions:
            continue
        for p in local_pts:
            sx0 += p.x
            sy0 += p.y
            n0 += 1
        for p in contributions:
            sx1 += p.x
            sy1 += p.y
            n1 += 1
    if n0 == 0 or n1 == 0:
        return None
    return (sx0 / n0, sy0 / n0), (sx1 / n1, sy1 / n1)


def _connection_weight(
    item: GravityItem, placed: dict[str, Point], items: dict[str, GravityItem]
) -> int:
    placed_nets: set[str] = set()
    for key in placed:
        placed_nets |= items[key].nets
    return len(item.nets & placed_nets)


def _nearest_free(c: int, lo: int, hi: int, spans: list[tuple[int, int]]) -> int | None:
    """The coordinate in ``[lo, hi]`` (which holds ``c``) nearest ``c``
    outside every closed interval of ``spans``; ties go to the smaller
    one, ``None`` when there is none."""
    spans.sort()
    a = b = None  # the merged block of intervals being swept
    for lo_s, hi_s in spans:
        if b is not None and lo_s <= b + 1:
            if hi_s > b:
                b = hi_s
        elif b is not None and b >= c:
            break
        else:
            a, b = lo_s, hi_s
    if a is None or not a <= c <= b:
        return c
    below, above = a - 1, b + 1
    if below >= lo and (above > hi or c - below <= above - c):
        return below
    return above if above <= hi else None


def _nearest_free_position(
    ideal: Point, item: GravityItem, placed_rects: list[Rect], spacing: int
) -> Point:
    """Free position nearest to ``ideal``: the nearest point of the first
    Chebyshev ring around it that holds one.

    A placed rect, grown by the item size and ``spacing``, forbids the
    closed box of lower-left positions ``[r.x - w - s + 1, r.x2 + s - 1]
    x [r.y - h - s + 1, r.y2 + s - 1]``.  Each ring is four straight sides,
    and on each side the free coordinate nearest ``ideal`` follows from
    the boxes' intervals crossing it (an interval sweep, O(placed) per
    side).  Ties keep the order of a point-by-point scan of the ring: top
    and bottom rows before the side columns, then smaller dx, top before
    bottom, smaller dy, right before left.
    """
    w, h, s = item.width, item.height, spacing
    boxes = []
    for r in placed_rects:
        bx1, bx2 = r.x - w - s + 1, r.x2 + s - 1
        by1, by2 = r.y - h - s + 1, r.y2 + s - 1
        if bx1 <= bx2 and by1 <= by2:
            boxes.append((bx1, bx2, by1, by2))
    ix, iy = ideal
    if not any(
        bx1 <= ix <= bx2 and by1 <= iy <= by2 for bx1, bx2, by1, by2 in boxes
    ):
        return ideal
    extent = sum(max(r.w, r.h) + max(w, h) + s + 2 for r in placed_rects)
    max_radius = max(extent, 8)
    for radius in range(1, max_radius + 1):
        best: tuple | None = None
        # Rows: key (distance, 0, dx, top first); columns: (distance, 1,
        # dy, right first).
        for side, y in ((0, iy + radius), (1, iy - radius)):
            spans = [(b[0], b[1]) for b in boxes if b[2] <= y <= b[3]]
            x = _nearest_free(ix, ix - radius, ix + radius, spans)
            if x is not None:
                key = ((x - ix) ** 2 + radius * radius, 0, x - ix, side, Point(x, y))
                if best is None or key < best:
                    best = key
        for side, x in ((0, ix + radius), (1, ix - radius)):
            spans = [(b[2], b[3]) for b in boxes if b[0] <= x <= b[1]]
            y = _nearest_free(iy, iy - radius + 1, iy + radius - 1, spans)
            if y is not None:
                key = (radius * radius + (y - iy) ** 2, 1, y - iy, side, Point(x, y))
                if best is None or key < best:
                    best = key
        if best is not None:
            return best[-1]
    raise RuntimeError("gravity placement found no free position")  # pragma: no cover


def place_by_gravity(
    items: list[GravityItem],
    *,
    spacing: int = 0,
    preplaced: dict[str, Point] | None = None,
) -> dict[str, Point]:
    """Place all items; returns absolute lower-left positions.

    ``preplaced`` items keep their given positions and act as the initial
    seed of the placement (PABLO's -g option: the preplaced part forms a
    partition of its own and the rest is placed around it).
    """
    by_key = {item.key: item for item in items}
    placed: dict[str, Point] = dict(preplaced or {})
    for key in placed:
        if key not in by_key:
            raise KeyError(f"preplaced item {key!r} is not among the items")
    remaining = [item for item in items if item.key not in placed]

    if not placed and remaining:
        first = max(remaining, key=lambda i: (i.weight, i.width * i.height, i.key))
        remaining.remove(first)
        placed[first.key] = Point(0, 0)

    while remaining:
        item = max(
            remaining,
            key=lambda i: (_connection_weight(i, placed, by_key), i.weight, i.key),
        )
        remaining.remove(item)
        placed_rects = [
            Rect(pos.x, pos.y, by_key[k].width, by_key[k].height)
            for k, pos in placed.items()
        ]
        centers = _shared_centers(item, placed, by_key)
        if centers is None:
            # Unconnected item: aim right of the current placement.
            bbox = placed_rects[0]
            for r in placed_rects[1:]:
                bbox = bbox.union(r)
            ideal = Point(bbox.x2 + spacing + 1, bbox.y)
        else:
            (g0x, g0y), (g1x, g1y) = centers
            ideal = Point(round(g1x - g0x), round(g1y - g0y))
        placed[item.key] = _nearest_free_position(ideal, item, placed_rects, spacing)
    return placed
