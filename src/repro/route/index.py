"""The incremental routing-plane index.

Both line-expansion engines used to rebuild a flat per-net snapshot of
the whole plane — copying ``blocked | claims`` and re-scanning every
``usage`` point — for *every connection of every net*, making routing
O(nets x plane-size) before a single state was expanded.  This module
replaces that rebuild with a persistent :class:`PlaneIndex` the
:class:`~repro.route.plane.Plane` maintains incrementally on every
mutation (``block_rect``, ``add_claim``, ``release_claims``,
``add_net_path``).

The index keeps *global* aggregates over all nets:

* ``h_block``/``v_block`` — per point, how many nets forbid a wire
  moving horizontally/vertically through it (node points, degenerate
  single-point wires and parallel wire segments all contribute),
* ``cross_h``/``cross_v`` — per point, the total crossover count a
  horizontal/vertical passage would pay over all nets,
* ``occ`` — per point, how many nets use it at all (the ``foreign_any``
  set of the old snapshot, before removing the querying net),
* ``contrib`` — per net, that net's own contribution at every point it
  uses, which is what makes a per-connection view an O(own net) overlay
  ("all minus own net") instead of an O(plane) rebuild,
* per-row/per-column sorted obstacle coordinates, so straight sweeps can
  jump to the next obstacle with a bisect instead of probing point by
  point,
* lazily built per-row/per-column *crossing prefix sums*, so the A*'s
  crossover-aware lower bound can ask "how many crossings would a
  straight run over ``[a..b]`` pay" in O(log row) instead of O(b-a),
* flat per-point *columns* over the plane bounds — ``pass_h``/``pass_v``
  (a wire moving horizontally/vertically may enter: not blocked, not
  claimed, no axis block), ``cross_h_col``/``cross_v_col`` (the crossing
  totals) and ``bend`` (no wire at all) — kept up to date on every
  mutation, so the state engine reads int-indexed bytes instead of
  probing tuple-keyed sets.  A point ``(x, y)`` lives at
  ``((x - x0) << hbits) | (y - y0)``; the bounds are padded by one
  never-passable cell on every side, so a step off the plane lands on a
  ``0`` instead of needing a bounds check.

A :class:`NetView` is the routers' per-connection window: one C-level
slice copy of each column, patched at the net's own points and its
``allow`` exceptions ("all minus own net", O(own net) Python work), plus
the per-line obstacle stop lists, which are the index's cached sorted
lists on every line holding none of the net's exemptions.

Invariants (checked by ``tests/test_route_index.py`` against a
rebuilt-from-scratch reference):

* for every point ``p`` and net ``n``: ``contrib[n][p]`` equals the
  contribution recomputed from ``plane.usage``/``plane.nodes``,
* ``h_block[p] == sum(contrib[n][p].hb)``, holding positive counts only
  (same for ``v_block``/``cross_*``/``occ``),
* every point of ``blocked | claims`` or with a positive axis block
  count appears in its row/column obstacle set, and nothing else does,
* every column entry equals the value recomputed from those aggregates.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterable

from ..core.geometry import Orientation, Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .plane import Plane

_ZERO = (0, 0, 0, 0)


def _prefix_entry(line: "dict[int, int] | tuple"):
    """Sorted coordinates + running prefix sums for one line's crossing
    counts; ``sums[i]`` is the total over ``coords[:i]``."""
    if not line:
        return [], [0]
    coords = sorted(line)
    sums = [0] * (len(coords) + 1)
    total = 0
    for i, c in enumerate(coords):
        total += line[c]
        sums[i + 1] = total
    return coords, sums


class IndexedPointSet(set):
    """A ``set`` of points that notifies the index on every mutation.

    ``Plane.blocked`` is a public field that callers (and tests) mutate
    directly — ``plane.blocked.add(p)`` — so the hook has to live on the
    container itself, not on ``Plane`` methods.
    """

    def __init__(self, index: "PlaneIndex", points: Iterable[Point] = ()) -> None:
        super().__init__()
        self._index = index
        self.update(points)

    def add(self, point) -> None:  # type: ignore[override]
        if point not in self:
            set.add(self, point)
            self._index.blocked_added(point)

    def update(self, *others) -> None:  # type: ignore[override]
        for other in others:
            for point in other:
                self.add(point)

    def __ior__(self, other):  # type: ignore[override]
        self.update(other)
        return self

    def discard(self, point) -> None:  # type: ignore[override]
        if point in self:
            set.discard(self, point)
            self._index.blocked_removed(point)

    def remove(self, point) -> None:  # type: ignore[override]
        if point not in self:
            raise KeyError(point)
        self.discard(point)

    def clear(self) -> None:  # type: ignore[override]
        for point in list(self):
            self.discard(point)


class PlaneIndex:
    """Incremental aggregates of a :class:`Plane`'s obstacle field."""

    __slots__ = (
        "plane",
        "h_block",
        "v_block",
        "cross_h",
        "cross_v",
        "occ",
        "contrib",
        "_rows",
        "_cols",
        "_rows_sorted",
        "_cols_sorted",
        "_cross_by_row",
        "_cross_by_col",
        "_cross_rows",
        "_cross_cols",
        "x1",
        "y1",
        "x2",
        "y2",
        "x0",
        "y0",
        "hbits",
        "pass_h",
        "pass_v",
        "cross_h_col",
        "cross_v_col",
        "bend",
    )

    def __init__(self, plane: "Plane") -> None:
        self.plane = plane
        # point -> number of nets blocking horizontal/vertical entry
        self.h_block: dict[Point, int] = {}
        self.v_block: dict[Point, int] = {}
        # point -> total crossings for horizontal/vertical passage
        self.cross_h: dict[Point, int] = {}
        self.cross_v: dict[Point, int] = {}
        # point -> number of nets using it (any orientation)
        self.occ: dict[Point, int] = {}
        # net -> point -> (h_block, v_block, cross_h, cross_v) contribution
        self.contrib: dict[str, dict[Point, tuple[int, int, int, int]]] = {}
        # y -> xs blocking horizontal movement / x -> ys blocking vertical
        # movement (hard points block both axes; wire blocks one each).
        self._rows: dict[int, set[int]] = {}
        self._cols: dict[int, set[int]] = {}
        self._rows_sorted: dict[int, list[int]] = {}
        self._cols_sorted: dict[int, list[int]] = {}
        # Eager per-line crossing counts (y -> x -> cross_h, x -> y ->
        # cross_v) plus lazily sorted (coords, prefix sums) caches the
        # range queries bisect; a cache entry drops whenever a crossing
        # count on its line changes.
        self._cross_by_row: dict[int, dict[int, int]] = {}
        self._cross_by_col: dict[int, dict[int, int]] = {}
        self._cross_rows: dict[int, tuple[list[int], list[int]]] = {}
        self._cross_cols: dict[int, tuple[list[int], list[int]]] = {}
        # Flat columns over the bounds plus a one-cell pad (module doc).
        bounds = plane.bounds
        self.x1, self.y1, self.x2, self.y2 = bounds.x, bounds.y, bounds.x2, bounds.y2
        self.x0, self.y0 = self.x1 - 1, self.y1 - 1
        width = self.x2 - self.x0 + 2
        height = self.y2 - self.y0 + 2
        self.hbits = hbits = (height - 1).bit_length()
        size = width << hbits
        free = bytearray(size)
        inner = b"\x01" * (height - 2)
        for xi in range(1, width - 1):
            base = xi << hbits
            free[base + 1 : base + height - 1] = inner
        self.pass_h = free
        self.pass_v = bytearray(free)
        self.bend = bytearray(free)
        self.cross_h_col = array("i", bytes(4 * size))
        self.cross_v_col = array("i", bytes(4 * size))

    def at(self, x: int, y: int) -> int | None:
        """Flat column index of ``(x, y)``, or ``None`` off the plane."""
        if self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2:
            return ((x - self.x0) << self.hbits) | (y - self.y0)
        return None

    def point_at(self, i: int) -> Point:
        """Inverse of :meth:`at`."""
        return Point((i >> self.hbits) + self.x0, (i & ((1 << self.hbits) - 1)) + self.y0)

    # -- plane mutation hooks -------------------------------------------

    def blocked_added(self, p: Point) -> None:
        self._static_add(p)

    def blocked_removed(self, p: Point) -> None:
        self._static_remove(p)

    def claim_added(self, p: Point) -> None:
        self._static_add(p)

    def claim_removed(self, p: Point) -> None:
        self._static_remove(p)

    def net_path_added(self, net: str, points: Iterable[Point]) -> None:
        """Refresh ``net``'s contribution at every covered point of a
        newly registered path (orientations may have grown, vertices may
        have become nodes)."""
        plane = self.plane
        usage = plane.usage
        nodes = plane.nodes.get(net, ())
        horizontal = Orientation.HORIZONTAL
        vertical = Orientation.VERTICAL
        cmap = self.contrib.setdefault(net, {})
        for p in points:
            oris = usage[p][net]
            if p in nodes or not oris:
                new = (1, 1, 0, 0)
            else:
                hb = 1 if horizontal in oris else 0
                vb = 1 if vertical in oris else 0
                new = (hb, vb, vb, hb)
            self._apply(net, cmap, p, new)

    def rebuild(self) -> None:
        """Ingest a pre-populated plane (dataclass construction with
        existing claims/usage; ``blocked`` notifies through its own
        container)."""
        for p in self.plane.claims:
            self.claim_added(p)
        per_net: dict[str, set[Point]] = {}
        for p, nets in self.plane.usage.items():
            for net in nets:
                per_net.setdefault(net, set()).add(p)
        for net, points in per_net.items():
            self.net_path_added(net, points)

    # -- internals ------------------------------------------------------

    def _apply(
        self,
        net: str,
        cmap: dict[Point, tuple[int, int, int, int]],
        p: Point,
        new: tuple[int, int, int, int],
    ) -> None:
        old = cmap.get(p)
        if old == new:
            return
        if old is None:
            old = _ZERO
            n = self.occ.get(p, 0) + 1
            self.occ[p] = n
            if n == 1:
                i = self.at(p.x, p.y)
                if i is not None:
                    self.bend[i] = 0
        cmap[p] = new
        dhb = new[0] - old[0]
        if dhb:
            self._block_change(self.h_block, p, dhb, self._row_add, self._row_maybe_remove)
        dvb = new[1] - old[1]
        if dvb:
            self._block_change(self.v_block, p, dvb, self._col_add, self._col_maybe_remove)
        dch = new[2] - old[2]
        if dch:
            self._cross_h_change(p, dch)
        dcv = new[3] - old[3]
        if dcv:
            self._cross_v_change(p, dcv)

    def _block_change(
        self, counts: dict[Point, int], p: Point, delta: int, add, drop
    ) -> None:
        """Move one axis block count; a 0 <-> positive transition updates
        the point's row/column obstacle entry and its pass columns."""
        n = counts.get(p, 0) + delta
        if n:
            counts[p] = n
            if n != delta:
                return  # was already positive
            add(p)
        else:
            del counts[p]
            drop(p)
        self._refresh_pass(p)

    def _refresh_pass(self, p: Point) -> None:
        i = self.at(p.x, p.y)
        if i is None:
            return
        hard = p in self.plane.blocked or p in self.plane.claims
        self.pass_h[i] = not hard and p not in self.h_block
        self.pass_v[i] = not hard and p not in self.v_block

    def _cross_h_change(self, p: Point, delta: int) -> None:
        n = self.cross_h.get(p, 0) + delta
        row = self._cross_by_row.setdefault(p.y, {})
        if n:
            self.cross_h[p] = n
            row[p.x] = n
        else:
            del self.cross_h[p]
            del row[p.x]
            if not row:
                del self._cross_by_row[p.y]
        self._cross_rows.pop(p.y, None)
        i = self.at(p.x, p.y)
        if i is not None:
            self.cross_h_col[i] = n

    def _cross_v_change(self, p: Point, delta: int) -> None:
        n = self.cross_v.get(p, 0) + delta
        col = self._cross_by_col.setdefault(p.x, {})
        if n:
            self.cross_v[p] = n
            col[p.y] = n
        else:
            del self.cross_v[p]
            del col[p.y]
            if not col:
                del self._cross_by_col[p.x]
        self._cross_cols.pop(p.x, None)
        i = self.at(p.x, p.y)
        if i is not None:
            self.cross_v_col[i] = n

    def _static_add(self, p: Point) -> None:
        """A blocked/claimed point obstructs movement on both axes."""
        self._row_add(p)
        self._col_add(p)
        i = self.at(p.x, p.y)
        if i is not None:
            self.pass_h[i] = self.pass_v[i] = 0

    def _static_remove(self, p: Point) -> None:
        self._row_maybe_remove(p)
        self._col_maybe_remove(p)
        self._refresh_pass(p)

    def _row_add(self, p: Point) -> None:
        row = self._rows.get(p.y)
        if row is None:
            row = self._rows[p.y] = set()
        if p.x not in row:
            row.add(p.x)
            self._rows_sorted.pop(p.y, None)

    def _col_add(self, p: Point) -> None:
        col = self._cols.get(p.x)
        if col is None:
            col = self._cols[p.x] = set()
        if p.y not in col:
            col.add(p.y)
            self._cols_sorted.pop(p.x, None)

    def _row_maybe_remove(self, p: Point) -> None:
        """Drop ``p`` from its row unless another source still blocks
        horizontal movement there."""
        if p in self.plane.blocked or p in self.plane.claims or p in self.h_block:
            return
        row = self._rows.get(p.y)
        if row and p.x in row:
            row.discard(p.x)
            if not row:
                del self._rows[p.y]
            self._rows_sorted.pop(p.y, None)

    def _col_maybe_remove(self, p: Point) -> None:
        if p in self.plane.blocked or p in self.plane.claims or p in self.v_block:
            return
        col = self._cols.get(p.x)
        if col and p.y in col:
            col.discard(p.y)
            if not col:
                del self._cols[p.x]
            self._cols_sorted.pop(p.x, None)

    def sorted_row(self, y: int) -> list[int]:
        """Sorted x coordinates obstructing horizontal movement on row y."""
        lst = self._rows_sorted.get(y)
        if lst is None:
            lst = self._rows_sorted[y] = sorted(self._rows.get(y, ()))
        return lst

    def sorted_col(self, x: int) -> list[int]:
        """Sorted y coordinates obstructing vertical movement on column x."""
        lst = self._cols_sorted.get(x)
        if lst is None:
            lst = self._cols_sorted[x] = sorted(self._cols.get(x, ()))
        return lst

    # -- crossing range sums (the A*'s crossover-aware bound) -----------

    def _cross_row(self, y: int) -> tuple[list[int], list[int]]:
        entry = self._cross_rows.get(y)
        if entry is None:
            entry = self._cross_rows[y] = _prefix_entry(
                self._cross_by_row.get(y, ())
            )
        return entry

    def _cross_col(self, x: int) -> tuple[list[int], list[int]]:
        entry = self._cross_cols.get(x)
        if entry is None:
            entry = self._cross_cols[x] = _prefix_entry(
                self._cross_by_col.get(x, ())
            )
        return entry

    def range_cross_h(self, y: int, a: int, b: int) -> int:
        """Total crossings a horizontal run entering ``x in [a..b]`` on
        row ``y`` would pay, over all nets (callers subtract their own)."""
        if a > b:
            return 0
        coords, sums = self._cross_row(y)
        if not coords:
            return 0
        lo = bisect_left(coords, a)
        hi = bisect_right(coords, b)
        return sums[hi] - sums[lo]

    def range_cross_v(self, x: int, a: int, b: int) -> int:
        """Total crossings a vertical run entering ``y in [a..b]`` on
        column ``x`` would pay, over all nets."""
        if a > b:
            return 0
        coords, sums = self._cross_col(x)
        if not coords:
            return 0
        lo = bisect_left(coords, a)
        hi = bisect_right(coords, b)
        return sums[hi] - sums[lo]

    # -- per-net queries -------------------------------------------------

    def net_points(self, net: str) -> set[Point]:
        """All points ``net`` uses — served from the contribution map in
        O(net size) instead of a full ``usage`` scan."""
        return set(self.contrib.get(net, ()))

    def view(self, net: str, allow: frozenset[Point] = frozenset()) -> "NetView":
        return NetView(self, net, allow)


class NetView:
    """One net's window on the plane: the index's flat columns copied and
    patched to "all minus own net", plus the net's stop lists."""

    __slots__ = (
        "index",
        "net",
        "x1",
        "y1",
        "x2",
        "y2",
        "allow",
        "own",
        "pass_h",
        "pass_v",
        "cross_h",
        "cross_v",
        "bend",
        "_open_rows",
        "_open_cols",
        "_stop_rows",
        "_stop_cols",
    )

    def __init__(self, index: PlaneIndex, net: str, allow: frozenset[Point]) -> None:
        plane = index.plane
        blocked, claims = plane.blocked, plane.claims
        self.index = index
        self.net = net
        self.x1, self.y1, self.x2, self.y2 = index.x1, index.y1, index.x2, index.y2
        self.allow = allow
        own = self.own = index.contrib.get(net) or {}
        self.pass_h = pass_h = index.pass_h[:]
        self.pass_v = pass_v = index.pass_v[:]
        self.cross_h = cross_h = index.cross_h_col[:]
        self.cross_v = cross_v = index.cross_v_col[:]
        self.bend = bend = index.bend[:]
        # Row/column obstacles this net may pass (its own wire, its
        # ``allow`` points): only their lines need filtered stop lists.
        open_rows: dict[int, set[int]] = {}
        open_cols: dict[int, set[int]] = {}
        self._open_rows, self._open_cols = open_rows, open_cols
        self._stop_rows: dict[int, list[int]] = {}
        self._stop_cols: dict[int, list[int]] = {}
        h_block, v_block, occ = index.h_block, index.v_block, index.occ
        x0, y0, hbits = index.x0, index.y0, index.hbits
        x1, y1, x2, y2 = index.x1, index.y1, index.x2, index.y2
        # The exceptions, and own points that are also blocked or claimed
        # (terminals), take the general rule; plain own wire is open
        # along an axis exactly where only this net blocks it.
        special = allow | {p for p in own if p in blocked or p in claims}
        for p in special:
            x, y = p
            c = own.get(p, _ZERO)
            static = p in blocked or p in claims
            hard = static and p not in allow
            hb = h_block.get(p, 0)
            vb = v_block.get(p, 0)
            open_h = not hard and hb == c[0]
            open_v = not hard and vb == c[1]
            if open_h and (static or hb):
                open_rows.setdefault(y, set()).add(x)
            if open_v and (static or vb):
                open_cols.setdefault(x, set()).add(y)
            if x1 <= x <= x2 and y1 <= y <= y2:
                i = ((x - x0) << hbits) | (y - y0)
                pass_h[i] = open_h
                pass_v[i] = open_v
        for p, (c0, c1, c2, c3) in own.items():
            x, y = p
            inside = x1 <= x <= x2 and y1 <= y <= y2
            i = ((x - x0) << hbits) | (y - y0)
            if p not in special:
                if c0 and h_block[p] == c0:
                    row = open_rows.get(y)
                    if row is None:
                        open_rows[y] = {x}
                    else:
                        row.add(x)
                    if inside:
                        pass_h[i] = 1
                if c1 and v_block[p] == c1:
                    col = open_cols.get(x)
                    if col is None:
                        open_cols[x] = {y}
                    else:
                        col.add(y)
                    if inside:
                        pass_v[i] = 1
            if inside:
                if c2:
                    cross_h[i] -= c2
                if c3:
                    cross_v[i] -= c3
                if occ[p] == 1:
                    bend[i] = 1  # own wire only: bends stay legal

    # -- stop lists --------------------------------------------------------

    def stops_row(self, y: int) -> list[int]:
        """Sorted x coordinates where this net's horizontal runs on row
        ``y`` must stop (shared with the index unless the row holds one
        of the net's exemptions; never mutate the result)."""
        open_x = self._open_rows.get(y)
        if open_x is None:
            return self.index.sorted_row(y)
        lst = self._stop_rows.get(y)
        if lst is None:
            lst = self._stop_rows[y] = [
                x for x in self.index.sorted_row(y) if x not in open_x
            ]
        return lst

    def stops_col(self, x: int) -> list[int]:
        """Column counterpart of :meth:`stops_row`."""
        open_y = self._open_cols.get(x)
        if open_y is None:
            return self.index.sorted_col(x)
        lst = self._stop_cols.get(x)
        if lst is None:
            lst = self._stop_cols[x] = [
                y for y in self.index.sorted_col(x) if y not in open_y
            ]
        return lst

    # -- point queries (the state engine reads the columns; these serve
    # -- the interval engine, the zero-length check and tests) -----------

    def hard_at(self, q: Point) -> bool:
        plane = self.index.plane
        return (q in plane.blocked or q in plane.claims) and q not in self.allow

    def entry_blocked(self, q: Point, horizontal: bool) -> bool:
        """Would a wire of this net moving horizontally/vertically be
        forbidden to enter ``q`` by foreign wires?"""
        c = self.own.get(q, _ZERO)
        if horizontal:
            return self.index.h_block.get(q, 0) > c[0]
        return self.index.v_block.get(q, 0) > c[1]

    def crossings_at(self, q: Point, horizontal: bool) -> int:
        c = self.own.get(q, _ZERO)
        if horizontal:
            return self.index.cross_h.get(q, 0) - c[2]
        return self.index.cross_v.get(q, 0) - c[3]

    def foreign_at(self, q: Point) -> bool:
        """Does any *other* net use ``q`` (no bends/terminations there)?"""
        return self.index.occ.get(q, 0) > (1 if q in self.own else 0)

    # -- straight-run jumps ---------------------------------------------

    def run_stop(self, vertical: bool, line: int, start: int, step: int) -> int | None:
        """First coordinate at or beyond ``start + step`` where a sweep of
        this net along column ``x=line`` (``vertical``) or row ``y=line``
        must stop, or ``None`` when it runs to the plane border."""
        coords = self.stops_col(line) if vertical else self.stops_row(line)
        if step > 0:
            i = bisect_right(coords, start)
            return coords[i] if i < len(coords) else None
        i = bisect_left(coords, start) - 1
        return coords[i] if i >= 0 else None
