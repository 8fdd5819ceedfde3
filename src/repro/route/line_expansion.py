"""The line-expansion router (sections 5.5 and 5.6).

The paper's router expands wavefronts of line segments; the wave number is
the number of bends in the paths reaching the front, and among solutions
with minimum bends it picks minimum crossovers, then minimum wire length
(the ``-s`` option swaps the last two criteria).

We realise exactly that optimisation as a lexicographic shortest-path
search over states ``(point, travel direction)`` on the routing plane:

* continuing straight costs length,
* changing direction costs a bend (wave number + 1) and is only legal at
  points free of foreign wires (a bend on a foreign wire would overlap),
* passing straight across a foreign wire costs a crossover,
* module borders, claimpoints, plane borders and foreign bend/end/branch
  points block (section 5.5.2: "the only obstacles are modules and bends
  in nets").

The search is an *admissible lexicographic A\\**: each state is ordered by
its cost-so-far plus a per-state lower bound of (minimum remaining bends —
0/1/2/3 from the geometric relation of ``(point, direction)`` to the
nearest target —, minimum remaining crossings, and remaining Manhattan
length to the targets' bounding box).  The crossing bound is
*crossover-aware*: when zero or one bend suffices, every minimum-bend
completion must sweep a straight run to (or towards) a nearest target, and
the index's per-row/column crossing prefix sums price that run exactly
(minus the net's own contributions) in O(log row).  The bound only has to
hold among minimum-bend completions — paths with more bends already lose
on the first lexicographic component — and range sums over nested
intervals only grow, so truncating at the *nearest* target keeps it a
lower bound.  No bound ever overestimates, so the first target state
popped is still the paper's exact optimum (bends, then crossings, then
length, and the ``-s`` swap) while states pointing away from every target
— or staring at a wall of foreign wires — are pruned.
Like the paper's algorithm (section 5.5.4) the search stays exhaustive: a
connection is found whenever one exists.

The engine works on ints throughout.  A state is ``point << 2 | direction``
over the flat point index of the plane's
:class:`~repro.route.index.PlaneIndex`; obstacles, crossing counts and
bend legality are byte/int columns of a per-connection
:class:`~repro.route.index.NetView` (one slice copy per column, patched
in O(own net)); cost and bound triples are packed into single ints whose
order is the lexicographic order, and a heap key is one int.  The
pre-index snapshot router survives as :mod:`repro.route.reference` for
benchmarking and cross-checking.
"""

from __future__ import annotations

import enum
import heapq
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Mapping

from ..core.geometry import Direction, Point, normalize_path
from ..obs import counters
from .index import NetView, _prefix_entry
from .plane import Plane


class CostOrder(enum.Enum):
    """Tie-break order among minimum-bend paths (Appendix F, option -s)."""

    BENDS_CROSSINGS_LENGTH = "crossings-first"
    BENDS_LENGTH_CROSSINGS = "length-first"

    def key(self, bends: int, crossings: int, length: int) -> tuple[int, int, int]:
        if self is CostOrder.BENDS_CROSSINGS_LENGTH:
            return (bends, crossings, length)
        return (bends, length, crossings)


@dataclass(frozen=True)
class RouteResult:
    """A found connection and its cost."""

    path: list[Point]
    bends: int
    crossings: int
    length: int
    states_expanded: int = 0


#: Per-connection telemetry rows kept on one :class:`SearchStats` —
#: enough for every net of the biggest bench workloads; beyond it the
#: noisiest rows are already in, so further ones are dropped.
MAX_CONNECTION_ROWS = 4096


@dataclass
class SearchStats:
    """Cumulative search effort (for the complexity experiments)."""

    states_expanded: int = 0
    routes: int = 0
    failures: int = 0
    #: Heap entries skipped as stale/superseded (A* pruning bookkeeping).
    pruned: int = 0
    #: Connections that escalated to the exact BFS bend-distance bound.
    escalations: int = 0
    #: Per-connection introspection rows ("why was this net slow") —
    #: pops vs the initial bound estimate, escalation, final cost.  Bounded by :data:`MAX_CONNECTION_ROWS`.
    connections: list[dict] = field(default_factory=list)

    def record_connection(self, row: dict) -> None:
        if len(self.connections) < MAX_CONNECTION_ROWS:
            self.connections.append(row)


#: Direction order of the state encoding, and each one's opposite.
_DIR_ORDER = [Direction.LEFT, Direction.RIGHT, Direction.UP, Direction.DOWN]
_DIR_INDEX = {d: i for i, d in enumerate(_DIR_ORDER)}
_OPPOSITE = [1, 0, 3, 2]

#: Pops a connection whose start bound says fewer than two bends may
#: spend under the geometric bound before the search restarts under the
#: exact BFS bend-distance heuristic.
_ESCALATE_AFTER = 256

#: Largest plane (flat cells, pad included) on which a start bound of two
#: or more bends escalates before the first pop.  That BFS sweeps the
#: whole plane (about 0.1-0.3 us a cell) whether or not the search would
#: have overrun its budget (256 pops at 8-10 us each).  On larger planes
#: such starts are mostly short local jogs: on the 511-net grid datapath
#: (156k cells) 258 start bounds say two or more bends but only 7
#: connections overrun the budget, and escalating those 258 at the start
#: made its routing 3.7x slower.
_START_ESCALATION_MAX_CELLS = 1 << 16

#: Cost and bound triples are packed into one int, one 32-bit field per
#: component in key order (``a << 64 | b << 32 | c``): adding packed
#: values adds componentwise, and comparing them compares
#: lexicographically.  Bends, crossings and lengths on one plane stay far
#: below 2**32.
_SHIFT = 32
_MID = 1 << _SHIFT
_TOP = 1 << (2 * _SHIFT)
_FIELD = _MID - 1
#: A heap key is the packed ``f`` with the push counter appended below it,
#: so equal ``f`` pops first-in first-out and one int comparison orders
#: two entries.
_COUNTER_BITS = 32
_COUNTER_MASK = (1 << _COUNTER_BITS) - 1

#: Bend distance of a (point, axis) the escalation BFS never reached.
UNREACHED = 1 << 62


def _unpack(packed: int) -> tuple[int, int, int]:
    return (packed >> (2 * _SHIFT), (packed >> _SHIFT) & _FIELD, packed & _FIELD)


def bend_distance(
    view: NetView, seeds_h: Iterable[int], seeds_v: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Exact minimum remaining bends from every (point, axis) to the seeds.

    This is the paper's line expansion (section 5.5: wave number = bend
    count) run backwards from the targets as a level-ordered 0-1 BFS.
    ``seeds_h``/``seeds_v`` are flat point indices where a path may end
    moving horizontally/vertically.  Straight propagation along a free run
    is one line, so the whole run between two stops joins the current
    level with one slice fill; each bendable swept point spawns the
    perpendicular axis at the next level, and a point swept once per axis
    implies its whole run is swept, so each (point, axis) is filled once.
    The only relaxation is ignoring U-turn bans, which is admissible.

    Returns ``(dist_h, dist_v)`` indexed by flat point index, holding
    :data:`UNREACHED` where the seeds cannot be reached.
    """
    index = view.index
    x0, y0, hbits = index.x0, index.y0, index.hbits
    x1, y1, x2, y2 = index.x1, index.y1, index.x2, index.y2
    height = 1 << hbits
    hmask = height - 1
    bend = view.bend
    # Stop lists memoised per line: a line is swept many times per BFS.
    rows: dict[int, list[int]] = {}
    cols: dict[int, list[int]] = {}
    dist_h = [UNREACHED] * len(bend)
    dist_v = [UNREACHED] * len(bend)
    cur_h, cur_v = list(seeds_h), list(seeds_v)
    level = 0
    while cur_h or cur_v:
        nxt_h: list[int] = []
        nxt_v: list[int] = []
        for p in cur_h:
            if dist_h[p] != UNREACHED:
                continue
            px = (p >> hbits) + x0
            yl = p & hmask
            srow = rows.get(yl)
            if srow is None:
                srow = rows[yl] = view.stops_row(yl + y0)
            j = bisect_left(srow, px)
            lo = srow[j - 1] + 1 if j > 0 else x1
            hi = srow[j] - 1 if j < len(srow) else x2
            if lo < x1:
                lo = x1
            if hi > x2:
                hi = x2
            a = ((lo - x0) << hbits) | yl
            b = ((hi - x0) << hbits) | yl
            dist_h[a : b + 1 : height] = [level] * (hi - lo + 1)
            nxt_v += compress(range(a, b + 1, height), bend[a : b + 1 : height])
        for p in cur_v:
            if dist_v[p] != UNREACHED:
                continue
            yl = p & hmask
            py = yl + y0
            xl = p >> hbits
            scol = cols.get(xl)
            if scol is None:
                scol = cols[xl] = view.stops_col(xl + x0)
            j = bisect_left(scol, py)
            lo = scol[j - 1] + 1 if j > 0 else y1
            hi = scol[j] - 1 if j < len(scol) else y2
            if lo < y1:
                lo = y1
            if hi > y2:
                hi = y2
            a = p - yl + (lo - y0)
            b = p - yl + (hi - y0)
            dist_v[a : b + 1] = [level] * (hi - lo + 1)
            nxt_h += compress(range(a, b + 1), bend[a : b + 1])
        cur_h, cur_v = nxt_h, nxt_v
        level += 1
    return dist_h, dist_v


def goal_states(
    view: NetView, targets: Mapping[Point, frozenset[Direction] | None]
) -> tuple[set[int], list[int], list[int]]:
    """The acceptable goal states of a connection and the escalation
    BFS's seeds.

    A goal state is a target free of foreign wire entered along an
    allowed arrival direction.  The seeds are the goal points a path may
    enter moving horizontally (``seeds_h``) or vertically (``seeds_v``),
    so every goal state reads bend distance 0."""
    at, bend = view.index.at, view.bend
    goal: set[int] = set()
    seeds_h: list[int] = []
    seeds_v: list[int] = []
    for p, dirs in targets.items():
        i = at(p.x, p.y)
        if i is None or not bend[i]:
            continue
        arrivals = range(4) if dirs is None else [_DIR_INDEX[d] for d in dirs]
        goal.update((i << 2) | d for d in arrivals)
        if view.pass_h[i] and any(d < 2 for d in arrivals):
            seeds_h.append(i)
        if view.pass_v[i] and any(d >= 2 for d in arrivals):
            seeds_v.append(i)
    return goal, seeds_h, seeds_v


class _Bounds:
    """The admissible per-state lower bounds of one connection.

    ``geometric(q, di)`` is the 0/1/2/3-bend, crossover-aware bound;
    ``exact(q, di)`` upgrades it by the escalation BFS's bend distance
    (:meth:`escalate`).  Both return the packed ``(bends, crossings,
    length)`` bound in key order, and ``exact`` returns ``None`` for
    states the relaxed BFS cannot reach (no completion exists).  The
    functions are closures so the search loop calls them without
    attribute lookups.
    """

    def __init__(
        self,
        view: NetView,
        targets: Iterable[tuple[int, int]],
        crossings_first: bool,
    ) -> None:
        index = view.index
        x0, y0, hbits = index.x0, index.y0, index.hbits
        hmask = (1 << hbits) - 1
        bend = view.bend
        cross_unit, len_unit = (_MID, 1) if crossings_first else (1, _MID)
        len_field = _FIELD * len_unit

        # Target geometry: bounding box and sorted per-row/per-column
        # target coordinates.
        t_in_row: dict[int, list[int]] = {}
        t_in_col: dict[int, list[int]] = {}
        tx1 = ty1 = 1 << 60
        tx2 = ty2 = -(1 << 60)
        for tx, ty in targets:
            t_in_row.setdefault(ty, []).append(tx)
            t_in_col.setdefault(tx, []).append(ty)
            tx1, tx2 = min(tx1, tx), max(tx2, tx)
            ty1, ty2 = min(ty1, ty), max(ty2, ty)
        for lst in t_in_row.values():
            lst.sort()
        for lst in t_in_col.values():
            lst.sort()
        t_rows_sorted = sorted(t_in_row)  # rows containing a target
        t_cols_sorted = sorted(t_in_col)  # columns containing a target

        # -- crossover-aware bound plumbing -----------------------------
        # The index prices a straight run's crossings over all nets; the
        # net's own contributions are subtracted with per-connection
        # prefix structures over the (small) own-crossing overlays.
        range_cross_h = index.range_cross_h
        range_cross_v = index.range_cross_v
        own_h_rows: dict[int, dict[int, int]] = {}
        own_v_cols: dict[int, dict[int, int]] = {}
        for p, c in view.own.items():
            if c[2]:
                own_h_rows.setdefault(p[1], {})[p[0]] = c[2]
            if c[3]:
                own_v_cols.setdefault(p[0], {})[p[1]] = c[3]
        own_h_cache: dict[int, tuple[list[int], list[int]]] = {}
        own_v_cache: dict[int, tuple[list[int], list[int]]] = {}

        def _hrange(y: int, a: int, b: int) -> int:
            """Foreign crossings a horizontal run entering ``x in [a..b]``
            on row ``y`` must pay."""
            total = range_cross_h(y, a, b)
            if total and y in own_h_rows:
                entry = own_h_cache.get(y)
                if entry is None:
                    entry = own_h_cache[y] = _prefix_entry(own_h_rows[y])
                coords, sums = entry
                total -= sums[bisect_right(coords, b)] - sums[bisect_left(coords, a)]
            return total

        def _vrange(x: int, a: int, b: int) -> int:
            total = range_cross_v(x, a, b)
            if total and x in own_v_cols:
                entry = own_v_cache.get(x)
                if entry is None:
                    entry = own_v_cache[x] = _prefix_entry(own_v_cols[x])
                coords, sums = entry
                total -= sums[bisect_right(coords, b)] - sums[bisect_left(coords, a)]
            return total

        # Per-line *stop* coordinates for this net, memoised per touched
        # line.  A straight run cannot pass its first stop, which upgrades
        # the bend bound behind walls.
        stop_rows: dict[int, list[int]] = {}
        stop_cols: dict[int, list[int]] = {}
        view_stops_row, view_stops_col = view.stops_row, view.stops_col

        def _stops_row(y: int) -> list[int]:
            lst = stop_rows.get(y)
            if lst is None:
                lst = stop_rows[y] = view_stops_row(y)
            return lst

        def _stops_col(x: int) -> list[int]:
            lst = stop_cols.get(x)
            if lst is None:
                lst = stop_cols[x] = view_stops_col(x)
            return lst

        def _hc1_horiz(qx: int, qy: int, q: int, sgn: int, lim: int | None) -> int | None:
            """Crossing bound over the exactly-one-bend completions when
            travel is horizontal — or ``None`` when no such completion can
            exist.  Every 1-bend completion either bends *here* (family A
            — a vertical run in this column to a target row, needs a
            bendable point and a reachable target) or sweeps on and bends
            ahead (family B — a horizontal run at least to the nearest
            reachable target column ahead, bounded by the first stop
            ``lim``)."""
            best = None
            if bend[q]:
                col = t_in_col.get(qx)
                if col:
                    scol = _stops_col(qx)
                    i = bisect_left(col, qy + 1)
                    if i < len(col):
                        ty = col[i]
                        j = bisect_right(scol, qy)
                        if j >= len(scol) or ty < scol[j]:
                            best = _vrange(qx, qy + 1, ty)
                    i = bisect_right(col, qy - 1) - 1
                    if i >= 0:
                        ty = col[i]
                        j = bisect_left(scol, qy) - 1
                        if j < 0 or ty > scol[j]:
                            c = _vrange(qx, ty, qy - 1)
                            if best is None or c < best:
                                best = c
            if sgn > 0:
                i = bisect_left(t_cols_sorted, qx + 1)
                if i < len(t_cols_sorted):
                    c_near = t_cols_sorted[i]
                    if lim is None or c_near < lim:
                        c = _hrange(qy, qx + 1, c_near)
                        if best is None or c < best:
                            best = c
            else:
                i = bisect_right(t_cols_sorted, qx - 1) - 1
                if i >= 0:
                    c_near = t_cols_sorted[i]
                    if lim is None or c_near > lim:
                        c = _hrange(qy, c_near, qx - 1)
                        if best is None or c < best:
                            best = c
            return best

        def _hc1_vert(qx: int, qy: int, q: int, sgn: int, lim: int | None) -> int | None:
            best = None
            if bend[q]:
                row = t_in_row.get(qy)
                if row:
                    srow = _stops_row(qy)
                    i = bisect_left(row, qx + 1)
                    if i < len(row):
                        tx = row[i]
                        j = bisect_right(srow, qx)
                        if j >= len(srow) or tx < srow[j]:
                            best = _hrange(qy, qx + 1, tx)
                    i = bisect_right(row, qx - 1) - 1
                    if i >= 0:
                        tx = row[i]
                        j = bisect_left(srow, qx) - 1
                        if j < 0 or tx > srow[j]:
                            c = _hrange(qy, tx, qx - 1)
                            if best is None or c < best:
                                best = c
            if sgn > 0:
                i = bisect_left(t_rows_sorted, qy + 1)
                if i < len(t_rows_sorted):
                    r_near = t_rows_sorted[i]
                    if lim is None or r_near < lim:
                        c = _vrange(qx, qy + 1, r_near)
                        if best is None or c < best:
                            best = c
            else:
                i = bisect_right(t_rows_sorted, qy - 1) - 1
                if i >= 0:
                    r_near = t_rows_sorted[i]
                    if lim is None or r_near > lim:
                        c = _vrange(qx, r_near, qy - 1)
                        if best is None or c < best:
                            best = c
            return best

        def geometric(q: int, di: int) -> int:
            """Admissible packed (remaining bends, crossings, length) lower
            bound for state ``(q, di)`` against the whole target set.  The
            crossing component only has to hold among completions with
            exactly the minimum bends — bendier completions already lose
            on the first lexicographic component."""
            qx = (q >> hbits) + x0
            qy = (q & hmask) + y0
            # Manhattan distance to the targets' bounding box.
            hl = 0
            if qx < tx1:
                hl = tx1 - qx
            elif qx > tx2:
                hl = qx - tx2
            if qy < ty1:
                hl += ty1 - qy
            elif qy > ty2:
                hl += qy - ty2
            hl *= len_unit
            # Minimum bends from the geometric relation to the nearest
            # *reachable* target: 0 when one lies straight ahead of the
            # first stop, 1 when a one-bend family A/B completion survives
            # the stop tests, else 2 (3 when every target is strictly
            # behind on the travel line itself).
            if di == 0:  # LEFT
                srow = _stops_row(qy)
                j = bisect_left(srow, qx) - 1
                lim = srow[j] if j >= 0 else None
                row = t_in_row.get(qy)
                if row is not None and row[0] <= qx:
                    i = bisect_right(row, qx) - 1
                    tx = row[i]
                    if lim is None or tx > lim:
                        return _hrange(qy, tx, qx - 1) * cross_unit + hl
                if tx1 <= qx:
                    hc = _hc1_horiz(qx, qy, q, -1, lim)
                    if hc is not None:
                        return _TOP + hc * cross_unit + hl
                    return 2 * _TOP + hl
                off_line = ty1 != qy or ty2 != qy
            elif di == 1:  # RIGHT
                srow = _stops_row(qy)
                j = bisect_right(srow, qx)
                lim = srow[j] if j < len(srow) else None
                row = t_in_row.get(qy)
                if row is not None and row[-1] >= qx:
                    i = bisect_left(row, qx)
                    tx = row[i]
                    if lim is None or tx < lim:
                        return _hrange(qy, qx + 1, tx) * cross_unit + hl
                if tx2 >= qx:
                    hc = _hc1_horiz(qx, qy, q, +1, lim)
                    if hc is not None:
                        return _TOP + hc * cross_unit + hl
                    return 2 * _TOP + hl
                off_line = ty1 != qy or ty2 != qy
            elif di == 2:  # UP
                scol = _stops_col(qx)
                j = bisect_right(scol, qy)
                lim = scol[j] if j < len(scol) else None
                col = t_in_col.get(qx)
                if col is not None and col[-1] >= qy:
                    i = bisect_left(col, qy)
                    ty = col[i]
                    if lim is None or ty < lim:
                        return _vrange(qx, qy + 1, ty) * cross_unit + hl
                if ty2 >= qy:
                    hc = _hc1_vert(qx, qy, q, +1, lim)
                    if hc is not None:
                        return _TOP + hc * cross_unit + hl
                    return 2 * _TOP + hl
                off_line = tx1 != qx or tx2 != qx
            else:  # DOWN
                scol = _stops_col(qx)
                j = bisect_left(scol, qy) - 1
                lim = scol[j] if j >= 0 else None
                col = t_in_col.get(qx)
                if col is not None and col[0] <= qy:
                    i = bisect_right(col, qy) - 1
                    ty = col[i]
                    if lim is None or ty > lim:
                        return _vrange(qx, ty, qy - 1) * cross_unit + hl
                if ty1 <= qy:
                    hc = _hc1_vert(qx, qy, q, -1, lim)
                    if hc is not None:
                        return _TOP + hc * cross_unit + hl
                    return 2 * _TOP + hl
                off_line = tx1 != qx or tx2 != qx
            return (2 * _TOP if off_line else 3 * _TOP) + hl

        dist_h: list[int] = []
        dist_v: list[int] = []

        def exact(q: int, di: int) -> int | None:
            """The geometric bound upgraded by the BFS bend distance
            ``cand``; ``None`` prunes states the BFS cannot reach."""
            if di < 2:
                cand = dist_h[q]
                turn = dist_v[q] + 1
            else:
                cand = dist_v[q]
                turn = dist_h[q] + 1
            if turn < cand and bend[q]:
                cand = turn
            if cand >= UNREACHED:
                return None
            if cand < 2:
                packed = geometric(q, di)
                if cand > packed >> (2 * _SHIFT):
                    return cand * _TOP + (packed & len_field)
                return packed
            # From two bends on the geometric bound cannot raise ``cand``
            # and its crossing term (for fewer bends) drops, so only the
            # length term is computed.  Its one value above 2, the 3 for
            # every target strictly behind on the travel line, needs all
            # targets on the state's own line, where ``cand`` is never 2:
            # a free run on that line through no target is first reached
            # via a perpendicular run that started on another line (BFS
            # level >= 3), and a perpendicular run through the state at
            # level 1 would put the state on a target's own run (level 0).
            qx = (q >> hbits) + x0
            qy = (q & hmask) + y0
            hl = 0
            if qx < tx1:
                hl = tx1 - qx
            elif qx > tx2:
                hl = qx - tx2
            if qy < ty1:
                hl += ty1 - qy
            elif qy > ty2:
                hl += qy - ty2
            return cand * _TOP + hl * len_unit

        def escalate(seeds_h: Iterable[int], seeds_v: Iterable[int]) -> None:
            """Run the escalation BFS from the seeds; arms ``exact``."""
            nonlocal dist_h, dist_v
            dist_h, dist_v = bend_distance(view, seeds_h, seeds_v)

        self.geometric = geometric
        self.exact = exact
        self.escalate = escalate


def route_connection(
    plane: Plane,
    net: str,
    start: Point,
    start_directions: Iterable[Direction],
    targets: Mapping[Point, frozenset[Direction] | None] | Iterable[Point],
    *,
    allow: frozenset[Point] = frozenset(),
    cost_order: CostOrder = CostOrder.BENDS_CROSSINGS_LENGTH,
    stats: SearchStats | None = None,
) -> RouteResult | None:
    """Find the best path of ``net`` from ``start`` to any target point.

    ``start_directions`` are the legal directions for the first wire
    segment (perpendicular to and away from the module side for subsystem
    terminals, all four for system terminals, section 5.6.3).

    ``targets`` maps target points to the set of arrival directions that
    are acceptable there (``None`` for any); a bare iterable of points
    accepts any arrival direction.

    Returns ``None`` when no connection exists — and only then.
    """
    if not isinstance(targets, Mapping):
        targets = {p: None for p in targets}
    if not targets:
        return None
    start_directions = list(start_directions)
    view = plane.index.view(net, allow)
    if start in targets:
        # Zero-length connection: legal only under the same acceptance
        # rule as the main loop — the target must carry no foreign wire
        # and its arrival constraint must admit a start direction.
        dirs = targets[start]
        if (
            dirs is None or any(d in dirs for d in start_directions)
        ) and not view.foreign_at(start):
            return RouteResult(path=[start], bends=0, crossings=0, length=0)

    index = plane.index
    hbits = index.hbits
    bend, pass_h, pass_v = view.bend, view.pass_h, view.pass_v
    goal, seeds_h, seeds_v = goal_states(view, targets)

    crossings_first = cost_order is CostOrder.BENDS_CROSSINGS_LENGTH
    cross_unit, len_unit = (_MID, 1) if crossings_first else (1, _MID)
    bounds = _Bounds(view, targets, crossings_first)

    # Per direction: the three legal successor moves in push order, as
    # (direction, flat step, pass column, crossing column, bend cost).
    height = 1 << hbits
    steps = (-height, height, 1, -1)
    moves = [
        [
            (
                ndi,
                steps[ndi],
                pass_h if ndi < 2 else pass_v,
                view.cross_h if ndi < 2 else view.cross_v,
                0 if ndi == di else _TOP,
            )
            for ndi in range(4)
            if ndi != _OPPOSITE[di]
        ]
        for di in range(4)
    ]

    sx, sy = start.x, start.y
    sp = index.at(sx, sy)
    # A start off the plane has no legal state: the search finds nothing.
    start_dis = [] if sp is None else [_DIR_INDEX[d] for d in start_directions]
    heap: list[int] = []
    # Heap keys carry only (f, counter); the state and cost pushed with
    # counter ``n`` are ``push_sid[n]``/``push_cost[n]``.
    push_sid: list[int] = []
    push_cost: list[int] = []
    best: dict[int, int] = {}
    parents: dict[int, int | None] = {}
    counter = 0
    t_search = time.perf_counter()
    initial_bound: int | None = None
    for di in start_dis:
        sid = (sp << 2) | di
        best[sid] = 0
        parents[sid] = None
        f = bounds.geometric(sp, di)
        if initial_bound is None or f < initial_bound:
            initial_bound = f
        heapq.heappush(heap, (f << _COUNTER_BITS) | counter)
        push_sid.append(sid)
        push_cost.append(0)
        counter += 1

    expanded = 0
    pruned = 0
    goal_state = None
    goal_cost = 0
    heappush, heappop = heapq.heappush, heapq.heappop

    # -- escalation: exact bend-distance lower bound --------------------
    # The geometric bound's bend component saturates at 3 while congested
    # connections need 4-11 bends, so the search degenerates towards
    # uniform-cost on the expensive tail.  Such a connection escalates:
    # the line-expansion BFS from the targets (:func:`bend_distance`)
    # gives the *exact* minimum remaining bends for every reachable
    # (point, axis) and the search runs under the stronger bound.  From
    # two bends on the geometric bound carries no crossing term, so on a
    # plane small enough for the BFS to be cheap a start bound of two or
    # more bends escalates before the first pop.  Other connections
    # mostly finish in a few hundred pops; one that overstays the budget
    # restarts escalated, and the pops spent before the restart stay
    # counted (``discarded_pops`` in its telemetry row).
    budget = (
        0
        if initial_bound is not None
        and initial_bound >> (2 * _SHIFT) >= 2
        and len(bend) <= _START_ESCALATION_MAX_CELLS
        else _ESCALATE_AFTER
    )
    cur_heur = bounds.geometric
    escalated = False
    discarded = 0
    bfs_s = 0.0

    while heap:
        if not escalated and expanded >= budget:
            escalated = True
            discarded = expanded
            t_bfs = time.perf_counter()
            bounds.escalate(seeds_h, seeds_v)
            bfs_s = time.perf_counter() - t_bfs
            counters.observe("route.escalation_bfs_s", bfs_s)
            cur_heur = bounds.exact
            counters.inc("route.heur_escalations")
            counters.inc("route.escalation_discarded_pops", discarded)
            if stats is not None:
                stats.escalations += 1
            heap = []
            best = {}
            parents = {}
            for di in start_dis:
                sid = (sp << 2) | di
                best[sid] = 0
                parents[sid] = None
                f = cur_heur(sp, di)
                if f is None:
                    continue
                heappush(heap, (f << _COUNTER_BITS) | counter)
                push_sid.append(sid)
                push_cost.append(0)
                counter += 1
            if not heap:
                break
        n = heappop(heap) & _COUNTER_MASK
        sid = push_sid[n]
        cost = push_cost[n]
        if cost != best[sid]:
            pruned += 1  # stale entry, superseded by a better push
            continue
        expanded += 1
        p = sid >> 2

        if sid in goal and parents[sid] is not None:
            goal_state, goal_cost = sid, cost
            break

        can_turn = bend[p]
        for ndi, step, passable, crossing, turn in moves[sid & 3]:
            if turn and not can_turn:
                continue
            q = p + step
            if not passable[q]:
                continue
            ncost = cost + turn + crossing[q] * cross_unit + len_unit
            nsid = (q << 2) | ndi
            old = best.get(nsid)
            if old is None or ncost < old:
                h = cur_heur(q, ndi)
                if h is None:
                    continue
                best[nsid] = ncost
                parents[nsid] = sid
                heappush(heap, ((ncost + h) << _COUNTER_BITS) | counter)
                push_sid.append(nsid)
                push_cost.append(ncost)
                counter += 1

    found = goal_state is not None
    final_cost = (
        _unkey(_unpack(goal_cost), cost_order) if found else None
    )  # (bends, crossings, length)
    bound = _unpack(initial_bound) if initial_bound is not None else None
    if stats is not None:
        stats.states_expanded += expanded
        stats.pruned += pruned
        stats.routes += 1
        if not found:
            stats.failures += 1
        row = {
            "net": net,
            "start": [sx, sy],
            "targets": len(targets),
            "pops": expanded,
            "pruned": pruned,
            "bound": list(bound) if bound else None,
            "cost": list(final_cost) if final_cost else None,
            "escalated": escalated,
            "discarded_pops": discarded,
            "found": found,
            "seconds": round(time.perf_counter() - t_search, 6),
            "bfs_s": round(bfs_s, 6),
        }
        stats.record_connection(row)
    counters.inc("route.connections")
    counters.inc("route.expansions", expanded)
    counters.inc("route.astar_pruned", pruned)
    counters.observe("route.expansions_per_connection", expanded)
    if found and bound is not None:
        # Bound tightness: estimated total bends at the start vs the
        # optimum actually found (1.0 = the bound was exact; +1 smooths
        # the all-straight zero-bend case).
        counters.observe(
            "route.bound_tightness",
            (bound[0] + 1) / (final_cost[0] + 1),
        )
    if not found:
        counters.inc("route.connection_failures")
        return None

    path: list[Point] = []
    cursor = goal_state
    while cursor is not None:
        path.append(index.point_at(cursor >> 2))
        cursor = parents[cursor]
    path.reverse()
    bends, crossings, length = final_cost
    return RouteResult(
        path=normalize_path(path),
        bends=bends,
        crossings=crossings,
        length=length,
        states_expanded=expanded,
    )


def _unkey(
    cost: tuple[int, int, int], order: CostOrder
) -> tuple[int, int, int]:
    """Invert :meth:`CostOrder.key` back to (bends, crossings, length)."""
    if order is CostOrder.BENDS_CROSSINGS_LENGTH:
        return cost
    bends, length, crossings = cost
    return (bends, crossings, length)


def start_directions_for(side_outward: Direction | None) -> list[Direction]:
    """Initial expansion directions for a terminal (INIT_ACTIVES):
    subsystem terminals leave perpendicular to their module side, system
    terminals expand in all four directions."""
    if side_outward is None:
        return list(Direction)
    return [side_outward]
