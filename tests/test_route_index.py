"""Tests for the incremental routing-plane index.

Two layers of evidence:

* structural — after any sequence of plane mutations the incrementally
  maintained :class:`~repro.route.index.PlaneIndex` equals an index
  rebuilt from scratch off the same plane, and a
  :class:`~repro.route.index.NetView` answers every point query exactly
  like the pre-index :class:`~repro.route.reference.ReferenceSnapshot`,
* behavioural — the indexed A* returns the same optimum cost tuple
  (bends, crossings, length) as the snapshot-rebuilding reference
  Dijkstra on randomized scenes, under both tie-break orders.
"""

import random

from repro.core.geometry import Direction, Orientation, Point, Rect
from repro.route.index import PlaneIndex
from repro.route.line_expansion import CostOrder, SearchStats, route_connection
from repro.route.plane import Plane
from repro.route.reference import ReferenceSnapshot, route_connection_reference


def _fresh_index(plane: Plane) -> PlaneIndex:
    """An index rebuilt from scratch off the plane's current state."""
    fresh = PlaneIndex(plane)
    for p in plane.blocked:
        fresh.blocked_added(p)
    fresh.rebuild()
    return fresh


def _lines(d: dict) -> dict:
    """Row/column sets with emptied entries dropped (removals leave empty
    sets behind in the live index; that is not a semantic difference)."""
    return {k: set(v) for k, v in d.items() if v}


def assert_columns_match_aggregates(plane: Plane) -> None:
    """Every flat column entry, pad included, equals the value recomputed
    from the plane and the index's per-point aggregates."""
    index, b = plane.index, plane.bounds
    for x in range(b.x - 1, b.x2 + 2):
        for y in range(b.y - 1, b.y2 + 2):
            p = Point(x, y)
            i = ((x - index.x0) << index.hbits) | (y - index.y0)
            inside = index.at(x, y) == i
            free = inside and p not in plane.blocked and p not in plane.claims
            assert index.pass_h[i] == (free and p not in index.h_block), p
            assert index.pass_v[i] == (free and p not in index.v_block), p
            assert index.cross_h_col[i] == (index.cross_h.get(p, 0) if inside else 0), p
            assert index.cross_v_col[i] == (index.cross_v.get(p, 0) if inside else 0), p
            assert index.bend[i] == (inside and p not in index.occ), p


def assert_index_matches_rebuild(plane: Plane) -> None:
    live, fresh = plane.index, _fresh_index(plane)
    assert live.h_block == fresh.h_block
    assert live.v_block == fresh.v_block
    assert live.cross_h == fresh.cross_h
    assert live.cross_v == fresh.cross_v
    assert live.occ == fresh.occ
    assert live.pass_h == fresh.pass_h
    assert live.pass_v == fresh.pass_v
    assert live.cross_h_col == fresh.cross_h_col
    assert live.cross_v_col == fresh.cross_v_col
    assert live.bend == fresh.bend
    assert_columns_match_aggregates(plane)
    assert {n: c for n, c in live.contrib.items() if c} == {
        n: c for n, c in fresh.contrib.items() if c
    }
    assert _lines(live._rows) == _lines(fresh._rows)
    assert _lines(live._cols) == _lines(fresh._cols)
    for y in set(live._rows) | set(fresh._rows):
        assert live.sorted_row(y) == fresh.sorted_row(y)
    for x in set(live._cols) | set(fresh._cols):
        assert live.sorted_col(x) == fresh.sorted_col(x)


def assert_view_matches_snapshot(plane: Plane, net: str, allow=frozenset()) -> None:
    """Every point query of the O(1)-overlay view equals the rebuilt flat
    snapshot of the pre-index router."""
    snap = ReferenceSnapshot(plane, net, allow)
    view = plane.index.view(net, allow)
    points = (
        set(plane.blocked)
        | set(plane.claims)
        | set(plane.usage)
        | {Point(1, 1), Point(5, 5)}
    )
    for q in points:
        assert view.hard_at(q) == (q in snap.hard), q
        assert view.foreign_at(q) == (q in snap.foreign_any), q
        assert view.entry_blocked(q, True) == (q in snap.blocked_h), q
        assert view.entry_blocked(q, False) == (q in snap.blocked_v), q
        assert view.crossings_at(q, True) == snap.cross_h.get(q, 0), q
        assert view.crossings_at(q, False) == snap.cross_v.get(q, 0), q
        i = plane.index.at(q.x, q.y)
        if i is None:
            continue
        # The view's patched columns answer the same questions per index.
        hard = q in snap.hard
        assert view.pass_h[i] == (not hard and q not in snap.blocked_h), q
        assert view.pass_v[i] == (not hard and q not in snap.blocked_v), q
        assert view.cross_h[i] == snap.cross_h.get(q, 0), q
        assert view.cross_v[i] == snap.cross_v.get(q, 0), q
        assert view.bend[i] == (q not in snap.foreign_any), q


class TestIncrementalConsistency:
    def test_block_claim_path_release_sequence(self):
        p = Plane(bounds=Rect(0, 0, 20, 20))
        p.block_rect(Rect(3, 3, 2, 2))
        assert_index_matches_rebuild(p)
        assert p.add_claim(Point(10, 10), "owner-a")
        assert p.add_claim(Point(11, 10), "owner-b")
        assert_index_matches_rebuild(p)
        p.add_net_path("n1", [Point(0, 8), Point(15, 8)])
        p.add_net_path("n2", [Point(7, 0), Point(7, 8), Point(9, 8)])
        assert_index_matches_rebuild(p)
        assert p.release_claims(["owner-a"]) == 1
        assert_index_matches_rebuild(p)
        # A second path of the same net turns (7, 8) into a branch point.
        p.add_net_path("n2", [Point(7, 8), Point(7, 12)])
        assert_index_matches_rebuild(p)
        assert p.release_all_claims() == 1
        assert not p.claims
        assert_index_matches_rebuild(p)

    def test_direct_blocked_mutation_notifies_index(self):
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.blocked.add(Point(4, 4))
        p.blocked |= {Point(4, 5), Point(4, 6)}
        p.blocked.update([Point(5, 5)])
        assert_index_matches_rebuild(p)
        assert 4 in p.index.sorted_row(5)
        p.blocked.discard(Point(4, 5))
        assert_index_matches_rebuild(p)
        assert 4 not in p.index.sorted_row(5)
        p.blocked.clear()
        assert not p.blocked
        assert_index_matches_rebuild(p)
        assert p.index.sorted_row(4) == []

    def test_claim_release_keeps_wire_obstacles(self):
        # A claim and a wire share nothing; releasing a claim on a row
        # that also holds a wire-blocked point must keep the wire's entry.
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.add_net_path("w", [Point(2, 5), Point(6, 5)])  # blocks h on row 5
        assert p.add_claim(Point(8, 5), "c")
        assert p.release_claims(["c"]) == 1
        assert 8 not in p.index.sorted_row(5)
        assert set(p.index.sorted_row(5)) == {2, 3, 4, 5, 6}
        assert_index_matches_rebuild(p)

    def test_prepopulated_plane_ingested(self):
        usage = {Point(3, 3): {"w": {Orientation.HORIZONTAL}}}
        p = Plane(
            bounds=Rect(0, 0, 10, 10),
            blocked={Point(1, 1)},
            claims={Point(2, 2): "c"},
            usage=usage,
            nodes={"w": set()},
        )
        assert_index_matches_rebuild(p)
        assert set(p.index.occ) == {Point(3, 3)}
        assert Point(1, 1) in p.blocked

    def test_randomized_mutation_storm(self):
        rng = random.Random(0xC0FFEE)
        p = Plane(bounds=Rect(0, 0, 24, 24))
        owners = []
        for step in range(60):
            op = rng.randrange(5)
            if op == 0:
                x, y = rng.randrange(1, 20), rng.randrange(1, 20)
                p.block_rect(Rect(x, y, rng.randrange(0, 3), rng.randrange(0, 3)))
            elif op == 1:
                owner = f"o{step}"
                if p.add_claim(Point(rng.randrange(24), rng.randrange(24)), owner):
                    owners.append(owner)
            elif op == 2 and owners:
                p.release_claims([owners.pop(rng.randrange(len(owners)))])
            elif op == 3:
                a = Point(rng.randrange(24), rng.randrange(24))
                b = Point(rng.randrange(24), a.y)
                c = Point(b.x, rng.randrange(24))
                p.add_net_path(f"net{rng.randrange(4)}", [a, b, c])
            else:
                p.blocked.add(Point(rng.randrange(24), rng.randrange(24)))
            if step % 10 == 9:
                assert_index_matches_rebuild(p)
                for net in ("net0", "net1", "net2", "net3"):
                    assert_view_matches_snapshot(p, net)
        p.release_all_claims()
        assert_index_matches_rebuild(p)

    def test_net_points_served_from_contrib(self):
        p = Plane(bounds=Rect(0, 0, 20, 20))
        p.add_net_path("a", [Point(0, 0), Point(4, 0), Point(4, 4)])
        p.add_net_path("b", [Point(4, 2), Point(8, 2)])
        for net in ("a", "b"):
            expected = {q for q, nets in p.usage.items() if net in nets}
            assert p.net_points(net) == expected
        assert p.net_points("missing") == set()


class TestRunStop:
    def _naive_stop(self, view, vertical, line, start, step, lo, hi):
        c = start + step
        while lo <= c <= hi + 5:  # scan a little past the border too
            q = Point(line, c) if vertical else Point(c, line)
            if view.hard_at(q) or view.entry_blocked(q, not vertical):
                return c
            c += step
        return None

    def test_matches_naive_scan(self):
        rng = random.Random(7)
        p = Plane(bounds=Rect(0, 0, 20, 20))
        p.block_rect(Rect(5, 5, 3, 3))
        p.add_net_path("own", [Point(2, 10), Point(12, 10)])
        p.add_net_path("other", [Point(10, 2), Point(10, 18)])
        p.add_claim(Point(15, 10), "c")
        for net in ("own", "other", "third"):
            view = p.index.view(net, allow=frozenset({Point(15, 10)}))
            for _ in range(60):
                vertical = rng.random() < 0.5
                line = rng.randrange(0, 21)
                start = rng.randrange(0, 21)
                step = rng.choice((1, -1))
                got = view.run_stop(vertical, line, start, step)
                want = self._naive_stop(view, vertical, line, start, step, -5, 20)
                assert got == want, (net, vertical, line, start, step)


def _random_scene(seed: int) -> Plane:
    rng = random.Random(seed)
    p = Plane(bounds=Rect(0, 0, 22, 22))
    for _ in range(rng.randrange(1, 4)):
        x, y = rng.randrange(2, 16), rng.randrange(2, 16)
        p.block_rect(Rect(x, y, rng.randrange(1, 4), rng.randrange(1, 4)))
    for i in range(rng.randrange(2, 6)):
        a = Point(rng.randrange(22), rng.randrange(22))
        b = Point(rng.randrange(22), a.y)
        c = Point(b.x, rng.randrange(22))
        p.add_net_path(f"f{i}", [a, b, c])
    for j in range(rng.randrange(0, 4)):
        p.add_claim(Point(rng.randrange(22), rng.randrange(22)), f"c{j}")
    return p


class TestAStarMatchesReference:
    """Property: on random scenes the indexed A* and the pre-index
    snapshot Dijkstra return identical (bends, crossings, length)."""

    def _compare(self, seed: int, cost_order: CostOrder) -> None:
        rng = random.Random(seed * 31 + 1)
        plane = _random_scene(seed)
        free = [
            Point(x, y)
            for x in range(23)
            for y in range(23)
            if Point(x, y) not in plane.blocked and Point(x, y) not in plane.claims
        ]
        for trial in range(6):
            start = rng.choice(free)
            targets = {rng.choice(free): None for _ in range(rng.randrange(1, 3))}
            dirs = rng.sample(list(Direction), rng.randrange(1, 5))
            allow = frozenset({start, *targets})
            net = rng.choice(["f0", "f1", "mine"])
            a = route_connection(
                plane, net, start, dirs, targets, allow=allow, cost_order=cost_order
            )
            b = route_connection_reference(
                plane, net, start, dirs, targets, allow=allow, cost_order=cost_order
            )
            ka = None if a is None else (a.bends, a.crossings, a.length)
            kb = None if b is None else (b.bends, b.crossings, b.length)
            assert ka == kb, (seed, trial, ka, kb)

    def test_crossings_first(self):
        for seed in range(12):
            self._compare(seed, CostOrder.BENDS_CROSSINGS_LENGTH)

    def test_length_first(self):
        for seed in range(12):
            self._compare(seed, CostOrder.BENDS_LENGTH_CROSSINGS)

    def test_astar_never_expands_more(self):
        # The admissible heuristic may only prune, never add, expansions
        # relative to the undirected search on the same scene.
        total_a = total_b = 0
        for seed in range(6):
            plane = _random_scene(seed)
            sa, sb = SearchStats(), SearchStats()
            start, goal = Point(0, 0), Point(20, 20)
            route_connection(plane, "mine", start, list(Direction), [goal], stats=sa)
            route_connection_reference(
                plane, "mine", start, list(Direction), [goal], stats=sb
            )
            total_a += sa.states_expanded
            total_b += sb.states_expanded
        assert total_a < total_b


class TestZeroLengthAcceptance:
    """Regression: the ``start in targets`` early return must apply the
    same acceptance rule as the main loop."""

    def test_foreign_wire_at_shared_point_rejects(self):
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.add_net_path("other", [Point(0, 5), Point(10, 5)])
        shared = Point(5, 5)
        for routers in (route_connection, route_connection_reference):
            r = routers(p, "mine", shared, list(Direction), [shared])
            # Every path ends at the shared point, which carries a foreign
            # wire — no legal termination exists at all.
            assert r is None

    def test_own_wire_at_shared_point_accepts(self):
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.add_net_path("mine", [Point(0, 5), Point(10, 5)])
        shared = Point(5, 5)
        r = route_connection(p, "mine", shared, list(Direction), [shared])
        assert r is not None and r.length == 0

    def test_arrival_constraint_satisfiable_accepts(self):
        p = Plane(bounds=Rect(0, 0, 10, 10))
        s = Point(5, 5)
        r = route_connection(
            p, "mine", s, [Direction.UP], {s: frozenset({Direction.UP})}
        )
        assert r is not None and r.length == 0 and r.path == [s]

    def test_arrival_constraint_unsatisfiable_forces_loop(self):
        p = Plane(bounds=Rect(0, 0, 10, 10))
        s = Point(5, 5)
        for routers in (route_connection, route_connection_reference):
            r = routers(
                p, "mine", s, [Direction.UP], {s: frozenset({Direction.DOWN})}
            )
            # Must leave upward and come back arriving downward: a real
            # loop, never the old zero-length short-circuit.
            assert r is not None
            assert r.length > 0 and r.bends > 0


class TestPrunedCounter:
    def test_stats_pruned_tracked(self):
        stats = SearchStats()
        p = _random_scene(3)
        route_connection(
            p, "mine", Point(0, 0), list(Direction), [Point(20, 20)], stats=stats
        )
        # Stale-entry skips are bookkept separately from expansions.
        assert stats.pruned >= 0
        assert stats.states_expanded > 0
