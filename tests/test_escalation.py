"""Tests for the escalated search: the exact bend-distance BFS and the
bound built on it.

* identity gate — a workload whose connections escalate keeps every
  connection at the reference optimum, with its search effort and routes
  pinned: a start whose bound already says two or more bends escalates
  before the first pop, any other start after the pop budget,
* :func:`~repro.route.line_expansion.bend_distance` equals a brute-force
  0-1 BFS over ``(point, axis)`` states on random small planes,
* the O(1) form of the escalated bound equals the full combination of the
  geometric bound and the BFS distance on every state.
"""

import hashlib
import json
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import Direction, Point, Rect
from repro.obs import counters
from repro.place.pablo import PabloOptions, place_network
from repro.route import RouterOptions, route_diagram
from repro.route.line_expansion import (
    _ESCALATE_AFTER,
    _START_ESCALATION_MAX_CELLS,
    UNREACHED,
    CostOrder,
    SearchStats,
    _Bounds,
    _unpack,
    bend_distance,
    goal_states,
    route_connection,
)
from repro.route.plane import Plane
from repro.route.reference import ReferenceSnapshot
from repro.workloads import datapath_network


def _route_digest(diagram) -> str:
    """Hash of every net's sorted paths (the benchmark's route digest)."""
    canon = {
        name: sorted([[list(p) for p in path] for path in route.paths])
        for name, route in sorted(diagram.routes.items())
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestEscalationIdentityGate:
    def test_datapath_routes_and_effort_unchanged(self):
        diagram, _ = place_network(datapath_network(lanes=3, stages=6), PabloOptions())
        counters.get_registry().reset()
        report = route_diagram(diagram, RouterOptions(verify_optimum=True))
        snap = counters.get_registry().snapshot()
        data = snap.get("counters", snap)
        assert report.nets_routed == report.nets_total == 40
        assert data.get("route.verified_connections") == 70
        assert data.get("route.verify_mismatch", 0) == 0
        # Any change in heap order, bound or escalation rule shows up
        # here.  Escalating at the start picks other optimal routes than
        # restarting after the budget did, so the digest is this rule's.
        assert data.get("route.heur_escalations") == 46
        assert data.get("route.expansions") == 9_502
        assert _route_digest(diagram) == "ab5e7f5773f9beec"
        rows = report.search.connections
        assert sum(1 for r in rows if r["escalated"]) == 46
        assert all(r["bfs_s"] > 0 for r in rows if r["escalated"])
        assert all(r["bfs_s"] == 0 for r in rows if not r["escalated"])
        # A start bound of two or more bends escalates before the first
        # pop and discards nothing; a budget restart discards exactly the
        # budget.
        assert all(r["bound"][0] < 2 for r in rows if not r["escalated"])
        at_start = [r for r in rows if r["escalated"] and r["bound"][0] >= 2]
        restarts = [r for r in rows if r["escalated"] and r["bound"][0] < 2]
        assert (len(at_start), len(restarts)) == (44, 2)
        assert all(r["discarded_pops"] == 0 for r in at_start)
        assert all(r["discarded_pops"] == _ESCALATE_AFTER for r in restarts)
        assert all(r["discarded_pops"] == 0 for r in rows if not r["escalated"])
        assert data.get("route.escalation_discarded_pops") == 2 * _ESCALATE_AFTER


@pytest.mark.parametrize("size, at_start", [(32, True), (300, False)])
def test_start_escalation_only_on_planes_with_cheap_bfs(size, at_start):
    # Leaving (10, 10) to the left with the target up and to the right:
    # the start bound says two bends.
    plane = Plane(bounds=Rect(0, 0, size - 1, size - 1))
    assert (len(plane.index.view("n").bend) <= _START_ESCALATION_MAX_CELLS) is at_start
    stats = SearchStats()
    result = route_connection(
        plane, "n", Point(10, 10), [Direction.LEFT], [Point(20, 20)], stats=stats
    )
    assert result is not None and result.bends == 2
    (row,) = stats.connections
    assert row["bound"][0] == 2
    assert row["escalated"] is at_start
    assert row["discarded_pops"] == 0


# -- random small planes ---------------------------------------------------

W = H = 10


@st.composite
def scenes(draw):
    """A small plane with modules, foreign and own wires and claims, plus
    a target map with random arrival constraints."""
    plane = Plane(bounds=Rect(0, 0, W - 1, H - 1))
    coord = st.integers(0, W - 1)
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(coord), draw(coord)
        plane.block_rect(Rect(x, y, draw(st.integers(0, 2)), draw(st.integers(0, 2))))
    for i in range(draw(st.integers(0, 4))):
        a = Point(draw(coord), draw(coord))
        b = Point(draw(coord), a.y)
        c = Point(b.x, draw(coord))
        plane.add_net_path(draw(st.sampled_from(["own", f"f{i}"])), [a, b, c])
    for j in range(draw(st.integers(0, 3))):
        plane.add_claim(Point(draw(coord), draw(coord)), f"c{j}")
    targets = {}
    for _ in range(draw(st.integers(1, 3))):
        dirs = draw(
            st.one_of(
                st.none(),
                st.frozensets(st.sampled_from(list(Direction)), min_size=1),
            )
        )
        targets[Point(draw(coord), draw(coord))] = dirs
    allow = frozenset(targets) | frozenset(
        draw(st.lists(st.builds(Point, coord, coord), max_size=2))
    )
    return plane, targets, allow


def _brute_force(plane, targets, allow):
    """0-1 BFS over ``(point, axis)`` states off the pre-index snapshot:
    moving along the axis into a passable point is free, switching axis at
    a point free of foreign wire costs one bend."""
    snap = ReferenceSnapshot(plane, "own", allow)
    blocked = (snap.blocked_h, snap.blocked_v)

    def valid(p, axis):
        inside = 0 <= p[0] < W and 0 <= p[1] < H
        return inside and p not in snap.hard and p not in blocked[axis]

    def bendable(p):
        return p not in snap.foreign_any

    dist = {}
    queue = deque()
    for p, dirs in targets.items():
        if not bendable(p):
            continue
        arrivals = list(Direction) if dirs is None else dirs
        for axis in (0, 1):
            if valid(p, axis) and any((d.dy == 0) == (axis == 0) for d in arrivals):
                dist[(p, axis)] = 0
                queue.append((p, axis))
    while queue:
        p, axis = queue.popleft()
        d = dist[(p, axis)]
        steps = ((1, 0), (-1, 0)) if axis == 0 else ((0, 1), (0, -1))
        for dx, dy in steps:
            q = (p[0] + dx, p[1] + dy)
            if valid(q, axis) and dist.get((q, axis), UNREACHED) > d:
                dist[(q, axis)] = d
                queue.appendleft((q, axis))
        other = 1 - axis
        if bendable(p) and valid(p, other) and dist.get((p, other), UNREACHED) > d + 1:
            dist[(p, other)] = d + 1
            queue.append((p, other))
    return dist


class TestBendDistance:
    @settings(max_examples=150, deadline=None)
    @given(scenes())
    def test_matches_brute_force_01_bfs(self, scene):
        plane, targets, allow = scene
        view = plane.index.view("own", allow)
        _, seeds_h, seeds_v = goal_states(view, targets)
        dist_h, dist_v = bend_distance(view, seeds_h, seeds_v)
        want = _brute_force(plane, targets, allow)
        for x in range(W):
            for y in range(H):
                i = plane.index.at(x, y)
                assert dist_h[i] == want.get(((x, y), 0), UNREACHED), (x, y, "h")
                assert dist_v[i] == want.get(((x, y), 1), UNREACHED), (x, y, "v")


class TestEscalatedBound:
    @settings(max_examples=100, deadline=None)
    @given(scenes(), st.sampled_from(list(CostOrder)))
    def test_constant_time_bound_equals_full_combination(self, scene, order):
        plane, targets, allow = scene
        view = plane.index.view("own", allow)
        _, seeds_h, seeds_v = goal_states(view, targets)
        crossings_first = order is CostOrder.BENDS_CROSSINGS_LENGTH
        bounds = _Bounds(view, targets, crossings_first)
        bounds.escalate(seeds_h, seeds_v)
        dist_h, dist_v = bend_distance(view, seeds_h, seeds_v)
        for x in range(W):
            for y in range(H):
                q = plane.index.at(x, y)
                for di in range(4):
                    straight, turn = (dist_h, dist_v) if di < 2 else (dist_v, dist_h)
                    cands = [straight[q]]
                    if view.bend[q]:
                        cands.append(turn[q] + 1)
                    cand = min(cands)
                    hb, second, third = _unpack(bounds.geometric(q, di))
                    if cand >= UNREACHED:
                        want = None
                    elif cand > hb:
                        # (cand, 0 crossings, length) in key order.
                        want = (cand, 0, third) if crossings_first else (cand, second, 0)
                    else:
                        want = (hb, second, third)
                    got = bounds.exact(q, di)
                    assert (None if got is None else _unpack(got)) == want, (x, y, di)
