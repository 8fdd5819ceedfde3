"""Tests for gravity placement (generic), box/partition placement and
terminal placement."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.diagram import Diagram
from repro.core.geometry import Point, Rect
from repro.core.netlist import Network, TermType
from repro.core.validate import placement_violations
from repro.place.box_place import place_partition
from repro.place.boxes import form_boxes
from repro.place.gravity import GravityItem, _nearest_free_position, place_by_gravity
from repro.place.module_place import place_box
from repro.place.pablo import PabloOptions, place_network
from repro.place.terminal_place import place_terminals
from repro.workloads import datapath_network
from repro.workloads.examples import example1_string, example2_controller
from repro.workloads.life import life_network
from repro.workloads.stdlib import instantiate


def _rects(items, positions):
    by_key = {i.key: i for i in items}
    return {
        k: Rect(p.x, p.y, by_key[k].width, by_key[k].height)
        for k, p in positions.items()
    }


class TestPlaceByGravity:
    def test_first_item_is_heaviest(self):
        items = [
            GravityItem("small", 2, 2, weight=1),
            GravityItem("big", 4, 4, weight=5),
        ]
        pos = place_by_gravity(items)
        assert pos["big"] == Point(0, 0)

    def test_no_overlap(self):
        items = [
            GravityItem(f"i{k}", 5, 5, net_points={"n": [Point(0, 0)]}, weight=1)
            for k in range(6)
        ]
        pos = place_by_gravity(items)
        rects = list(_rects(items, pos).values())
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.overlaps(b)

    def test_spacing_respected(self):
        items = [
            GravityItem("a", 4, 4, net_points={"n": [Point(4, 2)]}, weight=2),
            GravityItem("b", 4, 4, net_points={"n": [Point(0, 2)]}, weight=1),
        ]
        pos = place_by_gravity(items, spacing=3)
        ra, rb = _rects(items, pos).values()
        gap_x = max(rb.x - ra.x2, ra.x - rb.x2)
        gap_y = max(rb.y - ra.y2, ra.y - rb.y2)
        assert max(gap_x, gap_y) >= 3

    def test_connected_items_attract(self):
        # c is connected to a; d is not. c must end up nearer to a.
        items = [
            GravityItem("a", 4, 4, net_points={"n": [Point(2, 2)]}, weight=10),
            GravityItem("c", 2, 2, net_points={"n": [Point(1, 1)]}),
            GravityItem("d", 2, 2, net_points={}),
        ]
        pos = place_by_gravity(items)
        da = pos["c"].manhattan(pos["a"])
        dd = pos["d"].manhattan(pos["a"])
        assert da <= dd

    def test_preplaced_stay_fixed(self):
        items = [
            GravityItem("fixed", 4, 4, net_points={"n": [Point(2, 2)]}),
            GravityItem("new", 2, 2, net_points={"n": [Point(1, 1)]}),
        ]
        pos = place_by_gravity(items, preplaced={"fixed": Point(50, 50)})
        assert pos["fixed"] == Point(50, 50)
        assert pos["new"].manhattan(Point(50, 50)) < 30

    def test_preplaced_unknown_key(self):
        with pytest.raises(KeyError):
            place_by_gravity(
                [GravityItem("a", 1, 1)], preplaced={"ghost": Point(0, 0)}
            )


# -- nearest free position vs the ring-probe oracle ----------------------


def _oracle_feasible(pos, item, placed_rects, spacing):
    candidate = Rect(
        pos.x - spacing, pos.y - spacing, item.width + 2 * spacing, item.height + 2 * spacing
    )
    return not any(candidate.overlaps(r) for r in placed_rects)


def _oracle_ring(center, radius):
    x, y = center
    for dx in range(-radius, radius + 1):
        yield Point(x + dx, y + radius)
        yield Point(x + dx, y - radius)
    for dy in range(-radius + 1, radius):
        yield Point(x + radius, y + dy)
        yield Point(x - radius, y + dy)


def _oracle_nearest_free_position(ideal, item, placed_rects, spacing):
    """Probe every point of growing Chebyshev rings against every placed
    rect; the first feasible point at the least distance wins."""
    if _oracle_feasible(ideal, item, placed_rects, spacing):
        return ideal
    extent = sum(
        max(r.w, r.h) + max(item.width, item.height) + spacing + 2 for r in placed_rects
    )
    for radius in range(1, max(extent, 8) + 1):
        best = best_d = None
        for p in _oracle_ring(ideal, radius):
            if _oracle_feasible(p, item, placed_rects, spacing):
                d = (p.x - ideal.x) ** 2 + (p.y - ideal.y) ** 2
                if best_d is None or d < best_d:
                    best, best_d = p, d
        if best is not None:
            return best
    raise AssertionError("oracle found no free position")


_coords = st.integers(-12, 12)
_rect_st = st.builds(Rect, _coords, _coords, st.integers(0, 7), st.integers(0, 7))


class TestNearestFreePosition:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(_rect_st, max_size=8),
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(0, 3),
        st.builds(Point, st.integers(-16, 16), st.integers(-16, 16)),
    )
    def test_matches_ring_probe_oracle(self, rects, w, h, spacing, ideal):
        item = GravityItem("x", w, h)
        assert _nearest_free_position(ideal, item, rects, spacing) == (
            _oracle_nearest_free_position(ideal, item, rects, spacing)
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_rect_st, min_size=1, max_size=6), st.integers(0, 3), st.data())
    def test_matches_oracle_from_inside_an_obstacle(self, rects, spacing, data):
        # Aim at a point of a placed rect, so the ideal itself is taken.
        r = data.draw(st.sampled_from(rects))
        ideal = Point(data.draw(st.integers(r.x, r.x2)), data.draw(st.integers(r.y, r.y2)))
        item = GravityItem("x", data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
        assert _nearest_free_position(ideal, item, rects, spacing) == (
            _oracle_nearest_free_position(ideal, item, rects, spacing)
        )

    def test_ties_follow_ring_scan_order(self):
        # A point item: Rect(-1, -1, 2, 2) forbids only (0, 0).  Of the
        # four ring-1 points at distance 1, the top row comes first.
        item = GravityItem("x", 0, 0)
        taken = Rect(-1, -1, 2, 2)
        assert _nearest_free_position(Point(0, 0), item, [taken], 0) == Point(0, 1)
        # With (0, 1) and (0, -1) taken too, the side columns tie and the
        # right one comes first.
        rects = [taken, Rect(-1, 0, 2, 2), Rect(-1, -2, 2, 2)]
        assert _nearest_free_position(Point(0, 0), item, rects, 0) == Point(1, 0)


def _placement_hash(diagram) -> str:
    canon = {
        "m": {
            name: [pm.position.x, pm.position.y, pm.rotation.name]
            for name, pm in sorted(diagram.placements.items())
        },
        "t": {name: [p.x, p.y] for name, p in sorted(diagram.terminal_positions.items())},
    }
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()[:16]


class TestPabloPlacementPins:
    """Whole-PABLO placements pinned before the interval sweep replaced
    the ring probe: a change to gravity placement that moves any module
    or system terminal shows up here."""

    @pytest.mark.parametrize(
        "name, build, options, want",
        [
            ("example1", example1_string, PabloOptions(), "c7ff44e15d5a4259"),
            ("example2", example2_controller, PabloOptions(), "f3d4c7a5126718b6"),
            (
                "datapath 2x3",
                lambda: datapath_network(lanes=2, stages=3),
                PabloOptions(),
                "8c9bb77e5fe0123d",
            ),
            (
                "LIFE -p7 -b5",
                life_network,
                PabloOptions(partition_size=7, box_size=5),
                "f90ce7377c73443d",
            ),
        ],
    )
    def test_placement_hash(self, name, build, options, want):
        diagram, _ = place_network(build(), options)
        assert _placement_hash(diagram) == want, name


class TestPartitionPlacement:
    def test_boxes_do_not_overlap(self, example2):
        parts = [sorted(example2.modules)]
        boxes = form_boxes(example2, parts[0], max_box_size=5)
        layouts = [place_box(example2, b) for b in boxes]
        layout = place_partition(example2, layouts)
        d = Diagram(example2)
        for pos, (box, origin) in zip(
            layout.box_positions, zip(layout.boxes, layout.box_positions)
        ):
            pass
        for module, (pos, rot) in layout.module_placements().items():
            d.place_module(module, pos, rot)
        assert placement_violations(d) == []

    def test_layout_normalised_to_origin(self, example2):
        boxes = form_boxes(example2, sorted(example2.modules), max_box_size=3)
        layouts = [place_box(example2, b) for b in boxes]
        layout = place_partition(example2, layouts)
        assert min(p.x for p in layout.box_positions) == 0
        assert min(p.y for p in layout.box_positions) == 0
        assert layout.width > 0 and layout.height > 0

    def test_net_points_translated(self, example2):
        boxes = form_boxes(example2, sorted(example2.modules), max_box_size=3)
        layouts = [place_box(example2, b) for b in boxes]
        layout = place_partition(example2, layouts)
        pts = layout.net_points(example2)
        assert pts  # every connected terminal appears
        for plist in pts.values():
            for p in plist:
                assert 0 <= p.x <= layout.width
                assert 0 <= p.y <= layout.height


class TestTerminalPlacement:
    def test_on_ring_and_free(self, two_buffer_network):
        d = Diagram(two_buffer_network)
        d.place_module("u0", Point(0, 0))
        d.place_module("u1", Point(8, 0))
        place_terminals(d)
        assert set(d.terminal_positions) == {"din", "dout"}
        bbox = Rect(0, 0, 11, 2).expand(1)
        for pos in d.terminal_positions.values():
            on_ring = (
                pos.x in (bbox.x, bbox.x2) and bbox.y <= pos.y <= bbox.y2
            ) or (pos.y in (bbox.y, bbox.y2) and bbox.x <= pos.x <= bbox.x2)
            assert on_ring
        assert placement_violations(d) == []

    def test_input_lands_left_output_right(self, two_buffer_network):
        d = Diagram(two_buffer_network)
        d.place_module("u0", Point(0, 0))
        d.place_module("u1", Point(8, 0))
        place_terminals(d)
        # Rule 4: din connects to u0.a on the left, dout to u1.y right.
        assert d.terminal_positions["din"].x < d.terminal_positions["dout"].x

    def test_existing_positions_kept(self, two_buffer_network):
        d = Diagram(two_buffer_network)
        d.place_module("u0", Point(0, 0))
        d.place_module("u1", Point(8, 0))
        d.place_system_terminal("din", Point(-7, 0))
        place_terminals(d)
        assert d.terminal_positions["din"] == Point(-7, 0)

    def test_no_terminals_no_op(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        d = Diagram(net)
        d.place_module("u", Point(0, 0))
        place_terminals(d)
        assert d.terminal_positions == {}

    def test_unconnected_terminal_still_placed(self):
        net = Network()
        net.add_module(instantiate("buf", "u"))
        net.add_system_terminal("spare", TermType.IN)
        d = Diagram(net)
        d.place_module("u", Point(0, 0))
        place_terminals(d)
        assert "spare" in d.terminal_positions
