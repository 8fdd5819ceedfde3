"""Tests for the EUREKA routing driver: multipoint nets, claimpoints,
prerouted nets, the retry pass and the driver options."""

import pytest

from repro.core.diagram import Diagram
from repro.core.geometry import Point, Side
from repro.core.metrics import diagram_metrics
from repro.core.netlist import Network, TermType
from repro.core.validate import check_diagram, connectivity_matches_netlist
from repro.place.pablo import PabloOptions, place_network
from repro.route.eureka import RouterOptions, route_diagram
from repro.route.line_expansion import CostOrder
from repro.workloads import (
    datapath_network,
    example1_string,
    example2_controller,
    random_network,
)
from repro.workloads.stdlib import instantiate, make_module


class TestSimpleRouting:
    def test_two_buffer_chain(self, two_buffer_diagram):
        report = route_diagram(two_buffer_diagram)
        assert report.nets_routed == report.nets_total == 3
        check_diagram(two_buffer_diagram)
        assert connectivity_matches_netlist(two_buffer_diagram)

    def test_report_fields(self, two_buffer_diagram):
        report = route_diagram(two_buffer_diagram)
        assert report.success_rate == 1.0
        assert report.seconds >= 0
        assert report.search.routes >= 3
        assert report.claims_placed > 0

    def test_idempotent_on_routed_diagram(self, two_buffer_diagram):
        route_diagram(two_buffer_diagram)
        before = diagram_metrics(two_buffer_diagram)
        report = route_diagram(two_buffer_diagram)
        assert report.nets_total == 0  # everything already routed
        assert diagram_metrics(two_buffer_diagram) == before


class TestMultipoint:
    @pytest.fixture
    def fanout_diagram(self) -> Diagram:
        net = Network(name="fanout")
        net.add_module(instantiate("buf", "src"))
        for i in range(3):
            net.add_module(instantiate("buf", f"dst{i}"))
        net.connect("fan", "src.y", "dst0.a", "dst1.a", "dst2.a")
        d = Diagram(net)
        d.place_module("src", Point(0, 6))
        d.place_module("dst0", Point(10, 0))
        d.place_module("dst1", Point(10, 6))
        d.place_module("dst2", Point(10, 12))
        return d

    def test_fanout_routes_as_tree(self, fanout_diagram):
        report = route_diagram(fanout_diagram)
        assert report.nets_routed == 1
        route = fanout_diagram.routes["fan"]
        assert len(route.paths) == 3  # init pair + two expansions
        check_diagram(fanout_diagram)
        assert connectivity_matches_netlist(fanout_diagram)

    def test_branch_nodes_counted(self, fanout_diagram):
        route_diagram(fanout_diagram)
        m = diagram_metrics(fanout_diagram)
        assert m.branch_nodes >= 1


class TestPrerouted:
    def test_prerouted_net_kept(self, two_buffer_diagram):
        path = [
            Point(3, 1),
            Point(5, 1),
            Point(5, 4),
            Point(7, 4),
            Point(7, 1),
            Point(8, 1),
        ]
        two_buffer_diagram.route_for("n_mid").add_path(path)
        report = route_diagram(two_buffer_diagram)
        assert report.nets_total == 2  # n_mid already complete
        assert two_buffer_diagram.routes["n_mid"].paths == [path]
        check_diagram(two_buffer_diagram)

    def test_partial_preroute_extended(self):
        net = Network(name="partial")
        net.add_module(instantiate("buf", "src"))
        net.add_module(instantiate("buf", "a"))
        net.add_module(instantiate("buf", "b"))
        net.connect("fan", "src.y", "a.a", "b.a")
        d = Diagram(net)
        d.place_module("src", Point(0, 4))
        d.place_module("a", Point(10, 0))
        d.place_module("b", Point(10, 8))
        # Preroute src -> a only; the router must add the b branch.
        d.route_for("fan").add_path([Point(3, 5), Point(6, 5), Point(6, 1), Point(10, 1)])
        report = route_diagram(d)
        assert report.nets_routed == 1
        check_diagram(d)
        assert connectivity_matches_netlist(d)


class TestClaimpoints:
    @pytest.fixture
    def walled_network(self) -> Diagram:
        """Figure 5.10: terminals that a greedy first net would wall in.

        Modules MO and M1 face each other across a 2-track channel; nets
        A-B and C-D both cross the channel.  Without claims, A-B may take
        the track in front of C, making C-D unroutable.
        """
        net = Network(name="walled")
        net.add_module(
            make_module("MO", 4, 6, [("A", "out", 4, 5), ("C", "out", 4, 2)])
        )
        net.add_module(
            make_module("M1", 4, 6, [("B", "in", 0, 5), ("D", "in", 0, 1)])
        )
        net.connect("nAB", "MO.A", "M1.B")
        net.connect("nCD", "MO.C", "M1.D")
        d = Diagram(net)
        d.place_module("MO", Point(0, 0))
        d.place_module("M1", Point(7, 0))
        return d

    def test_claims_placed_and_released(self, walled_network):
        report = route_diagram(walled_network, RouterOptions(claimpoints=True))
        assert report.claims_placed >= 2
        assert report.nets_routed == 2
        check_diagram(walled_network)

    def test_retry_pass_rescues_after_claims_released(self, walled_network):
        # Even with claims off, the final retry (all claims gone) plus the
        # exhaustive search routes this tiny case; what we assert here is
        # that the option plumbing works and the result is legal.
        report = route_diagram(
            walled_network, RouterOptions(claimpoints=False, retry_failed=True)
        )
        assert report.nets_routed + report.nets_failed == 2
        check_diagram(walled_network)


class TestOptions:
    def test_fixed_sides_clamp_plane(self, two_buffer_diagram):
        report = route_diagram(
            two_buffer_diagram,
            RouterOptions(fixed_sides=frozenset({Side.UP, Side.DOWN}), margin=6),
        )
        assert report.nets_routed == 3
        bbox = two_buffer_diagram.bounding_box(include_routes=False)
        for route in two_buffer_diagram.routes.values():
            for path in route.paths:
                for p in path:
                    assert bbox.y <= p.y <= bbox.y2

    def test_swap_option_constructor(self):
        opts = RouterOptions().with_swap_option()
        assert opts.cost_order is CostOrder.BENDS_LENGTH_CROSSINGS

    def test_net_order_variants(self, two_buffer_diagram):
        for order in ("input", "shortest_first", "fewest_pins_first"):
            d = two_buffer_diagram.copy_placement()
            report = route_diagram(d, RouterOptions(net_order=order))
            assert report.nets_routed == 3

    def test_impossible_net_reported(self):
        net = Network(name="boxed")
        net.add_module(make_module("a", 2, 2, [("y", "out", 2, 1)]))
        net.add_module(make_module("b", 2, 2, [("x", "in", 0, 1)]))
        net.add_module(make_module("wall", 2, 30, [("w", "in", 0, 15)]))
        net.connect("n", "a.y", "b.x")
        net.connect("nw", "wall.w", "a.y")
        d = Diagram(net)
        d.place_module("a", Point(0, 14))
        d.place_module("b", Point(20, 14))
        d.place_module("wall", Point(10, 0))
        # With all four borders pinned to the bounding box, the wall tops
        # out at the plane border: b is unreachable from a.
        report = route_diagram(
            d,
            RouterOptions(fixed_sides=frozenset(Side), margin=0),
        )
        assert "n" in report.failed_nets
        assert report.retried_nets  # the retry pass ran and still failed


WORKLOADS = {
    "example1": example1_string,
    "example2": example2_controller,
    "random": lambda: random_network(modules=14, extra_nets=6, seed=7),
    "datapath": lambda: datapath_network(lanes=2, stages=4),
}


class TestPostconditions:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize(
        "order", [CostOrder.BENDS_CROSSINGS_LENGTH, CostOrder.BENDS_LENGTH_CROSSINGS]
    )
    def test_routed_workload_is_valid(self, workload, order):
        diagram, _ = place_network(WORKLOADS[workload](), PabloOptions())
        report = route_diagram(diagram, RouterOptions(cost_order=order))
        assert report.nets_routed + report.nets_failed == report.nets_total
        check_diagram(diagram)
        # Every fully routed net connects exactly its own pins.
        assert connectivity_matches_netlist(diagram)
