"""Tests for the datapath scaling workload."""

import pytest

from repro.core.generator import generate
from repro.place.pablo import PabloOptions
from repro.workloads.datapath import datapath_network, datapath_sizes


class TestDatapath:
    def test_counts_scale(self):
        small = datapath_network(lanes=1, stages=2)
        big = datapath_network(lanes=3, stages=6)
        assert len(big.modules) > len(small.modules)
        assert len(big.nets) > len(small.nets)

    def test_structure(self):
        net = datapath_network(lanes=2, stages=3)
        # lanes*stages registers + lanes*(stages-1) muxes + controller
        assert len(net.modules) == 2 * 3 + 2 * 2 + 1
        assert "ctl" in net.modules
        net.validate()

    def test_pipeline_chain_exists(self):
        net = datapath_network(lanes=1, stages=4)
        assert net.connected("r0_0", "m0_0", "q0_0")
        assert net.connected("m0_0", "r0_1", "d0_0")

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            datapath_network(lanes=0, stages=3)
        with pytest.raises(ValueError):
            datapath_network(lanes=1, stages=1)

    def test_many_lanes_validates(self):
        datapath_network(lanes=12, stages=2).validate()

    def test_standard_sweep(self):
        nets = datapath_sizes()
        sizes = [len(n.modules) for n in nets]
        assert sizes == sorted(sizes)

    def test_small_datapath_generates(self):
        result = generate(
            datapath_network(lanes=1, stages=3),
            PabloOptions(partition_size=5, box_size=4),
        )
        assert result.metrics.nets_failed == 0

