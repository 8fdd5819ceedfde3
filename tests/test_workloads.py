"""Tests for the workload generators (examples, random networks, stdlib)."""

import pytest

from repro.core.netlist import NetlistError
from repro.workloads.examples import example1_string, example2_controller
from repro.workloads.random_nets import RandomNetworkSpec, random_network
from repro.workloads.stdlib import TEMPLATES, instantiate, make_module


class TestStdlib:
    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_every_template_instantiates(self, template):
        m = instantiate(template, "inst")
        assert m.name == "inst"
        assert m.template == template
        assert m.terminals  # every template has at least one terminal

    def test_unknown_template(self):
        with pytest.raises(NetlistError, match="flux_capacitor"):
            instantiate("flux_capacitor", "x")

    def test_make_module_validates(self):
        with pytest.raises(NetlistError):
            make_module("m", 4, 4, [("t", "in", 2, 2)])  # not on outline

    def test_life_cell_terminal_count(self):
        cell = instantiate("life_cell", "c")
        names = set(cell.terminals)
        assert {f"n{k}" for k in range(8)} <= names
        assert {f"o{k}" for k in range(8)} <= names
        assert {"clk", "load", "data"} <= names


class TestExamples:
    def test_example1_counts(self):
        net = example1_string()
        assert net.stats["modules"] == 6
        assert net.stats["nets"] == 6

    def test_example2_counts(self):
        net = example2_controller()
        assert net.stats["modules"] == 16
        assert net.stats["nets"] == 24

    def test_examples_validate(self):
        example1_string().validate()
        example2_controller().validate()

    def test_example2_controller_is_hub(self):
        net = example2_controller()
        degree = {
            m: len(net.nets_of_module(m)) for m in net.modules
        }
        assert degree["ctl"] == max(degree.values())


class TestRandomNetworks:
    def test_reproducible(self):
        a = random_network(seed=5)
        b = random_network(seed=5)
        assert a.stats == b.stats
        assert {n: sorted(map(str, o.pins)) for n, o in a.nets.items()} == {
            n: sorted(map(str, o.pins)) for n, o in b.nets.items()
        }

    def test_different_seeds_differ(self):
        a = random_network(seed=1)
        b = random_network(seed=2)
        different = a.stats != b.stats or {
            n: sorted(map(str, o.pins)) for n, o in a.nets.items()
        } != {n: sorted(map(str, o.pins)) for n, o in b.nets.items()}
        assert different

    def test_sizes_respected(self):
        net = random_network(modules=15, seed=0)
        assert len(net.modules) == 15

    def test_always_valid(self):
        for seed in range(8):
            random_network(RandomNetworkSpec(modules=12, extra_nets=6, seed=seed)).validate()

    def test_overrides(self):
        net = random_network(RandomNetworkSpec(seed=3), system_terminals=0)
        assert not net.system_terminals
