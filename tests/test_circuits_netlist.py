"""Tests for :mod:`repro.circuits.elements` and :mod:`repro.circuits.netlist`."""

import pytest

from repro.circuits.elements import (
    Capacitor,
    CurrentProbePort,
    Inductor,
    MutualInductance,
    Port,
    Resistor,
)
from repro.circuits.netlist import Netlist


class TestElements:
    def test_resistor_positive_value(self):
        with pytest.raises(ValueError):
            Resistor("R1", "a", "b", -1.0)

    def test_capacitor_positive_value(self):
        with pytest.raises(ValueError):
            Capacitor("C1", "a", "b", 0.0)

    def test_inductor_positive_value(self):
        with pytest.raises(ValueError):
            Inductor("L1", "a", "b", -1e-9)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Resistor("R1", "a", "a", 1.0)

    def test_mutual_coupling_range(self):
        with pytest.raises(ValueError):
            MutualInductance("K1", "L1", "L2", 1.5)
        with pytest.raises(ValueError):
            MutualInductance("K1", "L1", "L1", 0.5)

    def test_port_terminals_distinct(self):
        with pytest.raises(ValueError):
            Port("P1", "a", "a")

    def test_port_reference_impedance_positive(self):
        with pytest.raises(ValueError):
            Port("P1", "a", "0", reference_impedance=-50.0)

    def test_nodes_property(self):
        r = Resistor("R1", "a", "b", 1.0)
        assert r.nodes == ("a", "b")
        p = Port("P1", "x", "0")
        assert p.nodes == ("x", "0")


class TestNetlist:
    def test_builder_methods_autoname(self):
        net = Netlist()
        net.add_resistor("a", "0", 10.0)
        net.add_capacitor("a", "0", 1e-12)
        net.add_inductor("a", "b", 1e-9)
        net.add_port("a")
        assert len(net) == 4
        names = [e.name for e in net]
        assert names == ["R1", "C1", "L1", "P1"]

    def test_duplicate_name_rejected(self):
        net = Netlist()
        net.add_resistor("a", "0", 1.0, name="R1")
        with pytest.raises(ValueError):
            net.add_resistor("b", "0", 1.0, name="R1")

    def test_nodes_exclude_ground(self):
        net = Netlist()
        net.add_resistor("a", "0", 1.0)
        net.add_resistor("a", "b", 1.0)
        assert net.nodes == ("a", "b")

    def test_node_index_order(self):
        net = Netlist()
        net.add_resistor("x", "y", 1.0)
        net.add_resistor("y", "z", 1.0)
        assert net.node_index() == {"x": 0, "y": 1, "z": 2}

    def test_ports_and_inductor_views(self):
        net = Netlist()
        net.add_inductor("a", "0", 1e-9)
        net.add_port("a")
        net.add(CurrentProbePort("PP1", "a"))
        assert len(net.ports) == 2
        assert len(net.inductors) == 1
        assert net.n_ports == 2
        assert isinstance(net.ports[1], CurrentProbePort)

    def test_validate_requires_port(self):
        net = Netlist()
        net.add_resistor("a", "0", 1.0)
        with pytest.raises(ValueError, match="no ports"):
            net.validate()

    def test_validate_mutual_references(self):
        net = Netlist()
        net.add_inductor("a", "0", 1e-9, name="L1")
        net.add_mutual("L1", "L2", 0.5)
        net.add_port("a")
        with pytest.raises(ValueError, match="unknown inductor"):
            net.validate()

    def test_validate_floating_port(self):
        net = Netlist()
        net.add_resistor("a", "0", 1.0)
        net.add_port("floating")
        with pytest.raises(ValueError, match="not connected"):
            net.validate()

    def test_validate_passes_for_consistent_netlist(self):
        net = Netlist()
        net.add_resistor("a", "0", 1.0)
        net.add_port("a")
        net.validate()

    def test_add_rejects_non_element(self):
        net = Netlist()
        with pytest.raises(TypeError):
            net.add("not an element")

    def test_summary_mentions_counts(self):
        net = Netlist(title="demo")
        net.add_resistor("a", "0", 1.0)
        net.add_port("a")
        text = net.summary()
        assert "demo" in text
        assert "1 Resistor" in text
