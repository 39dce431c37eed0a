"""Tests for :mod:`repro.circuits.mna` -- the MNA assembly engine.

The checks compare assembled transfer functions against hand-computed
impedances/admittances of elementary circuits, which pins down the stamping
conventions (signs, branch currents, port semantics).
"""

import numpy as np
import pytest

from repro.circuits.elements import CurrentProbePort
from repro.circuits.mna import assemble_mna, netlist_to_descriptor
from repro.circuits.netlist import Netlist


def _z(system, f):
    return system.transfer_function(1j * 2 * np.pi * f)


class TestElementaryCircuits:
    def test_single_resistor_impedance(self):
        net = Netlist()
        net.add_resistor("a", "0", 75.0)
        net.add_port("a")
        sys_ = netlist_to_descriptor(net)
        assert _z(sys_, 1e3)[0, 0] == pytest.approx(75.0)

    def test_single_resistor_admittance_port(self):
        net = Netlist()
        net.add_resistor("a", "0", 50.0)
        net.add(CurrentProbePort("PP1", "a"))
        sys_ = netlist_to_descriptor(net)
        assert _z(sys_, 1e3)[0, 0] == pytest.approx(1.0 / 50.0)

    def test_rc_parallel_impedance(self):
        r, c = 100.0, 1e-9
        net = Netlist()
        net.add_resistor("a", "0", r)
        net.add_capacitor("a", "0", c)
        net.add_port("a")
        sys_ = netlist_to_descriptor(net)
        f = 1e6
        expected = 1.0 / (1.0 / r + 1j * 2 * np.pi * f * c)
        assert _z(sys_, f)[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_rl_series_impedance(self):
        r, ind = 10.0, 1e-6
        net = Netlist()
        net.add_resistor("a", "b", r)
        net.add_inductor("b", "0", ind)
        net.add_port("a")
        sys_ = netlist_to_descriptor(net)
        f = 1e5
        expected = r + 1j * 2 * np.pi * f * ind
        assert _z(sys_, f)[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_series_rlc_resonance(self):
        r, ind, c = 1.0, 1e-6, 1e-9
        net = Netlist()
        net.add_resistor("a", "b", r)
        net.add_inductor("b", "c", ind)
        net.add_capacitor("c", "0", c)
        net.add_port("a")
        sys_ = netlist_to_descriptor(net)
        f0 = 1.0 / (2 * np.pi * np.sqrt(ind * c))
        # at the series resonance the impedance is purely the resistance
        assert _z(sys_, f0)[0, 0] == pytest.approx(r, rel=1e-6)

    def test_two_port_voltage_divider(self):
        """Resistive divider: Z11 = R1 + R2, Z21 = Z12 = R2, Z22 = R2."""
        r1, r2 = 30.0, 70.0
        net = Netlist()
        net.add_resistor("in", "mid", r1)
        net.add_resistor("mid", "0", r2)
        net.add_port("in")
        net.add_port("mid")
        z = _z(netlist_to_descriptor(net), 1e3)
        assert z[0, 0] == pytest.approx(r1 + r2)
        assert z[0, 1] == pytest.approx(r2)
        assert z[1, 0] == pytest.approx(r2)
        assert z[1, 1] == pytest.approx(r2)

    def test_coupled_inductors_mutual_term(self):
        """Two coupled inductors to ground: Z12 = j*w*M."""
        ind, k = 1e-6, 0.5
        net = Netlist()
        net.add_inductor("a", "0", ind, name="La")
        net.add_inductor("b", "0", ind, name="Lb")
        net.add_mutual("La", "Lb", k)
        net.add_resistor("a", "0", 1e6)
        net.add_resistor("b", "0", 1e6)
        net.add_port("a")
        net.add_port("b")
        f = 1e5
        z = _z(netlist_to_descriptor(net), f)
        expected_mutual = 1j * 2 * np.pi * f * k * ind
        assert z[0, 1] == pytest.approx(expected_mutual, rel=1e-3)
        assert z[1, 0] == pytest.approx(expected_mutual, rel=1e-3)

    def test_reciprocity_of_passive_network(self, rng):
        """Passive RLC networks have symmetric impedance matrices."""
        net = Netlist()
        net.add_resistor("a", "b", 5.0)
        net.add_inductor("b", "c", 2e-9)
        net.add_capacitor("c", "0", 1e-12)
        net.add_capacitor("a", "0", 2e-12)
        net.add_resistor("c", "0", 1e3)
        net.add_port("a")
        net.add_port("c")
        z = _z(netlist_to_descriptor(net), 3e8)
        assert np.allclose(z, z.T, rtol=1e-9)


class TestMnaMetadata:
    def test_state_and_port_bookkeeping(self):
        net = Netlist()
        net.add_resistor("a", "b", 1.0)
        net.add_inductor("b", "0", 1e-9)
        net.add_capacitor("a", "0", 1e-12)
        net.add_port("a")
        net.add(CurrentProbePort("PP1", "b"))
        mna = assemble_mna(net)
        assert mna.node_names == ("a", "b")
        assert mna.inductor_names == ("L1",)
        assert mna.port_names == ("P1", "PP1")
        assert mna.port_kinds == ("Z", "Y")
        assert mna.parameter_kind == "hybrid"
        # states: 2 nodes + 1 inductor current + 1 voltage-port current
        assert mna.system.order == 4

    def test_parameter_kind_pure(self):
        net = Netlist()
        net.add_resistor("a", "0", 1.0)
        net.add_port("a")
        assert assemble_mna(net).parameter_kind == "Z"

    def test_invalid_netlist_raises(self):
        net = Netlist()
        net.add_resistor("a", "0", 1.0)
        with pytest.raises(ValueError):
            assemble_mna(net)

    def test_hermitian_positive_real_part(self):
        """A passive RLC network's impedance has positive-semidefinite Hermitian part."""
        net = Netlist()
        net.add_resistor("a", "b", 2.0)
        net.add_inductor("b", "0", 1e-9)
        net.add_capacitor("a", "0", 1e-12)
        net.add_resistor("a", "0", 100.0)
        net.add_port("a")
        sys_ = netlist_to_descriptor(net)
        for f in (1e6, 1e8, 1e9):
            z = _z(sys_, f)
            herm = 0.5 * (z + z.conj().T)
            assert np.min(np.linalg.eigvalsh(herm)) >= -1e-9
