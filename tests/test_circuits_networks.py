"""Tests for the RLC network, transmission-line and PDN generators."""

import numpy as np
import pytest

from repro.circuits.mna import netlist_to_descriptor
from repro.circuits.pdn import PdnConfiguration, build_pdn_netlist, power_distribution_network
from repro.circuits.rlc_networks import coupled_rlc_lines, rlc_grid, rlc_ladder
from repro.circuits.transmission_line import lumped_transmission_line
from repro.systems.analysis import spectral_abscissa


def _ladder_dc_impedance(n_sections, resistance, conductance):
    """``(z_in, z_transfer)`` of :func:`rlc_ladder` at DC, by the ladder recursion.

    At DC the inductors short and the capacitors open, which leaves the
    series resistors with a leakage conductance to ground at every node
    after the input.
    """
    node = [1.0 / conductance]  # impedance to ground at each shunt node, far end first
    for _ in range(n_sections - 1):
        node.insert(0, 1.0 / (conductance + 1.0 / (resistance + node[0])))
    transfer = node[0]
    for z in node[1:]:
        transfer *= z / (resistance + z)
    return resistance + node[0], transfer


class TestLadders:
    def test_rlc_ladder_ports_and_dc(self):
        sys_ = netlist_to_descriptor(rlc_ladder(5))
        assert sys_.n_ports == 2
        z = sys_.transfer_function(0.0)
        z_in, z_transfer = _ladder_dc_impedance(5, 1.0, 1e-6)
        assert z[0, 0] == pytest.approx(z_in, rel=1e-9)
        assert z[1, 0] == pytest.approx(z_transfer, rel=1e-9)
        assert z[0, 1] == pytest.approx(z_transfer, rel=1e-9)

    def test_rlc_ladder_single_port(self):
        sys_ = netlist_to_descriptor(rlc_ladder(3, two_port=False))
        assert sys_.n_ports == 1
        z_in, _ = _ladder_dc_impedance(3, 1.0, 1e-6)
        assert sys_.transfer_function(0.0)[0, 0] == pytest.approx(z_in, rel=1e-9)

    def test_rlc_ladder_resistance_and_leakage_set_dc_impedance(self):
        net = rlc_ladder(4, resistance=10.0, conductance=1e-2)
        z = netlist_to_descriptor(net).transfer_function(0.0)
        z_in, z_transfer = _ladder_dc_impedance(4, 10.0, 1e-2)
        assert z[0, 0] == pytest.approx(z_in, rel=1e-9)
        assert z[1, 0] == pytest.approx(z_transfer, rel=1e-9)

    def test_rlc_ladder_stable(self):
        sys_ = netlist_to_descriptor(rlc_ladder(6))
        assert spectral_abscissa(sys_) < 0

    def test_rlc_ladder_order_scales_with_sections(self):
        small = netlist_to_descriptor(rlc_ladder(3))
        large = netlist_to_descriptor(rlc_ladder(9))
        assert large.order > small.order

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            rlc_ladder(0)
        with pytest.raises(ValueError):
            rlc_ladder(3, resistance=-1.0)


class TestCoupledAndGrid:
    def test_coupled_lines_port_count(self):
        net = coupled_rlc_lines(3, 4)
        assert netlist_to_descriptor(net).n_ports == 6

    def test_coupled_lines_have_crosstalk(self):
        net = coupled_rlc_lines(2, 5)
        sys_ = netlist_to_descriptor(net)
        z = sys_.transfer_function(1j * 2 * np.pi * 1e9)
        # port 0 is line-0 near end, port 2 is line-1 near end: coupling is nonzero
        assert abs(z[2, 0]) > 0

    def test_grid_default_ports_at_corners(self):
        net = rlc_grid(3, 4)
        assert netlist_to_descriptor(net).n_ports == 4

    def test_grid_custom_ports(self):
        net = rlc_grid(3, 3, port_nodes=[(0, 0), (1, 1)])
        assert netlist_to_descriptor(net).n_ports == 2

    def test_grid_rejects_out_of_range_port(self):
        with pytest.raises(ValueError):
            rlc_grid(2, 2, port_nodes=[(5, 0)])

    def test_grid_stable(self):
        assert spectral_abscissa(netlist_to_descriptor(rlc_grid(3, 3))) < 0


class TestTransmissionLines:
    def test_two_port_line(self):
        net = lumped_transmission_line(0.1, 20)
        sys_ = netlist_to_descriptor(net)
        assert sys_.n_ports == 2
        assert spectral_abscissa(sys_) < 0

    def test_longer_line_has_more_capacitance(self):
        """Well below resonance the input impedance is set by the total line capacitance."""
        short = netlist_to_descriptor(lumped_transmission_line(0.05, 20, name_prefix="s"))
        long = netlist_to_descriptor(lumped_transmission_line(0.2, 20, name_prefix="l"))
        f_low = 1e5
        z_short = abs(short.transfer_function(1j * 2 * np.pi * f_low)[0, 0])
        z_long = abs(long.transfer_function(1j * 2 * np.pi * f_low)[0, 0])
        assert z_long < z_short
        assert z_long == pytest.approx(z_short / 4.0, rel=0.2)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            lumped_transmission_line(-1.0, 10)


class TestPdn:
    def test_default_configuration_is_14_ports(self):
        sys_ = power_distribution_network()
        assert sys_.n_ports == 14
        assert sys_.order > 100

    def test_pdn_stable(self, tiny_pdn_system):
        assert spectral_abscissa(tiny_pdn_system) < 0

    def test_pdn_reproducible(self):
        config = PdnConfiguration(n_ports=4, grid_rows=4, grid_cols=4)
        a = power_distribution_network(config)
        b = power_distribution_network(config)
        assert np.allclose(a.A, b.A)

    def test_pdn_return_mna_metadata(self):
        config = PdnConfiguration(n_ports=3, grid_rows=3, grid_cols=4, n_decaps=2, n_bulk_caps=1)
        mna = power_distribution_network(config, return_mna=True)
        assert mna.port_names == ("PORT1", "PORT2", "PORT3")
        assert mna.parameter_kind == "Z"

    def test_pdn_impedance_profile_has_resonances(self, tiny_pdn_system):
        """The PDN impedance seen at a port must show anti-resonance structure."""
        freqs = np.logspace(6, 9.5, 120)
        z11 = np.abs(tiny_pdn_system.frequency_response(freqs)[:, 0, 0])
        ratio = np.max(z11) / np.min(z11)
        assert ratio > 10.0

    def test_pdn_port_count_validation(self):
        with pytest.raises(ValueError):
            PdnConfiguration(n_ports=30, grid_rows=3, grid_cols=3)

    def test_pdn_netlist_contains_vrm(self):
        net = build_pdn_netlist(PdnConfiguration(n_ports=2, grid_rows=3, grid_cols=3))
        assert any(node.startswith("vrm") for node in net.nodes)
