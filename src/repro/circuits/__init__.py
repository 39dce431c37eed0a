"""Circuit substrate: elements, netlists, MNA and multi-port benchmark networks.

The paper's workloads are multi-port interconnect structures (packages,
boards, power-distribution networks) whose frequency responses are either
measured or computed by EM/circuit solvers.  This package supplies the
"circuit solver" half of that pipeline:

* passive elements (R, L, C, mutual inductance) and port definitions
  (:mod:`repro.circuits.elements`),
* a :class:`~repro.circuits.netlist.Netlist` container with consistency
  checking (:mod:`repro.circuits.netlist`),
* modified nodal analysis (MNA) that assembles a netlist into a descriptor
  system whose transfer function is the multi-port admittance or impedance
  matrix (:mod:`repro.circuits.mna`),
* parametrised generators of realistic benchmark networks: RLC ladders,
  coupled transmission lines and plane-pair grids
  (:mod:`repro.circuits.rlc_networks`,
  :mod:`repro.circuits.transmission_line`),
* the synthetic 14-port power-distribution network that substitutes for the
  measured INC-board data of the paper's Example 2
  (:mod:`repro.circuits.pdn`).
"""

from repro.circuits.elements import (
    Capacitor,
    CurrentProbePort,
    Inductor,
    MutualInductance,
    Port,
    Resistor,
)
from repro.circuits.netlist import Netlist
from repro.circuits.mna import MnaSystem, assemble_mna, netlist_to_descriptor
from repro.circuits.rlc_networks import coupled_rlc_lines, rlc_grid, rlc_ladder
from repro.circuits.transmission_line import lumped_transmission_line
from repro.circuits.pdn import PdnConfiguration, power_distribution_network

__all__ = [
    "Resistor",
    "Capacitor",
    "Inductor",
    "MutualInductance",
    "Port",
    "CurrentProbePort",
    "Netlist",
    "MnaSystem",
    "assemble_mna",
    "netlist_to_descriptor",
    "rlc_ladder",
    "rlc_grid",
    "coupled_rlc_lines",
    "lumped_transmission_line",
    "PdnConfiguration",
    "power_distribution_network",
]
