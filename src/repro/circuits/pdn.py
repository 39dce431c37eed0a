"""Synthetic 14-port power-distribution network (PDN).

The paper's Example 2 interpolates *measured* scattering data of a 14-port
power-distribution network of an "INC board" (Min, Georgia Tech PhD thesis,
2004).  Those measurements are not publicly available.  The substitution
policy of this reproduction is to replace unpublished data by a physically
structured model with the same observable characteristics, so this module
builds a synthetic PDN with:

* a power/ground plane pair modeled as a lossy L/C grid (many closely spaced
  plane resonances across the band),
* port connections through via inductances and spreading resistances at 14
  locations spread over the plane,
* decoupling capacitors (with ESL/ESR) and bulk capacitors at several
  locations, producing the anti-resonance structure typical of PDN impedance
  profiles,
* a voltage-regulator-module (VRM) branch that fixes the low-frequency
  behaviour and keeps the DC impedance finite.

The resulting descriptor system has a few hundred states and strong coupling
between ports, i.e. exactly the kind of "order unknown, noisy, possibly
ill-conditioned sampling" workload Table 1 of the paper stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.mna import MnaSystem, assemble_mna
from repro.circuits.netlist import Netlist
from repro.systems.statespace import DescriptorSystem
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_integer

__all__ = ["PdnConfiguration", "build_pdn_netlist", "power_distribution_network"]


@dataclass(frozen=True)
class PdnConfiguration:
    """Parameters of the synthetic PDN generator.

    The defaults produce a 14-port network on an 6 x 7 plane grid whose
    impedance profile spans roughly 1 MHz - 10 GHz, which is the band in
    which board-level PDN measurements are typically taken.

    Attributes
    ----------
    n_ports:
        Number of observation ports placed on the plane.
    grid_rows, grid_cols:
        Size of the plane-pair grid model.
    plane_inductance, plane_resistance:
        Per-branch series inductance / resistance of the plane mesh.
    cell_capacitance:
        Plane-to-plane capacitance per grid cell.
    dielectric_loss_resistance:
        Shunt resistance per cell modeling dielectric loss (also keeps the
        pencil well conditioned).
    via_inductance, via_resistance:
        Parasitics connecting each port to its plane node.
    n_decaps:
        Number of decoupling-capacitor sites (placed round-robin over the grid).
    decap_capacitance, decap_esl, decap_esr:
        Decap value and its equivalent series inductance / resistance.
    n_bulk_caps, bulk_capacitance, bulk_esl, bulk_esr:
        Same for the bulk (electrolytic) capacitors.
    vrm_resistance, vrm_inductance:
        VRM branch connecting the supply node to ground at low frequency.
    value_spread:
        Relative log-uniform spread applied to every component value so the
        network is not perfectly regular (measured boards never are).
    seed:
        Seed controlling the randomised placement and value spread.
    """

    n_ports: int = 14
    grid_rows: int = 6
    grid_cols: int = 7
    plane_inductance: float = 0.12e-9
    plane_resistance: float = 2.5e-3
    cell_capacitance: float = 120e-12
    dielectric_loss_resistance: float = 2.0e3
    via_inductance: float = 0.4e-9
    via_resistance: float = 8e-3
    n_decaps: int = 10
    decap_capacitance: float = 100e-9
    decap_esl: float = 0.6e-9
    decap_esr: float = 20e-3
    n_bulk_caps: int = 2
    bulk_capacitance: float = 47e-6
    bulk_esl: float = 4e-9
    bulk_esr: float = 15e-3
    vrm_resistance: float = 1.5e-3
    vrm_inductance: float = 25e-9
    value_spread: float = 0.25
    seed: RandomState = 2004  # year of the INC-board thesis the paper cites

    def __post_init__(self):
        check_positive_integer(self.n_ports, "n_ports")
        check_positive_integer(self.grid_rows, "grid_rows")
        check_positive_integer(self.grid_cols, "grid_cols")
        if self.n_ports > self.grid_rows * self.grid_cols:
            raise ValueError("n_ports cannot exceed the number of grid nodes")
        if not 0.0 <= self.value_spread < 1.0:
            raise ValueError("value_spread must lie in [0, 1)")


def _spread(rng: np.random.Generator, value: float, spread: float) -> float:
    """Log-uniform perturbation of a nominal component value."""
    if spread <= 0:
        return value
    factor = np.exp(rng.uniform(np.log(1.0 - spread), np.log(1.0 + spread)))
    return float(value * factor)


def build_pdn_netlist(config: PdnConfiguration | None = None) -> Netlist:
    """Build the PDN netlist described by ``config`` (defaults to the 14-port board)."""
    cfg = config or PdnConfiguration()
    rng = ensure_rng(cfg.seed)
    net = Netlist(title=f"pdn_{cfg.n_ports}port")

    rows, cols = cfg.grid_rows, cfg.grid_cols

    def node(r: int, c: int) -> str:
        return f"p{r}_{c}"

    # plane-pair grid: cell capacitance + dielectric loss at every node,
    # lossy inductive branches between neighbours
    for r in range(rows):
        for c in range(cols):
            net.add_capacitor(node(r, c), "0", _spread(rng, cfg.cell_capacitance, cfg.value_spread))
            net.add_resistor(node(r, c), "0",
                             _spread(rng, cfg.dielectric_loss_resistance, cfg.value_spread))
    for r in range(rows):
        for c in range(cols):
            for (rr, cc) in ((r, c + 1), (r + 1, c)):
                if rr < rows and cc < cols:
                    mid = f"br_{r}_{c}_{rr}_{cc}"
                    net.add_resistor(node(r, c), mid,
                                     _spread(rng, cfg.plane_resistance, cfg.value_spread))
                    net.add_inductor(mid, node(rr, cc),
                                     _spread(rng, cfg.plane_inductance, cfg.value_spread))

    # choose distinct grid nodes for ports, decaps and bulk caps
    all_nodes = [(r, c) for r in range(rows) for c in range(cols)]
    order = rng.permutation(len(all_nodes))
    port_sites = [all_nodes[i] for i in order[: cfg.n_ports]]
    decap_sites = [all_nodes[i] for i in order[cfg.n_ports : cfg.n_ports + cfg.n_decaps]]
    remaining = order[cfg.n_ports + cfg.n_decaps :]
    bulk_sites = [all_nodes[i] for i in remaining[: cfg.n_bulk_caps]]

    # ports connect through via parasitics
    for k, (r, c) in enumerate(port_sites):
        pad = f"port_pad{k}"
        net.add_resistor(node(r, c), pad, _spread(rng, cfg.via_resistance, cfg.value_spread))
        net.add_inductor(pad, f"port_node{k}", _spread(rng, cfg.via_inductance, cfg.value_spread))
        # small pad capacitance so the port node is not dynamically floating
        net.add_capacitor(f"port_node{k}", "0", 1e-13)
        net.add_port(f"port_node{k}", "0", name=f"PORT{k + 1}")

    # decoupling capacitors: C + ESL + ESR in series to ground
    for k, (r, c) in enumerate(decap_sites):
        a, b = f"dc{k}_a", f"dc{k}_b"
        net.add_resistor(node(r, c), a, _spread(rng, cfg.decap_esr, cfg.value_spread))
        net.add_inductor(a, b, _spread(rng, cfg.decap_esl, cfg.value_spread))
        net.add_capacitor(b, "0", _spread(rng, cfg.decap_capacitance, cfg.value_spread))

    # bulk capacitors
    for k, (r, c) in enumerate(bulk_sites if cfg.n_bulk_caps else []):
        a, b = f"bulk{k}_a", f"bulk{k}_b"
        net.add_resistor(node(r, c), a, _spread(rng, cfg.bulk_esr, cfg.value_spread))
        net.add_inductor(a, b, _spread(rng, cfg.bulk_esl, cfg.value_spread))
        net.add_capacitor(b, "0", _spread(rng, cfg.bulk_capacitance, cfg.value_spread))

    # VRM branch at grid corner: series R-L to ground fixes the DC impedance
    vrm_node = node(0, 0)
    net.add_resistor(vrm_node, "vrm_mid", cfg.vrm_resistance)
    net.add_inductor("vrm_mid", "vrm_out", cfg.vrm_inductance)
    net.add_resistor("vrm_out", "0", 1e-3)
    return net


def power_distribution_network(
    config: PdnConfiguration | None = None,
    *,
    return_mna: bool = False,
) -> DescriptorSystem | MnaSystem:
    """Assemble the synthetic PDN into a descriptor system (impedance parameters).

    Parameters
    ----------
    config:
        Optional :class:`PdnConfiguration`; the default reproduces the fixed
        14-port board used by the Example-2 experiments.
    return_mna:
        When true, return the full :class:`~repro.circuits.mna.MnaSystem`
        (with node/port name metadata) instead of just the system.

    Returns
    -------
    DescriptorSystem or MnaSystem
        The multi-port impedance model ``Z(s)``; convert to scattering
        parameters pointwise with :func:`repro.systems.interconnect.z_to_s`
        (``sample_scattering(..., system_kind="Z")`` does this per sample).
    """
    netlist = build_pdn_netlist(config)
    mna = assemble_mna(netlist)
    return mna if return_mna else mna.system
