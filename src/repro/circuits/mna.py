"""Modified nodal analysis (MNA): netlist -> descriptor system.

MNA is the standard formulation used by circuit simulators: unknowns are the
node voltages plus one branch current per inductor (and per voltage-driven
port), the conservation equations are Kirchhoff's current law at every
non-ground node, and energy-storage elements contribute to the descriptor
(mass) matrix ``E``.  The paper explicitly targets "MNA circuits" as the class
of systems with equal input and output counts for which MFTI interpolates the
full sample matrices (Lemma 3.1), so this module is the bridge between the
circuit benchmarks and the interpolation core.

Formulation
-----------
State vector ``x = [v; i_L; i_V]`` with

* ``v``   -- node voltages at the non-ground nodes,
* ``i_L`` -- inductor branch currents,
* ``i_V`` -- branch currents of voltage-driven (:class:`CurrentProbePort`) ports.

Current-driven ports (:class:`Port`) inject their input current directly into
the node equations and read the port voltage, so an all-``Port`` netlist
realizes the impedance matrix ``Z(s)``; an all-``CurrentProbePort`` netlist
realizes the admittance matrix ``Y(s)``; mixtures yield hybrid parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.elements import GROUND_NAMES, Capacitor, CurrentProbePort, Resistor
from repro.circuits.netlist import Netlist
from repro.systems.statespace import DescriptorSystem

__all__ = ["MnaSystem", "assemble_mna", "netlist_to_descriptor"]


@dataclass(frozen=True)
class MnaSystem:
    """Result of an MNA assembly.

    Attributes
    ----------
    system:
        The assembled :class:`~repro.systems.statespace.DescriptorSystem`.
    node_names:
        Names of the non-ground nodes, in state order.
    inductor_names:
        Names of the inductors contributing branch currents, in state order.
    port_names:
        Names of the ports, in input/output order.
    port_kinds:
        Parallel tuple of ``"Z"`` (current-driven) / ``"Y"`` (voltage-driven)
        markers describing which parameter each port row represents.
    """

    system: DescriptorSystem
    node_names: tuple[str, ...]
    inductor_names: tuple[str, ...]
    port_names: tuple[str, ...]
    port_kinds: tuple[str, ...]

    @property
    def parameter_kind(self) -> str:
        """``"Z"``, ``"Y"`` or ``"hybrid"`` depending on the port mix."""
        kinds = set(self.port_kinds)
        if kinds == {"Z"}:
            return "Z"
        if kinds == {"Y"}:
            return "Y"
        return "hybrid"

    def sample(
        self,
        frequencies_hz,
        *,
        as_scattering: bool = False,
        reference_impedance: float = 50.0,
        label: str = "",
    ):
        """Sweep the assembled circuit into a :class:`~repro.data.dataset.FrequencyData`.

        The sweep runs through the shared vectorized evaluation kernel (one
        batched factorization pass instead of one dense factorization per
        frequency) with the bit-stable stacked solve, so sampled
        datasets fingerprint reproducibly.  ``as_scattering`` converts the
        assembled Z/Y parameters to scattering parameters; it requires a
        homogeneous port mix (:attr:`parameter_kind` not ``"hybrid"``).
        """
        from repro.data.sampler import sample_scattering, sample_system

        kind = self.parameter_kind
        if as_scattering:
            if kind == "hybrid":
                raise ValueError(
                    "scattering conversion needs a homogeneous port mix "
                    "(all current-driven or all voltage-driven ports)"
                )
            return sample_scattering(
                self.system, frequencies_hz, system_kind=kind,
                reference_impedance=reference_impedance, label=label,
            )
        return sample_system(
            self.system, frequencies_hz, kind="H" if kind == "hybrid" else kind,
            reference_impedance=reference_impedance, label=label,
        )


def _node_idx(index: dict[str, int], node: str) -> int | None:
    if node in GROUND_NAMES:
        return None
    return index[node]


def assemble_mna(netlist: Netlist) -> MnaSystem:
    """Assemble a validated netlist into a descriptor system.

    Returns an :class:`MnaSystem`; use :func:`netlist_to_descriptor` when only
    the system object is needed.
    """
    netlist.validate()
    node_index = netlist.node_index()
    n_nodes = len(node_index)
    inductors = netlist.inductors
    n_ind = len(inductors)
    ind_index = {ind.name: i for i, ind in enumerate(inductors)}
    ports = netlist.ports
    vports = [p for p in ports if isinstance(p, CurrentProbePort)]
    vport_index = {p.name: i for i, p in enumerate(vports)}
    n_vp = len(vports)

    n = n_nodes + n_ind + n_vp
    m = len(ports)
    e = np.zeros((n, n))
    a = np.zeros((n, n))
    b = np.zeros((n, m))
    c = np.zeros((m, n))
    d = np.zeros((m, m))

    def stamp_conductance(na: str, nb: str, g: float) -> None:
        ia, ib = _node_idx(node_index, na), _node_idx(node_index, nb)
        # KCL written as E x' = A x + ... so conductance enters A with a minus sign
        if ia is not None:
            a[ia, ia] -= g
        if ib is not None:
            a[ib, ib] -= g
        if ia is not None and ib is not None:
            a[ia, ib] += g
            a[ib, ia] += g

    def stamp_capacitance(na: str, nb: str, cap: float) -> None:
        ia, ib = _node_idx(node_index, na), _node_idx(node_index, nb)
        if ia is not None:
            e[ia, ia] += cap
        if ib is not None:
            e[ib, ib] += cap
        if ia is not None and ib is not None:
            e[ia, ib] -= cap
            e[ib, ia] -= cap

    for element in netlist:
        if isinstance(element, Resistor):
            stamp_conductance(element.node_a, element.node_b, 1.0 / element.value)
        elif isinstance(element, Capacitor):
            stamp_capacitance(element.node_a, element.node_b, element.value)

    # inductor branch equations: L_mat d(i_L)/dt = (v_a - v_b) per branch,
    # node equations receive -i_L at node_a and +i_L at node_b.
    for k, inductor in enumerate(inductors):
        row = n_nodes + k
        e[row, row] = inductor.value
        ia, ib = _node_idx(node_index, inductor.node_a), _node_idx(node_index, inductor.node_b)
        if ia is not None:
            a[row, ia] += 1.0
            a[ia, row] -= 1.0
        if ib is not None:
            a[row, ib] -= 1.0
            a[ib, row] += 1.0

    for mutual in netlist.mutuals:
        ka = ind_index[mutual.inductor_a]
        kb = ind_index[mutual.inductor_b]
        la = inductors[ka].value
        lb = inductors[kb].value
        m_val = mutual.coupling * np.sqrt(la * lb)
        e[n_nodes + ka, n_nodes + kb] += m_val
        e[n_nodes + kb, n_nodes + ka] += m_val

    # ports
    for j, port in enumerate(ports):
        ip, ineg = _node_idx(node_index, port.node_pos), _node_idx(node_index, port.node_neg)
        if isinstance(port, CurrentProbePort):
            # voltage-driven: branch current unknown i_p (delivered into node_pos),
            # KVL row reads v_pos - v_neg - u_j = 0
            row = n_nodes + n_ind + vport_index[port.name]
            if ip is not None:
                a[row, ip] += 1.0
                a[ip, row] += 1.0
            if ineg is not None:
                a[row, ineg] -= 1.0
                a[ineg, row] -= 1.0
            b[row, j] = -1.0
            # output is the current delivered *into* the port by the source
            c[j, row] = 1.0
        else:
            # current-driven: input current enters node_pos, leaves node_neg
            if ip is not None:
                b[ip, j] += 1.0
            if ineg is not None:
                b[ineg, j] -= 1.0
            # output is the port voltage
            if ip is not None:
                c[j, ip] += 1.0
            if ineg is not None:
                c[j, ineg] -= 1.0

    system = DescriptorSystem(e, a, b, c, d)
    return MnaSystem(
        system=system,
        node_names=tuple(netlist.nodes),
        inductor_names=tuple(ind.name for ind in inductors),
        port_names=tuple(p.name for p in ports),
        port_kinds=tuple("Y" if isinstance(p, CurrentProbePort) else "Z" for p in ports),
    )


def netlist_to_descriptor(netlist: Netlist) -> DescriptorSystem:
    """Convenience wrapper returning only the assembled descriptor system."""
    return assemble_mna(netlist).system
