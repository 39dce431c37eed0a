"""Parametrised RLC benchmark networks.

These generators build the structured multi-port circuits that the
experiments and tests use as known, physically meaningful reference models:
RLC ladders (on-chip interconnect style), inductively/capacitively
coupled parallel lines (crosstalk workloads) and 2-D RLC grids (plane / mesh
structures).  Every generator returns a :class:`~repro.circuits.netlist.Netlist`
so the caller can inspect or extend the circuit before assembling it through
:func:`repro.circuits.mna.assemble_mna`.
"""

from __future__ import annotations

from repro.circuits.netlist import Netlist
from repro.utils.validation import check_positive_integer

__all__ = ["rlc_ladder", "coupled_rlc_lines", "rlc_grid"]


def rlc_ladder(
    n_sections: int,
    *,
    resistance: float = 1.0,
    inductance: float = 1e-9,
    capacitance: float = 1e-12,
    conductance: float = 1e-6,
    two_port: bool = True,
) -> Netlist:
    """Lossy RLC ladder: series R-L sections with shunt C and leakage G.

    This is the lumped RLGC model of a transmission line; the shunt leakage
    conductance keeps the network strictly stable (no poles on the imaginary
    axis) so the sampling and interpolation layers see a well-posed system.
    """
    n_sections = check_positive_integer(n_sections, "n_sections")
    for name, value in (("resistance", resistance), ("inductance", inductance),
                        ("capacitance", capacitance), ("conductance", conductance)):
        if value <= 0:
            raise ValueError(f"{name} must be positive")
    net = Netlist(title=f"rlc_ladder_{n_sections}")
    for k in range(n_sections):
        a = "in" if k == 0 else f"n{k}"
        mid = f"m{k + 1}"
        b = f"n{k + 1}" if k < n_sections - 1 else "out"
        net.add_resistor(a, mid, resistance)
        net.add_inductor(mid, b, inductance)
        net.add_capacitor(b, "0", capacitance)
        net.add_resistor(b, "0", 1.0 / conductance)
    net.add_port("in", "0")
    if two_port:
        net.add_port("out", "0")
    return net


def coupled_rlc_lines(
    n_lines: int,
    n_sections: int,
    *,
    resistance: float = 2.0,
    inductance: float = 2e-9,
    capacitance: float = 0.5e-12,
    coupling_capacitance: float = 0.1e-12,
    inductive_coupling: float = 0.3,
    conductance: float = 1e-6,
) -> Netlist:
    """Bundle of ``n_lines`` parallel coupled RLC lines (crosstalk benchmark).

    Adjacent lines are coupled both capacitively (coupling capacitors between
    same-section nodes) and inductively (mutual coupling between same-section
    inductors).  Ports are placed at the near and far ends of every line, so
    the network has ``2 * n_lines`` ports -- a convenient way to scale the
    port count of the interpolation workloads.
    """
    n_lines = check_positive_integer(n_lines, "n_lines")
    n_sections = check_positive_integer(n_sections, "n_sections")
    if not 0.0 <= inductive_coupling < 1.0:
        raise ValueError("inductive_coupling must lie in [0, 1)")
    net = Netlist(title=f"coupled_lines_{n_lines}x{n_sections}")
    inductor_names: dict[tuple[int, int], str] = {}
    for line in range(n_lines):
        for k in range(n_sections):
            a = f"l{line}_in" if k == 0 else f"l{line}_n{k}"
            mid = f"l{line}_m{k + 1}"
            b = f"l{line}_n{k + 1}" if k < n_sections - 1 else f"l{line}_out"
            net.add_resistor(a, mid, resistance)
            ind = net.add_inductor(mid, b, inductance)
            inductor_names[(line, k)] = ind.name
            net.add_capacitor(b, "0", capacitance)
            net.add_resistor(b, "0", 1.0 / conductance)
    # inter-line coupling between adjacent lines, section by section
    for line in range(n_lines - 1):
        for k in range(n_sections):
            upper = f"l{line}_n{k + 1}" if k < n_sections - 1 else f"l{line}_out"
            lower = f"l{line + 1}_n{k + 1}" if k < n_sections - 1 else f"l{line + 1}_out"
            if coupling_capacitance > 0:
                net.add_capacitor(upper, lower, coupling_capacitance)
            if inductive_coupling > 0:
                net.add_mutual(inductor_names[(line, k)], inductor_names[(line + 1, k)],
                               inductive_coupling)
    for line in range(n_lines):
        net.add_port(f"l{line}_in", "0")
        net.add_port(f"l{line}_out", "0")
    return net


def rlc_grid(
    rows: int,
    cols: int,
    *,
    resistance: float = 0.05,
    inductance: float = 0.5e-9,
    capacitance: float = 2e-12,
    leakage_resistance: float = 1e4,
    port_nodes: list[tuple[int, int]] | None = None,
) -> Netlist:
    """2-D grid of series R-L branches with shunt C at every node (plane mesh).

    The grid is the canonical lumped model of a power/ground plane pair: each
    cell boundary is a lossy inductive branch and each cell holds the
    plane-to-plane capacitance.  Ports default to the four corners; pass
    ``port_nodes`` (a list of ``(row, col)`` tuples) to place them elsewhere.
    """
    rows = check_positive_integer(rows, "rows")
    cols = check_positive_integer(cols, "cols")
    net = Netlist(title=f"rlc_grid_{rows}x{cols}")

    def node(r: int, c: int) -> str:
        return f"g{r}_{c}"

    for r in range(rows):
        for c in range(cols):
            net.add_capacitor(node(r, c), "0", capacitance)
            net.add_resistor(node(r, c), "0", leakage_resistance)

    def branch(na: str, nb: str) -> None:
        mid = f"b_{na}_{nb}"
        net.add_resistor(na, mid, resistance)
        net.add_inductor(mid, nb, inductance)

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                branch(node(r, c), node(r, c + 1))
            if r + 1 < rows:
                branch(node(r, c), node(r + 1, c))

    if port_nodes is None:
        port_nodes = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
    for r, c in port_nodes:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"port node ({r}, {c}) lies outside the {rows}x{cols} grid")
        net.add_port(node(r, c), "0")
    return net
