"""Lumped transmission-line models.

Package and board traces are distributed structures; the standard way to
represent them in an MNA-compatible netlist is to chop the line into many
RLGC sections whose per-section values come from the per-unit-length
parameters.  This builder produces a single line directly from physical
per-unit-length data, which gives the experiments
benchmark systems whose frequency responses have the delay-like, many-pole
character the paper's motivation (signal integrity of high-speed links)
cares about.
"""

from __future__ import annotations

from repro.circuits.netlist import Netlist
from repro.utils.validation import check_positive_integer

__all__ = ["lumped_transmission_line"]


def lumped_transmission_line(
    length_m: float,
    n_sections: int,
    *,
    resistance_per_m: float = 5.0,
    inductance_per_m: float = 250e-9,
    capacitance_per_m: float = 100e-12,
    conductance_per_m: float = 1e-5,
    name_prefix: str = "tl",
) -> Netlist:
    """Single lossy transmission line as a cascade of RLGC pi-sections.

    Parameters
    ----------
    length_m:
        Physical line length in metres.
    n_sections:
        Number of lumped sections; the model is accurate up to roughly
        ``n_sections / 10`` times the line's quarter-wave frequency.
    resistance_per_m, inductance_per_m, capacitance_per_m, conductance_per_m:
        Per-unit-length RLGC parameters (ohm/m, H/m, F/m, S/m).
    name_prefix:
        Prefix for the generated node names, so multiple lines can coexist in
        a larger netlist.

    Returns
    -------
    Netlist
        Two-port netlist with ports at the near and far ends.
    """
    n_sections = check_positive_integer(n_sections, "n_sections")
    if length_m <= 0:
        raise ValueError("length_m must be positive")
    if min(resistance_per_m, inductance_per_m, capacitance_per_m, conductance_per_m) <= 0:
        raise ValueError("per-unit-length parameters must be positive")
    dx = length_m / n_sections
    r_sec = resistance_per_m * dx
    l_sec = inductance_per_m * dx
    c_sec = capacitance_per_m * dx
    g_sec = conductance_per_m * dx

    net = Netlist(title=f"{name_prefix}_line_{n_sections}")
    # pi topology: half the shunt admittance at each section boundary
    first = f"{name_prefix}_in"
    net.add_capacitor(first, "0", c_sec / 2.0)
    net.add_resistor(first, "0", 2.0 / g_sec)
    for k in range(n_sections):
        a = first if k == 0 else f"{name_prefix}_n{k}"
        mid = f"{name_prefix}_m{k + 1}"
        b = f"{name_prefix}_n{k + 1}" if k < n_sections - 1 else f"{name_prefix}_out"
        net.add_resistor(a, mid, r_sec)
        net.add_inductor(mid, b, l_sec)
        shunt_c = c_sec if k < n_sections - 1 else c_sec / 2.0
        shunt_g = g_sec if k < n_sections - 1 else g_sec / 2.0
        net.add_capacitor(b, "0", shunt_c)
        net.add_resistor(b, "0", 1.0 / shunt_g)
    net.add_port(f"{name_prefix}_in", "0")
    net.add_port(f"{name_prefix}_out", "0")
    return net
