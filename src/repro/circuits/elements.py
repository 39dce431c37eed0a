"""Passive circuit elements and port declarations.

Elements are small frozen dataclasses; they carry only their connectivity
(node names) and value, and know how to *stamp* themselves into the modified
nodal analysis matrices (see :mod:`repro.circuits.mna`).  Node ``"0"`` (or
``"gnd"``) is the global reference.

The supported elements cover everything needed for the benchmark networks of
the reproduction: resistors, capacitors, self inductances, mutual inductive
coupling between two inductors, and ports (the terminals at which the
multi-port transfer function is defined).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GROUND_NAMES",
    "CircuitElement",
    "Resistor",
    "Capacitor",
    "Inductor",
    "MutualInductance",
    "Port",
    "CurrentProbePort",
]

#: Node names treated as the global reference (0 V) node.
GROUND_NAMES = frozenset({"0", "gnd", "GND", "ground"})


@dataclass(frozen=True)
class CircuitElement:
    """Base class for all circuit elements.

    Attributes
    ----------
    name:
        Unique element identifier (used in error messages and netlist dumps).
    """

    name: str

    @property
    def nodes(self) -> tuple[str, ...]:
        """Names of the nodes this element connects to (excluding implicit ground)."""
        return ()


@dataclass(frozen=True)
class _TwoTerminal(CircuitElement):
    node_a: str = "0"
    node_b: str = "0"
    value: float = 0.0

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise ValueError(f"element {self.name!r} connects a node to itself")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.node_a, self.node_b)


@dataclass(frozen=True)
class Resistor(_TwoTerminal):
    """Resistor of ``value`` ohms between ``node_a`` and ``node_b``."""

    def __post_init__(self):
        super().__post_init__()
        if self.value <= 0:
            raise ValueError(f"resistor {self.name!r} must have positive resistance")


@dataclass(frozen=True)
class Capacitor(_TwoTerminal):
    """Capacitor of ``value`` farads between ``node_a`` and ``node_b``."""

    def __post_init__(self):
        super().__post_init__()
        if self.value <= 0:
            raise ValueError(f"capacitor {self.name!r} must have positive capacitance")


@dataclass(frozen=True)
class Inductor(_TwoTerminal):
    """Inductor of ``value`` henries between ``node_a`` and ``node_b``.

    Each inductor introduces one branch-current unknown in the MNA
    formulation, which is what makes the assembled system a *descriptor*
    system in general.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.value <= 0:
            raise ValueError(f"inductor {self.name!r} must have positive inductance")


@dataclass(frozen=True)
class MutualInductance(CircuitElement):
    """Mutual inductive coupling between two named inductors.

    Attributes
    ----------
    inductor_a, inductor_b:
        Names of the two coupled :class:`Inductor` elements (must exist in the
        netlist).
    coupling:
        Coupling coefficient ``k`` in ``(0, 1)``; the mutual inductance is
        ``M = k * sqrt(L_a * L_b)``.
    """

    inductor_a: str = ""
    inductor_b: str = ""
    coupling: float = 0.0

    def __post_init__(self):
        if self.inductor_a == self.inductor_b:
            raise ValueError(f"mutual inductance {self.name!r} must couple two distinct inductors")
        if not 0.0 < self.coupling < 1.0:
            raise ValueError(
                f"mutual inductance {self.name!r} needs a coupling coefficient in (0, 1)"
            )


@dataclass(frozen=True)
class Port(CircuitElement):
    """Current-driven / voltage-sensed port between ``node_pos`` and ``node_neg``.

    With this convention the assembled multi-port transfer function is the
    *impedance* matrix ``Z(s)`` (inject unit current, observe voltage).
    Sample it and convert pointwise with
    :func:`repro.systems.interconnect.z_to_s` to obtain scattering parameters.

    Attributes
    ----------
    node_pos, node_neg:
        Port terminal nodes; ``node_neg`` defaults to ground.
    reference_impedance:
        Reference impedance recorded for later S-parameter conversion.
    """

    node_pos: str = "0"
    node_neg: str = "0"
    reference_impedance: float = 50.0

    def __post_init__(self):
        if self.node_pos == self.node_neg:
            raise ValueError(f"port {self.name!r} terminals must be distinct nodes")
        if self.reference_impedance <= 0:
            raise ValueError(f"port {self.name!r} needs a positive reference impedance")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.node_pos, self.node_neg)


@dataclass(frozen=True)
class CurrentProbePort(Port):
    """Port variant that senses current instead of voltage.

    Mixed formulations (some ports voltage-sensed, some current-sensed) are
    occasionally convenient for hybrid-parameter workloads; the MNA assembler
    supports them, and the tests exercise the option.
    """
