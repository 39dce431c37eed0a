"""Netlist container with validation and convenient builder methods.

A :class:`Netlist` is an ordered collection of circuit elements plus the
port declarations.  It performs the bookkeeping the MNA assembler relies on:
unique element names, consistent node usage, resolution of ground aliases, and
index maps for nodes, inductor branches and ports.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.circuits.elements import (
    GROUND_NAMES,
    Capacitor,
    CircuitElement,
    Inductor,
    MutualInductance,
    Port,
    Resistor,
)

__all__ = ["Netlist"]


class Netlist:
    """Ordered, validated collection of circuit elements and ports.

    Elements can be supplied at construction time or added incrementally with
    the ``add_*`` helpers, which also auto-generate unique names when none is
    given -- convenient for the programmatic network generators.
    """

    def __init__(self, elements: Iterable[CircuitElement] = (), *, title: str = "netlist"):
        self.title = str(title)
        self._elements: list[CircuitElement] = []
        self._names: set[str] = set()
        self._counters: dict[str, int] = {}
        for element in elements:
            self.add(element)

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[CircuitElement]:
        return iter(self._elements)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist(title={self.title!r}, elements={len(self._elements)}, "
            f"nodes={len(self.nodes)}, ports={len(self.ports)})"
        )

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def add(self, element: CircuitElement) -> CircuitElement:
        """Add an element, enforcing unique names."""
        if not isinstance(element, CircuitElement):
            raise TypeError(f"expected a CircuitElement, got {type(element).__name__}")
        if element.name in self._names:
            raise ValueError(f"duplicate element name {element.name!r}")
        self._elements.append(element)
        self._names.add(element.name)
        return element

    def _auto_name(self, prefix: str) -> str:
        count = self._counters.get(prefix, 0)
        while True:
            count += 1
            name = f"{prefix}{count}"
            if name not in self._names:
                self._counters[prefix] = count
                return name

    def add_resistor(self, node_a: str, node_b: str, value: float, name: str | None = None) -> Resistor:
        """Add a resistor of ``value`` ohms between two nodes."""
        return self.add(Resistor(name or self._auto_name("R"), node_a, node_b, value))

    def add_capacitor(self, node_a: str, node_b: str, value: float, name: str | None = None) -> Capacitor:
        """Add a capacitor of ``value`` farads between two nodes."""
        return self.add(Capacitor(name or self._auto_name("C"), node_a, node_b, value))

    def add_inductor(self, node_a: str, node_b: str, value: float, name: str | None = None) -> Inductor:
        """Add an inductor of ``value`` henries between two nodes."""
        return self.add(Inductor(name or self._auto_name("L"), node_a, node_b, value))

    def add_mutual(self, inductor_a: str, inductor_b: str, coupling: float,
                   name: str | None = None) -> MutualInductance:
        """Couple two existing inductors with coupling coefficient ``coupling``."""
        return self.add(MutualInductance(name or self._auto_name("K"), inductor_a, inductor_b, coupling))

    def add_port(self, node_pos: str, node_neg: str = "0", *, reference_impedance: float = 50.0,
                 name: str | None = None) -> Port:
        """Declare a current-driven, voltage-sensed port (impedance-parameter port)."""
        return self.add(Port(name or self._auto_name("P"), node_pos, node_neg,
                             reference_impedance))

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def elements(self) -> tuple[CircuitElement, ...]:
        """All elements in insertion order."""
        return tuple(self._elements)

    @property
    def ports(self) -> tuple[Port, ...]:
        """All port declarations (both flavours) in insertion order."""
        return tuple(e for e in self._elements if isinstance(e, Port))

    @property
    def inductors(self) -> tuple[Inductor, ...]:
        """All inductors in insertion order."""
        return tuple(e for e in self._elements if isinstance(e, Inductor))

    @property
    def mutuals(self) -> tuple[MutualInductance, ...]:
        """All mutual-inductance couplings."""
        return tuple(e for e in self._elements if isinstance(e, MutualInductance))

    @property
    def nodes(self) -> tuple[str, ...]:
        """All non-ground node names in first-appearance order."""
        seen: dict[str, None] = {}
        for element in self._elements:
            for node in element.nodes:
                if node not in GROUND_NAMES and node not in seen:
                    seen[node] = None
        return tuple(seen)

    @property
    def n_ports(self) -> int:
        """Number of declared ports."""
        return len(self.ports)

    def node_index(self) -> dict[str, int]:
        """Map from non-ground node name to its MNA row index."""
        return {node: i for i, node in enumerate(self.nodes)}

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural consistency; raise :class:`ValueError` on problems.

        Checks performed:

        * at least one port is declared,
        * every mutual inductance refers to two existing inductors,
        * every port terminal node is actually used by some element (a port on
          a floating node would make the MNA pencil singular).
        """
        if not self.ports:
            raise ValueError("netlist declares no ports")
        inductor_names = {ind.name for ind in self.inductors}
        for mutual in self.mutuals:
            for ref in (mutual.inductor_a, mutual.inductor_b):
                if ref not in inductor_names:
                    raise ValueError(
                        f"mutual inductance {mutual.name!r} refers to unknown inductor {ref!r}"
                    )
        connected_nodes = set()
        for element in self._elements:
            if not isinstance(element, Port):
                connected_nodes.update(element.nodes)
        for port in self.ports:
            for node in (port.node_pos, port.node_neg):
                if node in GROUND_NAMES:
                    continue
                if node not in connected_nodes:
                    raise ValueError(
                        f"port {port.name!r} terminal {node!r} is not connected to any element"
                    )

    def summary(self) -> str:
        """Human-readable one-paragraph summary (element and node counts)."""
        kinds: dict[str, int] = {}
        for element in self._elements:
            kinds[type(element).__name__] = kinds.get(type(element).__name__, 0) + 1
        parts = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
        return f"{self.title}: {len(self.nodes)} nodes, {parts}"
