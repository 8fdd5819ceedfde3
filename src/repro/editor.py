"""ESCHER — the schematic editor of the system diagram (figure 3.1).

"The schematic editor forms the interface between the user of the system
and the CAD-system ... it enables the user to construct diagrams by hand
or to invoke the simulator and to display the results or to invoke the
generator."

This is a headless (scriptable) editor over a :class:`Diagram`: place,
move and rotate modules, place terminals, draw and erase wires by hand,
invoke PABLO on the unplaced rest (the -g flow), invoke EUREKA on the
unrouted nets, validate, render, save/load ESCHER files — with undo.
Every mutating command validates its preconditions and records an inverse
operation, so an interactive front end can sit directly on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .core.diagram import Diagram, PlacedModule
from .core.geometry import Point, normalize_path
from .core.metrics import DiagramMetrics, diagram_metrics
from .core.netlist import Network
from .core.rotation import Rotation
from .core.validate import placement_violations, routing_violations
from .formats.escher import load_escher, save_escher
from .place.pablo import PabloOptions, place_network
from .render.ascii_art import render_ascii
from .render.svg import save_svg
from .route.eureka import RouterOptions, route_diagram


class EditorError(ValueError):
    """Raised when a command's preconditions fail (nothing is changed)."""


@dataclass
class _UndoEntry:
    description: str
    inverse: Callable[[], None]


@dataclass
class Editor:
    """A command-driven editing session on one diagram."""

    network: Network
    diagram: Diagram = field(init=False)
    _undo_stack: list[_UndoEntry] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.diagram = Diagram(self.network)

    # -- session -------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, network: Network) -> "Editor":
        """Resume editing a saved ESCHER diagram."""
        editor = cls(network)
        editor.diagram = load_escher(path, network)
        return editor

    def save(self, path: str | Path) -> Path:
        return save_escher(self.diagram, path)

    def save_svg(self, path: str | Path) -> Path:
        return save_svg(self.diagram, path)

    def render(self) -> str:
        return render_ascii(self.diagram)

    @property
    def can_undo(self) -> bool:
        return bool(self._undo_stack)

    def undo(self) -> str:
        """Revert the latest command; returns its description."""
        if not self._undo_stack:
            raise EditorError("nothing to undo")
        entry = self._undo_stack.pop()
        entry.inverse()
        return entry.description

    def _push_undo(self, description: str, inverse: Callable[[], None]) -> None:
        self._undo_stack.append(_UndoEntry(description, inverse))

    # -- module commands --------------------------------------------------

    def place(
        self, module: str, x: int, y: int, rotation: Rotation = Rotation.R0
    ) -> None:
        """Place (or re-place) a module symbol."""
        if module not in self.network.modules:
            raise EditorError(f"unknown module {module!r}")
        previous = self.diagram.placements.get(module)
        self.diagram.place_module(module, Point(x, y), rotation)
        overlap = [
            p
            for p in placement_violations(self.diagram)
            if f"{module}'" in p or f"'{module}'" in p
        ]
        if overlap:
            # Roll straight back: the editor refuses illegal placements.
            if previous is None:
                del self.diagram.placements[module]
            else:
                self.diagram.placements[module] = previous
            raise EditorError(overlap[0])

        def inverse() -> None:
            if previous is None:
                self.diagram.placements.pop(module, None)
            else:
                self.diagram.placements[module] = previous

        self._push_undo(f"place {module} at ({x},{y})", inverse)

    def move(self, module: str, dx: int, dy: int) -> None:
        pm = self._placed(module)
        self.place(
            module, pm.position.x + dx, pm.position.y + dy, pm.rotation
        )
        self._undo_stack[-1].description = f"move {module} by ({dx},{dy})"

    def rotate(self, module: str, quarter_turns: int = 1) -> None:
        """Rotate a placed module counterclockwise in 90-degree steps."""
        pm = self._placed(module)
        rotation = pm.rotation.compose(Rotation((quarter_turns % 4) * 90))
        self.place(module, pm.position.x, pm.position.y, rotation)
        self._undo_stack[-1].description = f"rotate {module} x{quarter_turns}"

    def _placed(self, module: str) -> PlacedModule:
        pm = self.diagram.placements.get(module)
        if pm is None:
            raise EditorError(f"module {module!r} is not placed")
        return pm

    def place_terminal(self, terminal: str, x: int, y: int) -> None:
        if terminal not in self.network.system_terminals:
            raise EditorError(f"unknown system terminal {terminal!r}")
        previous = self.diagram.terminal_positions.get(terminal)
        self.diagram.place_system_terminal(terminal, Point(x, y))

        def inverse() -> None:
            if previous is None:
                self.diagram.terminal_positions.pop(terminal, None)
            else:
                self.diagram.terminal_positions[terminal] = previous

        self._push_undo(f"place terminal {terminal} at ({x},{y})", inverse)

    # -- wire commands -----------------------------------------------------

    def draw_wire(self, net: str, points: Sequence[tuple[int, int] | Point]) -> None:
        """Hand-draw one rectilinear path of a net.  The path must be
        legal in the current diagram (the editor "makes the schematic
        diagram become real" — it never lets it become wrong)."""
        if net not in self.network.nets:
            raise EditorError(f"unknown net {net!r}")
        path = normalize_path([Point(*p) for p in points])
        if len(path) < 2:
            raise EditorError("a wire needs at least two distinct points")
        for a, b in zip(path, path[1:]):
            if a.x != b.x and a.y != b.y:
                raise EditorError(f"wire corner {a} -> {b} is not rectilinear")
        route = self.diagram.route_for(net)
        route.add_path(path)
        problems = routing_violations(self.diagram)
        if problems:
            route.paths.pop()
            if not route.paths:
                del self.diagram.routes[net]
            raise EditorError(problems[0])

        def inverse() -> None:
            r = self.diagram.routes.get(net)
            if r is not None and path in r.paths:
                r.paths.remove(path)
                if not r.paths:
                    del self.diagram.routes[net]

        self._push_undo(f"draw wire on {net} ({len(path)} points)", inverse)

    def erase_net(self, net: str) -> None:
        """Remove a net's drawn geometry (for manual rip-up)."""
        route = self.diagram.routes.pop(net, None)
        if route is None:
            raise EditorError(f"net {net!r} has no drawn geometry")

        def inverse() -> None:
            self.diagram.routes[net] = route

        self._push_undo(f"erase net {net}", inverse)

    # -- invoking the tools (figure 3.1 arcs) ------------------------------

    def invoke_placement(self, options: PabloOptions | None = None) -> None:
        """Run PABLO on the modules not placed yet, around the current
        (preplaced, possibly prerouted) content."""
        if self.diagram.placements or self.diagram.terminal_positions:
            placed, _ = place_network(
                self.network, options, preplaced=self.diagram
            )
        else:
            placed, _ = place_network(self.network, options)
        previous = self.diagram
        self.diagram = placed

        def inverse() -> None:
            self.diagram = previous

        self._push_undo("invoke placement", inverse)

    def invoke_routing(self, options: RouterOptions | None = None) -> list[str]:
        """Run EUREKA on the unrouted nets; returns the unroutable ones."""
        if not self.diagram.is_placed:
            raise EditorError("place every module and terminal before routing")
        before = {
            name: [list(p) for p in route.paths]
            for name, route in self.diagram.routes.items()
        }
        report = route_diagram(self.diagram, options)

        def inverse() -> None:
            self.diagram.routes.clear()
            for name, paths in before.items():
                route = self.diagram.route_for(name)
                for path in paths:
                    route.add_path(path)

        self._push_undo("invoke routing", inverse)
        return report.failed_nets

    def invoke_simulator(self, behaviors, **inputs: int) -> dict[str, int]:
        """Simulate the diagram's routed connectivity for one settle
        (the editor's 'invoke the simulator and display the results')."""
        from .core.validate import extract_connectivity
        from .sim.logic import LogicSimulator

        sim = LogicSimulator(
            self.network, behaviors, connectivity=extract_connectivity(self.diagram)
        )
        for name, value in inputs.items():
            sim.set_input(name, value)
        return sim.settle()

    # -- status ---------------------------------------------------------------

    def metrics(self) -> DiagramMetrics:
        return diagram_metrics(self.diagram)

    def problems(self) -> list[str]:
        return placement_violations(self.diagram) + routing_violations(self.diagram)
