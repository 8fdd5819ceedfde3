"""A small standard module library.

The paper's module library (Appendix C) holds box symbols with typed
terminals on their outline.  This module provides the templates the
example networks and generators instantiate: gates, registers, muxes,
adders, an ALU, a controller block and the LIFE cell.

Sizes are in grid units (1 unit = 10 units of the paper's file formats,
which require coordinates divisible by 10).
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..core.geometry import Point
from ..core.netlist import Module, NetlistError, TermType

TermSpec = tuple[str, str, int, int]  # (name, type, x, y)


def make_module(
    name: str, width: int, height: int, terms: Iterable[TermSpec], *, template: str = ""
) -> Module:
    """Build a module from compact terminal specs."""
    module = Module(name=name, width=width, height=height, template=template or name)
    for tname, ttype, x, y in terms:
        module.add_terminal(tname, TermType.parse(ttype), Point(x, y))
    return module


def _template(
    template_name: str, width: int, height: int, terms: list[TermSpec]
) -> Callable[[str], Module]:
    def build(instance: str) -> Module:
        return make_module(instance, width, height, terms, template=template_name)

    build.__name__ = template_name
    build.__doc__ = f"Instantiate the {template_name!r} template ({width}x{height})."
    return build


buf = _template("buf", 3, 2, [("a", "in", 0, 1), ("y", "out", 3, 1)])
inv = _template("inv", 3, 2, [("a", "in", 0, 1), ("y", "out", 3, 1)])
and2 = _template(
    "and2", 3, 3, [("a", "in", 0, 1), ("b", "in", 0, 2), ("y", "out", 3, 2)]
)
or2 = _template(
    "or2", 3, 3, [("a", "in", 0, 1), ("b", "in", 0, 2), ("y", "out", 3, 2)]
)
xor2 = _template(
    "xor2", 3, 3, [("a", "in", 0, 1), ("b", "in", 0, 2), ("y", "out", 3, 2)]
)
dff = _template(
    "dff",
    4,
    4,
    [("d", "in", 0, 2), ("clk", "in", 0, 1), ("q", "out", 4, 2)],
)
mux2 = _template(
    "mux2",
    4,
    4,
    [
        ("a", "in", 0, 1),
        ("b", "in", 0, 3),
        ("sel", "in", 2, 0),
        ("y", "out", 4, 2),
    ],
)
fulladder = _template(
    "fulladder",
    4,
    4,
    [
        ("a", "in", 0, 1),
        ("b", "in", 0, 2),
        ("cin", "in", 0, 3),
        ("sum", "out", 4, 2),
        ("cout", "out", 4, 3),
    ],
)
register = _template(
    "register",
    5,
    5,
    [
        ("d", "in", 0, 2),
        ("clk", "in", 0, 4),
        ("en", "in", 2, 0),
        ("q", "out", 5, 2),
    ],
)
alu = _template(
    "alu",
    6,
    6,
    [
        ("a", "in", 0, 2),
        ("b", "in", 0, 4),
        ("op", "in", 3, 0),
        ("y", "out", 6, 3),
        ("flag", "out", 6, 5),
    ],
)
controller = _template(
    "controller",
    8,
    8,
    [
        ("clk", "in", 0, 1),
        ("run", "in", 0, 3),
        ("status", "in", 0, 5),
        ("ack", "in", 0, 7),
        ("c0", "out", 8, 1),
        ("c1", "out", 8, 3),
        ("c2", "out", 8, 5),
        ("c3", "out", 8, 7),
        ("c4", "out", 2, 8),
        ("c5", "out", 4, 8),
        ("c6", "out", 6, 8),
        ("c7", "out", 2, 0),
        ("c8", "out", 4, 0),
        ("c9", "out", 6, 0),
    ],
)

#: The LIFE cell: eight neighbour inputs (n0..n7) and eight buffered
#: state outputs (o0..o7), one per neighbour direction
#: (0:NW 1:N 2:NE 3:W 4:E 5:SW 6:S 7:SE, see life.NEIGHBOUR_OFFSETS),
#: each on the module side facing its direction — outputs and the matching
#: neighbour inputs are track-aligned so straight links need zero bends.
#: Plus a clock, a row-load enable and a column-data seed input.
life_cell = _template(
    "life_cell",
    8,
    8,
    [
        # west-facing (left) side: W link pair and NW diagonal
        ("o3", "out", 0, 2),
        ("n3", "in", 0, 3),
        ("n0", "in", 0, 5),
        ("o0", "out", 0, 6),
        # east-facing (right) side: E link pair and SE diagonal
        ("n4", "in", 8, 2),
        ("o4", "out", 8, 3),
        ("o7", "out", 8, 5),
        ("n7", "in", 8, 6),
        # north-facing (top) side: N link pair, NE diagonal, seed data
        ("data", "in", 1, 8),
        ("o1", "out", 3, 8),
        ("n1", "in", 4, 8),
        ("n2", "in", 5, 8),
        ("o2", "out", 6, 8),
        # south-facing (bottom) side: S link pair, SW diagonal, control
        ("n5", "in", 1, 0),
        ("o5", "out", 2, 0),
        ("n6", "in", 3, 0),
        ("o6", "out", 4, 0),
        ("clk", "in", 5, 0),
        ("load", "in", 6, 0),
    ],
)

life_controller = _template(
    "life_controller",
    10,
    10,
    [
        # left side: clocking and the system interface
        ("clk", "in", 0, 2),
        ("run", "in", 0, 4),
        ("reset", "in", 0, 6),
        ("tick", "in", 0, 8),
        # right side faces the cell array: row clocks and load enables
        ("rowclk0", "out", 10, 0),
        ("load0", "out", 10, 1),
        ("rowclk1", "out", 10, 2),
        ("load1", "out", 10, 3),
        ("rowclk2", "out", 10, 4),
        ("load2", "out", 10, 5),
        ("rowclk3", "out", 10, 6),
        ("load3", "out", 10, 7),
        ("rowclk4", "out", 10, 8),
        ("load4", "out", 10, 9),
        # top side: column seed data
        ("data0", "out", 1, 10),
        ("data1", "out", 3, 10),
        ("data2", "out", 5, 10),
        ("data3", "out", 7, 10),
        ("data4", "out", 9, 10),
        # bottom side: clock-generator handshake and completion flag
        ("enable", "out", 4, 0),
        ("done", "out", 6, 0),
    ],
)

clock_generator = _template(
    "clock_generator",
    6,
    6,
    [
        ("clk_in", "in", 0, 2),
        ("enable", "in", 0, 4),
        ("clk", "out", 6, 2),
        ("tick", "out", 6, 4),
    ],
)

TEMPLATES: dict[str, Callable[[str], Module]] = {
    "buf": buf,
    "inv": inv,
    "and2": and2,
    "or2": or2,
    "xor2": xor2,
    "dff": dff,
    "mux2": mux2,
    "fulladder": fulladder,
    "register": register,
    "alu": alu,
    "controller": controller,
    "life_cell": life_cell,
    "life_controller": life_controller,
    "clock_generator": clock_generator,
}


def instantiate(template: str, instance: str) -> Module:
    """Create an instance of a named template."""
    try:
        factory = TEMPLATES[template]
    except KeyError:
        raise NetlistError(f"unknown template {template!r}") from None
    return factory(instance)
