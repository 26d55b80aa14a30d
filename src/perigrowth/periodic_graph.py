"""Periodic graphs given by their finite quotient data.

A periodic graph is an infinite directed weighted graph carried by a free
Z^n action with finite quotient.  We store only the quotient: a finite list
of vertex orbits and, for each edge orbit, the lattice shift from the
canonical lift of its source to its target.  Every vertex of the infinite
cover is addressed as (orbit, lattice coordinate), so the lattice action is
literal coordinate addition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .errors import FormatError, InputError

Vector = tuple[int, ...]


@dataclass(frozen=True, order=True)
class PeriodicVertex:
    """A vertex (orbit index, lattice coordinate) of the infinite cover."""

    orbit: int
    coord: Vector


@dataclass(frozen=True)
class EdgeOrbit:
    """One edge orbit of the quotient.

    `shift` is the lattice translation from the canonical lift of `src`
    (at coordinate 0) to the target of the canonical edge lift.
    """

    id: int
    src: int
    dst: int
    shift: Vector
    weight: int


@dataclass(frozen=True)
class QuotientGraph:
    """Finite directed weighted multigraph with a lattice shift per edge."""

    dim: int
    orbits: tuple[str, ...]
    edges: tuple[EdgeOrbit, ...]
    _out: dict[int, tuple[EdgeOrbit, ...]] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )
    _max_weight: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        out: dict[int, list[EdgeOrbit]] = {i: [] for i in range(len(self.orbits))}
        for e in self.edges:
            if 0 <= e.src < len(self.orbits):
                out[e.src].append(e)
        object.__setattr__(
            self, "_out", {k: tuple(v) for k, v in out.items()}
        )
        object.__setattr__(
            self, "_max_weight", max((e.weight for e in self.edges), default=0)
        )

    @property
    def num_orbits(self) -> int:
        return len(self.orbits)

    def orbit_index(self, name: str) -> int:
        try:
            return self.orbits.index(name)
        except ValueError:
            raise InputError(f"unknown orbit name {name!r}") from None

    def out_edges(self, orbit: int) -> tuple[EdgeOrbit, ...]:
        return self._out[orbit]

    def max_weight(self) -> int:
        return self._max_weight

    def vertex(self, orbit: int, coord: Vector | None = None) -> PeriodicVertex:
        if coord is None:
            coord = (0,) * self.dim
        return PeriodicVertex(orbit, tuple(coord))


def validate(g: QuotientGraph) -> list[str]:
    """Collect every violated invariant; an empty list means g is valid."""
    report = []
    if g.dim < 0:
        report.append(f"negative dimension {g.dim}")
    seen = set()
    for name in g.orbits:
        if not name:
            report.append("empty orbit name")
        if name in seen:
            report.append(f"duplicate orbit name {name!r}")
        seen.add(name)
    for e in g.edges:
        where = f"edge {e.id}"
        if not (0 <= e.src < g.num_orbits):
            report.append(f"{where}: source orbit index {e.src} out of range")
        if not (0 <= e.dst < g.num_orbits):
            report.append(f"{where}: target orbit index {e.dst} out of range")
        if e.weight <= 0:
            report.append(f"{where}: non-positive weight {e.weight}")
        if len(e.shift) != g.dim:
            report.append(
                f"{where}: dimension mismatch, shift has length {len(e.shift)}"
            )
    return report


def translate(x: PeriodicVertex, u: Vector) -> PeriodicVertex:
    """Apply the lattice element u to x.  The action is free by construction."""
    if len(u) != len(x.coord):
        raise ValueError(
            f"length mismatch: vector has length {len(u)}, vertex has {len(x.coord)}"
        )
    return PeriodicVertex(x.orbit, tuple(map(add, x.coord, u)))


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_periodic_graph(text: str) -> QuotientGraph:
    """Parse the `.pg` line format.

    Directives: `dim <n>` (first), `vertex <name>`, and
    `edge <src> <dst> <t1> ... <tn> <w>`.  `#` starts a comment.
    """
    dim = None
    orbit_names: list[str] = []
    orbit_index: dict[str, int] = {}
    edges: list[EdgeOrbit] = []
    for lineno, tokens in _tokenize(text):
        directive = tokens[0]
        if directive == "dim":
            if dim is not None:
                raise FormatError("duplicate dim directive", lineno)
            if len(tokens) != 2:
                raise FormatError("dim takes exactly one argument", lineno)
            try:
                dim = int(tokens[1])
            except ValueError:
                raise FormatError(f"bad dimension {tokens[1]!r}", lineno) from None
            if dim < 0:
                raise FormatError(f"negative dimension {dim}", lineno)
        elif directive == "vertex":
            if dim is None:
                raise FormatError("dim must come before any vertex", lineno)
            if len(tokens) != 2:
                raise FormatError("vertex takes exactly one name", lineno)
            name = tokens[1]
            if name in orbit_index:
                raise FormatError(f"duplicate orbit name {name!r}", lineno)
            orbit_index[name] = len(orbit_names)
            orbit_names.append(name)
        elif directive == "edge":
            if dim is None:
                raise FormatError("dim must come before any edge", lineno)
            if len(tokens) != 4 + dim:
                raise FormatError(
                    f"edge needs src dst {dim} shift components and a weight",
                    lineno,
                )
            src_name, dst_name = tokens[1], tokens[2]
            for name in (src_name, dst_name):
                if name not in orbit_index:
                    raise FormatError(f"unknown orbit name {name!r}", lineno)
            try:
                numbers = [int(t) for t in tokens[3:]]
            except ValueError:
                raise FormatError("edge shift and weight must be integers", lineno) from None
            shift, weight = tuple(numbers[:dim]), numbers[dim]
            if weight <= 0:
                raise FormatError(f"non-positive weight {weight}", lineno)
            edges.append(
                EdgeOrbit(len(edges), orbit_index[src_name], orbit_index[dst_name], shift, weight)
            )
        else:
            raise FormatError(f"unknown directive {directive!r}", lineno)
    if dim is None:
        raise FormatError("missing dim directive")
    return QuotientGraph(dim, tuple(orbit_names), tuple(edges))


def serialize_periodic_graph(g: QuotientGraph) -> str:
    """Canonical `.pg` text; inverse of parse on canonicalized values."""
    lines = [f"dim {g.dim}"]
    lines.extend(f"vertex {name}" for name in g.orbits)
    for e in g.edges:
        tokens = ["edge", g.orbits[e.src], g.orbits[e.dst]]
        tokens.extend(str(t) for t in e.shift)
        tokens.append(str(e.weight))
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"
