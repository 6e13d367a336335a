"""Scattering diagrams: the dual-graph form of puzzles.

A diagram is a planar acyclic network of coloured strands built bottom-up
on a "frontier" of live edges: blue input stubs enter from the south,
trivalent vertices split each blue strand into a green one (exiting
northwest) and a red one (exiting northeast or bouncing off the east
wall), and crossings carry R-matrices whose argument is the difference of
the two lower spectral parameters.  Evaluating the diagram contracts the
vertex matrices from whichever boundary is pinned: forward in construction
order from the south (input) boundary, or in reverse from the north
(output) boundary, so one pass yields every entry with that boundary.  The
same pass counts the labelings behind each entry.  Enumerating the
labelings lists the puzzles themselves, each with its fugacity (the
product of the chosen matrix entries).

Three families are built here:

* the full triangle of size n -- products of two Schubert classes pulled
  back to a two-step flag manifold (equivariant puzzle rule);
* the half triangle of size 2n -- restriction from Gr(k,2n) to the
  symplectic Grassmannian, one red bounce per strand at the east wall;
* wiring diagrams of reduced words -- fixed-point restrictions, with a
  same-colour crossing per simple transposition and a blue bounce for the
  sign generator.

Next to them, the identity diagrams: the two sides of each diagram move
(Yang-Baxter, trivalent swap, reflection, K-fusion) that the puzzle rules
rest on, grown as two move sequences on one row of input strands.  An
identity holds when both sides have the same boundary map.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .labels import LABELS, Label, Record
from .poly import Polynomial, u, y
from .tensor import (
    K_BLUE, K_RED, PARAMETER, R_RED_GREEN, R_SAME_COLOUR, U_SPLIT, UNIT, SparseMap, at,
)


class Edge(NamedTuple):
    ident: int
    colour: str  # "G", "R" or "B"
    parameter: Polynomial


class Vertex(NamedTuple):
    # A vertex is one shared matrix of `tensor` plus its parameter, the
    # weight that the matrix's PARAMETER entries stand for (None when it has
    # none).  A zero parameter gets a parameter-free copy of the matrix.
    kind: str  # "crossing", "bounce" or "trivalent"
    matrix: SparseMap
    parameter: Polynomial | None
    in_edges: tuple[int, ...]
    out_edges: tuple[int, ...]
    position: int  # frontier position of in_edges[0] when the vertex was added


class ScatteringDiagram(Record):
    # edges: list[Edge]; vertices: list[Vertex], in topological order (the
    # inputs of each vertex exist before it); input_edges, output_edges:
    # tuples of edge idents; _transfer_cache: (reverse, boundary) -> Column
    __slots__ = ("name", "edges", "vertices", "input_edges", "output_edges", "_transfer_cache")

    # equal to itself only: the transfer cache is a field that fills with use
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def n_inputs(self) -> int:
        return len(self.input_edges)

    @property
    def n_outputs(self) -> int:
        return len(self.output_edges)

    def output_parameters(self) -> list[Polynomial]:
        return [self.edges[e].parameter for e in self.output_edges]


class _Builder:
    """Grows a diagram upward, one vertex at a time, on a frontier of edges."""

    def __init__(self, name: str):
        self.name = name
        self.edges: list[Edge] = []
        self.vertices: list[Vertex] = []
        self.frontier: list[int] = []
        self.inputs: list[int] = []

    def _new_edge(self, colour: str, parameter: Polynomial) -> int:
        ident = len(self.edges)
        self.edges.append(Edge(ident, colour, parameter))
        return ident

    def _add_vertex(self, kind, matrix, parameter, in_edges, out_edges, pos) -> None:
        if parameter is not None and parameter.is_zero:
            matrix = at(matrix, parameter)
        self.vertices.append(Vertex(kind, matrix, parameter, in_edges, out_edges, pos))

    def add_input(self, colour: str, parameter: Polynomial) -> int:
        e = self._new_edge(colour, parameter)
        self.frontier.append(e)
        self.inputs.append(e)
        return e

    def split(self, pos: int) -> tuple[int, int]:
        """Trivalent vertex at frontier position pos: blue -> green, red."""
        e_in = self.edges[self.frontier[pos]]
        if e_in.colour != "B":
            raise ValueError("only blue strands split")
        green = self._new_edge("G", e_in.parameter)
        red = self._new_edge("R", e_in.parameter)
        self._add_vertex("trivalent", U_SPLIT, None, (e_in.ident,), (green, red), pos)
        self.frontier[pos : pos + 1] = [green, red]
        return green, red

    def cross(self, pos: int) -> tuple[int, int]:
        """Crossing of frontier positions pos, pos+1; left strand exits right."""
        left = self.edges[self.frontier[pos]]
        right = self.edges[self.frontier[pos + 1]]
        argument = left.parameter - right.parameter
        if left.colour == right.colour:
            matrix, parameter = R_SAME_COLOUR, -argument
        elif (left.colour, right.colour) == ("R", "G"):
            matrix, parameter = R_RED_GREEN, argument
        else:
            raise ValueError(f"unsupported crossing colours {left.colour}{right.colour}")
        new_left = self._new_edge(right.colour, right.parameter)
        new_right = self._new_edge(left.colour, left.parameter)
        self._add_vertex("crossing", matrix, parameter,
                         (left.ident, right.ident), (new_left, new_right), pos)
        self.frontier[pos : pos + 2] = [new_left, new_right]
        return new_left, new_right

    def bounce(self, pos: int) -> int:
        """Wall bounce at frontier position pos; negates the parameter."""
        e_in = self.edges[self.frontier[pos]]
        if e_in.colour == "R":
            matrix, parameter, out_colour = K_RED, None, "G"
        elif e_in.colour == "B":
            matrix, parameter, out_colour = K_BLUE, Polynomial.integer(-2) * e_in.parameter, "B"
        else:
            raise ValueError("only red and blue strands bounce")
        out = self._new_edge(out_colour, -e_in.parameter)
        self._add_vertex("bounce", matrix, parameter, (e_in.ident,), (out,), pos)
        self.frontier[pos] = out
        return out

    def position_of(self, edge: int) -> int:
        return self.frontier.index(edge)

    def finish(self) -> ScatteringDiagram:
        return ScatteringDiagram(
            self.name,
            self.edges,
            self.vertices,
            tuple(self.inputs),
            tuple(self.frontier),
            {},
        )


def _require(ok: bool, what: str) -> None:
    """Raise if a builder broke one of its own layout invariants."""
    if not ok:
        raise RuntimeError(f"diagram construction: {what}")


def _triangle_builder(name: str, n: int):
    """n blue inputs y_1..y_n, a trivalent split on each, and a red-green
    crossing R_RG(y_i - y_j) for every pair i < j; returns the builder and
    the green and red edge of each strand."""
    b = _Builder(name)
    for i in range(1, n + 1):
        b.add_input("B", y(i))
    greens: dict[int, int] = {}
    reds: dict[int, int] = {}
    for i in range(1, n + 1):
        greens[i], reds[i] = b.split(2 * (i - 1))
    # red i must pass green j for every i < j; sweep by height j - i
    for h in range(1, n):
        for i in range(1, n - h + 1):
            j = i + h
            pos = b.position_of(reds[i])
            _require(b.frontier[pos + 1] == greens[j], f"red {i} does not meet green {j}")
            greens[j], reds[i] = b.cross(pos)
    return b, greens, reds


def build_triangle_diagram(n: int) -> ScatteringDiagram:
    """The size-n triangle: n blue inputs y_1..y_n, a trivalent split on
    each, and a red-green crossing R_RG(y_i - y_j) for every pair i < j.

    Output edges, in frontier order, are the n greens (northwest side read
    bottom to top) followed by the n reds (northeast side read top to
    bottom)."""
    if n < 1:
        raise ValueError("triangle size must be at least 1")
    b, greens, reds = _triangle_builder(f"triangle({n})", n)
    diagram = b.finish()
    expected = [greens[j] for j in range(1, n + 1)] + [reds[i] for i in range(1, n + 1)]
    _require(list(diagram.output_edges) == expected, "triangle outputs out of order")
    return diagram


def build_half_diagram(n: int) -> ScatteringDiagram:
    """Left half of a size-2n self-dual triangle.

    Same as the triangle up to the east wall: red strand i crosses the
    direct greens j > i with argument y_i - y_j, bounces into a green with
    parameter -y_i, and on the way out is crossed by every red j < i with
    argument y_j + y_i.  The 2n output greens carry, bottom to top, the
    parameters y_1, .., y_n, -y_n, .., -y_1."""
    if n < 1:
        raise ValueError("half-diagram size must be at least 1")
    b, greens, reds = _triangle_builder(f"half({n})", n)
    bounced: dict[int, int] = {}
    for i in range(n, 0, -1):
        pos = b.position_of(reds[i])
        _require(pos == len(b.frontier) - 1, f"red {i} does not reach the wall")
        bounced[i] = b.bounce(pos)
        for t in range(i - 1, 0, -1):
            pos = b.position_of(bounced[i])
            _require(b.frontier[pos - 1] == reds[t], f"bounced {i} does not meet red {t}")
            bounced[i], reds[t] = b.cross(pos - 1)
    diagram = b.finish()
    expected = [greens[j] for j in range(1, n + 1)] + [bounced[i] for i in range(n, 0, -1)]
    _require(list(diagram.output_edges) == expected, "half-diagram outputs out of order")
    return diagram


def build_wiring_diagram(word, group_type: str, m: int, weights=None) -> ScatteringDiagram:
    """Wiring diagram of a word in simple generators on m strands.

    Strands carry y_1..y_m along the top, or the m polynomials `weights` in
    their place; letters are placed top to bottom in word order and the
    diagram composes bottom to top.  Letter i < m (any i in type A) crosses
    strands i, i+1; in type C the letter m is a blue bounce on the last
    strand, negating its parameter.  The name lists the weights when they
    are given."""
    if m < 1:
        raise ValueError("need at least one strand")
    suffix = ""
    if weights is None:
        weights = tuple(y(i) for i in range(1, m + 1))
    elif len(weights) != m:
        raise ValueError(f"need {m} strand weights, got {len(weights)}")
    else:
        suffix = ";" + ",".join(map(str, weights))
    word = tuple(word)
    for q in word:
        if group_type == "A" and not 1 <= q <= m - 1:
            raise ValueError(f"type A generator index {q} out of range 1..{m - 1}")
        if group_type == "C" and not 1 <= q <= m:
            raise ValueError(f"type C generator index {q} out of range 1..{m}")

    params: list[Polynomial] = list(weights)
    for q in word:  # top to bottom
        if group_type == "C" and q == m:
            params[m - 1] = -params[m - 1]
        else:
            params[q - 1], params[q] = params[q], params[q - 1]

    colour = "G" if group_type == "A" else "B"
    b = _Builder(f"wiring({group_type},{m},{'.'.join(map(str, word))}{suffix})")
    for p in params:
        b.add_input(colour, p)
    for q in reversed(word):  # bottom to top
        if group_type == "C" and q == m:
            b.bounce(m - 1)
        else:
            b.cross(q - 1)
    diagram = b.finish()
    _require(diagram.output_parameters() == list(weights),
             "wiring outputs do not carry the strand weights")
    return diagram


# -- evaluation ----------------------------------------------------------


class Column(dict):
    """The nonzero entries of one contraction: free boundary -> polynomial.

    `counts` maps every free boundary that some labeling reaches, including
    those whose fugacities cancel to zero, to its number of labelings."""

    __slots__ = ("counts",)


def transfer(diagram: ScatteringDiagram, boundary, reverse: bool = False) -> Column:
    """All boundary-map entries with one boundary pinned, in one pass.

    Forward (the default) pins the input boundary and contracts the vertex
    matrices in construction order through their `by_input` index, giving
    output boundary -> polynomial.  `reverse` pins the output boundary and
    contracts in the opposite order through `by_output`, giving input
    boundary -> polynomial.  A frontier state carries (polynomial, number of
    labelings) and exists exactly when some partial labeling reaches it, so
    the counts are exact.  A unit matrix entry (the shared `UNIT`) only
    relabels the state; a `PARAMETER` entry multiplies it by the vertex's
    parameter, and any other entry by the entry itself."""
    key = tuple(boundary)
    pinned = diagram.n_outputs if reverse else diagram.n_inputs
    if len(key) != pinned:
        side = "output" if reverse else "input"
        raise ValueError(f"{side} boundary has {len(key)} labels, diagram wants {pinned}")
    cached = diagram._transfer_cache.get((reverse, key))
    if cached is not None:
        return cached
    states: dict[tuple[Label, ...], tuple[Polynomial, int]] = {key: (UNIT, 1)}
    for v in reversed(diagram.vertices) if reverse else diagram.vertices:
        if reverse:
            index, arity = v.matrix.by_output(), len(v.out_edges)
        else:
            index, arity = v.matrix.by_input(), len(v.in_edges)
        pos, end, parameter = v.position, v.position + arity, v.parameter
        new_states: dict[tuple[Label, ...], tuple[Polynomial, int]] = {}
        for state, (coeff, count) in states.items():
            for labels, weight in index.get(state[pos:end], ()):
                new_state = state[:pos] + labels + state[end:]
                w = coeff if weight is UNIT else coeff * (parameter if weight is PARAMETER else weight)
                if new_state in new_states:
                    old, old_count = new_states[new_state]
                    new_states[new_state] = (old + w, old_count + count)
                else:
                    new_states[new_state] = (w, count)
        states = new_states
    column = Column((s, p) for s, (p, _) in states.items() if not p.is_zero)
    column.counts = {s: c for s, (_, c) in states.items()}
    diagram._transfer_cache[(reverse, key)] = column
    return column


# -- explicit enumeration --------------------------------------------------

class Labeling(NamedTuple):
    """One consistent edge labeling of a diagram (dually, one puzzle)."""

    diagram: ScatteringDiagram
    edge_labels: tuple[Label, ...]
    fugacity: Polynomial

    def dump(self, verbose: bool = False) -> str:
        lines = []
        for e in self.diagram.edges:
            lab = self.edge_labels[e.ident]
            text = lab.token if verbose else lab.compact
            lines.append(f"{e.ident} {e.colour} {e.parameter} {text}")
        lines.append(f"fugacity: {self.fugacity}")
        return "\n".join(lines)


def enumerate_labelings(
    diagram: ScatteringDiagram,
    out_labels=None,
    in_labels=None,
) -> list[Labeling]:
    """All edge labelings consistent with the boundary constraints and with
    every vertex weight nonzero, in lexicographic order of the label
    assignment along the construction order.  Either boundary may be None
    (free)."""
    want_out: dict[int, Label] = {}
    if out_labels is not None:
        out_key = tuple(out_labels)
        if len(out_key) != diagram.n_outputs:
            raise ValueError("output boundary length mismatch")
        want_out = dict(zip(diagram.output_edges, out_key))
    if in_labels is not None:
        in_key = tuple(in_labels)
        if len(in_key) != diagram.n_inputs:
            raise ValueError("input boundary length mismatch")
    else:
        in_key = None

    results: list[Labeling] = []
    assignment: dict[int, Label] = {}

    def admissible(edge: int, lab: Label) -> bool:
        return edge not in want_out or want_out[edge] == lab

    def assign_inputs(idx: int):
        if idx == diagram.n_inputs:
            run_vertices(0, Polynomial.integer(1))
            return
        edge = diagram.input_edges[idx]
        if in_key is not None:
            choices = (in_key[idx],)
        else:
            choices = LABELS
        for lab in choices:
            if not admissible(edge, lab):
                continue
            assignment[edge] = lab
            assign_inputs(idx + 1)
            del assignment[edge]

    def run_vertices(idx: int, fug: Polynomial):
        if idx == len(diagram.vertices):
            labels = tuple(assignment[e.ident] for e in diagram.edges)
            results.append(Labeling(diagram, labels, fug))
            return
        v = diagram.vertices[idx]
        inn = tuple(assignment[e] for e in v.in_edges)
        for out, weight in v.matrix.by_input().get(inn, ()):
            if not all(admissible(e, lab) for e, lab in zip(v.out_edges, out)):
                continue
            for e, lab in zip(v.out_edges, out):
                assignment[e] = lab
            run_vertices(idx + 1, fug * (v.parameter if weight is PARAMETER else weight))
            for e in v.out_edges:
                del assignment[e]

    assign_inputs(0)
    return results


def as_sparse_map(diagram: ScatteringDiagram) -> SparseMap:
    """The diagram's full boundary-to-boundary map, entry by entry."""
    entries = {}
    for inn in itertools.product(LABELS, repeat=diagram.n_inputs):
        for out, weight in transfer(diagram, inn).items():
            entries[(out, inn)] = weight
    return SparseMap(diagram.n_outputs, diagram.n_inputs, entries)


# -- the diagram-move identities --------------------------------------------

_YANG_BAXTER = ("cross 0, cross 1, cross 0", "cross 1, cross 0, cross 1")
_REFLECTION = ("cross 0, bounce 1, cross 0, bounce 1", "bounce 1, cross 0, bounce 1, cross 0")

# identity name -> input colours, input parameters (+-i stands for +-u_i),
# and the builder moves of the left and right side, bottom to top
_IDENTITIES = {
    "yb-rrg": ("RRG", (3, 2, 1), *_YANG_BAXTER),
    "yb-ggr": ("RGG", (3, 2, 1), *_YANG_BAXTER),
    "yb-ggg": ("GGG", (3, 2, 1), *_YANG_BAXTER),
    "yb-bbb": ("BBB", (3, 2, 1), *_YANG_BAXTER),
    "trivalent-swap": ("BB", (2, 1), "cross 0, split 0, split 2, cross 1",
                       "split 0, split 2, cross 1, cross 0, cross 2"),
    "reflection-rg": ("RR", (-1, -2), *_REFLECTION),
    "reflection-bb": ("BB", (-1, -2), *_REFLECTION),
    "k-fusion": ("B", (-1,), "bounce 0, split 0, bounce 1", "split 0, bounce 1, cross 0"),
}

IDENTITY_NAMES = tuple(_IDENTITIES)


def _identity_sides(which: str) -> tuple[ScatteringDiagram, ScatteringDiagram]:
    """The left and right diagram of an identity.  The u_i are made here, not
    at import, so that importing the package registers no variable."""
    if which not in _IDENTITIES:
        raise ValueError(f"unknown identity {which!r}")
    colours, params, *sides = _IDENTITIES[which]
    diagrams = []
    for moves in sides:
        b = _Builder(f"{which}: {moves}")
        for colour, i in zip(colours, params):
            b.add_input(colour, u(i) if i > 0 else -u(-i))
        for move in moves.split(", "):
            kind, pos = move.split()
            getattr(b, kind)(int(pos))
        diagrams.append(b.finish())
    return tuple(diagrams)


def verify_identity(which: str) -> bool:
    """Whether both sides of the named identity have the same boundary map."""
    lhs, rhs = _identity_sides(which)
    return as_sparse_map(lhs) == as_sparse_map(rhs)
