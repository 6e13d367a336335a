"""Scattering diagrams: the dual-graph form of puzzles.

A diagram is a planar acyclic network of coloured strands.  `_grow` builds
every one bottom-up from a row of input strands and a list of moves on the
"frontier" of live edges: a split turns a blue strand into a green one
(exiting northwest) and a red one, a crossing swaps two neighbouring
strands under an R-matrix whose argument is the difference of their
spectral parameters, and a bounce turns a strand off the east wall.
Evaluating the diagram contracts the vertex matrices from whichever
boundary is pinned: forward in construction order from the south (input)
boundary, or in reverse from the north (output) boundary, so one pass
yields every entry with that boundary.  The same pass counts the labelings
behind each entry.  Enumerating the labelings lists the puzzles
themselves, each with its fugacity (the product of the chosen matrix
entries).

Each family is an input row plus a move list:

* the full triangle of size n -- products of two Schubert classes pulled
  back to a two-step flag manifold (equivariant puzzle rule);
* the half triangle of size 2n -- restriction from Gr(k,2n) to the
  symplectic Grassmannian: the triangle's moves, then one red bounce per
  strand at the east wall;
* wiring diagrams of reduced words -- fixed-point restrictions, with a
  same-colour crossing per simple transposition and a blue bounce for the
  sign generator;
* the identity diagrams, one more table of rows and moves: the two sides
  of each diagram move (Yang-Baxter, trivalent swap, reflection, K-fusion)
  that the puzzle rules rest on.  An identity holds when both sides have
  the same boundary map.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .labels import LABELS, Label
from .poly import Polynomial, u, y
from .tensor import K_BLUE, K_RED, R_RED_GREEN, R_SAME_COLOUR, U_SPLIT, UNIT, SparseMap


class Edge(NamedTuple):
    # An edge's ident is its position in its diagram's `edges`, which number
    # the edges in construction order, the inputs first.
    colour: str  # "G", "R" or "B"
    parameter: Polynomial


class Vertex(NamedTuple):
    # A vertex is one of the five shared matrices of `tensor` plus its
    # parameter, the nonzero weight that the matrix's PARAMETER entries
    # stand for (None when it has none).
    matrix: SparseMap
    parameter: Polynomial | None
    in_edges: tuple[int, ...]
    out_edges: tuple[int, ...]
    position: int  # frontier position of in_edges[0] when the vertex was added


class ScatteringDiagram(NamedTuple):
    name: str
    edges: list[Edge]  # in construction order: the inputs, then each vertex's out_edges
    vertices: list[Vertex]  # in topological order: a vertex's inputs exist before it
    n_inputs: int
    output_edges: tuple[int, ...]  # edge idents

    @property
    def n_outputs(self) -> int:
        return len(self.output_edges)

    def output_parameters(self) -> list[Polynomial]:
        return [self.edges[e].parameter for e in self.output_edges]


def _grow(name: str, inputs, moves) -> ScatteringDiagram:
    """The diagram grown upward from a row of input strands by a list of moves.

    `inputs` gives each input strand, west to east, as (colour, parameter);
    `moves` gives each vertex, bottom to top, as (kind, frontier position):
    a "split" turns the blue strand there into a green and a red one, a
    "cross" swaps it with the strand to its east, the west one exiting
    east, and a "bounce" turns it off the east wall, negating its parameter.
    A vertex whose parameter is zero is an error."""
    edges = [Edge(colour, parameter) for colour, parameter in inputs]
    vertices: list[Vertex] = []
    frontier = list(range(len(edges)))
    for kind, pos in moves:
        in_edges = tuple(frontier[pos : pos + (2 if kind == "cross" else 1)])
        e_in = edges[in_edges[0]]
        if kind == "split":
            if e_in.colour != "B":
                raise ValueError("only blue strands split")
            matrix, parameter = U_SPLIT, None
            out = Edge("G", e_in.parameter), Edge("R", e_in.parameter)
        elif kind == "cross":
            right = edges[in_edges[1]]
            argument = e_in.parameter - right.parameter
            if e_in.colour == right.colour:
                matrix, parameter = R_SAME_COLOUR, -argument
            elif (e_in.colour, right.colour) == ("R", "G"):
                matrix, parameter = R_RED_GREEN, argument
            else:
                raise ValueError(f"unsupported crossing colours {e_in.colour}{right.colour}")
            out = right, e_in
        elif kind == "bounce":
            if e_in.colour == "R":
                matrix, parameter, out_colour = K_RED, None, "G"
            elif e_in.colour == "B":
                matrix, parameter, out_colour = K_BLUE, Polynomial.integer(-2) * e_in.parameter, "B"
            else:
                raise ValueError("only red and blue strands bounce")
            out = (Edge(out_colour, -e_in.parameter),)
        else:
            raise ValueError(f"unknown move {kind!r}")
        if parameter is not None and parameter.is_zero:
            raise ValueError(f"{name}: zero {kind} parameter at frontier position {pos}")
        out_edges = tuple(range(len(edges), len(edges) + len(out)))
        edges += out
        frontier[pos : pos + len(in_edges)] = out_edges
        vertices.append(Vertex(matrix, parameter, in_edges, out_edges, pos))
    return ScatteringDiagram(name, edges, vertices, len(inputs), tuple(frontier))


def _checked(diagram: ScatteringDiagram, row: list) -> ScatteringDiagram:
    """The diagram, once its output strands carry the (colour, parameter)
    row that its family promises."""
    if [diagram.edges[e] for e in diagram.output_edges] != row:
        raise RuntimeError(f"diagram construction: {diagram.name} has the wrong output row")
    return diagram


def _triangle_moves(n: int) -> list[tuple[str, int]]:
    """Split every blue strand, then cross red i over green j = i + h for
    every i < j, by height h: red i then has i + h - 1 greens and i - 1
    reds to its west."""
    return [("split", 2 * (i - 1)) for i in range(1, n + 1)] + [
        ("cross", 2 * i + h - 2) for h in range(1, n) for i in range(1, n - h + 1)
    ]


def build_triangle_diagram(n: int) -> ScatteringDiagram:
    """The size-n triangle: n blue inputs y_1..y_n, a trivalent split on
    each, and a red-green crossing R_RG(y_i - y_j) for every pair i < j.

    Output edges, in frontier order, are the n greens (northwest side read
    bottom to top) followed by the n reds (northeast side read top to
    bottom)."""
    if n < 1:
        raise ValueError("triangle size must be at least 1")
    ys = [y(i) for i in range(1, n + 1)]
    diagram = _grow(f"triangle({n})", [("B", p) for p in ys], _triangle_moves(n))
    return _checked(diagram, [("G", p) for p in ys] + [("R", p) for p in ys])


def build_half_diagram(n: int) -> ScatteringDiagram:
    """Left half of a size-2n self-dual triangle.

    Same as the triangle up to the east wall: red strand i crosses the
    direct greens j > i with argument y_i - y_j, bounces off the last
    frontier position into a green with parameter -y_i, and on the way out
    is crossed by every red t < i with argument y_t + y_i.  The 2n output
    greens carry, bottom to top, the parameters y_1, .., y_n, -y_n, .., -y_1."""
    if n < 1:
        raise ValueError("half-diagram size must be at least 1")
    ys = [y(i) for i in range(1, n + 1)]
    moves = _triangle_moves(n)
    for i in range(n, 0, -1):
        moves.append(("bounce", 2 * n - 1))
        moves.extend(("cross", pos) for pos in range(2 * n - 2, 2 * n - i - 1, -1))
    diagram = _grow(f"half({n})", [("B", p) for p in ys], moves)
    return _checked(diagram, [("G", p) for p in ys] + [("G", -p) for p in reversed(ys)])


def build_wiring_diagram(word, group_type: str, m: int, weights=None) -> ScatteringDiagram:
    """Wiring diagram of a word in simple generators on m strands.

    Strands carry y_1..y_m along the top, or the m polynomials `weights` in
    their place; letters are placed top to bottom in word order and the
    diagram composes bottom to top.  Letter i < m (any i in type A) crosses
    strands i, i+1; in type C the letter m is a blue bounce on the last
    strand, negating its parameter.  The name gives the type, m and the
    word, not the weights."""
    if m < 1:
        raise ValueError("need at least one strand")
    if weights is None:
        weights = tuple(y(i) for i in range(1, m + 1))
    elif len(weights) != m:
        raise ValueError(f"need {m} strand weights, got {len(weights)}")
    word = tuple(word)
    for q in word:
        if group_type == "A" and not 1 <= q <= m - 1:
            raise ValueError(f"type A generator index {q} out of range 1..{m - 1}")
        if group_type == "C" and not 1 <= q <= m:
            raise ValueError(f"type C generator index {q} out of range 1..{m}")

    params: list[Polynomial] = list(weights)
    moves = []
    for q in word:  # top to bottom
        if group_type == "C" and q == m:
            params[m - 1] = -params[m - 1]
            moves.append(("bounce", m - 1))
        else:
            params[q - 1], params[q] = params[q], params[q - 1]
            moves.append(("cross", q - 1))
    moves.reverse()  # the diagram grows bottom to top

    colour = "G" if group_type == "A" else "B"
    name = f"wiring({group_type},{m},{'.'.join(map(str, word))})"
    diagram = _grow(name, [(colour, p) for p in params], moves)
    return _checked(diagram, [(colour, w) for w in weights])


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
    the counts are exact.  A `UNIT` matrix entry only relabels the state;
    a `PARAMETER` entry, the only other kind, multiplies it by the vertex's
    parameter.  It is pure: each call returns a new column, and
    `schubert._column` memoises repeats."""
    key = tuple(boundary)
    pinned = diagram.n_outputs if reverse else diagram.n_inputs
    if len(key) != pinned:
        side = "output" if reverse else "input"
        raise ValueError(f"{side} boundary has {len(key)} labels, diagram wants {pinned}")
    states: dict[tuple[Label, ...], tuple[Polynomial, int]] = {key: (UNIT, 1)}
    for v in reversed(diagram.vertices) if reverse else diagram.vertices:
        if reverse:
            index, arity = v.matrix.by_output, len(v.out_edges)
        else:
            index, arity = v.matrix.by_input, len(v.in_edges)
        pos, end, parameter = v.position, v.position + arity, v.parameter
        new_states: dict[tuple[Label, ...], tuple[Polynomial, int]] = {}
        for state, (coeff, count) in states.items():
            for labels, weight in index.get(state[pos:end], ()):
                new_state = state[:pos] + labels + state[end:]
                w = coeff if weight is UNIT else coeff * parameter
                if new_state in new_states:
                    old, old_count = new_states[new_state]
                    new_states[new_state] = (old + w, old_count + count)
                else:
                    new_states[new_state] = (w, count)
        states = new_states
    column = Column((s, p) for s, (p, _) in states.items() if not p.is_zero)
    column.counts = {s: c for s, (_, c) in states.items()}
    return column


# -- explicit enumeration --------------------------------------------------

class Labeling(NamedTuple):
    """One consistent edge labeling of a diagram (dually, one puzzle)."""

    diagram: ScatteringDiagram
    edge_labels: tuple[Label, ...]
    fugacity: Polynomial

    def dump(self, verbose: bool = False) -> str:
        lines = []
        for ident, (e, lab) in enumerate(zip(self.diagram.edges, self.edge_labels)):
            text = lab.token if verbose else lab.compact
            lines.append(f"{ident} {e.colour} {e.parameter} {text}")
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
    (free).  A partial labeling is the tuple of labels of the edges made so
    far: an admissible input row, then each vertex's out-labels in turn."""
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
        rows = [in_key]
    else:
        rows = itertools.product(LABELS, repeat=diagram.n_inputs)

    def admissible(first: int, labels) -> bool:
        """Whether `labels`, on the edges numbered from `first`, meet the output boundary."""
        return not want_out or all(want_out.get(e, lab) == lab for e, lab in enumerate(labels, first))

    results: list[Labeling] = []
    vertices = diagram.vertices

    def extend(idx: int, labels: tuple[Label, ...], fug: Polynomial) -> None:
        if idx == len(vertices):
            results.append(Labeling(diagram, labels, fug))
            return
        v = vertices[idx]
        for out, weight in v.matrix.by_input.get(tuple(labels[e] for e in v.in_edges), ()):
            if admissible(len(labels), out):
                w = fug if weight is UNIT else fug * v.parameter
                extend(idx + 1, labels + out, w)

    for row in rows:
        if admissible(0, row):
            extend(0, row, Polynomial.integer(1))
    return results


# -- the diagram-move identities --------------------------------------------

_YANG_BAXTER = ("cross 0, cross 1, cross 0", "cross 1, cross 0, cross 1")
_REFLECTION = ("cross 0, bounce 1, cross 0, bounce 1", "bounce 1, cross 0, bounce 1, cross 0")

# identity name -> input colours, input parameters (+-i stands for +-u_i),
# and the moves of the left and right side, bottom to top
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
    inputs = [(colour, u(i) if i > 0 else -u(-i)) for colour, i in zip(colours, params)]
    parsed = ([(kind, int(pos)) for kind, pos in map(str.split, side.split(", "))] for side in sides)
    return tuple(_grow(f"{which}: {side}", inputs, moves) for side, moves in zip(sides, parsed))


def verify_identity(which: str) -> bool:
    """Whether both sides of the named identity have the same boundary map:
    the same column at every input boundary."""
    lhs, rhs = _identity_sides(which)
    rows = itertools.product(LABELS, repeat=lhs.n_inputs)
    return lhs.n_outputs == rhs.n_outputs and all(transfer(lhs, row) == transfer(rhs, row) for row in rows)
