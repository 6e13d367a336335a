"""Sparse R-, K-, and U-matrices over the polynomial ring, and the
diagram-move identities they satisfy.

Conventions, fixed once for the whole package:

* Each map is stored entrywise as ``entries[(out_tuple, in_tuple)]`` with
  tuples of labels read left to right; diagrams compose bottom to top, so
  the in-tuple is the lower boundary of the vertex.
* A crossing of strands whose lower-left/lower-right spectral parameters
  are a and b carries the matrix R(a-b); the left strand exits upper
  right.  Same-colour crossings and the red-green crossing have different
  entry tables.
* K_R turns a red strand into a green one at the wall (entries 0<->1,
  parameter-independent); K_B bounces a blue strand (diagonal plus one
  lower entry -2a).  U splits a blue strand into green tensor red.

With basis tuples ordered lexicographically in the alphabet order
0 < 10 < 1, the same-colour R and K_B matrices are lower-triangular.
"""

from __future__ import annotations

import itertools
from functools import partial

from .labels import LABELS, Label
from .poly import Polynomial, u

Z0, T10, O1 = Label.ZERO, Label.TEN, Label.ONE


class SparseMap:
    """A sparse linear map between tensor powers of the 3-dimensional label space."""

    __slots__ = ("out_arity", "in_arity", "entries", "_by_input", "_by_output")

    def __init__(self, out_arity: int, in_arity: int, entries=None):
        self.out_arity = out_arity
        self.in_arity = in_arity
        self.entries: dict = {}
        if entries:
            for (out, inn), weight in entries.items():
                if not isinstance(weight, Polynomial):
                    weight = Polynomial.integer(weight)
                if weight.is_zero:
                    continue
                if len(out) != out_arity or len(inn) != in_arity:
                    raise ValueError("entry arity mismatch")
                self.entries[(tuple(out), tuple(inn))] = weight
        self._by_input = None
        self._by_output = None

    def _grouped(self, by_out: bool) -> dict:
        grouped: dict = {}
        for (out, inn), weight in self.entries.items():
            key, other = (out, inn) if by_out else (inn, out)
            grouped.setdefault(key, []).append((other, weight))
        for lst in grouped.values():
            lst.sort(key=lambda ow: ow[0])
        return grouped

    def by_input(self) -> dict:
        """Entries grouped by in-tuple, each list sorted by out-tuple."""
        if self._by_input is None:
            self._by_input = self._grouped(by_out=False)
        return self._by_input

    def by_output(self) -> dict:
        """Entries grouped by out-tuple, each list sorted by in-tuple."""
        if self._by_output is None:
            self._by_output = self._grouped(by_out=True)
        return self._by_output

    def entry(self, out, inn) -> Polynomial:
        return self.entries.get((tuple(out), tuple(inn)), Polynomial.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMap):
            return NotImplemented
        return (
            self.out_arity == other.out_arity
            and self.in_arity == other.in_arity
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMap(out_arity={self.out_arity}, in_arity={self.in_arity}, {len(self.entries)} entries)"


def identity_map(arity: int) -> SparseMap:
    entries = {}
    for word in itertools.product(LABELS, repeat=arity):
        entries[(word, word)] = 1
    return SparseMap(arity, arity, entries)


def compose(f: SparseMap, g: SparseMap) -> SparseMap:
    """The composition f after g."""
    if f.in_arity != g.out_arity:
        raise ValueError("arity mismatch in composition")
    acc: dict = {}
    f_by_in = f.by_input()
    for (mid, inn), gw in g.entries.items():
        for out, fw in f_by_in.get(mid, ()):
            key = (out, inn)
            w = fw * gw
            acc[key] = acc[key] + w if key in acc else w
    return SparseMap(f.out_arity, g.in_arity, acc)


def tensor_product(*maps: SparseMap) -> SparseMap:
    """The tensor product of one or more maps, leftmost factor first."""
    f = maps[0]
    for g in maps[1:]:
        acc = {}
        for (fo, fi), fw in f.entries.items():
            for (go, gi), gw in g.entries.items():
                acc[(fo + go, fi + gi)] = fw * gw
        f = SparseMap(f.out_arity + g.out_arity, f.in_arity + g.in_arity, acc)
    return f


# -- the matrices -------------------------------------------------------

def r_same_colour(argument: Polynomial) -> SparseMap:
    """Crossing of two same-colour strands, argument a-b.

    Unit on every diagonal pair; the three exchange entries
    (1,0)<-(0,1), (10,0)<-(0,10), (1,10)<-(10,1) carry b-a.
    """
    entries: dict = {}
    for k, l in itertools.product(LABELS, repeat=2):
        entries[((k, l), (k, l))] = Polynomial.integer(1)
    weight = -argument
    for out, inn in (((O1, Z0), (Z0, O1)), ((T10, Z0), (Z0, T10)), ((O1, T10), (T10, O1))):
        entries[(out, inn)] = weight
    return SparseMap(2, 2, entries)


_RG_UNIT = (
    (Z0, Z0, Z0, Z0),
    (O1, O1, O1, O1),
    (Z0, Z0, O1, T10),
    (Z0, T10, O1, O1),
    (Z0, T10, T10, Z0),
    (O1, Z0, Z0, O1),
    (O1, O1, T10, Z0),
    (T10, O1, Z0, Z0),
    (T10, O1, O1, T10),
)


def r_red_green(argument: Polynomial) -> SparseMap:
    """Crossing of a red strand (lower left) over a green strand, argument a-b.

    Nine unit entries, plus a-b at (0,1)<-(1,0); everything else vanishes.
    """
    entries: dict = {((Z0, O1), (O1, Z0)): argument}
    for i, j, k, l in _RG_UNIT:
        entries[((i, j), (k, l))] = Polynomial.integer(1)
    return SparseMap(2, 2, entries)


def k_red() -> SparseMap:
    """Red strand bouncing into a green one at the wall; exchanges 0 and 1.

    The entries are parameter-independent.
    """
    return SparseMap(1, 1, {((O1,), (Z0,)): 1, ((Z0,), (O1,)): 1})


def k_blue(a: Polynomial) -> SparseMap:
    """Blue strand bouncing at the wall: identity plus -2a at (1)<-(0)."""
    entries: dict = {((x,), (x,)): Polynomial.integer(1) for x in LABELS}
    entries[((O1,), (Z0,))] = Polynomial.integer(-2) * a
    return SparseMap(1, 1, entries)


_U_UNIT = (
    (Z0, Z0, Z0),
    (Z0, T10, O1),
    (O1, Z0, T10),
    (O1, O1, O1),
    (T10, O1, Z0),
)


def u_split() -> SparseMap:
    """Trivalent vertex: blue in, green (left) and red (right) out.

    Five unit entries (green,red)<-(blue); parameter-independent.
    """
    entries = {((i, j), (k,)): 1 for i, j, k in _U_UNIT}
    return SparseMap(2, 1, entries)


# -- the identity suite --------------------------------------------------

def _yang_baxter(top, middle, bottom) -> tuple[SparseMap, SparseMap]:
    """Yang-Baxter for three strands with parameters u1, u2, u3.

    `top`, `middle` and `bottom` construct the crossings of the left side,
    read top to bottom; the right side has the same crossings mirrored.
    """
    u1, u2, u3 = u(1), u(2), u(3)
    ident = identity_map(1)
    lhs = compose(
        tensor_product(top(u2 - u1), ident),
        compose(
            tensor_product(ident, middle(u3 - u1)),
            tensor_product(bottom(u3 - u2), ident),
        ),
    )
    rhs = compose(
        tensor_product(ident, bottom(u3 - u2)),
        compose(
            tensor_product(middle(u3 - u1), ident),
            tensor_product(ident, top(u2 - u1)),
        ),
    )
    return lhs, rhs


def _trivalent_swap(u_map: SparseMap | None = None) -> tuple[SparseMap, SparseMap]:
    u1, u2 = u(1), u(2)
    ident = identity_map(1)
    uu = u_map if u_map is not None else u_split()
    lhs = compose(
        tensor_product(ident, r_red_green(u1 - u2), ident),
        compose(tensor_product(uu, uu), r_same_colour(u2 - u1)),
    )
    rhs = compose(
        tensor_product(r_same_colour(u2 - u1), r_same_colour(u2 - u1)),
        compose(
            tensor_product(ident, r_red_green(u2 - u1), ident),
            tensor_product(uu, uu),
        ),
    )
    return lhs, rhs


def _reflection(mixed: bool) -> tuple[SparseMap, SparseMap]:
    """Reflection at the wall; mixed=True uses K_R, else all-blue with K_B."""
    u1, u2 = u(1), u(2)
    ident = identity_map(1)
    bounce = (lambda a: k_red()) if mixed else k_blue
    wall_cross = r_red_green if mixed else r_same_colour
    lhs = compose(
        tensor_product(ident, bounce(-u2)),
        compose(
            wall_cross(-u2 - u1),
            compose(tensor_product(ident, bounce(-u1)), r_same_colour(-u1 + u2)),
        ),
    )
    rhs = compose(
        r_same_colour(u2 - u1),
        compose(
            tensor_product(ident, bounce(-u1)),
            compose(wall_cross(-u1 - u2), tensor_product(ident, bounce(-u2))),
        ),
    )
    return lhs, rhs


def _k_fusion(u_map: SparseMap | None = None) -> tuple[SparseMap, SparseMap]:
    u1 = u(1)
    ident = identity_map(1)
    uu = u_map if u_map is not None else u_split()
    lhs = compose(tensor_product(ident, k_red()), compose(uu, k_blue(-u1)))
    rhs = compose(
        r_same_colour(Polynomial.integer(-2) * u1),
        compose(tensor_product(ident, k_red()), uu),
    )
    return lhs, rhs


# identity name -> builder of its two sides, in suite order
_IDENTITY_SIDES = {
    "yb-rrg": partial(_yang_baxter, r_red_green, r_red_green, r_same_colour),
    "yb-ggr": partial(_yang_baxter, r_same_colour, r_red_green, r_red_green),
    "yb-ggg": partial(_yang_baxter, r_same_colour, r_same_colour, r_same_colour),
    "yb-bbb": partial(_yang_baxter, r_same_colour, r_same_colour, r_same_colour),
    "trivalent-swap": _trivalent_swap,
    "reflection-rg": partial(_reflection, mixed=True),
    "reflection-bb": partial(_reflection, mixed=False),
    "k-fusion": _k_fusion,
}

IDENTITY_NAMES = tuple(_IDENTITY_SIDES)


def verify_identity(which: str) -> bool:
    if which not in _IDENTITY_SIDES:
        raise ValueError(f"unknown identity {which!r}")
    lhs, rhs = _IDENTITY_SIDES[which]()
    return lhs == rhs
