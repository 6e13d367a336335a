"""Sparse R-, K-, and U-matrices over the polynomial ring: the vertex
matrices that scattering diagrams contract.

Conventions, fixed once for the whole package:

* Each map is stored entrywise as ``entries[(out_tuple, in_tuple)]`` with
  tuples of labels read left to right; diagrams compose bottom to top, so
  the in-tuple is the lower boundary of the vertex.  Every map is indexed
  when it is built: `by_input` and `by_output` group its entries by either
  side, and nothing changes a map afterwards.
* A vertex is one shared matrix plus its parameter.  There are five
  matrices, built once here; each entry is the shared `UNIT` or the
  `PARAMETER` marker, which stands for the vertex's parameter.
* A crossing of strands whose lower-left/lower-right spectral parameters
  are a and b carries R(a-b); the left strand exits upper right.
  Same-colour crossings (parameter b-a) and the red-green crossing
  (parameter a-b) have different entry tables.
* K_R turns a red strand into a green one at the wall (entries 0<->1, no
  parameter); K_B bounces a blue strand (diagonal plus one lower entry,
  parameter -2a).  U splits a blue strand into green tensor red.

With basis tuples ordered lexicographically in the alphabet order
0 < 10 < 1, the same-colour R and K_B matrices are lower-triangular.
"""

from __future__ import annotations

import itertools

from .labels import LABELS, Label
from .poly import Polynomial

Z0, T10, O1 = Label.ZERO, Label.TEN, Label.ONE

# The unit entry.  Every matrix below, and every int 1 a SparseMap is given,
# stores its unit entries as this one polynomial, so a contraction can tell
# a unit weight by identity.
UNIT = Polynomial.integer(1)

# Stands for the vertex's parameter in the matrices below; told apart by
# identity, so its value never enters a result.
PARAMETER = Polynomial.integer(2)


class SparseMap:
    """A sparse linear map between tensor powers of the 3-dimensional label space."""

    __slots__ = ("out_arity", "in_arity", "entries", "by_input", "by_output")

    def __init__(self, out_arity: int, in_arity: int, entries=None):
        self.out_arity = out_arity
        self.in_arity = in_arity
        self.entries: dict = {}
        if entries:
            for (out, inn), weight in entries.items():
                if len(out) != out_arity or len(inn) != in_arity:
                    raise ValueError("entry arity mismatch")
                if not isinstance(weight, Polynomial):
                    weight = UNIT if weight == 1 else Polynomial.integer(weight)
                if weight.is_zero:
                    continue
                self.entries[(tuple(out), tuple(inn))] = weight
        # entries grouped by in-tuple, each list sorted by out-tuple, and the reverse
        self.by_input = self._grouped(by_out=False)
        self.by_output = self._grouped(by_out=True)

    def _grouped(self, by_out: bool) -> dict:
        grouped: dict = {}
        for (out, inn), weight in self.entries.items():
            key, other = (out, inn) if by_out else (inn, out)
            grouped.setdefault(key, []).append((other, weight))
        for lst in grouped.values():
            lst.sort(key=lambda ow: ow[0])
        return grouped

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


def at(matrix: SparseMap, weight: Polynomial) -> SparseMap:
    """`matrix` with `weight` written into its `PARAMETER` entries; a zero
    weight drops them."""
    entries = {key: weight if w is PARAMETER else w for key, w in matrix.entries.items()}
    return SparseMap(matrix.out_arity, matrix.in_arity, entries)


# -- the vertex matrices, shared by every vertex of every diagram ---------

# Crossing of two same-colour strands: unit on every diagonal pair; the
# parameter on the three exchange entries (1,0)<-(0,1), (10,0)<-(0,10),
# (1,10)<-(10,1).
R_SAME_COLOUR = SparseMap(2, 2, {
    **{((k, l), (k, l)): UNIT for k, l in itertools.product(LABELS, repeat=2)},
    **{(out, inn): PARAMETER
       for out, inn in (((O1, Z0), (Z0, O1)), ((T10, Z0), (Z0, T10)), ((O1, T10), (T10, O1)))},
})

# Crossing of a red strand (lower left) over a green one: the parameter at
# (0,1)<-(1,0) and nine unit entries; everything else vanishes.
R_RED_GREEN = SparseMap(2, 2, {
    ((Z0, O1), (O1, Z0)): PARAMETER,
    **{((i, j), (k, l)): UNIT for i, j, k, l in (
        (Z0, Z0, Z0, Z0),
        (O1, O1, O1, O1),
        (Z0, Z0, O1, T10),
        (Z0, T10, O1, O1),
        (Z0, T10, T10, Z0),
        (O1, Z0, Z0, O1),
        (O1, O1, T10, Z0),
        (T10, O1, Z0, Z0),
        (T10, O1, O1, T10),
    )},
})

# Blue strand bouncing at the wall: identity plus the parameter at (1)<-(0).
K_BLUE = SparseMap(1, 1, {**{((x,), (x,)): UNIT for x in LABELS}, ((O1,), (Z0,)): PARAMETER})

# Red strand bouncing into a green one at the wall; exchanges 0 and 1.
K_RED = SparseMap(1, 1, {((O1,), (Z0,)): UNIT, ((Z0,), (O1,)): UNIT})

# Trivalent vertex: blue in, green (left) and red (right) out; five unit
# entries (green,red)<-(blue).
U_SPLIT = SparseMap(2, 1, {((i, j), (k,)): UNIT for i, j, k in (
    (Z0, Z0, Z0),
    (Z0, T10, O1),
    (O1, Z0, T10),
    (O1, O1, O1),
    (T10, O1, Z0),
)})
