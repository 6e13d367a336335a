"""Sparse R-, K-, and U-matrices over the polynomial ring: the vertex
matrices that scattering diagrams contract.

Conventions, fixed once for the whole package:

* Each map is stored entrywise as ``entries[(out_tuple, in_tuple)]`` with
  tuples of labels read left to right; diagrams compose bottom to top, so
  the in-tuple is the lower boundary of the vertex.  Every map is indexed
  when it is built: `by_input` and `by_output` group its entries by either
  side, and nothing changes a map afterwards.
* A vertex is one shared matrix plus its parameter.  There are five
  matrices, built once here, and each entry is the shared `UNIT` or the
  `PARAMETER` marker, which stands for the vertex's parameter.  The
  constructor rejects any other entry, so a contraction tells the two
  apart by identity and never multiplies by an entry itself.
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

# The unit entry of every matrix below.
UNIT = Polynomial.integer(1)

# Stands for the vertex's parameter in the matrices below; told apart by
# identity, so its value never enters a result.
PARAMETER = Polynomial.integer(2)


class SparseMap:
    """A sparse linear map between tensor powers of the 3-dimensional label
    space, every entry `UNIT` or `PARAMETER`."""

    __slots__ = ("entries", "by_input", "by_output")

    def __init__(self, out_arity: int, in_arity: int, entries: dict):
        for (out, inn), weight in entries.items():
            if len(out) != out_arity or len(inn) != in_arity:
                raise ValueError("entry arity mismatch")
            if weight is not UNIT and weight is not PARAMETER:
                raise ValueError(f"entry {weight} is neither UNIT nor PARAMETER")
        self.entries = entries
        # entries grouped by in-tuple, each list sorted by out-tuple, and the reverse
        self.by_input: dict = {}
        self.by_output: dict = {}
        for (out, inn), weight in sorted(entries.items()):
            self.by_input.setdefault(inn, []).append((out, weight))
            self.by_output.setdefault(out, []).append((inn, weight))


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
