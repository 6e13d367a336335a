"""Sparse R-, K-, and U-matrices over the polynomial ring: the vertex
matrices that scattering diagrams contract.

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

from .labels import LABELS, Label
from .poly import Polynomial

Z0, T10, O1 = Label.ZERO, Label.TEN, Label.ONE

# The unit entry.  Every matrix below, and every int 1 a SparseMap is given,
# stores its unit entries as this one polynomial, so a contraction can tell
# a unit weight by identity.
UNIT = Polynomial.integer(1)


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
                    weight = UNIT if weight == 1 else Polynomial.integer(weight)
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

    def indexed(self) -> "SparseMap":
        """This map, with both indexes built now rather than on first use."""
        self.by_input()
        self.by_output()
        return self

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


# -- the matrices -------------------------------------------------------

# Stands for the parameter in a family's template; told apart by identity.
_PARAMETER = Polynomial.integer(2)


def _slots(index: dict) -> list[tuple]:
    """(key, position) of every `_PARAMETER` weight in an index."""
    return [(key, i) for key, lst in index.items() for i, (_, w) in enumerate(lst) if w is _PARAMETER]


class _Family:
    """A one-parameter family of maps that differ only in the weight of a
    few entries.

    The unit entries and both sorted indexes are built once, from a template
    whose parameter entries hold `_PARAMETER`.  A member copies them and
    writes its weight into the entries and index slots of the parameter,
    which are already in sorted position, so building one validates and
    regroups nothing.  A zero weight drops those entries, as the SparseMap
    constructor does.  Index lists without a parameter entry are shared by
    every member, so nothing may change them."""

    __slots__ = ("full", "unit", "keys", "input_slots", "output_slots")

    def __init__(self, out_arity: int, in_arity: int, entries: dict):
        self.full = SparseMap(out_arity, in_arity, entries).indexed()
        units = {key: w for key, w in entries.items() if w is not _PARAMETER}
        self.unit = SparseMap(out_arity, in_arity, units).indexed()
        self.keys = [key for key, w in entries.items() if w is _PARAMETER]
        self.input_slots = _slots(self.full.by_input())
        self.output_slots = _slots(self.full.by_output())

    def __call__(self, weight: Polynomial) -> SparseMap:
        source = self.unit if weight.is_zero else self.full
        member = object.__new__(SparseMap)
        member.out_arity, member.in_arity = source.out_arity, source.in_arity
        member.entries = dict(source.entries)
        member._by_input = dict(source._by_input)
        member._by_output = dict(source._by_output)
        if source is self.full:
            member.entries.update(dict.fromkeys(self.keys, weight))
            # each slot's list is copied before the weight goes in
            for index, slots in ((member._by_input, self.input_slots),
                                 (member._by_output, self.output_slots)):
                for key, i in slots:
                    lst = index[key] = index[key][:]
                    lst[i] = (lst[i][0], weight)
        return member


_R_SAME_COLOUR = _Family(2, 2, {
    **{((k, l), (k, l)): UNIT for k, l in itertools.product(LABELS, repeat=2)},
    **{(out, inn): _PARAMETER
       for out, inn in (((O1, Z0), (Z0, O1)), ((T10, Z0), (Z0, T10)), ((O1, T10), (T10, O1)))},
})


def r_same_colour(argument: Polynomial) -> SparseMap:
    """Crossing of two same-colour strands, argument a-b.

    Unit on every diagonal pair; the three exchange entries
    (1,0)<-(0,1), (10,0)<-(0,10), (1,10)<-(10,1) carry b-a.
    """
    return _R_SAME_COLOUR(-argument)


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

_R_RED_GREEN = _Family(2, 2, {
    ((Z0, O1), (O1, Z0)): _PARAMETER,
    **{((i, j), (k, l)): UNIT for i, j, k, l in _RG_UNIT},
})


def r_red_green(argument: Polynomial) -> SparseMap:
    """Crossing of a red strand (lower left) over a green strand, argument a-b.

    Nine unit entries, plus a-b at (0,1)<-(1,0); everything else vanishes.
    """
    return _R_RED_GREEN(argument)


def k_red() -> SparseMap:
    """Red strand bouncing into a green one at the wall; exchanges 0 and 1.

    The entries are parameter-independent.
    """
    return SparseMap(1, 1, {((O1,), (Z0,)): 1, ((Z0,), (O1,)): 1})


_K_BLUE = _Family(1, 1, {**{((x,), (x,)): UNIT for x in LABELS}, ((O1,), (Z0,)): _PARAMETER})


def k_blue(a: Polynomial) -> SparseMap:
    """Blue strand bouncing at the wall: identity plus -2a at (1)<-(0)."""
    return _K_BLUE(Polynomial.integer(-2) * a)


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
