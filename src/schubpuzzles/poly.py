"""Exact sparse multivariate polynomials over the integers.

This is the coefficient ring for everything else in the package: torus
weights y1, y2, ... and the formal parameters u1, u2, u3 used by the
matrix-identity suite.  Coefficients are arbitrary-precision ints, terms
are kept in a canonical form (no zero coefficients), and two polynomials
are equal exactly when their term dictionaries are equal.

A monomial is packed into one integer, 16 bits of exponent per variable in
registration order, so monomial multiplication is integer addition.  Every
polynomial has total degree at most 65535, which bounds every field: it
carries an upper bound on its degree, and a product that would pass 65535
raises ValueError instead of carrying into the next variable's field.

Text and JSON output list terms in graded lexicographic order over the
variables in `var_key` order (y2 before y10), the same in any process.
Each term is read once: its exponents in variable order, below its total
degree, form one integer key, and sorting on that key descending is grlex.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, Mapping

_VAR_RE = re.compile(r"^([A-Za-z]+)([0-9]+)$")

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1
_VAR_INDEX: dict[str, int] = {}
_SLOTS: list[tuple[int, str]] = []  # (bit shift, name) of every variable, in var_key order


def var_key(name: str) -> tuple[str, int]:
    """Sort key for variable names: 'y12' -> ('y', 12)."""
    m = _VAR_RE.match(name)
    return (m.group(1), int(m.group(2))) if m else (name, -1)


def _var_slot(name: str) -> int:
    slot = _VAR_INDEX.get(name)
    if slot is None:
        slot = len(_VAR_INDEX)
        _VAR_INDEX[name] = slot
        _SLOTS.append((_SHIFT * slot, name))
        _SLOTS.sort(key=lambda s: var_key(s[1]))
    return slot


def _pack(powers: Mapping[str, int]) -> tuple[int, int]:
    """The packed monomial and its total degree."""
    packed = degree = 0
    for v, e in powers.items():
        if e < 0:
            raise ValueError(f"negative exponent for {v}")
        if e:
            packed += e << (_SHIFT * _var_slot(v))
            degree += e
    if degree > _MASK:
        raise ValueError(f"monomial degree {degree} exceeds the packing bound {_MASK}")
    return packed, degree


def _slot_order(monomials: Iterable[int]) -> list[tuple[int, str]]:
    """(bit shift, variable) of every slot the monomials use, in var_key order."""
    used = 0
    for packed in monomials:
        used |= packed
    return [slot for slot in _SLOTS if (used >> slot[0]) & _MASK]


def _mono_degree(packed: int) -> int:
    deg = 0
    while packed:
        deg += packed & _MASK
        packed >>= _SHIFT
    return deg


class Polynomial:
    """An immutable integer polynomial in named variables."""

    # _deg is an upper bound on the total degree, at most _MASK
    __slots__ = ("_terms", "_hash", "_deg")

    @classmethod
    def _raw(cls, packed: dict[int, int], bound: int) -> "Polynomial":
        """Internal: adopt an already-clean packed term dict whose total
        degree is at most bound."""
        p = cls.__new__(cls)
        p._terms = packed
        p._hash = None
        p._deg = bound
        return p

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({}, 0)

    @classmethod
    def integer(cls, n: int) -> "Polynomial":
        return cls._raw({0: n} if n else {}, 0)

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls._raw({1 << (_SHIFT * _var_slot(name)): 1}, 1)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self._terms:
            return -1
        return max(_mono_degree(m) for m in self._terms)

    def constant_value(self) -> int | None:
        """The value of a constant polynomial, else None."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and 0 in self._terms:
            return self._terms[0]
        return None

    def constant_term(self) -> int:
        """The coefficient of the constant monomial: the value at 0."""
        return self._terms.get(0, 0)

    # -- ring operations -----------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial.integer(other)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        result = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = result.get(mono, 0) + coeff
            if new:
                result[mono] = new
            else:
                del result[mono]
        bound = self._deg if self._deg >= other._deg else other._deg
        return Polynomial._raw(result, bound)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self._terms.items()}, self._deg)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bound = self._deg + other._deg
        if bound > _MASK:
            # the bounds may be loose after cancellation; over Z the degree
            # of a product is the sum of the degrees
            bound = self.degree() + other.degree()
            if bound > _MASK:
                raise ValueError(f"product degree {bound} exceeds the packing bound {_MASK}")
        if len(self._terms) < len(other._terms):
            small, large = self._terms, other._terms
        else:
            small, large = other._terms, self._terms
        result: dict[int, int] = {}
        for m2, c2 in small.items():
            for m1, c1 in large.items():
                mono = m1 + m2
                new = result.get(mono, 0) + c1 * c2
                if new:
                    result[mono] = new
                else:
                    del result[mono]
        return Polynomial._raw(result, bound)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.integer(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its int, so it hashes as that int
        if self._hash is None:
            value = self.constant_value()
            self._hash = hash(frozenset(self._terms.items()) if value is None else value)
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- serialization ---------------------------------------------------

    def machine(self) -> list:
        """JSON-ready form: [coefficient, {variable: exponent}] per term,
        variables in var_key order, terms in graded lexicographic order
        (highest degree first)."""
        order = _slot_order(self._terms)
        width = _SHIFT * len(order)
        keyed = []
        for packed, coeff in self._terms.items():
            key = degree = 0
            powers = {}
            for shift, v in order:
                e = (packed >> shift) & _MASK
                key = (key << _SHIFT) | e
                if e:
                    powers[v] = e
                    degree += e
            # grlex: higher degree first, then the larger exponent at the
            # first variable where two monomials differ
            keyed.append(((degree << width) | key, [coeff, powers]))
        keyed.sort(key=itemgetter(0), reverse=True)
        return [term for _, term in keyed]

    @staticmethod
    def _format_term(coeff: int, powers: dict[str, int]) -> str:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in powers.items()]
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return "-" + body
        return f"{coeff}*{body}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (coeff, powers) in enumerate(self.machine()):
            text = self._format_term(coeff, powers)
            if i == 0:
                parts.append(text)
            elif text.startswith("-"):
                parts.append("- " + text[1:])
            else:
                parts.append("+ " + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"

    @classmethod
    def from_machine(cls, data: Iterable) -> "Polynomial":
        terms: dict[int, int] = {}
        bound = 0
        for coeff, powers in data:
            mono, degree = _pack(powers)
            bound = max(bound, degree)
            terms[mono] = terms.get(mono, 0) + int(coeff)
        return cls._raw({m: c for m, c in terms.items() if c}, bound)

    def __reduce__(self):
        # packed monomials index this process's variable registration order,
        # so pickles carry variable names instead
        return Polynomial.from_machine, (self.machine(),)


def y(i: int) -> Polynomial:
    """The torus weight y_i."""
    return Polynomial.variable(f"y{i}")


def u(i: int) -> Polynomial:
    """The formal spectral parameter u_i."""
    return Polynomial.variable(f"u{i}")
