"""The three-letter alphabet {0, 10, 1}, boundary strings, and the spaces
whose fixed points they are.

"10" is a single letter, ordered strictly between 0 and 1; everything in
the package (string enumeration, expansion keys, matrix triangularity)
uses the alphabet order 0 < 10 < 1.  A string is its label tuple: a
`LabelString` is a tuple of `Label`s, so diagram boundaries, column keys
and subword-DP states are strings or plain tuples that equal them.  In
compact text I/O the letter 10 is written as the digit '2' so that strings
stay one column per letter.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import Iterable, Iterator


class Label(enum.IntEnum):
    ZERO = 0
    TEN = 1
    ONE = 2

    @property
    def token(self) -> str:
        return _TOKENS[self]

    @property
    def compact(self) -> str:
        return _COMPACT[self]

    @property
    def dual(self) -> "Label":
        """Exchange 0 and 1; 10 is self-dual."""
        return _DUAL[self]

    def __repr__(self) -> str:
        return f"Label.{self.name}"


LABELS = tuple(Label)  # the alphabet in its order 0 < 10 < 1

_TOKENS = {Label.ZERO: "0", Label.TEN: "10", Label.ONE: "1"}
_COMPACT = {Label.ZERO: "0", Label.TEN: "2", Label.ONE: "1"}
_DUAL = {Label.ZERO: Label.ONE, Label.TEN: Label.TEN, Label.ONE: Label.ZERO}
_FROM_COMPACT = {"0": Label.ZERO, "2": Label.TEN, "1": Label.ONE}
_FROM_TOKEN = {"0": Label.ZERO, "10": Label.TEN, "1": Label.ONE}


class LabelString(tuple):
    """An immutable finite word in the alphabet {0, 10, 1}: the tuple of its
    Labels.  It equals, hashes, sorts, iterates and indexes as that tuple,
    so a dict keyed by label tuples is read with the string itself.  `+` and
    slices give plain tuples, equal to the LabelString of the same labels."""

    __slots__ = ()

    def __new__(cls, labels: Iterable[Label] = ()):
        return super().__new__(cls, (x if x.__class__ is Label else Label(x) for x in labels))

    @classmethod
    def parse(cls, text: str) -> "LabelString":
        """Parse either a compact digit word ('0211') or comma tokens ('0,10,1,1').

        Positions in error messages are 1-based.
        """
        text = text.strip()
        if "," in text:
            tokens, table, what = [t.strip() for t in text.split(",")], _FROM_TOKEN, "label"
        else:
            tokens, table, what = text, _FROM_COMPACT, "label character"
        labels = []
        for i, tok in enumerate(tokens):
            if tok not in table:
                raise ValueError(f"bad {what} {tok!r} at position {i + 1}")
            labels.append(table[tok])
        return cls(labels)

    def compact(self) -> str:
        return "".join(x.compact for x in self)

    def verbose(self) -> str:
        return ",".join(x.token for x in self)

    def display(self, verbose: bool = False) -> str:
        return self.verbose() if verbose else self.compact()

    def content(self) -> tuple[int, int, int]:
        """Counts (#0, #10, #1)."""
        return tuple(map(self.count, LABELS))

    def dualize(self) -> "LabelString":
        """Reverse the word and exchange 0 with 1 (10 stays put)."""
        return LabelString(x.dual for x in reversed(self))

    def double(self) -> "LabelString":
        """Concatenate with the dualized word, then turn every 10 into a 1.

        The result is a 0/1 word of twice the length; it is the ambient
        Grassmannian fixed point sitting over this symplectic one.
        """
        return LabelString(Label.ONE if x is Label.TEN else x for x in self + self.dualize())

    def __repr__(self) -> str:
        return f"LabelString({self.compact()!r})"


def _words(content: tuple[int, int, int]) -> Iterator[tuple[Label, ...]]:
    """The distinct arrangements of content[x] copies of each letter x, in
    0 < 10 < 1 lex order: each word is the next permutation of the last."""
    word = [x for x in LABELS for _ in range(content[x])]
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])


def strings_with_content(length: int, content: tuple[int, int, int]) -> list[LabelString]:
    """All words of the given length and content, in 0 < 10 < 1 lex order."""
    n0, n10, n1 = content
    if n0 + n10 + n1 != length or min(content) < 0:
        raise ValueError(f"content {content} does not fit length {length}")
    return [LabelString(word) for word in _words(content)]


def project_flag_string(s: LabelString, which: str) -> LabelString:
    """Image of a two-step flag fixed point in one of the two Grassmannians.

    which='j' keeps the smaller subspace (10 -> 1); which='k' keeps the
    larger one (10 -> 0).
    """
    if which == "j":
        return LabelString(Label.ONE if x is Label.TEN else x for x in s)
    if which == "k":
        return LabelString(Label.ZERO if x is Label.TEN else x for x in s)
    raise ValueError(f"which must be 'j' or 'k', got {which!r}")


class Record:
    """An immutable value whose fields are its __slots__, in the order of
    its constructor's arguments.  It is equal to, and hashed with, values
    of its own class only: Gr(2,4) and SpGr(2,4) have equal fields but are
    different spaces.  Assigning or deleting a field raises AttributeError;
    a subclass without slots, such as `Space`, is a base with no fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._fields = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Space(Record):
    """A space whose torus fixed points are the words in the orbit of its
    base word omega.  Its fields are sizes 0 <= ... <= rank, the last one
    its rank.  Omega is 0^a 10^b 1^c for (a, b, c) = `content`; the fixed
    points of Gr and Fl are the words of that content."""

    __slots__ = ()
    weyl_type = "A"

    def __init__(self, *sizes: int):
        if len(sizes) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} sizes")
        super().__init__(*sizes)
        if not all(a <= b for a, b in zip((0, *sizes), sizes)):
            raise ValueError(f"need 0 <= {' <= '.join(self.__slots__)}, got {self}")

    @property
    def rank(self) -> int:
        return self._fields(self)[-1]

    @property
    def content(self) -> tuple[int, int, int]:
        """Omega's counts (#0, #10, #1): 0 up to the first size, 10 up to
        the second-to-last and 1 up to the last (Gr(k,m) has no 10s)."""
        sizes = self._fields(self)
        return sizes[0], sizes[-2] - sizes[0], sizes[-1] - sizes[-2]

    def omega(self) -> LabelString:
        return LabelString(x for x, n in zip(LABELS, self.content) for _ in range(n))

    def strings(self) -> list[LabelString]:
        return strings_with_content(self.rank, self.content)

    def __contains__(self, s: LabelString) -> bool:
        return s.content() == self.content

    def __str__(self) -> str:
        return f"{type(self).__name__}({','.join(map(str, self._fields(self)))})"


class Gr(Space):
    """The Grassmannian of k-planes in an m-dimensional space."""

    __slots__ = ("k", "m")


class SpGr(Space):
    """Isotropic k-planes in a 2n-dimensional symplectic space.  Its fixed
    points are the words of length n with exactly n-k letters 10, the rest
    any mix of 0s and 1s."""

    __slots__ = ("k", "n")
    weyl_type = "C"

    @property
    def content(self) -> tuple[int, int, int]:
        return self.k, self.n - self.k, 0

    def strings(self) -> list[LabelString]:
        """The fixed points in lex order, 0 < 10 < 1."""
        k, n = self.k, self.n
        return sorted(
            s for n0 in range(k + 1) for s in strings_with_content(n, (n0, n - k, k - n0))
        )

    def __contains__(self, s: LabelString) -> bool:
        return len(s) == self.n and s.count(Label.TEN) == self.n - self.k


class Fl(Space):
    """The two-step flag manifold of nested j- and k-planes in m-space."""

    __slots__ = ("j", "k", "m")
