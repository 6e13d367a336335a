"""The three-letter alphabet {0, 10, 1} and boundary strings.

"10" is a single letter, ordered strictly between 0 and 1; everything in
the package (string enumeration, expansion keys, matrix triangularity)
uses the alphabet order 0 < 10 < 1.  In compact text I/O the letter 10 is
written as the digit '2' so that strings stay one column per letter.
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


class LabelString:
    """An immutable finite word in the alphabet {0, 10, 1}."""

    __slots__ = ("_labels",)

    def __init__(self, labels: Iterable[Label] = ()):
        self._labels = tuple(x if x.__class__ is Label else Label(x) for x in labels)

    @classmethod
    def parse(cls, text: str) -> "LabelString":
        """Parse either a compact digit word ('0211') or comma tokens ('0,10,1,1').

        Positions in error messages are 1-based.
        """
        text = text.strip()
        if text == "":
            return cls()
        if "," in text:
            labels = []
            for i, tok in enumerate(text.split(",")):
                tok = tok.strip()
                if tok not in _FROM_TOKEN:
                    raise ValueError(f"bad label {tok!r} at position {i + 1}")
                labels.append(_FROM_TOKEN[tok])
            return cls(labels)
        labels = []
        for i, ch in enumerate(text):
            if ch not in _FROM_COMPACT:
                raise ValueError(f"bad label character {ch!r} at position {i + 1}")
            labels.append(_FROM_COMPACT[ch])
        return cls(labels)

    def compact(self) -> str:
        return "".join(x.compact for x in self._labels)

    def verbose(self) -> str:
        return ",".join(x.token for x in self._labels)

    def display(self, verbose: bool = False) -> str:
        return self.verbose() if verbose else self.compact()

    @property
    def labels(self) -> tuple[Label, ...]:
        return self._labels

    def content(self) -> tuple[int, int, int]:
        """Counts (#0, #10, #1)."""
        n = [0, 0, 0]
        for x in self._labels:
            n[x] += 1
        return tuple(n)

    def count(self, label: Label) -> int:
        return self._labels.count(label)

    def dualize(self) -> "LabelString":
        """Reverse the word and exchange 0 with 1 (10 stays put)."""
        return LabelString(x.dual for x in reversed(self._labels))

    def double(self) -> "LabelString":
        """Concatenate with the dualized word, then turn every 10 into a 1.

        The result is a 0/1 word of twice the length; it is the ambient
        Grassmannian fixed point sitting over this symplectic one.
        """
        doubled = self._labels + self.dualize()._labels
        return LabelString(Label.ONE if x is Label.TEN else x for x in doubled)

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self._labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return LabelString(self._labels[i])
        return self._labels[i]

    def __add__(self, other: "LabelString") -> "LabelString":
        return LabelString(self._labels + other._labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelString):
            return NotImplemented
        return self._labels == other._labels

    def __lt__(self, other: "LabelString") -> bool:
        return self._labels < other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

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


def spgr_strings(k: int, n: int) -> list[LabelString]:
    """Fixed-point strings of the symplectic Grassmannian: length n, exactly
    n-k letters 10, the rest any mix of 0s and 1s.  Lex order, 0 < 10 < 1."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return sorted(s for n0 in range(k + 1) for s in strings_with_content(n, (n0, n - k, k - n0)))


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
    of its own class only, so Gr(2,4) and SpGr(2,4) are distinct cache
    keys.  Assigning or deleting a field raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
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


class Gr(Record):
    """The Grassmannian of k-planes in an m-dimensional space."""

    __slots__ = ("k", "m")

    def __init__(self, k: int, m: int):
        if not 0 <= k <= m:
            raise ValueError(f"need 0 <= k <= m, got Gr({k},{m})")
        super().__init__(k, m)

    weyl_type = "A"

    @property
    def rank(self) -> int:
        return self.m

    def omega(self) -> LabelString:
        return LabelString([Label.ZERO] * self.k + [Label.ONE] * (self.m - self.k))

    def strings(self) -> list[LabelString]:
        return strings_with_content(self.m, (self.k, 0, self.m - self.k))

    def __contains__(self, s: LabelString) -> bool:
        return s.content() == (self.k, 0, self.m - self.k)

    def __str__(self) -> str:
        return f"Gr({self.k},{self.m})"


class SpGr(Record):
    """Isotropic k-planes in a 2n-dimensional symplectic space."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got SpGr({k},{n})")
        super().__init__(k, n)

    weyl_type = "C"

    @property
    def rank(self) -> int:
        return self.n

    def omega(self) -> LabelString:
        return LabelString([Label.ZERO] * self.k + [Label.TEN] * (self.n - self.k))

    def strings(self) -> list[LabelString]:
        return spgr_strings(self.k, self.n)

    def __contains__(self, s: LabelString) -> bool:
        return len(s) == self.n and s.count(Label.TEN) == self.n - self.k

    def __str__(self) -> str:
        return f"SpGr({self.k},{self.n})"


class Fl(Record):
    """The two-step flag manifold of nested j- and k-planes in m-space."""

    __slots__ = ("j", "k", "m")

    def __init__(self, j: int, k: int, m: int):
        if not 0 <= j <= k <= m:
            raise ValueError(f"need 0 <= j <= k <= m, got Fl({j},{k},{m})")
        super().__init__(j, k, m)

    weyl_type = "A"

    @property
    def rank(self) -> int:
        return self.m

    def omega(self) -> LabelString:
        return LabelString(
            [Label.ZERO] * self.j
            + [Label.TEN] * (self.k - self.j)
            + [Label.ONE] * (self.m - self.k)
        )

    def strings(self) -> list[LabelString]:
        return strings_with_content(self.m, (self.j, self.k - self.j, self.m - self.k))

    def __contains__(self, s: LabelString) -> bool:
        return s.content() == (self.j, self.k - self.j, self.m - self.k)

    def __str__(self) -> str:
        return f"Fl({self.j},{self.k},{self.m})"


Space = Gr | SpGr | Fl

