"""Weyl groups of types A and C, reduced words, coset strings, and
fixed-point restrictions of equivariant Schubert classes.

Conventions (all of them are exercised against the scattering-diagram
backend, which is the printed source of truth):

* Elements are signed permutations in one-line notation; type A has no
  signs.  ``w.right_mult(i)`` is the composite w o s_i, applying s_i
  first, so a word (q_1, .., q_k) read left to right through
  ``right_mult`` is q_1 o q_2 o .. o q_k.
  Generator i < n swaps i and i+1; in type C generator n negates n.
* Simple roots are alpha_i = y_i - y_{i+1}, and alpha_n = 2 y_n in type
  C.  The group acts on weights by w . y_i = y_{w(i)} with y_{-j} = -y_j.
* A coset string places omega_i at position w(i), dualized (0 <-> 1)
  when the image is negative.

Restrictions are computed and compared one fixed point at a time: for a
point mu, the reduced-subword DP and the wiring-diagram contraction each
give the whole column of restrictions to mu from the one reduced word of
mu's lift, and the two columns must be equal before ``restrictions_at``
or ``restriction`` (one entry) answers from them.

The subword DP (Billey's formula) walks the word from right to left on
plain one-line tuples and keeps only minimal coset representatives, the
elements with no right descent in the generators J read off omega.  The
pruning is exact: every suffix of a reduced word of an element of W^J is
itself in W^J (Bjorner-Brenti, Combinatorics of Coxeter Groups, GTM 231,
section 2.4), so a dropped state never grows into a class of the space.
"""

from __future__ import annotations

from functools import lru_cache

from . import diagram
from .labels import Label, LabelString, Record, Space
from .poly import Polynomial, y


class GroupElement(Record):
    __slots__ = ("group_type", "images")  # "A" or "C"; tuple[int, ...]

    def __init__(self, group_type: str, images: tuple[int, ...]):
        if group_type not in ("A", "C"):
            raise ValueError(f"unknown group type {group_type!r}")
        if sorted(abs(x) for x in images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a signed permutation: {images}")
        if group_type == "A" and any(x < 0 for x in images):
            raise ValueError("type A permutations have no negative entries")
        super().__init__(group_type, images)

    @classmethod
    def identity(cls, group_type: str, rank: int) -> "GroupElement":
        return cls(group_type, tuple(range(1, rank + 1)))

    @property
    def rank(self) -> int:
        return len(self.images)

    def apply(self, j: int) -> int:
        """The image of the signed index j."""
        return self.images[j - 1] if j > 0 else -self.images[-j - 1]

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.rank + 1))

    @classmethod
    def _unchecked(cls, group_type: str, images: tuple[int, ...]) -> "GroupElement":
        # products of generators and inverses stay signed permutations, so
        # they skip __init__'s check
        element = object.__new__(cls)
        object.__setattr__(element, "group_type", group_type)
        object.__setattr__(element, "images", images)
        return element

    def right_mult(self, i: int) -> "GroupElement":
        """The composite self o s_i, without building the generator."""
        n = self.rank
        imgs = list(self.images)
        if self.group_type == "C" and i == n:
            imgs[n - 1] = -imgs[n - 1]
        elif 1 <= i <= n - 1:
            imgs[i - 1], imgs[i] = imgs[i], imgs[i - 1]
        else:
            raise ValueError(f"generator index {i} out of range")
        return GroupElement._unchecked(self.group_type, tuple(imgs))

    def length(self) -> int:
        """Coxeter length: inversions in type A, positive roots sent negative in type C."""
        n = self.rank
        w = self.images
        if self.group_type == "A":
            return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
        total = sum(1 for x in w if x < 0)
        m = 2 * n + 1  # y_a - y_b < 0 exactly when a % m > b % m
        for i in range(n):
            for j in range(i + 1, n):
                if w[i] % m > w[j] % m:  # y_i - y_j
                    total += 1
                if w[i] % m > -w[j] % m:  # y_i + y_j
                    total += 1
        return total

    def is_right_descent(self, i: int) -> bool:
        """Whether multiplying by s_i on the right shortens the element."""
        n = self.rank
        if self.group_type == "C" and i == n:
            return self.images[n - 1] < 0
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range")
        return self.images[i - 1] % (2 * n + 1) > self.images[i] % (2 * n + 1)

    def generator_indices(self) -> range:
        return range(1, self.rank + 1) if self.group_type == "C" else range(1, self.rank)

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word, built by stripping the smallest right descent."""
        collected = []
        cur = self
        while not cur.is_identity():
            for i in cur.generator_indices():
                if cur.is_right_descent(i):
                    collected.append(i)
                    cur = cur.right_mult(i)
                    break
            else:
                raise RuntimeError("non-identity element with no descent")
        return tuple(reversed(collected))

    def one_line(self) -> str:
        return " ".join(str(x) for x in self.images)

    def __str__(self) -> str:
        return self.one_line()


def positive_roots(group_type: str, rank: int) -> list[Polynomial]:
    roots = [y(i) - y(j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
    if group_type == "C":
        roots += [y(i) + y(j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
        roots += [Polynomial.integer(2) * y(i) for i in range(1, rank + 1)]
    return roots


# -- the reduced-subword restriction ---------------------------------------

def _subword_column(word, group_type: str, rank: int, parabolic, weights=None) -> dict:
    """Restrictions to the fixed point with reduced word `word` of the
    classes of every minimal coset representative below it, as
    {element: polynomial}, in the torus whose weights are the images of
    y_1..y_rank (None: the identity).

    Billey's formula sums, over the reduced subwords of q_1..q_L, the
    product of the roots beta_t = (q_1..q_{t-1}) . alpha_{q_t} at the chosen
    positions; the weights enter through the roots only, since specializing
    them is a ring homomorphism.  The DP reads the word from right to left:
    a state is the product v of the letters chosen among positions t..L, and
    it grows to s_{q_t} o v when that is longer.  A state is held as the
    one-line tuple of u = v^-1: s_q o v is u o s_q, a swap of entries q, q+1
    (or the sign of entry rank), and it is longer when u sends alpha_q to a
    positive root.  States with a right descent in `parabolic` (J) are
    dropped, since no suffix of a reduced word of a minimal coset
    representative has one; by Deodhar's lemma, a longer s_q o v has one
    exactly when it is v o s_j with j in J, that is when u sends alpha_q to
    alpha_j."""
    if weights is None:
        weights = tuple(y(i) for i in range(1, rank + 1))

    def weight(j: int) -> Polynomial:
        return weights[j - 1] if j > 0 else -weights[-j - 1]

    betas = []
    prefix = list(range(1, rank + 1))
    for q in word:
        if group_type == "C" and q == rank:
            betas.append(2 * weight(prefix[q - 1]))
            prefix[q - 1] = -prefix[q - 1]
        else:
            betas.append(weight(prefix[q - 1]) - weight(prefix[q]))
            prefix[q - 1], prefix[q] = prefix[q], prefix[q - 1]
    sign = rank if group_type == "C" else 0  # the sign generator, if any
    # u sends alpha_q (q < rank) to alpha_j when (u(q), u(q+1)) is one of these
    to_simple = {(j, j + 1) for j in parabolic if j != sign}
    to_simple |= {(-b, -a) for a, b in to_simple}
    sign_fixed = rank if sign in parabolic else 0  # s_rank o v = v o s_rank when u(rank) = rank
    modulus = 2 * rank + 1  # a % modulus orders signed indices as the roots do
    states = {tuple(range(1, rank + 1)): Polynomial.integer(1)}
    for q, beta in zip(reversed(word), reversed(betas)):
        new_states = dict(states)
        for u, total in states.items():
            if q == sign:
                a = u[-1]
                if a < 0 or a == sign_fixed:
                    continue
                grown = u[:-1] + (-a,)
            else:
                a, b = u[q - 1], u[q]
                if a % modulus > b % modulus or (a, b) in to_simple:
                    continue
                grown = u[:q - 1] + (b, a) + u[q + 1:]
            add = total * beta
            new_states[grown] = new_states[grown] + add if grown in new_states else add
        states = new_states
    column = {}
    for u, total in states.items():
        images = [0] * rank
        for position, a in enumerate(u, start=1):
            images[abs(a) - 1] = position if a > 0 else -position
        column[GroupElement._unchecked(group_type, tuple(images))] = total
    return column


# -- cosets and lifts -------------------------------------------------------

def coset_string(w: GroupElement, omega: LabelString) -> LabelString:
    """The string whose position w(i) carries omega_i, dualized when the
    image is negative."""
    if len(omega) != w.rank:
        raise ValueError("string length does not match the rank")
    return LabelString(_coset_labels(w.images, omega.labels))


def _coset_labels(images: tuple[int, ...], labels: tuple[Label, ...]) -> tuple[Label, ...]:
    out = [None] * len(images)
    for label, image in zip(labels, images):
        out[abs(image) - 1] = label if image > 0 else label.dual
    return tuple(out)


@lru_cache(maxsize=None)
def shortest_lift(s: LabelString, omega: LabelString, group_type: str) -> GroupElement:
    """The minimum-length w with coset_string(w, omega) = s.

    Type A matches occurrences of each letter in order.  Type C (where
    omega mixes only 0s and 10s) sends the 10s straight across and the 0s
    first to the 0-positions of s in order, then to the 1-positions in
    reverse order with a sign.
    """
    if len(s) != len(omega):
        raise ValueError("string length mismatch")
    n = len(omega)
    if group_type == "A":
        if s.content() != omega.content():
            raise ValueError(f"{s.compact()} is not in the orbit of {omega.compact()}")
        positions = {lab: [] for lab in Label}
        for j, lab in enumerate(s, start=1):
            positions[lab].append(j)
        cursor = {lab: 0 for lab in Label}
        images = []
        for lab in omega:
            images.append(positions[lab][cursor[lab]])
            cursor[lab] += 1
        w = GroupElement("A", tuple(images))
    else:
        if Label.ZERO in omega.labels and Label.ONE in omega.labels:
            raise ValueError("type C base string may not mix 0 and 1")
        if s.count(Label.TEN) != omega.count(Label.TEN):
            raise ValueError(f"{s.compact()} is not in the orbit of {omega.compact()}")
        tens = [j for j, lab in enumerate(s, start=1) if lab is Label.TEN]
        images = [0] * n
        ten_cursor = 0
        plain: dict[Label, list[int]] = {Label.ZERO: [], Label.ONE: []}
        for j, lab in enumerate(s, start=1):
            if lab is not Label.TEN:
                plain[lab].append(j)
        # unbarred targets in increasing order first, then barred in decreasing
        targets: dict[Label, list[int]] = {}
        for lab in (Label.ZERO, Label.ONE):
            targets[lab] = plain[lab] + [-j for j in reversed(plain[lab.dual])]
        cursor = {Label.ZERO: 0, Label.ONE: 0}
        for i, lab in enumerate(omega):
            if lab is Label.TEN:
                images[i] = tens[ten_cursor]
                ten_cursor += 1
            else:
                images[i] = targets[lab][cursor[lab]]
                cursor[lab] += 1
        w = GroupElement("C", tuple(images))
    if coset_string(w, omega) != s:
        raise RuntimeError(f"shortest lift of {s.compact()} left the coset of {omega.compact()}")
    return w


# -- the two-backend restriction -------------------------------------------

@lru_cache(maxsize=None)
def _restrictions_at(space: Space, mu: LabelString, weights=None) -> dict:
    """The restrictions of every Schubert class of space to the fixed point
    mu, as {label tuple of lambda: nonzero polynomial}.

    Both backends produce the whole column from the one reduced word of mu's
    lift.  The subword DP keeps only minimal coset representatives for the
    generators J that fix omega, read off omega: i < rank when omega_i =
    omega_{i+1}, and in type C the sign generator when omega ends in 10.
    Each nonzero DP state is sent to its coset string, and no two states may
    share one.  The wiring backend is the forward transfer of the wiring
    diagram of the same word.  The two columns must be equal: the first
    lambda in lex order where they differ is named otherwise."""
    omega = space.omega()
    group_type, rank, labels = space.weyl_type, space.rank, omega.labels
    word = shortest_lift(mu, omega, group_type).reduced_word()
    parabolic = [i for i in range(1, rank) if labels[i - 1] == labels[i]]
    if group_type == "C" and labels[-1] is Label.TEN:
        parabolic.append(rank)
    by_subword = {}
    for elem, value in _subword_column(word, group_type, rank, parabolic, weights).items():
        if value.is_zero:
            continue
        lam = _coset_labels(elem.images, labels)
        if lam in by_subword:
            raise RuntimeError(
                f"two subword states give {LabelString(lam).compact()}|{mu.compact()} on {space}"
            )
        by_subword[lam] = value
    wiring = diagram.build_wiring_diagram(word, group_type, rank, weights)
    by_wiring = diagram.transfer(wiring, labels)
    if by_subword != by_wiring:
        zero = Polynomial.zero()
        lam = min(
            lam for lam in by_subword.keys() | by_wiring.keys()
            if by_subword.get(lam, zero) != by_wiring.get(lam, zero)
        )
        raise RuntimeError(
            f"backend disagreement for {LabelString(lam).compact()}|{mu.compact()} on {space}: "
            f"subword {by_subword.get(lam, zero)} vs wiring {by_wiring.get(lam, zero)}"
        )
    return by_subword


def restrictions_at(space: Space, mu: LabelString, weights=None) -> dict:
    """The restrictions of every Schubert class of space to the fixed point
    mu, as {label tuple of lambda: nonzero polynomial}, computed by both the
    subword and the wiring-diagram backends; the two must agree exactly.

    `weights`, when given, is the tuple of images of y_1..y_rank: both
    backends then compute directly in that torus, and the result equals the
    restrictions with those images substituted afterwards.  The column is
    cached and shared: callers must not change it."""
    if space.rank < 1:
        raise ValueError(f"{space} has rank 0: fixed-point restrictions need rank at least 1")
    if weights is not None and len(weights) != space.rank:
        raise ValueError(f"{space} needs {space.rank} weights, got {len(weights)}")
    return _restrictions_at(space, mu, weights)


def restriction(lam: LabelString, mu: LabelString, space: Space, weights=None) -> Polynomial:
    """The restriction of the Schubert class lam to the fixed point mu: one
    entry of `restrictions_at(space, mu, weights)`."""
    shortest_lift(lam, space.omega(), space.weyl_type)  # rejects lam outside the space
    return restrictions_at(space, mu, weights).get(lam.labels, Polynomial.zero())
