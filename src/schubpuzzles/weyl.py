"""Weyl groups of types A and C, reduced words, coset strings, and
fixed-point restrictions of equivariant Schubert classes.

Conventions (all of them are exercised against the scattering-diagram
backend, which is the printed source of truth):

* Elements are signed permutations in one-line notation; type A has no
  signs.  ``w.right_mult(i)`` is the composite w o s_i, applying s_i
  first, so a word (q_1, .., q_k) read left to right through
  ``right_mult`` is q_1 o q_2 o .. o q_k; ``w.left_mult(i)`` is s_i o w.
  Generator i < n swaps i and i+1; in type C generator n negates n.
* Simple roots are alpha_i = y_i - y_{i+1}, and alpha_n = 2 y_n in type
  C.  The group acts on weights by w . y_i = y_{w(i)} with y_{-j} = -y_j.
* A coset string places omega_i at position w(i), dualized (0 <-> 1)
  when the image is negative.

Restrictions are computed and compared one fixed point at a time: for a
point mu, the reduced-subword DP and the wiring-diagram contraction each
give the restriction of every class to mu, and the two columns must agree
entry by entry before ``restrictions_at`` (a whole column) or
``restriction`` (one entry) answers from them.

The subword DP (Billey's formula) walks the reduced word of mu's lift from
right to left and keeps only minimal coset representatives, the elements
with no right descent in the stabilizer's generators J.  The pruning is
exact: every suffix of a reduced word of an element of W^J is itself in W^J
(Bjorner-Brenti, Combinatorics of Coxeter Groups, GTM 231, section 2.4), so a
dropped state never grows into a class of the space.
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

    def _product(self, images: tuple[int, ...]) -> "GroupElement":
        # a generator swaps two images or values, or negates one, which keeps
        # a signed permutation signed, so products skip __init__'s check
        product = object.__new__(GroupElement)
        object.__setattr__(product, "group_type", self.group_type)
        object.__setattr__(product, "images", images)
        return product

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
        return self._product(tuple(imgs))

    def left_mult(self, i: int) -> "GroupElement":
        """The composite s_i o self: swaps the values +-i and +-(i+1), keeping
        signs, or in type C for i = n negates the value +-n."""
        n = self.rank
        if self.group_type == "C" and i == n:
            swap = {n: -n, -n: n}
        elif 1 <= i <= n - 1:
            swap = {i: i + 1, i + 1: i, -i: -i - 1, -i - 1: -i}
        else:
            raise ValueError(f"generator index {i} out of range")
        return self._product(tuple(swap.get(x, x) for x in self.images))

    def _key(self, a: int) -> int:
        # linear order on signed indices in which y_a - y_b < 0 iff key(a) > key(b)
        return a if a > 0 else 2 * self.rank + 1 + a

    def length(self) -> int:
        """Coxeter length: inversions in type A, positive roots sent negative in type C."""
        n = self.rank
        w = self.images
        if self.group_type == "A":
            return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
        total = sum(1 for x in w if x < 0)
        for i in range(n):
            for j in range(i + 1, n):
                if self._key(w[i]) > self._key(w[j]):  # y_i - y_j
                    total += 1
                if self._key(w[i]) > self._key(-w[j]):  # y_i + y_j
                    total += 1
        return total

    def is_right_descent(self, i: int) -> bool:
        """Whether multiplying by s_i on the right shortens the element."""
        n = self.rank
        if self.group_type == "C" and i == n:
            return self.images[n - 1] < 0
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range")
        return self._key(self.images[i - 1]) > self._key(self.images[i])

    def is_left_descent(self, i: int) -> bool:
        """Whether multiplying by s_i on the left shortens the element, that
        is whether the inverse sends alpha_i to a negative root."""
        n = self.rank
        preimage = {abs(x): (j if x > 0 else -j) for j, x in enumerate(self.images, start=1)}
        if self.group_type == "C" and i == n:
            return preimage[n] < 0
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range")
        return self._key(preimage[i]) > self._key(preimage[i + 1])

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

def _subword_column(sigma: GroupElement, parabolic: tuple[int, ...], weights=None) -> dict:
    """Restrictions to the fixed point sigma of the classes of every minimal
    coset representative below it, as {element: polynomial}, in the torus
    whose weights are the images of y_1..y_rank (None: the identity).

    Billey's formula sums, over the reduced subwords of sigma's canonical
    reduced word q_1..q_L, the product of the roots
    beta_t = (q_1..q_{t-1}) . alpha_{q_t} at the chosen positions.  The DP
    reads the word from right to left: a state is the product v of the
    letters chosen among positions t..L, and it grows to s_{q_t} o v when
    that is longer.  States with a right descent in `parabolic` are dropped,
    since no suffix of a reduced word of a minimal coset representative has
    one.  The weights enter through the roots only, since specializing them
    is a ring homomorphism and commutes with the sum of products.
    """
    group_type, rank = sigma.group_type, sigma.rank
    if weights is None:
        weights = tuple(y(i) for i in range(1, rank + 1))

    def weight(j: int) -> Polynomial:
        return weights[j - 1] if j > 0 else -weights[-j - 1]

    word = sigma.reduced_word()
    betas = []
    prefix = GroupElement.identity(group_type, rank)
    for q in word:
        if group_type == "C" and q == rank:
            betas.append(2 * weight(prefix.apply(q)))
        else:
            betas.append(weight(prefix.apply(q)) - weight(prefix.apply(q + 1)))
        prefix = prefix.right_mult(q)
    states: dict[GroupElement, Polynomial] = {
        GroupElement.identity(group_type, rank): Polynomial.integer(1)
    }
    for q, beta in zip(reversed(word), reversed(betas)):
        new_states = dict(states)
        for elem, total in states.items():
            if elem.is_left_descent(q):
                continue
            grown = elem.left_mult(q)
            if any(grown.is_right_descent(j) for j in parabolic):
                continue
            add = total * beta
            if grown in new_states:
                new_states[grown] = new_states[grown] + add
            else:
                new_states[grown] = add
        states = new_states
    return states


# -- cosets and lifts -------------------------------------------------------

def coset_string(w: GroupElement, omega: LabelString) -> LabelString:
    """The string whose position w(i) carries omega_i, dualized when the
    image is negative."""
    if len(omega) != w.rank:
        raise ValueError("string length does not match the rank")
    out: list[Label | None] = [None] * w.rank
    for i in range(1, w.rank + 1):
        target = w.apply(i)
        lab = omega[i - 1]
        out[abs(target) - 1] = lab if target > 0 else lab.dual
    return LabelString(out)


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

    Both backends produce the whole column.  The subword DP runs right to
    left over the reduced word of mu's lift and keeps only minimal coset
    representatives for the generators J that fix omega (exact by
    Bjorner-Brenti, GTM 231, section 2.4: suffixes of reduced words of W^J
    elements stay in W^J); it is read at every lambda's shortest lift.  The
    wiring backend is the forward transfer of the wiring diagram of mu.
    They must agree on every lambda."""
    omega = space.omega()
    sigma = shortest_lift(mu, omega, space.weyl_type)
    identity = GroupElement.identity(space.weyl_type, space.rank)
    parabolic = tuple(
        i for i in identity.generator_indices() if coset_string(identity.right_mult(i), omega) == omega
    )
    table = _subword_column(sigma, parabolic, weights)
    wiring = diagram.build_wiring_diagram(
        sigma.reduced_word(), space.weyl_type, space.rank, weights
    )
    column = diagram.transfer(wiring, omega.labels)
    zero = Polynomial.zero()
    restrictions = {}
    for lam in space.strings():
        by_subword = table.get(shortest_lift(lam, omega, space.weyl_type), zero)
        by_wiring = column.get(lam.labels, zero)
        if by_subword != by_wiring:
            raise RuntimeError(
                f"backend disagreement for {lam.compact()}|{mu.compact()} on {space}: "
                f"subword {by_subword} vs wiring {by_wiring}"
            )
        if by_subword:
            restrictions[lam.labels] = by_subword
    return restrictions


def restrictions_at(space: Space, mu: LabelString, weights=None) -> dict:
    """The restrictions of every Schubert class of space to the fixed point
    mu, as {label tuple of lambda: nonzero polynomial}, computed by both the
    subword and the wiring-diagram backends; the two must agree exactly.

    `weights`, when given, is the tuple of images of y_1..y_rank: both
    backends then compute directly in that torus, and the result equals the
    restrictions with those images substituted afterwards.  The column is
    cached and shared: callers must not change it."""
    if weights is not None and len(weights) != space.rank:
        raise ValueError(f"{space} needs {space.rank} weights, got {len(weights)}")
    return _restrictions_at(space, mu, weights)


def restriction(lam: LabelString, mu: LabelString, space: Space, weights=None) -> Polynomial:
    """The restriction of the Schubert class lam to the fixed point mu: one
    entry of `restrictions_at(space, mu, weights)`."""
    shortest_lift(lam, space.omega(), space.weyl_type)  # rejects lam outside the space
    return restrictions_at(space, mu, weights).get(lam.labels, Polynomial.zero())
