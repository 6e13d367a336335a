"""Weyl groups of types A and C, reduced words, coset strings, and
fixed-point restrictions of equivariant Schubert classes.

Conventions (all of them are exercised against the scattering-diagram
backend, which is the printed source of truth):

* Elements are signed permutations in one-line notation; type A has no
  signs.  ``w.right_mult(i)`` is the composite w o s_i, applying s_i
  first, so a word (q_1, .., q_k) read left to right through
  ``right_mult`` is q_1 o q_2 o .. o q_k.  Generator i < n swaps i and
  i+1; in type C generator n negates n.
* Simple roots are alpha_i = y_i - y_{i+1}, and alpha_n = 2 y_n in type
  C.  The group acts on weights by w . y_i = y_{w(i)} with y_{-j} = -y_j.
* A coset string places omega_i at position w(i), dualized (0 <-> 1)
  when the image is negative.

Restrictions are computed and compared one fixed point at a time: for a
point mu, the reduced-subword DP and the wiring-diagram contraction each
give the restriction of every class to mu, and the two columns must agree
entry by entry before ``restriction`` answers from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import diagram
from .labels import Label, LabelString, Space
from .poly import Polynomial, y


@dataclass(frozen=True)
class GroupElement:
    group_type: str  # "A" or "C"
    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if self.group_type not in ("A", "C"):
            raise ValueError(f"unknown group type {self.group_type!r}")
        if sorted(abs(x) for x in self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation: {self.images}")
        if self.group_type == "A" and any(x < 0 for x in self.images):
            raise ValueError("type A permutations have no negative entries")

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
        # a generator swaps two images or negates the last one, which keeps a
        # signed permutation signed, so the product skips __post_init__'s check
        product = object.__new__(GroupElement)
        object.__setattr__(product, "group_type", self.group_type)
        object.__setattr__(product, "images", tuple(imgs))
        return product

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


def word_to_element(word, group_type: str, rank: int) -> GroupElement:
    """The product of the word, applied right letter first."""
    result = GroupElement.identity(group_type, rank)
    for q in word:
        result = result.right_mult(q)
    return result


def all_reduced_words(w: GroupElement):
    """Every reduced word of w (exponential; tiny ranks only)."""
    if w.is_identity():
        yield ()
        return
    for i in w.generator_indices():
        if w.is_right_descent(i):
            for prefix in all_reduced_words(w.right_mult(i)):
                yield prefix + (i,)


def simple_root(group_type: str, rank: int, i: int) -> Polynomial:
    if group_type == "C" and i == rank:
        return Polynomial.integer(2) * y(rank)
    if not 1 <= i <= rank - 1:
        raise ValueError(f"no simple root with index {i} at rank {rank}")
    return y(i) - y(i + 1)


def act_on_weights(w: GroupElement, p: Polynomial) -> Polynomial:
    """Substitute y_i -> y_{w(i)}, with y_{-j} meaning -y_j."""
    images = {}
    for i in range(1, w.rank + 1):
        target = w.apply(i)
        images[f"y{i}"] = y(target) if target > 0 else -y(-target)
    return p.substitute(images)


def positive_roots(group_type: str, rank: int) -> list[Polynomial]:
    roots = [y(i) - y(j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
    if group_type == "C":
        roots += [y(i) + y(j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
        roots += [Polynomial.integer(2) * y(i) for i in range(1, rank + 1)]
    return roots


# -- the reduced-subword restriction ---------------------------------------

def _word_betas(word, group_type: str, rank: int, weights=None) -> list[Polynomial]:
    """The reflected simple roots (q_1..q_{t-1}) . alpha_{q_t} along a word,
    with y_i sent to weights[i-1] when weights are given."""
    images = None if weights is None else {f"y{i}": w for i, w in enumerate(weights, start=1)}
    prefix = GroupElement.identity(group_type, rank)
    betas = []
    for q in word:
        beta = act_on_weights(prefix, simple_root(group_type, rank, q))
        betas.append(beta if images is None else beta.substitute(images))
        prefix = prefix.right_mult(q)
    return betas


def subword_sum_over_word(pi: GroupElement, word) -> Polynomial:
    """The sum over reduced subwords of `word` with product pi of the
    product of the reflected roots at the chosen positions.  Direct
    depth-first enumeration with remaining-length pruning; `word` need not
    be the canonical reduced word."""
    group_type, rank = pi.group_type, pi.rank
    word = tuple(word)
    target_len = pi.length()
    k = len(word)
    if target_len > k:
        return Polynomial.zero()
    betas = _word_betas(word, group_type, rank)
    total = Polynomial.zero()

    def dfs(t: int, elem: GroupElement, chosen: int, product: Polynomial):
        nonlocal total
        if chosen == target_len:
            if elem == pi:
                total = total + product
            # longer subwords cannot stay reduced at this length
            return
        if chosen + (k - t) < target_len:
            return
        dfs(t + 1, elem, chosen, product)
        q = word[t]
        if not elem.is_right_descent(q):
            dfs(t + 1, elem.right_mult(q), chosen + 1, product * betas[t])

    dfs(0, GroupElement.identity(group_type, rank), 0, Polynomial.integer(1))
    return total


def _subword_table(sigma: GroupElement, weights=None) -> dict:
    """Restrictions of every class to the fixed point sigma at once, in the
    torus whose weights are the images of y_1..y_rank (None: the identity).

    One pass over the canonical reduced word of sigma, sharing work across
    all the reduced subwords: the state maps each element reachable as a
    reduced subword product to its accumulated root-product sum.  The
    weights enter through the roots only, since specializing them is a ring
    homomorphism and commutes with the sum of products.
    """
    group_type, rank = sigma.group_type, sigma.rank
    word = sigma.reduced_word()
    betas = _word_betas(word, group_type, rank, weights)
    states: dict[GroupElement, Polynomial] = {
        GroupElement.identity(group_type, rank): Polynomial.integer(1)
    }
    for q, beta in zip(word, betas):
        new_states = dict(states)
        for elem, total in states.items():
            if not elem.is_right_descent(q):
                grown = elem.right_mult(q)
                add = total * beta
                if grown in new_states:
                    new_states[grown] = new_states[grown] + add
                else:
                    new_states[grown] = add
        states = new_states
    return states


def subword_restriction(pi: GroupElement, sigma: GroupElement, weights=None) -> Polynomial:
    """Restriction of the Schubert class of pi to the fixed point sigma, as
    the sum over reduced subwords of the canonical reduced word of sigma
    whose product is pi, of the product of the reflected simple roots
    (q_1..q_{t-1}) . alpha_{q_t} over the chosen positions t, with y_i sent
    to weights[i-1] when weights are given."""
    if pi.group_type != sigma.group_type or pi.rank != sigma.rank:
        raise ValueError("mismatched groups")
    return _subword_table(sigma, weights).get(pi, Polynomial.zero())


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

    Both backends produce the whole column: the subword DP table of the
    lift of mu read at every lambda's shortest lift, and the forward
    transfer of the wiring diagram of mu.  They must agree on every lambda."""
    omega = space.omega()
    sigma = shortest_lift(mu, omega, space.weyl_type)
    table = _subword_table(sigma, weights)
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


def restriction(lam: LabelString, mu: LabelString, space: Space, weights=None) -> Polynomial:
    """The restriction of the Schubert class lam to the fixed point mu,
    computed by both the subword and the wiring-diagram backends; the two
    must agree exactly.

    `weights`, when given, is the tuple of images of y_1..y_rank: both
    backends then compute directly in that torus, and the result equals the
    restriction with those images substituted afterwards."""
    if weights is not None and len(weights) != space.rank:
        raise ValueError(f"{space} needs {space.rank} weights, got {len(weights)}")
    shortest_lift(lam, space.omega(), space.weyl_type)  # rejects lam outside the space
    return _restrictions_at(space, mu, weights).get(lam.labels, Polynomial.zero())
