"""Weyl groups of types A and C, reduced words, coset strings, and
fixed-point restrictions of equivariant Schubert classes.

Conventions (all of them are exercised against the scattering-diagram
backend, which is the printed source of truth):

* An element w is a signed permutation, held as the tuple of its one-line
  images (w(1), .., w(n)); type A has no signs.  Generator i < n swaps i
  and i+1; in type C generator n negates n.  w o s_i applies s_i first:
  it swaps the images at positions i, i+1, or negates the image at n.  A
  word (q_1, .., q_k) is the element q_1 o q_2 o .. o q_k.
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
one-line tuples and keeps only minimal coset representatives, the
elements with no right descent in the generators J read off omega.  The
pruning is exact: every suffix of a reduced word of an element of W^J is
itself in W^J (Bjorner-Brenti, Combinatorics of Coxeter Groups, GTM 231,
section 2.4), so a dropped state never grows into a class of the space.
"""

from __future__ import annotations

from functools import lru_cache

from . import diagram
from .labels import Label, LabelString, Space
from .poly import Polynomial, y


def positive_roots(group_type: str, rank: int) -> list[Polynomial]:
    roots = [y(i) - y(j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
    if group_type == "C":
        roots += [y(i) + y(j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
        roots += [Polynomial.integer(2) * y(i) for i in range(1, rank + 1)]
    return roots


# -- the reduced-subword restriction ---------------------------------------

def _subword_column(word, group_type: str, rank: int, parabolic, weights=None) -> dict:
    """Restrictions to the fixed point with reduced word `word` of the
    classes of every minimal coset representative v below it, as
    {one-line tuple of v^-1: polynomial}, in the torus whose weights are
    the images of y_1..y_rank (None: the identity).

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
    return states


# -- cosets and lifts -------------------------------------------------------

def _coset_labels(images: tuple[int, ...], labels: tuple[Label, ...]) -> tuple[Label, ...]:
    out = [None] * len(images)
    for label, image in zip(labels, images):
        out[abs(image) - 1] = label if image > 0 else label.dual
    return tuple(out)


def shortest_lift(s: LabelString, omega: LabelString, group_type: str) -> tuple[int, ...]:
    """The one-line images of the minimum-length w whose coset string for
    omega is s.

    Each letter of omega goes, in order, to the positions of that letter in
    s, in increasing order.  In type C (where omega mixes no 0 with a 1), a
    0 or 1 then goes to the positions of its dual, in decreasing order and
    with a sign; the 10s go straight across.
    """
    if len(s) != len(omega):
        raise ValueError("string length mismatch")
    if group_type == "A":
        if s.content() != omega.content():
            raise ValueError(f"{s.compact()} is not in the orbit of {omega.compact()}")
    else:
        if Label.ZERO in omega.labels and Label.ONE in omega.labels:
            raise ValueError("type C base string may not mix 0 and 1")
        if s.count(Label.TEN) != omega.count(Label.TEN):
            raise ValueError(f"{s.compact()} is not in the orbit of {omega.compact()}")
    positions = {lab: [j for j, x in enumerate(s, start=1) if x is lab] for lab in Label}
    targets = {
        lab: iter(positions[lab] + [-j for j in reversed(positions[lab.dual]) if group_type == "C"])
        for lab in Label
    }
    images = tuple(next(targets[lab]) for lab in omega)
    if _coset_labels(images, omega.labels) != s.labels:
        raise RuntimeError(f"shortest lift of {s.compact()} left the coset of {omega.compact()}")
    return images


def reduced_word(images: tuple[int, ...], group_type: str) -> tuple[int, ...]:
    """The canonical reduced word of the element with one-line `images`:
    strip its smallest right descent until none is left, and read the
    stripped letters backwards.  i < n is a right descent when
    w(i) % (2n+1) > w(i+1) % (2n+1), the order of the roots on signed
    indices; in type C, n is one when w(n) < 0.  Stripping i changes no
    descent below i - 1, so the search resumes there."""
    w = list(images)
    n = len(w)
    modulus = 2 * n + 1
    stripped = []
    i = 1
    while True:
        while i < n and w[i - 1] % modulus <= w[i] % modulus:
            i += 1
        if i < n:
            w[i - 1], w[i] = w[i], w[i - 1]
        elif group_type == "C" and n and w[-1] < 0:
            w[-1] = -w[-1]
        else:
            break
        stripped.append(i)
        i = max(i - 1, 1)
    if w != list(range(1, n + 1)):
        raise ValueError(f"not a type {group_type} signed permutation: {images}")
    return tuple(reversed(stripped))


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
    word = reduced_word(shortest_lift(mu, omega, group_type), group_type)
    parabolic = [i for i in range(1, rank) if labels[i - 1] == labels[i]]
    if group_type == "C" and labels[-1] is Label.TEN:
        parabolic.append(rank)
    # a state u = v^-1 puts omega_|u_p| at position p, dualized when u_p < 0
    signed = {i: label for i, label in enumerate(labels, start=1)}
    signed.update((-i, label.dual) for i, label in enumerate(labels, start=1))
    by_subword = {}
    for u, value in _subword_column(word, group_type, rank, parabolic, weights).items():
        if value.is_zero:
            continue
        lam = tuple(map(signed.__getitem__, u))
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
    if lam not in space:
        raise ValueError(f"{lam.compact()} is not in the orbit of {space.omega().compact()}")
    return restrictions_at(space, mu, weights).get(lam.labels, Polynomial.zero())
