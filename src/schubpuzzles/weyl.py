"""Fixed-point restrictions of equivariant Schubert classes, computed from
the fixed point's coset string alone.

A torus fixed point of a space is a string mu in the orbit of the space's
base string omega.  Mu stands for the minimal element of its coset, in
which equal letters keep their order, with the letters ordered 0 < 10 < 1
(Bjorner-Brenti, Combinatorics of Coxeter Groups, GTM 231, section 2.4).
Acting on the left, generator i < rank swaps the letters at positions i
and i+1, and in type C the sign generator rank dualizes (0 <-> 1) the last
letter.  So a generator is a left descent of mu's element exactly when it
lowers the string: i < rank when mu_i > mu_{i+1}, and in type C the sign
generator when mu ends in 1.

* The word.  `_word` strips mu's first left descent until none is left.
  The stripped letters, in order, are a reduced word q_1..q_L of mu's
  element, q_1 o q_2 o .. o q_L, and the string left must be omega.
* The DP.  Billey's formula sums, over the reduced subwords of q_1..q_L,
  the product of the roots beta_t = (q_1..q_{t-1}) . alpha_{q_t} at the
  chosen positions.  `_subword_column` reads the word from right to left.
  A state is the string of the product v of the letters chosen so far, and
  letter q grows it to the string of s_q o v: it swaps entries q and q+1
  when they strictly ascend, and the sign letter turns a final 0 into a 1.
* Why keeping only strict ascents is exact.  A descent would make the
  subword non-reduced.  Equal entries, or a final 10 under the sign letter,
  mean that s_q o v = v o s_j for a generator s_j that fixes omega, so
  s_q o v is not minimal in its coset.  Every suffix of a reduced word of
  a minimal coset representative is itself one, so such a state never
  grows into a class of the space.  The states are thus exactly the
  classes, each keyed by its own string.

The roots alone use signed one-line images: alpha_i = y_i - y_{i+1}, and
alpha_n = 2 y_n in type C, and w . y_i = y_{w(i)} with y_{-j} = -y_j.
The subword DP and the wiring-diagram contraction each give the whole
column at mu from its word, and the two columns must be equal before
``restrictions_at`` or ``restriction`` (one entry) answers from them.
"""

from __future__ import annotations

from . import diagram
from .labels import Label, LabelString, Space
from .poly import Polynomial, y


def _word(mu: LabelString, omega: LabelString, group_type: str) -> tuple[int, ...]:
    """The reduced word of the minimum-length element whose coset string
    for omega is mu: strip mu's first left descent until none is left.
    Stripping i changes no descent below i - 1, so the search resumes
    there."""
    s = list(mu)
    n = len(s)
    word = []
    i = 1
    while True:
        while i < n and s[i - 1] <= s[i]:
            i += 1
        if i < n:
            s[i - 1], s[i] = s[i], s[i - 1]
        elif group_type == "C" and n and s[-1] is Label.ONE:
            s[-1] = Label.ZERO
        else:
            break
        word.append(i)
        i = max(i - 1, 1)
    if tuple(s) != omega.labels:
        raise ValueError(f"{mu.compact()} is not in the orbit of {omega.compact()}")
    return tuple(word)


def _subword_column(word, omega: LabelString, group_type: str, weights=None) -> dict:
    """Billey's formula on the word, read from right to left: the
    restrictions to the fixed point with reduced word `word` of the classes
    of every minimal coset representative below it, as {string: polynomial},
    in the torus whose weights are the images of y_1..y_rank (None: the
    identity).  The weights enter through the roots only, since
    specializing them is a ring homomorphism."""
    rank = len(omega)
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
    sign = rank if group_type == "C" else 0  # the sign letter, if any
    states = {omega.labels: Polynomial.integer(1)}
    for q, beta in zip(reversed(word), reversed(betas)):
        new_states = dict(states)
        for state, total in states.items():
            if q == sign:
                if state[-1] is not Label.ZERO:
                    continue
                grown = state[:-1] + (Label.ONE,)
            else:
                a, b = state[q - 1], state[q]
                if a >= b:
                    continue
                grown = state[:q - 1] + (b, a) + state[q + 1:]
            add = total * beta
            new_states[grown] = new_states[grown] + add if grown in new_states else add
        states = new_states
    return states


def restrictions_at(space: Space, mu: LabelString, weights=None) -> dict:
    """The restrictions of every Schubert class of space to the fixed point
    mu, as {label tuple of lambda: nonzero polynomial}, computed by both the
    subword and the wiring-diagram backends; the two must agree exactly.

    `weights`, when given, is the tuple of images of y_1..y_rank: both
    backends then compute directly in that torus, and the result equals the
    restrictions with those images substituted afterwards.

    Both backends produce the whole column from the one reduced word of mu:
    the subword DP's nonzero states, and the forward transfer of the wiring
    diagram of the same word.  The two columns must be equal: the first
    lambda in lex order where they differ is named otherwise."""
    if space.rank < 1:
        raise ValueError(f"{space} has rank 0: fixed-point restrictions need rank at least 1")
    if weights is not None and len(weights) != space.rank:
        raise ValueError(f"{space} needs {space.rank} weights, got {len(weights)}")
    omega, group_type = space.omega(), space.weyl_type
    word = _word(mu, omega, group_type)
    by_subword = {
        lam: value
        for lam, value in _subword_column(word, omega, group_type, weights).items()
        if not value.is_zero
    }
    wiring = diagram.build_wiring_diagram(word, group_type, space.rank, weights)
    by_wiring = diagram.transfer(wiring, omega.labels)
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


def restriction(lam: LabelString, mu: LabelString, space: Space) -> Polynomial:
    """The restriction of the Schubert class lam to the fixed point mu: one
    entry of `restrictions_at(space, mu)`."""
    if lam not in space:
        raise ValueError(f"{lam.compact()} is not in the orbit of {space.omega().compact()}")
    return restrictions_at(space, mu).get(lam.labels, Polynomial.zero())
