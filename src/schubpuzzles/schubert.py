"""The user-facing operations: two-step puzzle products, restriction of
Grassmannian Schubert classes to the symplectic Grassmannian, duality
symmetry, and the end-to-end fixed-point crosschecks that tie the puzzle
coefficients to the reduced-subword oracle.
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import build_half_diagram, build_triangle_diagram, enumerate_labelings, transfer
from .labels import Fl, Gr, LabelString, Record, SpGr, project_flag_string
from .poly import Polynomial, y
from .weyl import positive_roots, restriction


class ExpansionResult(Record):
    """An expansion into the Schubert basis of the target space: exact
    polynomial coefficients plus the number of contributing puzzles."""

    # space; terms: {LabelString: Polynomial}; puzzle_counts: {LabelString: int}
    __slots__ = ("space", "terms", "puzzle_counts")

    def nonequivariant(self) -> dict[LabelString, int]:
        """Set every torus weight to zero, which leaves each coefficient's
        constant term; survivors must be positive counts."""
        out: dict[LabelString, int] = {}
        for nu, coeff in self.terms.items():
            value = coeff.constant_term()
            if value < 0:
                raise RuntimeError(
                    f"nonequivariant coefficient of {nu.compact()} is not a "
                    f"nonnegative integer: {value}"
                )
            if value:
                out[nu] = value
        return out

    def to_json_dict(self, inputs: dict) -> dict:
        return {
            "space": str(self.space),
            "input": inputs,
            "expansion": [
                {
                    "nu": nu.compact(),
                    "coefficient": self.terms[nu].machine(),
                    "puzzles": self.puzzle_counts[nu],
                }
                for nu in sorted(self.terms)
            ],
        }


class Report(Record):
    """Outcome of an exhaustive identity sweep."""

    # description: str; checked, failed: int; first_failure: str | None
    __slots__ = ("description", "checked", "failed", "first_failure")

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "checked": self.checked,
            "failed": self.failed,
            "first_failure": self.first_failure,
        }

    def __str__(self) -> str:
        status = "pass" if self.passed else f"FAIL ({self.first_failure})"
        return f"{self.description}: checked {self.checked}, failed {self.failed} -> {status}"


@lru_cache(maxsize=None)
def _triangle(n: int):
    return build_triangle_diagram(n)


@lru_cache(maxsize=None)
def _half(n: int):
    return build_half_diagram(n)


def _expansion(space, column: dict) -> ExpansionResult:
    """The nonzero entries of a reverse `transfer` column, with their puzzle
    counts, in the lex order of `space.strings()`.  Every entry must index a
    class of space."""
    terms: dict[LabelString, Polynomial] = {}
    counts: dict[LabelString, int] = {}
    for labels in sorted(column):
        nu = LabelString(labels)
        if nu not in space:
            raise RuntimeError(f"the contraction reached {nu.compact()}, not a class on {space}")
        terms[nu] = column[labels]
        counts[nu] = column.counts[labels]
    return ExpansionResult(space, terms, counts)


def _binary_content(s: LabelString, n: int, what: str) -> int:
    n0, n10, n1 = s.content()
    if n10 or n0 + n1 != n:
        raise ValueError(f"{what} must be a 0/1 string of length {n}, got {s.compact()}")
    return n0


def two_step_product(lam: LabelString, mu: LabelString, n: int) -> ExpansionResult:
    """Product of the pullbacks of two Grassmannian classes on the two-step
    flag manifold, expanded by triangle puzzles with 10s allowed on the
    south side.  Coefficient of nu = sum of fugacities over puzzles with
    lam on the northwest, mu on the northeast and nu on the south.  One
    reverse contraction from the north side lam+mu, cached on the diagram,
    yields every nu with its coefficient and its puzzle count."""
    j = _binary_content(lam, n, "lambda")
    k = _binary_content(mu, n, "mu")
    if j > k:
        raise ValueError(f"lambda has {j} zeros but mu has {k}; need #0(lambda) <= #0(mu)")
    return _expansion(Fl(j, k, n), transfer(_triangle(n), (lam + mu).labels, reverse=True))


def restrict_to_spgr(lam: LabelString, k: int, n: int) -> ExpansionResult:
    """Expansion of a Gr(k,2n) Schubert class restricted to the symplectic
    Grassmannian.  Coefficient of nu is the (lam, nu) entry of the half
    diagram; one reverse contraction from the north side lam yields every
    nu with its coefficient and its half-puzzle count."""
    n0, n10, n1 = lam.content()
    if (n0, n10, n1) != (k, 0, 2 * n - k):
        raise ValueError(
            f"lambda must have content 0^{k} 1^{2 * n - k}, got {lam.compact()}"
        )
    return _expansion(SpGr(k, n), transfer(_half(n), lam.labels, reverse=True))


def half_puzzles(lam: LabelString, nu: LabelString, n: int):
    """The half-puzzles with the given boundary, with fugacities."""
    return enumerate_labelings(_half(n), out_labels=lam, in_labels=nu)


def factor_into_positive_roots(p: Polynomial, group_type: str, rank: int):
    """Write p as (positive integer) * product of type-A/C positive roots,
    by trial division against the finite root list.  Returns
    (constant, factors) or None if p does not factor that way."""
    if p.is_zero:
        return None
    remaining = p
    factors: list[Polynomial] = []
    roots = positive_roots(group_type, rank)
    progress = True
    while remaining.degree() > 0 and progress:
        progress = False
        for root in roots:
            quotient = remaining.divide_exact(root)
            if quotient is not None:
                factors.append(root)
                remaining = quotient
                progress = True
                break
    constant = remaining.constant_value()
    if constant is None or constant <= 0:
        return None
    return constant, factors


def specialize_to_half_torus(p: Polynomial, n: int) -> Polynomial:
    """Restrict the 2n ambient torus weights to the n symplectic ones:
    y_{n+i} -> -y_{n+1-i}."""
    images = {f"y{n + i}": -y(n + 1 - i) for i in range(1, n + 1)}
    return p.substitute(images)


def duality_check(k: int, m: int) -> Report:
    """Nonequivariant puzzle counts are symmetric under dualizing all three
    boundaries and swapping the two factors."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    space = Gr(k, m)
    checked = failed = 0
    first = None
    strings = space.strings()
    for lam in strings:
        for mu in strings:
            counts = two_step_product(lam, mu, m).nonequivariant()
            dual_counts = two_step_product(mu.dualize(), lam.dualize(), m).nonequivariant()
            for nu in strings:
                lhs = counts.get(nu, 0)
                rhs = dual_counts.get(nu.dualize(), 0)
                checked += 1
                if lhs != rhs:
                    failed += 1
                    if first is None:
                        first = (
                            f"c({lam.compact()},{mu.compact()};{nu.compact()})={lhs} "
                            f"but dual gives {rhs}"
                        )
    return Report(f"duality on {space}", checked, failed, first)


def crosscheck_restriction(k: int, n: int) -> Report:
    """Verify the symplectic restriction expansion at every fixed point:
    the ambient restriction at the doubled point, computed directly with the
    ambient weights specialized to the symplectic torus, must equal the
    pairing of the half-puzzle expansion with the symplectic restrictions."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    ambient = Gr(k, 2 * n)
    target = SpGr(k, n)
    weights = tuple(specialize_to_half_torus(y(i), n) for i in range(1, 2 * n + 1))
    sigmas = [(sigma, sigma.double()) for sigma in target.strings()]
    checked = failed = 0
    first = None
    for lam in ambient.strings():
        expansion = restrict_to_spgr(lam, k, n).terms
        for sigma, doubled in sigmas:
            lhs = restriction(lam, doubled, ambient, weights)
            rhs = Polynomial.zero()
            for nu, coeff in expansion.items():
                rhs = rhs + coeff * restriction(nu, sigma, target)
            checked += 1
            if lhs != rhs:
                failed += 1
                if first is None:
                    first = (
                        f"lambda={lam.compact()} sigma={sigma.compact()}: "
                        f"ambient {lhs} vs expansion {rhs}"
                    )
    return Report(f"restriction crosscheck {ambient} -> {target}", checked, failed, first)


def crosscheck_product(j: int, k: int, n: int) -> Report:
    """Verify the two-step product expansion at every flag fixed point:
    pairing the expansion with flag restrictions must equal the product of
    the two Grassmannian restrictions at the projected points."""
    if not 0 <= j <= k <= n:
        raise ValueError(f"need 0 <= j <= k <= n, got j={j}, k={k}, n={n}")
    space = Fl(j, k, n)
    gr_j, gr_k = Gr(j, n), Gr(k, n)
    lams = gr_j.strings()
    mus = gr_k.strings()
    sigmas = [
        (sigma, project_flag_string(sigma, "j"), project_flag_string(sigma, "k"))
        for sigma in space.strings()
    ]
    checked = failed = 0
    first = None
    for lam in lams:
        for mu in mus:
            expansion = two_step_product(lam, mu, n).terms
            for sigma, sigma_j, sigma_k in sigmas:
                lhs = Polynomial.zero()
                for nu, coeff in expansion.items():
                    lhs = lhs + coeff * restriction(nu, sigma, space)
                rhs = restriction(lam, sigma_j, gr_j) * restriction(mu, sigma_k, gr_k)
                checked += 1
                if lhs != rhs:
                    failed += 1
                    if first is None:
                        first = (
                            f"lambda={lam.compact()} mu={mu.compact()} "
                            f"sigma={sigma.compact()}: {lhs} vs {rhs}"
                        )
    return Report(f"product crosscheck on {space}", checked, failed, first)
