"""The user-facing operations: two-step puzzle products, restriction of
Grassmannian Schubert classes to the symplectic Grassmannian, the
nonequivariant duality sweep, and the end-to-end fixed-point crosschecks
that tie the puzzle coefficients to the two restriction backends of `weyl`.

Each expansion is read off one reverse contraction of a triangle or half
diagram.  Its positivity is structural and needs no factoring here: every
vertex parameter of those diagrams is a positive root, so every puzzle's
fugacity is a product of positive roots.  The package's one memo layer is
here, where callers repeat queries: `_diagram` keeps each diagram and
`_column` each column read, since `diagram.transfer` is pure.  The three
sweeps count checked and failed cases through one `_sweep`, which
describes the first failure only.  Each crosscheck builds every
fixed-point column once and keeps it only while that point is checked.
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import build_half_diagram, build_triangle_diagram, transfer
from .labels import Fl, Gr, LabelString, Record, SpGr, project_flag_string
from .poly import Polynomial
from .weyl import restrictions_at


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
def _diagram(half: bool, n: int):
    return build_half_diagram(n) if half else build_triangle_diagram(n)


@lru_cache(maxsize=None)
def _column(half: bool, n: int, boundary: tuple):
    return transfer(_diagram(half, n), boundary, reverse=True)


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
    reverse contraction from the north side lam+mu, memoised by `_column`,
    yields every nu with its coefficient and its puzzle count."""
    if n < 1:
        raise ValueError(f"two-step product needs n >= 1, got n={n}")
    j = _binary_content(lam, n, "lambda")
    k = _binary_content(mu, n, "mu")
    if j > k:
        raise ValueError(f"lambda has {j} zeros but mu has {k}; need #0(lambda) <= #0(mu)")
    return _expansion(Fl(j, k, n), _column(False, n, lam + mu))


def restrict_to_spgr(lam: LabelString, k: int, n: int) -> ExpansionResult:
    """Expansion of a Gr(k,2n) Schubert class restricted to the symplectic
    Grassmannian.  Coefficient of nu is the (lam, nu) entry of the half
    diagram; one reverse contraction from the north side lam yields every
    nu with its coefficient and its half-puzzle count."""
    target = SpGr(k, n)
    if n < 1:
        raise ValueError(f"restriction to {target} needs n >= 1, got n={n}")
    if lam.content() != (k, 0, 2 * n - k):
        raise ValueError(
            f"lambda must have content 0^{k} 1^{2 * n - k}, got {lam.compact()}"
        )
    return _expansion(target, _column(True, n, lam))


def _sweep(description: str, cases, failure) -> Report:
    """Check every case (lhs, rhs, *where) of an exhaustive sweep for
    lhs == rhs; only the first failing case is described, by
    failure(lhs, rhs, *where)."""
    checked = failed = 0
    first = None
    for lhs, rhs, *where in cases:
        checked += 1
        if lhs != rhs:
            failed += 1
            if first is None:
                first = failure(lhs, rhs, *where)
    return Report(description, checked, failed, first)


def duality_check(k: int, m: int) -> Report:
    """Nonequivariant puzzle counts are symmetric under dualizing all three
    boundaries and swapping the two factors."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    space = Gr(k, m)
    if m < 1:
        raise ValueError(f"duality on {space} needs m >= 1, got m={m}")
    strings = space.strings()

    def cases():
        for lam in strings:
            for mu in strings:
                counts = two_step_product(lam, mu, m).nonequivariant()
                dual_counts = two_step_product(mu.dualize(), lam.dualize(), m).nonequivariant()
                for nu in strings:
                    yield counts.get(nu, 0), dual_counts.get(nu.dualize(), 0), lam, mu, nu

    return _sweep(
        f"duality on {space}", cases(),
        lambda lhs, rhs, lam, mu, nu:
            f"c({lam.compact()},{mu.compact()};{nu.compact()})={lhs} but dual gives {rhs}",
    )


def _pairing(expansion: dict, column: dict) -> Polynomial:
    """The sum of coeff * (restriction of nu) over an expansion, read from a
    column of `restrictions_at`; classes that vanish at the point add
    nothing."""
    total = Polynomial.zero()
    for nu, coeff in expansion.items():
        value = column.get(nu)
        if value is not None:
            total = total + coeff * value
    return total


def crosscheck_restriction(k: int, n: int) -> Report:
    """Verify the symplectic restriction expansion at every fixed point:
    the ambient restriction at the doubled point, computed in the torus of
    the half diagram's north edges (y_1..y_n, -y_n..-y_1), must equal the
    pairing of the half-puzzle expansion with the symplectic restrictions.
    The cases run in (sigma, lambda) order, and the first failure reported
    is the first in that order."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n < 1:
        raise ValueError(f"crosscheck restriction needs n >= 1, got n={n}")
    ambient = Gr(k, 2 * n)
    target = SpGr(k, n)
    weights = tuple(_diagram(True, n).output_parameters())
    expansions = [(lam, restrict_to_spgr(lam, k, n).terms) for lam in ambient.strings()]
    zero = Polynomial.zero()

    def cases():
        for sigma in target.strings():
            ambient_column = restrictions_at(ambient, sigma.double(), weights)
            target_column = restrictions_at(target, sigma)
            for lam, expansion in expansions:
                lhs = ambient_column.get(lam, zero)
                yield lhs, _pairing(expansion, target_column), lam, sigma

    return _sweep(
        f"restriction crosscheck {ambient} -> {target}", cases(),
        lambda lhs, rhs, lam, sigma:
            f"lambda={lam.compact()} sigma={sigma.compact()}: ambient {lhs} vs expansion {rhs}",
    )


def crosscheck_product(j: int, k: int, n: int) -> Report:
    """Verify the two-step product expansion at every flag fixed point:
    pairing the expansion with flag restrictions must equal the product of
    the two Grassmannian restrictions at the projected points.  The cases
    run in (sigma, lambda, mu) order, and the first failure reported is the
    first in that order."""
    if not 0 <= j <= k <= n:
        raise ValueError(f"need 0 <= j <= k <= n, got j={j}, k={k}, n={n}")
    if n < 1:
        raise ValueError(f"crosscheck product needs n >= 1, got n={n}")
    space = Fl(j, k, n)
    gr_j, gr_k = Gr(j, n), Gr(k, n)
    lams = gr_j.strings()
    mus = gr_k.strings()
    # every Grassmannian point is the projection of some flag point
    at_j = {rho: restrictions_at(gr_j, rho) for rho in lams}
    at_k = {rho: restrictions_at(gr_k, rho) for rho in mus}
    expansions = [(lam, mu, two_step_product(lam, mu, n).terms) for lam in lams for mu in mus]
    zero = Polynomial.zero()

    def cases():
        for sigma in space.strings():
            column = restrictions_at(space, sigma)
            column_j = at_j[project_flag_string(sigma, "j")]
            column_k = at_k[project_flag_string(sigma, "k")]
            for lam, mu, expansion in expansions:
                lhs = _pairing(expansion, column)
                rhs = column_j.get(lam, zero) * column_k.get(mu, zero)
                yield lhs, rhs, lam, mu, sigma

    return _sweep(
        f"product crosscheck on {space}", cases(),
        lambda lhs, rhs, lam, mu, sigma:
            f"lambda={lam.compact()} mu={mu.compact()} sigma={sigma.compact()}: {lhs} vs {rhs}",
    )
