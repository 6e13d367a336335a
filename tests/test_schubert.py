import time

import pytest

from schubpuzzles import schubert
from schubpuzzles.diagram import Column, build_triangle_diagram, enumerate_labelings
from schubpuzzles.labels import Fl, Gr, Label, LabelString, SpGr
from schubpuzzles.poly import Polynomial, y
from schubpuzzles.schubert import (
    ExpansionResult,
    crosscheck_product,
    crosscheck_restriction,
    duality_check,
    restrict_to_spgr,
    two_step_product,
)
from schubpuzzles.weyl import _word, restrictions_at
from test_tensor import boundary, half_puzzles, positive_roots, substitute, vertex_weights, zero_one_bounces

parse = LabelString.parse


def as_text(expansion):
    return {nu.compact(): str(c) for nu, c in expansion.terms.items()}


def test_restrict_golden_small():
    e = restrict_to_spgr(parse("0101"), 2, 2)
    assert as_text(e) == {"01": "1"}
    assert e.puzzle_counts == {parse("01"): 1}


def test_restrict_golden_110101():
    e = restrict_to_spgr(parse("110101"), 2, 3)
    assert as_text(e) == {"210": "y2 - y3", "211": "1", "120": "1"}
    assert sum(e.puzzle_counts.values()) == 3


def test_restrict_unit_class():
    for n in range(1, 4):
        for k in range(0, n + 1):
            e = restrict_to_spgr(Gr(k, 2 * n).omega(), k, n)
            assert e.terms == {SpGr(k, n).omega(): Polynomial.integer(1)}


def test_restrict_content_error():
    with pytest.raises(ValueError, match="content"):
        restrict_to_spgr(parse("0101"), 1, 2)


def test_restrict_support_has_fixed_ten_count():
    for n in range(1, 4):
        for k in range(0, n + 1):
            for lam in Gr(k, 2 * n).strings():
                for nu in restrict_to_spgr(lam, k, n).terms:
                    n0, n10, n1 = nu.content()
                    assert n10 == n - k


def test_expansion_keys_follow_the_space_order():
    for n in range(1, 4):
        for k in range(0, n + 1):
            space = SpGr(k, n)
            for lam in Gr(k, 2 * n).strings():
                terms = restrict_to_spgr(lam, k, n).terms
                assert list(terms) == [nu for nu in space.strings() if nu in terms]
    for lam in Gr(1, 4).strings():
        for mu in Gr(2, 4).strings():
            terms = two_step_product(lam, mu, 4).terms
            assert list(terms) == [nu for nu in Fl(1, 2, 4).strings() if nu in terms]


def test_expansion_rejects_a_column_entry_outside_the_space(monkeypatch):
    real_transfer = schubert.transfer

    def transfer_with_stray_entry(diagram, boundary, reverse=False):
        real = real_transfer(diagram, boundary, reverse)
        column = Column(real)
        column.counts = dict(real.counts)
        stray = (Label.ONE,) * len(next(iter(real)))
        column[stray] = y(1)
        column.counts[stray] = 1
        return column

    monkeypatch.setattr(schubert, "transfer", transfer_with_stray_entry)
    # a memoised column would not reach the patched transfer, and a stray
    # one must not outlive this test
    schubert._column.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="reached 111, not a class on Fl"):
            two_step_product(parse("011"), parse("001"), 3)
        with pytest.raises(RuntimeError, match="not a class on SpGr"):
            restrict_to_spgr(parse("011101"), 2, 3)
    finally:
        schubert._column.cache_clear()


def test_expansions_read_memoised_columns():
    # a repeated query is served by `_column`, and cache_clear() empties
    # both memo layers
    lam, mu = parse("101"), parse("100")
    first = two_step_product(lam, mu, 3)
    hits = schubert._column.cache_info().hits
    assert two_step_product(lam, mu, 3) == first
    assert schubert._column.cache_info().hits == hits + 1
    schubert._column.cache_clear()
    schubert._diagram.cache_clear()
    assert schubert._column.cache_info().currsize == schubert._diagram.cache_info().currsize == 0
    assert two_step_product(lam, mu, 3) == first


def test_product_golden():
    e = two_step_product(parse("101"), parse("100"), 3)
    assert as_text(e) == {"102": "y1 - y2", "120": "1"}
    assert e.space == Fl(1, 2, 3)


def test_product_of_unit_classes():
    for n in (2, 3, 4):
        for j in range(0, n + 1):
            for k in range(j, n + 1):
                e = two_step_product(Gr(j, n).omega(), Gr(k, n).omega(), n)
                assert e.terms == {Fl(j, k, n).omega(): Polynomial.integer(1)}


def test_product_equivariant_square():
    # j = k gives the ordinary equivariant Grassmannian product; each
    # contributing fugacity is a product of differences y_i - y_j, i < j,
    # since every triangle parameter is one
    for n in range(1, 8):
        found = [v.parameter for v in build_triangle_diagram(n).vertices if v.parameter is not None]
        assert set(found) <= positive_roots("A", n) and len(found) == n * (n - 1) // 2
    e = two_step_product(parse("0101"), parse("0101"), 4)
    total_puzzles = sum(e.puzzle_counts.values())
    assert total_puzzles == 3
    lam = parse("0101")
    for nu in e.terms:
        for puzzle in enumerate_labelings(
            build_triangle_diagram(4), out_labels=lam + lam, in_labels=nu
        ):
            parameters = [w for w in vertex_weights(puzzle) if w != 1]
            assert set(parameters) <= positive_roots("A", 4)
            product = Polynomial.integer(1)
            for w in parameters:
                product = product * w
            assert product == puzzle.fugacity


def test_product_validation():
    with pytest.raises(ValueError, match="0/1"):
        two_step_product(parse("201"), parse("100"), 3)
    with pytest.raises(ValueError, match="length"):
        two_step_product(parse("10"), parse("100"), 3)
    with pytest.raises(ValueError, match="zeros"):
        two_step_product(parse("100"), parse("101"), 3)


def test_nonequivariant():
    e = restrict_to_spgr(parse("110101"), 2, 3)
    assert {nu.compact(): v for nu, v in e.nonequivariant().items()} == {"211": 1, "120": 1}
    empty = ExpansionResult(SpGr(1, 1), {}, {})
    assert empty.nonequivariant() == {}
    const = ExpansionResult(SpGr(1, 1), {parse("0"): Polynomial.integer(2)}, {parse("0"): 2})
    assert const.nonequivariant() == {parse("0"): 2}


def test_nonequivariant_matches_substituting_zero():
    # the oracle sets every torus weight (y1..y4 for n <= 4) to zero through
    # substitute; constant_value() is None if any weight is left
    def zeroed(expansion):
        values = {
            nu: substitute(c, {f"y{i}": 0 for i in range(1, 5)}).constant_value()
            for nu, c in expansion.terms.items()
        }
        return {nu: value for nu, value in values.items() if value}

    expansions = [
        two_step_product(lam, mu, n)
        for n in range(1, 5)
        for j in range(n + 1)
        for k in range(j, n + 1)
        for lam in Gr(j, n).strings()
        for mu in Gr(k, n).strings()
    ]
    expansions += [
        restrict_to_spgr(lam, k, n)
        for n in range(1, 4)
        for k in range(n + 1)
        for lam in Gr(k, 2 * n).strings()
    ]
    for e in expansions:
        assert e.nonequivariant() == zeroed(e)


def test_nonequivariant_counts_weightless_puzzles():
    for n in range(1, 4):
        for k in range(0, n + 1):
            for lam in Gr(k, 2 * n).strings():
                e = restrict_to_spgr(lam, k, n)
                noneq = e.nonequivariant()
                for nu in SpGr(k, n).strings():
                    weightless = sum(
                        1 for p in half_puzzles(lam, nu, n) if p.fugacity == 1
                    )
                    assert noneq.get(nu, 0) == weightless


def test_restrict_puzzle_counts_match_half_puzzles():
    for n in range(1, 5):
        for k in range(0, n + 1):
            for lam in Gr(k, 2 * n).strings():
                e = restrict_to_spgr(lam, k, n)
                for nu in SpGr(k, n).strings():
                    puzzles = half_puzzles(lam, nu, n)
                    if nu in e.terms:
                        assert e.puzzle_counts[nu] == len(puzzles)
                    else:
                        assert nu not in e.puzzle_counts
                        assert sum((p.fugacity for p in puzzles), Polynomial.zero()).is_zero


def test_product_puzzle_counts_match_enumeration():
    for n in range(1, 5):
        triangle = build_triangle_diagram(n)
        for j in range(0, n + 1):
            for k in range(j, n + 1):
                for lam in Gr(j, n).strings():
                    for mu in Gr(k, n).strings():
                        e = two_step_product(lam, mu, n)
                        sums, counts = {}, {}
                        for p in enumerate_labelings(triangle, out_labels=lam + mu):
                            nu = boundary(p)[1]
                            sums[nu] = sums.get(nu, Polynomial.zero()) + p.fugacity
                            counts[nu] = counts.get(nu, 0) + 1
                        assert e.terms == {nu: c for nu, c in sums.items() if not c.is_zero}
                        assert e.puzzle_counts == {nu: counts[nu] for nu in e.terms}


def test_nonequivariant_rejects_bad_values():
    bad = ExpansionResult(SpGr(1, 1), {parse("0"): Polynomial.integer(-1)}, {})
    with pytest.raises(RuntimeError, match="nonnegative"):
        bad.nonequivariant()


def test_restriction_coefficients_factor_into_positive_roots():
    # the coefficient comes from one half-puzzle, whose one parameter is the
    # positive root y1 + y2
    e = restrict_to_spgr(parse("1100"), 2, 2)
    assert as_text(e) == {"11": "y1 + y2"}
    assert e.puzzle_counts == {parse("11"): 1}
    (puzzle,) = half_puzzles(parse("1100"), parse("11"), 2)
    assert [w for w in vertex_weights(puzzle) if w != 1] == [y(1) + y(2)]
    assert y(1) + y(2) in positive_roots("C", 2)


def test_half_diagram_north_edges_carry_the_symplectic_torus():
    # the restriction crosscheck reads its ambient weights off these edges:
    # y_{n+i} restricts to -y_{n+1-i} on the symplectic torus
    for n in range(1, 8):
        weights = [y(i) for i in range(1, n + 1)] + [-y(i) for i in range(n, 0, -1)]
        assert schubert._diagram(True, n).output_parameters() == weights, n


def test_duality_small():
    r = duality_check(1, 2)
    assert r.passed and r.checked == 8
    assert duality_check(2, 4).passed
    assert duality_check(1, 3).passed


def test_crosscheck_restriction_counts():
    r = crosscheck_restriction(1, 1)
    assert r.passed and r.checked == 4
    r = crosscheck_restriction(1, 2)
    assert r.passed and r.checked == 16
    r = crosscheck_restriction(2, 2)
    assert r.passed and r.checked == 24
    # k = 0: one fixed point and one class
    for n in (1, 2):
        r = crosscheck_restriction(0, n)
        assert r.passed and r.checked == 1


@pytest.mark.slow
def test_crosscheck_restriction_rank_5():
    start = time.monotonic()
    checked = 0
    for k in (1, 2, 3, 4, 5):
        outcome = crosscheck_restriction(k, 5)
        assert outcome.passed, str(outcome)
        checked += outcome.checked
    elapsed = time.monotonic() - start
    assert checked == 36364
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"


def _in_simple_roots(n: int):
    """Every coefficient of every restriction to SpGr(k, n), k = 0..n, in the
    type C simple roots b_i = y_i - y_{i+1} (i < n) and b_n = y_n, that is
    with y_i -> b_i + ... + b_n."""
    b = [Polynomial.variable(f"b{i}") for i in range(1, n + 1)]
    images = {f"y{i}": sum(b[i - 1:], Polynomial.zero()) for i in range(1, n + 1)}
    for k in range(n + 1):
        for lam in Gr(k, 2 * n).strings():
            for coeff in restrict_to_spgr(lam, k, n).terms.values():
                yield substitute(coeff, images)


@pytest.mark.parametrize("n, coefficients", [
    (1, 3), (2, 12), (3, 63), (4, 412), pytest.param(5, 3124, marks=pytest.mark.slow),
])
def test_restriction_coefficients_are_positive_in_simple_roots(n, coefficients):
    # the half-puzzle rule is positive: every coefficient is a sum of
    # products of positive roots, and every positive root is a nonnegative
    # combination of the simple roots
    polynomials = list(_in_simple_roots(n))
    negative = [str(p) for p in polynomials if any(c < 0 for c, _ in p.machine())]
    assert len(polynomials) == coefficients
    assert negative == []


@pytest.mark.parametrize("n, coefficients", [(1, 3), (2, 11), (3, 47), (4, 232), (5, 1298)])
def test_product_coefficients_are_positive_in_simple_roots(n, coefficients):
    # in the type A simple roots b_i = y_i - y_{i+1}, that is with
    # y_i -> b_i + ... + b_{n-1} + y_n, every coefficient is a nonnegative
    # combination of monomials in the b_i, and y_n drops out: the products
    # of the roots y_i - y_j are invariant under shifting every y_i
    b = [Polynomial.variable(f"b{i}") for i in range(1, n)]
    images = {f"y{i}": sum(b[i - 1:], y(n)) for i in range(1, n + 1)}
    polynomials = [
        substitute(coeff, images)
        for j in range(n + 1)
        for k in range(j, n + 1)
        for lam in Gr(j, n).strings()
        for mu in Gr(k, n).strings()
        for coeff in two_step_product(lam, mu, n).terms.values()
    ]
    bad = [str(p) for p in polynomials
           if any(c < 0 or f"y{n}" in powers for c, powers in p.machine())]
    assert len(polynomials) == coefficients
    assert bad == []


def _length(s: LabelString, space) -> int:
    """The length of the minimal coset representative whose string is s."""
    return len(_word(s, space.omega(), space.weyl_type))


def _products(n: int):
    """(lam, mu, two_step_product(lam, mu, n)) for every j <= k <= n."""
    for j in range(n + 1):
        for k in range(j, n + 1):
            for lam in Gr(j, n).strings():
                for mu in Gr(k, n).strings():
                    yield lam, mu, two_step_product(lam, mu, n)


def test_expansion_coefficients_are_homogeneous():
    # every monomial of a restriction coefficient has degree l(lam) - l(nu),
    # and of a product coefficient l(lam) + l(mu) - l(nu)
    def degrees(coeff):
        return {sum(powers.values()) for _, powers in coeff.machine()}

    restriction = [
        (lam, nu, degrees(coeff), _length(lam, Gr(k, 2 * n)) - _length(nu, SpGr(k, n)))
        for n in range(1, 6)
        for k in range(n + 1)
        for lam in Gr(k, 2 * n).strings()
        for nu, coeff in restrict_to_spgr(lam, k, n).terms.items()
    ]
    product = [
        (lam + mu, nu, degrees(coeff),
         _length(lam, Gr(result.space.j, n)) + _length(mu, Gr(result.space.k, n)) - _length(nu, result.space))
        for n in range(1, 6)
        for lam, mu, result in _products(n)
        for nu, coeff in result.terms.items()
    ]
    assert (len(restriction), len(product)) == (3614, 1591)
    assert [case for case in restriction + product if case[2] != {case[3]}] == []


def test_product_coefficients_have_equivariant_duality():
    # c_{lam,mu}^nu(y) = c_{mu*,lam*}^{nu*} with y_i -> -y_{n+1-i}, where *
    # reverses a string and swaps 0 with 1; duality_check compares only the
    # constant terms
    checked = 0
    for n in range(1, 6):
        flip = {f"y{i}": -y(n + 1 - i) for i in range(1, n + 1)}
        for lam, mu, result in _products(n):
            dual = two_step_product(mu.dualize(), lam.dualize(), n).terms
            flipped = {nu.dualize(): substitute(coeff, flip) for nu, coeff in result.terms.items()}
            assert flipped == dual, (lam.compact(), mu.compact())
            checked += len(flipped)
    assert checked == 1591


def test_crosscheck_product_small():
    assert crosscheck_product(1, 1, 2).passed
    r = crosscheck_product(1, 2, 3)
    assert r.passed
    assert r.checked == 3 * 3 * 6
    assert crosscheck_product(2, 2, 4).passed


def test_product_coefficient_at_mu_is_the_restriction_to_mu():
    # c^mu_{lam,mu} = sigma_lam|_mu on Gr(k, n): restrict sigma_lam sigma_mu =
    # sum_nu c^nu_{lam,mu} sigma_nu to the point mu.  sigma_nu|_mu = 0 unless
    # nu <= mu, c^nu_{lam,mu} = 0 unless nu >= mu, and sigma_mu|_mu != 0
    # (Knutson-Tao, Duke Math. J. 119 (2003)).  With j = k the two-step
    # product is the Gr(k, n) product, so the triangle's coefficient and both
    # restriction backends must agree entry by entry, zero included, with no
    # change of variables
    zero = Polynomial.zero()
    pairs = nonzero = 0
    for n in range(1, 7):
        for k in range(n + 1):
            space = Gr(k, n)
            for mu in space.strings():
                column = restrictions_at(space, mu)
                for lam in space.strings():
                    coefficient = two_step_product(lam, mu, n).terms.get(mu, zero)
                    assert coefficient == column.get(lam, zero), (lam.compact(), mu.compact())
                    pairs += 1
                    nonzero += not coefficient.is_zero
    assert pairs == 2 + 6 + 20 + 70 + 252 + 924
    assert 0 < nonzero < pairs


def test_crosschecks_build_each_column_once(monkeypatch):
    # 2 columns at each of the 24 points of SpGr(2,4); at (1,2,4) one column
    # at each of the 12 flag points and the 4 + 6 Grassmannian points
    calls = []
    real = schubert.restrictions_at

    def counting(space, mu, weights=None):
        calls.append((space, mu, weights))
        return real(space, mu, weights)

    monkeypatch.setattr(schubert, "restrictions_at", counting)
    assert crosscheck_restriction(2, 4).passed
    assert len(calls) == len(set(calls)) == 48
    calls.clear()
    assert crosscheck_product(1, 2, 4).passed
    assert len(calls) == len(set(calls)) == 22


def test_crosschecks_sweep_one_fixed_point_at_a_time(monkeypatch):
    # each point's columns are built just before its cases are checked, so
    # no sweep holds the columns of every point at once; at (1,2,4) the
    # Grassmannian columns are read first, since many flag points project
    # to each Grassmannian point
    events = []
    real_column, real_pairing = schubert.restrictions_at, schubert._pairing

    def column(*args):
        events.append("column")
        return real_column(*args)

    def pairing(*args):
        events.append("pair")
        return real_pairing(*args)

    monkeypatch.setattr(schubert, "restrictions_at", column)
    monkeypatch.setattr(schubert, "_pairing", pairing)
    assert crosscheck_restriction(2, 3).passed
    points, classes = len(SpGr(2, 3).strings()), len(Gr(2, 6).strings())
    assert (points, classes) == (12, 15)
    assert events == (["column"] * 2 + ["pair"] * classes) * points
    events.clear()
    assert crosscheck_product(1, 2, 4).passed
    points, lams, mus = len(Fl(1, 2, 4).strings()), len(Gr(1, 4).strings()), len(Gr(2, 4).strings())
    assert (points, lams, mus) == (12, 4, 6)
    assert events == ["column"] * (lams + mus) + (["column"] + ["pair"] * lams * mus) * points


def test_crosscheck_validation():
    with pytest.raises(ValueError):
        crosscheck_restriction(3, 2)
    with pytest.raises(ValueError):
        crosscheck_product(2, 1, 3)


def test_sweeps_report_their_first_failure(monkeypatch):
    # one expansion off by one fails each sweep; the reports were recorded
    # before the three sweeps shared their bookkeeping
    def off_by_one(original, *bad):
        def wrapper(lam, *rest):
            result = original(lam, *rest)
            if lam.compact() in bad:
                nu = min(result.terms)
                terms = {**result.terms, nu: result.terms[nu] + 1}
                result = ExpansionResult(result.space, terms, result.puzzle_counts)
            return result
        return wrapper

    monkeypatch.setattr(schubert, "two_step_product", off_by_one(two_step_product, "011"))
    assert str(duality_check(1, 3)) == (
        "duality on Gr(1,3): checked 27, failed 3 -> FAIL (c(011,011;011)=2 but dual gives 1)"
    )
    assert str(crosscheck_product(1, 2, 3)) == (
        "product crosscheck on Fl(1,2,3): checked 54, failed 12 -> "
        "FAIL (lambda=011 mu=001 sigma=021: 2 vs 1)"
    )
    monkeypatch.setattr(schubert, "restrict_to_spgr", off_by_one(restrict_to_spgr, "0101"))
    report = crosscheck_restriction(2, 2)
    assert (report.checked, report.failed) == (24, 3)
    assert report.first_failure == "lambda=0101 sigma=01: ambient 2*y2 vs expansion 4*y2"
    # two bad classes: 011110 first fails at the point 102, the later class
    # 100111 already at the earlier point 200, and the cases run point by
    # point
    monkeypatch.setattr(
        schubert, "restrict_to_spgr", off_by_one(restrict_to_spgr, "011110", "100111")
    )
    report = crosscheck_restriction(2, 3)
    assert (report.checked, report.failed) == (180, 12)
    assert report.first_failure == (
        "lambda=100111 sigma=200: ambient y1^2 - y1*y2 - y1*y3 + y2*y3 "
        "vs expansion 2*y1^2 - 2*y1*y2 - 2*y1*y3 + 2*y2*y3"
    )


def test_report_json():
    r = crosscheck_restriction(1, 1)
    assert r.to_json_dict() == {"checked": 4, "failed": 0, "first_failure": None}


def test_expansion_json():
    e = restrict_to_spgr(parse("110101"), 2, 3)
    data = e.to_json_dict({"lambda": "110101", "k": 2, "n": 3})
    assert data["space"] == "SpGr(2,3)"
    entries = {item["nu"]: item for item in data["expansion"]}
    assert entries["210"]["coefficient"] == [[1, {"y2": 1}], [-1, {"y3": 1}]]
    assert entries["210"]["puzzles"] == 1
    assert list(entries) == ["210", "211", "120"]


def test_centerline_bounce_count_matches_ones():
    # within valid restrictions the per-puzzle count of 0<-1 wall bounces
    # equals the number of 1s on the south side
    for n in range(1, 4):
        for k in range(0, n + 1):
            for lam in Gr(k, 2 * n).strings():
                for nu in SpGr(k, n).strings():
                    for puzzle in half_puzzles(lam, nu, n):
                        assert zero_one_bounces(puzzle) == nu.compact().count("1")
