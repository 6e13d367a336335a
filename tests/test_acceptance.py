"""Acceptance criteria, one test per criterion, exact comparisons only.

Each test prints a single pass line (visible with `pytest -s`); a failure
shows up as an ordinary assertion error.  Criterion 7 also has a rank-4
variant marked `slow`.
"""

import itertools
import time

import pytest

from schubpuzzles.diagram import (
    IDENTITY_NAMES,
    build_half_diagram,
    build_triangle_diagram,
    build_wiring_diagram,
    enumerate_labelings,
    transfer,
    verify_identity,
)
from schubpuzzles.labels import Fl, Gr, Label, LabelString, SpGr
from schubpuzzles.poly import Polynomial
from schubpuzzles.schubert import (
    crosscheck_product,
    crosscheck_restriction,
    duality_check,
    restrict_to_spgr,
    two_step_product,
)
from schubpuzzles.weyl import _word, restrictions_at
from test_tensor import as_sparse_map, boundary, half_puzzles, positive_roots, vertex_weights, ys, zero_one_bounces

parse = LabelString.parse


class Stopwatch:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds the {self.limit}s budget"
            )


def report(number, text, watch):
    print(f"criterion {number}: PASS ({text}; {watch.elapsed:.2f}s)")


def test_criterion_1_identity_suite():
    with Stopwatch(1.0) as watch:
        results = {name: verify_identity(name) for name in IDENTITY_NAMES}
    assert len(results) == 8
    assert all(results.values()), results
    report(1, "8/8 matrix identities hold exactly in u1,u2,u3", watch)


def test_criterion_2_self_dual_golden():
    with Stopwatch(1.0) as watch:
        expansion = restrict_to_spgr(parse("0101"), 2, 2)
        assert expansion.terms == {parse("01"): Polynomial.integer(1)}
        lam = parse("0101")
        labelings = enumerate_labelings(build_triangle_diagram(4), out_labels=lam + lam)
        assert len(labelings) == 3
    report(2, "restrict(0101) = {01: 1} and the square of 0101 has 3 puzzles", watch)


def test_criterion_3_general_k_golden():
    with Stopwatch(1.0) as watch:
        expansion = restrict_to_spgr(parse("110101"), 2, 3)
        assert {nu.compact(): str(c) for nu, c in expansion.terms.items()} == {
            "210": "y2 - y3",
            "211": "1",
            "120": "1",
        }
        assert sum(expansion.puzzle_counts.values()) == 3
    report(3, "restrict(110101) matches with exactly 3 half-puzzles", watch)


def test_criterion_4_two_step_golden():
    with Stopwatch(1.0) as watch:
        expansion = two_step_product(parse("101"), parse("100"), 3)
        assert {nu.compact(): str(c) for nu, c in expansion.terms.items()} == {
            "102": "y1 - y2",
            "120": "1",
        }
    report(4, "product(101, 100) = (y1-y2)*S_102 + S_120", watch)


def test_criterion_5_oracle_equivalence():
    with Stopwatch(30.0) as watch:
        pairs = 0
        diagrams = [build_half_diagram(n) for n in (1, 2, 3)]
        diagrams += [build_triangle_diagram(n) for n in (1, 2, 3, 4)]
        for diagram in diagrams:
            sums: dict = {}
            for labeling in enumerate_labelings(diagram):
                out, inn = boundary(labeling)
                key = (out, inn)
                sums[key] = sums.get(key, Polynomial.zero()) + labeling.fugacity
            sums = {k: v for k, v in sums.items() if not v.is_zero}
            for inn in itertools.product(
                (Label.ZERO, Label.TEN, Label.ONE), repeat=diagram.n_inputs
            ):
                column = transfer(diagram, inn)
                for out, value in column.items():
                    assert sums.pop((out, inn)) == value
                    pairs += 1
            assert not sums
    report(5, f"contraction equals fugacity sums on {pairs} boundary pairs", watch)


def test_criterion_6_subword_equals_wiring():
    spaces = []
    for m in range(1, 6):
        spaces += [Gr(k, m) for k in range(0, m + 1)]
    for n in range(1, 4):
        spaces += [SpGr(k, n) for k in range(0, n + 1)]
    for m in range(1, 5):
        spaces += [Fl(j, k, m) for j in range(0, m + 1) for k in range(j, m + 1)]
    with Stopwatch(60.0) as watch:
        pairs = 0
        for space in spaces:
            strings = space.strings()
            for mu in strings:
                restrictions_at(space, mu)  # raises on backend disagreement
                pairs += len(strings)
    report(6, f"subword and wiring restrictions agree on {pairs} pairs", watch)


def test_criterion_7_restriction_crosscheck():
    with Stopwatch(60.0) as watch:
        total = 0
        for n in range(1, 4):
            for k in range(1, n + 1):
                outcome = crosscheck_restriction(k, n)
                assert outcome.passed, str(outcome)
                total += outcome.checked
    report(7, f"restriction crosscheck n<=3: {total} fixed-point identities", watch)


@pytest.mark.slow
def test_criterion_7_restriction_crosscheck_rank4():
    with Stopwatch(600.0) as watch:
        total = 0
        for k in range(1, 5):
            outcome = crosscheck_restriction(k, 4)
            assert outcome.passed, str(outcome)
            total += outcome.checked
    report(7, f"restriction crosscheck n=4 (slow): {total} fixed-point identities", watch)


def test_criterion_8_product_crosscheck():
    with Stopwatch(300.0) as watch:
        total = 0
        for n in range(1, 5):
            for j in range(0, n + 1):
                for k in range(j, n + 1):
                    outcome = crosscheck_product(j, k, n)
                    assert outcome.passed, str(outcome)
                    total += outcome.checked
    report(8, f"product crosscheck n<=4: {total} fixed-point identities", watch)


def test_criterion_9_delta_and_ten_conservation():
    with Stopwatch(30.0) as watch:
        delta_checks = 0
        for n in range(1, 5):
            half = build_half_diagram(n)
            for k in range(1, n + 1):
                omega = SpGr(k, n).omega()
                doubled = omega.double()
                for lam in Gr(k, 2 * n).strings():
                    expected = 1 if lam == doubled else 0
                    assert transfer(half, omega).get(lam, 0) == expected
                    delta_checks += 1
        ten_checks = 0
        for n in range(1, 4):
            for k in range(0, n + 1):
                space = SpGr(k, n)
                for mu in space.strings():
                    wiring = build_wiring_diagram(_word(mu, space.omega(), "C"), "C", ys(n))
                    for (out, inn) in as_sparse_map(wiring).entries:
                        assert out.count(Label.TEN) == inn.count(Label.TEN)
                        ten_checks += 1
    report(
        9,
        f"base-point column is a Kronecker delta ({delta_checks} entries) and "
        f"wiring maps conserve 10s ({ten_checks} entries)",
        watch,
    )


def test_criterion_10_positivity_and_centerline():
    # positivity is structural: every vertex parameter is a positive root, and
    # a fugacity is the product of the parameters at its PARAMETER entries
    with Stopwatch(60.0) as watch:
        parameters = 0
        for n in range(1, 8):
            found = [v.parameter for v in build_half_diagram(n).vertices if v.parameter is not None]
            assert set(found) <= positive_roots("C", n) and len(found) == n * (n - 1)
            parameters += len(found)
        puzzles = 0
        for n in range(1, 5):
            roots = positive_roots("C", n)
            for k in range(0, n + 1):
                for lam in Gr(k, 2 * n).strings():
                    expansion = restrict_to_spgr(lam, k, n)
                    noneq = expansion.nonequivariant()
                    for nu in SpGr(k, n).strings():
                        weightless = 0
                        for puzzle in half_puzzles(lam, nu, n):
                            product = Polynomial.integer(1)
                            for w in vertex_weights(puzzle):
                                assert w == 1 or w in roots
                                product = product * w
                            assert product == puzzle.fugacity, (lam.compact(), nu.compact())
                            assert zero_one_bounces(puzzle) == nu.compact().count("1")
                            if puzzle.fugacity == 1:
                                weightless += 1
                            puzzles += 1
                        value = noneq.get(nu, 0)
                        assert value == weightless and value >= 0
    report(
        10,
        f"{parameters} half-diagram parameters are positive roots, and {puzzles} "
        "half-puzzle fugacities are products of them; "
        "0<-1 wall-bounce count equals #1(nu) throughout",
        watch,
    )


def test_criterion_11_duality():
    with Stopwatch(60.0) as watch:
        total = 0
        for m in range(1, 6):
            for k in range(0, m + 1):
                outcome = duality_check(k, m)
                assert outcome.passed, str(outcome)
                total += outcome.checked
    report(11, f"nonequivariant duality symmetry holds on {total} triples", watch)
