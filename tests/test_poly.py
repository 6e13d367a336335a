import json
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import schubpuzzles
from schubpuzzles.poly import Polynomial, u, y, var_key

# registered in this order in a fresh interpreter, which is not var_key order
NAMES = ["y10", "u2", "y3", "y1", "u1", "y2"]
GENS = sorted(NAMES, key=var_key)
SYMBOLS = dict(zip(GENS, sympy.symbols(GENS)))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# a polynomial as a list of (coefficient, {variable: exponent}) terms
specs = st.lists(
    st.tuples(
        st.integers(-4, 4),
        st.dictionaries(st.sampled_from(NAMES), st.integers(0, 3), max_size=3),
    ),
    max_size=6,
)


def build(spec) -> Polynomial:
    return sum((Polynomial.from_machine([(c, powers)]) for c, powers in spec), Polynomial.zero())


def oracle(spec) -> sympy.Poly:
    """The same polynomial, built by sympy alone."""
    expr = sum(
        (c * sympy.Mul(*(SYMBOLS[v] ** e for v, e in powers.items())) for c, powers in spec),
        sympy.Integer(0),
    )
    return sympy.Poly(expr, *SYMBOLS.values())


def to_sympy(p: Polynomial) -> sympy.Poly:
    return oracle(p.machine())


def grlex_forms(spec) -> tuple[str, list]:
    """str() and machine() of the spec's polynomial, terms in sympy's grlex
    order over the generators in var_key order; machine() as
    (coefficient, [(variable, exponent), ...]) so that key order is checked."""
    poly = oracle(spec)
    if poly.is_zero:
        return "0", []
    grlex = [(int(c), [(v, e) for v, e in zip(GENS, exps) if e])
             for exps, c in poly.terms(order="grlex")]
    pieces = [str(Polynomial.from_machine([(c, dict(powers))])) for c, powers in grlex]
    text = pieces[0] + "".join(
        f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in pieces[1:]
    )
    return text, grlex


def monomial(v: str, e: int) -> Polynomial:
    return Polynomial.from_machine([(1, {v: e})])


def rand_poly(rng, nvars=3, nterms=4, maxdeg=2):
    p = Polynomial.zero()
    for _ in range(nterms):
        powers = {f"y{rng.randint(1, nvars)}": rng.randint(0, maxdeg) for _ in range(2)}
        p = p + Polynomial.from_machine([(rng.randint(-4, 4), powers)])
    return p


def test_telescoping_add():
    assert (y(1) - y(2)) + (y(2) - y(3)) == y(1) - y(3)


def test_mul_by_zero():
    assert (y(1) - y(2)) * Polynomial.zero() == Polynomial.zero()
    assert not ((y(1) + y(2)) * 0)


def test_difference_of_squares():
    assert (y(1) + y(2)) * (y(1) - y(2)) == y(1) * y(1) - y(2) * y(2)


def test_equality_and_zero():
    assert (y(1) - y(2)) + (y(2) - y(1)) == 0
    assert y(1) != y(2)
    assert Polynomial.integer(0).is_zero


def test_a_constant_hashes_as_its_int():
    # a == b must imply hash(a) == hash(b), so a constant polynomial and the
    # int it equals are one set element and one dict key
    for n in (0, 1, -1, 2**70 + 3):
        p = Polynomial.integer(n)
        assert p == n and hash(p) == hash(n)
        assert n in {p} and p in {n}
    assert 0 in {Polynomial.zero()} and 0 in {y(1) - y(1)}


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_text_form_examples():
    p = Polynomial.from_machine([(-2, {"y1": 2, "y3": 1})]) + y(2)
    assert str(p) == "-2*y1^2*y3 + y2"
    assert str(y(2) - y(3)) == "y2 - y3"
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.integer(1)) == "1"


@settings(PROPERTY, max_examples=300)
@given(specs)
def test_text_term_order_is_sympy_grlex(spec):
    # gens in var_key order, so sympy's grlex is the order str() and
    # machine() promise
    p = build(spec)
    text, machine = grlex_forms(spec)
    assert str(p) == text
    assert [(c, list(powers.items())) for c, powers in p.machine()] == machine


def test_term_order_is_independent_of_registration_order():
    # slots are numbered in registration order; output must follow var_key
    rng = random.Random(20261018)
    spec_list = [
        [(rng.choice([-3, -1, 1, 2]),
          {rng.choice(NAMES): rng.randint(0, 3) for _ in range(rng.randint(0, 3))})
         for _ in range(rng.randint(1, 6))]
        for _ in range(300)
    ]
    printed = _run_fresh(
        "import json, sys\n"
        "from schubpuzzles.poly import Polynomial\n"
        f"for name in {NAMES!r}:\n"
        "    Polynomial.variable(name)\n"
        "polys = [sum((Polynomial.from_machine([(c, p)]) for c, p in spec), Polynomial.zero())\n"
        "         for spec in json.load(sys.stdin)]\n"
        "json.dump([[str(p), p.machine()] for p in polys], sys.stdout)\n",
        stdin=json.dumps(spec_list).encode(),
    )
    for spec, (text, machine) in zip(spec_list, json.loads(printed), strict=True):
        assert (text, [(c, list(powers.items())) for c, powers in machine]) == grlex_forms(spec)


@PROPERTY
@given(specs, specs, specs)
def test_ring_operations_match_sympy(a, b, c):
    pa, pb, pc = build(a), build(b), build(c)
    sa, sb, sc = oracle(a), oracle(b), oracle(c)
    assert to_sympy(pa) == sa
    assert to_sympy(pa + pb) == sa + sb
    assert to_sympy(pa - pb) == sa - sb
    assert to_sympy(-pa) == -sa
    assert to_sympy(pa * pb) == sa * sb
    assert (pa == pb) == (sa == sb)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc


def test_machine_round_trip():
    p = Polynomial.from_machine([(-2, {"y1": 2, "y3": 1})]) + y(2)
    data = p.machine()
    assert data == [[-2, {"y1": 2, "y3": 1}], [1, {"y2": 1}]]
    assert Polynomial.from_machine(data) == p


def _run_fresh(source: str, stdin: bytes = b"") -> bytes:
    """Run `source` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(schubpuzzles.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", source], input=stdin, capture_output=True, env=env, check=True
    )
    return done.stdout


def test_pickle_is_process_independent():
    # packed monomials index the order in which a process registered its
    # variables; a pickle must mean the same polynomial in any process
    pickled = _run_fresh(
        "import pickle, sys\n"
        "from schubpuzzles.poly import u, y\n"
        "u(1); y(7)\n"
        "sys.stdout.buffer.write(pickle.dumps([y(1) - y(2), 3 * u(1) * u(1) * y(2) - 5]))\n"
    )
    printed = _run_fresh(
        "import pickle, sys\n"
        "from schubpuzzles.poly import u, y\n"
        "y(2); y(5); y(1); u(3)\n"
        "got = pickle.loads(sys.stdin.buffer.read())\n"
        "assert got == [y(1) - y(2), 3 * u(1) * u(1) * y(2) - 5], got\n"
        "print(*got, sep='; ')\n",
        stdin=pickled,
    )
    assert printed.decode() == "y1 - y2; 3*u1^2*y2 - 5\n"
    assert pickle.loads(pickled) == [y(1) - y(2), 3 * u(1) * u(1) * y(2) - 5]
    assert pickle.loads(pickle.dumps(Polynomial.zero())) == 0


def test_degree_is_bounded_by_the_exponent_field():
    # a 16-bit exponent field must never carry into the next variable's
    with pytest.raises(ValueError, match="packing bound"):
        Polynomial.from_machine([(1, {"y1": 65535})]) * y(1)
    top = monomial("y1", 65534) * y(1)
    assert top == Polynomial.from_machine([(1, {"y1": 65535})])
    assert str(top) == "y1^65535"
    with pytest.raises(ValueError, match="packing bound"):
        top * y(2)
    with pytest.raises(ValueError, match="packing bound"):
        Polynomial.from_machine([(1, {"y1": 40000, "y2": 30000})])
    with pytest.raises(ValueError, match="packing bound"):
        Polynomial.from_machine([[1, {"y1": 65536}]])
    # after cancellation the carried bound exceeds the degree; a product
    # whose true degree fits is still allowed
    cancelled = (monomial("y1", 40000) + 1) - monomial("y1", 40000)
    assert cancelled * monomial("y2", 30000) == monomial("y2", 30000)
