import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest
import sympy

import schubpuzzles
from schubpuzzles.poly import Polynomial, u, y, var_key


def rand_poly(rng, nvars=3, nterms=4, maxdeg=2):
    p = Polynomial.zero()
    for _ in range(nterms):
        powers = {f"y{rng.randint(1, nvars)}": rng.randint(0, maxdeg) for _ in range(2)}
        p = p + Polynomial.monomial(rng.randint(-4, 4), powers)
    return p


def test_telescoping_add():
    assert (y(1) - y(2)) + (y(2) - y(3)) == y(1) - y(3)


def test_mul_by_zero():
    assert (y(1) - y(2)) * Polynomial.zero() == Polynomial.zero()
    assert not ((y(1) + y(2)) * 0)


def test_difference_of_squares():
    assert (y(1) + y(2)) * (y(1) - y(2)) == y(1) ** 2 - y(2) ** 2


def test_equality_and_zero():
    assert (y(1) - y(2)) + (y(2) - y(1)) == 0
    assert y(1) != y(2)
    assert Polynomial.integer(0).is_zero


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_substitute_examples():
    p = y(2) - y(4)
    out = p.substitute({"y3": -y(2), "y4": -y(1)})
    assert out == y(2) + y(1)
    assert (Polynomial.integer(-2) * u(1)).substitute({"u1": 0}) == 0
    assert (y(1) - y(2)).substitute({}) == y(1) - y(2)


def test_substitute_is_homomorphism():
    rng = random.Random(5)
    images = {"y1": y(2) + 1, "y2": -y(3), "y3": Polynomial.integer(2)}
    for _ in range(25):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)
        assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)


def test_substitute_degree_guard():
    with pytest.raises(ValueError, match="degree"):
        y(1).substitute({"y1": y(2) * y(2)})


def test_text_form_examples():
    p = Polynomial.monomial(-2, {"y1": 2, "y3": 1}) + y(2)
    assert str(p) == "-2*y1^2*y3 + y2"
    assert str(y(2) - y(3)) == "y2 - y3"
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.integer(1)) == "1"


def test_text_term_order_is_sympy_grlex():
    # gens in var_key order, so sympy's grlex is the order str() promises
    names = sorted(["y1", "y2", "y3", "y10", "u1", "u2"], key=var_key)
    symbols = dict(zip(names, sympy.symbols(names)))
    rng = random.Random(20261018)
    for _ in range(300):
        p = Polynomial.zero()
        for _ in range(rng.randint(1, 6)):
            powers = {rng.choice(names): rng.randint(0, 3) for _ in range(rng.randint(0, 3))}
            p = p + Polynomial.monomial(rng.choice([-3, -1, 1, 2]), powers)
        if p.is_zero:
            continue
        expr = sum(
            c * sympy.Mul(*(symbols[v] ** e for v, e in mono)) for mono, c in p.terms().items()
        )
        grlex = sympy.Poly(expr, *symbols.values()).terms(order="grlex")
        pieces = [str(Polynomial.monomial(int(c), dict(zip(names, exps)))) for exps, c in grlex]
        expected = pieces[0] + "".join(
            f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in pieces[1:]
        )
        assert str(p) == expected


def test_machine_round_trip():
    p = Polynomial.monomial(-2, {"y1": 2, "y3": 1}) + y(2)
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
        "sys.stdout.buffer.write(pickle.dumps([y(1) - y(2), 3 * u(1) ** 2 * y(2) - 5]))\n"
    )
    printed = _run_fresh(
        "import pickle, sys\n"
        "from schubpuzzles.poly import u, y\n"
        "y(2); y(5); y(1); u(3)\n"
        "got = pickle.loads(sys.stdin.buffer.read())\n"
        "assert got == [y(1) - y(2), 3 * u(1) ** 2 * y(2) - 5], got\n"
        "print(*got, sep='; ')\n",
        stdin=pickled,
    )
    assert printed.decode() == "y1 - y2; 3*u1^2*y2 - 5\n"
    assert pickle.loads(pickled) == [y(1) - y(2), 3 * u(1) ** 2 * y(2) - 5]
    assert pickle.loads(pickle.dumps(Polynomial.zero())) == 0


def test_divide_exact():
    prod = (y(1) - y(2)) * (y(1) + y(2)) * (y(1) - y(3))
    q = prod.divide_exact(y(1) - y(3))
    assert q == (y(1) - y(2)) * (y(1) + y(2))
    assert prod.divide_exact(y(2) - y(3)) is None
    two_y1 = Polynomial.integer(2) * y(1)
    assert (two_y1 * (y(1) + y(2))).divide_exact(two_y1) == y(1) + y(2)
    # divisible over Q but not over Z
    assert y(1).divide_exact(two_y1) is None
    with pytest.raises(ZeroDivisionError):
        y(1).divide_exact(Polynomial.zero())


def test_power():
    assert (y(1) + 1) ** 0 == 1
    assert (y(1) + 1) ** 3 == y(1) ** 3 + 3 * y(1) ** 2 + 3 * y(1) + 1
    with pytest.raises(ValueError):
        y(1) ** -1
