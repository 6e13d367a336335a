import itertools
import random

import pytest

from schubpuzzles.labels import Label
from schubpuzzles.poly import Polynomial, u, y
from schubpuzzles.tensor import (
    _trivalent_swap,
    IDENTITY_NAMES,
    LABELS,
    SparseMap,
    _k_fusion,
    compose,
    identity_map,
    k_blue,
    k_red,
    r_red_green,
    r_same_colour,
    tensor_product,
    u_split,
    verify_identity,
)

Z, T, O = Label.ZERO, Label.TEN, Label.ONE


def random_sparse_map(rng: random.Random, out_arity: int, in_arity: int, density: float = 0.3) -> SparseMap:
    """A random small map, for composition-law tests."""
    entries = {}
    for out in itertools.product(LABELS, repeat=out_arity):
        for inn in itertools.product(LABELS, repeat=in_arity):
            if rng.random() < density:
                coeff = rng.randint(-3, 3)
                if coeff:
                    entries[(out, inn)] = Polynomial.integer(coeff)
    return SparseMap(out_arity, in_arity, entries)


def test_r_red_green_entries():
    a, b = y(1), y(2)
    m = r_red_green(a - b)
    assert m.entry((Z, O), (O, Z)) == a - b
    assert m.entry((Z, Z), (Z, Z)) == 1
    assert m.entry((T, O), (O, T)) == 1
    assert m.entry((O, Z), (Z, O)) == 1
    assert m.entry((Z, Z), (O, O)) == 0  # unlisted entries vanish
    assert m.entry((T, T), (T, T)) == 0  # the red-green diagonal is not unit
    assert len(m.entries) == 10


def test_r_same_colour_entries():
    a, b = y(1), y(2)
    m = r_same_colour(a - b)
    assert m.entry((O, Z), (Z, O)) == b - a
    assert m.entry((T, Z), (Z, T)) == b - a
    assert m.entry((O, T), (T, O)) == b - a
    for pair in itertools.product(LABELS, repeat=2):
        assert m.entry(pair, pair) == 1
    assert m.entry((Z, O), (O, Z)) == 0
    assert len(m.entries) == 12


def test_r_same_colour_at_zero_is_diagonal():
    m = r_same_colour(Polynomial.zero())
    assert set(m.entries) == {(pair, pair) for pair in itertools.product(LABELS, repeat=2)}


def test_k_matrices():
    a = u(1)
    kb = k_blue(a)
    assert kb.entry((O,), (Z,)) == Polynomial.integer(-2) * a
    assert kb.entry((T,), (T,)) == 1
    assert kb.entry((Z,), (O,)) == 0
    kr = k_red()
    assert kr.entry((O,), (Z,)) == 1
    assert kr.entry((Z,), (O,)) == 1
    assert kr.entry((O,), (O,)) == 0
    assert len(kr.entries) == 2


def test_u_matrix():
    m = u_split()
    assert m.entry((Z, T), (O,)) == 1
    assert m.entry((T, O), (Z,)) == 1
    assert m.entry((Z, Z), (O,)) == 0
    assert len(m.entries) == 5


def _pair_index(pair):
    return 3 * int(pair[0]) + int(pair[1])


def test_lower_triangular():
    # in lex basis order on pairs, R same-colour and K_B are lower-triangular
    m = r_same_colour(u(1) - u(2))
    for (out, inn) in m.entries:
        assert _pair_index(out) >= _pair_index(inn)
    kb = k_blue(u(1))
    for (out, inn) in kb.entries:
        assert int(out[0]) >= int(inn[0])


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_each_identity(name):
    assert verify_identity(name)


def test_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_identity("no-such-identity")


def test_identities_detect_perturbed_split_matrix():
    # a stray unit entry at (green,red|blue) = (1,1,0) slips through the
    # fusion identity (both sides grow the same term) but breaks the
    # trivalent swap; one at (0,0|1) breaks fusion directly
    perturbed = SparseMap(2, 1, {**u_split().entries, ((O, O), (Z,)): Polynomial.integer(1)})
    lhs, rhs = _k_fusion(u_map=perturbed)
    assert lhs == rhs
    lhs, rhs = _trivalent_swap(u_map=perturbed)
    assert lhs != rhs
    perturbed = SparseMap(2, 1, {**u_split().entries, ((Z, Z), (O,)): Polynomial.integer(1)})
    lhs, rhs = _k_fusion(u_map=perturbed)
    assert lhs != rhs


def test_compose_associative_and_identity():
    rng = random.Random(7)
    for _ in range(15):
        f = random_sparse_map(rng, 2, 1)
        g = random_sparse_map(rng, 1, 2)
        h = random_sparse_map(rng, 2, 2)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(identity_map(2), f) == f
        assert compose(f, identity_map(1)) == f


def test_compose_arity_mismatch():
    with pytest.raises(ValueError):
        compose(u_split(), u_split())


def test_tensor_product_entries():
    f = k_red()
    g = k_blue(y(2))
    t = tensor_product(f, g)
    assert t.out_arity == 2 and t.in_arity == 2
    assert t.entry((O, O), (Z, Z)) == Polynomial.integer(-2) * y(2)


def test_three_factor_tensor_product():
    rng = random.Random(11)
    a = random_sparse_map(rng, 1, 2)
    b = random_sparse_map(rng, 2, 1)
    c = r_same_colour(u(1) - u(2))
    t = tensor_product(a, b, c)
    assert (t.out_arity, t.in_arity) == (5, 5)
    assert t == tensor_product(tensor_product(a, b), c)
    assert t == tensor_product(a, tensor_product(b, c))
