import itertools

import pytest

from schubpuzzles import weyl
from schubpuzzles.labels import Fl, Gr, LabelString, SpGr
from schubpuzzles.poly import Polynomial, y
from schubpuzzles.schubert import specialize_to_half_torus
from schubpuzzles.weyl import (
    GroupElement,
    coset_string,
    positive_roots,
    restriction,
    shortest_lift,
)

parse = LabelString.parse


# -- the full-group subword DP: the reference for the parabolic one ---------

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


def word_betas(word, group_type: str, rank: int) -> list[Polynomial]:
    """The reflected simple roots (q_1..q_{t-1}) . alpha_{q_t} along a word."""
    prefix = GroupElement.identity(group_type, rank)
    betas = []
    for q in word:
        betas.append(act_on_weights(prefix, simple_root(group_type, rank, q)))
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
    betas = word_betas(word, group_type, rank)
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


def full_subword_table(sigma: GroupElement) -> dict:
    """Restrictions of every class of the full group to the fixed point
    sigma: one left-to-right pass over sigma's canonical reduced word whose
    state maps every element reachable as a reduced subword product to its
    accumulated root-product sum."""
    group_type, rank = sigma.group_type, sigma.rank
    word = sigma.reduced_word()
    states = {GroupElement.identity(group_type, rank): Polynomial.integer(1)}
    for q, beta in zip(word, word_betas(word, group_type, rank)):
        new_states = dict(states)
        for elem, total in states.items():
            if not elem.is_right_descent(q):
                grown = elem.right_mult(q)
                new_states[grown] = new_states.get(grown, Polynomial.zero()) + total * beta
        states = new_states
    return states


def subword_restriction(pi: GroupElement, sigma: GroupElement) -> Polynomial:
    """Restriction of the Schubert class of pi to the fixed point sigma, read
    from the full-group table."""
    return full_subword_table(sigma).get(pi, Polynomial.zero())


def parabolic_generators(space) -> tuple[int, ...]:
    """The generators whose reflection fixes the base string of the space."""
    omega = space.omega()
    identity = GroupElement.identity(space.weyl_type, space.rank)
    return tuple(
        i for i in identity.generator_indices() if coset_string(identity.right_mult(i), omega) == omega
    )


def all_elements(group_type, rank):
    for perm in itertools.permutations(range(1, rank + 1)):
        if group_type == "A":
            yield GroupElement("A", perm)
        else:
            for signs in itertools.product((1, -1), repeat=rank):
                yield GroupElement("C", tuple(s * p for s, p in zip(signs, perm)))


def bfs_lengths(group_type, rank):
    """Word length of every element by breadth-first search."""
    start = GroupElement.identity(group_type, rank)
    dist = {start: 0}
    frontier = [start]
    gens = list(start.generator_indices())
    while frontier:
        new = []
        for w in frontier:
            for i in gens:
                v = w.right_mult(i)
                if v not in dist:
                    dist[v] = dist[w] + 1
                    new.append(v)
        frontier = new
    return dist


def test_constructor_rejects_non_signed_permutations():
    with pytest.raises(ValueError, match="signed permutation"):
        GroupElement("A", (1, 1, 3))
    with pytest.raises(ValueError, match="negative"):
        GroupElement("A", (1, -2, 3))
    with pytest.raises(ValueError, match="group type"):
        GroupElement("B", (1, 2))


def test_group_elements_are_immutable_values():
    w = GroupElement("C", (2, -1, 3))
    product = GroupElement("C", (1, 2, 3)).right_mult(1).right_mult(2).right_mult(3)
    for element in (w, product):
        with pytest.raises(AttributeError):
            element.images = (1, 2, 3)
    expected = GroupElement("C", (2, 3, -1))
    assert product == expected and hash(product) == hash(expected)
    assert GroupElement("A", (1, 2)) != GroupElement("C", (1, 2))


def test_right_mult_equals_validated_constructor():
    # right_mult skips validation; w o s_i must still be the signed
    # permutation j -> w(s_i(j)), built here through the checking constructor
    for group_type, rank in (("A", 3), ("C", 2)):
        for w in all_elements(group_type, rank):
            for i in w.generator_indices():
                if group_type == "C" and i == rank:
                    s_i = {rank: -rank}
                else:
                    s_i = {i: i + 1, i + 1: i}
                images = tuple(w.apply(s_i.get(j, j)) for j in range(1, rank + 1))
                expected = GroupElement(group_type, images)
                assert w.right_mult(i) == expected
                assert hash(w.right_mult(i)) == hash(expected)


def test_left_mult_equals_validated_constructor():
    # left_mult skips validation; s_q o w must still be the signed
    # permutation j -> s_q(w(j)), built here through the checking constructor
    for group_type, rank in (("A", 3), ("C", 2), ("C", 3)):
        for w in all_elements(group_type, rank):
            for q in w.generator_indices():
                if group_type == "C" and q == rank:
                    s_q = {rank: -rank, -rank: rank}
                else:
                    s_q = {q: q + 1, q + 1: q, -q: -q - 1, -q - 1: -q}
                expected = GroupElement(group_type, tuple(s_q.get(x, x) for x in w.images))
                assert w.left_mult(q) == expected
                assert hash(w.left_mult(q)) == hash(expected)


def test_left_descent_matches_length():
    for group_type, rank in (("A", 3), ("C", 2), ("C", 3)):
        for w in all_elements(group_type, rank):
            for q in w.generator_indices():
                rises = w.left_mult(q).length() == w.length() + 1
                assert (not w.is_left_descent(q)) == rises, (w, q)
        with pytest.raises(ValueError, match="out of range"):
            GroupElement.identity(group_type, rank).left_mult(rank + 1)
        with pytest.raises(ValueError, match="out of range"):
            GroupElement.identity(group_type, rank).is_left_descent(0)


def test_word_to_element_worked_example():
    w = word_to_element((2, 3, 1), "C", 3)
    assert w.images == (3, 1, -2)
    assert w.length() == 3
    assert w.one_line() == "3 1 -2"


def test_word_to_element_basics():
    assert word_to_element((), "A", 3).is_identity()
    assert word_to_element((1, 1), "A", 2).is_identity()
    assert word_to_element((3, 3), "C", 3).is_identity()
    with pytest.raises(ValueError):
        word_to_element((3,), "A", 3)


def test_lengths_match_bfs():
    for group_type, rank in (("A", 3), ("A", 4), ("C", 2), ("C", 3)):
        dist = bfs_lengths(group_type, rank)
        assert len(dist) == {1: 2, 2: 8, 3: 48}.get(rank, 24) if group_type == "C" else True
        for w, d in dist.items():
            assert w.length() == d, w


def test_reduced_word_round_trip():
    for group_type, rank in (("A", 4), ("C", 3)):
        for w in all_elements(group_type, rank):
            word = w.reduced_word()
            assert len(word) == w.length()
            assert word_to_element(word, group_type, rank) == w
    assert GroupElement.identity("A", 3).reduced_word() == ()
    assert word_to_element((1,), "A", 2).reduced_word() == (1,)


def test_simple_roots():
    assert simple_root("A", 3, 1) == y(1) - y(2)
    assert simple_root("C", 3, 3) == Polynomial.integer(2) * y(3)
    with pytest.raises(ValueError):
        simple_root("A", 3, 3)


def test_act_on_weights():
    w = word_to_element((2, 3, 1), "C", 3)  # images (3, 1, -2)
    assert act_on_weights(w, y(1)) == y(3)
    assert act_on_weights(w, y(3)) == -y(2)
    assert act_on_weights(w, y(1) + y(3)) == y(3) - y(2)


def test_coset_string():
    omega = parse("021")
    assert coset_string(GroupElement.identity("A", 3), omega) == omega
    assert coset_string(word_to_element((1,), "A", 2), parse("01")) == parse("10")
    # the sign generator fixes the base string of SpGr(1,2)
    omega_sp = SpGr(1, 2).omega()
    assert coset_string(word_to_element((2,), "C", 2), omega_sp) == omega_sp
    assert coset_string(word_to_element((1,), "C", 2), omega_sp) == parse("20")


def test_shortest_lift_examples():
    gr = Gr(1, 2)
    assert shortest_lift(gr.omega(), gr.omega(), "A").is_identity()
    assert shortest_lift(parse("10"), gr.omega(), "A").images == (2, 1)
    lift = shortest_lift(parse("20"), SpGr(1, 2).omega(), "C")
    assert lift.length() == 1


def test_shortest_lift_not_in_orbit():
    with pytest.raises(ValueError, match="orbit"):
        shortest_lift(parse("11"), Gr(1, 2).omega(), "A")
    with pytest.raises(ValueError, match="orbit"):
        shortest_lift(parse("00"), SpGr(1, 2).omega(), "C")


def _spaces_small():
    yield Gr(1, 2)
    yield Gr(1, 3)
    yield Gr(2, 4)
    yield Fl(1, 2, 3)
    yield SpGr(1, 2)
    yield SpGr(2, 2)
    yield SpGr(1, 3)


def test_shortest_lift_minimal_and_round_trip():
    for space in _spaces_small():
        omega = space.omega()
        best: dict = {}
        for w in all_elements(space.weyl_type, space.rank):
            s = coset_string(w, omega)
            best[s] = min(best.get(s, 99), w.length())
        for s in space.strings():
            lift = shortest_lift(s, omega, space.weyl_type)
            assert coset_string(lift, omega) == s
            assert lift.length() == best[s], (str(space), s.compact())


def test_subword_restriction_base_cases():
    s1 = word_to_element((1,), "A", 2)
    ident = GroupElement.identity("A", 2)
    assert subword_restriction(ident, s1) == 1
    assert subword_restriction(s1, ident) == 0  # too long for the word
    assert subword_restriction(s1, s1) == y(1) - y(2)


def test_subword_restriction_diagonal_is_root_product():
    # the restriction of a class at its own point is the full product of
    # the reflected roots along the word, and never vanishes
    for space in (Gr(2, 4), SpGr(1, 2), SpGr(2, 2)):
        omega = space.omega()
        for s in space.strings():
            w = shortest_lift(s, omega, space.weyl_type)
            word = w.reduced_word()
            expected = Polynomial.integer(1)
            prefix = GroupElement.identity(space.weyl_type, space.rank)
            for q in word:
                expected = expected * act_on_weights(
                    prefix, simple_root(space.weyl_type, space.rank, q)
                )
                prefix = prefix.right_mult(q)
            value = subword_restriction(w, w)
            assert value == expected
            assert not value.is_zero


def test_subword_independent_of_reduced_word():
    for group_type, rank in (("A", 3), ("C", 2)):
        for sigma in all_elements(group_type, rank):
            words = list(all_reduced_words(sigma))
            assert len(set(words)) == len(words)
            for pi in all_elements(group_type, rank):
                values = {
                    str(subword_sum_over_word(pi, word)) for word in words
                }
                assert len(values) == 1
                assert values == {str(subword_restriction(pi, sigma))}


def test_parabolic_table_equals_full_table_on_coset_representatives():
    # the right-to-left DP pruned to W^J must give, at every point, exactly the
    # full-group table's entries at the shortest lifts of the space's strings,
    # and never hold more states than the space has classes
    spaces = (
        Gr(2, 6), Gr(3, 6), SpGr(1, 3), SpGr(2, 3), SpGr(3, 3),
        SpGr(2, 4), SpGr(4, 4), Fl(1, 2, 4), Gr(2, 8),
    )
    for space in spaces:
        omega = space.omega()
        lifts = [shortest_lift(lam, omega, space.weyl_type) for lam in space.strings()]
        parabolic = parabolic_generators(space)
        for mu in space.strings():
            sigma = shortest_lift(mu, omega, space.weyl_type)
            table = weyl._subword_column(sigma, parabolic)
            full = full_subword_table(sigma)
            assert table == {w: full[w] for w in lifts if w in full}, (str(space), mu.compact())
            assert len(table) <= len(lifts)


def test_restriction_examples():
    gr = Gr(1, 2)
    omega = gr.omega()
    assert restriction(omega, omega, gr) == 1
    assert restriction(parse("10"), parse("10"), gr) == y(1) - y(2)
    # lambda not below mu in Bruhat order restricts to zero
    assert restriction(parse("10"), parse("01"), gr) == 0


def test_restriction_unit_class():
    for space in (Gr(2, 4), SpGr(1, 2), Fl(1, 2, 3)):
        omega = space.omega()
        for mu in space.strings():
            assert restriction(omega, mu, space) == 1


def test_restriction_backends_agree_sweep():
    # both backends run inside restriction(); disagreement raises
    for space in (Gr(2, 4), Fl(1, 2, 3), SpGr(1, 2), SpGr(2, 2)):
        for lam in space.strings():
            for mu in space.strings():
                restriction(lam, mu, space)


def test_backend_disagreement_raises(monkeypatch):
    # one perturbed subword entry must fail the whole-column comparison at
    # that entry, even when a different class is asked for
    space = Gr(2, 4)
    mu = parse("1100")
    perturbed_lift = shortest_lift(parse("0101"), space.omega(), "A")
    real_column = weyl._subword_column

    def perturbed_column(sigma, parabolic, weights=None):
        table = dict(real_column(sigma, parabolic, weights))
        table[perturbed_lift] = table.get(perturbed_lift, Polynomial.zero()) + 1
        return table

    weyl._restrictions_at.cache_clear()
    monkeypatch.setattr(weyl, "_subword_column", perturbed_column)
    try:
        with pytest.raises(RuntimeError, match=r"0101\|1100 on Gr\(2,4\)"):
            restriction(space.omega(), mu, space)
    finally:
        weyl._restrictions_at.cache_clear()


def test_restriction_in_half_torus_equals_specialized_restriction():
    # specializing y_{n+i} -> -y_{n+1-i} is a ring homomorphism, so passing
    # the specialized weights to both backends must give exactly the
    # specialization of the ambient restriction
    for n in (1, 2, 3):
        weights = tuple(specialize_to_half_torus(y(i), n) for i in range(1, 2 * n + 1))
        for k in range(2 * n + 1):
            space = Gr(k, 2 * n)
            for lam in space.strings():
                for mu in space.strings():
                    direct = restriction(lam, mu, space, weights)
                    assert direct == specialize_to_half_torus(restriction(lam, mu, space), n)


def test_restriction_weights_length_checked():
    space = Gr(1, 4)
    omega = space.omega()
    for weights in ((y(1), y(2), y(3)), tuple(y(i) for i in range(1, 6))):
        with pytest.raises(ValueError, match="weights"):
            restriction(omega, omega, space, weights)


def test_shortest_lift_cached_and_clearable():
    space = SpGr(1, 3)
    s = space.strings()[-1]
    first = shortest_lift(s, space.omega(), "C")
    assert shortest_lift(s, space.omega(), "C") is first
    shortest_lift.cache_clear()
    assert shortest_lift(s, space.omega(), "C") == first


def test_positive_roots():
    roots_a = positive_roots("A", 3)
    assert len(roots_a) == 3
    roots_c = positive_roots("C", 2)
    assert len(roots_c) == 4
    assert Polynomial.integer(2) * y(1) in roots_c


def test_coset_string_length_mismatch():
    with pytest.raises(ValueError):
        coset_string(GroupElement.identity("A", 3), parse("01"))
