import itertools

import pytest

from schubpuzzles import diagram, weyl
from schubpuzzles.labels import Fl, Gr, LabelString, Record, SpGr
from schubpuzzles.poly import Polynomial, y
from schubpuzzles.weyl import _word, restriction
from test_tensor import substitute

parse = LabelString.parse


# -- signed permutations: the reference for the functions on coset strings --

class GroupElement(Record):
    __slots__ = ("group_type", "images")  # "A" or "C"; tuple[int, ...]

    def __init__(self, group_type: str, images: tuple[int, ...]):
        if group_type not in ("A", "C"):
            raise ValueError(f"unknown group type {group_type!r}")
        if sorted(abs(x) for x in images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a signed permutation: {images}")
        if group_type == "A" and any(x < 0 for x in images):
            raise ValueError("type A permutations have no negative entries")
        super().__init__(group_type, images)

    @classmethod
    def identity(cls, group_type: str, rank: int) -> "GroupElement":
        return cls(group_type, tuple(range(1, rank + 1)))

    @property
    def rank(self) -> int:
        return len(self.images)

    def apply(self, j: int) -> int:
        """The image of the signed index j."""
        return self.images[j - 1] if j > 0 else -self.images[-j - 1]

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.rank + 1))

    @classmethod
    def _unchecked(cls, group_type: str, images: tuple[int, ...]) -> "GroupElement":
        # products of generators stay signed permutations, so they skip
        # __init__'s check
        element = object.__new__(cls)
        object.__setattr__(element, "group_type", group_type)
        object.__setattr__(element, "images", images)
        return element

    def right_mult(self, i: int) -> "GroupElement":
        """The composite self o s_i, without building the generator."""
        n = self.rank
        imgs = list(self.images)
        if self.group_type == "C" and i == n:
            imgs[n - 1] = -imgs[n - 1]
        elif 1 <= i <= n - 1:
            imgs[i - 1], imgs[i] = imgs[i], imgs[i - 1]
        else:
            raise ValueError(f"generator index {i} out of range")
        return GroupElement._unchecked(self.group_type, tuple(imgs))

    def length(self) -> int:
        """Coxeter length: inversions in type A, positive roots sent negative in type C."""
        n = self.rank
        w = self.images
        if self.group_type == "A":
            return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
        total = sum(1 for x in w if x < 0)
        m = 2 * n + 1  # y_a - y_b < 0 exactly when a % m > b % m
        for i in range(n):
            for j in range(i + 1, n):
                if w[i] % m > w[j] % m:  # y_i - y_j
                    total += 1
                if w[i] % m > -w[j] % m:  # y_i + y_j
                    total += 1
        return total

    def is_right_descent(self, i: int) -> bool:
        """Whether multiplying by s_i on the right shortens the element."""
        n = self.rank
        if self.group_type == "C" and i == n:
            return self.images[n - 1] < 0
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range")
        return self.images[i - 1] % (2 * n + 1) > self.images[i] % (2 * n + 1)

    def generator_indices(self) -> range:
        return range(1, self.rank + 1) if self.group_type == "C" else range(1, self.rank)

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word, built by stripping the smallest right descent."""
        collected = []
        cur = self
        while not cur.is_identity():
            for i in cur.generator_indices():
                if cur.is_right_descent(i):
                    collected.append(i)
                    cur = cur.right_mult(i)
                    break
            else:
                raise RuntimeError("non-identity element with no descent")
        return tuple(reversed(collected))

    def one_line(self) -> str:
        return " ".join(str(x) for x in self.images)

    def __str__(self) -> str:
        return self.one_line()


def coset_string(w: GroupElement, omega: LabelString) -> LabelString:
    """The string whose position w(i) carries omega_i, dualized when the
    image is negative."""
    if len(omega) != w.rank:
        raise ValueError("string length does not match the rank")
    out = [None] * w.rank
    for label, image in zip(omega, w.images):
        out[abs(image) - 1] = label if image > 0 else label.dual
    return LabelString(out)


def lift_of(s: LabelString, space) -> GroupElement:
    """The element that `_word` spells for s, as a checked GroupElement."""
    word = _word(s, space.omega(), space.weyl_type)
    return GroupElement(space.weyl_type, word_to_element(word, space.weyl_type, space.rank).images)


# -- the full-group subword DP: the reference for the one on coset strings --

def left_mult(w: GroupElement, i: int) -> GroupElement:
    """The composite s_i o w: swaps the values +-i and +-(i+1), keeping
    signs, or in type C for i = n negates the value +-n."""
    n = w.rank
    if w.group_type == "C" and i == n:
        swap = {n: -n, -n: n}
    elif 1 <= i <= n - 1:
        swap = {i: i + 1, i + 1: i, -i: -i - 1, -i - 1: -i}
    else:
        raise ValueError(f"generator index {i} out of range")
    return GroupElement._unchecked(w.group_type, tuple(swap.get(x, x) for x in w.images))


def is_left_descent(w: GroupElement, i: int) -> bool:
    """Whether multiplying by s_i on the left shortens w, that is whether
    the inverse sends alpha_i to a negative root."""
    n = w.rank
    preimage = {abs(x): (j if x > 0 else -j) for j, x in enumerate(w.images, start=1)}
    if w.group_type == "C" and i == n:
        return preimage[n] < 0
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range")
    return preimage[i] % (2 * n + 1) > preimage[i + 1] % (2 * n + 1)


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
    return substitute(p, images)


def specialize_to_half_torus(p: Polynomial, n: int) -> Polynomial:
    """Restrict the 2n ambient torus weights to the n symplectic ones:
    y_{n+i} -> -y_{n+1-i}."""
    return substitute(p, {f"y{n + i}": -y(n + 1 - i) for i in range(1, n + 1)})


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
                assert left_mult(w, q) == expected
                assert hash(left_mult(w, q)) == hash(expected)


def test_left_descent_matches_length():
    for group_type, rank in (("A", 3), ("C", 2), ("C", 3)):
        for w in all_elements(group_type, rank):
            for q in w.generator_indices():
                rises = left_mult(w, q).length() == w.length() + 1
                assert (not is_left_descent(w, q)) == rises, (w, q)
        with pytest.raises(ValueError, match="out of range"):
            left_mult(GroupElement.identity(group_type, rank), rank + 1)
        with pytest.raises(ValueError, match="out of range"):
            is_left_descent(GroupElement.identity(group_type, rank), 0)


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
    assert _word(gr.omega(), gr.omega(), "A") == ()
    assert _word(parse("10"), gr.omega(), "A") == (1,)
    assert lift_of(parse("10"), gr).images == (2, 1)
    assert lift_of(parse("20"), SpGr(1, 2)).length() == 1
    # 12 -> 21 -> 20 -> 02: a swap, the sign letter on the final 1, a swap
    assert _word(parse("12"), SpGr(1, 2).omega(), "C") == (1, 2, 1)
    assert lift_of(parse("12"), SpGr(1, 2)).images == (-1, 2)


def test_shortest_lift_not_in_orbit():
    with pytest.raises(ValueError, match="11 is not in the orbit of 01"):
        _word(parse("11"), Gr(1, 2).omega(), "A")
    with pytest.raises(ValueError, match="00 is not in the orbit of 02"):
        _word(parse("00"), SpGr(1, 2).omega(), "C")
    with pytest.raises(ValueError, match="010 is not in the orbit of 01"):
        _word(parse("010"), Gr(1, 2).omega(), "A")


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
            lift = lift_of(s, space)
            assert coset_string(lift, omega) == s
            assert lift.length() == best[s], (str(space), s.compact())
            assert len(_word(s, omega, space.weyl_type)) == best[s]


def _swept_spaces():
    """Every space whose strings some test in this file sweeps."""
    yield from _spaces_small()
    yield from (Gr(2, 6), Gr(3, 6), SpGr(2, 3), SpGr(3, 3), SpGr(2, 4), SpGr(4, 4), Fl(1, 2, 4), Gr(2, 8))
    for m in range(1, 7):
        yield from (Gr(k, m) for k in range(m + 1))
        yield from (SpGr(k, m) for k in range(m + 1))
        yield from (Fl(j, k, m) for k in range(m + 1) for j in range(k + 1))


def test_shortest_lift_matches_group_element_reference():
    # _word must be reduced, and spell the minimal coset representative: the
    # one element of its coset with no right descent in the generators that
    # fix omega
    for space in _swept_spaces():
        omega, group_type = space.omega(), space.weyl_type
        parabolic = parabolic_generators(space)
        for s in space.strings():
            word = _word(s, omega, group_type)
            lift = word_to_element(word, group_type, space.rank)
            assert len(word) == lift.length(), (str(space), s.compact())
            assert coset_string(lift, omega) == s, (str(space), s.compact())
            assert not any(lift.is_right_descent(i) for i in parabolic), (str(space), s.compact())


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
            w = lift_of(s, space)
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
    # the right-to-left DP on strings must give, at every point, exactly the
    # full-group table's entries at the minimal coset representatives (no
    # right descent in J), keyed by their coset strings, and never hold more
    # states than the space has classes; on the crosscheck's call path at
    # (k, n) = (2, 4) it must also do so in the symplectic torus, against
    # the full table with those weights substituted.  The full table runs on
    # the reference's own reduced word, the DP on _word's.
    spaces = (
        Gr(2, 6), Gr(3, 6), SpGr(1, 3), SpGr(2, 3), SpGr(3, 3),
        SpGr(2, 4), SpGr(4, 4), Fl(1, 2, 4), Gr(2, 8),
    )
    for space in spaces:
        omega, group_type = space.omega(), space.weyl_type
        parabolic = parabolic_generators(space)
        weights = tuple(specialize_to_half_torus(y(i), 4) for i in range(1, space.rank + 1))
        weighted = space in (SpGr(2, 4), Gr(2, 8))
        for mu in space.strings():
            full = full_subword_table(lift_of(mu, space))
            expected = {
                coset_string(w, omega).labels: value for w, value in full.items()
                if not any(w.is_right_descent(i) for i in parabolic)
            }
            args = (_word(mu, omega, group_type), omega, group_type)
            table = weyl._subword_column(*args)
            assert table == expected, (str(space), mu.compact())
            assert len(table) <= len(space.strings())
            if weighted:
                expected = {lam: specialize_to_half_torus(value, 4) for lam, value in expected.items()}
                assert weyl._subword_column(*args, weights) == expected, (str(space), mu.compact())


def test_parabolic_generators_read_off_omega():
    # the DP drops a letter at omega exactly when omega's entries there are
    # equal (or, for the sign letter, omega ends in 10): those letters are
    # the J of the coset_string definition
    spaces = [Gr(k, m) for m in range(1, 7) for k in range(m + 1)]
    spaces += [SpGr(k, n) for n in range(1, 7) for k in range(n + 1)]
    spaces += [Fl(j, k, m) for m in range(1, 7) for k in range(m + 1) for j in range(k + 1)]
    for space in spaces:
        omega, group_type = space.omega(), space.weyl_type
        identity = GroupElement.identity(group_type, space.rank)
        dropped = tuple(
            q for q in identity.generator_indices()
            if weyl._subword_column((q,), omega, group_type) == {omega.labels: 1}
        )
        assert dropped == parabolic_generators(space), str(space)
    assert len(spaces) == 27 + 27 + 83


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
    # both backends run inside restrictions_at; disagreement raises
    for space in (Gr(2, 4), Fl(1, 2, 3), SpGr(1, 2), SpGr(2, 2)):
        for mu in space.strings():
            weyl.restrictions_at(space, mu)


def test_backend_disagreement_raises(monkeypatch):
    # one perturbed subword entry must fail the whole-column comparison at
    # that entry, even when a different class is asked for
    space = Gr(2, 4)
    mu = parse("1100")
    perturbed_state = parse("0101").labels
    real_column = weyl._subword_column

    def perturbed_column(word, omega, group_type, weights=None):
        table = dict(real_column(word, omega, group_type, weights))
        table[perturbed_state] = table.get(perturbed_state, Polynomial.zero()) + 1
        return table

    monkeypatch.setattr(weyl, "_subword_column", perturbed_column)
    with pytest.raises(RuntimeError, match=r"0101\|1100 on Gr\(2,4\)"):
        restriction(space.omega(), mu, space)


def _column_mismatch_raises(monkeypatch, module, name, change, mu: str, match: str):
    # `change` edits the column that module.name returns at the point mu of
    # Gr(2,4); the whole-column comparison must then raise, naming `match`
    space = Gr(2, 4)
    real = getattr(module, name)

    def changed(*args):
        column = dict(real(*args))
        change(column)
        return column

    monkeypatch.setattr(module, name, changed)
    with pytest.raises(RuntimeError, match=match):
        weyl.restrictions_at(space, parse(mu))


def test_column_comparison_catches_a_dropped_subword_class(monkeypatch):
    _column_mismatch_raises(
        monkeypatch, weyl, "_subword_column", lambda table: table.pop(parse("0101").labels),
        "1100", r"disagreement for 0101\|1100 on Gr\(2,4\): subword 0 vs wiring",
    )


def test_column_comparison_catches_an_extra_wiring_entry(monkeypatch):
    # 1100 is not below 0101, so both backends give 0 there
    assert restriction(parse("1100"), parse("0101"), Gr(2, 4)) == 0
    _column_mismatch_raises(
        monkeypatch, diagram, "transfer", lambda column: column.update({parse("1100").labels: y(1)}),
        "0101", r"disagreement for 1100\|0101 on Gr\(2,4\): subword 0 vs wiring y1",
    )


def test_restriction_in_half_torus_equals_specialized_restriction():
    # specializing y_{n+i} -> -y_{n+1-i} is a ring homomorphism, so passing
    # the specialized weights to both backends must give exactly the
    # specialization of the ambient restriction
    for n in (1, 2, 3):
        weights = tuple(specialize_to_half_torus(y(i), n) for i in range(1, 2 * n + 1))
        for k in range(2 * n + 1):
            space = Gr(k, 2 * n)
            for mu in space.strings():
                direct = weyl.restrictions_at(space, mu, weights)
                ambient = weyl.restrictions_at(space, mu)
                for lam in space.strings():
                    expected = specialize_to_half_torus(ambient.get(lam.labels, Polynomial.zero()), n)
                    assert direct.get(lam.labels, Polynomial.zero()) == expected


def test_restriction_rejects_lambda_outside_the_space():
    # the same strings are rejected as the fixed point mu of a column
    for lam, space in ((parse("11"), Gr(1, 2)), (parse("011"), Gr(1, 2)), (parse("02"), SpGr(2, 2)),
                       (parse("2"), SpGr(1, 2)), (parse("012"), Fl(1, 1, 3))):
        with pytest.raises(ValueError, match="is not in the orbit of"):
            restriction(lam, space.omega(), space)
        with pytest.raises(ValueError, match="is not in the orbit of"):
            weyl.restrictions_at(space, lam)


def test_restriction_weights_length_checked():
    space = Gr(1, 4)
    omega = space.omega()
    for weights in ((y(1), y(2), y(3)), tuple(y(i) for i in range(1, 6))):
        with pytest.raises(ValueError, match="weights"):
            weyl.restrictions_at(space, omega, weights)


def test_coset_string_length_mismatch():
    with pytest.raises(ValueError):
        coset_string(GroupElement.identity("A", 3), parse("01"))
