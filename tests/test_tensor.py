import copy
import itertools
import random

import pytest

from schubpuzzles import diagram, schubert, weyl
from schubpuzzles.diagram import (
    IDENTITY_NAMES,
    _identity_sides,
    build_half_diagram,
    enumerate_labelings,
    transfer,
    verify_identity,
)
from schubpuzzles.labels import Fl, Gr, Label, LabelString, SpGr
from schubpuzzles.poly import Polynomial, u, y
from schubpuzzles.tensor import (
    K_BLUE,
    K_RED,
    LABELS,
    PARAMETER,
    R_RED_GREEN,
    R_SAME_COLOUR,
    U_SPLIT,
    UNIT,
    SparseMap,
)

Z, T, O = Label.ZERO, Label.TEN, Label.ONE


# -- the matrix algebra and the entrywise vertex matrices: the reference that
# diagram contraction is tested against, by the vertex-convention tests here
# and the worked wiring example

class GeneralMap:
    """A sparse linear map between tensor powers of the label space with any
    polynomial entries: an int is coerced (1 to the shared `UNIT`), and zero
    entries are dropped."""

    def __init__(self, out_arity: int, in_arity: int, entries: dict):
        self.out_arity = out_arity
        self.in_arity = in_arity
        self.entries: dict = {}
        for (out, inn), weight in entries.items():
            if len(out) != out_arity or len(inn) != in_arity:
                raise ValueError("entry arity mismatch")
            if not isinstance(weight, Polynomial):
                weight = UNIT if weight == 1 else Polynomial.integer(weight)
            if not weight.is_zero:
                self.entries[(tuple(out), tuple(inn))] = weight
        self.by_input = self._grouped(by_out=False)
        self.by_output = self._grouped(by_out=True)

    def _grouped(self, by_out: bool) -> dict:
        grouped: dict = {}
        for (out, inn), weight in self.entries.items():
            key, other = (out, inn) if by_out else (inn, out)
            grouped.setdefault(key, []).append((other, weight))
        for lst in grouped.values():
            lst.sort(key=lambda ow: ow[0])
        return grouped

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneralMap):
            return NotImplemented
        return (self.out_arity, self.in_arity, self.entries) == (other.out_arity, other.in_arity, other.entries)

    def __repr__(self) -> str:
        return f"GeneralMap(out_arity={self.out_arity}, in_arity={self.in_arity}, {len(self.entries)} entries)"


def at(matrix: SparseMap, weight: Polynomial | None = None) -> GeneralMap:
    """The shared `matrix` as a general map, with `weight` written into its
    `PARAMETER` entries; a zero weight drops them."""
    out, inn = next(iter(matrix.entries))
    entries = {key: weight if w is PARAMETER else w for key, w in matrix.entries.items()}
    return GeneralMap(len(out), len(inn), entries)


def identity_map(arity: int) -> GeneralMap:
    entries = {(word, word): 1 for word in itertools.product(LABELS, repeat=arity)}
    return GeneralMap(arity, arity, entries)


def compose(f: GeneralMap, g: GeneralMap) -> GeneralMap:
    """The composition f after g."""
    if f.in_arity != g.out_arity:
        raise ValueError("arity mismatch in composition")
    acc: dict = {}
    f_by_in = f.by_input
    for (mid, inn), gw in g.entries.items():
        for out, fw in f_by_in.get(mid, ()):
            key = (out, inn)
            w = fw * gw
            acc[key] = acc[key] + w if key in acc else w
    return GeneralMap(f.out_arity, g.in_arity, acc)


def tensor_product(*maps: GeneralMap) -> GeneralMap:
    """The tensor product of one or more maps, leftmost factor first."""
    f = maps[0]
    for g in maps[1:]:
        acc = {}
        for (fo, fi), fw in f.entries.items():
            for (go, gi), gw in g.entries.items():
                acc[(fo + go, fi + gi)] = fw * gw
        f = GeneralMap(f.out_arity + g.out_arity, f.in_arity + g.in_arity, acc)
    return f


def reference_r_same_colour(argument: Polynomial) -> GeneralMap:
    entries: dict = {}
    for k, l in itertools.product(LABELS, repeat=2):
        entries[((k, l), (k, l))] = UNIT
    weight = -argument
    for out, inn in (((O, Z), (Z, O)), ((T, Z), (Z, T)), ((O, T), (T, O))):
        entries[(out, inn)] = weight
    return GeneralMap(2, 2, entries)


def reference_r_red_green(argument: Polynomial) -> GeneralMap:
    entries: dict = {((Z, O), (O, Z)): argument}
    for i, j, k, l in (
        (Z, Z, Z, Z), (O, O, O, O), (Z, Z, O, T), (Z, T, O, O), (Z, T, T, Z),
        (O, Z, Z, O), (O, O, T, Z), (T, O, Z, Z), (T, O, O, T),
    ):
        entries[((i, j), (k, l))] = UNIT
    return GeneralMap(2, 2, entries)


def reference_k_blue(a: Polynomial) -> GeneralMap:
    entries: dict = {((x,), (x,)): UNIT for x in LABELS}
    entries[((O,), (Z,))] = Polynomial.integer(-2) * a
    return GeneralMap(1, 1, entries)


def substitute(p: Polynomial, images: dict) -> Polynomial:
    """The ring homomorphism that sends each variable named in `images` to
    its image (a Polynomial or int) and keeps every other variable."""
    total = Polynomial.zero()
    for coeff, powers in p.machine():
        term = Polynomial.integer(coeff)
        for v, e in powers.items():
            for _ in range(e):
                term = term * images.get(v, Polynomial.variable(v))
        total = total + term
    return total


# -- readers of puzzles and matrix entries that the package does not need

def half_puzzles(lam, nu, n: int) -> list:
    return enumerate_labelings(schubert._diagram(True, n), out_labels=lam, in_labels=nu)


def as_sparse_map(d) -> GeneralMap:
    """The diagram's full boundary-to-boundary map, entry by entry."""
    entries = {}
    for inn in itertools.product(LABELS, repeat=d.n_inputs):
        for out, weight in transfer(d, inn).items():
            entries[(out, inn)] = weight
    return GeneralMap(d.n_outputs, d.n_inputs, entries)


def boundary(labeling) -> tuple[LabelString, LabelString]:
    d, labels = labeling.diagram, labeling.edge_labels
    return LabelString(labels[e] for e in d.output_edges), LabelString(labels[: d.n_inputs])


def vertex_weights(labeling) -> list[Polynomial]:
    """The entry each vertex uses; a PARAMETER entry reads as the vertex's parameter."""
    labels, weights = labeling.edge_labels, []
    for v in labeling.diagram.vertices:
        w = v.matrix.entries[tuple(labels[e] for e in v.out_edges), tuple(labels[e] for e in v.in_edges)]
        weights.append(v.parameter if w is PARAMETER else w)
    return weights


def zero_one_bounces(labeling) -> int:
    """The number of red wall bounces labeled 0 <- 1."""
    labels = labeling.edge_labels
    return sum(1 for v in labeling.diagram.vertices
               if v.matrix is K_RED and (labels[v.out_edges[0]], labels[v.in_edges[0]]) == (Z, O))


def entry(m, out, inn) -> Polynomial:
    return m.entries.get((out, inn), Polynomial.zero())


def positive_roots(group_type: str, n: int) -> set[Polynomial]:
    """y_i - y_j for i < j; in type C also y_i + y_j for i < j, and 2 y_i."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    roots = {y(i) - y(j) for i, j in pairs}
    if group_type == "C":
        roots |= {y(i) + y(j) for i, j in pairs} | {2 * y(i) for i in range(1, n + 1)}
    return roots


def random_sparse_map(rng: random.Random, out_arity: int, in_arity: int, density: float = 0.3) -> GeneralMap:
    """A random small map, for composition-law tests."""
    entries = {}
    for out in itertools.product(LABELS, repeat=out_arity):
        for inn in itertools.product(LABELS, repeat=in_arity):
            if rng.random() < density:
                coeff = rng.randint(-3, 3)
                if coeff:
                    entries[(out, inn)] = Polynomial.integer(coeff)
    return GeneralMap(out_arity, in_arity, entries)


def test_r_red_green_entries():
    a, b = y(1), y(2)
    m = at(R_RED_GREEN, a - b)
    assert entry(m, (Z, O), (O, Z)) == a - b
    assert entry(m, (Z, Z), (Z, Z)) == 1
    assert entry(m, (T, O), (O, T)) == 1
    assert entry(m, (O, Z), (Z, O)) == 1
    assert entry(m, (Z, Z), (O, O)) == 0  # unlisted entries vanish
    assert entry(m, (T, T), (T, T)) == 0  # the red-green diagonal is not unit
    assert len(m.entries) == 10


def test_r_same_colour_entries():
    a, b = y(1), y(2)
    m = at(R_SAME_COLOUR, b - a)
    assert entry(m, (O, Z), (Z, O)) == b - a
    assert entry(m, (T, Z), (Z, T)) == b - a
    assert entry(m, (O, T), (T, O)) == b - a
    for pair in itertools.product(LABELS, repeat=2):
        assert entry(m, pair, pair) == 1
    assert entry(m, (Z, O), (O, Z)) == 0
    assert len(m.entries) == 12


def test_r_same_colour_at_zero_is_diagonal():
    m = at(R_SAME_COLOUR, Polynomial.zero())
    assert set(m.entries) == {(pair, pair) for pair in itertools.product(LABELS, repeat=2)}


def test_k_matrices():
    a = u(1)
    kb = at(K_BLUE, Polynomial.integer(-2) * a)
    assert entry(kb, (O,), (Z,)) == Polynomial.integer(-2) * a
    assert entry(kb, (T,), (T,)) == 1
    assert entry(kb, (Z,), (O,)) == 0
    kr = K_RED
    assert entry(kr, (O,), (Z,)) is UNIT
    assert entry(kr, (Z,), (O,)) is UNIT
    assert entry(kr, (O,), (O,)) == 0
    assert len(kr.entries) == 2


def test_u_matrix():
    m = U_SPLIT
    assert entry(m, (Z, T), (O,)) is UNIT
    assert entry(m, (T, O), (Z,)) is UNIT
    assert entry(m, (Z, Z), (O,)) == 0
    assert len(m.entries) == 5


def test_sparse_map_checks_arity_and_entries():
    with pytest.raises(ValueError, match="entry arity mismatch"):
        SparseMap(1, 1, {((Z, Z), (Z,)): UNIT})
    with pytest.raises(ValueError, match="entry arity mismatch"):
        SparseMap(1, 1, {((Z,), ()): PARAMETER})
    # an entry is the shared UNIT or PARAMETER itself, never an equal value
    for weight in (Polynomial.integer(1), Polynomial.integer(2), Polynomial.zero(), y(1), 1):
        with pytest.raises(ValueError, match="neither UNIT nor PARAMETER"):
            SparseMap(1, 1, {((O,), (Z,)): UNIT, ((Z,), (O,)): weight})
    # both indexes are built with the map, each list sorted by the other side
    m = SparseMap(1, 2, {((O,), (Z, O)): UNIT, ((Z,), (Z, O)): PARAMETER, ((Z,), (O, O)): UNIT})
    assert m.by_input == {(Z, O): [((Z,), PARAMETER), ((O,), UNIT)], (O, O): [((Z,), UNIT)]}
    assert m.by_output == {(Z,): [((Z, O), PARAMETER), ((O, O), UNIT)], (O,): [((Z, O), UNIT)]}
    assert m.by_input[(Z, O)][0][1] is PARAMETER and m.by_output[(O,)][0][1] is UNIT


def _pair_index(pair):
    return 3 * int(pair[0]) + int(pair[1])


def test_lower_triangular():
    # in lex basis order on pairs, R same-colour and K_B are lower-triangular
    for (out, inn) in R_SAME_COLOUR.entries:
        assert _pair_index(out) >= _pair_index(inn)
    for (out, inn) in K_BLUE.entries:
        assert int(out[0]) >= int(inn[0])


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_each_identity(name):
    assert verify_identity(name)


def test_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_identity("no-such-identity")


def test_identities_detect_perturbed_split_matrix(monkeypatch):
    # a stray unit entry at (green,red|blue) = (1,1,0) slips through the
    # fusion identity (both sides grow the same term) but breaks the
    # trivalent swap; one at (0,0|1) breaks fusion directly
    perturbed = SparseMap(2, 1, {**U_SPLIT.entries, ((O, O), (Z,)): UNIT})
    monkeypatch.setattr(diagram, "U_SPLIT", perturbed)
    assert verify_identity("k-fusion")
    assert not verify_identity("trivalent-swap")
    perturbed = SparseMap(2, 1, {**U_SPLIT.entries, ((Z, Z), (O,)): UNIT})
    monkeypatch.setattr(diagram, "U_SPLIT", perturbed)
    assert not verify_identity("k-fusion")


def test_identity_sides_differ_in_their_moves():
    # two sides built from the same moves would agree whatever the matrices
    for name in IDENTITY_NAMES:
        lhs, rhs = _identity_sides(name)
        moves = [[(id(v.matrix), v.position) for v in d.vertices] for d in (lhs, rhs)]
        assert moves[0] != moves[1], name


def _bottom_to_top(*layers: GeneralMap) -> GeneralMap:
    composite = layers[0]
    for layer in layers[1:]:
        composite = compose(layer, composite)
    return composite


def _left_sides():
    """The left side of five identities as matrix composites, bottom to top.
    Between them they use both crossing families, K_R, K_B and U."""
    u1, u2, u3 = u(1), u(2), u(3)
    ident, split, k_red = identity_map(1), at(U_SPLIT), at(K_RED)
    return {
        "yb-rrg": _bottom_to_top(
            tensor_product(reference_r_same_colour(u3 - u2), ident),
            tensor_product(ident, reference_r_red_green(u3 - u1)),
            tensor_product(reference_r_red_green(u2 - u1), ident),
        ),
        "trivalent-swap": _bottom_to_top(
            reference_r_same_colour(u2 - u1),
            tensor_product(split, split),
            tensor_product(ident, reference_r_red_green(u1 - u2), ident),
        ),
        "reflection-rg": _bottom_to_top(
            reference_r_same_colour(u2 - u1),
            tensor_product(ident, k_red),
            reference_r_red_green(-u2 - u1),
            tensor_product(ident, k_red),
        ),
        "reflection-bb": _bottom_to_top(
            reference_r_same_colour(u2 - u1),
            tensor_product(ident, reference_k_blue(-u1)),
            reference_r_same_colour(-u2 - u1),
            tensor_product(ident, reference_k_blue(-u2)),
        ),
        "k-fusion": _bottom_to_top(reference_k_blue(-u1), split, tensor_product(ident, k_red)),
    }


def test_identity_diagrams_follow_the_matrix_conventions():
    # each vertex of an identity diagram carries the matrix, argument and
    # strand positions that the composite written out by hand gives it
    for name, composite in _left_sides().items():
        lhs, _ = _identity_sides(name)
        assert as_sparse_map(lhs) == composite, name


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
        compose(at(U_SPLIT), at(U_SPLIT))


def test_tensor_product_entries():
    f = at(K_RED)
    g = reference_k_blue(y(2))
    t = tensor_product(f, g)
    assert t.out_arity == 2 and t.in_arity == 2
    assert entry(t, (O, O), (Z, Z)) == Polynomial.integer(-2) * y(2)


def test_three_factor_tensor_product():
    rng = random.Random(11)
    a = random_sparse_map(rng, 1, 2)
    b = random_sparse_map(rng, 2, 1)
    c = reference_r_same_colour(u(1) - u(2))
    t = tensor_product(a, b, c)
    assert (t.out_arity, t.in_arity) == (5, 5)
    assert t == tensor_product(tensor_product(a, b), c)
    assert t == tensor_product(a, tensor_product(b, c))


def _units(m: GeneralMap):
    """Where m holds the shared UNIT, in its entries and both indexes."""
    return (
        {key for key, w in m.entries.items() if w is UNIT},
        {key: [w is UNIT for _, w in lst] for key, lst in m.by_input.items()},
        {key: [w is UNIT for _, w in lst] for key, lst in m.by_output.items()},
    )


@pytest.mark.parametrize("matrix, parameter, reference", [
    (R_SAME_COLOUR, lambda argument: -argument, reference_r_same_colour),
    (R_RED_GREEN, lambda argument: argument, reference_r_red_green),
    (K_BLUE, lambda a: Polynomial.integer(-2) * a, reference_k_blue),
], ids=["r_same_colour", "r_red_green", "k_blue"])
def test_matrices_at_a_weight_equal_entrywise_construction(matrix, parameter, reference):
    # the vertex parameter the builder derives from an argument, written into
    # the shared matrix, gives the entrywise matrix and both of its indexes
    arguments = (y(1) - y(2), -y(3) - y(1), u(1), Polynomial.integer(3), UNIT, Polynomial.zero())
    for argument in arguments:
        got, want = at(matrix, parameter(argument)), reference(argument)
        assert (got.out_arity, got.in_arity) == (want.out_arity, want.in_arity)
        assert list(got.entries.items()) == list(want.entries.items()), argument
        assert list(got.by_input.items()) == list(want.by_input.items()), argument
        assert list(got.by_output.items()) == list(want.by_output.items()), argument
        assert _units(got) == _units(want), argument


_CONSTANTS = (R_SAME_COLOUR, R_RED_GREEN, K_BLUE, K_RED, U_SPLIT)


def _constant_state():
    return [(m.entries, m.by_input, m.by_output) for m in _CONSTANTS]


def test_diagrams_build_and_transfer_without_regrouping(monkeypatch):
    # every vertex holds one of the five shared matrices, so wiring and half
    # diagrams build and transfer without making a map, and no transfer
    # changes a shared matrix
    before = copy.deepcopy(_constant_state())
    built = []
    real_build = diagram.build_wiring_diagram

    def recording_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(diagram, "build_wiring_diagram", recording_build)
    for space in (SpGr(1, 3), SpGr(3, 3), Gr(2, 4), Fl(1, 2, 4)):
        for mu in space.strings():
            # a fresh wiring diagram of mu's word, transferred forward
            weyl.restrictions_at(space, mu)
    half = build_half_diagram(3)
    for lam in Gr(3, 6).strings():
        assert transfer(half, lam, reverse=True)
    assert transfer(half, (Z, O, T))
    assert built
    for d in built + [half]:
        for v in d.vertices:
            assert any(v.matrix is m for m in _CONSTANTS), (d.name, v.position)
    assert _constant_state() == before
