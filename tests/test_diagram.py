import collections
import itertools

import pytest

from schubpuzzles import diagram as diagram_module
from schubpuzzles.diagram import (
    _grow,
    _identity_sides,
    build_half_diagram,
    build_triangle_diagram,
    build_wiring_diagram,
    enumerate_labelings,
    transfer,
)
from schubpuzzles.labels import Label, LabelString, SpGr, strings_with_content
from schubpuzzles.poly import Polynomial, y
from schubpuzzles.tensor import K_BLUE, K_RED, R_RED_GREEN, R_SAME_COLOUR, U_SPLIT, UNIT
from test_tensor import (
    as_sparse_map,
    boundary,
    compose,
    identity_map,
    reference_k_blue,
    reference_r_same_colour,
    tensor_product,
    vertex_weights,
)

parse = LabelString.parse


# the shared matrices a vertex of each kind holds
KINDS = {"trivalent": (U_SPLIT,), "crossing": (R_SAME_COLOUR, R_RED_GREEN), "bounce": (K_BLUE, K_RED)}


def kind_of(vertex):
    return next(kind for kind, matrices in KINDS.items() if any(vertex.matrix is m for m in matrices))


def count_kind(diagram, kind):
    return sum(1 for v in diagram.vertices if kind_of(v) == kind)


def test_triangle_shape():
    d1 = build_triangle_diagram(1)
    assert count_kind(d1, "trivalent") == 1
    assert count_kind(d1, "crossing") == 0
    assert d1.n_inputs == 1 and d1.n_outputs == 2
    assert count_kind(build_triangle_diagram(3), "crossing") == 3
    assert count_kind(build_triangle_diagram(4), "crossing") == 6
    with pytest.raises(ValueError):
        build_triangle_diagram(0)


def test_half_shape():
    d1 = build_half_diagram(1)
    assert count_kind(d1, "trivalent") == 1
    assert count_kind(d1, "bounce") == 1
    assert count_kind(d1, "crossing") == 0
    assert d1.n_inputs == 1 and d1.n_outputs == 2
    assert count_kind(build_half_diagram(2), "crossing") == 2
    d4 = build_half_diagram(4)
    assert count_kind(d4, "crossing") == 12
    params = [str(p) for p in d4.output_parameters()]
    assert params == ["y1", "y2", "y3", "y4", "-y4", "-y3", "-y2", "-y1"]
    with pytest.raises(ValueError):
        build_half_diagram(0)


def _strand(diagram, edge):
    return diagram.edges[edge].colour, diagram.edges[edge].parameter


@pytest.mark.parametrize("n", range(1, 9))
def test_triangle_and_half_layout(n):
    # red y_i meets green y_j once for every i < j; in the half diagram each
    # red then bounces once off the last frontier position, and the bounced
    # -y_i meets red y_t once for every t < i; no other strands cross
    ys = [y(i) for i in range(1, n + 1)]
    pairs = [(("R", ys[i]), ("G", ys[j])) for i, j in itertools.combinations(range(n), 2)]
    for d, half in ((build_triangle_diagram(n), False), (build_half_diagram(n), True)):
        crossings, bounces, width = collections.Counter(), collections.Counter(), d.n_inputs
        for v in d.vertices:
            width += v.matrix is U_SPLIT
            strands = tuple(_strand(d, e) for e in v.in_edges)
            if kind_of(v) == "crossing":
                crossings[strands] += 1
            elif kind_of(v) == "bounce":
                bounces[strands, v.position == width - 1] += 1
        expected = collections.Counter(pairs)
        if half:
            expected.update((("R", ys[t]), ("G", -ys[i])) for t, i in itertools.combinations(range(n), 2))
        assert crossings == expected, d.name
        assert bounces == collections.Counter({((("R", p),), True): 1 for p in ys} if half else {}), d.name


def test_grow_rejects_impossible_moves():
    row = [("G", y(1)), ("R", y(2))]
    with pytest.raises(ValueError, match="^only blue strands split$"):
        _grow("green split", row, [("split", 0)])
    with pytest.raises(ValueError, match="^unsupported crossing colours GR$"):
        _grow("green-red crossing", row, [("cross", 0)])
    with pytest.raises(ValueError, match="^only red and blue strands bounce$"):
        _grow("green bounce", row, [("bounce", 0)])
    with pytest.raises(ValueError, match="^unknown move 'twist'$"):
        _grow("twist", row, [("twist", 0)])


def test_triangle_output_row_is_checked(monkeypatch):
    # a triangle missing its last crossing still grows, with red 1 left of
    # green 3 in its output row
    moves = diagram_module._triangle_moves
    monkeypatch.setattr(diagram_module, "_triangle_moves", lambda n: moves(n)[:-1])
    with pytest.raises(RuntimeError, match="triangle[(]3[)] has the wrong output row"):
        build_triangle_diagram(3)


def test_wiring_worked_example():
    # word (2,3,1) on three strands with a wall bounce: the composite must
    # equal (Id x R(y3-y2)) o (Id x Id x K_B(-y2)) o (R(y3-y1) x Id)
    d = build_wiring_diagram((2, 3, 1), "C", 3)
    ident = identity_map(1)
    expected = compose(
        tensor_product(ident, reference_r_same_colour(y(3) - y(2))),
        compose(
            tensor_product(ident, ident, reference_k_blue(-y(2))),
            tensor_product(reference_r_same_colour(y(3) - y(1)), ident),
        ),
    )
    assert as_sparse_map(d) == expected


def test_wiring_edge_cases():
    d = build_wiring_diagram((), "A", 3)
    assert not d.vertices
    for word in itertools.product((Label.ZERO, Label.TEN, Label.ONE), repeat=3):
        column = transfer(d, word)
        assert column == {word: Polynomial.integer(1)}
    d1 = build_wiring_diagram((1,), "A", 2)
    assert count_kind(d1, "crossing") == 1
    with pytest.raises(ValueError):
        build_wiring_diagram((2,), "A", 2)
    with pytest.raises(ValueError):
        build_wiring_diagram((3,), "C", 2)


def test_wiring_carries_weights():
    weights = (y(1), y(2), -y(2), -y(1))
    for word in ((), (1,), (2, 1, 3, 2), (1, 2, 3, 1, 2, 1)):
        d = build_wiring_diagram(word, "A", 4, weights)
        assert d.output_parameters() == list(weights)
    with pytest.raises(ValueError, match="weights"):
        build_wiring_diagram((1,), "A", 4, weights[:3])
    with pytest.raises(ValueError, match="weights"):
        build_wiring_diagram((1,), "C", 2, weights)


def test_half_delta_entry():
    # with the base point on the south side, the only nonzero northwest
    # boundary is the doubled base string, with entry 1
    d = build_half_diagram(2)
    omega = SpGr(1, 2).omega()
    for lam in strings_with_content(4, (1, 0, 3)):
        expected = 1 if lam == omega.double() else 0
        assert transfer(d, omega).get(lam, 0) == expected


def test_half_entries_golden():
    d = build_half_diagram(3)
    lam = parse("110101")
    assert transfer(d, parse("120")).get(lam, 0) == 1
    assert transfer(d, parse("210")).get(lam, 0) == y(2) - y(3)
    assert transfer(d, parse("211")).get(lam, 0) == 1
    assert transfer(d, parse("201")).get(lam, 0) == 0


def test_evaluate_length_mismatch():
    d = build_half_diagram(2)
    with pytest.raises(ValueError, match="input boundary has 3 labels, diagram wants 2"):
        transfer(d, parse("011"))
    with pytest.raises(ValueError, match="output boundary has 2 labels, diagram wants 4"):
        transfer(d, parse("01"), reverse=True)


def test_enumerate_golden_counts():
    lam = parse("0101")
    labelings = enumerate_labelings(build_triangle_diagram(4), out_labels=lam + lam)
    assert len(labelings) == 3
    half = enumerate_labelings(build_half_diagram(3), out_labels=parse("110101"))
    assert len(half) == 3
    assert (
        enumerate_labelings(build_triangle_diagram(2), out_labels=parse("1111"), in_labels=parse("00"))
        == []
    )


def test_enumerate_matches_transfer():
    # fugacity sums over explicit labelings agree with the contraction
    for diagram in (build_triangle_diagram(3), build_half_diagram(2)):
        by_boundary = {}
        for lab in enumerate_labelings(diagram):
            out, inn = boundary(lab)
            key = (out, inn)
            by_boundary[key] = by_boundary.get(key, Polynomial.zero()) + lab.fugacity
        for inn in itertools.product((Label.ZERO, Label.TEN, Label.ONE), repeat=diagram.n_inputs):
            column = transfer(diagram, inn)
            for out, value in column.items():
                assert by_boundary.pop((out, inn)) == value
        assert not by_boundary


def test_labeling_fugacity_is_product_of_weights():
    # every puzzle's fugacity is the product of the parameters at its
    # PARAMETER entries: every other entry is the shared unit
    for diagram in [build_half_diagram(n) for n in range(1, 5)] + [
        build_triangle_diagram(n) for n in range(1, 5)
    ]:
        for lab in enumerate_labelings(diagram):
            product = Polynomial.integer(1)
            for w in vertex_weights(lab):
                assert not w.is_zero
                product = product * w
            assert product == lab.fugacity


def test_half_fugacity_factors():
    # every half-puzzle weight is 1, y_i - y_j (i<j) or y_i + y_j (i<j)
    n = 3
    allowed = {str(Polynomial.integer(1))}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            allowed.add(str(y(i) - y(j)))
            allowed.add(str(y(i) + y(j)))
    for lab in enumerate_labelings(build_half_diagram(n)):
        for w in vertex_weights(lab):
            assert str(w) in allowed


def test_triangle_fugacity_factors():
    n = 4
    allowed = {str(Polynomial.integer(1))}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            allowed.add(str(y(i) - y(j)))
    for lab in enumerate_labelings(build_triangle_diagram(n), out_labels=parse("01010101")):
        for w in vertex_weights(lab):
            assert str(w) in allowed


def test_enumeration_deterministic():
    d = build_triangle_diagram(3)
    first = [lab.edge_labels for lab in enumerate_labelings(d)]
    second = [lab.edge_labels for lab in enumerate_labelings(build_triangle_diagram(3))]
    assert first == second


def test_dump_format():
    d = build_half_diagram(1)
    (lab,) = enumerate_labelings(d, out_labels=parse("01"))
    text = lab.dump()
    lines = text.splitlines()
    assert lines[0].split() == ["0", "B", "y1", "0"]
    assert lines[-1] == "fugacity: 1"
    assert len(lines) == len(d.edges) + 1
    assert "10" not in text  # compact encoding by default
    verbose = lab.dump(verbose=True)
    assert f"fugacity: 1" in verbose


def test_wiring_ten_count_preserved():
    # blue crossings and bounces preserve the number of 10 letters
    for word in ((1,), (2,), (1, 2, 1), (2, 1, 2), (1, 2, 1, 2)):
        d = build_wiring_diagram(word, "C", 2)
        for inn in itertools.product((Label.ZERO, Label.TEN, Label.ONE), repeat=2):
            for out, value in transfer(d, inn).items():
                assert out.count(Label.TEN) == inn.count(Label.TEN)


def _oracle(diagram):
    """Fugacity sums and labeling counts per (out, in) boundary pair."""
    sums, counts = {}, {}
    for lab in enumerate_labelings(diagram):
        # a labeling through a zero vertex weight is no labeling
        assert not lab.fugacity.is_zero, lab.dump()
        out, inn = boundary(lab)
        key = (out, inn)
        sums[key] = sums.get(key, Polynomial.zero()) + lab.fugacity
        counts[key] = counts.get(key, 0) + 1
    return {k: v for k, v in sums.items() if not v.is_zero}, counts


@pytest.mark.parametrize(
    "diagram",
    [build_half_diagram(n) for n in (1, 2, 3)]
    + [build_triangle_diagram(n) for n in (1, 2, 3, 4)]
    + [
        build_wiring_diagram((2, 1, 2), "A", 3),
        build_wiring_diagram((3, 2, 3, 1, 2, 3), "C", 3),
        build_wiring_diagram((1, 2, 1), "A", 3, (y(1) + y(2), -y(1), y(3))),
    ],
    ids=lambda d: d.name,
)
def test_kernel_both_directions_match_enumeration(diagram):
    # every boundary pair, pinned from either side: the contraction gives
    # the fugacity sum and the labeling count of the explicit enumeration
    sums, counts = _oracle(diagram)
    alphabet = (Label.ZERO, Label.TEN, Label.ONE)
    for reverse, width in ((False, diagram.n_inputs), (True, diagram.n_outputs)):
        got_sums, got_counts = {}, {}
        for pinned in itertools.product(alphabet, repeat=width):
            column = transfer(diagram, pinned, reverse=reverse)
            assert set(column) <= set(column.counts)
            for free, value in column.items():
                got_sums[(pinned, free) if reverse else (free, pinned)] = value
            for free, count in column.counts.items():
                got_counts[(pinned, free) if reverse else (free, pinned)] = count
        assert got_sums == sums
        assert got_counts == counts


def test_transfer_is_pure():
    # a diagram is a value, and transfer neither reads nor writes a memo:
    # each call returns a new, equal column and leaves the diagram as built
    diagram = build_half_diagram(2)
    first, second = transfer(diagram, parse("01")), transfer(diagram, parse("01"))
    assert first == second and first.counts == second.counts and first is not second
    assert diagram == build_half_diagram(2)


def test_wiring_names_omit_the_weights():
    # the name gives the type, the strand count and the word: formatting the
    # weights into it would cost every build for a label only reports read
    default = build_wiring_diagram((1, 2, 1), "A", 3)
    weighted = build_wiring_diagram((1, 2, 1), "A", 3, (y(1) + y(2), -y(1), y(3)))
    assert default.name == weighted.name == "wiring(A,3,1.2.1)"
    assert build_wiring_diagram((2, 1), "C", 2, (y(1) + y(2), -y(1))).name == "wiring(C,2,2.1)"


def test_vertex_positions_replay_the_frontier():
    # edges are numbered in construction order, the inputs first, so each
    # vertex's out_edges are the next positions: the oracle rests on this
    for diagram in (
        build_triangle_diagram(4),
        build_half_diagram(3),
        build_wiring_diagram((3, 2, 3, 1, 2, 3), "C", 3),
        *_identity_sides("trivalent-swap"),
    ):
        live, made = list(range(diagram.n_inputs)), diagram.n_inputs
        for v in diagram.vertices:
            end = v.position + len(v.in_edges)
            assert tuple(live[v.position : end]) == v.in_edges
            assert v.out_edges == tuple(range(made, made + len(v.out_edges))), diagram.name
            made += len(v.out_edges)
            live[v.position : end] = v.out_edges
        assert tuple(live) == diagram.output_edges
        assert len(diagram.edges) == made


def test_transfer_boundary_length_checked_on_pinned_side():
    d = build_triangle_diagram(2)
    with pytest.raises(ValueError, match="output boundary has 2 labels"):
        transfer(d, parse("01"), reverse=True)
    assert transfer(d, parse("0101"), reverse=True) == {parse("01"): Polynomial.integer(1)}


def _unit_test_diagrams():
    weights = (y(1) + y(2), -y(1), y(3))
    return (
        [build_half_diagram(n) for n in range(1, 5)]
        + [build_triangle_diagram(n) for n in range(1, 5)]
        + [
            build_wiring_diagram((1, 2, 1), "A", 3),
            build_wiring_diagram((2, 1, 2, 1), "C", 2),
            build_wiring_diagram((3, 2, 3, 1, 2, 3), "C", 3, weights),
        ]
    )


def test_unit_entries_are_the_shared_unit():
    # transfer relabels a state on a unit weight by identity, so every unit
    # entry must be the one shared polynomial, and no other entry may be it
    for diagram in _unit_test_diagrams():
        for v in diagram.vertices:
            for (out, inn), weight in v.matrix.entries.items():
                assert (weight is UNIT) == (weight == 1), (diagram.name, v.position, out, inn)
        # every vertex holds one of the five shared matrices, so their indexes are built once
        shared = [m for matrices in KINDS.values() for m in matrices]
        assert all(any(v.matrix is m for m in shared) for v in diagram.vertices), diagram.name


def test_degenerate_wiring_weights_are_rejected():
    # repeated weights give a crossing a zero parameter, and a zero weight
    # gives a blue bounce one: no diagram of the package has either
    with pytest.raises(ValueError, match=r"^wiring\(A,3,1\.2\.1\): zero cross parameter"):
        build_wiring_diagram((1, 2, 1), "A", 3, (y(1), y(1), y(2)))
    with pytest.raises(ValueError, match=r"^wiring\(C,2,2\.1\.2\): zero bounce parameter"):
        build_wiring_diagram((2, 1, 2), "C", 2, (y(1), Polynomial.zero()))
