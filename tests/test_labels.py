import pickle
import re

import pytest

from schubpuzzles.labels import (
    LABELS,
    Fl,
    Gr,
    Label,
    LabelString,
    SpGr,
    project_flag_string,
    spgr_strings,
    strings_with_content,
)

parse = LabelString.parse


def test_parse_compact_and_tokens():
    assert parse("021").labels == (Label.ZERO, Label.TEN, Label.ONE)
    assert parse("0,10,1") == parse("021")
    assert parse("") == LabelString()


def test_parse_errors():
    with pytest.raises(ValueError, match="position 3"):
        parse("013")
    with pytest.raises(ValueError, match="position 2"):
        parse("0,11,1")


def test_constructor_converts_and_validates():
    s = LabelString([0, Label.TEN, 2])
    assert s == parse("021")
    assert all(x.__class__ is Label for x in s.labels)
    with pytest.raises(ValueError):
        LabelString([Label.ZERO, None])
    with pytest.raises(ValueError):
        LabelString([3])


def test_round_trip():
    s = parse("021120")
    assert parse(s.compact()) == s
    assert parse(s.verbose()) == s
    assert s.verbose() == "0,10,1,1,10,0"


def test_content():
    assert parse("110101").content() == (2, 0, 4)
    assert parse("2,1,0".replace(",", "")).content() == (1, 1, 1)
    assert LabelString().content() == (0, 0, 0)


def test_dualize():
    assert parse("0101").dualize() == parse("0101")
    assert parse("211").dualize() == parse("002")
    assert parse("001").dualize() == parse("011")
    for text in ("0101", "21", "0021101"):
        s = parse(text)
        assert s.dualize().dualize() == s
        n0, n10, n1 = s.content()
        assert s.dualize().content() == (n1, n10, n0)


def test_double():
    assert parse("02102").double() == parse("0110111011")
    assert parse("01").double() == parse("0101")
    assert parse("2").double() == parse("11")


def test_double_content():
    for text in ("021", "2201", "011022"):
        s = parse(text)
        c0, c10, c1 = s.content()
        assert s.double().content() == (c0 + c1, 0, 2 * len(s) - c0 - c1)


def test_omega_strings():
    assert Gr(2, 4).omega() == parse("0011")
    assert SpGr(1, 3).omega() == parse("022")
    assert Fl(1, 2, 3).omega() == parse("021")


def test_double_omega_spgr_is_omega_gr():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert SpGr(k, n).omega().double() == Gr(k, 2 * n).omega()


def test_project_flag_string():
    assert project_flag_string(parse("201"), "j") == parse("101")
    assert project_flag_string(parse("102"), "k") == parse("100")
    assert project_flag_string(Fl(1, 2, 3).omega(), "j") == Gr(1, 3).omega()
    with pytest.raises(ValueError):
        project_flag_string(parse("01"), "x")


def test_enumerate_spgr_pattern():
    assert [s.compact() for s in spgr_strings(2, 2)] == ["00", "01", "10", "11"]
    assert len(spgr_strings(2, 3)) == 12
    for n in range(0, 6):
        for k in range(0, n + 1):
            import math

            assert len(spgr_strings(k, n)) == math.comb(n, k) * 2**k


def test_enumerate_content():
    assert len(strings_with_content(4, (2, 0, 2))) == 6
    listed = strings_with_content(3, (1, 1, 1))
    assert listed == sorted(listed)
    assert [s.compact() for s in strings_with_content(2, (1, 0, 1))] == ["01", "10"]
    with pytest.raises(ValueError):
        strings_with_content(3, (1, 1, 2))


def test_generated_strings_match_brute_force_filter():
    import itertools

    for length in range(0, 8):
        words = list(itertools.product((Label.ZERO, Label.TEN, Label.ONE), repeat=length))
        for n0 in range(length + 1):
            for n10 in range(length + 1 - n0):
                content = (n0, n10, length - n0 - n10)
                expected = [LabelString(w) for w in words if LabelString(w).content() == content]
                assert strings_with_content(length, content) == expected
        for k in range(length + 1):
            expected = [LabelString(w) for w in words if w.count(Label.TEN) == length - k]
            assert spgr_strings(k, length) == expected


def test_lex_order_alphabet():
    # the alphabet order is 0 < 10 < 1
    assert parse("02") < parse("01")
    assert parse("2") < parse("1")
    assert parse("0") < parse("2")


def test_space_validation():
    with pytest.raises(ValueError, match=re.escape("need 0 <= k <= m, got Gr(3,2)")):
        Gr(3, 2)
    with pytest.raises(ValueError, match=re.escape("need 0 <= k <= n, got SpGr(3,2)")):
        SpGr(3, 2)
    with pytest.raises(ValueError):
        SpGr(4, 3)
    with pytest.raises(ValueError, match=re.escape("need 0 <= j <= k <= m, got Fl(2,1,3)")):
        Fl(2, 1, 3)


def test_spaces_are_distinct_immutable_values():
    # spaces key the lru_caches of weyl, so Gr(k, n) and SpGr(k, n), whose
    # fields are equal, must stay unequal and distinct keys
    for n in range(5):
        for k in range(n + 1):
            gr, spgr = Gr(k, n), SpGr(k, n)
            assert gr != spgr and spgr != gr
            assert len({gr: "gr", spgr: "spgr"}) == 2
            assert gr == Gr(k, n) and hash(gr) == hash(Gr(k, n))
            for space in (gr, spgr, Fl(0, k, n)):
                assert pickle.loads(pickle.dumps(space)) == space
                with pytest.raises(AttributeError):
                    space.k = k + 1
                assert space.k == k


def test_space_strings():
    assert len(Gr(2, 4).strings()) == 6
    assert len(Fl(1, 2, 3).strings()) == 6
    assert len(SpGr(1, 2).strings()) == 4


def test_space_membership_is_exactly_its_strings():
    import itertools

    for m in range(7):
        spaces = [Gr(k, m) for k in range(m + 1)] + [SpGr(k, m) for k in range(m + 1)]
        spaces += [Fl(j, k, m) for k in range(m + 1) for j in range(k + 1)]
        words = [LabelString(w) for w in itertools.product(LABELS, repeat=m)]
        words += [LabelString(w) for w in itertools.product(LABELS, repeat=m + 1)]
        for space in spaces:
            strings = set(space.strings())
            assert {w for w in words if w in space} == strings, space
