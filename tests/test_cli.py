import json

from schubpuzzles.cli import main
from schubpuzzles.poly import Polynomial, y


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_restrict_text(capsys):
    code, out, _ = run(
        capsys, "restrict", "--lambda", "110101", "--k", "2", "--n", "3", "--format", "text"
    )
    assert code == 0
    assert out.splitlines() == ["210 : y2 - y3", "211 : 1", "120 : 1"]


def test_restrict_verbose_labels(capsys):
    code, out, _ = run(
        capsys, "restrict", "--lambda", "110101", "--k", "2", "--n", "3", "--verbose-labels"
    )
    assert code == 0
    assert out.splitlines()[0] == "10,1,0 : y2 - y3"


def test_product_text(capsys):
    code, out, _ = run(capsys, "product", "--lambda", "101", "--mu", "100", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["102 : y1 - y2", "120 : 1"]


def test_restrict_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "restrict", "--lambda", "110101", "--k", "2", "--n", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["space"] == "SpGr(2,3)"
    assert data["input"] == {"lambda": "110101", "k": 2, "n": 3}
    by_nu = {item["nu"]: item for item in data["expansion"]}
    assert Polynomial.from_machine(by_nu["210"]["coefficient"]) == y(2) - y(3)
    assert by_nu["120"]["puzzles"] == 1


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify-identities")
    assert code == 0
    assert out == "8/8 identities hold\n"


def test_restriction_at_point(capsys):
    code, out, _ = run(
        capsys,
        "restriction-at-point",
        "--space", "gr", "--k", "1", "--m", "2",
        "--lambda", "10", "--mu", "10",
    )
    assert code == 0
    assert out == "y1 - y2\n"
    code, out, _ = run(
        capsys,
        "restriction-at-point",
        "--space", "spgr", "--k", "1", "--n", "2",
        "--lambda", "20", "--mu", "21", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert Polynomial.from_machine(data["value"]) == y(1) + y(2)


def test_enumerate_half(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--family", "half", "--n", "3", "--nw", "110101"
    )
    assert code == 0
    assert out.rstrip().endswith("3 labelings")
    assert out.count("fugacity:") == 3
    assert "labeling 1" in out


def test_enumerate_triangle_with_boundaries(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--family", "triangle", "--n", "4",
        "--nw", "0101", "--ne", "0101",
    )
    assert code == 0
    assert out.rstrip().endswith("3 labelings")


def test_validation_errors_exit_1(capsys):
    code, _, err = run(capsys, "restrict", "--lambda", "013", "--k", "1", "--n", "1")
    assert code == 1 and "position 3" in err
    code, _, err = run(capsys, "restrict", "--lambda", "0101", "--k", "1", "--n", "2")
    assert code == 1 and "content" in err
    code, _, err = run(capsys, "product", "--lambda", "100", "--mu", "110", "--n", "3")
    assert code == 1
    code, _, err = run(
        capsys,
        "restriction-at-point", "--space", "gr", "--k", "1", "--m", "2",
        "--lambda", "11", "--mu", "01",
    )
    assert code == 1 and "does not index" in err
    code, _, err = run(capsys, "crosscheck", "--which", "restriction", "--k", "1")
    assert code == 1


def test_bad_usage_exit_1(capsys):
    assert run(capsys, "restrict", "--lambda", "01")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1


def test_crosscheck_and_duality(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--which", "restriction", "--k", "1", "--n", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"checked": 16, "failed": 0, "first_failure": None}
    code, out, _ = run(capsys, "crosscheck", "--which", "product", "--j", "1", "--k", "2", "--n", "3")
    assert code == 0 and "failed 0" in out
    code, out, _ = run(capsys, "duality", "--k", "1", "--m", "2")
    assert code == 0 and "checked 8" in out


def test_failed_check_exits_2(capsys, monkeypatch):
    from schubpuzzles import cli
    from schubpuzzles.schubert import Report

    bad = Report("stub", 5, 1, "somewhere")
    monkeypatch.setattr(cli.schubert, "crosscheck_restriction", lambda k, n: bad)
    code, out, _ = run(capsys, "crosscheck", "--which", "restriction", "--k", "1", "--n", "1")
    assert code == 2
    assert "failed 1" in out


def test_output_deterministic(capsys):
    args = ("restrict", "--lambda", "110101", "--k", "2", "--n", "3", "--format", "json")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    args = ("enumerate", "--family", "half", "--n", "2", "--nw", "0101")
    assert run(capsys, *args) == run(capsys, *args)
