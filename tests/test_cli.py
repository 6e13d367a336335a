import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schubpuzzles
from schubpuzzles import cli, schubert
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


@pytest.mark.slow
def test_restrict_rank_7_output_digests(capsys):
    # the whole n = 7 column (about 18,600 terms), as text and as JSON
    argv = ["restrict", "--lambda", "10101010101010", "--k", "7", "--n", "7"]
    digests = {
        "text": "cc5e929bcd53be9d76e317c27ccc1b74a1f449ae035f316d84a868cb4c207cbe",
        "json": "3da96c3126b1bf8c7b1a4a226281ae28aec61092702d0c45111805c44eb454aa",
    }
    try:
        for fmt, digest in digests.items():
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
    finally:
        schubert._column.cache_clear()  # drop the rank-7 column and diagram
        schubert._diagram.cache_clear()


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
    code, out, _ = run(capsys, "verify-identities", "--format", "json")
    assert code == 0
    assert out == (
        '{"checked": 8, "failed": 0, "results": {"yb-rrg": true, "yb-ggr": true, '
        '"yb-ggg": true, "yb-bbb": true, "trivalent-swap": true, "reflection-rg": true, '
        '"reflection-bb": true, "k-fusion": true}}\n'
    )


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
    # a missing size names every size the space or sweep needs
    pair = ("--lambda", "01", "--mu", "01")
    for argv, message in (
        (("crosscheck", "--which", "restriction", "--k", "1"), "crosscheck restriction needs --k and --n"),
        (("crosscheck", "--which", "product", "--j", "1", "--n", "2"),
         "crosscheck product needs --j, --k and --n"),
        (("restriction-at-point", "--space", "gr", "--k", "1", *pair), "space gr needs --k and --m"),
        (("restriction-at-point", "--space", "spgr", "--n", "1", *pair), "space spgr needs --k and --n"),
        (("restriction-at-point", "--space", "fl", "--k", "1", "--m", "2", *pair),
         "space fl needs --j, --k and --m"),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv
    # sizes are checked before contents
    for argv, message in (
        (("restrict", "--lambda", "0011", "--k", "2", "--n", "0"), "need 0 <= k <= n, got SpGr(2,0)"),
        (("restrict", "--lambda", "0011", "--k", "-1", "--n", "1"), "need 0 <= k <= n, got SpGr(-1,1)"),
        (("product", "--lambda", "01", "--mu", "01", "--n", "-1"), "two-step product needs n >= 1, got n=-1"),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv


def test_size_zero_spaces_exit_1_naming_the_space(capsys):
    rank_zero = "has rank 0: fixed-point restrictions need rank at least 1"
    cases = [
        (("crosscheck", "--which", "restriction", "--k", "0", "--n", "0"),
         "crosscheck restriction needs n >= 1, got n=0"),
        (("crosscheck", "--which", "product", "--j", "0", "--k", "0", "--n", "0"),
         "crosscheck product needs n >= 1, got n=0"),
        (("restriction-at-point", "--space", "gr", "--k", "0", "--m", "0"), f"Gr(0,0) {rank_zero}"),
        (("restriction-at-point", "--space", "spgr", "--k", "0", "--n", "0"),
         f"SpGr(0,0) {rank_zero}"),
        (("restriction-at-point", "--space", "fl", "--j", "0", "--k", "0", "--m", "0"),
         f"Fl(0,0,0) {rank_zero}"),
        (("restrict", "--lambda", "", "--k", "0", "--n", "0"),
         "restriction to SpGr(0,0) needs n >= 1, got n=0"),
        (("product", "--lambda", "", "--mu", "", "--n", "0"), "two-step product needs n >= 1, got n=0"),
        (("duality", "--k", "0", "--m", "0"), "duality on Gr(0,0) needs m >= 1, got m=0"),
    ]
    for argv, message in cases:
        if argv[0] == "restriction-at-point":
            argv += ("--lambda", "", "--mu", "")
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv


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


# per subcommand: a query that succeeds, the same query without a required
# option, and one with a non-integer where an int is expected
_QUERIES = {
    "restrict": (
        ["--lambda", "0101", "--k", "2", "--n", "2"],
        ["--k", "2", "--n", "2"],
        ["--lambda", "0101", "--k", "two", "--n", "2"],
    ),
    "product": (
        ["--lambda", "101", "--mu", "100", "--n", "3"],
        ["--lambda", "101", "--n", "3"],
        ["--lambda", "101", "--mu", "100", "--n", "3.0"],
    ),
    "enumerate": (
        ["--family", "half", "--n", "2", "--nw", "0101"],
        ["--n", "2"],
        ["--family", "half", "--n", "x"],
    ),
    "restriction-at-point": (
        ["--space", "gr", "--k", "1", "--m", "2", "--lambda", "10", "--mu", "10"],
        ["--k", "1", "--m", "2", "--lambda", "10", "--mu", "10"],
        ["--space", "gr", "--k", "1", "--m", "z", "--lambda", "10", "--mu", "10"],
    ),
    "verify-identities": ([], None, None),
    "crosscheck": (
        ["--which", "restriction", "--k", "1", "--n", "2"],
        ["--k", "1", "--n", "2"],
        ["--which", "restriction", "--k", "1", "--n", "2.5"],
    ),
    "duality": (
        ["--k", "1", "--m", "2"],
        ["--k", "1"],
        ["--k", "1", "--m", "-"],
    ),
}


def _corpus():
    corpus = [[], ["-h"], ["bogus"], ["restric"], ["--"]]
    for name, (ok, missing, bad_int) in _QUERIES.items():
        corpus += [[name, *ok], [name, "-h"], [name, *ok, "extra"], [name, *ok, "--bogus"]]
        corpus += [[name, *argv] for argv in (missing, bad_int) if argv is not None]
    return corpus


def test_one_subcommand_parser_matches_the_full_parser(capsys, monkeypatch):
    # a query naming its subcommand builds that subparser alone; its exit
    # code, output and errors (help and usage text included) must be the
    # full parser's, byte for byte
    corpus = _corpus()
    fast = [run(capsys, *argv) for argv in corpus]
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    for argv, got in zip(corpus, fast):
        assert run(capsys, *argv) == got, argv
    assert sorted({code for code, _, _ in fast}) == [0, 1]
    bogus = fast[corpus.index(["restrict", *_QUERIES["restrict"][0], "--bogus"])]
    assert "{" + ",".join(_QUERIES) + "}" in bogus[2]


def test_a_named_subcommand_builds_two_parsers(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for name, (ok, _, _) in _QUERIES.items():
        built.clear()
        assert run(capsys, name, *ok)[0] == 0
        assert built == ["schubpuzzles", f"schubpuzzles {name}"]
    built.clear()
    assert run(capsys, "bogus")[0] == 1
    assert len(built) == 1 + len(_QUERIES)


def _console_script(*argv):
    # what `python -m schubpuzzles.cli ARGV` runs, in an isolated interpreter
    # that finds the package in its source tree
    src = str(pathlib.Path(schubpuzzles.__file__).parents[1])
    code = (
        f"import runpy, sys; sys.path.insert(0, {src!r}); "
        "runpy.run_module('schubpuzzles.cli', run_name='__main__', alter_sys=True)"
    )
    return subprocess.run(
        [sys.executable, "-I", "-c", code, *argv], capture_output=True, text=True, timeout=60
    )


def test_console_script_reads_sys_argv(capsys):
    argv = ("restrict", "--lambda", "0101", "--k", "2", "--n", "2", "--format", "json")
    done = _console_script(*argv)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
    assert json.loads(done.stdout)["space"] == "SpGr(2,2)"
    bad = _console_script("restrict", "--lambda", "0101")
    assert bad.returncode == 1
    assert "the following arguments are required: --k, --n" in bad.stderr


def _words(alphabet: str, n: int) -> list[str]:
    return ["".join(w) for w in itertools.product(alphabet, repeat=n)]


def _binary_words(n: int) -> list[str]:
    return _words("01", n)


def _digest_corpus() -> list[list[str]]:
    """A fixed argv list over every subcommand, built without the package."""
    corpus = []
    # every restrict lambda for n <= 3, in text and JSON
    for n in range(1, 4):
        for lam in _binary_words(2 * n):
            k = lam.count("0")
            if k <= n:
                for fmt in ("text", "json"):
                    corpus.append(["restrict", "--lambda", lam, "--k", str(k), "--n", str(n),
                                   "--format", fmt])
    # products: every pair for n <= 3 and every fifth pair for n = 4, in JSON
    # and with verbose labels; pairs with #0(lambda) > #0(mu) are rejected
    for n in range(1, 5):
        pairs = list(itertools.product(_binary_words(n), repeat=2))
        for lam, mu in pairs[:: 5 if n == 4 else 1]:
            query = ["product", "--lambda", lam, "--mu", mu, "--n", str(n)]
            corpus += [query + ["--format", "json"], query + ["--verbose-labels"]]
    # restriction-at-point on the three spaces, valid and rejected strings
    points = (
        (["--space", "gr", "--k", "2", "--m", "4"], ("0011", "0101", "1010", "1100", "0111")),
        (["--space", "spgr", "--k", "1", "--n", "3"], ("022", "202", "122", "220", "012")),
        (["--space", "fl", "--j", "1", "--k", "2", "--m", "3"], ("021", "120", "210", "012", "011")),
    )
    for space, strings in points:
        for lam, mu in itertools.product(strings, repeat=2):
            query = ["restriction-at-point", *space, "--lambda", lam, "--mu", mu]
            corpus += [query, query + ["--format", "json"]]
    # bad spaces and bad strings
    corpus += [
        ["restriction-at-point", "--space", "gr", "--k", "3", "--m", "2", "--lambda", "", "--mu", ""],
        ["restriction-at-point", "--space", "spgr", "--k", "3", "--n", "2", "--lambda", "", "--mu", ""],
        ["restriction-at-point", "--space", "spgr", "--k", "1", "--lambda", "02", "--mu", "02"],
        ["restriction-at-point", "--space", "spgr", "--k", "1", "--n", "2", "--lambda", "02",
         "--mu", "022"],
        ["restriction-at-point", "--space", "fl", "--j", "2", "--k", "1", "--m", "3",
         "--lambda", "001", "--mu", "001"],
        ["restriction-at-point", "--space", "gr", "--k", "1", "--m", "2", "--lambda", "0x",
         "--mu", "01"],
        ["restriction-at-point", "--space", "gr", "--k", "1", "--m", "2", "--lambda", "0,10",
         "--mu", "0,1,1"],
        ["restrict", "--lambda", "0,3,1", "--k", "1", "--n", "1"],
        ["restrict", "--lambda", "0211", "--k", "1", "--n", "2"],
        ["product", "--lambda", "0a1", "--mu", "001", "--n", "3"],
        ["product", "--lambda", "01", "--mu", "001", "--n", "3"],
        ["enumerate", "--family", "half", "--n", "2", "--nw", "01"],
        ["duality", "--k", "0", "--m", "0"],
        ["duality", "--k", "1", "--m", "2"],
        ["crosscheck", "--which", "restriction", "--k", "1", "--n", "2"],
        ["crosscheck", "--which", "product", "--j", "1", "--k", "2", "--n", "3", "--format", "json"],
        ["enumerate", "--family", "half", "--n", "2", "--nw", "0101", "--format", "json"],
        ["enumerate", "--family", "triangle", "--n", "3", "--nw", "011", "--ne", "101",
         "--verbose-labels"],
        ["enumerate", "--family", "triangle", "--n", "2", "--south", "02"],
        ["verify-identities"],
        ["verify-identities", "--format", "json"],
    ]
    # enumerate: triangles for n <= 3 and halves for n <= 2, free, with every
    # south boundary, and with every northern boundary over 0, 10, 1 (binary
    # ones for the n = 3 triangle), each in text, JSON and with verbose labels
    queries = []
    for family, sizes in (("triangle", (1, 2, 3)), ("half", (1, 2))):
        for n in sizes:
            base = ["enumerate", "--family", family, "--n", str(n)]
            queries.append(base)
            queries += [base + ["--south", s] for s in _words("012", n)]
            if family == "half":
                queries += [base + ["--nw", nw] for nw in _words("012", 2 * n)]
                continue
            north = _words("01" if n == 3 else "012", n)
            queries += [base + ["--nw", nw, "--ne", ne] for nw, ne in itertools.product(north, repeat=2)]
    for query in queries:
        corpus += [query, query + ["--format", "json"], query + ["--verbose-labels"]]
    # every enumerate validation error
    corpus += [
        ["enumerate", "--family", "triangle", "--n", "2", "--nw", "01"],
        ["enumerate", "--family", "triangle", "--n", "2", "--nw", "01", "--ne", "011"],
        ["enumerate", "--family", "half", "--n", "2", "--ne", "01"],
        ["enumerate", "--family", "half", "--n", "2", "--nw", "011"],
        ["enumerate", "--family", "triangle", "--n", "2", "--south", "0"],
    ]
    return corpus


def test_cli_corpus_digest(capsys):
    # one SHA-256 over (argv, exit code, stdout, stderr) of a fixed corpus:
    # a change that removes code must leave every byte of it alone
    corpus = _digest_corpus()
    assert len(corpus) == 1460
    digest = hashlib.sha256()
    for argv in corpus:
        digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
    assert digest.hexdigest() == "e183dc7f78797f7dcc19387cee4edf27c70f908d0d9cde2bd1db59bd9b10917c"


def test_cli_corpus_digest_in_a_fresh_process():
    # values must mean the same thing in any process: the corpus digest of
    # test_cli_corpus_digest, recomputed under `python -O` (no assert
    # statements) with another string-hash seed
    src = str(pathlib.Path(schubpuzzles.__file__).parents[1])
    tests = str(pathlib.Path(__file__).parent)
    code = f"""
import contextlib, hashlib, io, json, sys
sys.path[:0] = [{src!r}, {tests!r}]
from schubpuzzles.cli import main
from test_cli import _digest_corpus
digest = hashlib.sha256()
for argv in _digest_corpus():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    digest.update(json.dumps([argv, status, out.getvalue(), err.getvalue()]).encode())
print(sys.flags.optimize, digest.hexdigest())
"""
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": "12345"},
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "1 e183dc7f78797f7dcc19387cee4edf27c70f908d0d9cde2bd1db59bd9b10917c\n"


@st.composite
def _argv(draw):
    """A query for any subcommand: each of its options, required or not,
    given or left out, with sizes up to 3 and strings good or bad.  Sizes
    tend to one value, and binary strings to that many 0s and 1s, so that
    some queries are valid."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    sizes = st.just(draw(st.integers(-1, 3))) | st.integers(-1, 3)
    binary = st.tuples(sizes, sizes).flatmap(
        lambda counts: st.permutations("0" * max(counts[0], 0) + "1" * max(counts[1], 0)))
    strings = binary.map("".join) | st.text("012", max_size=6) | st.text("01,2x", max_size=4)
    argv = [command]
    for flag, keywords in cli._COMMANDS[command][2]:
        if draw(st.integers(0, 7)) < (7 if keywords.get("required") else 4):
            values = st.sampled_from(keywords["choices"]) if "choices" in keywords else (
                sizes.map(str) if keywords.get("type") is int else strings)
            argv += [flag, draw(values)]
    return argv + draw(st.sampled_from(([], ["--format", "json"], ["--verbose-labels"])))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_argv())
def test_bad_input_exits_with_a_code_not_a_traceback(argv):
    # every query ends in exit code 0, 1 or 2 without raising, and a
    # successful one writes nothing to stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err.getvalue() == "", argv
