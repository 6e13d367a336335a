import ast
import pathlib
import subprocess
import sys

import schubpuzzles


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _package_trees():
    package = pathlib.Path(schubpuzzles.__file__).parent
    for path in sorted(package.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _is_memo_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def test_no_assert_statements_in_package():
    # invariants must raise a real error: `python -O` strips assert
    # statements, and AssertionError reads as a failed assert
    found = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements or AssertionError raises in the package: {found}"


def test_memo_layers_are_fixed():
    # each memo layer holds its values for the life of the process; a new
    # one has to be added to this list on purpose
    memoized = {
        node.name
        for _, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_memo_decorator(d) for d in node.decorator_list)
    }
    assert memoized == {"_triangle", "_half", "shortest_lift", "_restrictions_at"}


def test_cli_import_loads_no_dataclasses():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, and each
    # @dataclass execs generated methods: a one-off CLI query pays both at
    # every interpreter start-up
    src = str(pathlib.Path(schubpuzzles.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         f"import sys; sys.path.insert(0, {src!r}); import schubpuzzles.cli; "
         "print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"
