import ast
import pathlib

import schubpuzzles


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    # invariants must raise a real error: `python -O` strips assert
    # statements, and AssertionError reads as a failed assert
    package = pathlib.Path(schubpuzzles.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements or AssertionError raises in the package: {found}"
