import ast
import pathlib

import schubpuzzles


def test_no_assert_statements_in_package():
    # invariants must raise: `python -O` strips assert statements
    package = pathlib.Path(schubpuzzles.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
