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
    assert memoized == {"_diagram", "_column"}
    # and no class keeps a memo of its own, of values or of hashes, in a
    # slot or a field
    cached = {
        (node.name, name)
        for _, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for name in _slots_and_fields(node)
        if "cache" in name or "hash" in name
    }
    assert not cached, cached


def _slots_and_fields(node: ast.ClassDef):
    """The names in a class body's __slots__ and its annotated fields."""
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id
        elif isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            yield from (elt.value for elt in ast.walk(stmt.value) if isinstance(elt, ast.Constant))


def _after_cli_import(expression: str) -> str:
    """What a fresh interpreter prints for `expression` once it has imported
    schubpuzzles.cli and nothing else."""
    src = str(pathlib.Path(schubpuzzles.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         f"import sys; sys.path.insert(0, {src!r}); import schubpuzzles.cli; "
         f"print({expression})"],
        capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_cli_import_loads_no_dataclasses():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, and each
    # @dataclass execs generated methods: a one-off CLI query pays both at
    # every interpreter start-up
    assert _after_cli_import("'dataclasses' in sys.modules") == "False\n"


def test_cli_import_registers_no_variable():
    # a variable's slot is its registration order, so one registered at
    # import (a u_i, say) would shift every y slot in the packed monomials
    assert _after_cli_import("schubpuzzles.poly._SLOTS") == "[]\n"


def test_one_contraction_kernel():
    # diagrams evaluate by `transfer` alone; the matrix algebra that once
    # composed the identity sides is a test-side reference only
    defined = {
        (path.name, node.name)
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("compose", "tensor_product")
    }
    assert not defined, defined


def _calls(node, function=None):
    """(callee name, enclosing function name) for every call under node."""
    if isinstance(node, ast.FunctionDef):
        function = node.name
    if isinstance(node, ast.Call):
        callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        yield callee, function
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, function)


def test_one_diagram_builder():
    # every diagram is an input row plus a move list grown by `_grow`, so
    # nothing else in the package makes an edge, a vertex or a diagram
    made = {
        (path.name, callee, function)
        for path, tree in _package_trees()
        for callee, function in _calls(tree)
        if callee in ("Edge", "Vertex", "ScatteringDiagram")
    }
    assert made == {("diagram.py", name, "_grow") for name in ("Edge", "Vertex", "ScatteringDiagram")}


def test_restrictions_at_is_the_backends_only_caller():
    # restrictions_at fixes the torus, counts the weights and builds mu's
    # word; the two backends take all three as given, so a second caller
    # would skip those checks
    callers = {
        (path.name, callee, function)
        for path, tree in _package_trees()
        for callee, function in _calls(tree)
        if callee in ("build_wiring_diagram", "_subword_column")
    }
    assert callers == {("weyl.py", name, "restrictions_at") for name in ("build_wiring_diagram", "_subword_column")}


def test_vertex_matrices_are_built_at_import():
    # the five vertex matrices are the only maps: a diagram's vertices share
    # them, so no function of the package builds a map
    made = {
        (path.name, function)
        for path, tree in _package_trees()
        for callee, function in _calls(tree)
        if callee == "SparseMap"
    }
    assert made == {("tensor.py", None)}


def _named_tuple_fields(tree):
    """(class name, field name) for every field of a NamedTuple class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(ast.unparse(b) == "NamedTuple" for b in node.bases):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def test_named_tuple_fields_are_read_by_the_package():
    # a field that nothing reads is data each build stores for no reader
    trees = [tree for _, tree in _package_trees()]
    read = {name for tree in trees for name, attribute, _ in _references(tree) if attribute}
    fields = {field for tree in trees for field in _named_tuple_fields(tree)}
    assert {cls for cls, _ in fields} == {"Edge", "Vertex", "ScatteringDiagram", "Labeling"}
    assert {(cls, name) for cls, name in fields if name not in read} == set()


# Public names that no code in the package references, each with the reason
# it stays.  The `if __name__ == "__main__":` block of a module is a way in
# from outside, so it references nothing.
ENTRY_POINTS = {
    "main": "the console script, schubpuzzles = schubpuzzles.cli:main",
}


def _public_definitions(tree):
    """Module-level functions and classes, and the methods of those classes,
    with a public name, as (node, is_method)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member, True


def _references(node, inside=frozenset()):
    """(name, read as an attribute, enclosing definitions) for every name
    read and every attribute under node."""
    if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
        return
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, False, inside
    elif isinstance(node, ast.Attribute):
        yield node.attr, True, inside
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def test_public_names_are_referenced_by_the_package():
    # an entry point that only the tests use belongs in the tests: every
    # public function, class and method must be referenced somewhere in the
    # package outside its own definition (a method as an attribute)
    trees = [tree for _, tree in _package_trees()]
    references = [ref for tree in trees for ref in _references(tree)]
    unreferenced = {
        node.name
        for tree in trees
        for node, is_method in _public_definitions(tree)
        if not any(name == node.name and (attribute or not is_method) and node not in inside
                   for name, attribute, inside in references)
    }
    assert unreferenced == set(ENTRY_POINTS)
