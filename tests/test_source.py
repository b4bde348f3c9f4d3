"""Checks on the library's source text, run over every module under
src/quasicross."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quasicross"


def _trees():
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def test_library_has_no_bare_assert():
    # python -O strips assert statements, so a library check must be an
    # explicit raise.  This finds every assert statement, on every path.
    found = [
        f"{path}:{node.lineno}: bare assert"
        for path, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_never_reads_debug():
    # python -O also sets __debug__ to False.  With no bare assert and no
    # read of __debug__, -O cannot change what the library does, so a -O run
    # of the tests would cover nothing the plain run does not.
    found = [
        f"{path}:{node.lineno}: __debug__"
        for path, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert found == []


def test_every_private_module_level_name_is_used():
    # A private name is a module-level def, class or assignment target that
    # starts with one underscore; a use is a load of it as a name or an
    # attribute, or an import of it, anywhere under src/quasicross.
    # Deleting a caller must not leave its helper behind.
    trees = _trees()
    used = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rpartition(".")[2] for alias in node.names)
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [(node.lineno, node.name)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(t.lineno, t.id) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                f"{path}:{line}: {name}"
                for line, name in defined
                if name.startswith("_") and not name.startswith("__") and name not in used
            ]
    assert found == []


def test_library_never_tests_an_int_with_isinstance():
    # A bool passes isinstance(v, int), so the library tests an int by
    # type(v) is int; the value types in splitting.py hold that rule.  This
    # finds isinstance with int as, or in a tuple that is, its second
    # argument.
    found = []
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                classes = node.args[1:]
                if classes and isinstance(classes[0], ast.Tuple):
                    classes = classes[0].elts
                if any(isinstance(c, ast.Name) and c.id == "int" for c in classes):
                    found.append(f"{path}:{node.lineno}: isinstance(..., int)")
    assert found == []
