"""Lint guards on the library source: no asserts, no floating point, no
dead imports.

``python -O`` strips asserts, so a cross-check written as one silently
stops checking; every internal check raises a typed SpencerError instead.

All arithmetic is over the rationals, so no float (or complex) literal
and no use of ``float`` may appear in the library.

A module imports only names that it uses: a removal that leaves an import
behind fails here.  A re-export says so with ``# noqa: F401`` on its
import line, and the package's ``__init__`` is all re-exports, its public
API.

A private top-level function or class is used somewhere in the library
outside its own definition: a removal that leaves a helper behind fails
here too.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spencer"


def library_nodes():
    """(module file name, AST node) for every node of the library."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_library_has_no_assert_statements():
    found = ["%s:%d" % (name, node.lineno)
             for name, node in library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_floating_point():
    found = ["%s:%d" % (name, node.lineno)
             for name, node in library_nodes()
             if (isinstance(node, ast.Constant)
                 and isinstance(node.value, (float, complex)))
             or (isinstance(node, ast.Name) and node.id == "float")]
    assert found == []


def test_library_imports_only_names_it_uses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.end_lineno - 1]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert found == []


def test_library_has_no_unused_private_definitions():
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if stmt.name.startswith("_"):
                    defined.add("%s %s" % (path.name, stmt.name))
            used |= names
    assert sorted(d for d in defined if d.split()[1] not in used) == []
