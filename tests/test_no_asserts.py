"""Lint guards on the library source: no asserts, no floating point.

``python -O`` strips asserts, so a cross-check written as one silently
stops checking; every internal check raises a typed SpencerError instead.

All arithmetic is over the rationals, so no float (or complex) literal
and no use of ``float`` may appear in the library.
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
