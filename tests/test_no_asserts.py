"""No assert statements in the library.

``python -O`` strips asserts, so a cross-check written as one silently
stops checking; every internal check raises a typed SpencerError instead.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spencer"


def test_library_has_no_assert_statements():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = ["%s:%d" % (path.name, node.lineno)
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
