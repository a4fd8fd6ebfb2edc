"""The library states its invariants with explicit raises, never ``assert``.

``python -O`` strips assert statements, so a load-bearing check written as
one silently disappears; this test keeps every module under
``src/steinberg/`` free of them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "steinberg"


def test_library_has_no_assert_statements():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare asserts: {found}"
