"""The library imports nothing outside the Python standard library.

Every absolute import under ``src/steinberg/`` must name a top-level module
in ``sys.stdlib_module_names``; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "steinberg"


def test_library_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, f"third-party imports: {found}"
