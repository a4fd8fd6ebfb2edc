"""The library imports nothing outside the Python standard library.

Every absolute import under ``src/steinberg/`` must name a top-level module
in ``sys.stdlib_module_names``; relative imports stay inside the package.
Nor does it import ``dataclasses`` or ``typing``: both cost a cold CLI start
several milliseconds, so records derive from ``field.Record`` and aliases
use builtins and ``collections.abc``.  The pytest-free smoke script
``smoke_stdlib.py`` passes.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "steinberg"


def _absolute_imports():
    """(``file:line``, top-level module) of every absolute import."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}: {name}", name.split(".")[0]


def test_library_imports_only_the_standard_library():
    found = [where for where, top in _absolute_imports() if top not in sys.stdlib_module_names]
    assert not found, f"third-party imports: {found}"


def test_library_imports_neither_dataclasses_nor_typing():
    found = [where for where, top in _absolute_imports() if top in ("dataclasses", "typing")]
    assert not found, f"slow imports: {found}"


def test_the_pytest_free_smoke_script_passes():
    script = Path(__file__).resolve().parent / "smoke_stdlib.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke passed" in done.stdout.splitlines()[-1]
