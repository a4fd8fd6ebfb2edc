"""Every imported name is read somewhere in the module that imports it.

An import that nothing reads tells a reader that a module exercises a path
it does not, so this test scans every module under ``src/steinberg/`` and
``tests/`` with :mod:`ast` and lists each imported name that is never read.
``from __future__`` imports are directives, not names, and a name the
module exports through ``__all__`` counts as read; the package's
``__all__`` is built from ``_HOMES`` and is taken from the package itself.
"""

import ast
from pathlib import Path

import steinberg

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "steinberg").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _exported(path: Path, tree: ast.Module) -> set:
    if path == ROOT / "src" / "steinberg" / "__init__.py":
        return set(steinberg.__all__)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list:
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= _exported(path, tree)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_sees_every_module():
    assert ROOT / "src" / "steinberg" / "spinor.py" in MODULES
    assert Path(__file__).resolve() in MODULES


def test_the_scan_flags_an_unread_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nfrom math import gcd, lcm\n"
        "def f(x: lcm) -> None:\n    return os.path.join(x)\n"
    )
    assert unused_imports(path) == [(3, "regex"), (4, "gcd")]


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in MODULES for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)
