"""The oracles share no code with the kernels they check.

An oracle that multiplied with ``@`` (the row loop of
:meth:`steinberg.matrix.Matrix._chain`) or reduced with
:meth:`steinberg.matrix.Matrix._reduce` would pass a fault in either on
both sides of its comparison.  This test scans, with :mod:`ast`, every
``tests/*oracle*.py`` module and every ``oracle_*`` function under
``tests/``, and lists each use of ``@``, each call of ``_chain``,
``_reduce``, ``rref``, ``transpose``, ``inverse`` or ``__matmul__``, and
each private name, or ``reflection_matrix``, taken from
:mod:`steinberg.spinor`.  The oracles compute on field scalars instead
(:mod:`gauss_oracle`), with their own reflections.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
KERNEL_CALLS = {"_chain", "_reduce", "rref", "transpose", "inverse", "__matmul__"}
SPINOR = ("spinor", "steinberg.spinor")


def _spinor_name(name: str) -> bool:
    return name.startswith("_") or name == "reflection_matrix"


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value)):
        return f"{base}.{node.attr}"
    return None


def kernel_uses(tree: ast.AST) -> list:
    """(line, what) of each use of the kernels or of a spinor name the oracles replace under tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name in KERNEL_CALLS:
                found.append((node.lineno, f"{name}()"))
        elif isinstance(node, ast.ImportFrom) and node.module == "steinberg.spinor":
            found += [(node.lineno, f"steinberg.spinor.{a.name}") for a in node.names if _spinor_name(a.name)]
        elif isinstance(node, ast.Attribute) and _spinor_name(node.attr) and _dotted(node.value) in SPINOR:
            found.append((node.lineno, f"spinor.{node.attr}"))
    return found


def oracle_scopes() -> list:
    """(label, tree) of each oracle module and each oracle_* function elsewhere in tests/."""
    scopes = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if "oracle" in path.stem:
            scopes.append((path.name, tree))
            continue
        scopes += [(f"{path.name}::{node.name}", node) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("oracle_")]
    return scopes


def test_oracles_use_no_kernel_and_no_spinor_private():
    scopes = oracle_scopes()
    names = {label for label, _ in scopes}
    assert {"gauss_oracle.py", "rowops_oracle.py", "spinor_oracle.py", "test_forms.py::oracle_multiplier"} <= names
    found = [f"{label}:{line}: {what}" for label, tree in scopes for line, what in kernel_uses(tree)]
    assert not found, found


def test_the_scan_sees_each_kind_of_use():
    source = """
from steinberg.spinor import _some_anisotropic, reflection_matrix, spinor_norm
import steinberg.spinor
a @ b
a @= b
m.transpose().rref()
Matrix._chain(a, ())
m._reduce(rows)
m.inverse()
steinberg.spinor._record(h)
steinberg.spinor.reflection_matrix(v, d)
"""
    uses = [what for _, what in kernel_uses(ast.parse(source))]
    assert sorted(uses) == sorted([
        "steinberg.spinor._some_anisotropic", "steinberg.spinor.reflection_matrix", "@", "@", "transpose()",
        "rref()", "_chain()", "_reduce()", "inverse()", "spinor._record", "spinor.reflection_matrix",
    ])
