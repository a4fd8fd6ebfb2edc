"""Exact-arithmetic word problem, spinor norm and double-coset toolkit for
symplectic and orthogonal similitude groups over odd prime fields and Q.

The public names load on first use (PEP 562): ``import steinberg`` imports
no submodule, and ``steinberg.decompose`` imports ``steinberg.eliminate``
the first time it is read.  ``cli`` is not among them, so that
``python -m steinberg.cli`` does not find itself already imported.
"""

import importlib

# public name -> the submodule that defines it; the keys, in order, are __all__
_HOMES = {
    "Field": "field",
    "QQ": "field",
    "SquareClass": "field",
    "square_class": "field",
    "canonical_nonsquare": "field",
    "Matrix": "matrix",
    "Family": "forms",
    "GroupDescriptor": "forms",
    "build_descriptor": "forms",
    "is_member": "forms",
    "multiplier": "forms",
    "twisted_epsilon": "forms",
    "GeneratorToken": "generators",
    "Word": "generators",
    "derived_h": "generators",
    "derived_w": "generators",
    "evaluate_word": "generators",
    "parse_token": "generators",
    "parse_word": "generators",
    "token_inverse": "generators",
    "token_matrix": "generators",
    "Decomposition": "eliminate",
    "decompose": "eliminate",
    "decompose_gl": "eliminate",
    "spinor_norm": "spinor",
    "wall_spinor_norm": "spinor",
    "reflection_factorization": "spinor",
    "in_commutator_subgroup": "spinor",
    "CosetLabel": "coset",
    "coset_label": "coset",
    "coset_census": "coset",
    "is_in_parabolic": "coset",
    "Enumeration": "harness",
    "enumerate_group": "harness",
    "random_member": "harness",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
