"""The package namespace: every public name loads on first use from its home
module, and ``__all__`` is unchanged."""

import importlib

import pytest

import steinberg

HOMES = {
    "field": ("Field", "QQ", "SquareClass", "square_class", "canonical_nonsquare"),
    "matrix": ("Matrix",),
    "forms": ("Family", "GroupDescriptor", "build_descriptor", "is_member", "multiplier", "twisted_epsilon"),
    "generators": ("GeneratorToken", "Word", "derived_h", "derived_w", "evaluate_word", "parse_token",
                   "parse_word", "token_inverse", "token_matrix"),
    "eliminate": ("Decomposition", "decompose", "decompose_gl"),
    "spinor": ("spinor_norm", "wall_spinor_norm", "reflection_factorization", "in_commutator_subgroup"),
    "coset": ("CosetLabel", "coset_label", "coset_census", "is_in_parabolic"),
    "harness": ("Enumeration", "enumerate_group", "random_member"),
}


def test_all_is_unchanged():
    assert steinberg.__all__ == [name for names in HOMES.values() for name in names]


def test_each_name_is_the_object_of_its_home_module():
    for module, names in HOMES.items():
        home = importlib.import_module(f"steinberg.{module}")
        for name in names:
            assert getattr(steinberg, name) is getattr(home, name), name


def test_dir_lists_every_public_name():
    assert set(steinberg.__all__) <= set(dir(steinberg))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        steinberg.no_such_name


def test_star_import_binds_every_name():
    ns = {}
    exec("from steinberg import *", ns)
    assert all(ns[name] is getattr(steinberg, name) for name in steinberg.__all__)


def test_submodule_imports_still_work():
    from steinberg import cli, coset

    import steinberg.spinor

    assert cli.main and coset.coset_label and steinberg.spinor.spinor_norm is steinberg.spinor_norm
