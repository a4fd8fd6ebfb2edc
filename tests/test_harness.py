import pytest

from steinberg.field import Field
from steinberg.forms import Family, build_descriptor, is_member, multiplier
from steinberg.generators import token_matrix, torus, w
from steinberg.harness import (
    EnumerationTooLarge,
    enumerate_group,
    random_member,
)
from steinberg.matrix import Matrix

F3 = Field(3)
F5 = Field(5)
ALL = (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)


def test_trivial_word_is_identity():
    d = build_descriptor(Family.GSP, 2, F5)
    assert random_member(d, 0, word_len=0) == Matrix.identity(F5, 4)


@pytest.mark.parametrize("family", ALL)
def test_random_members_are_members(family):
    d = build_descriptor(family, 2, F5, similitude=True)
    for seed in range(10):
        g = random_member(d, seed, word_len=6, with_torus=True)
        assert is_member(g, d)
    d_iso = build_descriptor(family, 2, F5)
    for seed in range(10):
        g = random_member(d_iso, seed, word_len=6, with_torus=True)
        assert multiplier(g, d_iso) == F5.one


def test_seed_determinism():
    d = build_descriptor(Family.GO_ODD, 2, F5)
    assert random_member(d, 42, 9) == random_member(d, 42, 9)
    assert random_member(d, 42, 9) != random_member(d, 43, 9)


def test_brute_force_sp23(sp_2_3):
    _, en = sp_2_3
    assert en.method == "brute"
    assert len(en.elements) == 24  # |Sp(2,3)| = |SL(2,3)|
    assert len(set(en.elements)) == 24
    for g in en.elements:
        assert g.inverse() in set(en.elements)


def test_closure_contains_torus_and_swap():
    d = build_descriptor(Family.GO_EVEN, 1, F3)
    en = enumerate_group(d, method="closure", cap=10**6)
    elements = set(en.elements)
    assert token_matrix(w(1), d) in elements
    assert token_matrix(torus(2, 1), d) in elements


def test_cap_trips():
    d = build_descriptor(Family.GO_EVEN, 2, F3)
    with pytest.raises(EnumerationTooLarge):
        enumerate_group(d, method="closure", cap=10)
    with pytest.raises(EnumerationTooLarge):
        enumerate_group(d, method="brute", cap=10)


@pytest.mark.parametrize("family", ALL)
def test_closure_equals_brute_force_at_l1_p3(family):
    d = build_descriptor(family, 1, F3)
    brute = set(enumerate_group(d, method="brute", cap=10**6).elements)
    closure = set(enumerate_group(d, method="closure", cap=10**6).elements)
    assert closure == brute


@pytest.mark.parametrize("family", ALL)
def test_similitude_closure_equals_brute_force_at_l1_p3(family):
    # the full similitude groups: multiplier-sweeping torus elements included
    d = build_descriptor(family, 1, F3, similitude=True)
    brute = set(enumerate_group(d, method="brute", cap=10**6).elements)
    closure = set(enumerate_group(d, method="closure", cap=10**6).elements)
    assert closure == brute


def test_every_element_passes_membership(o_plus_4_3):
    d, en = o_plus_4_3
    for g in en.elements:
        assert is_member(g, d)
    assert len(set(en.elements)) == len(en.elements)


def test_decompose_handles_every_enumerated_element(sp_2_3):
    from steinberg.eliminate import decompose

    d, en = sp_2_3
    for g in en.elements:
        assert decompose(g, d).reassemble() == g
    dm = build_descriptor(Family.GO_MINUS, 1, F3)
    for g in enumerate_group(dm, method="brute", cap=10**6).elements:
        assert decompose(g, dm).reassemble() == g


def test_enumeration_dump_round_trips(sp_2_3):
    from steinberg.cli import format_matrix_file, parse_matrix_file

    d, en = sp_2_3
    records = "\n".join(format_matrix_file(g, d) for g in en.elements).split("\n\n")
    assert len(records) == len(en.elements)
    g0, d0 = parse_matrix_file(records[0])
    assert g0 == en.elements[0] and d0.family == d.family
