"""Pin the emitted words across changes to the library.

One sha256 covers, for a fixed seeded grid, the random inputs, the
``decompose`` words and op counts, the Siegel coset labels with their
witness words, and the elimination spinor norms.  A change that alters any
token of any of them changes the digest; such a change is a behaviour change
and has to say so, and re-pin the digest.
"""

import hashlib

from steinberg.coset import coset_label
from steinberg.eliminate import decompose
from steinberg.field import Field, QQ
from steinberg.forms import Family, build_descriptor
from steinberg.harness import random_member
from steinberg.spinor import spinor_norm

F7 = Field(7)
FAMILIES = (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)
SPLIT = (Family.GSP, Family.GO_EVEN, Family.GO_ODD)
SEEDS = range(4)

GOLDEN = "380bcd1d67f1e5d22aa364cc4c618af663e275d5e2d7a2a17e356b1ed1c94c4e"


def _cells():
    for family in FAMILIES:
        for l in (1, 2, 4):
            yield family, l, F7
    for family in SPLIT:
        for l in (1, 2, 4):
            yield family, l, QQ


def _records():
    for family, l, field in _cells():
        sim = build_descriptor(family, l, field, similitude=True)
        iso = build_descriptor(family, l, field)
        for seed in SEEDS:
            g = random_member(sim, seed, word_len=4 * l + 4, with_torus=True)
            dec = decompose(g, sim)
            yield f"{sim}#{seed} g={g.data} w={dec.as_word()} ops={dec.op_count}"
            h = random_member(iso, seed, word_len=4 * l + 4, with_torus=True)
            yield f"{iso}#{seed} h={h.data}"
            if family in SPLIT:
                label = coset_label(h, iso)
                yield f"m={label.m} L={label.left_witness} R={label.right_witness}"
            if family.is_orthogonal:
                yield f"theta={spinor_norm(h, iso)}"


def grid_digest() -> str:
    sha = hashlib.sha256()
    for rec in _records():
        sha.update(rec.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def test_words_and_witnesses_match_golden_digest():
    assert grid_digest() == GOLDEN
