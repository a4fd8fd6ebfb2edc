"""Pin the emitted words across changes to the library.

One sha256 covers, for a fixed seeded grid, the random inputs, the
``decompose`` words and op counts, the Siegel coset labels with their
witness words, and the elimination spinor norms.  A change that alters any
token of any of them changes the digest; such a change is a behaviour change
and has to say so, and re-pin the digest.

``WIDE`` pins a second grid in the same record format: every family over the
large prime 1000000007, where the multipliers are residues with modular
inverses, and ``decompose_gl`` over F_7 and Q, on seeded members and on
seeded dense matrices whose leading entries are often zero.

``MIRRORS`` pins the reflection route: the mirror vectors (values and
types) and the classical norm of ``reflection_factorization`` on seeded
isometries of every orthogonal family up to l = 8 over F_7 and
F_1000000007 and of GO+ and GOodd up to l = 4 over Q, and on every legal
x-token matrix with t in {1, 2} at l = 2: the long-root ones have a
totally isotropic moved space, so the descent starts from an auxiliary
mirror.
"""

import hashlib
import random
from fractions import Fraction

from steinberg.coset import coset_label
from steinberg.eliminate import decompose, decompose_gl
from steinberg.field import Field, QQ
from steinberg.forms import Family, build_descriptor
from steinberg.harness import random_member
from steinberg.matrix import Matrix, SingularMatrix
from steinberg.generators import Word, legal_x_index_pairs, token_matrix, x
from steinberg.spinor import reflection_factorization, spinor_norm

F7 = Field(7)
BIG = Field(1000000007)
FAMILIES = (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)
SPLIT = (Family.GSP, Family.GO_EVEN, Family.GO_ODD)
ORTH = (Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)
SEEDS = range(4)

GOLDEN = "380bcd1d67f1e5d22aa364cc4c618af663e275d5e2d7a2a17e356b1ed1c94c4e"
WIDE = "58aa8f5333e5b153474ef88daa65602a95d232f155a501a64b3fa469354af6f6"
MIRRORS = "f9376c49ff270ff4acf4fc48b6221c33b93da004cdf710b8a7b8a78796c63237"


def _cells():
    for family in FAMILIES:
        for l in (1, 2, 4):
            yield family, l, F7
    for family in SPLIT:
        for l in (1, 2, 4):
            yield family, l, QQ


def _word(dec):
    """A decomposition as one word: the left word, the torus token, the right word."""
    return Word(dec.descriptor, dec.left.tokens + (dec.torus_token(),) + dec.right.tokens)


def _records(cells=None):
    for family, l, field in cells or _cells():
        sim = build_descriptor(family, l, field, similitude=True)
        iso = build_descriptor(family, l, field)
        for seed in SEEDS:
            g = random_member(sim, seed, word_len=4 * l + 4, with_torus=True)
            dec = decompose(g, sim)
            yield f"{sim}#{seed} g={g.data} w={_word(dec)} ops={dec.op_count}"
            h = random_member(iso, seed, word_len=4 * l + 4, with_torus=True)
            yield f"{iso}#{seed} h={h.data}"
            if family in SPLIT:
                label = coset_label(h, iso)
                yield f"m={label.m} L={label.left_witness} R={label.right_witness}"
            if family.is_orthogonal:
                yield f"theta={spinor_norm(h, iso)}"


def _dense(field, n, rng):
    """A seeded n x n matrix with about half of its entries zero."""
    def entry():
        if rng.random() < 0.5:
            return 0
        v = rng.randint(-3, 3)
        return v if field.is_prime else Fraction(v, rng.randint(1, 4))

    return Matrix(field, [[entry() for _ in range(n)] for _ in range(n)])


def _gl_records():
    for field in (F7, QQ):
        for l in (1, 2, 4):
            d = build_descriptor(Family.GL, l, field)
            rng = random.Random(l)
            for seed in SEEDS:
                for g in (random_member(d, seed, word_len=4 * l + 4, with_torus=True), _dense(field, d.n, rng)):
                    try:
                        dec = decompose_gl(g)
                    except SingularMatrix:
                        yield f"{d}#{seed} g={g.data} singular"
                        continue
                    yield f"{d}#{seed} g={g.data} w={_word(dec)} ops={dec.op_count}"


def _wide_records():
    yield from _records([(family, l, BIG) for family in FAMILIES for l in (1, 2, 4)])
    yield from _gl_records()


def _mirror_records():
    cells = [(family, l, field) for field in (F7, BIG) for family in ORTH for l in (1, 2, 4, 8)]
    cells += [(family, l, QQ) for family in ORTH[:2] for l in (1, 2, 3, 4)]
    for family, l, field in cells:
        d = build_descriptor(family, l, field)
        for seed in SEEDS:
            g = random_member(d, seed, word_len=4 * l + 4, with_torus=True)
            mirrors, theta = reflection_factorization(g, d)
            yield f"{d}#{seed} mirrors={mirrors!r} theta={theta}"
    for field in (F7, BIG, QQ):
        for family in ORTH if field.is_prime else ORTH[:2]:
            d = build_descriptor(family, 2, field)
            for i, j in legal_x_index_pairs(d):
                for t in (1, 2):
                    mirrors, theta = reflection_factorization(token_matrix(x(i, j, t), d), d)
                    yield f"{d} x({i},{j},{t}) mirrors={mirrors!r} theta={theta}"


def grid_digest(records=None) -> str:
    sha = hashlib.sha256()
    for rec in records or _records():
        sha.update(rec.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def test_words_and_witnesses_match_golden_digest():
    assert grid_digest() == GOLDEN


def test_large_prime_and_gl_words_match_wide_digest():
    assert grid_digest(_wide_records()) == WIDE


def test_reflection_mirrors_match_mirror_digest():
    assert grid_digest(_mirror_records()) == MIRRORS
