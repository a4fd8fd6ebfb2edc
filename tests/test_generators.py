from fractions import Fraction
from pathlib import Path

import pytest

from steinberg import generators, rowops
from steinberg.cli import format_matrix_file, format_word_file, main as cli_main, parse_word_file
from steinberg.coset import coset_label, omega_matrix, verify_label
from steinberg.eliminate import decompose
from steinberg.field import Field, QQ
from steinberg.forms import Family, build_descriptor, is_member, multiplier
from steinberg.generators import (
    GeneratorToken,
    IllegalToken,
    Word,
    derived_h,
    derived_w,
    evaluate_word,
    legal_x_index_pairs,
    parse_token,
    parse_word,
    token_inverse,
    token_delta,
    token_inverse_in,
    token_matrix,
    torus,
    w,
    x,
    x1,
    x2,
    x_pattern,
)
from steinberg.harness import random_member
from steinberg.matrix import Matrix

F3 = Field(3)
F5 = Field(5)

ALL = (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)


def unit(d, i, j, c):
    m = Matrix.zeros(d.field, d.n, d.n).to_lists()
    m[d.pos(i)][d.pos(j)] = d.field.of(c)
    return Matrix(d.field, m)


def test_w_l_matrix():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    expected = (
        Matrix.identity(F5, 4)
        - unit(d, 2, 2, 1)
        - unit(d, -2, -2, 1)
        - unit(d, 2, -2, 1)
        - unit(d, -2, 2, 1)
    )
    assert token_matrix(w(2), d) == expected


def test_zero_parameter_is_identity():
    d = build_descriptor(Family.GSP, 2, F5)
    assert token_matrix(x(1, 2, 0), d).is_identity()


def test_x2_matrix():
    d = build_descriptor(Family.GO_MINUS, 2, F5)
    assert token_matrix(x2(), d) == Matrix.identity(F5, 4) - unit(d, -1, -1, 2)


def test_token_inverse_negates_parameter():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    tok = x(1, 2, 3)
    inv = token_inverse_in(tok, d)
    assert inv.t == 2  # -3 mod 5
    assert (token_matrix(tok, d) @ token_matrix(inv, d)).is_identity()


def test_involutions():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    wl = token_matrix(w(2), d)
    assert (wl @ wl).is_identity()
    dm = build_descriptor(Family.GO_MINUS, 1, F5)
    x2m = token_matrix(x2(), dm)
    assert (x2m @ x2m).is_identity()
    refl = token_matrix(x1(0, 1), build_descriptor(Family.GO_MINUS, 1, Field(3)))
    assert (refl @ refl).is_identity()


def test_empty_word_is_identity():
    d = build_descriptor(Family.GSP, 2, F5)
    assert evaluate_word(Word(d, [])).is_identity()


def test_symplectic_swap_word():
    d = build_descriptor(Family.GSP, 2, F5)
    word = Word(d, [x(1, -1, 1), x(-1, 1, -1), x(1, -1, 1)])
    expected = (
        Matrix.identity(F5, 4)
        + unit(d, 1, -1, 1)
        - unit(d, -1, 1, 1)
        - unit(d, 1, 1, 1)
        - unit(d, -1, -1, 1)
    )
    assert evaluate_word(word) == expected
    assert evaluate_word(derived_w(1, d)) == expected


def test_odd_swap_word():
    d = build_descriptor(Family.GO_ODD, 2, F5)
    word = Word(d, [x(0, 1, -1), x(1, 0, 1), x(0, 1, -1)])
    expected = (
        Matrix.identity(F5, 5)
        - unit(d, 0, 0, 2)
        - unit(d, 1, -1, 1)
        - unit(d, -1, 1, 1)
        - unit(d, 1, 1, 1)
        - unit(d, -1, -1, 1)
    )
    assert evaluate_word(word) == expected
    assert evaluate_word(derived_w(1, d)) == expected


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ALL)
def test_derived_w_swaps(family, l):
    d = build_descriptor(family, l, F5)
    f = d.field
    lo = 2 if family is Family.GO_MINUS else 1
    for i in range(lo, l + 1):
        got = evaluate_word(derived_w(i, d))
        m = Matrix.identity(f, d.n).to_lists()
        pi, ni = d.pos(i), d.pos(-i)
        m[pi][pi] = 0
        m[ni][ni] = 0
        if family is Family.GSP:
            m[pi][ni] = 1
            m[ni][pi] = f.neg(f.one)
        else:
            m[pi][ni] = f.neg(f.one)
            m[ni][pi] = f.neg(f.one)
            if family is Family.GO_ODD:
                m[0][0] = f.neg(f.one)
        assert got == Matrix(f, m)


def test_pair_swap_identity_go_even():
    # w_l * w_{l,i} * w_{l,-i} equals the swap at index i, as matrices
    for l in (2, 3, 4):
        d = build_descriptor(Family.GO_EVEN, l, F5)
        for i in range(1, l):
            lhs = evaluate_word(derived_w(i, d))
            rhs = evaluate_word(derived_w(l, d))
            rhs = rhs @ evaluate_word(Word(d, [x(l, i, 1), x(i, l, -1), x(l, i, 1)]))
            rhs = rhs @ evaluate_word(Word(d, [x(i, -l, -1), x(-i, l, -1), x(i, -l, -1)]))
            assert lhs == rhs


def test_derived_h():
    for l in (1, 2, 3):
        d = build_descriptor(Family.GSP, l, F5)
        assert evaluate_word(derived_h(1, d)).is_identity()
        for lam in (2, 3, 4):
            diag = [1] * (l - 1) + [lam] + [1] * (l - 1) + [pow(lam, -1, 5)]
            assert evaluate_word(derived_h(lam, d)) == Matrix.diagonal(F5, diag)


@pytest.mark.parametrize("family", ALL)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_every_token_is_an_isometry(family, p):
    field = Field(p)
    d = build_descriptor(family, 3, field)
    toks = [x(i, j, t) for (i, j) in legal_x_index_pairs(d) for t in (1, p - 1, p // 2 or 1)]
    if family in (Family.GO_EVEN, Family.GO_ODD):
        toks.append(w(3))
    if family is Family.GO_MINUS:
        toks += [w(2), w(3), x2()]
        eps = d.epsilon
        toks += [
            x1(t, s)
            for t in range(p)
            for s in range(p)
            if (t * t + eps * s * s) % p == 1
        ]
    for tok in toks:
        m = token_matrix(tok, d)
        assert is_member(m, d) and multiplier(m, d) == field.one, str(tok)
        inv = token_matrix(token_inverse_in(tok, d), d)
        assert (m @ inv).is_identity(), str(tok)


@pytest.mark.parametrize("family", ALL)
def test_one_parameter_additivity(family):
    p = 7
    d = build_descriptor(family, 3, Field(p))
    for (i, j) in legal_x_index_pairs(d):
        for t in (2, 5):
            for s in (3, 6):
                lhs = token_matrix(x(i, j, t), d) @ token_matrix(x(i, j, s), d)
                assert lhs == token_matrix(x(i, j, (t + s) % p), d)


def test_illegal_tokens_rejected():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    with pytest.raises(IllegalToken):
        token_matrix(x(1, -1, 1), d)  # symplectic-only flavour
    with pytest.raises(IllegalToken):
        token_matrix(x(2, -1, 1), d)  # needs i < j
    with pytest.raises(IllegalToken):
        token_matrix(w(1), d)  # only w[l]
    with pytest.raises(IllegalToken):
        token_matrix(x2(), d)  # twisted only
    dm = build_descriptor(Family.GO_MINUS, 2, F5)
    with pytest.raises(IllegalToken):
        token_matrix(x1(2, 2), dm)  # t^2 + eps s^2 != 1
    with pytest.raises(IllegalToken):
        token_matrix(torus(0, 1), dm)


def test_token_grammar_round_trip():
    d = build_descriptor(Family.GO_MINUS, 2, F5)
    toks = [x(2, 1, 3), x(1, 2, 4), x(2, -1, 1), w(2), x1(2, 1), x2(),
            torus(2, 1), torus(3, 2, ts=(0, 1))]
    for tok in toks:
        assert parse_token(str(tok), d) == tok
    dodd = build_descriptor(Family.GO_ODD, 2, F5)
    toks = [x(1, 0, 2), x(0, 2, 3), torus(2, 4, alpha=3)]
    for tok in toks:
        assert parse_token(str(tok), dodd) == tok
    word = Word(dodd, toks)
    assert parse_word(str(word), dodd) == word


def test_token_repr_str_equality_hash_and_immutability():
    cases = [
        (x(1, -2, Fraction(3, 4)), "GeneratorToken(kind='x', i=1, j=-2, t=Fraction(3, 4), s=None, alpha=None,"
         " lam=None, mu=None)", "x[1,-2](3/4)"),
        (w(2), "GeneratorToken(kind='w', i=2, j=0, t=None, s=None, alpha=None, lam=None, mu=None)", "w[2]"),
        (x1(3, 4), "GeneratorToken(kind='x1', i=0, j=0, t=3, s=4, alpha=None, lam=None, mu=None)", "x1(3,4)"),
        (x2(), "GeneratorToken(kind='x2', i=0, j=0, t=None, s=None, alpha=None, lam=None, mu=None)", "x2"),
        (torus(2, 3), "GeneratorToken(kind='torus', i=0, j=0, t=None, s=None, alpha=None, lam=2, mu=3)",
         "torus(2;3)"),
        (torus(2, 4, alpha=2), "GeneratorToken(kind='torus', i=0, j=0, t=None, s=None, alpha=2, lam=2, mu=4)",
         "torus(2;2;4)"),
        (torus(1, 5, ts=(1, 2)), "GeneratorToken(kind='torus', i=0, j=0, t=1, s=2, alpha=None, lam=1, mu=5)",
         "torus(1,2;1;5)"),
    ]
    for tok, rep, text in cases:
        assert repr(tok) == rep and str(tok) == text
        same = GeneratorToken(kind=tok.kind, i=tok.i, j=tok.j, t=tok.t, s=tok.s, alpha=tok.alpha,
                              lam=tok.lam, mu=tok.mu)
        assert same == tok and hash(same) == hash(tok)
        assert all(other != tok for other, _, _ in cases if other is not tok)
        with pytest.raises(AttributeError):
            tok.i = 7
    assert GeneratorToken("x2") == x2() and x(1, 2, 3) != x(1, 2, 4) != x(2, 1, 4)


def test_x_pattern_memo_keeps_families_and_ranks_apart():
    gsp, goplus = build_descriptor(Family.GSP, 2, F5), build_descriptor(Family.GO_EVEN, 2, F5)
    assert x_pattern(1, -1, gsp) == "pnm"
    for _ in range(2):  # an illegal pair raises on every call, not only the first
        with pytest.raises(IllegalToken):
            x_pattern(1, -1, goplus)
    assert x_pattern(1, -1, build_descriptor(Family.GSP, 2, QQ)) == "pnm"
    # GL reads n: x[1,3] exists in GL(3) (l = 2) but not in GL(2)
    assert x_pattern(1, 3, build_descriptor(Family.GL, 2, F5)) == "gl"
    with pytest.raises(IllegalToken):
        x_pattern(1, 3, build_descriptor(Family.GL, 1, F5))


def test_evaluate_word_chains_token_deltas(monkeypatch, tmp_path):
    """Verification stays independent of the elimination and builds no token
    matrix: each check is one chain through the product kernel whose factors
    are the tokens' integer deltas in order (with the diagonal, or the
    element, between two words), and nothing of the in-place token
    application runs."""
    cases = []
    for fam in ALL:
        d = build_descriptor(fam, 2, F5, similitude=True)
        g = random_member(d, 3, word_len=8, with_torus=True)
        dec = decompose(g, d)
        mpath, wpath = tmp_path / f"{fam.name}.m", tmp_path / f"{fam.name}.w"
        mpath.write_text(format_matrix_file(g, d))
        wpath.write_text(format_word_file(dec, d))
        cases.append((d, g, dec, str(mpath), str(wpath)))
    labelled = []
    for fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD):
        d = build_descriptor(fam, 3, F5)
        g = random_member(d, 4, word_len=10)
        labelled.append((d, g, coset_label(g, d)))

    def forbidden(*args, **kwargs):
        raise AssertionError("verification reached the in-place token application or built a token matrix")

    monkeypatch.setattr(rowops, "apply", forbidden)
    monkeypatch.setattr(rowops.WorkingMatrix, "_add_multiple", forbidden)
    monkeypatch.setattr(generators, "token_matrix", forbidden)
    chains = []
    chain = Matrix._chain

    def counting(a, factors):
        factors = list(factors)
        chains.append(factors)
        return chain(a, factors)

    monkeypatch.setattr(Matrix, "_chain", staticmethod(counting))

    def deltas(*words):
        return [token_delta(tok, word.descriptor) for word in words for tok in word.tokens]

    for d, g, dec, mpath, wpath in cases:
        word = derived_w(2, d)
        word = Word(d, word.tokens + (x(1, 2, 3),) + word.tokens)
        chains.clear()
        evaluate_word(word)
        assert chains == [deltas(word)]
        chains.clear()
        assert evaluate_word(Word(d, [])) == Matrix.identity(d.field, d.n) and chains == [[]]
        chains.clear()
        assert dec.reassemble() == g
        assert chains == [deltas(dec.left) + [dec.diagonal] + deltas(dec.right)]
        left, mid, right, _ = parse_word_file(Path(wpath).read_text())
        chains.clear()
        assert cli_main(["verify", wpath, mpath]) == 0
        assert chains == [deltas(left, mid, right)]
    for d, g, label in labelled:
        for m in range(d.l + 1):
            chains.clear()
            omega_matrix(d, m)
            assert chains == [deltas(*(derived_w(i, d) for i in range(1, m + 1)))]
        chains.clear()
        assert verify_label(g, label, d)
        assert chains[0] == deltas(label.left_witness) + [g] + deltas(label.right_witness)


# The order feeds random_member's token pool, so every seeded member and every
# golden word depends on it.
LEGAL_X_PAIRS = {
    (Family.GL, 2): [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)],
    (Family.GL, 3): [
        (1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (3, 4), (4, 1), (4, 2), (4, 3),
    ],
    (Family.GSP, 2): [(1, 2), (2, 1), (1, -2), (-1, 2), (1, -1), (2, -2), (-1, 1), (-2, 2)],
    (Family.GSP, 3): [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (1, -2), (1, -3), (2, -3),
        (-1, 2), (-1, 3), (-2, 3), (1, -1), (2, -2), (3, -3), (-1, 1), (-2, 2), (-3, 3),
    ],
    (Family.GO_EVEN, 2): [(1, 2), (2, 1), (1, -2), (-1, 2)],
    (Family.GO_EVEN, 3): [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (1, -2), (1, -3), (2, -3), (-1, 2), (-1, 3), (-2, 3),
    ],
    (Family.GO_ODD, 2): [(1, 2), (2, 1), (1, -2), (-1, 2), (1, 0), (2, 0), (0, 1), (0, 2)],
    (Family.GO_ODD, 3): [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (1, -2), (1, -3), (2, -3),
        (-1, 2), (-1, 3), (-2, 3), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3),
    ],
    (Family.GO_MINUS, 2): [(2, 1), (1, 2), (2, -1), (-1, 2)],
    (Family.GO_MINUS, 3): [
        (2, 3), (3, 2), (2, -3), (-2, 3), (2, 1), (3, 1), (1, 2), (1, 3), (2, -1), (3, -1), (-1, 2), (-1, 3),
    ],
}


@pytest.mark.parametrize("fam, l", sorted(LEGAL_X_PAIRS, key=lambda k: (k[0].name, k[1])), ids=str)
def test_legal_x_index_pairs_keep_their_order(fam, l):
    d = build_descriptor(fam, l, F5)
    assert legal_x_index_pairs(d) == LEGAL_X_PAIRS[fam, l]
    assert all(x_pattern(i, j, d) for i, j in LEGAL_X_PAIRS[fam, l])

