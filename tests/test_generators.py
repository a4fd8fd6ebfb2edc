import hashlib
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from steinberg import eliminate, forms, generators, rowops
from steinberg.cli import format_matrix_file, format_word_file, main as cli_main, parse_word_file
from steinberg.coset import coset_label, omega_matrix, verify_label
from steinberg.eliminate import decompose, decompose_gl
from steinberg.field import DivisionByZero, Field, QQ
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
    token_matrix,
    token_units,
    torus,
    w,
    x,
    x1,
    x2,
    x_pattern,
    x_token_units,
)
from steinberg.harness import random_member
from steinberg.matrix import Matrix

from gauss_oracle import diagonal, identity
from rowops_oracle import x_units_delta
from test_matrix import assert_canonical, naive_chain
from test_rowops import delta_tokens, token_entries

F3 = Field(3)
F5 = Field(5)

ALL = (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)


def identity_plus(d, *units):
    """I plus c at each signed position (i, j, c)."""
    f, m = d.field, identity(d.field, d.n)
    for i, j, c in units:
        m[d.pos(i)][d.pos(j)] = f.add(m[d.pos(i)][d.pos(j)], f.of(c))
    return Matrix(f, m)


def test_w_l_matrix():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    expected = identity_plus(d, (2, 2, -1), (-2, -2, -1), (2, -2, -1), (-2, 2, -1))
    assert token_matrix(w(2), d) == expected


def test_zero_parameter_is_identity():
    d = build_descriptor(Family.GSP, 2, F5)
    assert token_matrix(x(1, 2, 0), d) == Matrix.identity(F5, 4)


def test_x2_matrix():
    d = build_descriptor(Family.GO_MINUS, 2, F5)
    assert token_matrix(x2(), d) == identity_plus(d, (-1, -1, -2))


def test_token_inverse_negates_parameter():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    tok = x(1, 2, 3)
    inv = token_inverse(tok, d)
    assert inv.t == 2  # -3 mod 5
    assert token_matrix(tok, d) @ token_matrix(inv, d) == Matrix.identity(F5, 4)
    # literal +-1, as the elimination passes them, come back canonical
    for field, t, want in (
        (Field(7), 1, 6), (Field(7), -1, 1),
        (QQ, 1, Fraction(-1)), (QQ, -1, Fraction(1)),
    ):
        d = build_descriptor(Family.GO_EVEN, 2, field)
        tok = x(1, 2, t)
        inv = token_inverse(tok, d)
        assert inv == x(1, 2, want) and type(inv.t) is type(want), (field, t)
        assert str(inv) == f"x[1,2]({want})"
        assert token_matrix(tok, d) @ token_matrix(inv, d) == Matrix.identity(field, 4)


def test_involutions():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    wl = token_matrix(w(2), d)
    assert wl @ wl == Matrix.identity(F5, 4)
    dm = build_descriptor(Family.GO_MINUS, 1, F5)
    x2m = token_matrix(x2(), dm)
    assert x2m @ x2m == Matrix.identity(F5, 2)
    refl = token_matrix(x1(0, 1), build_descriptor(Family.GO_MINUS, 1, Field(3)))
    assert refl @ refl == Matrix.identity(Field(3), 2)


def test_empty_word_is_identity():
    d = build_descriptor(Family.GSP, 2, F5)
    assert evaluate_word(Word(d, [])) == Matrix.identity(F5, 4)


def test_symplectic_swap_word():
    d = build_descriptor(Family.GSP, 2, F5)
    word = Word(d, [x(1, -1, 1), x(-1, 1, -1), x(1, -1, 1)])
    expected = identity_plus(d, (1, -1, 1), (-1, 1, -1), (1, 1, -1), (-1, -1, -1))
    assert evaluate_word(word) == expected
    assert evaluate_word(derived_w(1, d)) == expected


def test_odd_swap_word():
    d = build_descriptor(Family.GO_ODD, 2, F5)
    word = Word(d, [x(0, 1, -1), x(1, 0, 1), x(0, 1, -1)])
    expected = identity_plus(d, (0, 0, -2), (1, -1, -1), (-1, 1, -1), (1, 1, -1), (-1, -1, -1))
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
        assert evaluate_word(derived_h(1, d)) == Matrix.identity(F5, d.n)
        for lam in (2, 3, 4):
            diag = [1] * (l - 1) + [lam] + [1] * (l - 1) + [pow(lam, -1, 5)]
            assert evaluate_word(derived_h(lam, d)) == diagonal(F5, diag)


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
        inv = token_matrix(token_inverse(tok, d), d)
        assert m @ inv == Matrix.identity(field, d.n), str(tok)


@pytest.mark.parametrize("field", [F5, QQ], ids=str)
def test_every_token_matrix_is_in_the_stored_form(field, monkeypatch):
    """token_matrix reduces only the cells its units write, and divides out
    a gcd only when there is one: its matrix equals the one built from its
    own scalars, for every kind of token but x (which
    ``test_compiled_x_codes_act_as_their_units`` covers), tori with
    fractional parameters included, and for a delta whose den shares a
    factor with its cells."""
    half, third = field.of(Fraction(1, 2)), field.of(Fraction(2, 3))
    for family in ALL:
        if family is Family.GO_MINUS and not field.is_prime:
            continue
        d = build_descriptor(family, 2, field, similitude=True)
        toks = []
        if family is Family.GSP or family is Family.GO_EVEN:
            toks += [torus(half, third), torus(third, 1)]
        if family is Family.GO_EVEN:
            toks.append(w(2))
        if family is Family.GO_ODD:
            toks += [torus(third, field.mul(half, half), alpha=half), torus(half, 1, alpha=field.of(-1))]
        if family is Family.GO_MINUS:
            toks += [w(2), x2(), x1(1, 0), torus(half, 1), torus(third, 1, ts=(1, 0))]
        for tok in toks:
            m = token_matrix(tok, d)
            assert m == Matrix(field, m.to_lists()), str(tok)
    # (2 I + 2 E_01 - 4 E_10) / 2 over Q, (I + 2 E_01 + E_10) over F_5
    monkeypatch.setattr(generators, "token_units", lambda tok, d: ([(0, 1, 2, False), (1, 0, -4, False)], 1, 0,
                                                                    1 if field.p else 2, False))
    m = token_matrix(x(1, 2, 1), build_descriptor(Family.GSP, 1, field))
    assert m.to_lists() == ([[1, 2], [1, 1]] if field.p else [[1, 1], [-2, 1]]) and m == Matrix(field, m.to_lists())


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


def _shape(fam, l, field=F5):
    return build_descriptor(fam, l, field, similitude=True)


# (descriptor, illegal token, the exact IllegalToken text): every check a
# token or a torus can fail, and where several fail, the one that is tested first
ILLEGAL_TOKENS = [
    (_shape(Family.GL, 1), x(1, 3, 1), "x[1,3] illegal for GL(2)"),
    (_shape(Family.GO_EVEN, 2), x(1, -1, 1), "x[1,-1] illegal for GOplus(l=2)"),
    (_shape(Family.GSP, 2, QQ), x(2, 2, Fraction(1, 2)), "x[2,2] illegal for GSp(l=2)"),
    (_shape(Family.GO_MINUS, 2), x(1, -1, 1), "x[1,-1] illegal for GOminus(l=2)"),
    (_shape(Family.GO_EVEN, 2), w(1), "w[1]: only w[2] exists for GOplus"),
    (_shape(Family.GO_ODD, 3, QQ), w(2), "w[2]: only w[3] exists for GOodd"),
    (_shape(Family.GO_MINUS, 2), w(1), "w[1] out of range for GOminus(l=2)"),
    (_shape(Family.GO_MINUS, 2), w(3), "w[3] out of range for GOminus(l=2)"),
    (_shape(Family.GSP, 2), w(1), "w tokens do not exist for GSp"),
    (_shape(Family.GL, 2), w(1), "w tokens do not exist for GL"),
    (_shape(Family.GSP, 2), x1(2, 2), "x1 only exists for GOminus"),
    (_shape(Family.GO_EVEN, 2, QQ), x2(), "x2 only exists for GOminus"),
    (_shape(Family.GO_MINUS, 2), x1(2, 2), "x1(2,2): t^2+eps*s^2 != 1"),
    (_shape(Family.GO_MINUS, 1, F3), x1(0, 0), "x1(0,0): t^2+eps*s^2 != 1"),
    (_shape(Family.GSP, 2), GeneratorToken("y"), "unknown token kind 'y'"),
    (_shape(Family.GSP, 2), torus(0, 1), "torus needs nonzero lambda and mu"),
    (_shape(Family.GL, 2), torus(2, 0, alpha=1), "torus needs nonzero lambda and mu"),
    (_shape(Family.GO_MINUS, 1), torus(2, 0, alpha=1), "torus needs nonzero lambda and mu"),
    (_shape(Family.GL, 2), torus(2, 3), "GL torus is torus(lambda;1)"),
    (_shape(Family.GL, 2), torus(2, 1, alpha=1), "GL torus is torus(lambda;1)"),
    (_shape(Family.GL, 2, QQ), torus(2, 1, ts=(1, 0)), "GL torus is torus(lambda;1)"),
    (_shape(Family.GSP, 2), torus(2, 4, alpha=2), "GSp torus is torus(lambda;mu)"),
    (_shape(Family.GO_EVEN, 2), torus(2, 3, ts=(1, 1)), "GOplus torus is torus(lambda;mu)"),
    (_shape(Family.GO_ODD, 2), torus(2, 4), "GOodd torus is torus(alpha;lambda;mu)"),
    (_shape(Family.GO_ODD, 2), torus(2, 4, ts=(2, 0)), "GOodd torus is torus(alpha;lambda;mu)"),
    (_shape(Family.GO_ODD, 2), torus(2, 4, alpha=1), "GOodd torus needs alpha^2 = mu"),
    (_shape(Family.GO_ODD, 2, QQ), torus(2, 2, alpha=1), "GOodd torus needs alpha^2 = mu"),
    (_shape(Family.GO_MINUS, 2), torus(2, 1, alpha=1), "GOminus torus carries no alpha"),
    (_shape(Family.GO_MINUS, 1), torus(2, 3, alpha=1), "GOminus torus carries no alpha"),
    (_shape(Family.GO_MINUS, 1), torus(2, 3), "GOminus torus at l=1 needs lambda = 1"),
    (_shape(Family.GO_MINUS, 1), torus(2, 1, ts=(1, 0)), "GOminus torus at l=1 needs lambda = 1"),
    (_shape(Family.GO_MINUS, 2), torus(2, 3), "GOminus torus with identity block needs mu = 1"),
    (_shape(Family.GO_MINUS, 1), torus(1, 3), "GOminus torus with identity block needs mu = 1"),
    (_shape(Family.GO_MINUS, 2), torus(2, 4, ts=(1, 1)), "GOminus torus block needs t^2+eps*s^2 = mu"),
    (_shape(Family.GO_MINUS, 1, F3), torus(1, 1, ts=(1, 1)), "GOminus torus block needs t^2+eps*s^2 = mu"),
    (build_descriptor(Family.GSP, 1, Field(7)), torus(1, 3), "torus with mu = 3 != 1 in an isometry group"),
    (build_descriptor(Family.GO_ODD, 2, QQ), torus(2, 4, alpha=2), "torus with mu = 4 != 1 in an isometry group"),
]


@pytest.mark.parametrize("d, tok, text", ILLEGAL_TOKENS, ids=[text for _, _, text in ILLEGAL_TOKENS])
def test_every_illegal_token_message(d, tok, text):
    """Each way a token can be illegal raises ``IllegalToken`` with the same
    exact text through every entry point: its units, its matrix, a checked
    word, the token grammar (a parsed token is checked at once), the in-place
    application from either side and the product of an unchecked word.  The
    unknown kind has no grammar, so it is not parsed."""
    lead = x2() if d.family is Family.GO_MINUS else x(*legal_x_index_pairs(d)[0], 1)
    calls = [
        lambda: token_units(tok, d),
        lambda: token_matrix(tok, d),
        lambda: Word(d, [lead, tok]),
        lambda: rowops.WorkingMatrix(Matrix.identity(d.field, d.n), d).lmul(tok),
        lambda: rowops.WorkingMatrix(Matrix.identity(d.field, d.n), d).rmul(tok),
        lambda: evaluate_word(Word._trusted(d, [tok])),
    ]
    if tok.kind != "y":
        calls.append(lambda: parse_token(str(tok), d))
        calls.append(lambda: parse_word(f"{lead} {tok}", d))
    for call in calls:
        with pytest.raises(IllegalToken) as err:
            call()
        assert str(err.value) == text, tok


def test_word_checks_each_x_parameter_at_construction():
    """A word reads every token's units when it is built, so an x-token
    whose parameter is no scalar of the field is refused there, as every
    other kind's parameters are: a str raises TypeError, and over F_7 a
    denominator divisible by 7 raises DivisionByZero."""
    gsp7, gspq = build_descriptor(Family.GSP, 2, Field(7)), build_descriptor(Family.GSP, 2, QQ)
    for d in (gsp7, gspq):
        with pytest.raises(TypeError):
            Word(d, [x(1, 2, 1), x(1, 2, "3")])
    with pytest.raises(DivisionByZero):
        Word(gsp7, [x(1, 2, Fraction(1, 7))])
    assert evaluate_word(Word(gsp7, [x(1, 2, Fraction(1, 2))])) == token_matrix(x(1, 2, 4), gsp7)
    assert len(Word(gspq, [x(1, 2, Fraction(1, 7)), x(2, 1, 3)])) == 2


def test_token_grammar_round_trip():
    # similitude descriptors: the tori with mu != 1 are in no isometry group
    d = build_descriptor(Family.GO_MINUS, 2, F5, similitude=True)
    toks = [x(2, 1, 3), x(1, 2, 4), x(2, -1, 1), w(2), x1(2, 1), x2(),
            torus(2, 1), torus(3, 2, ts=(0, 1))]
    for tok in toks:
        assert parse_token(str(tok), d) == tok
    dodd = build_descriptor(Family.GO_ODD, 2, F5, similitude=True)
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
    # x-tokens and their inverses are built by tuple.__new__, past the namedtuple's defaults
    d = build_descriptor(Family.GSP, 2, QQ)
    for tok in (x(1, -2, Fraction(3, 4)), token_inverse(x(1, -2, Fraction(3, 4)), d)):
        assert type(tok) is GeneratorToken and tok == GeneratorToken("x", tok.i, tok.j, tok.t)
        assert hash(tok) == hash(GeneratorToken("x", tok.i, tok.j, tok.t)) and tok.s is tok.mu is None
    assert token_inverse(x(1, -2, Fraction(3, 4)), d).t == Fraction(-3, 4)


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


CODE_FIELDS = (F3, Field(7), Field(1000000007), QQ)


@pytest.mark.parametrize("fam, field", [
    (fam, field) for fam in Family for field in CODE_FIELDS if field.is_prime or fam is not Family.GO_MINUS
], ids=lambda v: getattr(v, "value", str(v)))
def test_compiled_x_codes_act_as_their_units(fam, field, monkeypatch):
    """Every legal pair's code in a fresh shape's table gives the delta that
    the oracle's ``_x_units`` gives on the pair's ``x_pattern``, at t = 0,
    1, -1 and a random t (over Q also one over 6), the same code object on
    every call, and it names that pattern.  The entries are compared as a
    set: the code keeps its own order, which the delta-chain test of
    ``test_rowops.py`` checks.  GOminus exists over F_p only."""
    monkeypatch.setattr(forms, "_SHAPES", {})
    rng = random.Random(10 * list(Family).index(fam) + CODE_FIELDS.index(field))
    for l in (1, 2, 3, 4):
        d = build_descriptor(fam, l, field, similitude=True)
        for i, j in legal_x_index_pairs(d):
            ts = [0, 1, -1]
            if field.is_prime:
                ts.append(rng.randrange(2, field.p))
            else:
                ts += [Fraction(rng.randint(-99, 99), rng.randint(1, 99)), Fraction(rng.choice([-7, -5, 1, 5]), 6)]
            code = d._xcodes[i, j]
            for t in ts:
                tok = x(i, j, t)
                (got, den), (want, want_den) = token_entries(tok, d), x_units_delta(tok, d)
                assert (sorted(got), den) == (sorted(want), want_den), (str(d), tok)
                m = token_matrix(tok, d)  # written straight into the stored form
                assert m == Matrix(field, m.to_lists()), (str(d), tok)
                assert token_units(tok, d)[0] is code[2]
            assert d._xcodes[i, j] is code and code[0] == x_pattern(i, j, d)


def test_one_code_table_per_group_shape(monkeypatch):
    """Descriptors of one family, rank, n and epsilon share one table of
    x-token codes, the shape's, whatever the field or similitude flag: it
    holds one code per legal pair from the start, describing tokens over
    F_7 adds and changes nothing that F_1000000007 and Q read, and
    ``decompose_gl``, which builds one descriptor per (n, field) and
    reuses it, adds one shape."""
    monkeypatch.setattr(forms, "_SHAPES", {})
    eliminate._gl_descriptor.cache_clear()  # an earlier test's descriptor holds an earlier shape
    for fam in Family:
        for l in (1, 3):
            small = build_descriptor(fam, l, Field(7))
            large = build_descriptor(fam, l, Field(1000000007), similitude=True)
            assert small._xcodes is large._xcodes is small._shape.xcodes  # GOminus: epsilon is 2 for both
            before = dict(small._xcodes)
            for i, j in legal_x_index_pairs(small):
                token_units(x(i, j, 1), small)
            assert large._xcodes == before and list(large._xcodes) == legal_x_index_pairs(large)
            if fam is not Family.GO_MINUS:
                assert build_descriptor(fam, l, QQ)._xcodes is small._xcodes
    # each shape keeps its own: the rank, and GOminus's epsilon (1 over F_3)
    assert build_descriptor(Family.GSP, 2, F5)._xcodes is not build_descriptor(Family.GSP, 3, F5)._xcodes
    assert build_descriptor(Family.GO_MINUS, 3, F3)._xcodes is not build_descriptor(Family.GO_MINUS, 3, F5)._xcodes
    shapes = len(forms._SHAPES)
    g = Matrix(F5, [[1, 2, 0], [3, 1, 1], [2, 0, 4]])
    first, second = decompose_gl(g), decompose_gl(g)
    assert first.op_count == second.op_count and first.descriptor is second.descriptor
    assert len(forms._SHAPES) == shapes + 1


def test_an_illegal_pair_raises_the_same_text_on_every_call(monkeypatch):
    """An illegal pair is never stored, so it raises the same
    ``IllegalToken`` on its first call, on later calls, beside described
    legal pairs and on a fresh descriptor of the same shape."""
    monkeypatch.setattr(forms, "_SHAPES", {})
    cases = (
        ((Family.GL, 1, F5), x(1, 3, 1), x(1, 2, 1), "x[1,3] illegal for GL(2)"),
        ((Family.GO_EVEN, 2, F5), x(1, -1, 1), x(1, -2, 1), "x[1,-1] illegal for GOplus(l=2)"),
        ((Family.GSP, 2, QQ), x(2, 2, 1), x(2, -2, 1), "x[2,2] illegal for GSp(l=2)"),
    )
    for shape, bad, good, text in cases:
        texts = []
        for d in (build_descriptor(*shape),) * 2 + (build_descriptor(*shape),):
            for call in (token_units, lambda tok, d: Word(d, [tok]), token_matrix):
                with pytest.raises(IllegalToken) as err:
                    call(bad, d)
                texts.append(str(err.value))
            token_units(good, d)
            assert (bad.i, bad.j) not in d._xcodes and (good.i, good.j) in d._xcodes
        assert texts == [text] * 9


def test_evaluate_word_chains_token_deltas(monkeypatch, tmp_path):
    """Verification stays independent of the elimination and builds no token
    matrix: each check is one chain through the product kernel whose parts
    are runs of the tokens' deltas in the update loop's form
    (:func:`token_units`, the units of an x-token's code read as they stand,
    flagged sequential), one run per word, in order: the word's kept units
    tuple itself, not a copy (with the torus's units as a run of one, or the
    element, between two words, so ``reassemble`` hands over three parts; a
    label's check evaluates its omega_m afresh, then starts with
    omega_m^-1 as a word), and nothing of the in-place token application
    runs."""
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
    monkeypatch.setattr(generators, "token_matrix", forbidden)
    chains = []
    chain = Matrix._chain

    def counting(a, parts):
        parts = list(parts)
        chains.append(parts)
        return chain(a, parts)

    monkeypatch.setattr(Matrix, "_chain", staticmethod(counting))

    def run(word):
        return tuple(token_units(tok, word.descriptor) for tok in word.tokens)

    for d, g, dec, mpath, wpath in cases:
        word = derived_w(2, d)
        word = Word(d, word.tokens + (x(1, 2, 3),) + word.tokens)
        chains.clear()
        evaluate_word(word)
        assert chains == [[run(word)]] and chains[0][0] is word._units
        chains.clear()
        assert evaluate_word(Word(d, [])) == Matrix.identity(d.field, d.n) and chains == [[()]]
        chains.clear()
        assert dec.reassemble() == g
        assert chains == [[run(dec.left), (token_units(dec.torus_token(), d),), run(dec.right)]]
        assert chains[0][0] is dec.left._units and chains[0][2] is dec.right._units
        left, mid, right, _ = parse_word_file(Path(wpath).read_text())
        chains.clear()
        assert cli_main(["verify", wpath, mpath]) == 0
        assert chains == [[run(left), run(mid), run(right)]]
    for d, g, label in labelled:
        for m in range(d.l + 1):
            chains.clear()
            omega_matrix(d, m)
            assert chains == [[()] + [run(derived_w(i, d)) for i in range(1, m + 1)]]
        # omega_m^-1 as the inverse tokens of the swaps, in the same chain
        swaps = [derived_w(i, d) for i in range(label.m, 0, -1)]
        inv = tuple(token_units(token_inverse(t, d), d) for swap in swaps for t in reversed(swap.tokens))
        chains.clear()
        assert verify_label(g, label, d)
        omega = [()] + [run(derived_w(i, d)) for i in range(1, label.m + 1)]
        assert chains == [omega, [inv, run(label.left_witness), g, run(label.right_witness)]]


@pytest.mark.parametrize("field", [Field(7), Field(1000000007), QQ], ids=str)
def test_evaluate_word_over_runs_equals_the_token_by_token_chain(field):
    """Words that mix x, w, x1, x2 and torus tokens (x1 and x2 where
    GOminus is, over F_p), evaluated as one run each, alone and around a
    member and a lone token's units (a run of one), equal the chain that
    takes one token per part and the triple loop over the token matrices,
    for every family at l = 1, 2, 3."""
    rng = random.Random(43)
    for fam in Family:
        if fam is Family.GO_MINUS and not field.is_prime:
            continue
        for l in (1, 2, 3):
            d = build_descriptor(fam, l, field, similitude=True)
            toks = delta_tokens(d, rng)
            toks += [rng.choice(toks) for _ in range(len(toks))]
            rng.shuffle(toks)
            half = len(toks) // 2
            first, second = Word(d, toks[:half]), Word(d, toks[half:])
            lone = token_units(toks[0], d)
            member = random_member(d, l, word_len=6, with_torus=True)
            ident = Matrix.identity(field, d.n)
            mats = [token_matrix(tok, d) for tok in toks]
            one_by_one = [(token_units(tok, d),) for tok in toks]
            got = evaluate_word(first, second)
            assert got == Matrix._chain(ident, one_by_one) == naive_chain(ident, mats), (fam, l)
            assert_canonical(got)
            got = evaluate_word(first, member, lone, second)
            parts = one_by_one[:half] + [member, (lone,)] + one_by_one[half:]
            want = naive_chain(ident, mats[:half] + [member, token_matrix(toks[0], d)] + mats[half:])
            assert got == Matrix._chain(ident, parts) == want, (fam, l)
            assert_canonical(got)


@pytest.mark.parametrize("field", [Field(7), Field(1000000007), QQ], ids=str)
def test_x_token_units_compute_t_squared_only_for_codes_with_it(field):
    """u2 is t^2 (a^2 over b^2 over Q) for a code with a t^2 unit, and 0
    for every other code; u is t (a over b, or ab over b^2 with t^2)."""
    for fam in Family:
        if fam is Family.GO_MINUS and not field.is_prime:
            continue
        for l in (1, 2, 3):
            d = build_descriptor(fam, l, field)
            for i, j in legal_x_index_pairs(d):
                for t in (2, -3, Fraction(5, 3)):
                    units, u, u2, den, sequential = x_token_units(i, j, t, d)
                    squared = any(sq for _, _, _, sq in units)
                    assert squared == (x_pattern(i, j, d) in ("i0", "0i", "i1", "1i", "in1", "n1i")), (i, j)
                    v = field.of(t)
                    if field.is_prime:
                        assert (u, u2, den) == (v, v * v % field.p if squared else 0, 1), (i, j, t)
                    else:
                        a, b = v.numerator, v.denominator
                        assert (u, u2, den) == ((a * b, a * a, b * b) if squared else (a, 0, b)), (i, j, t)
                    assert sequential is True


@pytest.mark.parametrize("field", [Field(7), Field(1000000007), QQ], ids=str)
def test_words_keep_their_tokens_units(field):
    """A word keeps its tokens' units in order, each equal to
    ``token_units(tok, d)``: ``dec.left`` and ``dec.right`` the ones the
    elimination applied, the coset witnesses the ones the label applied,
    ``Word(d, tokens)`` the ones its check computed, ``parse_word``'s the
    ones its parse computed, and a trusted word built with none the ones its
    first evaluation computed.  The slot is
    no field: equality, hash, repr and pickling ignore it.  Reassembling
    from fresh words, checked or keeping nothing, gives ``dec.reassemble()``."""
    def assert_kept(word, d):
        assert word._units is not None and len(word._units) == len(word.tokens), str(word)
        assert list(word._units) == [token_units(tok, d) for tok in word.tokens], str(word)

    for fam in ALL + (Family.GL,):
        if fam is Family.GO_MINUS and not field.is_prime:
            continue
        for l in (1, 2, 3):
            d = build_descriptor(fam, l, field, similitude=True)
            for seed in (1, 2):
                g = random_member(d, seed, word_len=4 * l + 4, with_torus=True)
                dec = decompose_gl(g) if fam is Family.GL else decompose(g, d)
                d = dec.descriptor  # decompose_gl's own GL descriptor
                for word in (dec.left, dec.right):
                    assert_kept(word, d)
                    checked, bare = Word(d, word.tokens), Word._trusted(d, word.tokens)
                    assert_kept(checked, d)
                    assert bare._units is None and bare == word == checked and hash(bare) == hash(word)
                    assert repr(bare) == repr(word) and pickle.loads(pickle.dumps(word)) == word
                    parsed = parse_word(str(word), d)
                    assert parsed == word
                    assert_kept(parsed, d)
                    assert evaluate_word(parsed) == evaluate_word(bare) == evaluate_word(word)
                    assert_kept(bare, d)
                fresh = [Word(d, dec.left.tokens), Word(d, dec.right.tokens)]
                bare = [Word._trusted(d, dec.left.tokens), Word._trusted(d, dec.right.tokens)]
                assert dec.reassemble() == g
                assert evaluate_word(fresh[0], dec.diagonal, fresh[1]) == g
                assert evaluate_word(bare[0], dec.diagonal, bare[1]) == g
                if fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD):
                    e = build_descriptor(fam, l, field)
                    h = random_member(e, seed, word_len=4 * l + 4)
                    label = coset_label(h, e)
                    assert_kept(label.left_witness, e)
                    assert_kept(label.right_witness, e)
                    assert verify_label(h, label, e)


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


def test_legal_x_index_pairs_are_listed_once_per_shape(monkeypatch):
    # every family at l <= 4 over F_5 and Q lists the pairs it listed when
    # they were classified on every call (the digest), as a new list each
    # time, read off the int pairs of the shape's code table, and listing
    # them classifies no pair
    listed, classified = [], []
    real = forms._x_classify

    def counting(*args):
        classified.append(args)
        return real(*args)

    monkeypatch.setattr(forms, "_SHAPES", {})
    monkeypatch.setattr(forms, "_x_classify", counting)
    for fam in Family:
        for l in (1, 2, 3, 4):
            for field in (F5, QQ):
                if fam is Family.GO_MINUS and field == QQ:
                    continue
                d = build_descriptor(fam, l, field)
                classified.clear()
                pairs = legal_x_index_pairs(d)
                listed.append(f"{d}: {pairs}")
                assert pairs == list(d._shape.xcodes)
                assert all(type(i) is int and type(j) is int for i, j in pairs)
                pairs.clear()
                again = legal_x_index_pairs(d)
                assert classified == []
                assert again is not pairs and again == list(d._shape.xcodes)
                assert all(x_pattern(i, j, d) for i, j in again)
    assert hashlib.sha256("\n".join(listed).encode()).hexdigest()[:16] == "80b9b867cf8b6fc9"


def _illegal_text(i, j, d):
    group = f"GL({d.n})" if d.family is Family.GL else f"{d.family.value}(l={d.l})"
    return f"x[{i},{j}] illegal for {group}"


# the closed forms: 2l^2, the roots of C_l and B_l; 2l(l-1), the roots of
# D_l, and for GOminus the 2(l-1)(l-2) pairs of its hyperbolic part plus
# 4(l-1) twisted pairs against e_1 and e_-1; n(n-1) for GL(n), n = l + 1
LEGAL_PAIR_COUNTS = {
    Family.GSP: lambda l: 2 * l * l,
    Family.GO_ODD: lambda l: 2 * l * l,
    Family.GO_EVEN: lambda l: 2 * l * (l - 1),
    Family.GO_MINUS: lambda l: 2 * l * (l - 1),
    Family.GL: lambda l: (l + 1) * l,
}


@pytest.mark.parametrize("fam, field", [
    (fam, field) for fam in Family for field in (Field(7), QQ) if field.is_prime or fam is not Family.GO_MINUS
], ids=lambda v: getattr(v, "value", str(v)))
def test_legal_pairs_count_the_roots(fam, field):
    for l in range(1, 9):
        d = build_descriptor(fam, l, field)
        pairs = legal_x_index_pairs(d)
        assert len(pairs) == len(set(pairs)) == LEGAL_PAIR_COUNTS[fam](l), (str(d), pairs)
        assert set(pairs) <= {(i, j) for i in d.basis_indices() for j in d.basis_indices()}


@pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
def test_every_other_basis_pair_is_illegal(fam):
    # at l <= 3, every basis pair outside the table raises the pinned text
    # through each way in: the code, the pattern, the units and a word
    for l in (1, 2, 3):
        for field in (F5, QQ):
            if fam is Family.GO_MINUS and field == QQ:
                continue
            d = build_descriptor(fam, l, field)
            legal = set(legal_x_index_pairs(d))
            idx = d.basis_indices()
            illegal = [(i, j) for i in idx for j in idx if (i, j) not in legal]
            assert len(illegal) == d.n * d.n - len(legal)
            for i, j in illegal:
                for call in (lambda: generators.x_code(i, j, d), lambda: x_pattern(i, j, d),
                             lambda: token_units(x(i, j, 1), d), lambda: Word(d, [x(i, j, 1)])):
                    with pytest.raises(IllegalToken) as err:
                        call()
                    assert str(err.value) == _illegal_text(i, j, d)


def test_each_shape_classifies_its_pairs_once(monkeypatch):
    """One classification pass per group shape: every basis pair of a shape
    is classified exactly once, when the first descriptor of the shape is
    built, and never again, however many descriptors, fields, lookups and
    refusals follow; GOplus and GOminus at l = 1, which have no legal pair,
    are no exception."""
    classified, passes = [], {}
    real = forms._x_classify

    def counting(i, j, family, epsilon):
        classified.append((family, epsilon, i, j))
        return real(i, j, family, epsilon)

    monkeypatch.setattr(forms, "_SHAPES", {})
    monkeypatch.setattr(forms, "_x_classify", counting)
    for _ in range(2):
        for fam in Family:
            for l in (1, 2, 3):
                for field in (F3, F5, Field(7), QQ):
                    if fam is Family.GO_MINUS and field == QQ:
                        continue
                    start = len(classified)
                    d = build_descriptor(fam, l, field, similitude=field == F5)
                    built = classified[start:]
                    if built:
                        assert (fam, l, d.epsilon) not in passes
                        idx = d.basis_indices()
                        assert built == [(fam, d.epsilon, i, j) for i in idx for j in idx]
                        passes[fam, l, d.epsilon] = legal_x_index_pairs(d)
                    for i, j in legal_x_index_pairs(d):
                        token_units(x(i, j, 2), d)
                        x_pattern(i, j, d)
                    for tok in (x(1, 1, 1), x(-1, -1, 1), x(1, -1, 1)):
                        if (tok.i, tok.j) not in d._xcodes:
                            with pytest.raises(IllegalToken):
                                token_units(tok, d)
                    assert len(classified) == start + len(built)
    assert len(passes) == 18  # 5 families at 3 ranks; GOminus again with epsilon 1 over F_3
    assert passes[Family.GO_EVEN, 1, None] == passes[Family.GO_MINUS, 1, 1] == passes[Family.GO_MINUS, 1, 2] == []


def test_parsing_a_word_checks_each_token_once(monkeypatch):
    # parsing checks and describes each token once, and the word built from
    # the tokens keeps those units: one token_units call per token, through
    # the word file of the CLI and through parse_word, and none more when the
    # words are evaluated
    calls = []
    real = generators.token_units

    def counting(tok, d):
        calls.append(tok)
        return real(tok, d)

    for fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS, Family.GL):
        for field in (F5, QQ):
            if fam is Family.GO_MINUS and field == QQ:
                continue
            d = build_descriptor(fam, 2, field, similitude=fam is not Family.GL)
            g = random_member(d, 5, word_len=12, with_torus=True)
            dec = decompose_gl(g) if fam is Family.GL else decompose(g, d)
            text = format_word_file(dec, d)
            monkeypatch.setattr(generators, "token_units", counting)
            calls.clear()
            left, mid, right, _ = parse_word_file(text)
            assert evaluate_word(left, mid, right) == g
            assert calls == [*left.tokens, *mid.tokens, *right.tokens] and len(calls) == len(left) + len(right) + 1
            calls.clear()
            word = parse_word(str(left), d)
            assert word.tokens == left.tokens and evaluate_word(word) == evaluate_word(left)
            assert calls == list(left.tokens)
            monkeypatch.undo()

