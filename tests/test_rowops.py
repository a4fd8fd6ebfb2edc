import math
import random
from fractions import Fraction

import pytest

from steinberg import matrix
from steinberg.field import Field, QQ
from steinberg.forms import Family, InternalError, build_descriptor
from steinberg.generators import (
    IllegalToken,
    Word,
    evaluate_word,
    legal_x_index_pairs,
    token_delta,
    token_matrix,
    torus,
    w,
    x,
    x1,
    x2,
)
from steinberg.harness import _reflection_params, random_member
from steinberg.matrix import Matrix
from steinberg.rowops import LEFT, RIGHT, WorkingMatrix

from rowops_oracle import applied, oracle_apply
from test_matrix import assert_canonical, naive_chain

F5 = Field(5)
ALL = (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)


def all_tokens(d, rng):
    p = d.field.p
    toks = [x(i, j, rng.randrange(1, p)) for (i, j) in legal_x_index_pairs(d)]
    if d.family in (Family.GO_EVEN, Family.GO_ODD):
        toks.append(w(d.l))
    if d.family is Family.GO_MINUS:
        toks += [w(i) for i in range(2, d.l + 1)]
        toks.append(x2())
        eps = d.epsilon
        toks += [
            x1(t, s)
            for t in range(p)
            for s in range(p)
            if (t * t + eps * s * s) % p == 1
        ][:3]
        lam = 1 if d.l == 1 else 2  # rank 1 carries no lambda slot
        toks.append(torus(lam, 1))
        mu = (1 + eps) % p  # block (1,1): t^2 + eps s^2
        if mu:
            toks.append(torus(lam, mu, ts=(1, 1)))
    elif d.family is Family.GO_ODD:
        alpha = 2
        toks.append(torus(2, 4 % p, alpha=alpha))
    else:
        toks.append(torus(2, 2))
    return toks


def _check_all_paths(g, tok, d):
    tm = token_matrix(tok, d)
    assert applied(g, tok, LEFT, d) == tm @ g == oracle_apply(g, tok, LEFT, d), f"left {tok}"
    assert applied(g, tok, RIGHT, d) == g @ tm == oracle_apply(g, tok, RIGHT, d), f"right {tok}"


def test_identity_input_reproduces_token():
    d = build_descriptor(Family.GO_ODD, 2, F5)
    ident = Matrix.identity(F5, d.n)
    for tok in (x(1, 2, 3), x(1, 0, 2), x(0, 2, 4), w(2)):
        assert applied(ident, tok, LEFT, d) == token_matrix(tok, d)
        assert applied(ident, tok, RIGHT, d) == token_matrix(tok, d)
        assert oracle_apply(ident, tok, LEFT, d) == token_matrix(tok, d)


def test_left_action_touches_exactly_two_rows():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    g = random_member(d, 3, word_len=6)
    out = applied(g, x(1, 2, 2), LEFT, d)
    changed = {r for r in range(4) if out.row(r) != g.row(r)}
    assert changed <= {d.pos(1), d.pos(-2)}
    assert d.pos(1) in changed


def test_twisted_swap_interchanges_rows():
    d = build_descriptor(Family.GO_MINUS, 2, F5)
    g = random_member(d, 1, word_len=5)
    out = applied(g, w(2), LEFT, d)
    f = d.field
    assert out.row(d.pos(2)) == tuple(f.neg(v) for v in g.row(d.pos(-2)))
    assert out.row(d.pos(-2)) == tuple(f.neg(v) for v in g.row(d.pos(2)))


@pytest.mark.parametrize("family", ALL)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_apply_equals_product_on_members(family, p):
    """The module's defining property: in-place path == explicit product
    == the hand-written paired updates."""
    field = Field(p)
    rng = random.Random(p * 31 + list(Family).index(family))
    for l in (1, 2, 3):
        d = build_descriptor(family, l, field, similitude=True)
        for tok in all_tokens(d, rng):
            g = random_member(d, rng.randrange(10**6), word_len=4, with_torus=True)
            _check_all_paths(g, tok, d)


def rational_tokens(d, rng):
    """Every legal x with a parameter over 1..7, w[l] where it is legal, and
    a torus element with rational lambda and mu (alpha for GOodd)."""
    def q():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 7))

    toks = [x(i, j, q()) for (i, j) in legal_x_index_pairs(d)]
    if d.family in (Family.GO_EVEN, Family.GO_ODD):
        toks.append(w(d.l))
    if d.family is Family.GO_ODD:
        alpha = q()
        toks.append(torus(q(), alpha * alpha, alpha=alpha))
    else:
        toks.append(torus(q(), q()))
    return toks


def test_apply_equals_product_over_q():
    rng = random.Random(9)
    for family in (Family.GSP, Family.GO_EVEN, Family.GO_ODD):
        d = build_descriptor(family, 2, QQ, similitude=True)
        toks = [x(i, j, Fraction(rng.randint(-3, 3) or 1, rng.choice([1, 2])))
                for (i, j) in legal_x_index_pairs(d)]
        for tok in toks + rational_tokens(d, rng):
            g = random_member(d, 7, word_len=4)
            _check_all_paths(g, tok, d)


@pytest.mark.parametrize("family", (Family.GSP, Family.GO_EVEN, Family.GO_ODD))
@pytest.mark.parametrize("l", [2, 3])
def test_token_sequences_over_q_on_one_working_matrix(family, l):
    """Row and column denominators drift apart over a mixed sequence; every
    snapshot and every read must still be the dense product's."""
    rng = random.Random(l * 10 + list(Family).index(family))
    d = build_descriptor(family, l, QQ, similitude=True)
    g = random_member(d, l, word_len=4 * l, with_torus=True)
    wm = WorkingMatrix(g, d)
    signed = d.basis_indices()
    pool = rational_tokens(d, rng)
    for _ in range(30):
        tok = rng.choice(pool)
        if rng.random() < 0.5:
            wm.lmul(tok)
            g = token_matrix(tok, d) @ g
        else:
            wm.rmul(tok)
            g = g @ token_matrix(tok, d)
        snap = wm.matrix()
        assert snap == g, tok
        assert_canonical(snap)
        for r, i in enumerate(signed):
            for c, j in enumerate(signed):
                assert wm.at(i, j) == snap[r, c], (tok, i, j)


def test_working_matrix_over_q_builds_no_fraction_per_entry(monkeypatch):
    import steinberg.rowops as rowops

    rng = random.Random(41)
    d = build_descriptor(Family.GO_ODD, 4, QQ, similitude=True)
    g = random_member(d, 3, word_len=20, with_torus=True)
    pool = rational_tokens(d, rng)
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(rowops, "Fraction", Counting)
    wm = WorkingMatrix(g, d)
    for k in range(20):
        (wm.lmul if k % 2 else wm.rmul)(rng.choice(pool))
    snap = wm.matrix()
    assert made == []
    assert wm.at(1, 1) == snap[d.pos(1), d.pos(1)]
    assert len(made) == 1


def test_gl_transvection_action():
    d = build_descriptor(Family.GL, 2, F5)
    g = Matrix(F5, [[1, 2, 0], [3, 1, 1], [2, 0, 4]])
    tok = x(1, 3, 2)
    _check_all_paths(g, tok, d)


def test_empty_delta_leaves_matrix_unchanged():
    d = build_descriptor(Family.GO_MINUS, 1, F5)
    tok = torus(1, 1)
    assert token_delta(tok, d) == ([], 1)
    assert token_matrix(tok, d) == Matrix.identity(F5, d.n)
    g = random_member(d, 4, word_len=5)
    assert applied(g, tok, LEFT, d) == g == applied(g, tok, RIGHT, d)
    _check_all_paths(g, tok, d)


def test_zero_coefficients_are_dropped_from_delta():
    d = build_descriptor(Family.GO_MINUS, 2, F5, similitude=True)
    tok = torus(3, 1, ts=(1, 0))  # block diag(1, -1): t - 1 and s vanish
    entries, den = token_delta(tok, d)
    assert den == 1
    assert all(v != 0 for _, _, v in entries)
    ident = Matrix.identity(F5, d.n)
    dense = {(r, c): v for r in range(d.n) for c in range(d.n)
             if (v := F5.sub(token_matrix(tok, d)[r, c], ident[r, c])) != 0}
    assert {(r, c): v for r, c, v in entries} == dense
    assert len(entries) == 3  # the -1 corner, lambda - 1 and 1/lambda - 1
    _check_all_paths(random_member(d, 2, word_len=6, with_torus=True), tok, d)


def delta_tokens(d, rng):
    """Every token kind of the family: each legal x pair (rational over Q),
    x with t = 0, w, x1, x2 and tori with and without the twisted block."""
    f = d.field

    def scalar():
        if f.is_prime:
            return rng.randrange(1, f.p)
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 7))

    pairs = legal_x_index_pairs(d)
    toks = [x(i, j, scalar()) for i, j in pairs] + [x(i, j, 0) for i, j in pairs[-1:]]
    if d.family in (Family.GO_EVEN, Family.GO_ODD):
        toks.append(w(d.l))
    if d.family is Family.GO_MINUS:
        toks += [w(i) for i in range(2, d.l + 1)] + [x2(), x1(*_reflection_params(d, scalar(), scalar()))]
        lam, v1, v2 = 1 if d.l == 1 else scalar(), scalar(), scalar()  # rank 1 carries no lambda slot
        toks += [torus(lam, 1), torus(lam, f.add(f.mul(v1, v1), f.mul(d.epsilon, f.mul(v2, v2))), ts=(v1, v2))]
    elif d.family is Family.GO_ODD:
        alpha = scalar()
        toks.append(torus(scalar(), f.mul(alpha, alpha), alpha=alpha))
    elif d.family is Family.GL:
        toks.append(torus(scalar(), 1))
    else:
        toks.append(torus(scalar(), scalar()))
    return toks


@pytest.mark.parametrize("field", [F5, Field(1000000007), QQ], ids=str)
def test_delta_is_the_token_over_one_integer_denominator(field):
    """The delta contract for every token kind: den * I + entries over den
    is the token's matrix and the hand-written update of I; entries sit at
    distinct positions, are integers and never zero; den is positive, 1 over
    F_p with residue values, and b or b^2 for an x-token with t = a/b."""
    rng = random.Random(5)
    for fam in Family:
        if fam is Family.GO_MINUS and not field.is_prime:
            continue
        for l in (1, 2, 3):
            d = build_descriptor(fam, l, field, similitude=True)
            ident = Matrix.identity(field, d.n)
            for tok in delta_tokens(d, rng):
                entries, den = token_delta(tok, d)
                dense = [[den * (r == c) for c in range(d.n)] for r in range(d.n)]
                for r, c, v in entries:
                    dense[r][c] += v
                want = oracle_apply(ident, tok, RIGHT, d)
                assert Matrix._normal(field, dense, den) == token_matrix(tok, d) == want, tok
                assert len({(r, c) for r, c, _ in entries}) == len(entries)
                assert all(type(v) is int and v != 0 for _, _, v in entries) and den > 0
                if field.is_prime:
                    assert den == 1 and all(0 < v < field.p for _, _, v in entries)
                elif tok.kind == "x":
                    assert den in (tok.t.denominator, tok.t.denominator ** 2)
                if tok.kind == "x" and tok.t == 0:
                    assert entries == []
    for d, tok in (
        (build_descriptor(Family.GO_EVEN, 2, F5), x(1, -1, 1)),
        (build_descriptor(Family.GO_EVEN, 2, QQ), x(2, -1, Fraction(1, 2))),
        (build_descriptor(Family.GO_EVEN, 2, F5), w(1)),
        (build_descriptor(Family.GSP, 2, F5), x2()),
        (build_descriptor(Family.GL, 1, F5), x(1, 3, 1)),
    ):
        for _ in range(2):  # an illegal token raises on every call, not only the first
            with pytest.raises(IllegalToken):
                token_delta(tok, d)


@pytest.mark.parametrize("field", [Field(7), Field(1000000007), QQ], ids=str)
def test_delta_chain_matches_the_hand_written_updates(field, monkeypatch):
    """A word of every token kind through the chain's delta factors against
    the hand-written column updates folded over it, from I and from a
    member: ``evaluate_word``, the chain over token matrices and the scalar
    triple loop agree with the fold, every result and token matrix is
    canonical, and every column the chain writes is reduced at once (mod p,
    or by its own gcd)."""
    combine = matrix._combine

    def reduced(p, terms, bden, m):
        col, den = combine(p, terms, bden, m)
        if not (len(terms) == 1 and col is terms[0][1]):  # a column passed through is not written
            assert den == 1 and all(0 <= v < p for v in col) if p else den > 0 and math.gcd(den, *col) == 1
        return col, den

    monkeypatch.setattr(matrix, "_combine", reduced)
    rng = random.Random(71)
    for fam in Family:
        if fam is Family.GO_MINUS and not field.is_prime:
            continue
        for l in (2, 3):
            d = build_descriptor(fam, l, field, similitude=True)
            toks = delta_tokens(d, rng)
            toks += [rng.choice(toks) for _ in range(len(toks) // 2)]
            rng.shuffle(toks)
            word = Word(d, toks)
            mats = [token_matrix(tok, d) for tok in toks]
            for m in mats:
                assert_canonical(m)
            ident = Matrix.identity(field, d.n)
            for a in (ident, random_member(d, l, word_len=6, with_torus=True)):
                want = a
                for tok in toks:
                    want = oracle_apply(want, tok, RIGHT, d)
                got = evaluate_word(Word(d, ()), a, word)
                assert got == want == Matrix._chain(a, mats) == naive_chain(a, mats), (fam, l)
                assert_canonical(got)
                if a is ident:
                    assert evaluate_word(word) == want


def test_require_zero_names_the_first_nonzero_position():
    d = build_descriptor(Family.GO_ODD, 2, F5)
    rows = Matrix.identity(F5, d.n).to_lists()
    rows[d.pos(-2)][d.pos(1)] = 3
    rows[d.pos(0)][d.pos(2)] = 4
    b = WorkingMatrix(Matrix(F5, rows), d)
    b.require_zero([(1, 2), (-1, 1), (0, 1)], "clean")
    with pytest.raises(InternalError, match=r"^C: entry \(-2,1\) is 3, not 0$"):
        b.require_zero(((-i, j) for i in (1, 2) for j in (1, 2)), "C")
    with pytest.raises(InternalError, match=r"^X: entry \(0,2\) is 4, not 0$"):
        b.require_zero([(0, 1), (0, 2), (-2, 1)], "X")
    # over Q the value is the entry over its row and column denominators
    d = build_descriptor(Family.GO_ODD, 2, QQ)
    b = WorkingMatrix(Matrix.identity(QQ, d.n), d)
    b.lmul(x(1, 0, Fraction(1, 3)))
    b.rmul(x(2, 1, Fraction(-2, 5)))
    assert (b.rden[d.pos(1)], b.cden[d.pos(-2)]) == (9, 5)
    assert (b.at(1, 0), b.at(1, -2)) == (Fraction(2, 3), Fraction(-2, 45))
    with pytest.raises(InternalError, match=r"^B: entry \(1,-2\) is -2/45, not 0$"):
        b.require_zero([(2, 0), (1, -2)], "B")


def test_first_nonzero_scans_columns_then_rows():
    d = build_descriptor(Family.GSP, 3, F5)
    rows = [[0] * d.n for _ in range(d.n)]
    for i, j in ((3, 2), (2, 3), (-3, 1)):
        rows[d.pos(i)][d.pos(j)] = 1
    b = WorkingMatrix(Matrix(F5, rows), d)
    idxs = [1, 2, 3]
    assert b.first_nonzero(idxs, idxs, 0) == (2, 1)
    assert b.first_nonzero(idxs, idxs, 2) is None
    assert b.first_nonzero([-i for i in idxs], idxs, 0) == (2, 0)
    assert b.first_nonzero([-i for i in idxs], idxs, 1) is None
