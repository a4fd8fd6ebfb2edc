import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from steinberg import matrix, rowops
from steinberg.field import DivisionByZero, Field, QQ
from steinberg.forms import Family, InternalError, build_descriptor
from steinberg.generators import (
    IllegalToken,
    Word,
    evaluate_word,
    legal_x_index_pairs,
    token_matrix,
    token_units,
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
from test_matrix import assert_canonical, naive_chain, rand_matrix

F5 = Field(5)
ALL = (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)


def token_entries(tok, d):
    """``(entries, den)``: the values of the token's units (:func:`token_units`)
    as storage-position ``(row, col, value)`` triples, zero values dropped
    and residues over F_p, so that the token's matrix is
    ``(den * I + entries) / den``."""
    units, u, u2, den, _ = token_units(tok, d)
    p = d.field.p
    values = [(r, c, k * (u2 if sq else u)) for r, c, k, sq in units]
    if p is not None:
        values = [(r, c, v % p) for r, c, v in values]
    return [(r, c, v) for r, c, v in values if v], den


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
    assert token_entries(tok, d) == ([], 1)
    assert token_matrix(tok, d) == Matrix.identity(F5, d.n)
    g = random_member(d, 4, word_len=5)
    assert applied(g, tok, LEFT, d) == g == applied(g, tok, RIGHT, d)
    _check_all_paths(g, tok, d)


def test_zero_coefficients_are_dropped_from_delta():
    d = build_descriptor(Family.GO_MINUS, 2, F5, similitude=True)
    tok = torus(3, 1, ts=(1, 0))  # block diag(1, -1): t - 1 and s vanish
    entries, den = token_entries(tok, d)
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


@pytest.mark.parametrize("field", [Field(3), F5, Field(7), Field(1000000007), QQ], ids=str)
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
                entries, den = token_entries(tok, d)
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
                token_units(tok, d)


def _one_entry_at_a_time(g, entries, den, side):
    """g times the delta's entries taken one at a time, each the elementary
    matrix I + (v / den) e_rc, each update reading its source as it stands
    by then: in the stored order on the columns (RIGHT), in reverse on the
    rows (LEFT).  Scalar arithmetic, independent of the library's loop."""
    f = g.field
    m = g.to_lists()
    for r, c, v in entries if side is RIGHT else reversed(entries):
        s = f.div(f.of(v), f.of(den))
        if side is RIGHT:
            for row in m:
                row[c] = f.add(row[c], f.mul(s, row[r]))
        else:
            m[r] = [f.add(a, f.mul(s, b)) for a, b in zip(m[r], m[c])]
    return Matrix(f, m)


def watch_written(monkeypatch) -> list:
    """Route the shared update loop, for the chain and the working matrix
    alike, through a check of every vector it writes: residues over F_p,
    and over Q a positive den that, from ``matrix._REDUCE_FROM`` on, has gcd
    1 with the vector (a right update's column is read from the rows it was
    written into, over its column den); and no delta handed over as
    sequential has a unit whose column is the row of a later unit.  Returns
    the list that the den of each written vector (1 over F_p) is appended to."""
    apply_delta = matrix._apply_delta
    written = []

    def checked(p, vecs, dens, delta, left=False):
        units, u, u2, _, sequential = delta
        if sequential:
            assert all(c != r for k, (_, c, _, _) in enumerate(units) for r, _, _, _ in units[k + 1:]), units
        apply_delta(p, vecs, dens, delta, left)
        for r, c, k, sq in units:
            if not k * (u2 if sq else u):
                continue  # a zero value writes nothing
            vec, at = (vecs[r], r) if left else ([row[c] for row in vecs], c)
            if p is not None:
                assert all(0 <= a < p for a in vec)
                written.append(1)
            else:
                assert dens[at] > 0
                assert dens[at] < matrix._REDUCE_FROM or math.gcd(dens[at], *vec) == 1, (dens[at], vec)
                written.append(dens[at])

    monkeypatch.setattr(matrix, "_apply_delta", checked)
    monkeypatch.setattr(rowops, "_apply_delta", checked)
    return written


@pytest.mark.parametrize("field", [Field(3), Field(7), Field(1000000007), QQ], ids=str)
def test_delta_chain_matches_the_hand_written_updates(field, monkeypatch):
    """For every family at l = 1, 2, 3 (GL up to n = 4):

    * each legal x pair's stored entries, applied one entry at a time to a
      dense member and reading every source as it stands, forwards to the
      columns and backwards to the rows, give the hand-written update from
      either side, and so does ``apply`` (a right update is written into
      the rows in place) for every token kind;
    * a word of every token kind through the chain's delta factors, and
      folded through ``apply`` on a working matrix from either side,
      against the hand-written updates folded over it, from I and from a
      member: ``evaluate_word``, the chain over token matrices and the
      scalar triple loop agree with the fold, and every result and token
      matrix is canonical;
    * every vector the shared update loop writes, for the chain and for the
      working matrix from either side alike, is residues over F_p, and over
      Q stands over a positive den that, from ``matrix._REDUCE_FROM`` on,
      has gcd 1 with it (a right update's column is read from the rows it
      was written into, over its column den), every ``Matrix`` built from
      those vectors is canonical, and every delta the loop is handed as
      sequential has no unit whose column is the row of a later unit."""
    written = watch_written(monkeypatch)
    rng = random.Random(71)
    for fam in Family:
        if fam is Family.GO_MINUS and not field.is_prime:
            continue
        for l in (1, 2, 3):
            d = build_descriptor(fam, l, field, similitude=True)
            toks = delta_tokens(d, rng)
            member = random_member(d, 2 * l, word_len=4 * l + 4, with_torus=True)
            assert {(tok.i, tok.j) for tok in toks if tok.kind == "x"} == set(legal_x_index_pairs(d))
            for tok in toks:
                for side in (LEFT, RIGHT):
                    want = oracle_apply(member, tok, side, d)
                    if tok.kind == "x":
                        assert _one_entry_at_a_time(member, *token_entries(tok, d), side) == want, (tok, side)
                    written.clear()
                    got = applied(member, tok, side, d)
                    assert got == want, (tok, side)
                    assert_canonical(got)
                    assert len(written) == len(token_entries(tok, d)[0]), (tok, side)
            toks += [rng.choice(toks) for _ in range(len(toks) // 2)]
            rng.shuffle(toks)
            word = Word(d, toks)
            mats = [token_matrix(tok, d) for tok in toks]
            for m in mats:
                assert_canonical(m)
            ident = Matrix.identity(field, d.n)
            for a in (ident, member):
                want = a
                for tok in toks:
                    want = oracle_apply(want, tok, RIGHT, d)
                written.clear()
                got = evaluate_word(Word(d, ()), a, word)
                assert written, (fam, l)
                assert got == want == Matrix._chain(a, mats) == naive_chain(a, mats), (fam, l)
                assert_canonical(got)
                if a is ident:
                    assert evaluate_word(word) == want
                for side in (LEFT, RIGHT):
                    want = a
                    b = WorkingMatrix(a, d)
                    written.clear()
                    for tok in toks:
                        want = oracle_apply(want, tok, side, d)
                        rowops.apply(b, token_units(tok, d), side)
                    assert written, (fam, l, side)
                    assert b.matrix() == want, (fam, l, side)
                    assert_canonical(b.matrix())


def test_require_zero_names_the_first_nonzero_position():
    """``require_zero`` takes storage cells, tests them in the order given
    and names the first nonzero one by its signed indices."""
    d = build_descriptor(Family.GO_ODD, 2, F5)

    def cells(pairs):
        return [(d.pos(i), d.pos(j)) for i, j in pairs]

    rows = Matrix.identity(F5, d.n).to_lists()
    rows[d.pos(-2)][d.pos(1)] = 3
    rows[d.pos(0)][d.pos(2)] = 4
    b = WorkingMatrix(Matrix(F5, rows), d)
    b.require_zero(cells([(1, 2), (-1, 1), (0, 1)]), "clean")
    with pytest.raises(InternalError, match=r"^C: entry \(-2,1\) is 3, not 0$"):
        b.require_zero(cells((-i, j) for i in (1, 2) for j in (1, 2)), "C")
    with pytest.raises(InternalError, match=r"^X: entry \(0,2\) is 4, not 0$"):
        b.require_zero(cells([(0, 1), (0, 2), (-2, 1)]), "X")
    # over Q the value is the entry over its row and column denominators
    d = build_descriptor(Family.GO_ODD, 2, QQ)
    b = WorkingMatrix(Matrix.identity(QQ, d.n), d)
    b.lmul(x(1, 0, Fraction(1, 3)))
    b.rmul(x(2, 1, Fraction(-2, 5)))
    assert (b.rden[d.pos(1)], b.cden[d.pos(-2)]) == (9, 5)
    assert (b.at(1, 0), b.at(1, -2)) == (Fraction(2, 3), Fraction(-2, 45))
    with pytest.raises(InternalError, match=r"^B: entry \(1,-2\) is -2/45, not 0$"):
        b.require_zero(cells([(2, 0), (1, -2)]), "B")


def test_first_nonzero_scans_columns_then_rows():
    d = build_descriptor(Family.GSP, 3, F5)
    rows = [[0] * d.n for _ in range(d.n)]
    for i, j in ((3, 2), (2, 3), (-3, 1)):
        rows[d.pos(i)][d.pos(j)] = 1
    b = WorkingMatrix(Matrix(F5, rows), d)
    idxs = [d.pos(i) for i in (1, 2, 3)]
    neg = [d.pos(-i) for i in (1, 2, 3)]
    assert b.first_nonzero(idxs, idxs, 0) == (2, 1)
    assert b.first_nonzero(idxs, idxs, 2) is None
    assert b.first_nonzero(neg, idxs, 0) == (2, 0)
    assert b.first_nonzero(neg, idxs, 1) is None


@pytest.mark.parametrize("field", [Field(7), Field(1000000007), QQ], ids=str)
def test_ratio_is_the_quotient_of_two_entries(field):
    """``ratio`` is None on a zero entry and otherwise at(i,j) / at(u,v),
    canonical; over Q the rows and columns carry distinct denominators."""
    rng = random.Random(5)
    d = build_descriptor(Family.GO_ODD, 2, field, similitude=True)
    b = WorkingMatrix(random_member(d, 9, word_len=6, with_torus=True), d)
    if field.p is None:
        for k in range(6):
            (b.lmul if k % 2 else b.rmul)(rng.choice(rational_tokens(d, rng)))
        assert len(set(b.rden)) > 1 and len(set(b.cden)) > 1
    b.num[d.pos(1)][d.pos(-2)] = 0  # a zero entry, over Q under its row and column dens
    assert b.ratio(1, -2, 1, 1) is None
    signed = d.basis_indices()
    zeros = 0
    for i in signed:
        for j in signed:
            for u, v in ((1, 1), (-2, 2), (i, j)):
                t = b.ratio(i, j, u, v)
                if b.at(i, j) == field.zero:
                    zeros += 1
                    assert t is None
                elif b.at(u, v) != field.zero:
                    assert t == field.div(b.at(i, j), b.at(u, v))
                    assert t == field.of(t) and type(t) is type(field.one)
    assert zeros
    # a zero pivot raises as field.div does over F_p, and as Fraction does over Q
    i, j = next((i, j) for i in signed for j in signed if b.at(i, j) != field.zero)
    with pytest.raises(DivisionByZero if field.is_prime else ZeroDivisionError) as err:
        b.ratio(i, j, 1, -2)
    if field.is_prime:
        with pytest.raises(DivisionByZero) as want:
            field.div(b.at(i, j), 0)
        assert str(err.value) == str(want.value)


def _recording(g, d):
    """A working matrix that also records every x-step it applies, as the
    token x[i,j](t), or x[i,j](-t) for a negated step."""
    class Recording(WorkingMatrix):
        def xmul(self, i, j, t, side, neg=False):
            super().xmul(i, j, t, side, neg)
            self.log.append((side, x(i, j, self.f.neg(t) if neg else t)))

    b = Recording(g, d)
    b.log = []
    return b


@pytest.mark.parametrize("field", [Field(7), Field(1000000007), QQ], ids=str)
def test_diagonalize_moves_then_clears_the_first_pivot(field):
    """A block whose first column is zero and whose first nonzero entry sits
    below the first row needs a row move and a column move.  The block rows
    1, 2, 3 of A (row steps x[dst, src](-t)) and the rows -1, -2, -3 of C
    (x[-src, -dst](t), so the move keeps its literal -1) hold the same
    entries, so both pair makers emit the same steps; the result is
    diagonal and agrees with the hand-written updates."""
    d = build_descriptor(Family.GSP, 3, field)
    rows = [[0] * d.n for _ in range(d.n)]
    for i, j, v in ((2, 3, 2), (3, 2, 1), (3, 3, 3)):
        rows[d.pos(i)][d.pos(j)] = v
        rows[d.pos(-i)][d.pos(j)] = v
    g = Matrix(field, rows)
    idxs = [1, 2, 3]
    assert WorkingMatrix(g, d).first_nonzero([d.pos(i) for i in idxs], [d.pos(j) for j in idxs], 0) == (2, 1)
    neg = field.of(-1)
    cols = [(RIGHT, x(2, 1, 1)), (RIGHT, x(1, 2, neg)), (RIGHT, x(1, 3, field.of(-3))),
            (RIGHT, x(3, 2, 1)), (RIGHT, x(2, 3, neg))]
    cases = (
        (idxs, lambda src, dst: (dst, src, True), [(LEFT, x(1, 3, 1)), (LEFT, x(3, 1, neg))]),
        ([-i for i in idxs], lambda src, dst: (-src, -dst, False), [(LEFT, x(3, 1, -1)), (LEFT, x(1, 3, 1))]),
    )
    for block_rows, row_pair, (move, clear) in cases:
        b = _recording(g, d)
        assert b.diagonalize(block_rows, idxs, row_pair) == 2
        assert b.log == [move, cols[0], clear] + cols[1:]
        assert str(b.log[0][1].t) == str(move[1].t)  # the literal, not p - 1
        for r, i in enumerate(block_rows):
            for c, j in enumerate(idxs):
                want = {0: 1, 1: 2}.get(r, 0) if r == c else 0
                assert b.at(i, j) == field.of(want)
        want = g
        for side, tok in b.log:
            want = oracle_apply(want, tok, side, d)
        assert b.matrix() == want


@pytest.mark.parametrize("field", [Field(7), Field(1000000007), QQ], ids=str)
def test_mixed_sides_never_share_a_row_list(field):
    """Updates write into the row lists in place (RIGHT always, LEFT over
    F_p), so no row may alias another: after a random mix of LEFT and RIGHT
    applications no two rows of ``num`` are one list object, the input
    ``Matrix`` is unchanged, and the working matrix is the dense product."""
    rng = random.Random(83)
    for fam in Family:
        if fam is Family.GO_MINUS and not field.is_prime:
            continue
        d = build_descriptor(fam, 3, field, similitude=True)
        g = random_member(d, 5, word_len=8, with_torus=True)
        scalars = g.to_lists()
        b = WorkingMatrix(g, d)
        want = g
        pool = delta_tokens(d, rng)
        for _ in range(40):
            tok, side = rng.choice(pool), rng.choice((LEFT, RIGHT))
            rowops.apply(b, token_units(tok, d), side)
            want = token_matrix(tok, d) @ want if side is LEFT else want @ token_matrix(tok, d)
            assert len({id(row) for row in b.num}) == d.n, (fam, tok, side)
        assert b.matrix() == want, fam
        assert g == Matrix(field, scalars) and g.to_lists() == scalars, fam


@pytest.mark.parametrize("field", [Field(3), Field(7), Field(1000000007), QQ], ids=str)
def test_units_path_matches_the_oracle_for_every_x_pair(field):
    """Every legal x pair of every family at l = 1, 2, 3 (GL up to n = 4),
    with t in {1, -1, 2, p - 1, p + 3, 1/2, -7/3} (p = 7 over Q): ``apply``,
    which reads the pair's compiled units and t as they stand, equals the
    hand-written updates from either side, and ``evaluate_word`` equals the
    triple-loop product with the dense ``token_matrix``.  Over F_3, where
    -7/3 has no value, both raise :class:`DivisionByZero` and leave the
    working matrix as it was; so does an illegal pair (IllegalToken) and a
    parameter that is no field scalar (TypeError)."""
    p = field.p or 7
    params = [1, -1, 2, p - 1, p + 3, Fraction(1, 2), Fraction(-7, 3)]
    for fam in Family:
        if fam is Family.GO_MINUS and not field.is_prime:
            continue
        for l in (1, 2, 3):
            d = build_descriptor(fam, l, field, similitude=True)
            member = random_member(d, 5 * l, word_len=4 * l + 4, with_torus=True)
            for i, j in legal_x_index_pairs(d):
                for t in params:
                    tok = x(i, j, t)
                    if field.p == 3 and t == Fraction(-7, 3):
                        _assert_refused(member, tok, d, DivisionByZero)
                        continue
                    for side in (LEFT, RIGHT):
                        assert applied(member, tok, side, d) == oracle_apply(member, tok, side, d), (tok, side)
                    word = Word(d, [tok])
                    tm = token_matrix(tok, d)
                    assert evaluate_word(word, member) == naive_chain(tm, [member]), tok
                    assert evaluate_word(Word(d, ()), member, word) == naive_chain(member, [tm]), tok
            for i, j in legal_x_index_pairs(d)[:1]:  # GOplus and GOminus at l = 1 have none
                for bad in (0.5, "1", Decimal(1)):
                    _assert_refused(member, x(i, j, bad), d, TypeError)
            _assert_refused(member, x(d.n + 1, 1, 1), d, IllegalToken)


def _assert_refused(g, tok, d, error):
    """The working matrix's ``lmul`` and ``rmul``, which describe the token
    for ``apply``, and ``evaluate_word`` raise ``error`` for tok, and the
    working matrix is left as it was."""
    for side in (LEFT, RIGHT):
        b = WorkingMatrix(g, d)
        with pytest.raises(error):
            (b.lmul if side is LEFT else b.rmul)(tok)
        assert b.matrix() == g, (tok, side)
    with pytest.raises(error):
        evaluate_word(Word._trusted(d, [tok]), g)


class _LoggedRow(list):
    """A row of integers that logs each write as (its row number, column)."""

    def __init__(self, values, at, log):
        super().__init__(values)
        self.at, self.log = at, log

    def __setitem__(self, j, v):
        self.log.append((self.at, j))
        super().__setitem__(j, v)


@pytest.mark.parametrize("field", [Field(7), Field(1000000007)], ids=str)
def test_x_codes_apply_in_one_pass(field):
    """Every x-code of every family at l = 1, 2, 3 (GL up to n = 4), for
    several parameters, through the update loop from either side on a
    member's residues: the result equals the hand-written updates and the
    triple loop with the dense token matrix, and a code of two or three
    units is applied in one pass.  Its writes sweep the rows once, in
    order, on the right, and the columns once, in order, from the left;
    the one-unit loop would sweep once per unit."""
    p = field.p
    swept = 0
    for fam in Family:
        for l in (1, 2, 3):
            d = build_descriptor(fam, l, field, similitude=True)
            member = random_member(d, 7 * l, word_len=4 * l + 4, with_torus=True)
            for i, j in legal_x_index_pairs(d):
                for t in (1, -1, 2, p - 3):
                    tok = x(i, j, t)
                    delta = token_units(tok, d)
                    units = delta[0]
                    assert 1 <= len(units) <= 3 and all(r != c for r, c, _, _ in units), tok
                    tm = token_matrix(tok, d)
                    for side in (LEFT, RIGHT):
                        log = []
                        vecs = [_LoggedRow(row, k, log) for k, row in enumerate(member.num)]
                        matrix._apply_delta(p, vecs, None, delta, side is LEFT)
                        want = naive_chain(tm, [member]) if side is LEFT else naive_chain(member, [tm])
                        assert Matrix._canonical(field, vecs) == want == oracle_apply(member, tok, side, d), (tok, side)
                        if len(units) > 1:
                            sweep = [c for _, c in log] if side is LEFT else [r for r, _ in log]
                            assert sweep == sorted(sweep), (tok, side)
                            swept += len({r for r, _ in log} if side is LEFT else {c for _, c in log}) > 1
    assert swept  # some one-pass application wrote with more than one unit


@pytest.mark.parametrize("field", [Field(7), Field(1000000007), QQ], ids=str)
def test_a_delta_is_sequential_exactly_when_its_units_lie_on_the_diagonal(field):
    """:func:`token_units` marks a non-x delta sequential exactly when all
    its units lie on the diagonal: every torus without a GOminus block, the
    GL torus and x2 are, w, x1 and a torus with a GOminus block are not.
    Each is applied in place on both sides of a working matrix through
    ``rowops.apply`` and chained through ``evaluate_word`` between other
    tokens and a matrix, and each result is the triple loop's product."""
    rng = random.Random(83)
    f = field
    lam, mu = f.of(Fraction(-3, 2)), f.of(Fraction(5, 3))
    two = f.of(2)
    cases = []  # (descriptor, token, sequential)
    for l in (2, 3):
        gsp, goplus, goodd, gl = (build_descriptor(fam, l, f, similitude=True)
                                  for fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GL))
        cases += [(gsp, torus(lam, mu), True), (goplus, torus(lam, mu), True), (goplus, w(l), False),
                  (goodd, torus(lam, f.mul(two, two), alpha=two), True), (goodd, w(l), False),
                  (gl, torus(lam, 1), True)]
        if f.is_prime:
            gominus = build_descriptor(Family.GO_MINUS, l, f, similitude=True)
            block = f.add(f.one, f.mul(gominus.epsilon, f.mul(two, two)))  # t, s = 1, 2
            cases += [(gominus, torus(lam, 1), True), (gominus, torus(lam, block, ts=(f.one, two)), False),
                      (gominus, x2(), True), (gominus, x1(*_reflection_params(gominus, f.one, two)), False),
                      (gominus, w(2), False)]
    for d, tok, sequential in cases:
        delta = token_units(tok, d)
        assert delta[4] is sequential and sequential == all(r == c for r, c, _, _ in delta[0]), tok
        tm = token_matrix(tok, d)
        g = rand_matrix(rng, f, d.n)
        for side, want in ((LEFT, naive_chain(tm, [g])), (RIGHT, naive_chain(g, [tm]))):
            b = WorkingMatrix(g, d)
            rowops.apply(b, delta, side)
            assert b.matrix() == want, (tok, side)
        step = x(*legal_x_index_pairs(d)[0], two)
        sm = token_matrix(step, d)
        got = evaluate_word(Word(d, [step, tok]), g, Word(d, [tok, tok, step]))
        assert got == naive_chain(Matrix.identity(f, d.n), [sm, tm, g, tm, tm, sm]), tok
        assert_canonical(got)


def test_token_application_reads_canonical_parameters_without_field_of(monkeypatch):
    """Over Q every x parameter the elimination applies is an int or a
    reduced Fraction, which the token's units (:func:`x_token_units`) and
    the update loop read as they stand: no ``Field.of`` call inside token
    application, the units and their in-place ``apply``, during
    ``decompose`` and ``decompose_gl``; describing the terminal torus in
    the closing check applies no token.  A Fraction over F_p is reduced
    through it, once."""
    from steinberg import eliminate, generators
    from steinberg.eliminate import decompose, decompose_gl

    calls = {"of": 0, "apply": 0}
    inside = []
    field_of = Field.of

    def of(self, v):
        calls["of"] += bool(inside)
        return field_of(self, v)

    def within(fn, name=None):
        def wrapped(*args):
            if name:
                calls[name] += 1
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapped

    monkeypatch.setattr(Field, "of", of)
    monkeypatch.setattr(rowops, "apply", within(rowops.apply, "apply"))
    x_units, units = within(generators.x_token_units), within(generators.token_units)
    monkeypatch.setattr(generators, "x_token_units", x_units)
    monkeypatch.setattr(eliminate, "x_token_units", x_units)
    describe = generators.token_units
    monkeypatch.setattr(eliminate, "token_units", lambda tok, d: (describe if tok.kind == "torus" else units)(tok, d))
    monkeypatch.setattr(rowops, "token_units", units)
    for fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GL):
        for l in (2, 4):
            d = build_descriptor(fam, l, QQ, similitude=True)
            g = random_member(d, 3 * l, word_len=4 * l + 4, with_torus=True)
            dec = decompose_gl(g) if fam is Family.GL else decompose(g, d)
            assert dec.reassemble() == g
    assert calls["apply"] > 100 and calls["of"] == 0, calls
    d = build_descriptor(Family.GSP, 2, F5)
    WorkingMatrix(Matrix.identity(F5, d.n), d).lmul(x(1, 2, Fraction(1, 2)))
    assert calls["of"] == 1


def tall_member(d, seed: int) -> Matrix:
    """A product of 8 l x-tokens of d over Q, each parameter a/b with
    |a| < 10^4 and b <= 3: small dens in the matrix, and clearing
    multipliers with dens far beyond one int digit."""
    rng = random.Random(seed)
    pairs = legal_x_index_pairs(d)
    return evaluate_word(Word(d, [
        x(*rng.choice(pairs), Fraction(rng.choice((1, -1)) * rng.randrange(1, 10**4), rng.randrange(1, 4)))
        for _ in range(8 * d.l)
    ]))


@pytest.mark.parametrize("fam", [Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GL], ids=lambda fam: fam.value)
def test_dens_crossing_one_digit_mid_elimination(fam, monkeypatch):
    """A member over Q whose den is below ``matrix._REDUCE_FROM`` while its
    elimination applies tokens whose parameters' dens are above it, so the
    written vectors cross it partway.  Every vector is reduced from there
    on (``watch_written``), ``decompose`` reassembles exactly, and the words
    and, where the family has them, the coset labels and witnesses equal
    those computed with the constant patched to 1, which reduces every
    written vector at once."""
    from steinberg.coset import coset_label
    from steinberg.eliminate import decompose, decompose_gl

    d = build_descriptor(fam, 3, QQ)
    g = tall_member(d, 1)

    def run():
        dec = decompose_gl(g) if fam is Family.GL else decompose(g, d)
        label = None if fam is Family.GL else coset_label(g, d)
        words = [list(dec.left.tokens), dec.torus_token(), list(dec.right.tokens)]
        return dec, words, label and (label.m, label.left_witness, label.right_witness)

    written = watch_written(monkeypatch)
    dec, words, label = run()
    assert dec.reassemble() == g
    dens = [Fraction(tok.t).denominator for tok in words[0] + words[2] if tok.t is not None]
    assert g.den < matrix._REDUCE_FROM <= max(dens)
    assert min(written) < matrix._REDUCE_FROM <= max(written)
    monkeypatch.setattr(matrix, "_REDUCE_FROM", 1)
    assert run()[1:] == (words, label)
