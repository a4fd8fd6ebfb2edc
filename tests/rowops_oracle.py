"""The hand-written row and column updates of every token: the oracle for
:func:`steinberg.rowops.apply`.

The library applies a token through its integer delta
(:func:`steinberg.generators.token_delta`), the same entries that build the
dense ``token_matrix``.  The updates below are written out by hand as paired
row (resp. column) operations, one case per token flavour, not derived from
either, so that agreement with them is a test rather than a tautology.
Every update reads the operand rows as they were before the operation, so
the order of the paired writes never matters.

``applied`` runs the library's in-place ``apply`` on a
:class:`WorkingMatrix` copy of a :class:`Matrix`, for tests that work with
whole matrices.
"""

from steinberg.forms import Family, GroupDescriptor
from steinberg.generators import GeneratorToken, validate_token, x_pattern
from steinberg.matrix import Matrix
from steinberg.rowops import LEFT, Side, WorkingMatrix, apply


def applied(g: Matrix, tok: GeneratorToken, side: Side, d: GroupDescriptor) -> Matrix:
    """The library's ``apply`` on a working copy of g."""
    w = WorkingMatrix(g, d)
    apply(w, tok, side)
    return w.matrix()


def oracle_apply(g: Matrix, tok: GeneratorToken, side: Side, d: GroupDescriptor) -> Matrix:
    """Multiply g by the token on the given side via the hand-written updates."""
    validate_token(tok, d)
    rows = g.to_lists()
    if side is LEFT:
        _apply_rows(rows, tok, d)
    else:
        _apply_cols(rows, tok, d)
    return Matrix(g.field, rows)


def _apply_rows(m: list, tok: GeneratorToken, d: GroupDescriptor) -> None:
    f = d.field
    pos = d.pos
    n = len(m)

    def addmul(dst: int, c, src_row: list) -> None:
        row = m[dst]
        for k in range(n):
            row[k] = f.add(row[k], f.mul(c, src_row[k]))

    if tok.kind == "x":
        t = f.of(tok.t)
        i, j = tok.i, tok.j
        pat = x_pattern(i, j, d)
        nt = f.neg(t)
        if pat == "gl":
            addmul(pos(i), t, list(m[pos(j)]))
        elif pat == "pp":
            ri, rj = list(m[pos(j)]), list(m[pos(-i)])
            addmul(pos(i), t, ri)
            addmul(pos(-j), nt, rj)
        elif pat in ("pn", "np"):
            # rows |i| and |j| change against rows -|j| and -|i|
            second = t if d.family is Family.GSP else nt
            a, b = i, j
            src1, src2 = list(m[pos(b)]), list(m[pos(-a)])
            addmul(pos(a), t, src1)
            addmul(pos(-b), second, src2)
        elif pat == "pnm":
            addmul(pos(i), t, list(m[pos(-i)]))
        elif pat == "npm":
            addmul(pos(-tok.j), t, list(m[pos(tok.j)]))
        elif pat == "i0":
            r0, rneg = list(m[pos(0)]), list(m[pos(-i)])
            addmul(pos(i), f.mul(f.of(2), t), r0)
            addmul(pos(i), f.neg(f.mul(t, t)), rneg)
            addmul(pos(0), nt, rneg)
        elif pat == "0i":
            k = tok.j
            rk, r0 = list(m[pos(k)]), list(m[pos(0)])
            addmul(pos(0), t, rk)
            addmul(pos(-k), f.neg(f.mul(f.of(2), t)), r0)
            addmul(pos(-k), f.neg(f.mul(t, t)), rk)
        elif pat == "i1":
            two_t = f.mul(f.of(2), t)
            ri, r1 = list(m[pos(i)]), list(m[pos(1)])
            addmul(pos(1), two_t, ri)
            addmul(pos(-i), f.neg(two_t), r1)
            addmul(pos(-i), f.neg(f.mul(two_t, t)), ri)
        elif pat == "1i":
            k = tok.j
            two_t = f.mul(f.of(2), t)
            r1, rneg = list(m[pos(1)]), list(m[pos(-k)])
            addmul(pos(k), two_t, r1)
            addmul(pos(k), f.neg(f.mul(two_t, t)), rneg)
            addmul(pos(1), f.neg(two_t), rneg)
        elif pat == "in1":
            two_t = f.mul(f.of(2), t)
            eps = d.epsilon
            ri, rm1 = list(m[pos(i)]), list(m[pos(-1)])
            addmul(pos(-1), two_t, ri)
            addmul(pos(-i), f.neg(f.mul(eps, two_t)), rm1)
            addmul(pos(-i), f.neg(f.mul(eps, f.mul(two_t, t))), ri)
        elif pat == "n1i":
            k = tok.j
            two_t = f.mul(f.of(2), t)
            eps = d.epsilon
            rm1, rneg = list(m[pos(-1)]), list(m[pos(-k)])
            addmul(pos(k), f.mul(eps, two_t), rm1)
            addmul(pos(k), f.neg(f.mul(eps, f.mul(two_t, t))), rneg)
            addmul(pos(-1), f.neg(two_t), rneg)
        return
    if tok.kind == "w":
        i, ni = pos(tok.i), pos(-tok.i)
        ri, rni = m[i], m[ni]
        m[i] = [f.neg(v) for v in rni]
        m[ni] = [f.neg(v) for v in ri]
        return
    if tok.kind == "x1":
        t, s = f.of(tok.t), f.of(tok.s)
        eps = d.epsilon
        p1, n1 = pos(1), pos(-1)
        r1, rn1 = m[p1], m[n1]
        m[p1] = [f.add(f.mul(t, a), f.mul(f.mul(eps, s), b)) for a, b in zip(r1, rn1)]
        m[n1] = [f.sub(f.mul(s, a), f.mul(t, b)) for a, b in zip(r1, rn1)]
        return
    if tok.kind == "x2":
        n1 = pos(-1)
        m[n1] = [f.neg(v) for v in m[n1]]
        return
    # torus: scale rows by the diagonal, mixing rows 1/-1 through the block
    diag = _torus_diag(tok, d)
    for k, c in enumerate(diag):
        if c is not None and c != f.one:
            m[k] = [f.mul(c, v) for v in m[k]]
    if d.family is Family.GO_MINUS and tok.t is not None:
        t, s = f.of(tok.t), f.of(tok.s)
        eps = d.epsilon
        p1, n1 = pos(1), pos(-1)
        r1, rn1 = m[p1], m[n1]
        m[p1] = [f.add(f.mul(t, a), f.mul(f.mul(eps, s), b)) for a, b in zip(r1, rn1)]
        m[n1] = [f.sub(f.mul(s, a), f.mul(t, b)) for a, b in zip(r1, rn1)]


def _apply_cols(m: list, tok: GeneratorToken, d: GroupDescriptor) -> None:
    f = d.field
    pos = d.pos
    nrows = len(m)

    def addmul(dst: int, c, src_col: list) -> None:
        for r in range(nrows):
            m[r][dst] = f.add(m[r][dst], f.mul(c, src_col[r]))

    def col(k: int) -> list:
        return [m[r][k] for r in range(nrows)]

    if tok.kind == "x":
        t = f.of(tok.t)
        i, j = tok.i, tok.j
        pat = x_pattern(i, j, d)
        nt = f.neg(t)
        if pat == "gl":
            addmul(pos(j), t, col(pos(i)))
        elif pat == "pp":
            ci, cnj = col(pos(i)), col(pos(-j))
            addmul(pos(j), t, ci)
            addmul(pos(-i), nt, cnj)
        elif pat in ("pn", "np"):
            second = t if d.family is Family.GSP else nt
            a, b = i, j
            src1, src2 = col(pos(a)), col(pos(-b))
            addmul(pos(b), t, src1)
            addmul(pos(-a), second, src2)
        elif pat == "pnm":
            addmul(pos(-tok.i), t, col(pos(tok.i)))
        elif pat == "npm":
            addmul(pos(tok.j), t, col(pos(-tok.j)))
        elif pat == "i0":
            ci, c0 = col(pos(i)), col(pos(0))
            addmul(pos(0), f.mul(f.of(2), t), ci)
            addmul(pos(-i), nt, c0)
            addmul(pos(-i), f.neg(f.mul(t, t)), ci)
        elif pat == "0i":
            k = tok.j
            cneg, c0 = col(pos(-k)), col(pos(0))
            addmul(pos(0), f.neg(f.mul(f.of(2), t)), cneg)
            addmul(pos(k), t, c0)
            addmul(pos(k), f.neg(f.mul(t, t)), cneg)
        elif pat == "i1":
            two_t = f.mul(f.of(2), t)
            c1, cneg = col(pos(1)), col(pos(-i))
            addmul(pos(i), two_t, c1)
            addmul(pos(i), f.neg(f.mul(two_t, t)), cneg)
            addmul(pos(1), f.neg(two_t), cneg)
        elif pat == "1i":
            k = tok.j
            two_t = f.mul(f.of(2), t)
            ck, c1 = col(pos(k)), col(pos(1))
            addmul(pos(1), two_t, ck)
            addmul(pos(-k), f.neg(two_t), c1)
            addmul(pos(-k), f.neg(f.mul(two_t, t)), ck)
        elif pat == "in1":
            two_t = f.mul(f.of(2), t)
            eps = d.epsilon
            cm1, cneg = col(pos(-1)), col(pos(-i))
            addmul(pos(i), two_t, cm1)
            addmul(pos(i), f.neg(f.mul(eps, f.mul(two_t, t))), cneg)
            addmul(pos(-1), f.neg(f.mul(eps, two_t)), cneg)
        elif pat == "n1i":
            k = tok.j
            two_t = f.mul(f.of(2), t)
            eps = d.epsilon
            ck, cm1 = col(pos(k)), col(pos(-1))
            addmul(pos(-1), f.mul(eps, two_t), ck)
            addmul(pos(-k), f.neg(two_t), cm1)
            addmul(pos(-k), f.neg(f.mul(eps, f.mul(two_t, t))), ck)
        return
    if tok.kind == "w":
        i, ni = pos(tok.i), pos(-tok.i)
        for r in range(nrows):
            a, b = m[r][i], m[r][ni]
            m[r][i] = f.neg(b)
            m[r][ni] = f.neg(a)
        return
    if tok.kind == "x1":
        t, s = f.of(tok.t), f.of(tok.s)
        eps = d.epsilon
        p1, n1 = pos(1), pos(-1)
        for r in range(nrows):
            a, b = m[r][p1], m[r][n1]
            m[r][p1] = f.add(f.mul(t, a), f.mul(s, b))
            m[r][n1] = f.sub(f.mul(f.mul(eps, s), a), f.mul(t, b))
        return
    if tok.kind == "x2":
        n1 = pos(-1)
        for r in range(nrows):
            m[r][n1] = f.neg(m[r][n1])
        return
    diag = _torus_diag(tok, d)
    for k, c in enumerate(diag):
        if c is not None and c != f.one:
            for r in range(nrows):
                m[r][k] = f.mul(m[r][k], c)
    if d.family is Family.GO_MINUS and tok.t is not None:
        t, s = f.of(tok.t), f.of(tok.s)
        eps = d.epsilon
        p1, n1 = pos(1), pos(-1)
        for r in range(nrows):
            a, b = m[r][p1], m[r][n1]
            m[r][p1] = f.add(f.mul(t, a), f.mul(s, b))
            m[r][n1] = f.sub(f.mul(f.mul(eps, s), a), f.mul(t, b))


def _torus_diag(tok: GeneratorToken, d: GroupDescriptor) -> list:
    """Per-position scale factors of a torus token; None marks the twisted
    2x2 block positions, which are handled separately."""
    f = d.field
    lam, mu = f.of(tok.lam), f.of(tok.mu)
    out: list = [f.one] * d.n
    if d.family is Family.GL:
        out[d.n - 1] = lam
        return out
    if d.family is Family.GO_ODD:
        out[d.pos(0)] = f.of(tok.alpha)
    if d.family is Family.GO_MINUS:
        if tok.t is not None:
            out[d.pos(1)] = None
            out[d.pos(-1)] = None
    block = d.block_indices()
    for k, i in enumerate(block):
        last = k == len(block) - 1
        out[d.pos(i)] = lam if last else f.one
        out[d.pos(-i)] = f.div(mu, lam) if last else mu
    return out
