"""Gaussian elimination inside the group: element -> word * diagonal * word.

Elimination works in place on one :class:`steinberg.rowops.WorkingMatrix`:
every multiplier is an elementary token applied to the rows or columns it
moves, through the same sparse delta that builds its dense matrix.  The
inverse tokens are collected so that
``evaluate(left) @ diagonal @ evaluate(right)`` equals the input exactly.
The flow per family:

* block A is diagonalised by paired row/column additions (with a fixed
  pivot rule: first nonzero scanning rows top-to-bottom inside a column,
  columns left-to-right), normalised to diag(1,..,1,lambda) or
  diag(1,..,1,0,..,0);
* the stray blocks (X and E where present) are cleared against the pivots;
* the lower-left block C is cleared in (i,j)/(j,i) pairs, one token per
  pair - the form equation guarantees the partner entry dies with it;
* rank-deficient A swaps its zero rows against C rows and the pass repeats
  (at most once);
* B is cleared the same way, and GSp reduces lambda out of the torus while
  the orthogonal families keep it (the spinor norm reads it off).

The optional ``observer(phase, matrix)`` callback fires at phase boundaries
with a :class:`Matrix` snapshot of the working matrix, so tests can pin the
intermediate shapes; the phases are "A-diagonalized",
"X-E-cleared" (odd/twisted), "interchanged" (rank-deficient passes),
"C-cleared", "B-cleared", "torus-reduced" (GSp), "terminal-block"
(twisted) and "done".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import rowops
from .field import Scalar
from .forms import (
    Family,
    GroupDescriptor,
    InternalError,
    NotInGroup,
    UnsupportedFamily,
    build_descriptor,
    multiplier,
)
from .generators import (
    GeneratorToken,
    Word,
    canonical_token,
    derived_h,
    derived_w,
    evaluate_word,
    token_inverse,
    token_matrix,
    torus,
    w,
    x,
    x1,
    x2,
)
from .matrix import Matrix, SingularMatrix

Observer = Callable[[str, Matrix], None]


@dataclass(frozen=True)
class Decomposition:
    """g = evaluate(left) @ diagonal @ evaluate(right), exactly."""

    descriptor: GroupDescriptor
    left: Word
    right: Word
    diagonal: Matrix
    lam: Scalar
    mu: Scalar
    alpha: Scalar | None
    block: tuple | None  # GOminus terminal 2x2 block params (t, s), if any
    op_count: int

    def torus_token(self) -> GeneratorToken:
        return torus(self.lam, self.mu, alpha=self.alpha, ts=self.block)

    def as_word(self) -> Word:
        return Word(
            self.descriptor,
            self.left.tokens + (self.torus_token(),) + self.right.tokens,
        )

    def reassemble(self) -> Matrix:
        return evaluate_word(self.left) @ self.diagonal @ evaluate_word(self.right)


class _Bench(rowops.WorkingMatrix):
    """Elimination state: the working matrix plus the two inverse words."""

    def __init__(self, g: Matrix, d: GroupDescriptor, observer: Observer | None):
        super().__init__(g, d)
        self.left: list = []
        self.right: list = []
        self.ops = 0
        self.observer = observer

    def lmul(self, tok: GeneratorToken) -> None:
        super().lmul(tok)
        self.left.append(canonical_token(token_inverse(tok), self.d))
        self.ops += 1

    def rmul(self, tok: GeneratorToken) -> None:
        super().rmul(tok)
        self.right.append(canonical_token(token_inverse(tok), self.d))
        self.ops += 1

    def lmul_word(self, word: Word) -> None:
        for tok in reversed(word.tokens):
            self.lmul(tok)

    def emit(self, phase: str) -> None:
        if self.observer is not None:
            self.observer(phase, self.matrix())

    def finish(self, lam: Scalar, mu: Scalar, alpha, block) -> Decomposition:
        d = self.d
        dec = Decomposition(
            descriptor=d,
            left=Word(d, self.left),
            right=Word(d, tuple(reversed(self.right))),
            diagonal=self.matrix(),
            lam=lam,
            mu=mu,
            alpha=alpha,
            block=block,
            op_count=self.ops,
        )
        # the terminal matrix must literally be the claimed torus element
        if dec.diagonal != token_matrix(dec.torus_token(), d):
            raise InternalError(f"terminal matrix is not {dec.torus_token()}")
        return dec


# ---------------------------------------------------------------------------
# block-A diagonalisation, shared by every family


def _find_pivot(b: _Bench, idxs: list, k: int):
    for c in range(k, len(idxs)):
        for r in range(k, len(idxs)):
            if b.at(idxs[r], idxs[c]) != b.f.zero:
                return r, c
    return None


def _diagonalize_block(b: _Bench, idxs: list) -> int:
    """Bring the square block on ``idxs`` to diag(1,..,1,lambda) or
    diag(1,..,1,0,..,0) using only index-pair additions; returns the rank."""
    f = b.f
    size = len(idxs)
    m = size
    for k in range(size):
        piv = _find_pivot(b, idxs, k)
        if piv is None:
            m = k
            break
        r, c = piv
        u = idxs[k]
        if r != k and b.at(u, idxs[c]) == f.zero:
            b.lmul(x(u, idxs[r], 1))
        if c != k and b.at(u, u) == f.zero:
            b.rmul(x(idxs[c], u, 1))
        pivot = b.at(u, u)
        assert pivot != f.zero
        for rr in range(size):
            v = idxs[rr]
            if v != u and b.at(v, u) != f.zero:
                b.lmul(x(v, u, f.neg(f.div(b.at(v, u), pivot))))
        for cc in range(size):
            v = idxs[cc]
            if v != u and b.at(u, v) != f.zero:
                b.rmul(x(u, v, f.neg(f.div(b.at(u, v), pivot))))
    _normalize_pivots(b, idxs, m)
    return m


def _normalize_pivots(b: _Bench, idxs: list, m: int) -> None:
    """Sweep diag(d_1..d_m) to diag(1,..,1,prod) (full rank) or all ones."""
    f = b.f
    if m == 0:
        return
    if m == len(idxs):
        for k in range(m - 1):
            u, v = idxs[k], idxs[k + 1]
            a, c = b.at(u, u), b.at(v, v)
            if a == f.one:
                continue
            b.lmul(x(u, v, f.inv(c)))
            b.rmul(x(v, u, f.neg(a)))
            b.lmul(x(v, u, f.neg(c)))
            b.rmul(x(v, u, 1))
            b.lmul(x(v, u, f.mul(a, c)))
            b.rmul(x(u, v, -1))
        return
    v = idxs[m]  # a zero column to play against
    for k in range(m):
        u = idxs[k]
        a = b.at(u, u)
        if a == f.one:
            continue
        b.rmul(x(u, v, f.inv(a)))
        b.rmul(x(v, u, f.sub(f.one, a)))
        b.rmul(x(u, v, -1))


# ---------------------------------------------------------------------------
# shared clearing passes


def _clear_C(b: _Bench, active: list) -> None:
    """Kill the lower-left block over the invertible pivot columns.

    ``active`` holds the block indices with nonzero pivots.  One token per
    symmetric pair; the partner entry vanishes by the form equation, which
    is asserted rather than recleared.
    """
    f = b.f
    sp = b.d.family is Family.GSP
    if sp:
        for i in active:
            t = b.at(-i, i)
            if t != f.zero:
                b.lmul(x(-i, i, f.neg(f.div(t, b.at(i, i)))))
    for ai in range(len(active)):
        for aj in range(ai + 1, len(active)):
            i, j = active[ai], active[aj]
            cij = b.at(-i, j)
            if cij != f.zero:
                b.lmul(x(-i, j, f.neg(f.div(cij, b.at(j, j)))))
            assert b.at(-i, j) == f.zero and b.at(-j, i) == f.zero
        if not sp:
            assert b.at(-active[ai], active[ai]) == f.zero


def _assert_swap_ready(b: _Bench, active: list) -> None:
    """Before an interchange, the C rows over the pivots must be fully zero
    (the cleared square block plus the form-forced tail)."""
    f = b.f
    for i in active:
        for j in b.d.block_indices():
            assert b.at(-i, j) == f.zero


def _clear_B(b: _Bench, idxs: list, mu: Scalar) -> None:
    f = b.f
    sp = b.d.family is Family.GSP
    if sp:
        for i in idxs:
            t = b.at(i, -i)
            if t != f.zero:
                b.lmul(x(i, -i, f.neg(f.div(f.mul(t, b.at(i, i)), mu))))
    for ai in range(len(idxs)):
        for aj in range(ai + 1, len(idxs)):
            i, j = idxs[ai], idxs[aj]
            bij = b.at(i, -j)
            if bij != f.zero:
                b.lmul(x(i, -j, f.neg(f.div(f.mul(bij, b.at(j, j)), mu))))
            assert b.at(i, -j) == f.zero and b.at(j, -i) == f.zero
        if not sp:
            assert b.at(idxs[ai], -idxs[ai]) == f.zero


# ---------------------------------------------------------------------------
# per-family flows


def _run_even(b: _Bench, mu: Scalar) -> None:
    """GSp(2l) and GOplus(2l)."""
    d = b.d
    idxs = d.block_indices()
    l = d.l
    rounds = 0
    while True:
        m = _diagonalize_block(b, idxs)
        b.emit("A-diagonalized")
        _clear_C(b, idxs[:m])
        if m == l:
            break
        rounds += 1
        assert rounds < 2, "rank recovery must finish in one interchange pass"
        _assert_swap_ready(b, idxs[:m])
        for i in idxs[m:]:
            b.lmul_word(derived_w(i, d))
        b.emit("interchanged")
    b.emit("C-cleared")
    _assert_lower_cleared(b, mu)
    _clear_B(b, idxs, mu)
    b.emit("B-cleared")


def _run_odd(b: _Bench, mu: Scalar) -> None:
    """GOodd(2l+1)."""
    d = b.d
    f = b.f
    idxs = d.block_indices()
    l = d.l
    rounds = 0
    while True:
        m = _diagonalize_block(b, idxs)
        b.emit("A-diagonalized")
        for i in idxs[:m]:
            xi = b.at(0, i)
            if xi != f.zero:
                b.lmul(x(0, i, f.neg(f.div(xi, b.at(i, i)))))
        for i in idxs[:m]:
            ei = b.at(i, 0)
            if ei != f.zero:
                b.rmul(x(i, 0, f.neg(f.div(ei, f.mul(f.of(2), b.at(i, i))))))
        b.emit("X-E-cleared")
        for i in idxs[m:]:
            assert b.at(0, i) == f.zero  # tail of X dies by the form equation
        _clear_C(b, idxs[:m])
        if m == l:
            break
        rounds += 1
        assert rounds < 2
        _assert_swap_ready(b, idxs[:m])
        for i in idxs[m:]:
            b.lmul_word(derived_w(i, d))
        b.emit("interchanged")
    b.emit("C-cleared")
    # with X, E, C gone the form forces the rest (alpha^2=mu, F=0=Y)
    alpha = b.at(0, 0)
    assert f.mul(alpha, alpha) == mu
    for i in idxs:
        assert b.at(-i, 0) == f.zero and b.at(0, -i) == f.zero
    _assert_lower_cleared(b, mu)
    _clear_B(b, idxs, mu)
    b.emit("B-cleared")


def _run_twisted(b: _Bench, mu: Scalar) -> tuple:
    """GOminus(2l); returns the terminal block params (t,s) or None."""
    d = b.d
    f = b.f
    idxs = d.block_indices()
    rounds = 0
    while True:
        m = _diagonalize_block(b, idxs)
        b.emit("A-diagonalized")
        for i in idxs[:m]:
            ai = b.at(i, i)
            x1i = b.at(1, i)
            if x1i != f.zero:
                b.lmul(x(i, 1, f.neg(f.div(x1i, f.mul(f.of(2), ai)))))
            xm1i = b.at(-1, i)
            if xm1i != f.zero:
                b.lmul(x(i, -1, f.neg(f.div(xm1i, f.mul(f.of(2), ai)))))
        for i in idxs[:m]:
            ai = b.at(i, i)
            ei1 = b.at(i, 1)
            if ei1 != f.zero:
                b.rmul(x(1, i, f.neg(f.div(ei1, f.mul(f.of(2), ai)))))
            eim1 = b.at(i, -1)
            if eim1 != f.zero:
                b.rmul(x(-1, i, f.neg(f.div(eim1, f.mul(f.mul(f.of(2), d.epsilon), ai)))))
        b.emit("X-E-cleared")
        for i in idxs[m:]:
            assert b.at(1, i) == f.zero and b.at(-1, i) == f.zero
        _clear_C(b, idxs[:m])
        if m == len(idxs):
            break
        rounds += 1
        assert rounds < 2
        _assert_swap_ready(b, idxs[:m])
        for i in idxs[m:]:
            b.lmul(w(i))
        b.emit("interchanged")
    b.emit("C-cleared")
    for i in idxs:
        # F and Y vanish once X, E and C are gone
        assert b.at(-i, 1) == f.zero and b.at(-i, -1) == f.zero
        assert b.at(1, -i) == f.zero and b.at(-1, -i) == f.zero
    _assert_lower_cleared(b, mu)
    _clear_B(b, idxs, mu)
    b.emit("B-cleared")
    return _reduce_terminal_block(b, mu)


def _reduce_terminal_block(b: _Bench, mu: Scalar) -> tuple:
    """Classify the 2x2 anisotropic block; reduce rotations via x2 and x1.

    Any similitude of the plane diag(1, eps) is either a reflection
    [[t, eps*s], [s, -t]] or a rotation [[t, -eps*s], [s, t]], with
    t^2 + eps*s^2 = mu either way.  For a rotation R, x2 @ R is exactly the
    reflection with parameters (t, -s); since x1(t, -s) is that reflection
    and an involution, left-multiplying by x2 then x1(t, -s) clears a
    mu = 1 rotation to the identity.  For mu != 1 a single x2 converts the
    rotation into the reflection shape, which is the terminal form the
    diagonal is allowed to carry.  A mu = 1 reflection with t = 1 is x2
    itself and gets absorbed, so surviving reflection blocks in an isometry
    always have t != 1.
    """
    f = b.f
    eps = b.d.epsilon
    a, top = b.at(1, 1), b.at(1, -1)
    s, bot = b.at(-1, 1), b.at(-1, -1)
    if top == f.mul(eps, s) and bot == f.neg(a):
        kind = "reflection"
    elif top == f.neg(f.mul(eps, s)) and bot == a:
        kind = "rotation"
    else:  # pragma: no cover
        raise AssertionError("terminal block is not a similitude of the plane")
    assert f.add(f.mul(a, a), f.mul(eps, f.mul(s, s))) == mu
    if kind == "rotation":
        if a == f.one and s == f.zero:
            return None  # already the identity block
        b.lmul(x2())  # turns the rotation into the reflection (a, -s)
        if mu == f.one:
            b.lmul(x1(a, f.neg(s)))
            b.emit("terminal-block")
            return None
        b.emit("terminal-block")
        return (a, f.neg(s))
    # reflection
    if mu == f.one and a == f.one:
        # then s = 0 and the block is diag(1,-1) = x2 itself
        b.lmul(x2())
        b.emit("terminal-block")
        return None
    b.emit("terminal-block")
    return (a, s)


def _assert_lower_cleared(b: _Bench, mu: Scalar) -> None:
    """C = 0 and D = mu * A^-1 on the block indices (the form guarantees D)."""
    f = b.f
    for i in b.d.block_indices():
        for j in b.d.block_indices():
            assert b.at(-i, j) == f.zero
            expect = f.div(mu, b.at(i, i)) if i == j else f.zero
            assert b.at(-i, -j) == expect


def decompose(g: Matrix, d: GroupDescriptor, observer: Observer | None = None) -> Decomposition:
    """Decompose a member of GSp / GOplus / GOodd / GOminus.

    Raises :class:`NotInGroup` (with a witness position) for non-members,
    including isometry descriptors fed a similitude with mu != 1.
    """
    if d.family is Family.GL:
        raise UnsupportedFamily("use decompose_gl for the general linear group")
    f = d.field
    mu = multiplier(g, d)
    if not d.similitude and mu != f.one:
        raise NotInGroup(f"multiplier {mu} != 1 in an isometry group")
    b = _Bench(g, d, observer)
    alpha = None
    block = None
    if d.family in (Family.GSP, Family.GO_EVEN):
        _run_even(b, mu)
        lam = b.at(d.l, d.l)
        if d.family is Family.GSP and lam != f.one:
            b.lmul_word(derived_h(f.inv(lam), d))
            b.emit("torus-reduced")
            lam = f.one
    elif d.family is Family.GO_ODD:
        _run_odd(b, mu)
        lam = b.at(d.l, d.l)
        alpha = b.at(0, 0)
    else:
        block = _run_twisted(b, mu)
        lam = b.at(d.l, d.l) if d.l > 1 else f.one
    b.emit("done")
    return b.finish(lam, mu, alpha, block)


def decompose_gl(g: Matrix) -> Decomposition:
    """GL(n) baseline: transvections times diag(1,..,1,det g)."""
    n = g.rows
    if n != g.cols:
        raise SingularMatrix("not a square matrix")
    field = g.field
    d = build_descriptor(Family.GL, n - 1, field)
    b = _Bench(g, d, None)
    m = _diagonalize_block(b, d.block_indices())
    if m < n:
        raise SingularMatrix("matrix is singular")
    lam = b.at(n, n)
    return b.finish(lam, field.one, None, None)


# ---------------------------------------------------------------------------
# word-length accounting


def word_length_stats(d: GroupDescriptor, trials: int, seed: int) -> dict:
    """Empirical op counts of ``decompose`` on random members of ``d``.

    The assertion max_ops <= 40*l^3 + 60 is a regression tripwire for the
    cubic word-length bound; the returned table is the real artifact.
    """
    from .harness import random_member  # imported here to avoid a module cycle

    counts = []
    for k in range(trials):
        g = random_member(d, seed + k, word_len=4 * d.l + 4, with_torus=True)
        counts.append(decompose(g, d).op_count)
    max_ops = max(counts) if counts else 0
    bound = 40 * d.l**3 + 60
    assert max_ops <= bound, f"word length {max_ops} exceeds {bound}"
    return {
        "family": d.family.value,
        "l": d.l,
        "field": str(d.field),
        "trials": trials,
        "max_ops": max_ops,
        "mean_ops": sum(counts) / len(counts) if counts else 0.0,
        "bound": bound,
    }


def word_length_table(family: Family, field, ls: list, trials: int, seed: int, similitude: bool = True) -> list:
    rows = []
    for l in ls:
        d = build_descriptor(family, l, field, similitude=similitude)
        rows.append(word_length_stats(d, trials, seed))
    return rows
