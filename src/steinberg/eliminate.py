"""Gaussian elimination inside the group: element -> word * diagonal * word.

Elimination works in place on one :class:`steinberg.rowops.WorkingMatrix`:
every multiplier is an elementary token applied to the rows or columns it
moves, through the same sparse delta that builds its dense matrix.  The
working matrix keeps integers (residues over F_p; over Q one denominator per
row and per column), so a token costs one integer pass per row or column it
moves, zero tests read the integers, and each clearing multiplier is one
``ratio`` of two stored entries.  The inverse tokens are collected so that
``evaluate(left) @ diagonal @ evaluate(right)`` equals the input exactly.

One flow serves every family.  Around the square block A on the hyperbolic
indices sit C (below it), B (beside it), D (diagonally opposite) and, for
GOodd and GOminus, the strips X and E on the indices outside the
hyperbolic pairs (0, resp. 1 and -1):

* A is diagonalised by paired row/column additions (with a fixed pivot
  rule: first nonzero scanning rows top-to-bottom inside a column, columns
  left-to-right; ``WorkingMatrix.diagonalize``, which the coset labels run
  on C), normalised to diag(1,..,1,lambda) or diag(1,..,1,0,..,0);
* the strips X and E, where present, are cleared against the pivots (the
  only per-family pass);
* C is cleared in (i,j)/(j,i) pairs, one token per pair - the form
  equation guarantees the partner entry dies with it (``clear_pairs``,
  which also clears B and the A rows of the coset labels);
* a rank-deficient A swaps its zero rows against C rows and the pass
  repeats, at most once;
* B is cleared the same way; GSp then reduces lambda out of the torus while
  the orthogonal families keep it (the spinor norm reads it off), and
  GOminus classifies its terminal 2x2 anisotropic block.

What each pass clears, and what the form equation forces to vanish with it,
is checked by :meth:`WorkingMatrix.require_zero`, which raises
:class:`InternalError` and so survives ``python -O``.

The optional ``observer(phase, matrix)`` callback fires at phase boundaries
with a :class:`Matrix` snapshot of the working matrix, so tests can pin the
intermediate shapes; the phases are "A-diagonalized",
"X-E-cleared" (GOodd, GOminus), "interchanged" (rank-deficient passes),
"C-cleared", "B-cleared", "torus-reduced" (GSp), "terminal-block"
(GOminus) and "done".
"""

from __future__ import annotations

from collections.abc import Callable

from . import rowops
from .field import Record, Scalar
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
    derived_h,
    derived_w,
    evaluate_word,
    token_inverse_in,
    token_matrix,
    torus,
    x,
    x1,
    x2,
)
from .matrix import Matrix, SingularMatrix

Observer = Callable[[str, Matrix], None]


class Decomposition(Record):
    """g = evaluate(left) @ diagonal @ evaluate(right), exactly.

    ``block`` holds the GOminus terminal 2x2 block params (t, s), if any.
    """

    __slots__ = _fields = ("descriptor", "left", "right", "diagonal", "lam", "mu", "alpha", "block", "op_count")

    def __init__(self, descriptor: GroupDescriptor, left: Word, right: Word, diagonal: Matrix, lam: Scalar,
                 mu: Scalar, alpha: Scalar | None, block: tuple | None, op_count: int):
        self._init(descriptor, left, right, diagonal, lam, mu, alpha, block, op_count)

    def torus_token(self) -> GeneratorToken:
        return torus(self.lam, self.mu, alpha=self.alpha, ts=self.block)

    def as_word(self) -> Word:
        return Word(
            self.descriptor,
            self.left.tokens + (self.torus_token(),) + self.right.tokens,
        )

    def reassemble(self) -> Matrix:
        return evaluate_word(self.left, self.diagonal, self.right)


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
        self.left.append(token_inverse_in(tok, self.d))
        self.ops += 1

    def rmul(self, tok: GeneratorToken) -> None:
        super().rmul(tok)
        self.right.append(token_inverse_in(tok, self.d))
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


def _diagonalize_block(b: _Bench, idxs: list) -> int:
    """Bring the square block on ``idxs`` to diag(1,..,1,lambda) or
    diag(1,..,1,0,..,0) using only index-pair additions; returns the rank."""
    f = b.f
    m = b.diagonalize(idxs, idxs, lambda src, dst, t: x(dst, src, f.neg(t)))
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
# clearing passes


def _strips(d: GroupDescriptor) -> tuple:
    """Signed indices outside the hyperbolic pairs: the X rows / E columns."""
    if d.family is Family.GO_ODD:
        return (0,)
    if d.family is Family.GO_MINUS:
        return (1, -1)
    return ()


def _clear_strips_odd(b: _Bench, active: list) -> None:
    """GOodd: X (row 0) from the left, then E (column 0) from the right."""
    f = b.f
    for i in active:
        if (t := b.ratio(0, i, i, i)) is not None:
            b.lmul(x(0, i, f.neg(t)))
    for i in active:
        if (t := b.ratio(i, 0, i, i)) is not None:
            b.rmul(x(i, 0, f.neg(f.div(t, f.of(2)))))


def _clear_strips_twisted(b: _Bench, active: list) -> None:
    """GOminus: X (rows 1, -1) from the left, then E (columns 1, -1) from
    the right, each against the pivot of its column (resp. row)."""
    f = b.f
    two, two_eps = f.of(2), f.mul(f.of(2), b.d.epsilon)
    for i in active:
        for s in (1, -1):
            if (t := b.ratio(s, i, i, i)) is not None:
                b.lmul(x(i, s, f.neg(f.div(t, two))))
    for i in active:
        for s, den in ((1, two), (-1, two_eps)):
            if (t := b.ratio(i, s, i, i)) is not None:
                b.rmul(x(s, i, f.neg(f.div(t, den))))


def _clear_C(b: _Bench, active: list) -> None:
    """Kill the C rows over the invertible pivot columns.

    ``active`` holds the block indices with nonzero pivots.  One token per
    symmetric pair; the partner entry, and the rest of those rows, vanish by
    the form equation, which is checked rather than recleared.
    """
    b.clear_pairs(active, -1, 1)
    idxs = b.d.block_indices()
    b.require_zero(((-i, j) for i in active for j in idxs), "C rows over the pivots")


def _check_lower_cleared(b: _Bench, mu: Scalar) -> None:
    """C = 0 and D = mu * A^-1 on the block indices (the form guarantees D)."""
    f = b.f
    idxs = b.d.block_indices()
    b.require_zero(((-i, j) for i in idxs for j in idxs), "C")
    b.require_zero(((-i, -j) for i in idxs for j in idxs if i != j), "D off its diagonal")
    for i in idxs:
        if b.at(-i, -i) != f.div(mu, b.at(i, i)):
            raise InternalError(f"D entry ({-i},{-i}) is {b.at(-i, -i)}, not mu / A({i},{i})")


def _clear_B(b: _Bench, idxs: list) -> None:
    """Kill B against the diagonal of D, one token per symmetric pair."""
    b.clear_pairs(idxs, 1, -1)
    b.require_zero(((i, -j) for i in idxs for j in idxs), "B")


# ---------------------------------------------------------------------------
# the one elimination flow


def _run(b: _Bench, mu: Scalar) -> None:
    """Diagonalise A, clear the strips and C, interchange at most once if A
    is rank-deficient, then clear B; what is left is the torus part."""
    d = b.d
    idxs = d.block_indices()
    strips = _strips(d)
    clear_strips = _clear_strips_odd if d.family is Family.GO_ODD else _clear_strips_twisted
    interchanged = False
    while True:
        m = _diagonalize_block(b, idxs)
        b.emit("A-diagonalized")
        if strips:
            clear_strips(b, idxs[:m])
            b.emit("X-E-cleared")
            # the X tail over the zero pivots dies by the form equation
            b.require_zero(((s, i) for s in strips for i in idxs[m:]), "X over the zero pivots")
        _clear_C(b, idxs[:m])
        if m == len(idxs):
            break
        if interchanged:
            raise InternalError("rank recovery must finish in one interchange pass")
        for i in idxs[m:]:
            b.lmul_word(derived_w(i, d))
        interchanged = True
        b.emit("interchanged")
    b.emit("C-cleared")
    # with X, E and C gone the form forces F = 0 = Y
    b.require_zero(((p, q) for s in strips for i in idxs for p, q in ((-i, s), (s, -i))), "F and Y")
    _check_lower_cleared(b, mu)
    _clear_B(b, idxs)
    b.emit("B-cleared")


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
        raise InternalError("terminal block is not a similitude of the plane")
    if f.add(f.mul(a, a), f.mul(eps, f.mul(s, s))) != mu:
        raise InternalError(f"terminal block has norm t^2 + eps*s^2 != mu = {mu}")
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
    _run(b, mu)
    # GOminus of rank 1 has no hyperbolic pair to carry lambda
    lam = b.at(d.l, d.l) if d.block_indices() else f.one
    alpha = None
    block = None
    if d.family is Family.GSP and lam != f.one:
        b.lmul_word(derived_h(f.inv(lam), d))
        b.emit("torus-reduced")
        lam = f.one
    elif d.family is Family.GO_ODD:
        alpha = b.at(0, 0)
        if f.mul(alpha, alpha) != mu:
            raise InternalError(f"alpha = {alpha} does not square to the multiplier {mu}")
    elif d.family is Family.GO_MINUS:
        block = _reduce_terminal_block(b, mu)
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

    The check max_ops <= 40*l^3 + 60 is a regression tripwire for the
    cubic word-length bound; the returned table is the real artifact.
    """
    from .harness import random_member  # imported here to avoid a module cycle

    counts = []
    for k in range(trials):
        g = random_member(d, seed + k, word_len=4 * d.l + 4, with_torus=True)
        counts.append(decompose(g, d).op_count)
    max_ops = max(counts) if counts else 0
    bound = 40 * d.l**3 + 60
    if max_ops > bound:
        raise InternalError(f"word length {max_ops} exceeds {bound}")
    return {
        "family": d.family.value,
        "l": d.l,
        "field": str(d.field),
        "trials": trials,
        "max_ops": max_ops,
        "mean_ops": sum(counts) / len(counts) if counts else 0.0,
        "bound": bound,
    }
