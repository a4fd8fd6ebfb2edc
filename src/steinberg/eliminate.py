"""Gaussian elimination inside the group: element -> word * diagonal * word.

Elimination works in place on one :class:`steinberg.rowops.WorkingMatrix`:
every multiplier is an elementary token applied to the rows or columns it
moves, through the same sparse delta that builds its dense matrix.  The
working matrix keeps integers (residues over F_p; over Q one denominator per
row and per column), so a token costs one integer pass per row or column it
moves, zero tests read the integers, and each clearing multiplier is one
``ratio`` of two stored entries.  The inverse tokens are collected so that
``evaluate(left) @ diagonal @ evaluate(right)`` equals the input exactly.
Each x-step is named by its index pair and parameter (``xmul``) and
described once: the units of the recorded inverse x[i,j](s), computed by
:func:`steinberg.generators.x_token_units`, are applied with u negated
and kept next to the token, and the words keep them, so reassembly reads
them again instead of describing the token a second time.

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
:class:`InternalError` and so survives ``python -O``.  Each pass names its
block ("C", "B", "F and Y", ...), whose storage cells, like the plan of each
pair pass, are placed once per group shape
(:meth:`steinberg.forms.GroupDescriptor.cells`), so a call pays only for
reading the entries.

Membership is proved by construction, not checked up front: mu is read off
one entry of g^T beta g (:func:`steinberg.forms.read_multiplier`), and the
closing check in ``finish`` compares the whole terminal matrix, on its
stored integers, with the claimed torus element, written from its units,
which the decomposition keeps for reassembly.  Only when the elimination
fails, or mu reads 0, or an isometry descriptor reads mu != 1, does the
full form check (:func:`steinberg.forms.multiplier`) run, so a non-member
is refused with the position where its form equation fails, as that check
names it.

The optional ``observer(phase, matrix)`` callback fires at phase boundaries
with a :class:`Matrix` snapshot of the working matrix, so tests can pin the
intermediate shapes; the phases are "A-diagonalized",
"X-E-cleared" (GOodd, GOminus), "interchanged" (rank-deficient passes),
"C-cleared", "B-cleared", "torus-reduced" (GSp), "terminal-block"
(GOminus) and "done".  A non-member may pass some phases before it is
refused.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from . import rowops
from .field import DivisionByZero, Field, Record, Scalar
from .forms import (
    Family,
    GroupDescriptor,
    InternalError,
    MultiplierNotOne,
    NotInGroup,
    UnsupportedFamily,
    build_descriptor,
    multiplier,
    read_multiplier,
)
from .generators import (
    GeneratorToken,
    Word,
    _new_token,
    _units_matrix,
    derived_h,
    derived_w,
    evaluate_word,
    token_units,
    torus,
    x1,
    x2,
    x_token_units,
)
from .matrix import Matrix, SingularMatrix
from .rowops import LEFT, RIGHT

Observer = Callable[[str, Matrix], None]


class Decomposition(Record):
    """g = evaluate(left) @ diagonal @ evaluate(right), exactly.

    ``block`` holds the GOminus terminal 2x2 block params (t, s), if any.
    ``_torus_units``, no field, are the torus units ``reassemble`` chains:
    the ones ``finish`` wrote ``diagonal`` from, else its first call's.
    """

    _fields = ("descriptor", "left", "right", "diagonal", "lam", "mu", "alpha", "block", "op_count")
    __slots__ = _fields + ("_torus_units",)

    def __init__(self, descriptor: GroupDescriptor, left: Word, right: Word, diagonal: Matrix, lam: Scalar,
                 mu: Scalar, alpha: Scalar | None, block: tuple | None, op_count: int):
        self._init(descriptor, left, right, diagonal, lam, mu, alpha, block, op_count)
        object.__setattr__(self, "_torus_units", None)

    def torus_token(self) -> GeneratorToken:
        return torus(self.lam, self.mu, alpha=self.alpha, ts=self.block)

    def reassemble(self) -> Matrix:
        if self._torus_units is None:
            object.__setattr__(self, "_torus_units", token_units(self.torus_token(), self.descriptor))
        return evaluate_word(self.left, self._torus_units, self.right)


class _Bench(rowops.WorkingMatrix):
    """Elimination state: the working matrix plus the two inverse words and
    the units each of their tokens was applied with."""

    def __init__(self, g: Matrix, d: GroupDescriptor, observer: Observer | None):
        super().__init__(g, d)
        self.left: list = []
        self.left_units: list = []
        self.right: list = []
        self.right_units: list = []
        self.observer = observer

    # rowops.apply is called through the module, where a tracer may wrap it
    def xmul(self, i: int, j: int, t: Scalar, side: rowops.Side, neg: bool = False) -> None:
        """Apply x[i,j](-t) with ``neg``, else x[i,j](t), and record its
        inverse x[i,j](s): s is t as given (canonical) with ``neg``, else the
        canonical -t, as :func:`token_inverse` gives it.  The step is the
        units of x[i,j](s) with u negated, and the word keeps those units.
        The token is built as :func:`x` builds it, without the call."""
        s = t if neg else self.f.of(-t)
        delta = x_token_units(i, j, s, self.d)
        units, u, u2, den, _ = delta
        rowops.apply(self, (units, -u, u2, den, True), side)
        tok = _new_token(GeneratorToken, ("x", i, j, s, None, None, None, None))
        if side is LEFT:
            self.left.append(tok)
            self.left_units.append(delta)
        else:
            self.right.append(tok)
            self.right_units.append(delta)

    def lmul(self, tok: GeneratorToken) -> None:
        """Apply a token from the left and record its inverse: an x-token
        as an x-step, any other (w, x1, x2, each an involution) through
        :func:`token_units`, recorded as itself with the units applied."""
        if tok.kind == "x":
            self.xmul(tok.i, tok.j, tok.t, LEFT)
            return
        delta = token_units(tok, self.d)
        rowops.apply(self, delta, LEFT)
        self.left.append(tok)
        self.left_units.append(delta)

    def lmul_word(self, word: Word) -> None:
        for tok in reversed(word.tokens):
            self.lmul(tok)

    def emit(self, phase: str) -> None:
        if self.observer is not None:
            self.observer(phase, self.matrix())

    def finish(self, lam: Scalar, mu: Scalar, alpha, block) -> Decomposition:
        """The decomposition, once the terminal working matrix is literally
        the claimed torus element T, compared on the integers: as residues
        over F_p, and over Q each entry cross-multiplied by its row and
        column dens and T's den.  T's units write the diagonal and are kept."""
        d = self.d
        tok = torus(lam, mu, alpha=alpha, ts=block)
        delta = token_units(tok, d)
        diagonal = _units_matrix(delta, d)
        if d.field.p is not None:
            same = tuple(map(tuple, self.num)) == diagonal.num
        else:
            tden, cden = diagonal.den, self.cden
            same = not any(
                (v or w) and v * tden != w * rd * cd
                for row, rd, trow in zip(self.num, self.rden, diagonal.num)
                for v, w, cd in zip(row, trow, cden)
            )
        if not same:
            raise InternalError(f"terminal matrix is not {tok}")
        self.right.reverse()
        self.right_units.reverse()
        dec = Decomposition(d, Word._trusted(d, self.left, self.left_units),
                            Word._trusted(d, self.right, self.right_units), diagonal, lam, mu, alpha, block,
                            len(self.left) + len(self.right))
        object.__setattr__(dec, "_torus_units", delta)
        return dec


# ---------------------------------------------------------------------------
# block-A diagonalisation, shared by every family


def _diagonalize_block(b: _Bench, idxs: list) -> int:
    """Bring the square block on ``idxs`` to diag(1,..,1,lambda) or
    diag(1,..,1,0,..,0) using only index-pair additions; returns the rank."""
    m = b.diagonalize(idxs, idxs, lambda src, dst: (dst, src, True))
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
            b.xmul(u, v, f.inv(c), LEFT)
            b.xmul(v, u, a, RIGHT, neg=True)
            b.xmul(v, u, c, LEFT, neg=True)
            b.xmul(v, u, 1, RIGHT)
            b.xmul(v, u, f.mul(a, c), LEFT)
            b.xmul(u, v, -1, RIGHT)
        return
    v = idxs[m]  # a zero column to play against
    for k in range(m):
        u = idxs[k]
        a = b.at(u, u)
        if a == f.one:
            continue
        b.xmul(u, v, f.inv(a), RIGHT)
        b.xmul(v, u, f.sub(f.one, a), RIGHT)
        b.xmul(u, v, -1, RIGHT)


# ---------------------------------------------------------------------------
# clearing passes


def _clear_strips_odd(b: _Bench, active: list) -> None:
    """GOodd: X (row 0) from the left, then E (column 0) from the right."""
    f = b.f
    for i in active:
        if (t := b.ratio(0, i, i, i)) is not None:
            b.xmul(0, i, t, LEFT, neg=True)
    for i in active:
        if (t := b.ratio(i, 0, i, i)) is not None:
            b.xmul(i, 0, f.div(t, f.of(2)), RIGHT, neg=True)


def _clear_strips_twisted(b: _Bench, active: list) -> None:
    """GOminus: X (rows 1, -1) from the left, then E (columns 1, -1) from
    the right, each against the pivot of its column (resp. row)."""
    f = b.f
    two, two_eps = f.of(2), f.mul(f.of(2), b.d.epsilon)
    for i in active:
        for s in (1, -1):
            if (t := b.ratio(s, i, i, i)) is not None:
                b.xmul(i, s, f.div(t, two), LEFT, neg=True)
    for i in active:
        for s, den in ((1, two), (-1, two_eps)):
            if (t := b.ratio(i, s, i, i)) is not None:
                b.xmul(s, i, f.div(t, den), RIGHT, neg=True)


def _clear_C(b: _Bench, m: int) -> None:
    """Kill the C rows over the invertible pivot columns.

    The first m block indices carry nonzero pivots.  One token per
    symmetric pair; the partner entry, and the rest of those rows, vanish by
    the form equation, which is checked rather than recleared.
    """
    b.clear_pairs(m, -1, 1)
    b.require_cleared("C rows over the pivots", m)


def _check_lower_cleared(b: _Bench, mu: Scalar) -> None:
    """C = 0 and D = mu * A^-1 on the block indices (the form guarantees D).

    D(i, i) A(i, i) = mu is compared on the stored integers, each entry
    over its row and column dens (all 1 over F_p, where it is mod p); a zero
    A(i, i) raises what mu / A(i, i) would."""
    b.require_cleared("C")
    b.require_cleared("D off its diagonal")
    pos, num, rden, cden, p = b.d._positions, b.num, b.rden, b.cden, b.f.p
    top, bottom = mu.numerator, mu.denominator
    for i in b.d.block_indices():
        r, s = pos[i], pos[-i]
        if not (a := num[r][r]):
            raise DivisionByZero("division by zero")
        v = num[s][s] * a * bottom - top * rden[r] * cden[r] * rden[s] * cden[s]
        if v % p if p is not None else v:
            raise InternalError(f"D entry ({-i},{-i}) is {b.at(-i, -i)}, not mu / A({i},{i})")


def _clear_B(b: _Bench) -> None:
    """Kill B against the diagonal of D, one token per symmetric pair."""
    b.clear_pairs(len(b.d.block_indices()), 1, -1)
    b.require_cleared("B")


# ---------------------------------------------------------------------------
# the one elimination flow


def _run(b: _Bench, mu: Scalar) -> None:
    """Diagonalise A, clear the strips and C, interchange at most once if A
    is rank-deficient, then clear B; what is left is the torus part."""
    d = b.d
    idxs = d.block_indices()
    strips = d.strip_indices()
    clear_strips = _clear_strips_odd if d.family is Family.GO_ODD else _clear_strips_twisted
    interchanged = False
    while True:
        m = _diagonalize_block(b, idxs)
        b.emit("A-diagonalized")
        if strips:
            clear_strips(b, idxs[:m])
            b.emit("X-E-cleared")
            # the X tail over the zero pivots dies by the form equation
            b.require_cleared("X over the zero pivots", m)
        _clear_C(b, m)
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
    b.require_cleared("F and Y")
    _check_lower_cleared(b, mu)
    _clear_B(b)
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

    A return proves membership.  mu is only read off one entry of
    g^T beta g; what proves g a similitude with that multiplier is the
    closing check: the working matrix W = E g F equals the torus element T,
    entry for entry.  E and F are products of tokens that
    :func:`steinberg.generators.token_units` accepted, so isometries, and T
    is a torus it accepted too (nonzero lambda and mu, alpha^2 = mu,
    t^2 + eps s^2 = mu), a similitude with multiplier mu, which is 1 in an
    isometry group (any other read is refused first).  So g = E^-1 T F^-1
    is one.  Hence the full form check runs only where its verdict is
    needed: before the elimination when mu reads 0 or an isometry
    descriptor reads mu != 1, and after it when the elimination fails,
    where a non-member raises the :class:`NotInGroup` that check names, and
    a member's failure (an :class:`InternalError`) is raised as it is.
    """
    if d.family is Family.GL:
        raise UnsupportedFamily("use decompose_gl for the general linear group")
    f = d.field
    mu = read_multiplier(g, d)[0]
    if mu == f.zero or not (d.similitude or mu == f.one):
        multiplier(g, d)  # a non-member raises here, and mu = 0 always does
        raise MultiplierNotOne(f"multiplier {mu} != 1 in an isometry group", mu)
    try:
        return _eliminate(_Bench(g, d, observer), mu)
    except Exception:
        try:
            multiplier(g, d)
        except NotInGroup as e:
            raise e from None
        raise


def _eliminate(b: _Bench, mu: Scalar) -> Decomposition:
    """The elimination flow and the terminal torus, then the closing check."""
    d, f = b.d, b.f
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
    d = _gl_descriptor(n, g.field)
    b = _Bench(g, d, None)
    m = _diagonalize_block(b, d.block_indices())
    if m < n:
        raise SingularMatrix("matrix is singular")
    lam = b.at(n, n)
    return b.finish(lam, g.field.one, None, None)


@lru_cache(maxsize=64)  # one GL(n) descriptor per (n, field): it is immutable
def _gl_descriptor(n: int, field: Field) -> GroupDescriptor:
    return build_descriptor(Family.GL, n - 1, field)
