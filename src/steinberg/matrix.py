"""Dense exact matrices over a :class:`~steinberg.field.Field`.

One stored form for both fields: integer rows ``num`` over a positive ``den``
(residues in 0..p-1 over 1 for F_p; over Q the least common denominator,
with ``gcd(den, *num) == 1``).  It is canonical, so ``==`` and ``hash``
compare it directly, and products, sums and transposes run on the
integers alike for both fields.  The product is one kernel,
:meth:`Matrix._chain`, which multiplies a left factor by a sequence of right
factors in order; ``@`` is a chain of one, the plain row loop.  A right
factor is a matrix or a token's delta, its units
(:func:`steinberg.generators.token_units`), which stands for
``(den * I + D) / den``, so a word is multiplied without building a matrix
per token.  Every token update, in the chain and on the working matrix of
:mod:`steinberg.rowops` alike, runs through the one loop
:func:`_apply_delta` on the rows: a unit (r, c) adds its value, computed as
it is written, over den times column r to column c (or, from the left, row
c to row r).  Over F_p it writes residues in place, an x-token's units one
at a time with no copy of a source; over Q a moved row is a new list and a
moved column is rewritten in place, each over its own den, the lcm of the
two it combines, with the gcd divided out only once that den reaches
``_REDUCE_FROM`` (one int digit).  Only the normalise step
(:func:`_lowest`, and that loop) and the scalar view
(``data``, ``[i, j]``, ``row``, ``col``, ``to_lists``, ``repr``: the
residues, or ``Fraction(v, den)``) know the field.  Pivot columns, rank,
rref, inverse and determinant go through one elimination kernel on the
stored integers: on residues over F_p, and fraction-free over Q, where the
reduced rows come out over one common pivot and go straight back to the
stored form.  Rref and inverse take full Gauss-Jordan; pivot columns, rank
and determinant stop at a row-echelon form.  The trusted constructors
``_canonical`` and ``_normal`` take integer rows as they are; token
matrices and the snapshots of the working matrix (:mod:`steinberg.rowops`)
are built through them, without a scalar per entry.  ``Matrix.identity``,
with which every word evaluation starts, is one shared value per (field, n).
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from collections.abc import Iterable, Sequence

from .field import Field, InternalError, Scalar


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


def _over_lcm(rows: list) -> tuple:
    """(integer rows, least common denominator) of a list of rows of
    canonical scalars; the result has gcd 1 because each Fraction is
    reduced, and integers (every residue) stand over 1 as they are."""
    if all(type(v) is int for r in rows for v in r):
        return rows, 1
    den = math.lcm(*{v.denominator for r in rows for v in r})
    return [[v.numerator * (den // v.denominator) for v in r] for r in rows], den


def _lowest(p: int | None, num: list, den: int) -> tuple:
    """The normalise step: residues mod p over 1, or over Q the gcd divided
    out and the sign moved into the rows, so any nonzero ``den`` will do."""
    if p is not None:
        return [[v % p for v in r] for r in num], 1
    g = abs(den)
    for r in num:
        if g == 1:
            break
        g = math.gcd(g, *r)
    if den < 0:
        g = -g
    if g != 1:
        num = [[v // g for v in r] for r in num]
        den //= g
    return num, den


# CPython holds an int in digits of sys.int_info.bits_per_digit bits (30 on
# 64-bit builds).  A written Q vector whose den is below one digit stays over
# it unreduced: any common factor divides den, so each integer is at most one
# digit longer than in lowest terms, and a gcd over the vector plus a division
# per entry cost more than that digit.  From one digit on, it is reduced at once.
_REDUCE_FROM = 1 << sys.int_info.bits_per_digit


def _add_scaled(x: list, xden: int, v: int, y: list, yden: int) -> tuple:
    """x / xden + v * y / yden over Q for an integer v, as (integers,
    denominator): one lcm, and the gcd divided out once the lcm reaches
    ``_REDUCE_FROM``."""
    den = math.lcm(xden, yden)
    sx, sy = den // xden, v * (den // yden)
    new = [a * sx + sy * b for a, b in zip(x, y)]
    if den < _REDUCE_FROM or (g := math.gcd(den, *new)) == 1:
        return new, den
    return [a // g for a in new], den // g


def _apply_delta(p: int | None, vecs: list, dens: list | None, delta: tuple, left: bool = False) -> None:
    """Multiply the rows ``vecs`` by ``(den * I + D) / den`` in place for a
    delta ``(units, u, u2, den, sequential)``: a unit (r, c, k, sq) of value
    v = k * u2 when ``sq``, else k * u, adds v / den times column r to
    column c or, with ``left``, row c to row r.  A ``sequential`` delta (an
    x-token's) is applied one unit at a time, forwards to columns and
    backwards to rows; any other reads its sources from a copy.  Over F_p v
    is reduced and the residues are rewritten in place; over Q ``dens`` are
    the row (``left``) or column denominators, and each written vector is
    taken over one lcm, with the gcd divided out once that lcm reaches
    ``_REDUCE_FROM`` (a row through :func:`_add_scaled`, a column through
    :func:`_add_scaled_column`)."""
    units, u, u2, bden, sequential = delta
    src, sdens = (vecs, dens) if sequential else ([list(v) for v in vecs], dens and dens.copy())
    order = reversed(units) if left else units
    if p is not None:
        for r, c, k, sq in order:
            v = k * (u2 if sq else u) % p
            if left:
                row = vecs[r]
                for j, b in enumerate(src[c]):
                    if b:
                        row[j] = (row[j] + v * b) % p
            elif sequential:
                for row in vecs:
                    if b := row[r]:
                        row[c] = (row[c] + v * b) % p
            else:
                for row, y in zip(vecs, src):
                    row[c] = (row[c] + v * y[r]) % p
        return
    for r, c, k, sq in order:
        if not (v := k * (u2 if sq else u)):
            continue
        if left:
            vecs[r], dens[r] = _add_scaled(vecs[r], dens[r], v, src[c], sdens[c] * bden)
        else:
            _add_scaled_column(vecs, dens, c, v, src, r, sdens[r] * bden)


# apart from _apply_delta, where what its comprehension reads becomes a cell made on every call
def _add_scaled_column(vecs: list, dens: list, c: int, v: int, src: list, r: int, yden: int) -> None:
    """Over Q, column c of the rows ``vecs`` over ``dens[c]`` plus v times
    column r of ``src`` over ``yden``, rewritten in place in one loop: one
    lcm, and the gcd divided out once the lcm reaches ``_REDUCE_FROM``.
    (Copied out through :func:`_add_scaled` and back, the Q chain ran about
    17% slower.)"""
    xden = dens[c]
    den = math.lcm(xden, yden)
    sx, sy = den // xden, v * (den // yden)
    for row, y in zip(vecs, src):
        row[c] = row[c] * sx + sy * y[r]
    if den >= _REDUCE_FROM and (g := math.gcd(den, *[row[c] for row in vecs])) != 1:
        den //= g
        for row in vecs:
            row[c] //= g
    dens[c] = den


def _delta_of(num: tuple, den: int) -> list:
    """A square matrix ``num / den`` as the units of a delta over ``den``,
    each value k standing alone: the nonzero entries of ``num - den * I``."""
    out = []
    for k, row in enumerate(num):
        if row[k] != den:
            out.append((k, k, row[k] - den, False))
        out += [(k, j, row[j], False) for j in compress(range(len(row)), row) if j != k]
    return out


def _rows_over_lcm(rows: list, dens: list) -> tuple:
    """Rows over one denominator, the lcm, from rows whose columns stand over their own."""
    den = math.lcm(*dens)
    scale = [den // d for d in dens]
    return [[v * s for v, s in zip(r, scale)] for r in rows], den


def _row_loop(rows: Iterable[Sequence[int]], bnum: tuple, bcols: int) -> list:
    """Row i of the product is sum_k a[i][k] * (row k of b), over b's
    nonzero entries; exact in Python integers, not normalised."""
    b_nonzero = [[(j, v) for j, v in enumerate(r) if v] for r in bnum]
    out = []
    for row in rows:
        acc = [0] * bcols
        for aik, bk in zip(row, b_nonzero):
            if aik:
                for j, v in bk:
                    acc[j] += aik * v
        out.append(acc)
    return out


class Matrix:
    __slots__ = ("field", "rows", "cols", "num", "den", "_hash")

    def __init__(self, field: Field, rows: Sequence[Sequence[Scalar]]):
        of = field.of
        self._store(field, *_over_lcm([[of(v) for v in r] for r in rows]))

    @classmethod
    def _canonical(cls, field: Field, num: Iterable[Sequence[int]], den: int = 1) -> "Matrix":
        """Trusted constructor: ``num`` over ``den`` is already the stored
        form (residues over F_p; gcd 1 over Q), so nothing is reduced."""
        m = cls.__new__(cls)
        m._store(field, num, den)
        return m

    @classmethod
    def _normal(cls, field: Field, num: list, den: int = 1) -> "Matrix":
        """The normalise step (:func:`_lowest`) into the stored form."""
        return cls._canonical(field, *_lowest(field.p, num, den))

    def _store(self, field: Field, num: Iterable[Sequence[int]], den: int) -> None:
        if den <= 0:
            raise InternalError(f"stored denominator {den} is not positive")
        self.field = field
        self.num = tuple(map(tuple, num))
        self.den = den
        self.rows = len(self.num)
        self.cols = len(self.num[0]) if self.num else 0
        if len(set(map(len, self.num))) > 1:
            raise DimensionMismatch("ragged rows")
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        """I_n over the field, one shared value per (field, n)."""
        return _identity(field, n)

    @classmethod
    def diagonal(cls, field: Field, entries: Iterable[Scalar]) -> "Matrix":
        entries = [field.of(e) for e in entries]
        n = len(entries)
        zero = field.zero
        return cls._canonical(field, *_over_lcm([
            [entries[i] if i == j else zero for j in range(n)] for i in range(n)
        ]))

    # -- the scalar view -----------------------------------------------------

    def _view(self, ints: Iterable[int]) -> tuple:
        if self.field.p is not None:
            return tuple(ints)
        den = self.den
        return tuple(Fraction(v, den) for v in ints)

    @property
    def data(self) -> tuple:
        return tuple(map(self._view, self.num))

    def __getitem__(self, ij: tuple) -> Scalar:
        i, j = ij
        return self._view((self.num[i][j],))[0]

    def row(self, i: int) -> tuple:
        return self._view(self.num[i])

    def col(self, j: int) -> tuple:
        return self._view(r[j] for r in self.num)

    def to_lists(self) -> list:
        return [list(self._view(r)) for r in self.num]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in r) for r in self.data)
        return f"Matrix({self.field}, [{body}])"

    # -- trivia --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field, self.den, self.num))
        return self._hash

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic on the stored integers -----------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return Matrix._chain(self, (other,))

    @staticmethod
    def _chain(a: "Matrix", factors: Iterable) -> "Matrix":
        """``a @ f_1 @ f_2 @ ...``, in order: the one product kernel.

        A factor is a :class:`Matrix` or a token's delta ``(units, u, u2,
        den, sequential)`` (:func:`steinberg.generators.token_units`),
        standing for ``(den * I + D) / den``.  The running product is held as
        integer rows over one denominator until a delta, from which on the
        rows are lists that each delta rewrites in place, on the columns it
        names only (:func:`_apply_delta`, the loop the working matrix of
        :mod:`steinberg.rowops` runs too): residues over F_p, and over Q
        each column over its own denominator, reduced only from
        ``_REDUCE_FROM`` on.  Once a delta has run, a square matrix factor with at
        most 3n/2 nonzeros (a diagonal) has its delta read off and takes the
        same column update.  Any other matrix factor, and every factor of
        ``@``, takes the row loop on rows over one denominator and is
        normalised at once.  At the end the residues are stored as they
        are; the columns over Q are brought over one lcm and normalised once,
        so the product is canonical whatever the columns' own dens were.
        """
        field, p = a.field, a.field.p
        m, n = a.rows, a.cols
        rows, den = a.num, a.den
        vecs = dens = None  # the rows a delta rewrites in place, and over Q their column dens
        for b in factors:
            if type(b) is not tuple:
                if b.field != field:
                    raise DimensionMismatch("fields differ")
                if b.rows != n:
                    raise DimensionMismatch(f"{m}x{n} @ {b.rows}x{b.cols}")
                bnum, bden = b.num, b.den
                # Measured on n = 4..17: a factor takes the column form while it
                # has at most about 1.5 nonzeros per row (beyond, it loses up to 2x)
                if vecs is None or b.cols != n or 2 * (n * n - sum(map(tuple.count, bnum, repeat(0)))) > 3 * n:
                    if vecs is not None:
                        rows, den = (vecs, 1) if p is not None else _rows_over_lcm(vecs, dens)
                        vecs = None
                    rows, den = _lowest(p, _row_loop(rows, bnum, b.cols), den * bden)
                    n = b.cols
                    continue
                b = (_delta_of(bnum, bden), 1, 0, bden, False)
            if vecs is None:
                vecs, dens = [list(r) for r in rows], None if p is not None else [den] * n
            _apply_delta(p, vecs, dens, b)
        if vecs is not None and p is None:
            return Matrix._normal(field, *_rows_over_lcm(vecs, dens))
        return Matrix._canonical(field, rows if vecs is None else vecs, den)  # residues already over F_p

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape or field mismatch")
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return Matrix._normal(self.field, [
            [a * sa + b * sb for a, b in zip(ra, rb)] for ra, rb in zip(self.num, other.num)
        ], den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix._normal(self.field, [[-v for v in r] for r in self.num], self.den)

    def scale(self, c: Scalar) -> "Matrix":
        c = self.field.of(c)
        top = c.numerator
        return Matrix._normal(self.field, [[top * v for v in r] for r in self.num], c.denominator * self.den)

    def transpose(self) -> "Matrix":
        return Matrix._canonical(self.field, zip(*self.num), self.den) if self.num else self

    # -- exact elimination kernel on the stored integers ----------------------

    def _reduce(self, aug: list, full: bool = True) -> tuple:
        """Row-reduce the integer rows ``aug`` in place over this matrix's
        columns; return (pivot columns, det, s).

        Each pivot column takes its first row with a nonzero entry there,
        moved up past the rows between, which keep their order.  So the
        pivot rows are the rows of ``aug`` that are no combination of the
        rows above them (its first row basis), and the leftover rows end in
        their given order.

        With ``full`` each pivot column is cleared above and below its pivot,
        and ``aug / s`` is the rref; without it only the rows below are
        cleared, which is all the pivot columns, rank and det need, and
        ``aug`` is left in a row-echelon form.  F_p: on residues, s = 1, and
        under ``full`` each pivot row is scaled to 1.  Q: fraction-free,
        Gauss-Jordan (Nakos, Turner & Williams 1997) or, without ``full``,
        forward-only Bareiss (Math. Comp. 22, 1968); either way the
        divisions by the previous pivot are exact and s is the last pivot,
        which under ``full`` every pivot entry ends equal to.  ``det`` is the
        integer determinant of the left block (not yet reduced mod p) when
        it is square and fully pivoted.
        """
        p = self.field.p
        m = len(aug)
        pivots = []
        sign, det, s = 1, 1, 1
        r = 0
        for c in range(self.cols):
            pr = next((k for k in range(r, m) if aug[k][c]), None)
            if pr is None:
                continue
            if pr != r:
                aug.insert(r, aug.pop(pr))  # the rows it passes keep their order
                if (pr - r) & 1:
                    sign = -sign
            piv, top = aug[r][c], aug[r]
            rows = range(m) if full else range(r + 1, m)
            if p is not None:
                inv = pow(piv, -1, p)
                det = det * piv % p
                if full:
                    top = aug[r] = [v * inv % p for v in top]
                    inv = 1
                for k in rows:
                    t = aug[k][c]
                    if t and k != r:
                        t = t * inv % p
                        aug[k] = [(a - t * b) % p for a, b in zip(aug[k], top)]
            else:
                for k in rows:
                    t = aug[k][c]
                    if k != r and (t or piv != s):
                        aug[k] = [(piv * a - t * b) // s for a, b in zip(aug[k], top)]
                s = piv
            pivots.append(c)
            r += 1
            if r == m:
                break
        return pivots, sign * det * s, s

    def pivot_columns(self) -> list:
        """The pivot columns of the reduced row-echelon form, in order."""
        return self._reduce(list(map(list, self.num)), full=False)[0]

    def rank(self) -> int:
        return len(self.pivot_columns())

    def rref(self) -> "Matrix":
        """Reduced row-echelon form."""
        rows = list(map(list, self.num))
        s = self._reduce(rows)[2]
        return Matrix._normal(self.field, rows, s)

    def det(self) -> Scalar:
        if not self.is_square:
            raise DimensionMismatch("determinant of non-square matrix")
        f = self.field
        pivots, det, _ = self._reduce(list(map(list, self.num)), full=False)
        if len(pivots) != self.rows:
            return f.zero
        return det % f.p if f.is_prime else Fraction(det, self.den ** self.rows)

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("inverse of non-square matrix")
        n, den = self.rows, self.den
        # [num | den I] reduces to s [I | den num^-1], and den num^-1 is the inverse
        aug = [list(r) + [den if j == i else 0 for j in range(n)] for i, r in enumerate(self.num)]
        pivots, _, s = self._reduce(aug)
        if len(pivots) != n:
            raise SingularMatrix("matrix is singular")
        return Matrix._normal(self.field, [r[n:] for r in aug], s)


@lru_cache(maxsize=64)  # a Matrix is immutable, so I_n is built once per (field, n)
def _identity(field: Field, n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for k, row in enumerate(rows):
        row[k] = 1
    return Matrix._canonical(field, rows)
