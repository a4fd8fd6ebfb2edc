"""Dense exact matrices over a :class:`~steinberg.field.Field`.

Storage is an immutable row-major tuple of tuples of canonical scalars.  The
public constructor canonicalises every entry through ``Field.of``; library
code whose entries are canonical already (products, token matrices, the
working matrix) builds through :meth:`Matrix._canonical` instead.  Products
over either field go through one exact Python-integer kernel (residues over
F_p, a common-denominator integer view over Q that a product keeps, so a
chain of products never converts its running factor again).  Inverse, rank,
solve and determinant all go through one exact Gauss-Jordan kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .field import Field, Scalar


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


class NoSolution(ValueError):
    pass


class Matrix:
    __slots__ = ("field", "rows", "cols", "data", "_int", "_hash")

    def __init__(self, field: Field, rows: Sequence[Sequence[Scalar]]):
        of = field.of
        self._store(field, tuple(tuple(of(v) for v in r) for r in rows))

    @classmethod
    def _canonical(cls, field: Field, rows: Iterable[Sequence[Scalar]]) -> "Matrix":
        """Trusted constructor: ``rows`` already hold canonical scalars of
        ``field`` (residues in 0..p-1, or Fractions), so no ``Field.of``."""
        m = cls.__new__(cls)
        m._store(field, tuple(map(tuple, rows)))
        return m

    def _store(self, field: Field, data: tuple) -> None:
        self.field = field
        self.data = data
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise DimensionMismatch("ragged rows")
        self._int = None
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.diagonal(field, [field.one] * n)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._canonical(field, [[field.zero] * cols] * rows)

    @classmethod
    def diagonal(cls, field: Field, entries: Iterable[Scalar]) -> "Matrix":
        entries = [field.of(e) for e in entries]
        n = len(entries)
        zero = field.zero
        return cls._canonical(field, [
            [entries[i] if i == j else zero for j in range(n)] for i in range(n)
        ])

    # -- trivia --------------------------------------------------------------

    def __getitem__(self, ij: tuple) -> Scalar:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def to_lists(self) -> list:
        return [list(r) for r in self.data]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field, self.data))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in r) for r in self.data)
        return f"Matrix({self.field}, [{body}])"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        one, zero = self.field.one, self.field.zero
        return self.is_square and all(
            v == (one if i == j else zero) for i, r in enumerate(self.data) for j, v in enumerate(r)
        )

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(v == zero for r in self.data for v in r)

    # -- arithmetic ----------------------------------------------------------

    def _as_int(self) -> tuple:
        """(integer matrix, least common denominator) view of a rational matrix."""
        if self._int is None:
            den = math.lcm(*(v.denominator for r in self.data for v in r))
            self._int = (
                [[v.numerator * (den // v.denominator) for v in r] for r in self.data],
                den,
            )
        return self._int

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise DimensionMismatch("fields differ")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        p = self.field.p
        if p is None:
            a, da = self._as_int()
            b, db = other._as_int()
        else:
            a, b = self.data, other.data
        # row i of the product is sum_k a[i][k] * (row k of b), over the
        # nonzero entries only; exact in Python integers, reduced once below
        b_nonzero = [[(j, v) for j, v in enumerate(r) if v] for r in b]
        out = []
        for row in a:
            acc = [0] * other.cols
            for aik, bk in zip(row, b_nonzero):
                if aik:
                    for j, v in bk:
                        acc[j] += aik * v
            out.append(acc if p is None else [v % p for v in acc])
        if p is not None:
            return Matrix._canonical(self.field, out)
        # reduce to the least common denominator, which is what _as_int of
        # the product would find, and keep that view for the next product
        den = da * db
        g = math.gcd(den, *(v for r in out for v in r))
        if g > 1:
            out = [[v // g for v in r] for r in out]
            den //= g
        m = Matrix._canonical(self.field, [[Fraction(v, den) for v in r] for r in out])
        m._int = (out, den)
        return m

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.field.add
        return Matrix._canonical(self.field, [
            [add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        ])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        sub = self.field.sub
        return Matrix._canonical(self.field, [
            [sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        ])

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix._canonical(self.field, [[neg(a) for a in r] for r in self.data])

    def scale(self, c: Scalar) -> "Matrix":
        mul = self.field.mul
        c = self.field.of(c)
        return Matrix._canonical(self.field, [[mul(c, a) for a in r] for r in self.data])

    def _same_shape(self, other: "Matrix") -> None:
        if self.field != other.field or (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape or field mismatch")

    def transpose(self) -> "Matrix":
        return Matrix._canonical(self.field, zip(*self.data)) if self.data else self

    # -- exact Gauss-Jordan kernel --------------------------------------------

    def _reduce(self, aug: list) -> tuple:
        """Row-reduce ``aug`` in place; return (pivot column list, det factor).

        ``det`` only means something when the left block is square and fully
        pivoted; callers that need it track the swaps folded in here.
        """
        f = self.field
        m = len(aug)
        n = self.cols
        pivots = []
        det = f.one
        r = 0
        for c in range(n):
            pr = next((k for k in range(r, m) if aug[k][c] != f.zero), None)
            if pr is None:
                continue
            if pr != r:
                aug[r], aug[pr] = aug[pr], aug[r]
                det = f.neg(det)
            inv = f.inv(aug[r][c])
            det = f.mul(det, aug[r][c])
            aug[r] = [f.mul(inv, v) for v in aug[r]]
            for k in range(m):
                if k != r and aug[k][c] != f.zero:
                    t = aug[k][c]
                    aug[k] = [f.sub(a, f.mul(t, b)) for a, b in zip(aug[k], aug[r])]
            pivots.append(c)
            r += 1
            if r == m:
                break
        return pivots, det

    def rank(self) -> int:
        pivots, _ = self._reduce(self.to_lists())
        return len(pivots)

    def rref(self) -> "Matrix":
        """Reduced row-echelon form."""
        rows = self.to_lists()
        self._reduce(rows)
        return Matrix._canonical(self.field, rows)

    def det(self) -> Scalar:
        if not self.is_square:
            raise DimensionMismatch("determinant of non-square matrix")
        aug = self.to_lists()
        pivots, det = self._reduce(aug)
        return det if len(pivots) == self.rows else self.field.zero

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("inverse of non-square matrix")
        f = self.field
        n = self.rows
        ident = Matrix.identity(f, n)
        aug = [list(r) + list(e) for r, e in zip(self.data, ident.data)]
        pivots, _ = self._reduce(aug)
        if len(pivots) != n:
            raise SingularMatrix("matrix is singular")
        return Matrix._canonical(f, [r[n:] for r in aug])

    def solve(self, b: Sequence[Scalar]) -> tuple:
        """One preimage of ``b`` under this matrix, or :class:`NoSolution`."""
        f = self.field
        if len(b) != self.rows:
            raise DimensionMismatch("rhs length mismatch")
        b = [f.of(v) for v in b]
        aug = [list(r) + [v] for r, v in zip(self.data, b)]
        pivots, _ = self._reduce(aug)
        # consistency: a pivot in the augmented column means no solution
        for row in aug:
            if all(v == f.zero for v in row[:-1]) and row[-1] != f.zero:
                raise NoSolution("inconsistent system")
        x = [f.zero] * self.cols
        for r, c in enumerate(pivots):
            x[c] = aug[r][-1]
        return tuple(x)

    # -- blocks -------------------------------------------------------------

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix._canonical(self.field, [[self.data[i][j] for j in col_idx] for i in row_idx])

    @classmethod
    def assemble(cls, field: Field, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Stitch a grid of blocks into one matrix."""
        rows: list = []
        for band in grid:
            height = band[0].rows
            if any(blk.rows != height for blk in band):
                raise DimensionMismatch("block heights differ within a band")
            for i in range(height):
                rows.append([v for blk in band for v in blk.data[i]])
        return cls._canonical(field, rows)
