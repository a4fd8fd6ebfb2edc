"""In-place token application and the mutable working matrix.

:class:`WorkingMatrix` is the one mutable matrix that elimination and the
coset witnesses both run on.  It keeps integer rows ``num``, as every
:class:`Matrix` does: residues over F_p, and over Q entry (i, j) is
``num[i][j] / (rden[i] * cden[j])``, with one positive denominator per row
and one per column (all 1 over F_p).  A left update rewrites one integer row
and its ``rden``, a right update one integer column and its ``cden``, so a
rational token never rescales the whole matrix.  A written row or column
stands over the lcm of the two dens it combines, and its gcd is divided out
only once that lcm reaches ``matrix._REDUCE_FROM`` (one int digit), so the
integers need not be in lowest terms.  Callers read entries by signed
basis index (``at``, ``ratio``); the scans run on storage positions that
depend on the group shape alone and are placed once per shape
(:class:`steinberg.forms.GroupDescriptor`): ``require_zero`` tests the
cells of a named block, ``clear_pairs`` follows a pair plan, and
``diagonalize`` maps its rows and columns once per call.  Only zero tests
read the integers, and a stored zero is skipped before any scalar is
built; ``at`` builds one entry's canonical scalar, ``ratio`` the canonical
quotient of two entries (every clearing multiplier), and ``matrix`` writes
a normalised :class:`Matrix` snapshot straight from the integers.
Elimination and the coset labels share its two clearing routines, the pivot
loop ``diagonalize`` and the pair pass ``clear_pairs``.

``apply(w, delta, LEFT)`` turns ``w`` into ``M @ w`` and
``apply(w, delta, RIGHT)`` into ``w @ M``, bit-exact, for the matrix M of a
token's units (:func:`steinberg.generators.token_units`: an x-token's
code and the integers of its parameter, read as they stand).  It
takes the units, not the token: they are computed where a step is named,
once per token.  ``lmul`` and ``rmul`` take a token and compute its units
through :func:`~steinberg.generators.token_units`, which refuses a token
that is not in the group; ``xmul`` names an x-step by its index pair and
parameter and computes its units through
:func:`~steinberg.generators.x_token_units`, the same description, with no
token built.  The elimination and the coset witnesses override ``xmul``
to keep, next to the token they record, the units they applied, which
their words then keep.  ``apply`` hands the units to the product kernel's
own update loop
(:func:`steinberg.matrix._apply_delta`), which moves only the rows (LEFT)
or columns (RIGHT) the token names, computing each value as it adds v / den
times a source in one integer pass.  It rewrites the rows in place, over
the row or the column denominators over Q.  No scalar and no entry list is
built per token, and no column is copied out and written back.
The tests compare it with the dense product and with hand-written paired
row/column updates kept there as an independent oracle.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .field import DivisionByZero, Scalar
from .forms import GroupDescriptor, InternalError
from .generators import GeneratorToken, token_units, x_token_units
from .matrix import Matrix, _apply_delta


class Side(Enum):
    LEFT = "left-row"
    RIGHT = "right-column"


LEFT = Side.LEFT
RIGHT = Side.RIGHT


def apply(w: "WorkingMatrix", delta: tuple, side: Side) -> None:
    """Multiply the working matrix in place, on the given side, by a token
    given as its units ``delta`` (:func:`steinberg.generators.token_units`),
    computed once by the caller, which also keeps them.

    A unit (r, c) of the delta over its den adds value / den times
    source row c to row r (LEFT, the units read backwards) or source column
    r to column c (RIGHT), in the rows and over the row or the column
    denominators; an x-token's units one at a time, any other's sources read
    before any write.
    """
    left = side is LEFT
    _apply_delta(w.f.p, w.num, w.rden if left else w.cden, delta, left)


class WorkingMatrix:
    """A mutable copy of g, read and multiplied by signed basis index."""

    def __init__(self, g: Matrix, d: GroupDescriptor):
        self.d = d
        self.f = d.field
        self.num = [list(r) for r in g.num]
        self.rden = [g.den] * g.rows
        self.cden = [1] * g.cols

    def at(self, i: int, j: int) -> Scalar:
        pos = self.d._positions
        r, c = pos[i], pos[j]
        v = self.num[r][c]
        return v if self.f.p is not None else Fraction(v, self.rden[r] * self.cden[c])

    def ratio(self, i: int, j: int, u: int, v: int, inv: int | None = None) -> Scalar | None:
        """Entry (i, j) over entry (u, v), one canonical scalar built from
        the stored integers (over F_p by ``inv``, 1 / (u, v), if given); None
        when (i, j) is zero.  A zero (u, v) raises :class:`DivisionByZero`
        over F_p and ZeroDivisionError over Q."""
        pos = self.d._positions
        r, c = pos[i], pos[j]
        a = self.num[r][c]
        return self._over(a, r, c, pos[u], pos[v], inv) if a else None

    def _over(self, a: int, r: int, c: int, ru: int, cv: int, inv: int | None) -> Scalar:
        """``ratio`` at storage positions, for the nonzero integer a at (r, c)."""
        b = self.num[ru][cv]
        p = self.f.p
        if p is not None:
            if not b:
                raise DivisionByZero("division by zero")
            return a * (inv or pow(b, -1, p)) % p
        rden, cden = self.rden, self.cden
        return Fraction(a * rden[ru] * cden[cv], b * rden[r] * cden[c])

    def diagonalize(self, rows: list, cols: list, row_pair) -> int:
        """Bring the block on (rows, cols) to a leading diagonal and return
        its rank.  Step k moves the first nonzero entry of the trailing
        block to (rows[k], cols[k]) with at most one row and one column
        token, then clears its column and row.  ``row_pair(src, dst)``
        gives ``(i, j, neg)``: x[i,j](-t) if ``neg``, else x[i,j](t),
        subtracts t times row src from row dst, and the move adds row src
        with the literal parameter 1 or -1; a column step is always
        x[src, dst](t), adding t times column src to dst."""
        pos, num, f = self.d._positions, self.num, self.f
        prow, pcol = [pos[i] for i in rows], [pos[j] for j in cols]
        for k in range(len(cols)):
            piv = self.first_nonzero(prow, pcol, k)
            if piv is None:
                return k
            r, c = piv
            u, v = rows[k], cols[k]
            pu, pv = prow[k], pcol[k]
            if r != k and not num[pu][pcol[c]]:
                ri, rj, neg = row_pair(rows[r], u)
                self.xmul(ri, rj, 1 if neg else -1, LEFT)
            if c != k and not num[pu][pv]:
                self.xmul(cols[c], v, 1, RIGHT)
            if not (b := num[pu][pv]):
                raise InternalError(f"no pivot at ({u},{v}) after moving ({rows[r]},{cols[c]}) there")
            inv = pow(b, -1, f.p) if f.p is not None else None
            for i, pi in zip(rows, prow):
                if pi != pu and (a := num[pi][pv]):
                    ri, rj, neg = row_pair(u, i)
                    self.xmul(ri, rj, self._over(a, pi, pv, pu, pv, inv), LEFT, neg)
            for j, pj in zip(cols, pcol):
                if pj != pv and (a := num[pu][pj]):
                    self.xmul(v, j, self._over(a, pu, pj, pu, pv, inv), RIGHT, True)
        return len(cols)

    def clear_pairs(self, m: int, s: int, c: int) -> None:
        """Clear entry (s*i, c*j) against the pivot (-s*j, c*j) with
        x[s*i, -s*j], for i, j among the first m block indices: the GSp
        pairs i = j first, then i before j (the shape's
        :meth:`~steinberg.forms.GroupDescriptor.pair_plan`); the form kills
        the partner entry, and the caller checks."""
        num = self.num
        for r, pr, col, i, j in self.d.pair_plan(m, s, c):
            if a := num[r][col]:
                self.xmul(i, j, self._over(a, r, col, pr, col, None), LEFT, True)

    def first_nonzero(self, rows: list, cols: list, k: int):
        """(r, c) of the first nonzero entry (rows[r], cols[c]), storage
        positions, with r, c >= k, scanning columns left to right and,
        inside a column, rows top to bottom; None if that trailing block is
        zero."""
        num = self.num
        vecs = [num[i] for i in rows]
        for c in range(k, len(cols)):
            pc = cols[c]
            for r in range(k, len(vecs)):
                if vecs[r][pc]:
                    return r, c
        return None

    def require_zero(self, cells, what: str) -> None:
        """Raise :class:`InternalError` at the first nonzero storage cell
        (r, c), naming it by its signed indices (i, j).

        This is how elimination states what a pass cleared, or what the form
        equation forces to vanish; it survives ``python -O``.
        """
        num = self.num
        for r, c in cells:
            if num[r][c]:
                signed = self.d.basis_indices()
                i, j = signed[r], signed[c]
                raise InternalError(f"{what}: entry ({i},{j}) is {self.at(i, j)}, not 0")

    def require_cleared(self, name: str, m: int = 0) -> None:
        """:meth:`require_zero` on the block the descriptor names
        (:meth:`~steinberg.forms.GroupDescriptor.cells`), at pivot count m."""
        self.require_zero(self.d.cells(name, m), name)

    def lmul(self, tok: GeneratorToken) -> None:
        apply(self, token_units(tok, self.d), LEFT)

    def rmul(self, tok: GeneratorToken) -> None:
        apply(self, token_units(tok, self.d), RIGHT)

    def xmul(self, i: int, j: int, t: Scalar, side: Side, neg: bool = False) -> None:
        """Multiply by x[i,j](t), or by x[i,j](-t) with ``neg``, on the
        given side: the units of x[i,j](t) (:func:`x_token_units`), with u
        negated for ``neg``, which leaves u2 and den and is exact (mod p the
        update loop reduces k * u).  The elimination and the coset witnesses
        override it to record the step."""
        delta = x_token_units(i, j, t, self.d)
        if neg:
            units, u, u2, den, _ = delta
            delta = units, -u, u2, den, True
        apply(self, delta, side)

    def matrix(self) -> Matrix:
        f = self.f
        if f.p is not None:
            return Matrix._canonical(f, self.num)
        # (i, j) over rden[i] * cden[j] is the same entry over lr * lc
        lr, lc = math.lcm(*self.rden), math.lcm(*self.cden)
        rs = [lr // r for r in self.rden]
        cs = [lc // c for c in self.cden]
        return Matrix._normal(f, [[s * v * t for v, t in zip(row, cs)] for row, s in zip(self.num, rs)], lr * lc)
