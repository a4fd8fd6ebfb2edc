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

``apply(w, tok, LEFT)`` turns ``w`` into ``token_matrix(tok) @ w`` and
``apply(w, tok, RIGHT)`` into ``w @ token_matrix(tok)``, bit-exact.  Both
hand the token's units (:func:`steinberg.generators.token_units`, which
refuses a token that is not in the group: an x-token's compiled code and
the integers of its parameter, read as they stand) to the product kernel's
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
from .generators import GeneratorToken, token_units, x
from .matrix import Matrix, _apply_delta


class Side(Enum):
    LEFT = "left-row"
    RIGHT = "right-column"


LEFT = Side.LEFT
RIGHT = Side.RIGHT


def apply(w: "WorkingMatrix", tok: GeneratorToken, side: Side) -> None:
    """Multiply the working matrix by the token on the given side, in place.

    A unit (r, c) of the token's delta over its den adds value / den times
    source row c to row r (LEFT, the units read backwards) or source column
    r to column c (RIGHT), in the rows and over the row or the column
    denominators; an x-token's units one at a time, any other's sources read
    before any write.
    """
    left = side is LEFT
    _apply_delta(w.f.p, w.num, w.rden if left else w.cden, token_units(tok, w.d), left)


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

    def diagonalize(self, rows: list, cols: list, row_token) -> int:
        """Bring the block on (rows, cols) to a leading diagonal and return
        its rank.  Step k moves the first nonzero entry of the trailing
        block to (rows[k], cols[k]) with at most one row and one column
        token, then clears its column and row.  ``row_token(src, dst, t)``
        gives the token that subtracts t times row src from row dst (t = -1
        adds it) and its inverse's parameter, or None; a column token is
        always x[src, dst](t), adding t times column src to dst."""
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
                self.lmul(row_token(rows[r], u, -1)[0])  # -1 is no canonical inverse parameter
            if c != k and not num[pu][pv]:
                self.rmul(x(cols[c], v, 1))
            if not (b := num[pu][pv]):
                raise InternalError(f"no pivot at ({u},{v}) after moving ({rows[r]},{cols[c]}) there")
            inv = pow(b, -1, f.p) if f.p is not None else None
            for i, pi in zip(rows, prow):
                if pi != pu and (a := num[pi][pv]):
                    self.lmul(*row_token(u, i, self._over(a, pi, pv, pu, pv, inv)))
            for j, pj in zip(cols, pcol):
                if pj != pv and (a := num[pu][pj]):
                    t = self._over(a, pu, pj, pu, pv, inv)
                    self.rmul(x(v, j, f.neg(t)), t)
        return len(cols)

    def clear_pairs(self, m: int, s: int, c: int) -> None:
        """Clear entry (s*i, c*j) against the pivot (-s*j, c*j) with
        x[s*i, -s*j], for i, j among the first m block indices: the GSp
        pairs i = j first, then i before j (the shape's
        :meth:`~steinberg.forms.GroupDescriptor.pair_plan`); the form kills
        the partner entry, and the caller checks."""
        num, f = self.num, self.f
        for r, pr, col, i, j in self.d.pair_plan(m, s, c):
            if a := num[r][col]:
                t = self._over(a, r, col, pr, col, None)
                self.lmul(x(i, j, f.neg(t)), t)

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

    # inv, an x-token's inverse parameter if the caller holds it, is for subclasses that record inverses
    def lmul(self, tok: GeneratorToken, inv: Scalar | None = None) -> None:
        apply(self, tok, LEFT)

    def rmul(self, tok: GeneratorToken, inv: Scalar | None = None) -> None:
        apply(self, tok, RIGHT)

    def matrix(self) -> Matrix:
        f = self.f
        if f.p is not None:
            return Matrix._canonical(f, self.num)
        # (i, j) over rden[i] * cden[j] is the same entry over lr * lc
        lr, lc = math.lcm(*self.rden), math.lcm(*self.cden)
        rs = [lr // r for r in self.rden]
        cs = [lc // c for c in self.cden]
        return Matrix._normal(f, [[s * v * t for v, t in zip(row, cs)] for row, s in zip(self.num, rs)], lr * lc)
