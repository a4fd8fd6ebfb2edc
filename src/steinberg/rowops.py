"""In-place token application and the mutable working matrix.

:class:`WorkingMatrix` is the one mutable matrix that elimination and the
coset witnesses both run on.  It keeps integer rows ``num``, as every
:class:`Matrix` does: residues over F_p, and over Q entry (i, j) is
``num[i][j] / (rden[i] * cden[j])``, with one positive denominator per row
and one per column (all 1 over F_p).  A left update rewrites one integer row
and its ``rden``, a right update one integer column and its ``cden``, so a
rational token never rescales the whole matrix.  Entries are read by signed
basis index; ``at`` is the only read that builds a scalar, and ``matrix``
writes the stored form of a :class:`Matrix` snapshot straight from the
integers.

``apply(w, tok, LEFT)`` turns ``w`` into ``token_matrix(tok) @ w`` and
``apply(w, tok, RIGHT)`` into ``w @ token_matrix(tok)``, bit-exact.  Both
read the token's integer delta (:func:`steinberg.generators.token_delta`),
entries (r, c, v) over one den, the same description ``token_matrix`` and
the product kernel read, so each update only touches the rows (resp.
columns) the token moves and adds v / den times its source in one integer
pass; no scalar is built per token.  The tests compare it with the dense
product and with hand-written paired row/column updates kept there as an
independent oracle.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .field import Scalar
from .forms import GroupDescriptor, InternalError
from .generators import GeneratorToken, token_delta
from .matrix import Matrix


class Side(Enum):
    LEFT = "left-row"
    RIGHT = "right-column"


LEFT = Side.LEFT
RIGHT = Side.RIGHT


def apply(w: "WorkingMatrix", tok: GeneratorToken, side: Side) -> None:
    """Multiply the working matrix by the token on the given side, in place.

    A delta entry (r, c, v) over the delta's den adds v / den times source
    row c to row r (LEFT), or v / den times source column r to column c
    (RIGHT); sources are read before any write.
    """
    entries, tden = token_delta(tok, w.d)
    num = w.num
    if side is LEFT:
        den = w.rden
        # rows are replaced, never mutated, so these stay the old rows
        sources = [(num[c], den[c] * tden) for _, c, _ in entries]
        for (r, _, v), (src, sden) in zip(entries, sources):
            num[r], den[r] = w._add_multiple(num[r], den[r], v, src, sden)
        return
    den = w.cden
    sources = [([row[r] for row in num], den[r] * tden) for r, _, _ in entries]
    for (_, c, v), (src, sden) in zip(entries, sources):
        new, den[c] = w._add_multiple([row[c] for row in num], den[c], v, src, sden)
        for row, a in zip(num, new):
            row[c] = a


class WorkingMatrix:
    """A mutable copy of g, read and multiplied by signed basis index."""

    def __init__(self, g: Matrix, d: GroupDescriptor):
        self.d = d
        self.f = d.field
        self.num = [list(r) for r in g.num]
        self.rden = [g.den] * g.rows
        self.cden = [1] * g.cols

    def _add_multiple(self, x: list, xden: int, v: int, y: list, yden: int) -> tuple:
        """x / xden + v * y / yden for an integer v, as (integers,
        denominator), normalised: residues over F_p, the gcd divided out
        over Q."""
        p = self.f.p
        if p is not None:
            return [(a + v * b) % p for a, b in zip(x, y)], 1
        den = math.lcm(xden, yden)
        sx, sy = den // xden, v * (den // yden)
        new = [a * sx + sy * b for a, b in zip(x, y)]
        g = math.gcd(den, *new)
        if g == 1:
            return new, den
        return [a // g for a in new], den // g

    def at(self, i: int, j: int) -> Scalar:
        pos = self.d.pos
        r, c = pos(i), pos(j)
        v = self.num[r][c]
        return v if self.f.p is not None else Fraction(v, self.rden[r] * self.cden[c])

    def first_nonzero(self, row_idxs: list, col_idxs: list, k: int):
        """(r, c) of the first nonzero entry (row_idxs[r], col_idxs[c]) with
        r, c >= k, scanning columns left to right and, inside a column, rows
        top to bottom; None if that trailing block is zero."""
        pos = self.d.pos
        rows = [self.num[pos(i)] for i in row_idxs]
        for c in range(k, len(col_idxs)):
            pc = pos(col_idxs[c])
            for r in range(k, len(rows)):
                if rows[r][pc]:
                    return r, c
        return None

    def require_zero(self, positions, what: str) -> None:
        """Raise :class:`InternalError` at the first nonzero signed (i, j).

        This is how elimination states what a pass cleared, or what the form
        equation forces to vanish; it survives ``python -O``.
        """
        pos, num = self.d.pos, self.num
        for i, j in positions:
            if num[pos(i)][pos(j)]:
                raise InternalError(f"{what}: entry ({i},{j}) is {self.at(i, j)}, not 0")

    def lmul(self, tok: GeneratorToken) -> None:
        apply(self, tok, LEFT)

    def rmul(self, tok: GeneratorToken) -> None:
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
