"""In-place token application and the mutable working matrix.

``apply(rows, tok, LEFT, d)`` turns ``rows`` into ``token_matrix(tok) @ rows``
and ``apply(rows, tok, RIGHT, d)`` into ``rows @ token_matrix(tok)``,
bit-exact.  Both read the token's sparse delta
(:func:`steinberg.generators.token_delta`), the same entries ``token_matrix``
adds to I, so each update only touches the rows (resp. columns) the token
moves.  The tests compare it with the dense product and with hand-written
paired row/column updates kept there as an independent oracle.

:class:`WorkingMatrix` is the one mutable matrix that elimination and the
coset witnesses both run on: row lists, entries addressed by signed basis
index, left and right application, the one pivot search, the one
"these entries are cleared" check, and a :class:`Matrix` snapshot.
"""

from __future__ import annotations

from enum import Enum

from .field import Scalar
from .forms import GroupDescriptor, InternalError
from .generators import GeneratorToken, token_delta
from .matrix import Matrix


class Side(Enum):
    LEFT = "left-row"
    RIGHT = "right-column"


LEFT = Side.LEFT
RIGHT = Side.RIGHT


def apply(rows: list, tok: GeneratorToken, side: Side, d: GroupDescriptor) -> None:
    """Multiply the square row lists by the token on the given side, in place.

    A delta entry (r, c, v) adds v times source row c to row r (LEFT), or v
    times source column r to column c (RIGHT); sources are read before any
    write.
    """
    add, mul = d.field.add, d.field.mul
    delta = token_delta(tok, d)
    if side is LEFT:
        # rows are replaced, never mutated, so these stay the old rows
        sources = [rows[c] for _, c, _ in delta]
        for (r, _, v), src in zip(delta, sources):
            rows[r] = [add(a, mul(v, b)) for a, b in zip(rows[r], src)]
        return
    sources = [[row[r] for row in rows] for r, _, _ in delta]
    for (_, c, v), src in zip(delta, sources):
        for row, b in zip(rows, src):
            row[c] = add(row[c], mul(v, b))


class WorkingMatrix:
    """A mutable copy of g, read and multiplied by signed basis index."""

    def __init__(self, g: Matrix, d: GroupDescriptor):
        self.d = d
        self.f = d.field
        self.rows = g.to_lists()

    def at(self, i: int, j: int) -> Scalar:
        pos = self.d.pos
        return self.rows[pos(i)][pos(j)]

    def first_nonzero(self, row_idxs: list, col_idxs: list, k: int):
        """(r, c) of the first nonzero entry (row_idxs[r], col_idxs[c]) with
        r, c >= k, scanning columns left to right and, inside a column, rows
        top to bottom; None if that trailing block is zero."""
        pos, zero = self.d.pos, self.f.zero
        rows = [self.rows[pos(i)] for i in row_idxs]
        for c in range(k, len(col_idxs)):
            pc = pos(col_idxs[c])
            for r in range(k, len(rows)):
                if rows[r][pc] != zero:
                    return r, c
        return None

    def require_zero(self, positions, what: str) -> None:
        """Raise :class:`InternalError` at the first nonzero signed (i, j).

        This is how elimination states what a pass cleared, or what the form
        equation forces to vanish; it survives ``python -O``.
        """
        pos, rows, zero = self.d.pos, self.rows, self.f.zero
        for i, j in positions:
            v = rows[pos(i)][pos(j)]
            if v != zero:
                raise InternalError(f"{what}: entry ({i},{j}) is {v}, not 0")

    def lmul(self, tok: GeneratorToken) -> None:
        apply(self.rows, tok, LEFT, self.d)

    def rmul(self, tok: GeneratorToken) -> None:
        apply(self.rows, tok, RIGHT, self.d)

    def matrix(self) -> Matrix:
        return Matrix._of_scalars(self.f, self.rows)
