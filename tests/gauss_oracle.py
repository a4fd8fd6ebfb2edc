"""Dense linear algebra on field scalars: the oracle for the library's
integer kernels, :meth:`steinberg.matrix.Matrix._chain` (products) and
:meth:`steinberg.matrix.Matrix._reduce` (elimination).

The library computes on the stored integers (residues over F_p, and over Q
integer rows over a common denominator, eliminated fraction-free).  The
helpers below run on lists of field scalars, the scalar view
``Matrix.to_lists()``, with the :class:`~steinberg.field.Field` arithmetic,
one ``Fraction`` per entry over Q, and go back to a :class:`Matrix` only
through its public constructor.  They share no code with the kernels, so
agreement with them is a test rather than a tautology.

``identity``, ``product``, ``difference``, ``transposed`` and ``rref_rows``
(Gauss-Jordan through :func:`reduce_scalars`, which normalises every pivot
row) work on scalar lists; ``diagonal`` and ``scaled`` build test fixtures
from scalars.  The ``oracle_*`` functions take and give
matrices: pivot columns, rank and determinant mirror the ``Matrix`` methods
of those names; ``oracle_rref`` and ``oracle_inverse`` are what
``_reduce`` gives on ``[A | I]``; ``oracle_solve`` has no library
counterpart and finds the preimages of the Wall form by its definition in
``test_spinor``.
"""

from steinberg.matrix import Matrix, SingularMatrix


class Inconsistent(ValueError):
    """The system has no solution."""


def reduce_scalars(f, n: int, aug: list) -> tuple:
    """Row-reduce ``aug`` in place over its first n columns; return
    (pivot column list, det factor).

    ``det`` only means something when the left block is square and fully
    pivoted; callers that need it track the swaps folded in here.
    """
    m = len(aug)
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


# -- dense scalar matrices: lists of rows of field scalars ---------------------


def identity(f, n: int) -> list:
    return [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]


def product(f, a: list, b: list) -> list:
    """a times b by the triple loop."""
    out = []
    for row in a:
        acc = []
        for col in zip(*b):
            s = f.zero
            for u, v in zip(row, col):
                s = f.add(s, f.mul(u, v))
            acc.append(s)
        out.append(acc)
    return out


def difference(f, a: list, b: list) -> list:
    return [[f.sub(u, v) for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def transposed(a: list) -> list:
    return [list(col) for col in zip(*a)]


def rref_rows(f, a: list) -> list:
    """The reduced row-echelon form of a, as a new list."""
    rows = [list(r) for r in a]
    reduce_scalars(f, len(rows[0]) if rows else 0, rows)
    return rows


def diagonal(f, entries) -> Matrix:
    entries = list(entries)
    return Matrix(f, [[e if i == j else 0 for j in range(len(entries))] for i, e in enumerate(entries)])


def scaled(g: Matrix, c) -> Matrix:
    f = g.field
    return Matrix(f, [[f.mul(f.of(c), v) for v in r] for r in g.to_lists()])


# -- oracles on matrices -------------------------------------------------------


def oracle_pivot_columns(g: Matrix) -> list:
    return reduce_scalars(g.field, g.cols, g.to_lists())[0]


def oracle_rank(g: Matrix) -> int:
    return len(oracle_pivot_columns(g))


def oracle_rref(g: Matrix) -> Matrix:
    return Matrix(g.field, rref_rows(g.field, g.to_lists()))


def oracle_det(g: Matrix):
    pivots, det = reduce_scalars(g.field, g.cols, g.to_lists())
    return det if len(pivots) == g.rows else g.field.zero


def oracle_inverse(g: Matrix) -> Matrix:
    f, n = g.field, g.rows
    aug = [r + e for r, e in zip(g.to_lists(), identity(f, n))]
    pivots, _ = reduce_scalars(f, n, aug)
    if len(pivots) != n:
        raise SingularMatrix("matrix is singular")
    return Matrix(f, [r[n:] for r in aug])


def oracle_solve(g: Matrix, b) -> tuple:
    f = g.field
    aug = [r + [f.of(v)] for r, v in zip(g.to_lists(), b)]
    pivots, _ = reduce_scalars(f, g.cols, aug)
    for row in aug:
        if all(v == f.zero for v in row[:-1]) and row[-1] != f.zero:
            raise Inconsistent("inconsistent system")
    x = [f.zero] * g.cols
    for r, c in enumerate(pivots):
        x[c] = aug[r][-1]
    return tuple(x)
