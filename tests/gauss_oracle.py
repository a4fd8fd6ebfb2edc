"""Gauss-Jordan elimination on field scalars: the oracle for the library's
integer kernel :meth:`steinberg.matrix.Matrix._reduce`.

The library eliminates on the stored integers (residues over F_p, and
fraction-free over Q).  The elimination below runs on the scalar view with
the :class:`~steinberg.field.Field` arithmetic, one ``Fraction`` per entry
over Q, and normalises every pivot row, so agreement with it is a test
rather than a tautology.  Each ``oracle_*`` function but the last mirrors
the :class:`~steinberg.matrix.Matrix` method of the same name;
``oracle_solve`` has no library counterpart and finds the preimages of the
Wall form by its definition in ``test_spinor``.
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


def oracle_pivot_columns(g: Matrix) -> list:
    return reduce_scalars(g.field, g.cols, g.to_lists())[0]


def oracle_rank(g: Matrix) -> int:
    return len(oracle_pivot_columns(g))


def oracle_rref(g: Matrix) -> Matrix:
    rows = g.to_lists()
    reduce_scalars(g.field, g.cols, rows)
    return Matrix(g.field, rows)


def oracle_det(g: Matrix):
    pivots, det = reduce_scalars(g.field, g.cols, g.to_lists())
    return det if len(pivots) == g.rows else g.field.zero


def oracle_inverse(g: Matrix) -> Matrix:
    f, n = g.field, g.rows
    aug = [r + e for r, e in zip(g.to_lists(), Matrix.identity(f, n).to_lists())]
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
