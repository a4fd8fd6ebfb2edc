"""The dense reflection descent: the oracle for the moved-space record of
:func:`steinberg.spinor.reflection_factorization`.

The library descends on one record per call, the rref basis of the moved
space V_h = (I-h)V with the preimages of its rows, and updates it per mirror
by Wall's hyperplane V_{s_v h} = {x in V_h : beta(u, x) = 0}.  The descent
below is the one it replaced, on Matrix algebra alone: a fresh rref of
(I-h)^T per step, each candidate's product h' = s_v h built densely, the
lookahead read off beta h' + (beta h')^T = 2 beta, and every candidate
tested against the set of elements met.  It picks its mirrors by the same
rule, so the two must give the same mirror list and norm, vector for vector.
"""

from steinberg.field import square_class
from steinberg.matrix import Matrix
from steinberg.spinor import _some_anisotropic, reflection_matrix


def oracle_moved_space_basis(h: Matrix) -> tuple:
    """(integer rows, den) of the nonzero rows of the rref of (I-h)^T."""
    rr = (Matrix.identity(h.field, h.rows) - h).transpose().rref()
    return [list(r) for r in rr.num if any(r)], rr.den


def oracle_totally_isotropic(h: Matrix, d) -> bool:
    """Whether (I-h)V is totally isotropic: beta h + (beta h)^T = 2 beta."""
    bh = d.beta @ h
    return bh + bh.transpose() == d.beta.scale(2)


def _beta(v, d):
    row = Matrix(d.field, [v])
    return (row @ d.beta @ row.transpose())[0, 0]


def _candidates(basis: list, den: int, d):
    """The anisotropic vectors among x_i / den and (a x_i + c x_j) / (a den),
    in that order."""
    f = d.field
    if f.is_prime:
        coeffs = [(1, c) for c in range(1, min(f.p, 8))]
    else:
        coeffs = [(1, 1), (1, -1), (1, 2), (1, -2), (1, 3), (1, -3), (2, 1), (2, -1)]
    combos = [(x, den) for x in basis] + [
        ([a * s + c * t for s, t in zip(xi, xj)], a * den)
        for i, xi in enumerate(basis) for xj in basis[i + 1:] for a, c in coeffs
    ]
    for x, vden in combos:
        v = Matrix._normal(f, [x], vden).row(0)
        if _beta(v, d) != f.zero:
            yield v


def oracle_reflection_factorization(g: Matrix, d) -> tuple:
    """(mirror vectors, classical norm), by the dense descent."""
    f = d.field
    ident = Matrix.identity(f, d.n)
    mirrors, h, seen = [], g, {g}
    while h != ident:
        if len(mirrors) > 2 * d.n + 6:
            raise AssertionError("the oracle descent failed to terminate")
        choice = fallback = None
        for v in _candidates(*oracle_moved_space_basis(h), d):
            h2 = reflection_matrix(v, d) @ h
            if h2 not in seen and (h2 == ident or not oracle_totally_isotropic(h2, d)):
                choice = v, h2
                break
            fallback = fallback or (v, h2)
        if choice or fallback:
            v, h = choice or fallback
        else:
            v = tuple(map(f.of, _some_anisotropic(d)))
            h = reflection_matrix(v, d) @ h
        seen.add(h)
        mirrors.append(v)
    acc = square_class(f, f.one)
    for v in mirrors:
        acc = acc * square_class(f, f.div(_beta(v, d), f.of(2)))
    return mirrors, acc
