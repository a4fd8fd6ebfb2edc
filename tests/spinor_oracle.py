"""The dense reflection descent: the oracle for the moved-space record of
:func:`steinberg.spinor.reflection_factorization`.

The library descends on one record per call, the rref basis of the moved
space V_h = (I-h)V with the preimages of its rows, and updates it per mirror
by Wall's hyperplane V_{s_v h} = {x in V_h : beta(u, x) = 0}.  The descent
below is the one it replaced, on the dense scalar matrices of
:mod:`gauss_oracle` alone: a fresh rref of (I-h)^T per step, each
candidate's product h' = s_v h built densely from the oracle's own
reflection, the lookahead read off beta h' + (beta h')^T = 2 beta, and every
candidate tested against the set of elements met.  It picks its mirrors by
the same rule, so the two must give the same mirror list and norm, vector
for vector; when no candidate is left it falls back on a fixed anisotropic
vector, e_0 for GOodd, e_1 for GOminus and e_1 + e_-1 otherwise.

It also holds the dense Wall form, the oracle for
:func:`steinberg.spinor.wall_spinor_norm`: the Gram matrix (I-g)^T beta on
the pivot columns of I-g, and its determinant by the scalar elimination of
:mod:`gauss_oracle`, where the library reads the discriminant off one
reduction of beta^T (I-g) with no Gram matrix.

Nothing here runs the library's product or elimination kernels: a
:class:`Matrix` is read through its scalar view and built through its
public constructor.
"""

from steinberg.field import square_class
from steinberg.forms import Family
from steinberg.matrix import Matrix
from gauss_oracle import difference, identity, oracle_det, product, reduce_scalars, rref_rows, transposed


def _moved(h: Matrix) -> list:
    """I - h as scalar rows."""
    return difference(h.field, identity(h.field, h.rows), h.to_lists())


def oracle_wall_gram(g: Matrix, d) -> tuple:
    """(the pivot columns P of I-g, the Wall Gram matrix on them): entry
    (a, b) is [(I-g)e_a, (I-g)e_b] = beta((I-g)e_a, e_b), the (a, b) entry
    of (I-g)^T beta, for a and b in P; None when P is empty."""
    f, tilde = g.field, _moved(g)
    piv = reduce_scalars(f, g.cols, [list(r) for r in tilde])[0]
    full = product(f, transposed(tilde), d.beta.to_lists())
    return piv, Matrix(f, [[full[a][b] for b in piv] for a in piv]) if piv else None


def oracle_wall_discriminant(g: Matrix, d) -> tuple:
    """(P, the determinant of the Wall Gram matrix on P), 1 when P is empty."""
    piv, gram = oracle_wall_gram(g, d)
    return piv, oracle_det(gram) if piv else g.field.one


def oracle_moved_space_basis(h: Matrix) -> tuple:
    """(integer rows, den) of the nonzero rows of the rref of (I-h)^T, in
    the stored form of the matrix they make."""
    rows = [r for r in rref_rows(h.field, transposed(_moved(h))) if any(r)]
    basis = Matrix(h.field, rows)
    return [list(r) for r in basis.num], basis.den


def oracle_totally_isotropic(h: Matrix, d) -> bool:
    """Whether (I-h)V is totally isotropic: beta h + (beta h)^T = 2 beta."""
    f, beta = d.field, d.beta.to_lists()
    bh = product(f, beta, h.to_lists())
    two = f.of(2)
    return all(f.add(bh[i][j], bh[j][i]) == f.mul(two, beta[i][j]) for i in range(d.n) for j in range(d.n))


def _beta(v, d):
    """beta(v, v) = v^T beta v."""
    return product(d.field, product(d.field, [list(v)], d.beta.to_lists()), [[a] for a in v])[0][0]


def _reflection(v, d) -> list:
    """The reflection x -> x - 2 beta(v, x) / beta(v, v) v in an anisotropic
    v, as scalar rows: I - (2 / beta(v, v)) v (v^T beta)."""
    f = d.field
    c = f.div(f.of(2), _beta(v, d))
    vb = product(f, [list(v)], d.beta.to_lists())[0]
    return difference(f, identity(f, d.n), [[f.mul(f.mul(c, a), b) for b in vb] for a in v])


def _reflected(v, h: Matrix, d) -> Matrix:
    return Matrix(d.field, product(d.field, _reflection(v, d), h.to_lists()))


def _fixed_anisotropic(d) -> tuple:
    """e_0 for GOodd, e_1 for GOminus, e_1 + e_-1 for GOplus."""
    f = d.field
    v = [f.zero] * d.n
    if d.family is Family.GO_ODD:
        v[d.pos(0)] = f.one
    elif d.family is Family.GO_MINUS:
        v[d.pos(1)] = f.one
    else:
        v[d.pos(1)] = v[d.pos(-1)] = f.one
    return tuple(v)


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
        v = tuple(f.div(f.of(a), f.of(vden)) for a in x)
        if _beta(v, d) != f.zero:
            yield v


def oracle_reflection_factorization(g: Matrix, d) -> tuple:
    """(mirror vectors, classical norm), by the dense descent."""
    f = d.field
    ident = Matrix(f, identity(f, d.n))
    mirrors, h, seen = [], g, {g}
    while h != ident:
        if len(mirrors) > 2 * d.n + 6:
            raise AssertionError("the oracle descent failed to terminate")
        choice = fallback = None
        for v in _candidates(*oracle_moved_space_basis(h), d):
            h2 = _reflected(v, h, d)
            if h2 not in seen and (h2 == ident or not oracle_totally_isotropic(h2, d)):
                choice = v, h2
                break
            fallback = fallback or (v, h2)
        if choice or fallback:
            v, h = choice or fallback
        else:
            v = _fixed_anisotropic(d)
            h = _reflected(v, h, d)
        seen.add(h)
        mirrors.append(v)
    acc = square_class(f, f.one)
    for v in mirrors:
        acc = acc * square_class(f, f.div(_beta(v, d), f.of(2)))
    return mirrors, acc
