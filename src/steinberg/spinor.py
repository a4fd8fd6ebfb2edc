"""The spinor norm, three independent ways.

* ``spinor_norm``: run the elimination, multiply the square classes of the
  diagonal's lambda, the twisted terminal block and every token in the two
  words (almost all of which are trivial).
* ``wall_spinor_norm``: the discriminant of the Wall form [u,v] = beta(u,y)
  with (I-g)y = v on the moved space (I-g)V, read off (I-g)^T beta on the
  pivot columns of I-g: no linear solve (Zassenhaus, Arch. Math. 13, 1962).
* ``reflection_factorization``: a constructive orthogonal-reflection
  factorisation; the classical norm is the product of beta(v,v)/2 over the
  mirrors.

All three agreeing on exhaustively enumerated groups is the acceptance
anchor for the whole tower.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .eliminate import decompose
from .field import Field, Scalar, SquareClass, square_class
from .forms import Family, GroupDescriptor, InternalError, NotInGroup, NotOrthogonalFamily, multiplier
from .generators import GeneratorToken
from .matrix import Matrix, _over_lcm


def _unit_class(field: Field) -> SquareClass:
    return SquareClass(1, field.is_prime)


def _check_orthogonal_isometry(g: Matrix, d: GroupDescriptor) -> None:
    if not d.family.is_orthogonal:
        raise NotOrthogonalFamily(f"spinor norm undefined for {d.family.value}")
    mu = multiplier(g, d)
    if mu != d.field.one:
        raise NotInGroup(f"multiplier {mu} != 1: not in the isometry group")


def token_spinor_class(tok: GeneratorToken, d: GroupDescriptor) -> SquareClass:
    """Square class of one token (isometry tokens only).

    Unipotents and the swap involutions are trivial; the twisted plane
    reflections are class(1-t) resp. class(eps/2); a torus contributes
    class(lambda) (its alpha = +-1 slot is a norm-trivial reflection).
    """
    f = d.field
    if tok.kind in ("x", "w"):
        return _unit_class(f)
    if tok.kind == "x2":
        return square_class(f, f.div(d.epsilon, f.of(2)))
    if tok.kind == "x1":
        t = f.of(tok.t)
        if t == f.one:  # then s = 0 and the token is x2's matrix
            return square_class(f, f.div(d.epsilon, f.of(2)))
        return square_class(f, f.sub(f.one, t))
    if tok.kind == "torus":
        if f.of(tok.mu) != f.one:
            raise NotInGroup("spinor norm of a torus with mu != 1")
        acc = square_class(f, f.of(tok.lam))
        if tok.t is not None:
            t = f.of(tok.t)
            if t == f.one:
                raise NotInGroup("degenerate twisted block in torus")
            acc = acc * square_class(f, f.sub(f.one, t))
        return acc
    raise NotOrthogonalFamily(f"unknown token kind {tok.kind!r}")  # pragma: no cover


def spinor_norm(g: Matrix, d: GroupDescriptor) -> SquareClass:
    """Spinor norm read off the elimination, multiplicatively over the word."""
    return spinor_decomposition(g, d)[0]


def spinor_decomposition(g: Matrix, d: GroupDescriptor) -> tuple:
    """(spinor norm, the decomposition it was read from)."""
    _check_orthogonal_isometry(g, d)
    dec = decompose(g, d)
    acc = token_spinor_class(dec.torus_token(), d)
    for tok in dec.left.tokens + dec.right.tokens:
        acc = acc * token_spinor_class(tok, d)
    return acc, dec


# ---------------------------------------------------------------------------
# Wall form


def _moved_space_basis(g: Matrix) -> list:
    """Deterministic basis of (I-g)V: nonzero rows of the rref of (I-g)^T."""
    rr = (Matrix.identity(g.field, g.rows) - g).transpose().rref()
    return [rr.row(i) for i, r in enumerate(rr.num) if any(r)]


def _beta_pair(beta: Matrix, u, v) -> Scalar:
    """beta(u, v), summed on u and v over their common denominators."""
    f = beta.field
    (x,), dx = _over_lcm([u])
    (y,), dy = _over_lcm([v])
    acc = sum(xi * bij * yj for xi, row in zip(x, beta.num) if xi for bij, yj in zip(row, y) if bij)
    return acc % f.p if f.is_prime else Fraction(acc, dx * dy * beta.den)


def wall_spinor_norm(g: Matrix, d: GroupDescriptor) -> SquareClass:
    """disc of the Wall form on the moved space; the identity maps to 1."""
    basis, gram = wall_gram(g, d)
    f = d.field
    if not basis:
        return _unit_class(f)
    det = gram.det()
    if det == f.zero:
        raise InternalError("the Wall form is degenerate")
    return square_class(f, det)


def wall_gram(g: Matrix, d: GroupDescriptor) -> tuple:
    """(basis, gram matrix) of the Wall form on the moved space (I-g)V.

    Over the pivot columns P of I-g the columns (I-g)e_j are a basis of
    (I-g)V whose preimages are the e_j themselves, so [(I-g)e_i, (I-g)e_j]
    = beta((I-g)e_i, e_j) is the (i, j) entry of (I-g)^T beta.
    """
    _check_orthogonal_isometry(g, d)
    tilde = Matrix.identity(d.field, d.n) - g
    piv = tilde.pivot_columns()
    return [tilde.col(j) for j in piv], (tilde.transpose() @ d.beta).submatrix(piv, piv)


# ---------------------------------------------------------------------------
# reflections


def _mirror(v, d: GroupDescriptor) -> tuple:
    """(x, y, a, c) with the reflection in v equal to (a I - c x y^T) / a.

    x is v over its common denominator and y = beta^T x, both integer
    vectors, so N = x.y is nonzero exactly when v is anisotropic: over Q
    a = N and c = 2; over F_p a = 1 and c = 2 / N.
    """
    f = d.field
    (x,), _ = _over_lcm([v])
    y = [sum(xi * bij for xi, bij in zip(x, col)) for col in zip(*d.beta.num)]
    nv = sum(xi * yi for xi, yi in zip(x, y))
    if f.is_prime:
        y = [yi % f.p for yi in y]
        nv %= f.p
    if not nv:
        raise ValueError("reflection needs an anisotropic vector")
    return (x, y, 1, 2 * pow(nv, -1, f.p)) if f.is_prime else (x, y, nv, 2)


def reflection_matrix(v, d: GroupDescriptor) -> Matrix:
    """The reflection in the hyperplane orthogonal to an anisotropic v."""
    x, y, a, c = _mirror(v, d)
    return Matrix._normal(d.field, [
        [(a if i == j else 0) - c * xi * yj for j, yj in enumerate(y)] for i, xi in enumerate(x)
    ], a)


def _reflected(v, d: GroupDescriptor, h: Matrix) -> Matrix:
    """``reflection_matrix(v, d) @ h`` as the rank-1 update h - c x (y^T h) / a."""
    x, y, a, c = _mirror(v, d)
    z = [sum(yi * hij for yi, hij in zip(y, col)) for col in zip(*h.num)]
    return Matrix._normal(d.field, [
        [a * hij - c * xi * zj for hij, zj in zip(row, z)] for xi, row in zip(x, h.num)
    ], a * h.den)


def _unit(f: Field, n: int, j: int) -> tuple:
    return tuple(f.one if k == j else f.zero for k in range(n))


def _some_anisotropic(d: GroupDescriptor) -> tuple:
    f = d.field
    if d.family is Family.GO_ODD:
        return _unit(f, d.n, d.pos(0))
    if d.family is Family.GO_MINUS:
        return _unit(f, d.n, d.pos(1))
    v = [f.zero] * d.n
    v[d.pos(1)] = f.one
    v[d.pos(-1)] = f.one
    return tuple(v)


def _anisotropic_candidates(vectors: list, d: GroupDescriptor) -> Iterator[tuple]:
    """Anisotropic vectors among span generators and two-term combinations,
    generated lazily in that order.

    No candidate really means the span is totally isotropic: isotropic
    generators with isotropic pair sums force every inner product to vanish
    (char != 2), so the coefficient 1 alone decides emptiness.  The other
    coefficients only diversify the choices for the lookahead, so over F_p
    they stop at 7 and the search costs the same for every prime.
    """
    f = d.field
    if f.is_prime:
        coeffs = range(1, min(f.p, 8))
    else:
        coeffs = [Fraction(c) for c in (1, -1, 2, -2, 3, -3)] + [Fraction(1, 2), Fraction(-1, 2)]
    for v in vectors:
        if _beta_pair(d.beta, v, v) != f.zero:
            yield v
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            for c in coeffs:
                v = tuple(f.add(a, f.mul(c, b)) for a, b in zip(vectors[i], vectors[j]))
                if _beta_pair(d.beta, v, v) != f.zero:
                    yield v


def reflection_factorization(g: Matrix, d: GroupDescriptor) -> tuple:
    """(mirror vectors, classical norm) with g equal to the mirror product.

    Greedy descent on the moved space V_h = (I-h)V: reflecting in any
    anisotropic v of V_h grows the fixed space by one.  When V_h is totally
    isotropic (the Eichler case, worth two extra mirrors) an auxiliary
    reflection breaks the degeneracy; a one-step lookahead keeps the next
    choice from simply undoing it.  The product equality is checked.
    """
    _check_orthogonal_isometry(g, d)
    f = d.field
    ident = Matrix.identity(f, d.n)
    mirrors = []
    h = g
    seen = {h}
    fuel = 2 * d.n + 6
    while h != ident:
        fuel -= 1
        if fuel < 0:
            raise InternalError("reflection factorisation failed to terminate")
        choice = fallback = None
        for v in _anisotropic_candidates(_moved_space_basis(h), d):
            h2 = _reflected(v, d, h)
            if h2 not in seen and (
                h2 == ident or next(_anisotropic_candidates(_moved_space_basis(h2), d), None) is not None
            ):
                choice = (v, h2)
                break
            fallback = fallback or (v, h2)
        if choice or fallback:
            v, h = choice or fallback
        else:
            v = _some_anisotropic(d)
            h = _reflected(v, d, h)
        seen.add(h)
        mirrors.append(v)
    acc = _unit_class(f)
    for v in mirrors:
        acc = acc * square_class(f, f.div(_beta_pair(d.beta, v, v), f.of(2)))
    if Matrix._chain(ident, (reflection_matrix(v, d) for v in mirrors)) != g:
        raise InternalError("mirror product does not reproduce the element")
    return mirrors, acc


def in_commutator_subgroup(g: Matrix, d: GroupDescriptor) -> bool:
    """Membership in the commutator subgroup: det 1 and square spinor norm."""
    _check_orthogonal_isometry(g, d)
    if g.det() != d.field.one:
        return False
    return spinor_norm(g, d).is_square
