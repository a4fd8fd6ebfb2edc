"""The spinor norm, three independent ways.

* ``spinor_norm``: run the elimination, multiply the square classes of the
  diagonal's lambda, the twisted terminal block and the x1 and x2 tokens
  of the two words (every x and w token is trivial).
* ``wall_spinor_norm``: the discriminant of the Wall form [u,v] = beta(u,y)
  with (I-g)y = v on the moved space (I-g)V, read off (I-g)^T beta on the
  pivot columns of I-g: no linear solve (Zassenhaus, Arch. Math. 13, 1962).
* ``reflection_factorization``: a constructive orthogonal-reflection
  factorisation; the classical norm is the product of beta(v,v)/2 over the
  mirrors.  The descent holds one moved-space record, the rref basis of
  (I-h)V with a preimage per row, built by one reduction and moved to each
  mirror's hyperplane in O(k n) (Wall's form on the moved space); each
  candidate carries one mirror record (its anisotropy test and its norm),
  and the Eichler lookahead is a Gram test on the hyperplane's rows.  The
  closing check rebuilds g from the mirror records by rank-1 updates.

Each route checks the form equation once.  Over Q the classes are held
unfactored (:class:`~steinberg.field.SquareClass`), so no route factors an
integer; only printing a class does.  All three agreeing on exhaustively
enumerated groups is the acceptance anchor for the whole tower.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import mul

from .eliminate import decompose
from .field import Field, Scalar, SquareClass, square_class
from .forms import (
    Family,
    GroupDescriptor,
    InternalError,
    MultiplierNotOne,
    NotInGroup,
    NotOrthogonalFamily,
    multiplier,
)
from .generators import GeneratorToken
from .matrix import Matrix, _lowest, _over_lcm


def _unit_class(field: Field) -> SquareClass:
    return SquareClass(1, field.is_prime)


def _check_orthogonal(d: GroupDescriptor) -> None:
    if not d.family.is_orthogonal:
        raise NotOrthogonalFamily(f"spinor norm undefined for {d.family.value}")


def _not_an_isometry(mu: Scalar) -> NotInGroup:
    return NotInGroup(f"multiplier {mu} != 1: not in the isometry group")


def _check_orthogonal_isometry(g: Matrix, d: GroupDescriptor) -> None:
    _check_orthogonal(d)
    mu = multiplier(g, d)
    if mu != d.field.one:
        raise _not_an_isometry(mu)


def token_spinor_class(tok: GeneratorToken, d: GroupDescriptor) -> SquareClass:
    """Square class of one token (isometry tokens only).

    x tokens (unipotents) and w[i] (the reflection in e_i + e_-i, whose
    beta(v, v) / 2 is 1) are trivial, so :func:`spinor_decomposition`
    skips them; the twisted plane reflections are class(1-t) resp.
    class(eps/2); a torus contributes class(lambda) (its alpha = +-1 slot
    is a norm-trivial reflection).
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
    """(spinor norm, the decomposition it was read from): the product of
    the classes of the torus and of the x1 and x2 tokens, the only tokens
    whose class can be nontrivial.  The form is checked once, by the
    elimination; a multiplier other than 1 is refused with this module's
    message."""
    _check_orthogonal(d)
    try:
        dec = decompose(g, d)
    except MultiplierNotOne as e:
        raise _not_an_isometry(e.mu) from None
    if dec.mu != d.field.one:
        raise _not_an_isometry(dec.mu)
    acc = token_spinor_class(dec.torus_token(), d)
    for tok in dec.left.tokens + dec.right.tokens:
        if tok.kind in ("x1", "x2"):  # x and w tokens are trivial
            acc = acc * token_spinor_class(tok, d)
    return acc, dec


# ---------------------------------------------------------------------------
# Wall form


def wall_spinor_norm(g: Matrix, d: GroupDescriptor) -> SquareClass:
    """disc of the Wall form on the moved space; the identity maps to 1."""
    piv, gram = _wall(g, d)
    f = d.field
    if not piv:
        return _unit_class(f)
    det = gram.det()
    if det == f.zero:
        raise InternalError("the Wall form is degenerate")
    return square_class(f, det)


def _wall(g: Matrix, d: GroupDescriptor) -> tuple:
    """(the pivot columns P of I-g, the Wall gram matrix on P).

    The columns (I-g)e_j over P are a basis of the moved space (I-g)V whose
    preimages are the e_j themselves, so [(I-g)e_a, (I-g)e_b] = beta((I-g)e_a,
    e_b) is the (a, b) entry of (I-g)^T beta: column a of I-g against the
    nonzeros of beta's column b.  Only the |P|^2 entries on P are formed, and
    no scalar basis is built."""
    _check_orthogonal_isometry(g, d)
    tilde = _identity_minus(g)
    piv = tilde.pivot_columns()
    num, nzs = tilde.num, d.beta_columns()
    gram = [[sum(num[k][a] * v for k, v in nzs[b]) for b in piv] for a in piv]
    return piv, Matrix._normal(d.field, gram, tilde.den * d.beta.den)


# ---------------------------------------------------------------------------
# reflections


def _mirror(x: list, den: int, d: GroupDescriptor) -> tuple | None:
    """(x, den, y, a, c, N) for v = x / den with x an integer vector, or
    None when v is isotropic.

    y = beta^T x, read off the nonzeros of each column of beta, and N = x.y
    (residues over F_p), so the reflection in v is (a I - c x y^T) / a: over
    Q a = N and c = 2; over F_p a = 1 and c = 2 / N.  beta(v, v) = N / den^2
    gives the mirror's norm.
    """
    p = d.field.p
    y = [sum(x[i] * bij for i, bij in col) for col in d.beta_columns()]
    nv = sum(xi * yi for xi, yi in zip(x, y))
    if p is not None:
        y = [yi % p for yi in y]
        nv %= p
    if not nv:
        return None
    return (x, den, y, 1, 2 * pow(nv, -1, p), nv) if p is not None else (x, den, y, nv, 2, nv)


def reflection_matrix(v, d: GroupDescriptor) -> Matrix:
    """The reflection in the hyperplane orthogonal to an anisotropic v."""
    m = _mirror(_over_lcm([v])[0][0], 1, d)
    if m is None:
        raise ValueError("reflection needs an anisotropic vector")
    x, _, y, a, c, _ = m
    return Matrix._normal(d.field, [
        [(a if i == j else 0) - c * xi * yj for j, yj in enumerate(y)] for i, xi in enumerate(x)
    ], a)


def _reflected(m: tuple, h: Matrix) -> Matrix:
    """The reflection of the mirror record m times h, as the rank-1 update
    h - c x (y^T h) / a."""
    x, _, y, a, c, _ = m
    z = [sum(map(mul, y, col)) for col in zip(*h.num)]
    return Matrix._normal(h.field, [
        [a * hij - c * xi * zj for hij, zj in zip(row, z)] for xi, row in zip(x, h.num)
    ], a * h.den)


def _identity_minus(h: Matrix) -> Matrix:
    """I - h built in its stored form, (den I - num) / den: reduced mod p
    over F_p, and over Q already in lowest terms, since gcd(den, den I -
    num) = gcd(den, num) = 1."""
    p, den = h.field.p, h.den
    rows = [[(den if i == j else 0) - v for j, v in enumerate(row)] for i, row in enumerate(h.num)]
    if p is not None:
        rows = [[v % p for v in r] for r in rows]
    return Matrix._canonical(h.field, rows, den)


def _record(h: Matrix) -> tuple:
    """The moved-space record (x rows, xden, u rows, uden) of h: the nonzero
    rows x_i / xden of the rref of (I-h)^T, a basis of V_h = (I-h)V, and
    preimages (I-h) u_i / uden = x_i / xden, from one reduction of [(I-h)^T
    | I] pivoted over its left n columns.  With I-h = num / den, the right
    part E_i of row i gives x_i = num E_i, so u_i = den E_i (both over s)."""
    t = _identity_minus(h).transpose()
    n, p = t.cols, h.field.p
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(t.num)]
    piv, _, s = t._reduce(aug)
    rows = aug[:len(piv)]
    return (*_lowest(p, [r[:n] for r in rows], s), *_lowest(p, [[t.den * v for v in r[n:]] for r in rows], s))


def _hyperplane(rec: tuple, u: list, d: GroupDescriptor) -> tuple:
    """The record of s_v h from that of h, for a mirror v in V_h with (I-h)u
    a multiple of v: V_{s_v h} = {x in V_h : beta(u, x) = 0} (Wall's form on
    the moved space), and the preimages carry over with the same
    coefficients.  With phi_k = beta(u, x_k) and t the last k with phi_k !=
    0, row t goes and every other row k becomes phi_t x_k - phi_k x_t, the
    same for the u rows, normalised (over F_p by phi_t^-1).  Each row keeps
    its pivot and row t's pivot column stops being one, so the x rows are
    again in rref, the unique rref of (I - s_v h)^T."""
    p = d.field.p
    z = [sum(u[i] * b for i, b in col) for col in d.beta_columns()]
    phi = [sum(map(mul, z, x)) for x in rec[0]]
    if p is not None:
        phi = [f % p for f in phi]
    t = max(k for k, f in enumerate(phi) if f)
    ft, out = phi[t], ()
    for rows, den in (rec[:2], rec[2:]):
        top, rest = rows[t], [(r, f) for k, (r, f) in enumerate(zip(rows, phi)) if k != t]
        if p is not None:
            inv = pow(ft, -1, p)
            out += [[(a - c * b) % p for a, b in zip(r, top)] if (c := f * inv % p) else r for r, f in rest], 1
        else:
            out += _lowest(None, [[ft * a - f * b for a, b in zip(r, top)] for r, f in rest], ft * den)
    return out


def _isotropic(xs: list, d: GroupDescriptor) -> bool:
    """Whether the rows xs span a totally isotropic space: beta(x_a, x_b) =
    0 for a <= b, up to the first entry that is not."""
    p, cols = d.field.p, d.beta_columns()
    for a, x in enumerate(xs):
        y = [sum(x[i] * b for i, b in col) for col in cols]
        for xb in xs[a:]:
            v = sum(map(mul, y, xb))
            if v if p is None else v % p:
                return False
    return True


def _some_anisotropic(d: GroupDescriptor) -> list:
    x = [0] * d.n
    if d.family is Family.GO_ODD:
        x[d.pos(0)] = 1
    elif d.family is Family.GO_MINUS:
        x[d.pos(1)] = 1
    else:
        x[d.pos(1)] = x[d.pos(-1)] = 1
    return x


def _anisotropic_candidates(rec: tuple, d: GroupDescriptor) -> Iterator[tuple]:
    """(mirror record, preimage) of the anisotropic vectors among the basis
    vectors x_i / xden of the record and the combinations (a x_i + c x_j) /
    (a xden), lazily in that order; the preimage is the same combination of
    the u rows, up to scale.  The coefficients c / a only diversify the
    choices of the descent, so over F_p they stop at 7 and cost the same
    for every prime.
    """
    xs, den, us, _ = rec
    if d.field.is_prime:
        coeffs = [(1, c) for c in range(1, min(d.field.p, 8))]
    else:
        coeffs = [(1, 1), (1, -1), (1, 2), (1, -2), (1, 3), (1, -3), (2, 1), (2, -1)]
    for x, u in zip(xs, us):
        if m := _mirror(x, den, d):
            yield m, u
    for i, (xi, ui) in enumerate(zip(xs, us)):
        for xj, uj in zip(xs[i + 1:], us[i + 1:]):
            for a, c in coeffs:
                if m := _mirror([a * s + c * t for s, t in zip(xi, xj)], a * den, d):
                    yield m, [a * s + c * t for s, t in zip(ui, uj)]


def reflection_factorization(g: Matrix, d: GroupDescriptor) -> tuple:
    """(mirror vectors, classical norm) with g equal to the mirror product.

    Greedy descent on the moved space V_h = (I-h)V: reflecting in any
    anisotropic v of V_h grows the fixed space by one.  The candidates are
    integer combinations of the rref basis of V_h, kept in one record
    (:func:`_record`, :func:`_hyperplane`).  When V_h is totally isotropic
    (the Eichler case, worth two extra mirrors) an auxiliary reflection
    breaks the degeneracy; a one-step lookahead, the Gram test
    :func:`_isotropic` on the candidate's hyperplane, keeps the next choice
    from simply undoing it.  Until the first auxiliary mirror each step
    drops dim V_h by one, so no element can recur; from it on the dense h
    is kept too, and a candidate whose product was met is passed over.  The
    product equality is checked by rebuilding g from the mirror records,
    one rank-1 update each.
    """
    _check_orthogonal_isometry(g, d)
    f = d.field
    mirrors = []
    rec = _record(g)
    h = seen = None  # the dense h and the elements met, from the first auxiliary mirror on
    fuel = 2 * d.n + 6
    while rec[0]:
        fuel -= 1
        if fuel < 0:
            raise InternalError("reflection factorisation failed to terminate")
        choice = fallback = None
        for m, u in _anisotropic_candidates(rec, d):
            rec2, h2 = _hyperplane(rec, u, d), seen and _reflected(m, h)
            if (not seen or h2 not in seen) and not (rec2[0] and _isotropic(rec2[0], d)):
                choice = m, rec2, h2
                break
            fallback = fallback or (m, rec2, h2)
        if choice or fallback:
            m, rec, h = choice or fallback
        else:
            m = _mirror(_some_anisotropic(d), 1, d)
            if not seen:
                h, seen = g, {g}
                for prev in mirrors:
                    h = _reflected(prev, h)
                    seen.add(h)
            h = _reflected(m, h)
            rec = _record(h)
        if seen:
            seen.add(h)
        mirrors.append(m)
    acc = _unit_class(f)
    for *_, nv in mirrors:
        # beta(v, v) / 2 = N / (2 den^2) = 2 N / (2 den)^2, in the class of 2 N
        acc = acc * square_class(f, f.of(2 * nv))
    # g = rho_1 ... rho_k: rebuilt from I by rank-1 updates, last mirror first
    h = Matrix.identity(f, d.n)
    for m in reversed(mirrors):
        h = _reflected(m, h)
    if h != g:
        raise InternalError("mirror product does not reproduce the element")
    return [Matrix._normal(f, [x], den).row(0) for x, den, *_ in mirrors], acc


def in_commutator_subgroup(g: Matrix, d: GroupDescriptor) -> bool:
    """Membership in the commutator subgroup: det 1 and square spinor norm.
    The elimination that gives the norm is also the one form check."""
    theta = spinor_norm(g, d)
    return g.det() == d.field.one and theta.is_square
