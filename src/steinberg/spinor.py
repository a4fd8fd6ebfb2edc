"""The spinor norm, three independent ways.

* ``spinor_norm``: run the elimination, multiply the square classes of the
  diagonal's lambda, the twisted terminal block and the x1 and x2 tokens
  of the two words (every x and w token is trivial).
* ``wall_spinor_norm``: the discriminant of the Wall form [u,v] = beta(u,y)
  with (I-g)y = v on the moved space (I-g)V (Zassenhaus, Arch. Math. 13,
  1962).  It is det C[P, P] for C = beta^T (I-g), a signed row permutation
  of I-g, and P the pivot columns of I-g, read off one forward reduction of
  C: no linear solve, no Gram matrix and no second determinant.  Jacobi's
  complementary-minor identity ties det C[P, P] to the minor det C[R, P]
  of the rows R the reduction pivots on, and on an isometry ker C^T = ker
  C, so a reduction that keeps its rows in order pivots on R = P.  Over Q
  the minor of C's integers is divided by (den bden)^|P|.
* ``reflection_factorization``: a constructive orthogonal-reflection
  factorisation in Scherk's minimal number of mirrors; the classical norm
  is the product of beta(v,v)/2 over the mirrors.  The descent holds one
  moved-space record, the rref basis of (I-h)V with a preimage per row,
  built by one reduction and moved to each mirror's hyperplane in O(k n)
  (Wall's form on the moved space); each candidate carries one mirror
  record (its anisotropy test and its norm), and the Eichler lookahead is
  a Gram test on the hyperplane's rows.  The closing check rebuilds g from
  the mirror records by rank-1 updates on plain integer rows.

The Wall route checks the form equation once, up front.  The elimination
and the reflection routes read mu off one entry, prove membership by their
closing checks and run the full check only to name a refusal
(:func:`steinberg.eliminate.decompose`, :func:`reflection_factorization`).
beta is monomial, so every beta^T x is read off one entry per column
(:meth:`~steinberg.forms.GroupDescriptor.beta_columns`).
Over Q the classes are held unfactored
(:class:`~steinberg.field.SquareClass`), so no route factors an integer;
only printing a class does.  All three agreeing on exhaustively
enumerated groups is the acceptance anchor for the whole tower.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
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
    read_multiplier,
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
    whose class can be nontrivial.  The elimination proves membership (or
    refuses a non-member as the form check names it); a multiplier other
    than 1 is refused with this module's message."""
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
    """disc of the Wall form on the moved space; the identity maps to 1.
    The form equation is checked up front, and the discriminant is det C[P,
    P] for C = beta^T (I-g), read off one forward reduction of C
    (:func:`_wall_discriminant`)."""
    _check_orthogonal_isometry(g, d)
    piv, disc = _wall_discriminant(g, d)
    if not piv:
        return _unit_class(d.field)
    return square_class(d.field, disc)


def _wall_discriminant(g: Matrix, d: GroupDescriptor) -> tuple:
    """(the pivot columns P of I-g, det C[P, P] for C = beta^T (I-g)), for an
    isometry g.

    The columns (I-g)e_j over P are a basis of the moved space (I-g)V whose
    preimages are the e_j themselves, so its Wall Gram matrix is [(I-g)e_a,
    (I-g)e_b] = beta((I-g)e_a, e_b) = C_ba, that is C[P, P]^T, and the
    discriminant is the principal minor det C[P, P].  beta is monomial, so
    row b of C is s_b times row sigma(b) of den I - num, for (sigma(b), s_b)
    = ``d.beta_columns()[b]``: a signed row permutation of I-g, no product,
    with the same pivot columns P.

    One forward reduction of C (:meth:`Matrix._reduce`) gives P, the rows R
    that end as pivot rows and det C[R, P] times the sign of the row order
    R, R^c, each increasing (R^c the leftover rows, which keep their order).
    For any such R, once ker C^T = ker C, Jacobi's complementary-minor
    identity gives

        det C[P, P] = (-1)^(sum R^c + sum Q) det C[R, P] / det X[R^c]

    (0-based positions in increasing order, Q the free columns, X the basis
    of ker C that is the identity on Q).  On an isometry the kernels
    agree: y^T (I-g) = 0 exactly when beta^-1 y is fixed by g, so ker C^T =
    ker C = ker(I-g).  The reduction keeps its rows in order, so R is the
    first row basis: row i is left over exactly when some y in ker C^T has
    its last nonzero entry at i, as column i is free exactly when some x in
    ker C has.  So R = P, X[R^c] = X[Q] = I and the identity needs no back
    substitution; the row order P, Q has for inversions the pairs q < p of
    a free and a pivot column, sum P - k(k-1)/2 of them for k = |P|.  Every
    rank takes that one path: rank n gives det C, and g = I an empty P.
    Over Q C's integers stand over den * bden, so the minor is divided by
    (den bden)^k.
    """
    p, den, num = d.field.p, g.den, g.num
    c = [[v * ((den if j == i else 0) - e) for j, e in enumerate(num[i])] for i, v in d.beta_columns()]
    if p is not None:
        c = [[v % p for v in r] for r in c]
    piv, det, _ = g._reduce(c, full=False)
    k = len(piv)
    if (sum(piv) - k * (k - 1) // 2) & 1:  # the row order P, Q is odd
        det = -det
    return piv, det % p if p is not None else Fraction(det, (den * d.beta.den) ** k)


# ---------------------------------------------------------------------------
# reflections


def _mirror(x: list, den: int, d: GroupDescriptor) -> tuple | None:
    """(x, den, y, a, c, N) for v = x / den with x an integer vector, or
    None when v is isotropic.

    y = beta^T x, read off the one nonzero of each column of beta, and N =
    x.y (residues over F_p), so the reflection in v is (a I - c x y^T) / a:
    over Q a = N and c = 2; over F_p a = 1 and c = 2 / N.  beta(v, v) = N /
    den^2 gives the mirror's norm.
    """
    p = d.field.p
    y = [b * x[i] for i, b in d.beta_columns()]
    nv = sum(map(mul, x, y))
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


def _reflect_rows(m: tuple, rows: list, p: int | None) -> list:
    """The integer rows of the reflection of the mirror record m times
    rows / den, over a * den: the rank-1 update a rows - c x (y^T rows).
    Over F_p a = 1 and the rows are residues; over Q nothing is reduced."""
    x, _, y, a, c, _ = m
    z = [sum(map(mul, y, col)) for col in zip(*rows)]
    if p is not None:
        return [[(hij - cx * zj) % p for hij, zj in zip(row, z)] if (cx := c * xi % p) else row
                for xi, row in zip(x, rows)]
    return [[a * hij - cx * zj for hij, zj in zip(row, z)] for cx, row in zip((c * xi for xi in x), rows)]


def _reflected(m: tuple, h: Matrix) -> Matrix:
    """The reflection of the mirror record m times h (:func:`_reflect_rows`)."""
    return Matrix._normal(h.field, _reflect_rows(m, h.num, h.field.p), m[3] * h.den)


def _record(h: Matrix) -> tuple:
    """The moved-space record (x rows, xden, u rows, uden) of h: the nonzero
    rows x_i / xden of the rref of (I-h)^T, a basis of V_h = (I-h)V, and
    preimages (I-h) u_i / uden = x_i / xden, from one reduction of [(I-h)^T
    | I] pivoted over its left n columns.  With h = num / den, I-h is (den I
    - num) / den, and row i of the augmented rows is column i of den I - num
    (residues over F_p) followed by e_i, read straight off ``h.num``.  The
    right part E_i of reduced row i gives x_i = (den I - num) E_i, so u_i =
    den E_i (both over s)."""
    n, p, den = h.rows, h.field.p, h.den
    aug = [[(den if i == j else 0) - v for j, v in enumerate(col)] + [0] * n for i, col in enumerate(zip(*h.num))]
    for i, row in enumerate(aug):
        row[n + i] = 1
    if p is not None:
        aug = [[v % p for v in r] for r in aug]
    piv, _, s = h._reduce(aug)
    rows = aug[:len(piv)]
    return (*_lowest(p, [r[:n] for r in rows], s), *_lowest(p, [[den * v for v in r[n:]] for r in rows], s))


def _hyperplane(rec: tuple, u: list, d: GroupDescriptor) -> tuple:
    """The record of s_v h from that of h, for a mirror v in V_h with (I-h)u
    a multiple of v: V_{s_v h} = {x in V_h : beta(u, x) = 0} (Wall's form on
    the moved space), and the preimages carry over with the same
    coefficients.  With phi_k = beta(u, x_k) and t the last k with phi_k !=
    0, row t goes and every other row k becomes phi_t x_k - phi_k x_t, the
    same for the u rows, normalised (over F_p by phi_t^-1).  Each row keeps
    its pivot and row t's pivot column stops being one, so the x rows are
    again in rref, the unique rref of (I - s_v h)^T.  On an isometry the
    Wall form is nondegenerate, so some phi_k is nonzero; when none is, h
    is no isometry, and InternalError is raised."""
    p = d.field.p
    z = [b * u[i] for i, b in d.beta_columns()]
    phi = [sum(map(mul, z, x)) for x in rec[0]]
    if p is not None:
        phi = [f % p for f in phi]
    t = max((k for k, f in enumerate(phi) if f), default=None)
    if t is None:
        raise InternalError("the mirror's preimage is Wall-orthogonal to the whole moved space")
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
        y = [b * x[i] for i, b in cols]
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
    the u rows, up to scale.  Over F_p the coefficients stop at 7 and cost
    the same for every prime; they still give each basis plane at least
    three lines besides x_i and x_j, or over F_3 all four of its lines,
    which keeps a candidate that passes the lookahead among them.
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
    """(mirror vectors, classical norm) with g equal to the mirror product,
    in Scherk's minimal number of mirrors (Canad. J. Math. 2, 1950): dim V_g
    for the moved space V_g = (I-g)V, or dim V_g + 2 when V_g is totally
    isotropic.

    Greedy descent on V_h: reflecting h in an anisotropic v of V_h leaves
    the hyperplane of V_h Wall-orthogonal to v.  The candidates are integer
    combinations of the rref basis of V_h, kept in one record
    (:func:`_record`, :func:`_hyperplane`), and the first whose hyperplane
    is not totally isotropic (the Gram test :func:`_isotropic`) wins, so
    each step drops dim V_h by one.  A totally isotropic V_g (the Eichler
    case) holds no candidate: one auxiliary mirror w, a dense s_w g, leaves
    dim V_g + 1 to descend.  The lookahead rejects a candidate only when
    beta has rank <= 2 on V_h, and then at most two candidate lines, which
    never exhaust the candidates; so a step with none passing raises
    InternalError.

    A return proves membership.  mu is only read off one entry of g^T beta
    g; the closing check (:func:`_check_mirror_product`) proves g equal to
    the product of the reflections in the mirrors, and each mirror is
    anisotropic (:func:`_mirror` keeps no other), so each reflection is an
    isometry and so is their product.  Hence the full form check runs only
    where its verdict is needed: before the descent when mu reads other
    than 1, where a similitude is refused as no isometry, and after it when
    the descent or the closing check fails, where a non-member raises the
    :class:`NotInGroup` that check names, and a member's failure (an
    :class:`InternalError`) is raised as it is.
    """
    _check_orthogonal(d)
    mu = read_multiplier(g, d)[0]
    if mu != d.field.one:
        multiplier(g, d)  # a non-member raises here, and mu = 0 always does
        raise _not_an_isometry(mu)
    try:
        return _factorize(g, d)
    except Exception:
        try:
            multiplier(g, d)
        except NotInGroup as e:
            raise e from None
        raise


def _factorize(g: Matrix, d: GroupDescriptor) -> tuple:
    """The descent and the closing check of :func:`reflection_factorization`."""
    f, p = d.field, d.field.p
    mirrors, rec = [], _record(g)
    fuel = len(rec[0]) + 2  # Scherk's bound
    while rec[0]:
        fuel -= 1
        if fuel < 0:
            raise InternalError("reflection factorisation failed to terminate")
        m = None
        for m, u in _anisotropic_candidates(rec, d):
            nxt = _hyperplane(rec, u, d)
            if not (nxt[0] and _isotropic(nxt[0], d)):
                break
        else:
            if m or mirrors:
                raise InternalError("no candidate passes the lookahead")
            # only a totally isotropic V_g holds no candidate at all
            m = _mirror(_some_anisotropic(d), 1, d)
            nxt = _record(_reflected(m, g))
        mirrors.append(m)
        rec = nxt
    _check_mirror_product(mirrors, g)
    acc = _unit_class(f)
    for *_, nv in mirrors:
        # beta(v, v) / 2 = N / (2 den^2) = 2 N / (2 den)^2, in the class of 2 N
        acc = acc * square_class(f, f.of(2 * nv))
    if p is not None:
        vectors = [tuple(v % p for v in x) for x, *_ in mirrors]  # den is 1 over F_p
    else:
        vectors = [tuple(Fraction(v, den) for v in x) for x, den, *_ in mirrors]
    return vectors, acc


def _check_mirror_product(mirrors: list, g: Matrix) -> None:
    """g = rho_1 ... rho_k, else InternalError: the product rebuilt from I
    by rank-1 updates (:func:`_reflect_rows`), last mirror first, on plain
    integer rows, residues over F_p and over Q over one running
    denominator, the product of the mirrors' a; then compared with g once,
    the two denominators cross-multiplied."""
    p, n = g.field.p, g.rows
    rows, den = [[0] * n for _ in range(n)], 1
    for k, row in enumerate(rows):
        row[k] = 1
    for m in reversed(mirrors):
        rows = _reflect_rows(m, rows, p)
        den *= m[3]
    gden = g.den
    if any(u * gden != v * den for r, gr in zip(rows, g.num) for u, v in zip(r, gr)):
        raise InternalError("mirror product does not reproduce the element")


def in_commutator_subgroup(g: Matrix, d: GroupDescriptor) -> bool:
    """Membership in the commutator subgroup: det 1 and square spinor norm.
    The elimination that gives the norm is also the membership proof."""
    theta = spinor_norm(g, d)
    return g.det() == d.field.one and theta.is_square
