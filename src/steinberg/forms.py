"""Group families, their fixed Gram matrices, membership and multipliers.

Each family fixes one bilinear form beta and one ordering of the basis:

* GSp(2l), GO+(2l):  basis  e_1..e_l, e_-1..e_-l
* GOodd(2l+1):       basis  e_0, e_1..e_l, e_-1..e_-l
* GOminus(2l):       basis  e_1, e_-1, e_2..e_l, e_-2..e_-l

``GroupDescriptor.pos`` maps a signed basis index to its storage position;
every generator, row operation and elimination step goes through it, since
the three different orderings are the main source of off-by-one mistakes.

:func:`multiplier` is the one form check.  beta is symmetric or skew, so it
compares only the entries j >= i of g^T beta g with mu beta, on the stored
integers, and builds the dense product only to name a failure.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import mul

from .field import Field, InternalError, Record, Scalar, square_class
from .matrix import Matrix


class UnsupportedField(ValueError):
    pass


class UnsupportedFamily(ValueError):
    pass


class NotOrthogonalFamily(ValueError):
    pass


class EnumerationTooLarge(ValueError):
    pass


class NotInGroup(ValueError):
    """Raised with the first position, as signed basis indices (i, j), where
    the form equation fails; ``position`` is None for other failures."""

    def __init__(self, msg: str, position: tuple | None = None):
        super().__init__(msg)
        self.position = position


class MultiplierNotOne(NotInGroup):
    """A similitude with multiplier ``mu`` != 1 where an isometry is needed."""

    def __init__(self, msg: str, mu: Scalar):
        super().__init__(msg)
        self.mu = mu


class Family(Enum):
    GL = "GL"
    GSP = "GSp"
    GO_EVEN = "GOplus"
    GO_ODD = "GOodd"
    GO_MINUS = "GOminus"

    @property
    def is_orthogonal(self) -> bool:
        return self in (Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)


class GroupDescriptor(Record):
    """A family at rank l over a field with its Gram matrix ``beta``; the
    table behind :meth:`pos` is built with it.  ``_omegas`` holds the coset
    representatives of :mod:`steinberg.coset` by m, filled on first use:
    they depend on the descriptor alone, and a memo on the object is not
    shared by equal descriptors built elsewhere."""

    _fields = ("family", "l", "field", "similitude", "beta", "n", "epsilon")
    __slots__ = _fields + ("_positions", "_beta_columns", "_omegas")

    def __init__(self, family: Family, l: int, field: Field, similitude: bool, beta: Matrix, n: int,
                 epsilon: Scalar | None = None):
        self._init(family, l, field, similitude, beta, n, epsilon)
        object.__setattr__(self, "_positions", {i: k for k, i in enumerate(self.basis_indices())})
        object.__setattr__(self, "_beta_columns", None)
        object.__setattr__(self, "_omegas", {})

    def pos(self, i: int) -> int:
        """Storage position of signed basis index i (0 only for GOodd)."""
        try:
            return self._positions[i]
        except KeyError:
            raise ValueError(f"basis index {i} out of range for {self.family.value} with l={self.l}") from None

    def beta_columns(self) -> tuple:
        """The nonzero entries ``(i, beta.num[i][j])`` of each column j, so
        that beta^T x costs one product per nonzero; the multiplier check
        and the reflection route read them, and they are built on first use."""
        if self._beta_columns is None:
            object.__setattr__(self, "_beta_columns", tuple(
                tuple((i, v) for i, v in enumerate(col) if v) for col in zip(*self.beta.num)))
        return self._beta_columns

    def basis_indices(self) -> list:
        """Signed basis indices in storage order; ``pos`` is its inverse."""
        l = self.l
        if self.family is Family.GL:
            return list(range(1, self.n + 1))
        pos, neg = list(range(1, l + 1)), list(range(-1, -l - 1, -1))
        if self.family is Family.GO_ODD:
            return [0] + pos + neg
        if self.family is Family.GO_MINUS:
            return [1, -1] + pos[1:] + neg[1:]
        return pos + neg

    def block_indices(self) -> list:
        """Signed basis indices carrying the square middle block A."""
        if self.family is Family.GO_MINUS:
            return list(range(2, self.l + 1))
        if self.family is Family.GL:
            return list(range(1, self.n + 1))
        return list(range(1, self.l + 1))

    def __str__(self) -> str:
        sim = "similitude" if self.similitude else "isometry"
        return f"{self.family.value}(l={self.l},{self.field},{sim})"


def dimension(family: Family, l: int, field: Field) -> int:
    """n for the family at rank l over the field, checked as
    :func:`build_descriptor` checks it but without building the Gram matrix."""
    if l < 1:
        raise ValueError("rank must be >= 1")
    if family is Family.GO_MINUS and not field.is_prime:
        raise UnsupportedField("twisted form needs a finite field")
    if family is Family.GL:
        return l + 1
    if family is Family.GO_ODD:
        return 2 * l + 1
    return 2 * l


def twisted_epsilon(p: int) -> int:
    """Smallest integer c >= 2 such that diag(1, c) is anisotropic mod p.

    Anisotropy of the plane x^2 + c*y^2 needs -c to be a non-square.  For
    p = 1 mod 4 that is the same as c being a non-square (the usual choice);
    for p = 3 mod 4 a non-square c would give an isotropic plane and hence a
    split group in disguise, so the choice must differ there.
    """
    field = Field(p)
    for c in range(2, 2 * p + 2):
        if c % p == 0:
            continue
        if not square_class(field, (-c) % p).is_square:
            return c
    raise ValueError(f"no anisotropic plane mod {p}")  # pragma: no cover


def build_descriptor(
    family: Family, l: int, field: Field, similitude: bool = False
) -> GroupDescriptor:
    """Descriptor with the family's fixed Gram matrix.

    GOminus is only defined over a finite field; its epsilon is the smallest
    integer making the 2x2 plane anisotropic, so descriptors are
    reproducible and the group really is the second even type.
    """
    n = dimension(family, l, field)
    epsilon = None
    if family is Family.GL:
        beta = Matrix.identity(field, l + 1)  # unused placeholder
    elif family is Family.GSP:
        beta = _split_beta(field, l, skew=True)
    elif family is Family.GO_EVEN:
        beta = _split_beta(field, l, skew=False)
    elif family is Family.GO_ODD:
        beta = _odd_beta(field, l)
    elif family is Family.GO_MINUS:
        epsilon = field.of(twisted_epsilon(field.p))
        beta = _twisted_beta(field, l, epsilon)
    else:  # pragma: no cover
        raise UnsupportedFamily(str(family))
    return GroupDescriptor(family, l, field, similitude, beta, n, epsilon)


def _split_beta(field: Field, l: int, skew: bool) -> Matrix:
    ident = Matrix.identity(field, l)
    zero = Matrix.zeros(field, l, l)
    low = -ident if skew else ident
    return Matrix.assemble(field, [[zero, ident], [low, zero]])


def _odd_beta(field: Field, l: int) -> Matrix:
    n = 2 * l + 1
    m = Matrix.zeros(field, n, n).to_lists()
    m[0][0] = field.of(2)
    for i in range(1, l + 1):
        m[i][l + i] = field.one
        m[l + i][i] = field.one
    return Matrix(field, m)


def _twisted_beta(field: Field, l: int, epsilon: Scalar) -> Matrix:
    n = 2 * l
    m = Matrix.zeros(field, n, n).to_lists()
    m[0][0] = field.one
    m[1][1] = epsilon
    for i in range(2, l + 1):
        m[i][l + i - 1] = field.one
        m[l + i - 1][i] = field.one
    return Matrix(field, m)


def multiplier(g: Matrix, d: GroupDescriptor) -> Scalar:
    """The scalar mu with g^T beta g = mu beta, else :class:`NotInGroup`.

    beta is symmetric or skew, and g^T beta g is then exactly as symmetric
    or skew, so only the entries j >= i are compared.  On the stored
    integers, with g = num / den and beta's integers B over its den, entry
    (i, j) is S_ij / (den^2 bden) for S_ij = (B^T num_i) . num_j, num_i
    the i-th column of num; B^T num_i costs one product per nonzero of
    beta.  mu is read off the first nonzero B_at, and the check is S_ij B_at
    = S_at B_ij (mod p), the denominators cancelling: about n^3 / 2
    products, stopping at the first failure.  Only a failure builds the
    dense g^T (beta g), to name the first failing entry in storage order.
    """
    if d.family is Family.GL:
        raise UnsupportedFamily("GL carries no form")
    n = d.n
    if g.rows != n or g.cols != n:
        raise NotInGroup(f"expected a {n}x{n} matrix", position=None)
    f, p = d.field, d.field.p
    beta = d.beta
    bnum = beta.num
    at = next(((i, j) for i, row in enumerate(bnum) for j, v in enumerate(row) if v), None)
    if at is None:
        raise InternalError(f"the Gram matrix of {d} is zero")
    num = g.num
    cols = list(zip(*num))
    # y[i] = B^T num_i, so that S_ij = y[i] . num_j; row c of B^T num sums
    # b times row k of num over the nonzeros (k, b) of beta's column c
    bt_rows = []
    for nz in d.beta_columns():
        row = [0] * n
        for k, bk in nz:
            row = [u + bk * v for u, v in zip(row, num[k])]
        bt_rows.append(row)
    y = list(zip(*bt_rows))
    a, b = at
    b_at = bnum[a][b]
    s_at = sum(map(mul, y[a], cols[b]))
    mu = f.of(Fraction(s_at, g.den * g.den * b_at))
    for i, (yi, brow) in enumerate(zip(y, bnum)):
        for cj, bij in zip(cols[i:], brow[i:]):
            v = sum(map(mul, yi, cj)) * b_at - s_at * bij
            if v if p is None else v % p:
                m = g.transpose() @ (beta @ g)
                at, got, expected = first_difference(m, beta.scale(mu), d)
                raise NotInGroup(
                    f"g^T beta g = mu beta fails at {at} for mu = {mu}: entry {got}, expected {expected}",
                    position=at,
                )
    if mu == f.zero:
        raise NotInGroup("multiplier is zero (singular matrix)", position=None)
    return mu


def first_difference(a: Matrix, b: Matrix, d: GroupDescriptor) -> tuple:
    """(signed basis indices (i, j), a's entry, b's entry) at the first
    entry in storage order where the unequal n x n matrices a and b differ."""
    signed = d.basis_indices()
    return next(((signed[i], signed[j]), u, v) for i, (ra, rb) in enumerate(zip(a.data, b.data))
                for j, (u, v) in enumerate(zip(ra, rb)) if u != v)


def is_member(g: Matrix, d: GroupDescriptor) -> bool:
    """True iff g satisfies the form equation (and mu=1 for isometry groups)."""
    if d.family is Family.GL:
        return g.rows == g.cols == d.n and g.rank() == d.n
    try:
        mu = multiplier(g, d)
    except NotInGroup:
        return False
    return d.similitude or mu == d.field.one
