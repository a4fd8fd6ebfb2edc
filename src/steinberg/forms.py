"""Group families, their fixed Gram matrices, membership and multipliers.

Each family fixes one bilinear form beta and one ordering of the basis:

* GSp(2l), GO+(2l):  basis  e_1..e_l, e_-1..e_-l
* GOodd(2l+1):       basis  e_0, e_1..e_l, e_-1..e_-l
* GOminus(2l):       basis  e_1, e_-1, e_2..e_l, e_-2..e_-l

``GroupDescriptor.pos`` maps a signed basis index to its storage position;
every generator, row operation and elimination step goes through it, since
the three different orderings are the main source of off-by-one mistakes.
What depends on the group shape (family, l, n) alone is placed at storage
positions once per shape, in a memo that every descriptor of that shape
shares over any field: the signed basis, block and strip indices, the cells
of each block the elimination and the coset labels check by name
(:meth:`GroupDescriptor.cells`), the plan of each pair pass
(:meth:`GroupDescriptor.pair_plan`) and the entry :func:`read_multiplier`
reads.  It holds ints and tuples only, never a scalar or an input.

:func:`multiplier` is the one form check.  beta is symmetric or skew, so it
compares only the entries j >= i of g^T beta g with mu beta, on the stored
integers, and names a failure from the entry where that loop stops.  mu
itself is read in one place, :func:`read_multiplier`: one entry of
g^T beta g, in O(n), which is a membership proof only with a check that
follows (the full loop, or the closing equality of
:func:`steinberg.eliminate.decompose`).
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


# The compiled x-token actions of :mod:`steinberg.generators`, one table per
# group shape: they read the family, l, n and epsilon, never the field, so
# the same shape over F_7, over F_1000000007 and in every descriptor that
# decompose_gl builds per call fills one table.
_X_CODES: dict = {}

# The blocks that the elimination (:mod:`steinberg.eliminate`) and the coset
# labels (:mod:`steinberg.coset`) check, by the name their InternalError
# gives, as signed index pairs over the block indices b, the strip indices s
# (outside the hyperbolic pairs) and the pivot count m.
_BLOCKS = {
    "C rows over the pivots": lambda b, s, m: ((-i, j) for i in b[:m] for j in b),
    "C": lambda b, s, m: ((-i, j) for i in b for j in b),
    "D off its diagonal": lambda b, s, m: ((-i, -j) for i in b for j in b if i != j),
    "B": lambda b, s, m: ((i, -j) for i in b for j in b),
    "F and Y": lambda b, s, m: ((p, q) for t in s for i in b for p, q in ((-i, t), (t, -i))),
    "X over the zero pivots": lambda b, s, m: ((t, i) for t in s for i in b[m:]),
    "A rows over the pivots": lambda b, s, m: ((i, j) for i in b[:m] for j in b),
}


class _Shape:
    """What a group shape (family, l, n) fixes, shared by its descriptors
    over every field: the signed basis indices in storage order and their
    positions, the block and strip indices, and ``memo``, filled on first
    use with storage positions keyed by what they serve."""

    __slots__ = ("signed", "positions", "block", "strips", "memo")

    def __init__(self, family: Family, l: int, n: int):
        self.signed = tuple(_basis_indices(family, l, n))
        self.positions = {i: k for k, i in enumerate(self.signed)}
        if family is Family.GO_MINUS:
            self.block, self.strips = tuple(range(2, l + 1)), (1, -1)
        elif family is Family.GL:
            self.block, self.strips = tuple(range(1, n + 1)), ()
        else:
            self.block, self.strips = tuple(range(1, l + 1)), (0,) if family is Family.GO_ODD else ()
        self.memo = {}


_SHAPES: dict = {}


class GroupDescriptor(Record):
    """A family at rank l over a field with its Gram matrix ``beta``.  The
    table behind :meth:`pos` and the index tuples come from the shape's
    memo (``_shape``), which every descriptor of the same (family, l, n)
    shares.  ``_omegas`` holds the coset
    representatives of :mod:`steinberg.coset` by m, filled on first use:
    they depend on the descriptor alone, and a memo on the object is not
    shared by equal descriptors built elsewhere.  ``_xcodes`` maps each
    legal x-token index pair (i, j) to its compiled action
    (:func:`steinberg.generators.x_code`), filled on first use and shared
    by every descriptor of the same (family, l, n, epsilon)."""

    _fields = ("family", "l", "field", "similitude", "beta", "n", "epsilon")
    __slots__ = _fields + ("_shape", "_positions", "_beta_columns", "_omegas", "_xcodes")

    def __init__(self, family: Family, l: int, field: Field, similitude: bool, beta: Matrix, n: int,
                 epsilon: Scalar | None = None):
        self._init(family, l, field, similitude, beta, n, epsilon)
        shape = _SHAPES.get((family, l, n)) or _SHAPES.setdefault((family, l, n), _Shape(family, l, n))
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_positions", shape.positions)
        object.__setattr__(self, "_beta_columns", None)
        object.__setattr__(self, "_omegas", {})
        object.__setattr__(self, "_xcodes", _X_CODES.setdefault((family, l, n, epsilon), {}))

    def pos(self, i: int) -> int:
        """Storage position of signed basis index i (0 only for GOodd)."""
        try:
            return self._positions[i]
        except KeyError:
            raise ValueError(f"basis index {i} out of range for {self.family.value} with l={self.l}") from None

    def beta_columns(self) -> tuple:
        """The one nonzero ``(i, beta.num[i][j])`` of each column j: every
        family's beta is monomial, a signed permutation (up to the GOodd 2
        and the GOminus epsilon), so beta^T x is ``[b * x[i] for i, b in
        d.beta_columns()]``, one product per entry.  The form checks, the
        Wall form and the reflection route read it; it is built on first
        use, and a Gram matrix that is not monomial raises InternalError."""
        if self._beta_columns is None:
            cols = []
            for j, col in enumerate(zip(*self.beta.num)):
                nz = [(i, v) for i, v in enumerate(col) if v]
                if len(nz) != 1:
                    raise InternalError(f"the Gram matrix of {self} is not monomial in column {j}")
                cols.append(nz[0])
            object.__setattr__(self, "_beta_columns", tuple(cols))
        return self._beta_columns

    def basis_indices(self) -> tuple:
        """Signed basis indices in storage order; ``pos`` is its inverse."""
        return self._shape.signed

    def block_indices(self) -> tuple:
        """Signed basis indices carrying the square middle block A."""
        return self._shape.block

    def strip_indices(self) -> tuple:
        """Signed basis indices outside the hyperbolic pairs, the rows of
        the strip X and the columns of E: 0 for GOodd, 1 and -1 for
        GOminus, none otherwise."""
        return self._shape.strips

    def cells(self, name: str, m: int = 0) -> tuple:
        """The storage (row, col) cells of the block ``name`` of
        ``_BLOCKS`` at pivot count m, in the order of its signed
        definition; placed once per shape."""
        memo = self._shape.memo
        try:
            return memo[name, m]
        except KeyError:
            pos, shape = self._positions, self._shape
            cells = memo[name, m] = tuple((pos[i], pos[j]) for i, j in _BLOCKS[name](shape.block, shape.strips, m))
            return cells

    def pair_plan(self, m: int, s: int, c: int) -> tuple:
        """The plan of :meth:`steinberg.rowops.WorkingMatrix.clear_pairs`
        over the first m block indices: for each pair (i, j), the GSp pairs
        i = j first, then i before j, the storage row of (s*i, c*j), the
        storage row of its pivot (-s*j, c*j), their storage column, and the
        indices (s*i, -s*j) of the clearing token; placed once per shape."""
        memo = self._shape.memo
        try:
            return memo["pairs", m, s, c]
        except KeyError:
            pos, idxs = self._positions, self._shape.block[:m]
            pairs = [(i, i) for i in idxs] if self.family is Family.GSP else []
            pairs += [(i, j) for k, i in enumerate(idxs) for j in idxs[k + 1:]]
            plan = memo["pairs", m, s, c] = tuple(
                (pos[s * i], pos[-s * j], pos[c * j], s * i, -s * j) for i, j in pairs)
            return plan

    def __str__(self) -> str:
        sim = "similitude" if self.similitude else "isometry"
        return f"{self.family.value}(l={self.l},{self.field},{sim})"


def _basis_indices(family: Family, l: int, n: int) -> list:
    if family is Family.GL:
        return list(range(1, n + 1))
    pos, neg = list(range(1, l + 1)), list(range(-1, -l - 1, -1))
    if family is Family.GO_ODD:
        return [0] + pos + neg
    if family is Family.GO_MINUS:
        return [1, -1] + pos[1:] + neg[1:]
    return pos + neg


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
    epsilon = field.of(twisted_epsilon(field.p)) if family is Family.GO_MINUS else None
    if family is Family.GL:
        beta = Matrix.identity(field, n)  # unused placeholder
    else:
        beta = _gram(family, l, n, field, epsilon)
    return GroupDescriptor(family, l, field, similitude, beta, n, epsilon)


def _gram(family: Family, l: int, n: int, field: Field, epsilon: Scalar | None) -> Matrix:
    """beta on signed indices: beta(e_i, e_-i) = 1 and beta(e_-i, e_i) = -1
    for GSp, 1 otherwise, over the hyperbolic pairs; beta(e_0, e_0) = 2 for
    GOodd; diag(1, epsilon) on e_1, e_-1 for GOminus."""
    pos = {i: k for k, i in enumerate(_basis_indices(family, l, n))}
    m = [[0] * n for _ in range(n)]
    for i in range(2 if family is Family.GO_MINUS else 1, l + 1):
        m[pos[i]][pos[-i]] = 1
        m[pos[-i]][pos[i]] = -1 if family is Family.GSP else 1
    if family is Family.GO_ODD:
        m[pos[0]][pos[0]] = 2
    if family is Family.GO_MINUS:
        m[pos[1]][pos[1]], m[pos[-1]][pos[-1]] = 1, epsilon
    return Matrix._normal(field, m)


def read_multiplier(g: Matrix, d: GroupDescriptor) -> tuple:
    """``(mu, S_ab, B_ab)``: the multiplier g has if it is a similitude, read
    off the first nonzero (a, b) of beta alone, after the n x n shape check;
    (a, b) is found once per shape and kept in its memo.

    With g = num / den and beta's integers B, S_ab = num_a^T B num_b is entry
    (a, b) of num^T B num, one product per nonzero of beta (O(n)), and mu =
    S_ab / (den^2 B_ab), or S_ab / B_ab mod p.  Nothing else of the form
    equation is checked: that is :func:`multiplier`'s loop.
    """
    if d.family is Family.GL:
        raise UnsupportedFamily("GL carries no form")
    n = d.n
    if g.rows != n or g.cols != n:
        raise NotInGroup(f"expected a {n}x{n} matrix", position=None)
    p, bnum = d.field.p, d.beta.num
    memo = d._shape.memo
    if (at := memo.get("anchor")) is None:
        at = next(((i, j) for i, row in enumerate(bnum) for j, v in enumerate(row) if v), None)
        if at is None:
            raise InternalError(f"the Gram matrix of {d} is zero")
        memo["anchor"] = at
    a, b = at
    num = g.num
    # S_ab = sum over the nonzeros (k, B_kc) of beta of num[k][a] B_kc num[c][b]
    s_at = sum(bk * num[k][a] * num[c][b] for c, (k, bk) in enumerate(d.beta_columns()))
    b_at = bnum[a][b]
    mu = s_at * pow(b_at, -1, p) % p if p is not None else Fraction(s_at, g.den * g.den * b_at)
    return mu, s_at, b_at


def multiplier(g: Matrix, d: GroupDescriptor) -> Scalar:
    """The scalar mu with g^T beta g = mu beta, else :class:`NotInGroup`.

    beta is symmetric or skew, and g^T beta g is then exactly as symmetric
    or skew, so only the entries j >= i are compared.  On the stored
    integers, with g = num / den and beta's integers B over its den, entry
    (i, j) is S_ij / (den^2 bden) for S_ij = (B^T num_i) . num_j, num_i
    the i-th column of num; beta is monomial, so B^T num_i costs one
    product per entry (:meth:`GroupDescriptor.beta_columns`).  mu, S_at
    and B_at come from :func:`read_multiplier`, and the
    check is S_ij B_at = S_at B_ij (mod p), the denominators cancelling:
    about n^3 / 2 products, stopping at the first failure.  That (i, j) is
    also the first failing entry in storage order, since a failure at (j, i)
    below the diagonal is mirrored at (i, j), which comes first.
    """
    mu, s_at, b_at = read_multiplier(g, d)
    n = d.n
    f, p = d.field, d.field.p
    beta = d.beta
    bnum = beta.num
    num = g.num
    cols = list(zip(*num))
    # y[i] = B^T num_i, so that S_ij = y[i] . num_j
    bc = d.beta_columns()
    y = [[b * col[k] for k, b in bc] for col in cols]
    for i in range(n):
        yi, brow = y[i], bnum[i]
        for j in range(i, n):
            s_ij = sum(map(mul, yi, cols[j]))
            v = s_ij * b_at - s_at * brow[j]
            if v if p is None else v % p:
                signed = d.basis_indices()
                at = (signed[i], signed[j])
                got = f.of(Fraction(s_ij, g.den * g.den * beta.den))
                expected = f.mul(mu, f.of(Fraction(brow[j], beta.den)))
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
