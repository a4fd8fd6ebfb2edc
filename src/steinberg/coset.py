"""Double-coset labels for the Siegel maximal parabolic.

P stabilises the span of e_1..e_l, so membership reads off the lower-left
block (plus the X strip in odd rank).  ``coset_label`` reduces the lower
left block C to a leading diagonal using ONLY tokens that live in P
(checked at emission), zeroes the affected rows of A against it, and then
the swap ``omega_m`` pulls the result into P.  The witness words certify
the label: left * g * right lands in omega_m * P.  Both steps are the
elimination's own ``WorkingMatrix.diagonalize`` (on the rows -i and columns
i of C) and ``clear_pairs`` (the A rows against the C pivots).

The form is checked once, on g; the reduced matrix is an isometry by
construction.  omega_m is a signed permutation, built once per descriptor
and m, so the closing check reads P's zero block straight off the working
matrix's integers, on the rows omega_m moves onto it, without inverting
omega_m or forming a product.  ``verify_label`` stays the dense recheck.
"""

from __future__ import annotations

from collections import Counter

from . import rowops
from .field import Record, Scalar
from .forms import Family, GroupDescriptor, InternalError, NotInGroup, UnsupportedFamily, multiplier
from .generators import GeneratorToken, Word, derived_w, evaluate_word, x, x_code, x_token_units
from .matrix import Matrix

_COSET_FAMILIES = (Family.GSP, Family.GO_EVEN, Family.GO_ODD)


def _check(g: Matrix, d: GroupDescriptor) -> None:
    if d.family not in _COSET_FAMILIES:
        raise UnsupportedFamily(f"double cosets implemented for Sp/O split only, not {d.family.value}")
    mu = multiplier(g, d)
    if mu != d.field.one:
        raise NotInGroup(f"multiplier {mu} != 1: parabolic cosets live in the isometry group")


def _zero_block(d: GroupDescriptor) -> tuple:
    """(rows, columns), as storage positions, of the block that vanishes on
    P: the rows -i (and 0 in odd rank) over the columns i."""
    idxs = d.block_indices()
    rows = [d.pos(-i) for i in idxs] + ([d.pos(0)] if d.family is Family.GO_ODD else [])
    return rows, [d.pos(j) for j in idxs]


def is_in_parabolic(g: Matrix, d: GroupDescriptor) -> bool:
    """True iff g stabilises the standard maximal isotropic subspace."""
    _check(g, d)
    rows, cols = _zero_block(d)
    return not any(g.num[r][c] for r in rows for c in cols)


def omega_matrix(d: GroupDescriptor, m: int) -> Matrix:
    """The coset representative: the product of the first m swaps."""
    return evaluate_word(Word(d, ()), *(derived_w(i, d) for i in range(1, m + 1)))


def _omega(d: GroupDescriptor, m: int) -> tuple:
    """(omega_m, rows, columns) with b in omega_m * P exactly when b is
    zero on those rows and columns, kept in the descriptor's memo.

    omega_m is monomial: its column r has one nonzero, in row a(r), so row
    r of omega_m^-1 b is a nonzero multiple of row a(r) of b, and P's zero
    block on rows r reads off b on the rows a(r).
    """
    memo = d._omegas
    if m not in memo:
        omega = omega_matrix(d, m)
        at = [[a for a, v in enumerate(col) if v] for col in zip(*omega.num)]
        if any(len(a) != 1 for a in at) or len({a for a, in at}) != d.n:
            raise InternalError(f"reduced matrix is not in omega_{m} * P")
        rows, cols = _zero_block(d)
        memo[m] = (omega, [at[r][0] for r in rows], cols)
    return memo[m]


class CosetLabel(Record):
    __slots__ = _fields = ("m", "omega", "left_witness", "right_witness")

    def __init__(self, m: int, omega: Matrix, left_witness: Word, right_witness: Word):
        self._init(m, omega, left_witness, right_witness)


_P_LEGAL_PATTERNS = {"pp", "pn", "pnm", "i0"}


def _assert_parabolic_token(tok: GeneratorToken, d: GroupDescriptor) -> GeneratorToken:
    """The token, if it is an x-token of P; the pattern is read from the
    pair's compiled code, which applying the token and validating the
    witness word look up too, so each pair is classified once."""
    if tok.kind != "x" or (d._xcodes.get((tok.i, tok.j)) or x_code(tok.i, tok.j, d))[0] not in _P_LEGAL_PATTERNS:
        raise InternalError(f"witness token {tok} does not lie in P")
    return tok


class _Witness(rowops.WorkingMatrix):
    """The working matrix plus the two witness words, parabolic tokens
    only, each with the units it was applied with.  The left word is
    collected in application order and reversed once, in :meth:`words`."""

    def __init__(self, g: Matrix, d: GroupDescriptor):
        super().__init__(g, d)
        self.left: list = []
        self.left_units: list = []
        self.right: list = []
        self.right_units: list = []

    # rowops.apply is called through the module, where a tracer may wrap it
    def xmul(self, i: int, j: int, t: Scalar, side: rowops.Side, neg: bool = False) -> None:
        """Apply x[i,j](t), or x[i,j](-t) with ``neg``, and record that token
        with its units, once it is checked to lie in P."""
        d = self.d
        if neg:
            t = d.field.neg(t)
        tok = _assert_parabolic_token(x(i, j, t), d)
        delta = x_token_units(i, j, t, d)
        rowops.apply(self, delta, side)
        if side is rowops.LEFT:
            self.left.append(tok)
            self.left_units.append(delta)
        else:
            self.right.append(tok)
            self.right_units.append(delta)

    def words(self) -> tuple:
        """(left witness, right witness): the left tokens reversed, as the
        product left * g * right reads them."""
        d = self.d
        self.left.reverse()
        self.left_units.reverse()
        return Word._trusted(d, self.left, self.left_units), Word._trusted(d, self.right, self.right_units)


def coset_label(g: Matrix, d: GroupDescriptor) -> CosetLabel:
    """The unique m with g in P * omega_m * P, plus certifying witnesses.

    Left-multiplying by x[i,j](t) adds a multiple of C's row i into row j;
    right-multiplying adds a multiple of column i into column j.  That is
    enough to bring C to a diagonal with its m pivots leading, after which
    the form equation lets x[i,-j](t) (and x[i,-i](t) for GSp) kill the
    first m rows of A, and omega_m^-1 times the result lies in P: checked
    on the working matrix's integers through :func:`_omega`.
    """
    _check(g, d)
    b = _Witness(g, d)
    idxs = d.block_indices()
    m = b.diagonalize([-i for i in idxs], idxs, lambda src, dst: (-src, -dst, False))
    pivots = idxs[:m]
    if d.family is Family.GO_ODD:
        for i in pivots:
            if (t := b.ratio(0, i, -i, i)) is not None:
                b.xmul(i, 0, t, rowops.LEFT)  # row 0 -= t * row -i
        # the form kills the tail of X
        b.require_cleared("X over the zero pivots", m)
    b.clear_pairs(m, 1, 1)
    # one token per pair: the form kills the partner and the rest of the rows
    b.require_cleared("A rows over the pivots", m)
    omega, rows, cols = _omega(d, m)
    if any(b.num[r][c] for r in rows for c in cols):
        raise InternalError(f"reduced matrix is not in omega_{m} * P")
    left, right = b.words()
    return CosetLabel(m=m, omega=omega, left_witness=left, right_witness=right)


def coset_census(d: GroupDescriptor, enumeration) -> dict:
    """Label histogram over an exhaustive enumeration of d (a
    :class:`steinberg.harness.Enumeration`); exactly l+1 labels."""
    counts: Counter = Counter()
    for g in enumeration.elements:
        counts[coset_label(g, d).m] += 1
    if set(counts) != set(range(d.l + 1)):
        raise InternalError(f"expected labels 0..{d.l}, got {sorted(counts)}")
    return dict(sorted(counts.items()))


def verify_label(g: Matrix, label: CosetLabel, d: GroupDescriptor) -> bool:
    """Recheck the witness equation left * g * right in omega_m * P."""
    prod = evaluate_word(label.left_witness, g, label.right_witness)
    return is_in_parabolic(label.omega.inverse() @ prod, d)
