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
from .field import Record
from .forms import Family, GroupDescriptor, InternalError, NotInGroup, UnsupportedFamily, multiplier
from .generators import GeneratorToken, Word, derived_w, evaluate_word, x, x_pattern
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
    if tok.kind != "x" or x_pattern(tok.i, tok.j, d) not in _P_LEGAL_PATTERNS:
        raise InternalError(f"witness token {tok} does not lie in P")
    return tok


class _Witness(rowops.WorkingMatrix):
    """The working matrix plus the two witness words, parabolic tokens only."""

    def __init__(self, g: Matrix, d: GroupDescriptor):
        super().__init__(g, d)
        self.left: list = []
        self.right: list = []

    def lmul(self, tok: GeneratorToken) -> None:
        super().lmul(_assert_parabolic_token(tok, self.d))
        self.left.insert(0, tok)

    def rmul(self, tok: GeneratorToken) -> None:
        super().rmul(_assert_parabolic_token(tok, self.d))
        self.right.append(tok)


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
    m = b.diagonalize([-i for i in idxs], idxs, lambda src, dst, t: x(-src, -dst, t))
    pivots = idxs[:m]
    if d.family is Family.GO_ODD:
        for i in pivots:
            if (t := b.ratio(0, i, -i, i)) is not None:
                b.lmul(x(i, 0, t))  # row 0 -= t * row -i
        # the form kills the tail of X
        b.require_zero(((0, i) for i in idxs[m:]), "X over the zero pivots")
    b.clear_pairs(pivots, 1, 1)
    # one token per pair: the form kills the partner and the rest of the rows
    b.require_zero(((i, j) for i in pivots for j in idxs), "A rows over the pivots")
    omega, rows, cols = _omega(d, m)
    if any(b.num[r][c] for r in rows for c in cols):
        raise InternalError(f"reduced matrix is not in omega_{m} * P")
    return CosetLabel(
        m=m,
        omega=omega,
        left_witness=Word(d, b.left),
        right_witness=Word(d, b.right),
    )


def coset_census(d: GroupDescriptor, enumeration: Enumeration) -> dict:
    """Label histogram over an exhaustive enumeration; exactly l+1 labels."""
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
