"""Double-coset labels for the Siegel maximal parabolic.

P stabilises the span of e_1..e_l, so membership reads off the lower-left
block (plus the X strip in odd rank).  ``coset_label`` reduces the lower
left block C to a leading diagonal using ONLY tokens that live in P
(checked at emission), zeroes the affected rows of A against it, and then
the swap ``omega_m`` pulls the result into P.  The witness words certify
the label: left * g * right lands in omega_m * P.  Both steps are the
elimination's own ``WorkingMatrix.diagonalize`` (on the rows -i and columns
i of C) and ``clear_pairs`` (the A rows against the C pivots).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import rowops
from .forms import Family, GroupDescriptor, InternalError, NotInGroup, UnsupportedFamily, multiplier
from .generators import GeneratorToken, Word, derived_w, evaluate_word, x, x_pattern
from .matrix import Matrix

if TYPE_CHECKING:
    from .harness import Enumeration

_COSET_FAMILIES = (Family.GSP, Family.GO_EVEN, Family.GO_ODD)


def _check(g: Matrix, d: GroupDescriptor) -> None:
    if d.family not in _COSET_FAMILIES:
        raise UnsupportedFamily(f"double cosets implemented for Sp/O split only, not {d.family.value}")
    mu = multiplier(g, d)
    if mu != d.field.one:
        raise NotInGroup(f"multiplier {mu} != 1: parabolic cosets live in the isometry group")


def is_in_parabolic(g: Matrix, d: GroupDescriptor) -> bool:
    """True iff g stabilises the standard maximal isotropic subspace."""
    _check(g, d)
    f = d.field
    for j in d.block_indices():
        for i in d.block_indices():
            if g[d.pos(-i), d.pos(j)] != f.zero:
                return False
        if d.family is Family.GO_ODD and g[d.pos(0), d.pos(j)] != f.zero:
            return False
    return True


def omega_matrix(d: GroupDescriptor, m: int) -> Matrix:
    """The coset representative: the product of the first m swaps."""
    return evaluate_word(Word(d, ()), *(derived_w(i, d) for i in range(1, m + 1)))


@dataclass(frozen=True)
class CosetLabel:
    m: int
    omega: Matrix
    left_witness: Word
    right_witness: Word


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
    first m rows of A, and omega_m^-1 times the result lies in P.
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
    omega = omega_matrix(d, m)
    if not is_in_parabolic(omega.inverse() @ b.matrix(), d):
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
