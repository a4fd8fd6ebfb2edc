"""Steinberg elementary matrices as symbolic tokens plus evaluation.

A token is one of

* ``x[i,j](t)``  one-parameter unipotents; the index pair picks the flavour
  (plain pair, short pairs i<j against -j, the symplectic x[i,-i]/x[-i,i],
  the odd-rank pairs against index 0, the twisted pairs against 1 and -1),
* ``w[i]``       the involution swapping e_i and e_-i with signs,
* ``x1(t,s)``    the twisted reflection in (t-1)e_1 + s e_-1, t^2+eps*s^2=1,
* ``x2``         the twisted reflection in e_-1,
* ``torus(...)`` the terminal diagonal of a decomposition,

so a decomposition serialises as one word.  Every non-torus token evaluates
to an isometry (multiplier 1) of its family; that is tested, not assumed.

How a token acts is described once, by :func:`token_delta`: integer
``(row, col, value)`` entries at storage positions over one positive
denominator (1 over F_p, where the values are residues), the token's matrix
being ``(den * I + entries) / den``.  The elimination applies it in place
(:func:`steinberg.rowops.apply`) and :func:`evaluate_word` feeds it to the
product kernel as a factor, both through the one update loop of
:mod:`steinberg.matrix`; :func:`token_matrix` builds the dense matrix from
it for the closure enumeration, the tests and the terminal-diagonal check.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .field import Record, Scalar
from .matrix import DimensionMismatch, Matrix
from .forms import Family, GroupDescriptor


class IllegalToken(ValueError):
    pass


class GeneratorToken(namedtuple("GeneratorToken", "kind i j t s alpha lam mu",
                                defaults=(0, 0, None, None, None, None, None))):
    """One token: ``kind`` is "x", "w", "x1", "x2" or "torus"; the integer
    indices ``i``, ``j`` and the scalar parameters ``t``, ``s``, ``alpha``,
    ``lam``, ``mu`` default to 0 and None."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == "x":
            return f"x[{self.i},{self.j}]({self.t})"
        if self.kind == "w":
            return f"w[{self.i}]"
        if self.kind == "x1":
            return f"x1({self.t},{self.s})"
        if self.kind == "x2":
            return "x2"
        parts = []
        if self.t is not None:
            parts.append(f"{self.t},{self.s}")
        elif self.alpha is not None:
            parts.append(str(self.alpha))
        parts += [str(self.lam), str(self.mu)]
        return f"torus({';'.join(parts)})"


def x(i: int, j: int, t: Scalar) -> GeneratorToken:
    return GeneratorToken("x", i=i, j=j, t=t)


def w(i: int) -> GeneratorToken:
    return GeneratorToken("w", i=i)


def x1(t: Scalar, s: Scalar) -> GeneratorToken:
    return GeneratorToken("x1", t=t, s=s)


def x2() -> GeneratorToken:
    return GeneratorToken("x2")


def torus(
    lam: Scalar,
    mu: Scalar,
    alpha: Scalar | None = None,
    ts: tuple | None = None,
) -> GeneratorToken:
    if ts is None:
        return GeneratorToken("torus", lam=lam, mu=mu, alpha=alpha)
    return GeneratorToken("torus", lam=lam, mu=mu, t=ts[0], s=ts[1])


# ---------------------------------------------------------------------------
# legality


def x_pattern(i: int, j: int, d: GroupDescriptor) -> str:
    """Classify a legal x-token index pair for the family, or raise."""
    pat = _x_pattern(i, j, d.family, d.l, d.n)
    if pat is None:
        group = f"GL({d.n})" if d.family is Family.GL else f"{d.family.value}(l={d.l})"
        raise IllegalToken(f"x[{i},{j}] illegal for {group}")
    return pat


# Keyed on what the classification reads rather than on the descriptor, which
# callers such as decompose_gl build afresh per call; an illegal pair is None.
@lru_cache(maxsize=4096)
def _x_pattern(i: int, j: int, fam: Family, l: int, n: int) -> str | None:
    if fam is Family.GL:
        if i != j and 1 <= i <= n and 1 <= j <= n:
            return "gl"
        return None
    if fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD):
        lo, hi = 1, l
        if fam is Family.GO_ODD:
            if i == 0 and lo <= j <= hi:
                return "0i"
            if j == 0 and lo <= i <= hi:
                return "i0"
        if lo <= i <= hi and lo <= j <= hi and i != j:
            return "pp"
        if lo <= i <= hi and -hi <= j <= -lo:
            if i < -j:
                return "pn"
            if i == -j and fam is Family.GSP:
                return "pnm"
        if -hi <= i <= -lo and lo <= j <= hi:
            if -i < j:
                return "np"
            if -i == j and fam is Family.GSP:
                return "npm"
        return None
    # GO_MINUS: generic indices run over 2..l, the pair (1,-1) is special
    if 2 <= i <= l and j == 1:
        return "i1"
    if i == 1 and 2 <= j <= l:
        return "1i"
    if 2 <= i <= l and j == -1:
        return "in1"
    if i == -1 and 2 <= j <= l:
        return "n1i"
    if 2 <= i <= l and 2 <= j <= l and i != j:
        return "pp"
    if 2 <= i <= l and -l <= j <= -2 and i < -j:
        return "pn"
    if -l <= i <= -2 and 2 <= j <= l and -i < j:
        return "np"
    return None


def validate_token(tok: GeneratorToken, d: GroupDescriptor) -> None:
    f = d.field
    if tok.kind == "x":
        x_pattern(tok.i, tok.j, d)
        return
    if tok.kind == "w":
        if d.family in (Family.GO_EVEN, Family.GO_ODD):
            if tok.i != d.l:
                raise IllegalToken(f"w[{tok.i}]: only w[{d.l}] exists for {d.family.value}")
            return
        if d.family is Family.GO_MINUS:
            if not 2 <= tok.i <= d.l:
                raise IllegalToken(f"w[{tok.i}] out of range for GOminus(l={d.l})")
            return
        raise IllegalToken(f"w tokens do not exist for {d.family.value}")
    if tok.kind in ("x1", "x2"):
        if d.family is not Family.GO_MINUS:
            raise IllegalToken(f"{tok.kind} only exists for GOminus")
        if tok.kind == "x1":
            t, s = f.of(tok.t), f.of(tok.s)
            lhs = f.add(f.mul(t, t), f.mul(d.epsilon, f.mul(s, s)))
            if lhs != f.one:
                raise IllegalToken(f"x1({tok.t},{tok.s}): t^2+eps*s^2 != 1")
        return
    if tok.kind == "torus":
        _validate_torus(tok, d)
        return
    raise IllegalToken(f"unknown token kind {tok.kind!r}")


def _validate_torus(tok: GeneratorToken, d: GroupDescriptor) -> None:
    f = d.field
    lam, mu = f.of(tok.lam), f.of(tok.mu)
    if lam == f.zero or mu == f.zero:
        raise IllegalToken("torus needs nonzero lambda and mu")
    fam = d.family
    if fam is Family.GL:
        if mu != f.one or tok.alpha is not None or tok.t is not None:
            raise IllegalToken("GL torus is torus(lambda;1)")
    elif fam in (Family.GSP, Family.GO_EVEN):
        if tok.alpha is not None or tok.t is not None:
            raise IllegalToken(f"{fam.value} torus is torus(lambda;mu)")
    elif fam is Family.GO_ODD:
        if tok.alpha is None or tok.t is not None:
            raise IllegalToken("GOodd torus is torus(alpha;lambda;mu)")
        a = f.of(tok.alpha)
        if f.mul(a, a) != mu:
            raise IllegalToken("GOodd torus needs alpha^2 = mu")
    else:  # GO_MINUS
        if tok.alpha is not None:
            raise IllegalToken("GOminus torus carries no alpha")
        if d.l == 1 and lam != f.one:
            # rank 1 has no hyperbolic slot for lambda to live in
            raise IllegalToken("GOminus torus at l=1 needs lambda = 1")
        if tok.t is None:
            if mu != f.one:
                raise IllegalToken("GOminus torus with identity block needs mu = 1")
        else:
            t, s = f.of(tok.t), f.of(tok.s)
            if f.add(f.mul(t, t), f.mul(d.epsilon, f.mul(s, s))) != mu:
                raise IllegalToken("GOminus torus block needs t^2+eps*s^2 = mu")


# ---------------------------------------------------------------------------
# token -> matrix


def token_delta(tok: GeneratorToken, d: GroupDescriptor) -> tuple:
    """``(entries, den)``: the token's matrix is ``(den * I + entries) / den``.

    This is the one description of how a token acts.  ``entries`` are
    storage-position ``(row, col, value)`` triples with distinct positions
    and integer values, none zero; ``den`` is one positive denominator, 1
    over F_p, where the values are residues.  An x-token's values come
    straight from t = a/b (a residue over b = 1 over F_p): +-a over b, or,
    for the patterns that carry t^2, +-ab, +-2ab, +-a^2 and +-2a^2 over
    b^2, so no scalar is built.  :func:`token_matrix` builds the matrix from
    it, :func:`steinberg.rowops.apply` applies it to rows or columns in
    place, and :meth:`Matrix._chain` takes it as a factor.
    """
    f = d.field
    if tok.kind == "x":
        pat = x_pattern(tok.i, tok.j, d)
        t = f.of(tok.t)
        units, den = _x_units(tok.i, tok.j, pat, t.numerator, t.denominator, d)
    else:
        validate_token(tok, d)
        if tok.kind == "w":
            i = tok.i
            units = [(i, i, -1), (-i, -i, -1), (i, -i, -1), (-i, i, -1)]
        elif tok.kind == "x1":
            units = _plane_units(f.of(tok.t), f.of(tok.s), d)
        elif tok.kind == "x2":
            units = [(-1, -1, -2)]
        else:
            units = _torus_units(tok, d)
        den = math.lcm(*(v.denominator for _, _, v in units))
        units = [(a, b, v.numerator * (den // v.denominator)) for a, b, v in units]
    pos, p = d._positions, f.p
    if p is None:
        return [(pos[a], pos[b], v) for a, b, v in units if v], den
    return [(pos[a], pos[b], r) for a, b, v in units if (r := v % p)], 1


def token_matrix(tok: GeneratorToken, d: GroupDescriptor) -> Matrix:
    """The exact matrix of a token in the family's fixed basis:
    ``den * I + entries`` of its delta over ``den``, normalised."""
    entries, den = token_delta(tok, d)
    m = [[0] * d.n for _ in range(d.n)]
    for k, row in enumerate(m):
        row[k] = den
    for r, c, v in entries:
        m[r][c] += v
    return Matrix._normal(d.field, m, den)


def _torus_units(tok: GeneratorToken, d: GroupDescriptor) -> list:
    """Signed-index (row, col, scalar) triples of a torus token minus I."""
    f = d.field
    one, lam = f.one, f.of(tok.lam)
    if d.family is Family.GL:
        return [(d.n, d.n, f.sub(lam, one))]
    mu = f.of(tok.mu)
    units = []
    if d.family is Family.GO_ODD:
        units.append((0, 0, f.sub(f.of(tok.alpha), one)))
    if tok.t is not None:
        units += _plane_units(f.of(tok.t), f.of(tok.s), d)
    block = d.block_indices()
    for i in block[:-1]:
        units.append((-i, -i, f.sub(mu, one)))
    if block:
        i = block[-1]
        units += [(i, i, f.sub(lam, one)), (-i, -i, f.sub(f.div(mu, lam), one))]
    return units


def _plane_units(t: Scalar, s: Scalar, d: GroupDescriptor) -> list:
    """[[t, eps*s], [s, -t]] - I on the anisotropic plane e_1, e_-1."""
    f = d.field
    return [
        (1, 1, f.sub(t, f.one)),
        (1, -1, f.mul(d.epsilon, s)),
        (-1, 1, s),
        (-1, -1, f.neg(f.add(t, f.one))),
    ]


def _x_units(i: int, j: int, pat: str, a: int, b: int, d: GroupDescriptor) -> tuple:
    """(signed-index (row, col, integer) triples, den) of x[i,j](a/b) - I
    for the index pattern ``pat``; the integers are not yet reduced mod p."""
    if pat in ("gl", "pnm", "npm"):
        return [(i, j, a)], b
    if pat == "pp":
        return [(i, j, a), (-j, -i, -a)], b
    if pat in ("pn", "np"):
        # the short pairs: the partner unit carries +t for GSp, -t otherwise
        return [(i, j, a), (-j, -i, a if d.family is Family.GSP else -a)], b
    # the remaining patterns carry t^2, so they stand over b^2, where t is ab
    t, t2, den = a * b, a * a, b * b
    if pat == "i0":
        return [(i, 0, 2 * t), (0, -i, -t), (i, -i, -t2)], den
    if pat == "0i":
        return [(-j, 0, -2 * t), (0, j, t), (-j, j, -t2)], den
    # Twisted pairs against the anisotropic plane, normalised so they are
    # isometries of diag(1,eps) + hyperbolic (beta(e_1,e_1)=1, not 2).
    eps = d.epsilon
    if pat == "i1":
        return [(1, i, 2 * t), (-i, 1, -2 * t), (-i, i, -2 * t2)], den
    if pat == "1i":
        return [(j, 1, 2 * t), (1, -j, -2 * t), (j, -j, -2 * t2)], den
    if pat == "in1":
        return [(-1, i, 2 * t), (-i, -1, -2 * eps * t), (-i, i, -2 * eps * t2)], den
    if pat == "n1i":
        return [(j, -1, 2 * eps * t), (-1, -j, -2 * t), (j, -j, -2 * eps * t2)], den
    raise IllegalToken(pat)  # pragma: no cover


def token_inverse(tok: GeneratorToken) -> GeneratorToken:
    """The inverse, again a single token.

    x-tokens negate t (one-parameter subgroups); w, x1 and x2 are
    involutions.  Torus inverses need field inversions, so they live in
    :func:`token_inverse_in`.
    """
    if tok.kind == "x":
        return x(tok.i, tok.j, -tok.t)
    if tok.kind in ("w", "x1", "x2"):
        return tok
    raise IllegalToken("torus inverse needs the descriptor; use token_inverse_in")


def token_inverse_in(tok: GeneratorToken, d: GroupDescriptor) -> GeneratorToken:
    """The inverse in the family: an x-token negates t, in canonical field
    form; the involutions w, x1 and x2 come back unchanged; a torus inverts
    its parameters."""
    f = d.field
    if tok.kind == "x":
        return x(tok.i, tok.j, f.neg(f.of(tok.t)))
    if tok.kind != "torus":
        return tok
    lam, mu = f.inv(f.of(tok.lam)), f.inv(f.of(tok.mu))
    if tok.alpha is not None:
        return torus(lam, mu, alpha=f.inv(f.of(tok.alpha)))
    if tok.t is not None:
        minv = f.inv(f.of(tok.mu))
        return torus(lam, mu, ts=(f.mul(f.of(tok.t), minv), f.mul(f.of(tok.s), minv)))
    return torus(lam, mu)


# ---------------------------------------------------------------------------
# words


class Word(Record):
    __slots__ = _fields = ("descriptor", "tokens")

    def __init__(self, descriptor: GroupDescriptor, tokens: tuple):
        tokens = tuple(tokens)
        for tok in tokens:
            validate_token(tok, descriptor)
        self._init(descriptor, tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return " ".join(str(t) for t in self.tokens)


def evaluate_word(word: Word, *rest: Word | Matrix) -> Matrix:
    """The ordered product of the parts in one chain from I: a word stands
    for its tokens' integer deltas (:func:`token_delta`), in order, a matrix
    for itself, so no token matrix is built.  The first word gives the field
    and size; the empty word is I."""
    d = word.descriptor
    return Matrix._chain(Matrix.identity(d.field, d.n), _factors(d, (word, *rest)))


def _factors(d: GroupDescriptor, parts: Iterable[Word | Matrix]) -> Iterator:
    for part in parts:
        if isinstance(part, Matrix):
            yield part
            continue
        e = part.descriptor
        if (e.field, e.n) != (d.field, d.n):
            raise DimensionMismatch(f"a word of {e} in a product over {d}")
        for tok in part.tokens:
            yield token_delta(tok, e)


def derived_w(i: int, d: GroupDescriptor) -> Word:
    """A word whose product swaps e_i and e_-i with signs (w_{i,-i}).

    GSp and GOodd have direct three-token expressions.  GOplus only has the
    generator at index l; lower indices conjugate it through the pair swaps
    w_{l,i} and w_{l,-i}, each itself three tokens.
    """
    fam = d.family
    if fam is Family.GSP:
        toks = [x(i, -i, 1), x(-i, i, -1), x(i, -i, 1)]
    elif fam is Family.GO_ODD:
        toks = [x(0, i, -1), x(i, 0, 1), x(0, i, -1)]
    elif fam is Family.GO_MINUS:
        toks = [w(i)]
    elif fam is Family.GO_EVEN:
        if i == d.l:
            toks = [w(d.l)]
        else:
            l = d.l
            toks = [w(l)]
            toks += [x(l, i, 1), x(i, l, -1), x(l, i, 1)]
            toks += [x(i, -l, -1), x(-i, l, -1), x(i, -l, -1)]
    else:
        raise IllegalToken(f"derived swap undefined for {fam.value}")
    return Word(d, toks)


def derived_h(lam: Scalar, d: GroupDescriptor) -> Word:
    """Word for diag(1,..,1,lambda,1,..,1,lambda^-1) in GSp."""
    if d.family is not Family.GSP:
        raise IllegalToken("derived_h only exists for GSp")
    f = d.field
    lam = f.of(lam)
    if lam == f.zero:
        raise IllegalToken("lambda must be nonzero")
    l = d.l
    lv = f.neg(f.inv(lam))
    return Word(d, [
        x(l, -l, lam), x(-l, l, lv), x(l, -l, lam),
        x(l, -l, -1), x(-l, l, 1), x(l, -l, -1),
    ])


# ---------------------------------------------------------------------------
# serialisation

_X_RE = re.compile(r"^x\[(-?\d+),(-?\d+)\]\((-?[\d/]+)\)$")
_W_RE = re.compile(r"^w\[(\d+)\]$")
_X1_RE = re.compile(r"^x1\((-?[\d/]+),(-?[\d/]+)\)$")
_TORUS_RE = re.compile(r"^torus\(([^)]*)\)$")


def parse_token(text: str, d: GroupDescriptor) -> GeneratorToken:
    """Parse one token in the grammar emitted by ``str(token)``."""
    text = text.strip()
    f = d.field
    if m := _X_RE.match(text):
        tok = x(int(m.group(1)), int(m.group(2)), f.parse(m.group(3)))
    elif m := _W_RE.match(text):
        tok = w(int(m.group(1)))
    elif m := _X1_RE.match(text):
        tok = x1(f.parse(m.group(1)), f.parse(m.group(2)))
    elif text == "x2":
        tok = x2()
    elif m := _TORUS_RE.match(text):
        parts = [p.strip() for p in m.group(1).split(";")]
        if len(parts) == 2:
            tok = torus(f.parse(parts[0]), f.parse(parts[1]))
        elif len(parts) == 3 and "," in parts[0]:
            t, s = parts[0].split(",")
            tok = torus(f.parse(parts[1]), f.parse(parts[2]), ts=(f.parse(t), f.parse(s)))
        elif len(parts) == 3:
            tok = torus(f.parse(parts[1]), f.parse(parts[2]), alpha=f.parse(parts[0]))
        else:
            raise IllegalToken(f"bad torus arity: {text}")
    else:
        raise IllegalToken(f"cannot parse token: {text!r}")
    validate_token(tok, d)
    return tok


def parse_word(text: str, d: GroupDescriptor) -> Word:
    toks = [parse_token(t, d) for t in text.split()]
    return Word(d, toks)


# The order in which legal_x_index_pairs lists the x-token patterns.
_X_PATTERN_ORDER = ("gl", "pp", "pn", "np", "pnm", "npm", "i0", "0i", "i1", "1i", "in1", "n1i")


def legal_x_index_pairs(d: GroupDescriptor) -> list:
    """All legal (i,j) index pairs for x-tokens of the family: the pairs of
    basis indices that :func:`x_pattern` accepts, grouped by pattern in the
    order of ``_X_PATTERN_ORDER`` and in basis order inside a pattern."""
    fam, l, n = d.family, d.l, d.n
    idx = d.basis_indices()
    legal = [(pat, (i, j)) for i in idx for j in idx if (pat := _x_pattern(i, j, fam, l, n))]
    legal.sort(key=lambda pat_pair: _X_PATTERN_ORDER.index(pat_pair[0]))
    return [pair for _, pair in legal]
