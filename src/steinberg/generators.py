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

A token is described once, by :func:`token_units`, which refuses a token
that is not in the group (:class:`IllegalToken`) and gives units
``(row, col, k, sq)`` at storage positions, with k * u2 (when ``sq``) or
k * u at (row, col) of D and the token's matrix ``(den * I + D) / den``.
An x-token's units are a code written in :func:`_x_units`, placed at
storage positions once per index pair (:func:`x_code`) and kept in one
table per group shape, which every descriptor of that family, rank and
epsilon shares, over any field, and read with the parameter by
:func:`x_token_units`, the only code that computes them; any other
token's are its entries.  A checked :class:`Word` and the grammar compute
them through :func:`token_units`; the elimination and the coset witnesses
compute each x-token's once, through :func:`x_token_units`, for the
parameter they record, and hand them to the in-place application
(:func:`steinberg.rowops.apply`).  Every :class:`Word` keeps its tokens'
units: the ones its check or its emitter computed, or else the ones its
first evaluation computes, so :func:`evaluate_word` describes no token a
second time; both run the one update loop of :mod:`steinberg.matrix`.
:func:`token_matrix` adds the units' values to ``den * I``.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import lru_cache

from .field import Record, Scalar
from .matrix import DimensionMismatch, Matrix
from .forms import Family, GroupDescriptor


class IllegalToken(ValueError):
    pass


_new_token = tuple.__new__


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
    # the namedtuple's own __new__ is a Python function with seven defaults;
    # the elimination and the coset witnesses build one x-token per token
    # they apply, the one they record, next to its units (x_token_units)
    return _new_token(GeneratorToken, ("x", i, j, t, None, None, None, None))


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
    # fields in the order kind i j t s alpha lam mu, as x() builds them
    if ts is None:
        return _new_token(GeneratorToken, ("torus", 0, 0, None, None, alpha, lam, mu))
    return _new_token(GeneratorToken, ("torus", 0, 0, ts[0], ts[1], None, lam, mu))


# ---------------------------------------------------------------------------
# x-token index pairs and their compiled codes


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


def x_code(i: int, j: int, d: GroupDescriptor) -> tuple:
    """Compile how x[i,j] acts in the shape of ``d``, store it in the
    shape's table ``d._xcodes`` and return it; raise :class:`IllegalToken`
    for an illegal pair, which is never stored.  Callers look the pair up
    in ``d._xcodes`` first and come here on a miss.

    The code is ``(pattern, squared, units)``: the :func:`x_pattern` name,
    whether the values of x[i,j](a/b) stand over b^2 (else over b), and the
    ``(row, col, k, sq)`` units of :func:`_x_units` at storage positions,
    whose value is k * a^2 when ``sq``, else k * ab over b^2 or k * a over b.
    The units keep the order of :func:`_x_units`, in which no unit's column
    is the row of a later one: the update loop applies them one at a time.
    """
    pat = x_pattern(i, j, d)
    squared, units = _x_units(i, j, pat, d)
    pos = d._positions
    code = d._xcodes[i, j] = (pat, squared, tuple((pos[r], pos[c], k, sq) for r, c, k, sq in units))
    return code


# ---------------------------------------------------------------------------
# one description of a token: its check, its units and its matrix


def token_units(tok: GeneratorToken, d: GroupDescriptor) -> tuple:
    """``(units, u, u2, den, sequential)``, the one description of a token,
    or :class:`IllegalToken` if it is not in the group of ``d``.  Its matrix
    is ``(den * I + D) / den``, each unit ``(row, col, k, sq)`` putting
    k * u2 when ``sq``, else k * u, at (row, col) of D (mod p over F_p,
    where den is 1).  An x-token's units are its compiled code
    (:func:`x_code`) as it stands, sequential, and t = a/b gives u = a over
    b or, for the patterns with t^2, u = ab and u2 = a^2 over b^2; an int,
    or a Fraction over Q, is read as it is, anything else through
    :meth:`Field.of`.  Any other token's units are its entries, u = 1."""
    kind = tok.kind
    if kind == "x":
        return x_token_units(tok.i, tok.j, tok.t, d)
    fam = d.family
    if kind == "w":
        i = tok.i
        if fam in (Family.GO_EVEN, Family.GO_ODD):
            if i != d.l:
                raise IllegalToken(f"w[{i}]: only w[{d.l}] exists for {fam.value}")
        elif fam is not Family.GO_MINUS:
            raise IllegalToken(f"w tokens do not exist for {fam.value}")
        elif not 2 <= i <= d.l:
            raise IllegalToken(f"w[{i}] out of range for GOminus(l={d.l})")
        entries = [(i, i, -1), (-i, -i, -1), (i, -i, -1), (-i, i, -1)]
    elif kind == "torus":
        entries = _torus_entries(tok, d)
    elif kind not in ("x1", "x2"):
        raise IllegalToken(f"unknown token kind {kind!r}")
    elif fam is not Family.GO_MINUS:
        raise IllegalToken(f"{kind} only exists for GOminus")
    elif kind == "x1":
        entries = _plane_entries(tok, d.field.one, f"x1({tok.t},{tok.s}): t^2+eps*s^2 != 1", d)
    else:
        entries = [(-1, -1, -2)]
    return _entry_units(entries, d)


def x_token_units(i: int, j: int, t: Scalar, d: GroupDescriptor) -> tuple:
    """The units of x[i,j](t) as :func:`token_units` gives them, and the
    only place they are computed: the pair's compiled code (:func:`x_code`)
    as it stands, sequential, with u, u2 and den from t = a/b.  The
    elimination and the coset witnesses call it with the parameter they
    record, so a token they emit is described once."""
    _, squared, units = d._xcodes.get((i, j)) or x_code(i, j, d)
    p = d.field.p
    if type(t) is not int and (p is not None or type(t) is not Fraction):
        t = d.field.of(t)
    if p is not None:
        return units, t % p, t * t % p, 1, True
    a, b = t.numerator, t.denominator
    return (units, a * b, a * a, b * b, True) if squared else (units, a, 0, b, True)


# apart from token_units, where what a comprehension reads becomes a cell made on every call
def _entry_units(entries: list, d: GroupDescriptor) -> tuple:
    """The units of signed-index (row, col, scalar) entries of D, with u = 1:
    integers over their one den, or residues over F_p; zeros are dropped."""
    pos, p = d._positions, d.field.p
    if p is not None:
        return [(pos[a], pos[b], r, False) for a, b, v in entries if (r := v % p)], 1, 0, 1, False
    den = math.lcm(*(v.denominator for _, _, v in entries))
    units = [(pos[a], pos[b], k, False) for a, b, v in entries if (k := v.numerator * (den // v.denominator))]
    return units, 1, 0, den, False


def token_matrix(tok: GeneratorToken, d: GroupDescriptor) -> Matrix:
    """The exact matrix of a token in the family's fixed basis: ``den * I``
    plus the values of its units (:func:`token_units`), over ``den``,
    written in the stored form: only the unit cells are reduced mod p, and
    over Q only a gcd of den and the unit cells other than 1 is divided out."""
    units, u, u2, den, _ = token_units(tok, d)
    m = [[0] * d.n for _ in range(d.n)]
    for k, row in enumerate(m):
        row[k] = den
    for r, c, k, sq in units:
        m[r][c] += k * (u2 if sq else u)
    p = d.field.p
    if p is not None:
        for r, c, _, _ in units:
            m[r][c] %= p
        return Matrix._canonical(d.field, m)
    if math.gcd(den, *(m[r][c] for r, c, _, _ in units)) != 1:
        return Matrix._normal(d.field, m, den)
    return Matrix._canonical(d.field, m, den)


def _torus_entries(tok: GeneratorToken, d: GroupDescriptor) -> list:
    """Signed-index (row, col, scalar) triples of a torus token minus I,
    once the torus is checked against the family's shape of torus and, in
    an isometry descriptor, its multiplier mu against 1."""
    f, fam = d.field, d.family
    one, lam, mu = f.one, f.of(tok.lam), f.of(tok.mu)
    if lam == f.zero or mu == f.zero:
        raise IllegalToken("torus needs nonzero lambda and mu")
    if fam is Family.GL:
        if mu != one or tok.alpha is not None or tok.t is not None:
            raise IllegalToken("GL torus is torus(lambda;1)")
        return [(d.n, d.n, f.sub(lam, one))]
    if mu != one and not d.similitude:
        raise IllegalToken(f"torus with mu = {mu} != 1 in an isometry group")
    entries = []
    if fam in (Family.GSP, Family.GO_EVEN):
        if tok.alpha is not None or tok.t is not None:
            raise IllegalToken(f"{fam.value} torus is torus(lambda;mu)")
    elif fam is Family.GO_ODD:
        if tok.alpha is None or tok.t is not None:
            raise IllegalToken("GOodd torus is torus(alpha;lambda;mu)")
        a = f.of(tok.alpha)
        if f.mul(a, a) != mu:
            raise IllegalToken("GOodd torus needs alpha^2 = mu")
        entries.append((0, 0, f.sub(a, one)))
    else:  # GO_MINUS
        if tok.alpha is not None:
            raise IllegalToken("GOminus torus carries no alpha")
        if d.l == 1 and lam != one:
            # rank 1 has no hyperbolic slot for lambda to live in
            raise IllegalToken("GOminus torus at l=1 needs lambda = 1")
        if tok.t is not None:
            entries += _plane_entries(tok, mu, "GOminus torus block needs t^2+eps*s^2 = mu", d)
        elif mu != one:
            raise IllegalToken("GOminus torus with identity block needs mu = 1")
    block = d.block_indices()
    mu1 = f.sub(mu, one)
    for i in block[:-1]:
        entries.append((-i, -i, mu1))
    if block:
        i = block[-1]
        entries += [(i, i, f.sub(lam, one)), (-i, -i, f.sub(f.div(mu, lam), one))]
    return entries


def _plane_entries(tok: GeneratorToken, norm: Scalar, why: str, d: GroupDescriptor) -> list:
    """[[t, eps*s], [s, -t]] - I on the plane e_1, e_-1 for the token's
    (t, s), whose t^2 + eps*s^2 must be ``norm``, else IllegalToken(why)."""
    f = d.field
    t, s = f.of(tok.t), f.of(tok.s)
    if f.add(f.mul(t, t), f.mul(d.epsilon, f.mul(s, s))) != norm:
        raise IllegalToken(why)
    return [
        (1, 1, f.sub(t, f.one)),
        (1, -1, f.mul(d.epsilon, s)),
        (-1, 1, s),
        (-1, -1, f.neg(f.add(t, f.one))),
    ]


def _x_units(i: int, j: int, pat: str, d: GroupDescriptor) -> tuple:
    """``(squared, units)`` of x[i,j](t) - I for the index pattern ``pat``:
    each unit ``(row, col, k, sq)`` at signed indices stands for k * t^2
    when ``sq``, else k * t, and ``squared`` says that some unit carries
    t^2.  The integers k are not yet reduced mod p; the order counts (:func:`x_code`)."""
    if pat in ("gl", "pnm", "npm"):
        return False, [(i, j, 1, False)]
    if pat == "pp":
        return False, [(i, j, 1, False), (-j, -i, -1, False)]
    if pat in ("pn", "np"):
        # the short pairs: the partner unit carries +t for GSp, -t otherwise
        return False, [(i, j, 1, False), (-j, -i, 1 if d.family is Family.GSP else -1, False)]
    if pat == "i0":
        return True, [(0, -i, -1, False), (i, 0, 2, False), (i, -i, -1, True)]
    if pat == "0i":
        return True, [(0, j, 1, False), (-j, 0, -2, False), (-j, j, -1, True)]
    # Twisted pairs against the anisotropic plane, normalised so they are
    # isometries of diag(1,eps) + hyperbolic (beta(e_1,e_1)=1, not 2).
    eps = d.epsilon
    if pat == "i1":
        return True, [(1, i, 2, False), (-i, 1, -2, False), (-i, i, -2, True)]
    if pat == "1i":
        return True, [(1, -j, -2, False), (j, 1, 2, False), (j, -j, -2, True)]
    if pat == "in1":
        return True, [(-1, i, 2, False), (-i, -1, -2 * eps, False), (-i, i, -2 * eps, True)]
    if pat == "n1i":
        return True, [(-1, -j, -2, False), (j, -1, 2 * eps, False), (j, -j, -2 * eps, True)]
    raise IllegalToken(pat)  # pragma: no cover


def token_inverse(tok: GeneratorToken, d: GroupDescriptor) -> GeneratorToken:
    """The inverse in the family, again a single token: an x-token negates
    t, in canonical field form (one-parameter subgroups); the involutions w,
    x1 and x2 come back unchanged; a torus inverts its parameters."""
    f = d.field
    if tok.kind == "x":
        return _new_token(GeneratorToken, ("x", tok.i, tok.j, f.of(-tok.t), None, None, None, None))
    if tok.kind != "torus":
        return tok
    lam, mu = f.inv(f.of(tok.lam)), f.inv(f.of(tok.mu))
    if tok.alpha is not None:
        return torus(lam, mu, alpha=f.inv(f.of(tok.alpha)))
    if tok.t is not None:
        return torus(lam, mu, ts=(f.mul(f.of(tok.t), mu), f.mul(f.of(tok.s), mu)))
    return torus(lam, mu)


# ---------------------------------------------------------------------------
# words


class Word(Record):
    """The tokens of a group, in order.  ``_units``, no field, keeps each
    token's units (:func:`token_units`) in order, as the check of
    ``Word(d, tokens)`` or the emitting elimination computed them, or as
    the first evaluation of any other trusted word computes them."""

    _fields = ("descriptor", "tokens")
    __slots__ = _fields + ("_units",)

    def __init__(self, descriptor: GroupDescriptor, tokens: tuple):
        tokens = tuple(tokens)
        units = tuple([token_units(tok, descriptor) for tok in tokens])
        self._init(descriptor, tokens)
        object.__setattr__(self, "_units", units)

    @classmethod
    def _trusted(cls, descriptor: GroupDescriptor, tokens: Iterable, units: Iterable | None = None) -> "Word":
        """Trusted constructor: each token, or the one it inverts, goes
        through :func:`token_units`, which checks it, where it is applied or
        evaluated (the derived words) or before it is recorded.  ``units``,
        if given, are the tokens' units as they were applied or checked."""
        word = cls.__new__(cls)
        word._init(descriptor, tuple(tokens))
        object.__setattr__(word, "_units", None if units is None else tuple(units))
        return word

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return " ".join(str(t) for t in self.tokens)


def evaluate_word(word: Word, *rest: Word | Matrix) -> Matrix:
    """The ordered product of the parts in one chain from I: a word stands
    for its tokens' units, in order, the ones it keeps (computed by
    :func:`token_units` on its first evaluation if it keeps none), a
    matrix for itself, so no token matrix is built.  The first word gives
    the field and size; the empty word is I."""
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
        if (units := part._units) is None:
            units = tuple([token_units(tok, e) for tok in part.tokens])
            object.__setattr__(part, "_units", units)
        yield from units


def derived_w(i: int, d: GroupDescriptor) -> Word:
    """A word whose product swaps e_i and e_-i with signs (w_{i,-i}).

    GSp and GOodd have direct three-token expressions.  GOplus only has the
    generator at index l; lower indices conjugate it through the pair swaps
    w_{l,i} and w_{l,-i}, each itself three tokens.  The word is not
    checked here: applying or evaluating it checks each token.
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
    return Word._trusted(d, toks)


def derived_h(lam: Scalar, d: GroupDescriptor) -> Word:
    """Word for diag(1,..,1,lambda,1,..,1,lambda^-1) in GSp, its tokens
    checked where it is applied or evaluated."""
    if d.family is not Family.GSP:
        raise IllegalToken("derived_h only exists for GSp")
    f = d.field
    lam = f.of(lam)
    if lam == f.zero:
        raise IllegalToken("lambda must be nonzero")
    l = d.l
    lv = f.neg(f.inv(lam))
    return Word._trusted(d, [
        x(l, -l, lam), x(-l, l, lv), x(l, -l, lam),
        x(l, -l, -1), x(-l, l, 1), x(l, -l, -1),
    ])


# ---------------------------------------------------------------------------
# serialisation

_X_RE = re.compile(r"^x\[(-?\d+),(-?\d+)\]\((-?[\d/]+)\)$", re.ASCII)
_W_RE = re.compile(r"^w\[(\d+)\]$", re.ASCII)
_X1_RE = re.compile(r"^x1\((-?[\d/]+),(-?[\d/]+)\)$", re.ASCII)
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
    token_units(tok, d)
    return tok


def parse_word(text: str, d: GroupDescriptor) -> Word:
    """A word of tokens separated by whitespace, each checked once, by
    :func:`parse_token`."""
    return Word._trusted(d, [parse_token(t, d) for t in text.split()])


# The order in which legal_x_index_pairs lists the x-token patterns.
_X_PATTERN_ORDER = ("gl", "pp", "pn", "np", "pnm", "npm", "i0", "0i", "i1", "1i", "in1", "n1i")


def legal_x_index_pairs(d: GroupDescriptor) -> list:
    """All legal (i,j) index pairs for x-tokens of the family: the pairs of
    basis indices that :func:`x_pattern` accepts, grouped by pattern in the
    order of ``_X_PATTERN_ORDER`` and in basis order inside a pattern.
    They depend on the group shape alone, so they are listed once per shape
    and kept in its memo; each call returns a new list."""
    memo = d._shape.memo
    if (pairs := memo.get("x pairs")) is None:
        fam, l, n, idx = d.family, d.l, d.n, d.basis_indices()
        legal = [(pat, (i, j)) for i in idx for j in idx if (pat := _x_pattern(i, j, fam, l, n))]
        legal.sort(key=lambda pat_pair: _X_PATTERN_ORDER.index(pat_pair[0]))
        pairs = memo["x pairs"] = tuple(pair for _, pair in legal)
    return list(pairs)
