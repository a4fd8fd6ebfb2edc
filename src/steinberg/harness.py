"""Random member generation and exhaustive/closure enumeration.

Random members are words in legal tokens (uniform token template, uniform
nonzero parameter), optionally followed by a torus element so similitude
groups get nontrivial multipliers, multiplied out by
:func:`~steinberg.generators.evaluate_word` like every other word.  Word
sampling is not uniform over the group and does not try to be; it only
needs to cover it.

Enumeration is either brute force over all n x n matrices (tiny fields
only) or breadth-first closure over all generator matrices plus isometry
torus elements.  The two agreeing on a family is a desk-scale witness that
the elementary matrices together with the torus generate the group.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .field import Field, Record, Scalar
from .forms import EnumerationTooLarge, Family, GroupDescriptor, is_member
from .generators import (
    GeneratorToken,
    Word,
    evaluate_word,
    token_matrix,
    legal_x_index_pairs,
    torus,
    w,
    x,
    x1,
    x2,
)
from .matrix import Matrix


class Enumeration(Record):
    __slots__ = _fields = ("descriptor", "elements", "method")

    def __init__(self, descriptor: GroupDescriptor, elements: tuple, method: str):
        self._init(descriptor, elements, method)


def _random_scalar(field: Field, rng: random.Random, nonzero: bool = True) -> Scalar:
    if field.is_prime:
        lo = 1 if nonzero else 0
        return rng.randrange(lo, field.p)
    num = rng.choice([v for v in range(-3, 4) if not (nonzero and v == 0)])
    return Fraction(num, rng.choice([1, 2, 3]))


def _reflection_params(d: GroupDescriptor, v1: Scalar, v2: Scalar) -> tuple:
    """(t, s) of the plane reflection through (v1, v2); needs (v1,v2) != 0.

    The plane form is anisotropic, so every nonzero vector works and
    t^2 + eps*s^2 = 1 holds by construction; no square roots involved.
    """
    f = d.field
    eps = d.epsilon
    norm = f.add(f.mul(v1, v1), f.mul(eps, f.mul(v2, v2)))
    t = f.div(f.sub(f.mul(eps, f.mul(v2, v2)), f.mul(v1, v1)), norm)
    s = f.neg(f.div(f.mul(f.of(2), f.mul(v1, v2)), norm))
    return t, s


def _token_pool(d: GroupDescriptor) -> list:
    pool: list = [("x", i, j) for (i, j) in legal_x_index_pairs(d)]
    if d.family in (Family.GO_EVEN, Family.GO_ODD):
        pool.append(("w", d.l))
    if d.family is Family.GO_MINUS:
        pool += [("w", i) for i in range(2, d.l + 1)]
        pool += [("x1",), ("x2",)]
    return pool


def _random_token_from(pool: list, d: GroupDescriptor, rng: random.Random) -> GeneratorToken:
    entry = rng.choice(pool)
    if entry[0] == "x":
        return x(entry[1], entry[2], _random_scalar(d.field, rng))
    if entry[0] == "w":
        return w(entry[1])
    if entry[0] == "x2":
        return x2()
    f = d.field
    v1, v2 = f.zero, f.zero
    while v1 == f.zero and v2 == f.zero:
        v1 = _random_scalar(f, rng, nonzero=False)
        v2 = _random_scalar(f, rng, nonzero=False)
    return x1(*_reflection_params(d, v1, v2))


def random_torus_token(d: GroupDescriptor, rng: random.Random) -> GeneratorToken:
    f = d.field
    lam = _random_scalar(f, rng)
    fam = d.family
    if fam is Family.GL:
        return torus(lam, 1)
    if fam is Family.GO_ODD:
        alpha = _random_scalar(f, rng) if d.similitude else f.of(rng.choice([1, -1]))
        return torus(lam, f.mul(alpha, alpha), alpha=alpha)
    if fam is Family.GO_MINUS:
        if d.l == 1:
            lam = f.one  # no hyperbolic slot at rank 1
        if not d.similitude:
            return torus(lam, 1)
        v1, v2 = f.zero, f.zero
        while v1 == f.zero and v2 == f.zero:
            v1 = _random_scalar(f, rng, nonzero=False)
            v2 = _random_scalar(f, rng, nonzero=False)
        mu = f.add(f.mul(v1, v1), f.mul(d.epsilon, f.mul(v2, v2)))
        return torus(lam, mu, ts=(v1, v2))
    mu = _random_scalar(f, rng) if d.similitude else f.one
    return torus(lam, mu)


def random_member(d: GroupDescriptor, seed: int, word_len: int, with_torus: bool = False) -> Matrix:
    """Deterministic pseudo-random member: the product of a token word,
    optionally followed by a torus, through :func:`evaluate_word`, which checks each token."""
    rng = random.Random(f"{d}#{seed}")
    pool = _token_pool(d)
    toks = [_random_token_from(pool, d, rng) for _ in range(word_len)]
    if with_torus:
        toks.append(random_torus_token(d, rng))
    return evaluate_word(Word._trusted(d, toks))


# ---------------------------------------------------------------------------
# enumeration


def closure_generator_matrices(d: GroupDescriptor) -> list:
    """All token matrices (every parameter value) plus torus elements."""
    f = d.field
    if not f.is_prime:
        raise EnumerationTooLarge("cannot sweep parameters over Q")
    gens = []
    for (i, j) in legal_x_index_pairs(d):
        for t in f.nonzero_elements():
            gens.append(token_matrix(x(i, j, t), d))
    if d.family in (Family.GO_EVEN, Family.GO_ODD):
        gens.append(token_matrix(w(d.l), d))
    if d.family is Family.GO_MINUS:
        for i in range(2, d.l + 1):
            gens.append(token_matrix(w(i), d))
        gens.append(token_matrix(x2(), d))
        seen = set()
        for v1 in f.elements():
            for v2 in f.elements():
                if v1 == 0 and v2 == 0:
                    continue
                ts = _reflection_params(d, v1, v2)
                if ts not in seen:
                    seen.add(ts)
                    gens.append(token_matrix(x1(*ts), d))
    gens += _torus_sweep(d)
    return gens


def _torus_sweep(d: GroupDescriptor) -> list:
    f = d.field
    out = []
    lams = list(f.nonzero_elements())
    if d.family is Family.GL:
        return [token_matrix(torus(lam, 1), d) for lam in lams]
    if d.family is Family.GO_ODD:
        alphas = list(f.nonzero_elements()) if d.similitude else [f.one, f.neg(f.one)]
        for lam in lams:
            for a in alphas:
                out.append(token_matrix(torus(lam, f.mul(a, a), alpha=a), d))
        return out
    if d.family is Family.GO_MINUS:
        if d.l == 1:
            lams = [f.one]
        for lam in lams:
            out.append(token_matrix(torus(lam, 1), d))
            if d.similitude:
                for v1 in f.elements():
                    for v2 in f.elements():
                        if v1 == 0 and v2 == 0:
                            continue
                        mu = f.add(f.mul(v1, v1), f.mul(d.epsilon, f.mul(v2, v2)))
                        out.append(token_matrix(torus(lam, mu, ts=(v1, v2)), d))
        return out
    mus = list(f.nonzero_elements()) if d.similitude else [f.one]
    return [token_matrix(torus(lam, mu), d) for lam in lams for mu in mus]


def enumerate_group(d: GroupDescriptor, method: str = "auto", cap: int = 10**6) -> Enumeration:
    """All members of a tiny group, brute force or generator closure."""
    if not d.field.is_prime:
        raise EnumerationTooLarge("enumeration needs a finite field")
    if method == "auto":
        method = "brute" if d.field.p ** (d.n * d.n) <= cap else "closure"
    if method == "brute":
        return _enumerate_brute(d, cap)
    if method == "closure":
        return _enumerate_closure(d, cap)
    raise ValueError(f"unknown method {method!r}")


def _enumerate_brute(d: GroupDescriptor, cap: int) -> Enumeration:
    p = d.field.p
    n = d.n
    if p ** (n * n) > cap:
        raise EnumerationTooLarge(f"{p}^{n * n} candidate matrices exceed cap {cap}")
    found = []
    for entries in itertools.product(range(p), repeat=n * n):
        g = Matrix(d.field, [entries[r * n:(r + 1) * n] for r in range(n)])
        if is_member(g, d):
            found.append(g)
    return Enumeration(d, tuple(found), "brute")


def _enumerate_closure(d: GroupDescriptor, cap: int) -> Enumeration:
    gens = closure_generator_matrices(d)
    ident = Matrix.identity(d.field, d.n)
    seen = {ident: None}  # a dict keeps the discovery order
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for gmat in gens:
                prod = m @ gmat
                if prod not in seen:
                    if len(seen) >= cap:
                        raise EnumerationTooLarge(f"closure exceeded cap {cap}")
                    seen[prod] = None
                    nxt.append(prod)
        frontier = nxt
    return Enumeration(d, tuple(seen), "closure")
