"""Exact scalar arithmetic over odd prime fields F_p and the rationals Q.

Scalars are plain Python values: a canonical residue ``int`` in ``0..p-1``
for a prime field, a reduced ``fractions.Fraction`` for Q.  A :class:`Field`
instance owns the arithmetic, so matrix and elimination code is written once
and runs over either field.  Square classes (elements of k*/k*^2) get their
own small type because they are the codomain of the spinor norm.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

Scalar = int | Fraction


class DivisionByZero(ZeroDivisionError):
    """Division by the field zero."""


class ZeroHasNoClass(ValueError):
    """Square classes live in k*/k*^2, so zero has none."""


class CannotFactor(ValueError):
    """A square class over Q needs the squarefree part of an integer with a
    probable-prime factor that Miller-Rabin cannot certify."""


class InternalError(AssertionError):
    """A load-bearing invariant failed: a bug in the library, not bad input.

    Raised explicitly so the check survives ``python -O``; it subclasses
    AssertionError so handlers written for the former asserts still apply.
    It lives here, at the bottom of the import graph, so every module can
    raise it; :mod:`steinberg.forms` re-exports it.
    """


# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson & Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for a probable prime it cannot certify."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if _mr_witness(n):
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot certify primality of {n}: moduli must be below {_MR_LIMIT}")
    return True


def _mr_witness(n: int) -> bool:
    """True when one of _MR_BASES proves the odd n > 41 composite.

    False means n is prime below _MR_LIMIT, and only probably prime above.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


# The methods each record class compiles for its fields, as namedtuple and
# dataclasses do: with the attribute loads in bytecode, equality runs about
# twice as fast as through a generic getter over the field names.
_RECORD_METHODS = """\
def _init(self, {args}):
{stores}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({own}) == ({other})
    return NotImplemented
def __hash__(self):
    return hash(({own}))
"""


class Record:
    """Base of the package's immutable values.

    A subclass names its fields in ``_fields`` and keeps them, with any
    table its ``__init__`` derives from them, in ``__slots__``; its
    ``__init__`` stores the fields, in order, through the compiled
    ``_init``.  Two instances of one class are equal when their fields are,
    hash as the tuple of their fields, and print as ``Name(field=value,
    ...)``; assignment raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        names = cls._fields
        code = _RECORD_METHODS.format(
            args=", ".join(names),
            stores="".join(f"    _store(self, {n!r}, {n})\n" for n in names),
            own="".join(f"self.{n}, " for n in names),
            other="".join(f"other.{n}, " for n in names),
        )
        methods = {"_store": object.__setattr__}
        exec(code, methods)
        cls._init, cls.__eq__, cls.__hash__ = methods["_init"], methods["__eq__"], methods["__hash__"]

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self._fields)


# Fractions are immutable, so Q's zero and one can be shared.
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class Field(Record):
    """F_p for an odd prime p, or Q when ``p`` is None.

    Characteristic 2 is rejected outright: every construction downstream
    divides by 2 somewhere (forms, reflections, spinor norms).  The modulus
    must be an ``int``, not a bool: ``Field(7.0)`` would compute with float
    residues yet compare and hash equal to ``Field(7)``.
    """

    __slots__ = _fields = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and (type(p) is not int or p == 2 or not _is_prime(p)):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        self._init(p)

    @property
    def is_prime(self) -> bool:
        return self.p is not None

    # -- canonicalisation ------------------------------------------------

    def of(self, v: int | Fraction) -> Scalar:
        """Canonicalise an int or Fraction into this field."""
        # a plain int or Fraction is tested first: Fraction(fraction) and
        # isinstance(v, Fraction) go through the numbers ABCs
        p = self.p
        if p is None:
            return v if type(v) is Fraction else Fraction(v)
        if type(v) is int:
            return v % p
        if isinstance(v, Fraction):
            if v.denominator % p == 0:
                raise DivisionByZero(f"denominator of {v} vanishes mod {p}")
            return v.numerator * pow(v.denominator, -1, p) % p
        return v % p

    def parse(self, text: str) -> Scalar:
        """Parse ``"7"`` or ``"3/4"``."""
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(self.of(int(num)), self.of(int(den)))
        return self.of(int(text))

    # -- arithmetic --------------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return 0 if self.p is not None else _Q_ZERO

    @property
    def one(self) -> Scalar:
        return 1 if self.p is not None else _Q_ONE

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p) if self.p is not None else 1 / a

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        if b == 0:
            raise DivisionByZero("division by zero")
        return self.mul(a, self.inv(b))

    def elements(self) -> Iterator[Scalar]:
        if self.p is None:
            raise ValueError("cannot enumerate Q")
        return iter(range(self.p))

    def nonzero_elements(self) -> Iterator[Scalar]:
        if self.p is None:
            raise ValueError("cannot enumerate Q")
        return iter(range(1, self.p))

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


QQ = Field(None)


class SquareClass(Record):
    """An element of k*/k*^2.

    For F_p the group has two elements, represented by ``rep`` in {+1, -1}
    (+1 the squares).  For Q the group is infinite; ``rep`` is the signed
    squarefree representative.
    """

    __slots__ = _fields = ("rep", "prime")

    def __init__(self, rep: int, prime: bool):
        self._init(rep, prime)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.prime != other.prime:
            raise ValueError("square classes from different field kinds")
        if self.prime:
            return SquareClass(self.rep * other.rep, True)
        # both reps are squarefree, so dividing out their common part twice
        # leaves the squarefree part of the product without factoring it
        g = math.gcd(self.rep, other.rep)
        return SquareClass((self.rep // g) * (other.rep // g), False)

    @property
    def is_square(self) -> bool:
        return self.rep == 1

    def __str__(self) -> str:
        if self.prime:
            return "square" if self.rep == 1 else "nonsquare"
        return str(self.rep)


# _squarefree trial-divides by d <= _TRIAL_BOUND; what is left has only
# larger prime factors, so below _TRIAL_BOUND**2 it is prime.
_TRIAL_BOUND = 1000


def _squarefree(n: int) -> int:
    """Signed squarefree part of a nonzero integer."""
    if n == 0:
        raise InternalError("squarefree part of 0")
    sign = -1 if n < 0 else 1
    odd = Counter(_factors_up_to_squares(abs(n)))
    return sign * math.prod(q for q, e in odd.items() if e % 2)


def _factors_up_to_squares(n: int) -> list:
    """Primes whose product is n >= 1 divided by a square: each prime
    occurs with the parity of its exponent in n, which is all
    :func:`_squarefree` reads.

    Small factors come off by trial division.  A larger cofactor is a square,
    dropped whole since it adds nothing to the squarefree part; proved
    composite by Miller-Rabin and then an odd power r^k, replaced by r of the
    same parity, or else split by Pollard-Brent rho (which would need about
    sqrt(r) steps on a prime power); or prime.  A probable prime at or above
    _MR_LIMIT, which Miller-Rabin cannot certify, raises
    :class:`CannotFactor` (as ``Field`` does for moduli).
    """
    out = []
    rest, d = n, 2
    while d <= _TRIAL_BOUND and d * d <= rest:
        while rest % d == 0:
            rest //= d
            out.append(d)
        d += 1
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        r = math.isqrt(m)
        if r * r == m:
            continue
        if m > _TRIAL_BOUND**2 and _mr_witness(m):
            root = _odd_root(m)
            if root != m:
                stack.append(root)
                continue
            f = _rho(m)
            stack += [f, m // f]
        elif m < _MR_LIMIT:
            out.append(m)
        else:
            raise CannotFactor(f"cannot certify the squarefree part of {n}: {m} is only a probable prime"
                               f" (Miller-Rabin is exact below {_MR_LIMIT})")
    return out


def _odd_root(m: int) -> int:
    """r when m = r^k for an odd k >= 3, else m itself.  m has no prime
    factor up to _TRIAL_BOUND, so r > _TRIAL_BOUND > 2^9 bounds k."""
    for k in range(3, m.bit_length() // 9 + 1, 2):
        # Newton's iteration from above converges to floor(m ** (1/k))
        r = 1 << -(-m.bit_length() // k)
        while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = s
        if r**k == m:
            return r
    return m


def _rho(n: int) -> int:
    """A proper factor of the odd composite n, not a square, by Pollard-Brent
    rho (Brent, BIT 20, 1980)."""
    for c in range(1, n):
        x = y = ys = 2
        r, q, g = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: step the saved point one squaring at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InternalError(f"rho found no factor of the composite {n}")


def square_class(field: Field, a: Scalar) -> SquareClass:
    """The image of a nonzero scalar in k*/k*^2.

    F_p uses Euler's criterion; Q takes the signed squarefree part of
    numerator times denominator.
    """
    if a == 0:
        raise ZeroHasNoClass("zero has no square class")
    if field.p is not None:
        return SquareClass(1 if pow(a, (field.p - 1) // 2, field.p) == 1 else -1, True)
    f = Fraction(a)
    return SquareClass(_squarefree(f.numerator * f.denominator), False)


def canonical_nonsquare(p: int) -> int:
    """Smallest integer >= 2 that is a non-square mod p.

    Fixing the representative this way keeps twisted forms (and hence the
    words produced over them) reproducible across runs.
    """
    field = Field(p)
    for c in range(2, p):
        if not square_class(field, c).is_square:
            return c
    raise ValueError(f"no nonsquare mod {p}")
