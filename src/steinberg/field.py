"""Exact scalar arithmetic over odd prime fields F_p and the rationals Q.

Scalars are plain Python values: a canonical residue ``int`` in ``0..p-1``
for a prime field, a reduced ``fractions.Fraction`` for Q.  A :class:`Field`
instance owns the arithmetic, so matrix and elimination code is written once
and runs over either field.  Square classes (elements of k*/k*^2) get their
own small type because they are the codomain of the spinor norm.
"""

from __future__ import annotations

import math
import re
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
    ...)``; assignment raises AttributeError.  A subclass that defines its
    own ``__eq__`` and ``__hash__`` keeps them.
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
        for name in ("_init", "__eq__", "__hash__"):
            if name not in cls.__dict__:
                setattr(cls, name, methods[name])

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self._fields)


_SCALAR_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

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
        """Canonicalise an int or Fraction into this field; TypeError else."""
        # a plain int or Fraction is tested first: isinstance goes through the numbers ABCs
        p = self.p
        if p is None:
            if type(v) is Fraction:
                return v
        elif type(v) is int:
            return v % p
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"{v!r} is not an int or a Fraction")
        if p is None:
            return Fraction(v)
        if v.denominator % p == 0:
            raise DivisionByZero(f"denominator of {v} vanishes mod {p}")
        return v.numerator * pow(v.denominator, -1, p) % p

    def parse(self, text: str) -> Scalar:
        """Parse ``"7"``, ``"-7"`` or ``"3/4"``: an optional sign, ASCII
        digits and optionally ``/`` and ASCII digits; ValueError else."""
        if not (m := _SCALAR_RE.fullmatch(text)):
            raise ValueError(f"bad scalar {text!r}")
        num, den = m.groups()
        return self.of(int(num)) if den is None else self.div(self.of(int(num)), self.of(int(den)))

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
        """1 / a, canonical: over Q a Fraction, also for an int; over F_p a
        residue, a Fraction read through :meth:`of` first."""
        p = self.p
        if p is None:
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return Fraction(1, a) if type(a) is int else 1 / a
        if type(a) is not int:
            a = self.of(a)
        if a % p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        """a / b, canonical, for int or Fraction arguments, as :meth:`inv`."""
        if b == 0:
            raise DivisionByZero("division by zero")
        if self.p is not None and type(a) is not int:
            a = self.of(a)
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
    """An element of k*/k*^2, held as a nonzero integer ``n`` of the class.

    For F_p the group has two elements and ``n`` is +1 (the squares) or -1.
    For Q the group is infinite and ``n`` is any integer of the class, not
    necessarily squarefree.  Two rational classes are equal exactly when the
    product of their integers is a positive perfect square, one
    ``math.isqrt``, so comparing, multiplying and ``is_square`` never
    factor.  Only ``rep``, the signed squarefree representative that ``str``
    and ``repr`` print, factors ``n``: on first use, and it is kept.
    """

    _fields = ("n", "prime")
    __slots__ = _fields + ("_rep",)

    def __init__(self, n: int, prime: bool):
        self._init(n, prime)
        object.__setattr__(self, "_rep", n if prime else None)

    @property
    def rep(self) -> int:
        """+1 or -1 over F_p; over Q the signed squarefree part of ``n``,
        which raises :class:`CannotFactor` when it cannot be certified."""
        if self._rep is None:
            object.__setattr__(self, "_rep", _squarefree(self.n))
        return self._rep

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SquareClass:
            return NotImplemented
        if self.prime or other.prime:
            return self.prime == other.prime and self.n == other.n
        return _is_square(self.n * other.n)

    def __hash__(self) -> int:
        # equal rational classes share only their sign
        return hash((self.prime, self.n > 0))

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.prime != other.prime:
            raise ValueError("square classes from different field kinds")
        if self.prime:
            return SquareClass(self.n * other.n, True)
        # dividing out the common part twice keeps the class and the size down
        g = math.gcd(self.n, other.n)
        return SquareClass((self.n // g) * (other.n // g), False)

    @property
    def is_square(self) -> bool:
        return self.n == 1 if self.prime else _is_square(self.n)

    def __repr__(self) -> str:
        return f"SquareClass(rep={self.rep!r}, prime={self.prime!r})"

    def __str__(self) -> str:
        if self.prime:
            return "square" if self.n == 1 else "nonsquare"
        return str(self.rep)


def _is_square(n: int) -> bool:
    """Whether the integer n is a positive perfect square."""
    return n > 0 and math.isqrt(n) ** 2 == n


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
    :class:`CannotFactor` (as ``Field`` does for moduli), and so does a
    composite that rho cannot split within ``_RHO_STEPS``.
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
            if f is None:
                raise CannotFactor(f"cannot certify the squarefree part of {n}: its composite cofactor {m} has no"
                                   f" factor that Pollard rho finds in {_RHO_STEPS} steps")
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


# Rho meets a prime factor q after about sqrt(pi q / 2) iterations of the
# map, and each doubling round of Brent's cycle search below is charged its
# 2r evaluations before it runs.  Splitting 40 products of a prime near 2^b
# and one near 2^(b+2) was charged 65,534 evaluations at the median and
# 262,142 at most for b = 30, and 131,070 and 262,142 for b = 32.  A budget
# of 2^20 evaluations keeps four times that for factors up to 2^32, while a
# cofactor whose least prime factor is near 2^50 (some 2^25 iterations,
# about 13 s of Python arithmetic) is refused after about 0.35 s.
_RHO_STEPS = 1 << 20


def _rho(n: int) -> int | None:
    """A proper factor of the odd composite n, not a square, by Pollard-Brent
    rho (Brent, BIT 20, 1980), or None once ``_RHO_STEPS`` evaluations of
    the map, over every c tried, have found none."""
    steps = _RHO_STEPS
    for c in range(1, n):
        x = y = ys = 2
        r, q, g = 1, 1, 1
        while g == 1:
            steps -= 2 * r
            if steps < 0:
                return None
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

    F_p uses Euler's criterion; Q keeps numerator times denominator, an
    integer of the class, unfactored (see :class:`SquareClass`).
    """
    if a == 0:
        raise ZeroHasNoClass("zero has no square class")
    if field.p is not None:
        return SquareClass(1 if pow(a, (field.p - 1) // 2, field.p) == 1 else -1, True)
    return SquareClass(a.numerator * a.denominator, False)


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
