import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from steinberg.field import (
    CannotFactor,
    DivisionByZero,
    Field,
    InternalError,
    QQ,
    SquareClass,
    ZeroHasNoClass,
    _MR_LIMIT,
    _is_prime,
    _squarefree,
    square_class,
)
from steinberg.forms import Family, build_descriptor
from steinberg.generators import Word, evaluate_word, x
from steinberg.matrix import Matrix

F5 = Field(5)
F7 = Field(7)


def test_rejects_char_two_and_composites():
    for bad in (2, 4, 9, 1, 15):
        with pytest.raises(ValueError):
            Field(bad)


def test_rejects_a_modulus_that_is_not_an_int():
    for bad in (7.0, Fraction(7), "7", True):
        with pytest.raises(ValueError, match=f"^modulus must be an odd prime, got {bad}$"):
            Field(bad)


def test_primality_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    for n in range(20000):
        assert _is_prime(n) == trial(n), n


def test_large_prime_modulus_returns_promptly():
    start = time.perf_counter()
    assert Field(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1.0


def test_rejects_pseudoprimes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7; then a product of two 31-bit primes, and one of
    # two Mersenne primes above _MR_LIMIT that a Miller-Rabin base proves
    # composite.
    for bad in (561, 3215031751, 2147483647 * 2147483629, (2**89 - 1) * (2**61 - 1)):
        with pytest.raises(ValueError, match="odd prime"):
            Field(bad)


def test_modulus_beyond_certified_range_is_a_clean_error():
    # probable primes from _MR_LIMIT on, the bound itself (a strong
    # pseudoprime to every base) included
    for n in (2**89 - 1, _MR_LIMIT):
        with pytest.raises(ValueError, match="cannot certify"):
            Field(n)


def test_basic_arithmetic():
    assert F5.mul(2, 2) == 4
    assert F5.div(3, 3) == 1
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert F5.of(-3) == 2
    assert F5.of(Fraction(1, 2)) == 3  # 2^-1 mod 5


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F5.div(1, 0)
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))


@pytest.mark.parametrize("field", [F7, Field(1000000007), QQ], ids=str)
def test_inv_and_div_stay_exact_for_int_and_fraction_arguments(field):
    """``inv`` and ``div`` give the canonical scalar for int and Fraction
    arguments alike: a Fraction over Q (never a float, also for ints), a
    residue over F_p (a Fraction read through ``of``); a zero divisor
    raises :class:`DivisionByZero`, whatever its type."""
    canonical = Fraction if field.p is None else int
    for a in (2, -3, 5, Fraction(2), Fraction(-3, 4), Fraction(5, 6)):
        inv = field.inv(a)
        assert type(inv) is canonical and inv == field.of(inv), a
        assert field.mul(field.of(a), inv) == field.one, a
        for b in (1, 3, Fraction(-2, 5)):
            q = field.div(b, a)
            assert type(q) is canonical and q == field.of(q), (b, a)
            assert q == field.mul(field.of(b), inv), (b, a)
    assert (QQ.inv(2), QQ.div(1, 3), QQ.inv(-4)) == (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4))
    assert type(field.div(0, 3)) is canonical and field.div(0, 3) == field.zero
    for zero in (0, Fraction(0), field.zero):
        with pytest.raises(DivisionByZero):
            field.inv(zero)
        with pytest.raises(DivisionByZero):
            field.div(1, zero)


def test_parse_round_trip():
    assert F7.parse("12") == 5
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert F7.parse("3/4") == F7.div(3, 4)
    assert (F7.parse("+3"), F7.parse("-3/4"), QQ.parse("-06/8")) == (3, F7.div(-3, 4), Fraction(-3, 4))


@pytest.mark.parametrize("field", [F7, QQ], ids=str)
@pytest.mark.parametrize("text", ["1_0", "١", "１", "1/2_0", "3/-4", "--1", "+", "1/", "/2", " 1", "1 ", "0x1", "1.0", ""])
def test_parse_takes_one_ascii_grammar(field, text):
    """An optional sign, ASCII digits and optionally / and ASCII digits:
    none of Python's int-literal extras (underscores, other scripts'
    digits, surrounding blanks) and no sign after the slash."""
    with pytest.raises(ValueError, match="bad scalar"):
        field.parse(text)


def test_square_class_examples():
    assert square_class(F7, 4).is_square
    # brute force: no residue squares to 3 mod 7
    assert all(x * x % 7 != 3 for x in range(7))
    assert not square_class(F7, 3).is_square
    assert square_class(QQ, Fraction(8, 2)).rep == 1


def test_square_class_of_zero():
    with pytest.raises(ZeroHasNoClass):
        square_class(F5, 0)


def test_squarefree_rational_reps():
    assert square_class(QQ, Fraction(18)).rep == 2
    assert square_class(QQ, Fraction(-4, 9)).rep == -1
    assert square_class(QQ, Fraction(3, 5)).rep == 15


def test_squarefree_of_zero_is_an_internal_error():
    with pytest.raises(InternalError, match="squarefree part of 0"):
        _squarefree(0)


def trial_squarefree(n):
    """Signed squarefree part by trial division up to sqrt(|n|)."""
    sign, n, out, d = (-1 if n < 0 else 1), abs(n), 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        out *= d if e % 2 else 1
        d += 1
    return sign * out * n


def test_squarefree_agrees_with_trial_division():
    for n in range(1, 30000):
        assert _squarefree(n) == trial_squarefree(n) == -_squarefree(-n), n
    # known factorisations: primes on both sides of the trial bound, and
    # powers that leave squares and cubes for the cofactor search
    primes = (2, 3, 997, 1009, 65537, 1000003, 2**31 - 1)
    rng = random.Random(5)
    for _ in range(100):
        exps = [rng.randint(0, 3) for _ in primes]
        n = math.prod(q**e for q, e in zip(primes, exps))
        assert _squarefree(n) == math.prod(q for q, e in zip(primes, exps) if e % 2), exps


def test_squarefree_splits_large_cofactors():
    # Miller-Rabin certifies each of these primes; trial division over their
    # products would take ~10^10 steps
    p, q, r = 2**31 - 1, 1000000007, 4294967311
    assert all(_is_prime(v) for v in (p, q, r))
    start = time.perf_counter()
    assert _squarefree(p * q) == p * q
    assert _squarefree(-(p**2) * q * 12) == -3 * q
    assert _squarefree(p**3 * q**2 * r) == p * r  # 157 bits, above the MR range
    assert _squarefree(r**2) == 1
    assert time.perf_counter() - start < 1.0


def test_squarefree_drops_square_cofactors_it_cannot_certify():
    # 2^89 - 1 is a probable prime beyond what Miller-Rabin certifies, but
    # its square adds nothing to the squarefree part
    q = 2**89 - 1
    assert _squarefree(q**2) == 1
    assert _squarefree(-3 * q**2) == -3
    with pytest.raises(CannotFactor, match=f": {q} is only a probable prime"):
        _squarefree(-3 * q)


def test_rho_has_a_step_budget():
    # two primes near 2^50: rho would need some 2^25 iterations to split
    # their product, so the cofactor is refused, named, within its budget
    p, q = 842652396128173, 945894880035277
    assert _is_prime(p) and _is_prime(q)
    with pytest.raises(CannotFactor, match=f"its composite cofactor {p * q} has no factor that Pollard rho finds"):
        _squarefree(-3 * p * q)
    # primes near 2^30 still split within it
    p, q = 1073741789, 1073741827
    assert _is_prime(p) and _is_prime(q)
    assert _squarefree(5 * p * q) == 5 * p * q
    assert _squarefree(p**3 * q * 2**31) == 2 * p * q


def test_squarefree_reduces_odd_powers_before_rho():
    # rho would need about 2^44 steps to split (2^89 - 1)^3; its cube root is
    # the probable prime that Miller-Rabin cannot certify
    q = 2**89 - 1
    start = time.perf_counter()
    with pytest.raises(CannotFactor, match=f": {q} is only a probable prime"):
        _squarefree(5 * q**3)
    assert time.perf_counter() - start < 1.0
    assert _squarefree(7**3 * 11**5 * 13**2) == 77
    p, r = 1000000007, 4294967311  # certified primes above the trial bound
    assert _squarefree(p**3) == p
    assert _squarefree(-(p**9) * r**5 * 3) == -3 * p * r
    assert _squarefree((p * r) ** 7) == p * r


@given(st.integers(min_value=-10**5, max_value=10**5), st.integers(min_value=-10**5, max_value=10**5))
def test_rational_class_product_is_the_squarefree_product(a, b):
    if a == 0 or b == 0:
        return
    prod = SquareClass(_squarefree(a), False) * SquareClass(_squarefree(b), False)
    assert prod.rep == trial_squarefree(a * b)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_square_class_is_multiplicative(p):
    f = Field(p)
    for a in f.nonzero_elements():
        for b in f.nonzero_elements():
            assert square_class(f, a) * square_class(f, b) == square_class(f, f.mul(a, b))


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_half_the_residues_are_squares(p):
    f = Field(p)
    squares = [a for a in f.nonzero_elements() if square_class(f, a).is_square]
    assert len(squares) == (p - 1) // 2


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)
def test_rational_square_class_multiplicative(a, b):
    if a == 0 or b == 0:
        return
    assert square_class(QQ, a) * square_class(QQ, b) == square_class(QQ, a * b)


@given(st.fractions(min_value=-20, max_value=20, max_denominator=40), st.integers(min_value=1, max_value=9))
def test_square_scaling_invariance(a, c):
    if a == 0:
        return
    assert square_class(QQ, a * c * c) == square_class(QQ, Fraction(a))


# rational classes held unfactored: equality, is_square and hash against the
# squarefree part, which only printing computes
CORES = st.sampled_from([1, -1, 2, -2, 3, 6, -15, 30, 1009, -2 * 1009, 65537 * 3])
FACTORS = st.integers(min_value=1, max_value=10**6)


@given(CORES, FACTORS, FACTORS, CORES, FACTORS, FACTORS)
def test_rational_classes_are_equal_exactly_when_their_squarefree_parts_are(s, x, y, t, u, v):
    a, b = Fraction(s * x * x, y * y), Fraction(t * u * u * x, v)
    ca, cb = square_class(QQ, a), square_class(QQ, b)
    same = _squarefree(a.numerator * a.denominator) == _squarefree(b.numerator * b.denominator)
    assert (ca == cb) is same and (ca != cb) is not same
    assert ca.is_square is (_squarefree(a.numerator * a.denominator) == 1)
    assert cb.is_square is (cb == SquareClass(1, False))
    if same:
        assert hash(ca) == hash(cb)
    assert ca.rep == _squarefree(a.numerator * a.denominator) and str(ca) == str(ca.rep)


@pytest.fixture(scope="module")
def sympy():
    # imported once, outside the timed examples; a second oracle, in tests only
    return pytest.importorskip("sympy")


def sympy_squarefree(sympy, n):
    """Signed squarefree part from sympy's factorisation."""
    return (-1 if n < 0 else 1) * math.prod(q for q, e in sympy.factorint(abs(n)).items() if e % 2)


@given(CORES, FACTORS, st.integers(min_value=-10**12, max_value=10**12), st.integers(min_value=1, max_value=10**6))
def test_rational_classes_agree_with_sympy(sympy, s, x, a, b):
    if a == 0:
        return
    ca, cb = square_class(QQ, Fraction(a, b)), square_class(QQ, Fraction(s * x * x))
    sf = sympy_squarefree(sympy, a * b)
    assert ca.rep == sf
    assert (ca == cb) is (sf == s)
    assert (ca * cb).rep == sympy_squarefree(sympy, a * b * s)


def test_rational_classes_keep_any_integer_of_the_class():
    c = square_class(QQ, Fraction(-4 * 7**3, 9))
    assert c.n == -4 * 7**3 * 9 and c == SquareClass(-7, False) and hash(c) == hash(SquareClass(-7, False))
    assert repr(c) == "SquareClass(rep=-7, prime=False)" and str(c) == "-7"
    assert c != SquareClass(7, False) and c != SquareClass(-1, True)
    assert (c * c).is_square and not c.is_square
    q = 2**89 - 1  # a probable prime that Miller-Rabin cannot certify
    big = square_class(QQ, q * 3)
    assert big == SquareClass(3 * q * 25, False) and (big * big).is_square and big != square_class(QQ, 3)
    with pytest.raises(CannotFactor, match=f": {q} is only a probable prime"):
        str(big)


@pytest.mark.parametrize("field", [F7, QQ], ids=str)
@pytest.mark.parametrize("value", [0.5, 3.0, "3", "1/2", Decimal("0.5")], ids=repr)
def test_non_field_scalars_raise_type_error_naming_the_value(field, value):
    """Only an int (a bool too) or a Fraction is a scalar.  A float, str or
    Decimal raises TypeError naming it, through ``Field.of``, through a
    token parameter when the word is evaluated, and through a matrix entry,
    as ``Field(7.0)`` refuses a float modulus; before, F_7 computed with
    float residues and Q read a float as its binary fraction."""
    d = build_descriptor(Family.GSP, 2, field)
    calls = (
        lambda: field.of(value),
        lambda: evaluate_word(Word(d, [x(1, 2, value)])),
        lambda: Matrix(field, [[value, 0], [0, 1]]),
    )
    for call in calls:
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            call()
    assert field.of(True) == field.one and field.of(False) == field.zero
    assert field.of(Fraction(3, 2)) == field.div(field.of(3), field.of(2))
