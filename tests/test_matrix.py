import math
import random
from fractions import Fraction

import pytest

from steinberg.field import DivisionByZero, Field, QQ
from steinberg.eliminate import decompose
from steinberg.forms import Family, InternalError, build_descriptor
from steinberg.generators import (
    legal_x_index_pairs, token_matrix, token_units, torus, w, x, x1, x2, x_pattern, x_token_units,
)
from steinberg.harness import (
    _random_scalar,
    _random_token_from,
    _reflection_params,
    _token_pool,
    random_member,
    random_torus_token,
)
from steinberg.matrix import DimensionMismatch, Matrix, _apply_delta
from steinberg.rowops import WorkingMatrix
from steinberg.spinor import _mirror, _reflected, reflection_matrix

from gauss_oracle import (
    diagonal, identity, oracle_det, oracle_inverse, oracle_pivot_columns, oracle_rank, oracle_rref, product,
    reduce_scalars, transposed,
)

F5 = Field(5)
F7 = Field(7)
BIG = Field(1000000007)


def rand_matrix(rng, field, n):
    if field.is_prime:
        return Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
    return Matrix(field, [
        [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(n)]
        for _ in range(n)
    ])


def test_identity_product():
    ident = Matrix.identity(F5, 3)
    assert ident @ ident == ident


def test_rank_of_diagonal():
    assert diagonal(F5, [1, 0, 2]).rank() == 2


def full_reduction(a):
    """(pivots, [R | E]) from ``_reduce`` on the integer rows of den [A | I],
    pivoted over A's columns: R is the rref of A, and E A = R."""
    n, den = a.rows, a.den
    aug = [list(r) + [den if j == i else 0 for j in range(n)] for i, r in enumerate(a.num)]
    pivots, _, s = a._reduce(aug)
    return pivots, Matrix._normal(a.field, aug, s)


def test_inverse_and_det():
    g = Matrix(F5, [[1, 2], [3, 4]])
    pivots, reduced = full_reduction(g)
    inv = Matrix(F5, [r[2:] for r in reduced.to_lists()])
    assert pivots == [0, 1] and g @ inv == Matrix.identity(F5, 2)
    assert g.det() == (1 * 4 - 2 * 3) % 5
    assert full_reduction(Matrix(F5, [[1, 2], [2, 4]]))[0] == [0]


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix(F5, [[0, 0, 0]] * 2) @ Matrix(F5, [[0, 0, 0]] * 2)


@pytest.mark.parametrize("field", [F5, QQ])
def test_algebraic_identities_on_random_matrices(field):
    rng = random.Random(11)
    for _ in range(25):
        a = rand_matrix(rng, field, 4)
        b = rand_matrix(rng, field, 4)
        assert flipped(a @ b) == flipped(b) @ flipped(a)
        assert a.rank() == flipped(a).rank()
        if a.rank() == 4:
            assert a @ oracle_inverse(a) == Matrix.identity(field, 4)


def flipped(m):
    """The transpose, built from the scalar view."""
    return Matrix(m.field, transposed(m.to_lists()))


def test_rational_exactness():
    a = Matrix(QQ, [[Fraction(1, 3), Fraction(2, 7)], [Fraction(5, 2), Fraction(1, 9)]])
    inv = oracle_inverse(a)
    assert a @ inv == Matrix.identity(QQ, 2) == inv @ a


def naive_product(a, b):
    return Matrix(a.field, product(a.field, a.to_lists(), b.to_lists()))


@pytest.mark.parametrize("field", [Field(1000000007), QQ])
def test_product_matches_naive_triple_loop(field):
    rng = random.Random(17)

    def entry(density):
        if rng.random() > density:
            return 0
        if field.is_prime:
            return rng.randrange(field.p)
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))

    n = 17
    for density in (1.0, 0.3):
        a = Matrix(field, [[entry(density) for _ in range(n)] for _ in range(n)])
        b = Matrix(field, [[entry(density) for _ in range(n)] for _ in range(n)])
        assert a @ b == naive_product(a, b)
    tall = Matrix(field, [[entry(0.5) for _ in range(3)] for _ in range(n)])
    wide = Matrix(field, [[entry(0.5) for _ in range(n)] for _ in range(3)])
    assert tall @ wide == naive_product(tall, wide)
    assert wide @ tall == naive_product(wide, tall)


def every_token_matrix(d, rng):
    """One matrix per token the family has: every legal x pair, each w, x1
    and x2, and a torus; parameters over Q have denominators up to 3."""
    toks = [x(i, j, _random_scalar(d.field, rng)) for i, j in legal_x_index_pairs(d)]
    for entry in _token_pool(d):
        if entry[0] == "w":
            toks.append(w(entry[1]))
        elif entry[0] == "x1":
            toks.append(x1(*_reflection_params(d, d.field.of(1), d.field.of(2))))
        elif entry[0] == "x2":
            toks.append(x2())
    toks.append(random_torus_token(d, rng))
    return [token_matrix(t, d) for t in toks]


@pytest.mark.parametrize("field", [F7, BIG, QQ], ids=str)
def test_product_passes_unit_columns_through(field):
    """Near-identity, rectangular, 1 x n, n x 1, dense and (over Q)
    den != 1 factors, against the scalar triple loop; every product is
    canonical."""
    rng = random.Random(43)

    def entry(density=1.0):
        if rng.random() > density:
            return field.zero
        if field.is_prime:
            return rng.randrange(field.p)
        return Fraction(rng.randint(-99, 99), rng.randint(1, 12))

    def rand(rows, cols, density=1.0):
        return Matrix(field, [[entry(density) for _ in range(cols)] for _ in range(rows)])

    def with_unit_columns(m, units):
        rows = m.to_lists()
        for j in units:
            for i, r in enumerate(rows):
                r[j] = field.one if i == j else field.zero
        return Matrix(field, rows)

    pairs = []
    families = [Family.GL, Family.GSP, Family.GO_EVEN, Family.GO_ODD]
    for fam in families + ([Family.GO_MINUS] if field.is_prime else []):
        d = build_descriptor(fam, 3, field, similitude=True)
        g = random_member(d, 5, word_len=10, with_torus=True)
        tokens = every_token_matrix(d, rng)
        pairs += [(g, t) for t in tokens] + [(t, g) for t in tokens]
        pairs += list(zip(tokens, tokens[1:]))
    # 1 x n and n x 1 factors on both sides of the tokens, a member and a diagonal
    k = g.rows
    row, col = rand(1, k), rand(k, 1)
    for b in tokens + [g, diagonal(field, range(1, k + 1))]:
        pairs += [(row, b), (b, col), (rand(3, k), b)]
    pairs += [(row, col), (col, row), (rand(1, 1), row), (col, rand(1, 1))]
    n = 7
    square = rand(n, n)
    for units in ([0], [1, 4, 6], [0, 2, 3, 5], [0, 1, 2, 3, 4, 5], list(range(n))):
        pairs += [(rand(5, n), with_unit_columns(square, units)), (rand(n, n, 0.4), with_unit_columns(square, units))]
    # rectangular factors whose leading columns are unit vectors, both orders
    tall = with_unit_columns(rand(n, 3), [0, 1])
    wide = with_unit_columns(rand(3, n), [0, 1, 2])
    pairs += [(tall, wide), (wide, tall), (rand(4, n), tall), (rand(2, 3), wide)]
    pairs += [(rand(n, n), rand(n, n)), (rand(n, n, 0.3), rand(n, n, 0.3))]
    if not field.is_prime:
        assert any(b.den != 1 for _, b in pairs) and any(a.den != 1 for a, _ in pairs)
    for a, b in pairs:
        got = a @ b
        assert got == naive_product(a, b), (a, b)
        assert_canonical(got)
    # the normalise step over Q takes any nonzero denominator, negative too
    for den in (-1, -2, -6, 6):
        rows = [[rng.randint(-30, 30) for _ in range(3)] for _ in range(2)]
        m = Matrix._normal(field, rows, den)
        assert_canonical(m)
        if not field.is_prime:
            assert m == Matrix(field, [[Fraction(v, den) for v in r] for r in rows])


def naive_chain(a, factors):
    for b in factors:
        a = naive_product(a, b)
    return a


@pytest.mark.parametrize("field", [F7, BIG, QQ], ids=str)
def test_chain_matches_the_scalar_oracle(field):
    """Seeded chains through the one kernel against the triple loop, factor
    by factor: every token kind (x of every pattern, w, x1, x2, the torus and
    the GOminus block), a diagonal and a dense factor mid-chain, non-square
    factors that change the width and back, and chains of length 0, 1, 2 and
    of a real l = 8 word.  Every result is canonical."""
    rng = random.Random(61)
    big = build_descriptor(Family.GSP, 8, field, similitude=True)
    word_len = len(decompose(random_member(big, 1, word_len=36, with_torus=True), big).left)
    families = [Family.GL, Family.GSP, Family.GO_EVEN, Family.GO_ODD]
    patterns = set()
    for fam in families + ([Family.GO_MINUS] if field.is_prime else []):
        d = build_descriptor(fam, 3, field, similitude=True)
        n = d.n
        patterns |= {x_pattern(i, j, d) for i, j in legal_x_index_pairs(d)}
        tokens = every_token_matrix(d, rng)
        assert len(tokens) + 2 <= word_len
        diag = diagonal(field, [_random_scalar(field, rng) for _ in range(n)])
        dense = rand_matrix(rng, field, n)
        wide = Matrix(field, rand_matrix(rng, field, n + 2).to_lists()[:n])
        tall = Matrix(field, [r[:n] for r in rand_matrix(rng, field, n + 2).to_lists()])
        mixed = tokens + [rng.choice(tokens) for _ in range(word_len - len(tokens) - 2)]
        rng.shuffle(mixed)
        mixed[len(mixed) // 3:len(mixed) // 3] = [diag]
        mixed[2 * len(mixed) // 3:2 * len(mixed) // 3] = [dense]
        chains = [[], [rng.choice(tokens)], [rng.choice(tokens), rng.choice(tokens)], mixed]
        chains.append([rng.choice(tokens), wide, tall, rng.choice(tokens), diag, rng.choice(tokens)])
        chains.append([dense, tokens[0]])  # a row-loop result under a token's unit columns
        zero_column = diagonal(field, [0] + [1] * (n - 1))
        chains.append([tokens[0], zero_column, rng.choice(tokens)])
        member = random_member(d, 2, word_len=6, with_torus=True)
        for a in (Matrix.identity(field, n), member, rand_matrix(rng, field, n)):
            for factors in chains:
                got = Matrix._chain(a, factors)
                assert got == naive_chain(a, factors), (fam, len(factors))
                assert_canonical(got)
    assert patterns == {"gl", "pp", "pn", "np", "pnm", "npm", "0i", "i0"} | (
        {"i1", "1i", "in1", "n1i"} if field.is_prime else set()
    )


@pytest.mark.parametrize("field", [F7, BIG, QQ], ids=str)
def test_matmul_is_the_row_loop_on_sparse_factors(field, monkeypatch):
    """``@`` takes the row loop whatever its right factor: a token matrix, a
    diagonal or a signed permutation gives the triple loop's product and
    runs no delta update.  In a chain, the same factors after a token's
    delta take the row loop too and give the same product."""
    from steinberg import matrix
    from steinberg.generators import Word, evaluate_word

    rng = random.Random(37)
    d = build_descriptor(Family.GO_ODD, 3, field, similitude=True)
    n = d.n
    perm = list(range(n))
    rng.shuffle(perm)
    signed = Matrix(field, [[rng.choice([1, -1]) if j == perm[i] else 0 for j in range(n)] for i in range(n)])
    diag = diagonal(field, [_random_scalar(field, rng) or 1 for _ in range(n)])
    sparse = every_token_matrix(d, rng) + [diag, signed]
    member = random_member(d, 3, word_len=8, with_torus=True)
    want = {(id(a), id(b)): naive_product(a, b) for a in (member, diag, signed) for b in sparse}
    delta_updates = []
    apply_delta = matrix._apply_delta
    monkeypatch.setattr(matrix, "_apply_delta", lambda *args: (delta_updates.append(args[3]), apply_delta(*args))[1])
    for a in (member, diag, signed):
        for b in sparse:
            got = a @ b
            assert got == want[id(a), id(b)], b
            assert_canonical(got)
    assert delta_updates == []
    word = Word(d, [x(1, 2, 3)])
    tok = evaluate_word(word)
    row_loops = []
    row_loop = matrix._row_loop
    monkeypatch.setattr(matrix, "_row_loop", lambda *args: (row_loops.append(args[1]), row_loop(*args))[1])
    for b in (diag, signed):
        delta_updates.clear()
        row_loops.clear()
        assert evaluate_word(word, b) == naive_product(tok, b)
        assert [delta[4] for delta in delta_updates] == [True]  # the x-token's units
        assert row_loops == [b.num]


def test_rational_chain_reuses_the_integer_view():
    rng = random.Random(23)

    def rand(rows, cols):
        return Matrix(QQ, [
            [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(cols)]
            for _ in range(rows)
        ])

    a, b, c = rand(5, 6), rand(6, 4), rand(4, 5)
    ab = a @ b
    naive = naive_product(a, b)
    # the product's own stored form is what the public constructor builds
    assert (ab.num, ab.den) == (naive.num, naive.den)
    assert_canonical(ab)
    assert ab @ c == naive_product(naive, c)


# -- the trusted constructor ---------------------------------------------------


def assert_canonical(m):
    """Integer rows over the least common denominator of the scalar view,
    with residues in 0..p-1 over 1 for F_p and gcd 1 over Q."""
    f = m.field
    for r in m.data:
        for v in r:
            if f.is_prime:
                assert type(v) is int and 0 <= v < f.p, v
            else:
                assert type(v) is Fraction, v
    den = math.lcm(*(Fraction(v).denominator for r in m.data for v in r))
    assert type(m.den) is int and m.den == den, (m.den, den)
    assert m.num == tuple(tuple(int(v * den) for v in r) for r in m.data)
    assert all(type(v) is int for r in m.num for v in r)
    assert math.gcd(m.den, *(v for r in m.num for v in r)) == 1
    assert Matrix(f, m.data) == m


@pytest.mark.parametrize("field", [F7, BIG, QQ], ids=str)
def test_internal_producers_give_canonical_entries(field):
    rng = random.Random(29)
    a = rand_matrix(rng, field, 4)
    while a.rank() < 4:
        a = rand_matrix(rng, field, 4)
    b = rand_matrix(rng, field, 4)
    products = [
        a @ b, (a @ b) @ a, Matrix.identity(field, 4), Matrix(field, [[0, 0, 0]] * 2),
        full_reduction(a)[1], full_reduction(rand_matrix(rng, field, 3) @ Matrix(field, [[1, 0, 2, 1]] * 3))[1],
    ]
    families = [Family.GL, Family.GSP, Family.GO_EVEN, Family.GO_ODD]
    for fam in families + ([Family.GO_MINUS] if field.is_prime else []):
        d = build_descriptor(fam, 2, field, similitude=True)
        for _ in range(20):
            products.append(token_matrix(_random_token_from(_token_pool(d), d, rng), d))
        for i, j in legal_x_index_pairs(d):
            products.append(token_matrix(x(i, j, field.of(Fraction(-3, 2))), d))
        products.append(token_matrix(random_torus_token(d, rng), d))
        g = random_member(d, 3, word_len=8, with_torus=True)
        products.append(g)
        wm = WorkingMatrix(g, d)
        wm.lmul(_random_token_from(_token_pool(d), d, rng))
        products.append(wm.matrix())
    for m in products:
        assert_canonical(m)


def test_public_constructor_still_canonicalises():
    assert Matrix(F7, [[8, -1]]).data == ((1, 6),)
    q = Matrix(QQ, [[1, 2], [Fraction(3, 6), -4]])
    assert all(type(v) is Fraction for r in q.data for v in r)
    assert q.data[1][0] == Fraction(1, 2)
    assert (q.num, q.den) == (((2, 4), (1, -8)), 2)
    with pytest.raises(DivisionByZero):
        Matrix(F7, [[Fraction(1, 7)]])


def test_equal_rational_matrices_from_different_routes_are_equal_and_hash_equal():
    d = build_descriptor(Family.GL, 2, QQ)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    routes = [
        Matrix(QQ, [[1, half, 0], [0, 1, 0], [0, 0, 1]]),
        Matrix(QQ, [[Fraction(2, 2), Fraction(3, 6), 0], [0, 1, 0], [0, 0, Fraction(-5, -5)]]),
        token_matrix(x(1, 2, half), d),
        token_matrix(x(1, 2, quarter), d) @ token_matrix(x(1, 2, quarter), d),
        token_matrix(x(1, 2, Fraction(1, 3)), d) @ token_matrix(x(1, 2, Fraction(1, 6)), d),
    ]
    ones = [
        Matrix.identity(QQ, 3),
        token_matrix(torus(3, 1), d) @ token_matrix(torus(Fraction(1, 3), 1), d),
        diagonal(QQ, [Fraction(7, 7), 1, 1]),
    ]
    for same in (routes, ones):
        for m in same:
            assert_canonical(m)
            assert m == same[0] and hash(m) == hash(same[0])
    assert routes[0] != ones[0] and (routes[0].num, routes[0].den) == (((2, 1, 0), (0, 2, 0), (0, 0, 2)), 2)


# -- the integer Gauss-Jordan kernel against the scalar oracle -----------------


def _kernel_cases(field, rng):
    """Seeded square, non-square, rank-deficient and singular matrices;
    rationals of 60-bit height over Q."""

    def entry():
        if rng.random() < 0.25:
            return 0
        if field.is_prime:
            return rng.randrange(field.p)
        return Fraction(rng.randint(-2**60, 2**60), rng.randint(1, 2**60))

    def rand(rows, cols):
        return Matrix(field, [[entry() for _ in range(cols)] for _ in range(rows)])

    for n in range(1, 7):
        yield rand(n, n)
        yield rand(n, n + 2)
        yield rand(n + 2, n)
        k = max(1, n - 2)
        yield rand(n, k) @ rand(k, n)  # rank at most k
        square = rand(n + 1, n + 1).to_lists()
        square[-1] = square[0]
        yield Matrix(field, square)  # singular
    yield Matrix(field, [[0] * 4] * 3)
    yield diagonal(field, [-1] * 5)


@pytest.mark.parametrize("field", [F7, BIG, QQ], ids=str)
def test_kernel_agrees_with_the_scalar_oracle(field):
    # pivot columns, rank and det, and the full reduction of [A | I] against
    # the oracle's Gauss-Jordan of [A | I] on scalars: the same pivots and
    # rref R of A, and a transform E with E A = R, which on an invertible A
    # is A^-1
    rng = random.Random(31)
    for a in _kernel_cases(field, rng):
        assert a.pivot_columns() == oracle_pivot_columns(a)
        assert a.rank() == oracle_rank(a)
        if a.is_square:
            assert a.det() == oracle_det(a)
        m, n = a.rows, a.cols
        want = [r + e for r, e in zip(a.to_lists(), identity(field, m))]
        want_pivots, _ = reduce_scalars(field, n, want)
        pivots, reduced = full_reduction(a)
        assert_canonical(reduced)
        assert pivots == want_pivots
        rows = reduced.to_lists()
        assert Matrix(field, [r[:n] for r in rows]) == oracle_rref(a) == Matrix(field, [r[:n] for r in want])
        e = [r[n:] for r in rows]
        assert product(field, e, a.to_lists()) == [r[:n] for r in rows]
        if len(pivots) == m == n:
            assert Matrix(field, e) == oracle_inverse(a) == Matrix(field, [r[n:] for r in want])


def _laplace_det(f, rows: list):
    """The determinant by cofactor expansion along the first row, in
    Fractions, reduced mod p at the end over F_p."""

    def expand(rows):
        if not rows:
            return Fraction(1)
        return sum((-1) ** j * Fraction(v) * expand([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j, v in enumerate(rows[0]) if v)

    value = expand([list(r) for r in rows])
    return value % f.p if f.is_prime else value


@pytest.mark.parametrize("field", [Field(3), F7, BIG, QQ], ids=str)
def test_echelon_only_pivots_rank_and_det(field):
    # pivot_columns, rank and det stop at a row-echelon form: against the
    # pivots of the full Gauss-Jordan reduction and a Laplace determinant,
    # on random, singular, zero and non-square matrices, and over Q on
    # 100-digit rationals
    rng = random.Random(43)
    cases = list(_kernel_cases(field, rng))
    if not field.is_prime:
        def tall():
            return Fraction(rng.randint(-10**100, 10**100), rng.randint(1, 10**100))

        for n in (2, 3, 5):
            cases.append(Matrix(field, [[tall() for _ in range(n)] for _ in range(n)]))
            rows = [[tall() for _ in range(n + 1)] for _ in range(n)]
            rows[-1] = [2 * v for v in rows[0]]
            cases.append(Matrix(field, rows))  # rank n - 1
            cases.append(Matrix(field, transposed(rows)))
    for a in cases:
        full = a._reduce(list(map(list, a.num)))[0]
        assert a.pivot_columns() == full
        assert a.rank() == len(full)
        if a.is_square:
            assert a.det() == _laplace_det(field, a.data)


@pytest.mark.parametrize("field", [Field(3), F7, QQ], ids=str)
def test_reduction_takes_the_first_row_basis_and_keeps_the_leftover_rows_in_order(field):
    # [A | I] reduced over A's columns: the I part of each final row is its
    # own start row plus rows taken before it, which names where it started
    rng = random.Random(47)
    cases = list(_kernel_cases(field, rng))
    for n in range(2, 8):
        for _ in range(6):
            k = rng.randint(1, n)
            a, b = ([[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(c)] for _ in range(r)] for r, c in ((n, k), (k, n)))
            cases.append(Matrix(field, a) @ Matrix(field, b))
    moved = 0
    for a in cases:
        m, n = a.rows, a.cols
        aug = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(a.num)]
        k = len(a._reduce(aug, full=False)[0])
        starts = []
        for row in aug:
            new = [i for i, v in enumerate(row[n:]) if v and i not in starts]
            assert len(new) == 1
            starts += new
        first = []
        for i, row in enumerate(a.to_lists()):
            if oracle_rank(Matrix(field, [a.row(j) for j in first] + [row])) > len(first):
                first.append(i)
        assert sorted(starts[:k]) == first
        assert starts[k:] == sorted(starts[k:])
        moved += starts != sorted(starts)
    assert moved


def test_negative_pivots_and_denominators_give_canonical_matrices():
    a = Matrix(QQ, [[-3, 1, Fraction(-1, 2)], [2, -5, 0], [Fraction(-7, 3), 0, -1]])
    b = Matrix(QQ, [[-2, 4, 6], [-1, 2, 3], [Fraction(-1, 3), 1, 0]])
    d = build_descriptor(Family.GO_EVEN, 1, QQ)
    v = (1, -1)  # beta(v, v) = -2
    mirror = _mirror(list(v), 1, d)
    h = token_matrix(torus(Fraction(-3, 2), 1), d)
    products = [full_reduction(a)[1], full_reduction(b)[1], reflection_matrix(v, d), _reflected(mirror, h)]
    for m in products:
        assert_canonical(m)
    assert [r[3:] for r in products[0].to_lists()] == oracle_inverse(a).to_lists()
    assert [r[:3] for r in products[1].to_lists()] == oracle_rref(b).to_lists()
    assert _reflected(mirror, h) == reflection_matrix(v, d) @ h
    assert Matrix._normal(QQ, [[1, -2]], -4) == Matrix(QQ, [[Fraction(-1, 4), Fraction(1, 2)]])
    for den in (0, -1):
        with pytest.raises(InternalError):
            Matrix._canonical(QQ, [[1]], den)


def test_rational_kernel_builds_no_fraction(monkeypatch):
    import steinberg.matrix as matrix

    rng = random.Random(37)
    a = Matrix(QQ, [[Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(9)] for _ in range(9)])
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(matrix, "Fraction", Counting)
    assert a.rank() == 9
    full_reduction(a)
    assert made == []


def test_the_update_loop_and_token_units_make_no_cells():
    """Every token application runs the update loop and one of the two
    descriptions; a comprehension that read their locals would turn each
    such local into a cell made on every call and read through a cell load
    in the F_p loops."""
    assert _apply_delta.__code__.co_cellvars == ()
    assert token_units.__code__.co_cellvars == ()
    assert x_token_units.__code__.co_cellvars == ()


@pytest.mark.parametrize("field", [F5, Field(1000000007), QQ], ids=str)
def test_identity_is_one_canonical_value_per_field_and_size(field):
    for n in range(6):
        eye = Matrix.identity(field, n)
        assert eye == Matrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
        assert eye.num == tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) and eye.den == 1
        assert all(type(v) is int for row in eye.num for v in row)
        assert Matrix.identity(field, n) is eye
        assert hash(eye) == hash(Matrix(field, eye.to_lists()))
