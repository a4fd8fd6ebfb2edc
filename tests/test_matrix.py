import random
from fractions import Fraction

import pytest

from steinberg.field import Field, QQ
from steinberg.matrix import DimensionMismatch, Matrix, NoSolution, SingularMatrix

F3 = Field(3)
F5 = Field(5)


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
    assert Matrix.diagonal(F5, [1, 0, 2]).rank() == 2


def test_solve_against_enumeration():
    a = Matrix(F3, [[1, 1], [0, 0]])
    sol = a.solve((2, 0))
    # oracle: enumerate all solutions over F_3
    solutions = {
        (x, y) for x in range(3) for y in range(3) if ((x + y) % 3, 0) == (2, 0)
    }
    assert sol in solutions
    assert (2, 0) in solutions


def test_solve_inconsistent():
    a = Matrix(F3, [[1, 1], [0, 0]])
    with pytest.raises(NoSolution):
        a.solve((2, 1))


def test_inverse_and_det():
    g = Matrix(F5, [[1, 2], [3, 4]])
    assert (g @ g.inverse()).is_identity()
    assert g.det() == (1 * 4 - 2 * 3) % 5
    with pytest.raises(SingularMatrix):
        Matrix(F5, [[1, 2], [2, 4]]).inverse()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(F5, 2, 3) @ Matrix.zeros(F5, 2, 3)


@pytest.mark.parametrize("field", [F5, QQ])
def test_algebraic_identities_on_random_matrices(field):
    rng = random.Random(11)
    for _ in range(25):
        a = rand_matrix(rng, field, 4)
        b = rand_matrix(rng, field, 4)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()
        assert a.rank() == a.transpose().rank()
        if a.rank() == 4:
            assert (a @ a.inverse()).is_identity()
            assert a.solve(a.col(2)) is not None


def test_rational_exactness():
    a = Matrix(QQ, [[Fraction(1, 3), Fraction(2, 7)], [Fraction(5, 2), Fraction(1, 9)]])
    inv = a.inverse()
    assert (a @ inv).is_identity()


def test_blocks_and_assemble():
    g = Matrix(F5, [[1, 2, 3], [4, 0, 1], [2, 2, 2]])
    sub = g.submatrix([0, 2], [1, 2])
    assert sub == Matrix(F5, [[2, 3], [2, 2]])
    grid = [
        [Matrix.identity(F5, 2), Matrix.zeros(F5, 2, 1)],
        [Matrix.zeros(F5, 1, 2), Matrix(F5, [[4]])],
    ]
    assert Matrix.assemble(F5, grid) == Matrix.diagonal(F5, [1, 1, 4])


def naive_product(a, b):
    f = a.field
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = f.zero
            for k in range(a.cols):
                acc = f.add(acc, f.mul(a[i, k], b[k, j]))
            row.append(acc)
        out.append(row)
    return Matrix(f, out)


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
