import pytest

from steinberg.field import Field, QQ, square_class
from steinberg.forms import (
    Family,
    GroupDescriptor,
    InternalError,
    NotInGroup,
    UnsupportedField,
    build_descriptor,
    is_member,
    multiplier,
    twisted_epsilon,
)
from steinberg.generators import token_matrix, w
from steinberg.harness import random_member
from steinberg.matrix import Matrix

F3 = Field(3)
F5 = Field(5)


def test_split_even_form():
    d = build_descriptor(Family.GO_EVEN, 1, F3)
    assert d.beta == Matrix(F3, [[0, 1], [1, 0]])


def test_symplectic_form_over_q():
    d = build_descriptor(Family.GSP, 1, QQ)
    assert d.beta == Matrix(QQ, [[0, 1], [-1, 0]])


def test_odd_form():
    d = build_descriptor(Family.GO_ODD, 2, F5)
    assert d.beta == Matrix(F5, [
        [2, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
    ])


# beta over F_5 in storage order (the module docstring of forms); GOminus has
# epsilon = 2 at p = 5
BETAS = {
    (Family.GSP, 1): [
        [0, 1],
        [-1, 0],
    ],
    (Family.GSP, 2): [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ],
    (Family.GSP, 3): [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [-1, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0],
    ],
    (Family.GO_EVEN, 1): [
        [0, 1],
        [1, 0],
    ],
    (Family.GO_EVEN, 2): [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ],
    (Family.GO_EVEN, 3): [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ],
    (Family.GO_ODD, 1): [
        [2, 0, 0],
        [0, 0, 1],
        [0, 1, 0],
    ],
    (Family.GO_ODD, 2): [
        [2, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
    ],
    (Family.GO_ODD, 3): [
        [2, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
    ],
    (Family.GO_MINUS, 1): [
        [1, 0],
        [0, 2],
    ],
    (Family.GO_MINUS, 2): [
        [1, 0, 0, 0],
        [0, 2, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    (Family.GO_MINUS, 3): [
        [1, 0, 0, 0, 0, 0],
        [0, 2, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
    ],
}


@pytest.mark.parametrize("family, l", list(BETAS), ids=lambda v: getattr(v, "value", str(v)))
def test_gram_matrix_is_pinned(family, l):
    assert build_descriptor(family, l, F5).beta == Matrix(F5, BETAS[family, l])
    if family is not Family.GO_MINUS:
        d = build_descriptor(family, l, QQ)
        assert d.beta == Matrix(QQ, BETAS[family, l]) and d.beta.den == 1


@pytest.mark.parametrize("family", [f for f in Family if f is not Family.GL], ids=lambda f: f.value)
def test_beta_columns_are_the_nonzeros_of_beta(family):
    """beta_columns() holds the one nonzero (i, beta[i][j]) of each column
    j, for every family, rank and field; a Gram matrix with two nonzeros in
    a column, or none, is no signed permutation and raises InternalError."""
    for field in (F3, F5, Field(1000000007), QQ):
        if family is Family.GO_MINUS and not field.is_prime:
            continue
        for l in (1, 2, 3):
            d = build_descriptor(family, l, field)
            nonzeros = [[(i, v) for i, v in enumerate(col) if v] for col in zip(*d.beta.num)]
            assert [[c] for c in d.beta_columns()] == nonzeros
    d = build_descriptor(Family.GO_EVEN, 1, F5)
    for rows, j in (([[1, 1], [1, 0]], 0), ([[0, 0], [1, 0]], 1)):
        odd = GroupDescriptor(d.family, d.l, d.field, d.similitude, Matrix(F5, rows), d.n)
        with pytest.raises(InternalError, match=f"not monomial in column {j}$"):
            odd.beta_columns()


def test_twisted_form_p5():
    d = build_descriptor(Family.GO_MINUS, 1, F5)
    assert d.beta == Matrix(F5, [[1, 0], [0, 2]])
    assert not square_class(F5, d.epsilon).is_square


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_twisted_plane_is_anisotropic(p):
    # the defining property of the second even type: x^2 + eps*y^2 = 0 only at 0
    eps = twisted_epsilon(p)
    assert all(
        (a * a + eps * b * b) % p != 0
        for a in range(p)
        for b in range(p)
        if (a, b) != (0, 0)
    )


def test_twisted_group_order_at_l1():
    # |O-(2,q)| = 2(q+1); the isotropic choice of epsilon would give 2(q-1)
    from steinberg.harness import enumerate_group

    for p in (3, 5, 7):
        d = build_descriptor(Family.GO_MINUS, 1, Field(p))
        assert len(enumerate_group(d, method="brute", cap=10**7).elements) == 2 * (p + 1)


def test_twisted_needs_finite_field():
    with pytest.raises(UnsupportedField):
        build_descriptor(Family.GO_MINUS, 2, QQ)


def test_multiplier_identity_and_scalar():
    for l in (1, 2, 3):
        d = build_descriptor(Family.GSP, l, F5, similitude=True)
        assert multiplier(Matrix.identity(F5, d.n), d) == 1
        c = 3
        assert multiplier(Matrix.diagonal(F5, [c] * d.n), d) == c * c % 5


def test_multiplier_witness_position():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    g = Matrix.identity(F5, 4).to_lists()
    g[2][1] = 1  # breaks the form equation
    with pytest.raises(NotInGroup) as err:
        multiplier(Matrix(F5, g), d)
    # storage (2, 1) is the signed entry (-1, 2); the equation first fails at (1, 2)
    assert err.value.position == (1, 2)
    assert "(1, 2)" in str(err.value)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_basis_indices_invert_pos(family):
    for l in (1, 2, 3):
        d = build_descriptor(family, l, F5)
        assert [d.pos(i) for i in d.basis_indices()] == list(range(d.n))


def test_is_member_examples():
    d = build_descriptor(Family.GO_EVEN, 2, F3)
    assert is_member(token_matrix(w(2), d), d)
    dsp = build_descriptor(Family.GSP, 1, F5)
    assert not is_member(Matrix.diagonal(F5, [2, 1]), dsp)
    assert is_member(Matrix.identity(F5, 2), dsp)


def test_isometry_flag_rejects_similitudes():
    d_sim = build_descriptor(Family.GSP, 1, F5, similitude=True)
    d_iso = build_descriptor(Family.GSP, 1, F5, similitude=False)
    g = Matrix.diagonal(F5, [2, 1])  # multiplier 2
    assert is_member(g, d_sim)
    assert not is_member(g, d_iso)


@pytest.mark.parametrize("family", [Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS])
def test_multiplier_is_multiplicative(family):
    d = build_descriptor(family, 2, F5, similitude=True)
    for seed in range(8):
        g = random_member(d, seed, word_len=5, with_torus=True)
        h = random_member(d, seed + 50, word_len=5, with_torus=True)
        assert multiplier(g @ h, d) == d.field.mul(multiplier(g, d), multiplier(h, d))


@pytest.mark.parametrize("family", [Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS])
def test_beta_symmetry_and_regularity(family):
    d = build_descriptor(family, 3, F5)
    bt = d.beta.transpose()
    if family is Family.GSP:
        assert bt == -d.beta
    else:
        assert bt == d.beta
    assert d.beta.det() != 0


def test_out_of_range_index_is_a_value_error():
    cases = [
        (Family.GSP, 2, 3), (Family.GSP, 2, 0), (Family.GO_EVEN, 2, -3), (Family.GO_ODD, 2, 3),
        (Family.GO_MINUS, 2, 0), (Family.GL, 2, 4), (Family.GL, 2, 0),
    ]
    for family, l, i in cases:
        d = build_descriptor(family, l, F5)
        with pytest.raises(ValueError, match=f"index {i} out of range for {family.value} with l={l}"):
            d.pos(i)
    assert build_descriptor(Family.GSP, 2, F5).pos(-2) == 3
    assert build_descriptor(Family.GO_ODD, 2, F5).pos(0) == 0


def oracle_multiplier(g: Matrix, d) -> object:
    """The dense form of the check: build mu beta and compare matrices."""
    from steinberg.forms import first_difference

    n, f, beta = d.n, d.field, d.beta
    if g.rows != n or g.cols != n:
        raise NotInGroup(f"expected a {n}x{n} matrix", position=None)
    m = g.transpose() @ beta @ g
    at = next((i, j) for i in range(n) for j in range(n) if beta[i, j] != f.zero)
    mu = f.div(m[at], beta[at])
    want = beta.scale(mu)
    if m != want:
        at, got, expected = first_difference(m, want, d)
        raise NotInGroup(f"g^T beta g = mu beta fails at {at} for mu = {mu}: entry {got}, expected {expected}",
                         position=at)
    if mu == f.zero:
        raise NotInGroup("multiplier is zero (singular matrix)", position=None)
    return mu


def outcome(fn, g, d):
    try:
        return fn(g, d)
    except NotInGroup as e:
        return (str(e), e.position)


@pytest.mark.parametrize("field", [F3, Field(7), Field(1000000007), QQ], ids=str)
def test_multiplier_agrees_with_the_dense_oracle(field):
    import random

    rng = random.Random(3)
    families = [Family.GSP, Family.GO_EVEN, Family.GO_ODD] + ([Family.GO_MINUS] if field.is_prime else [])
    rejected = 0
    for family in families:
        for l in (1, 2, 4, 8):
            d = build_descriptor(family, l, field, similitude=True)
            for seed in range(3):
                g = random_member(d, seed, word_len=4 * l + 4, with_torus=True)
                # the member, a perturbed entry, a scalar multiple and the zero matrix
                rows = g.to_lists()
                i, j = rng.randrange(d.n), rng.randrange(d.n)
                rows[i][j] = field.add(rows[i][j], field.of(rng.choice([1, -1, 2])))
                for h in (g, Matrix(field, rows), g.scale(3), Matrix(field, [[0] * d.n] * d.n)):
                    got = outcome(multiplier, h, d)
                    assert got == outcome(oracle_multiplier, h, d)
                    rejected += type(got) is tuple
    assert rejected


@pytest.mark.parametrize("field", [F3, Field(7), QQ], ids=str)
def test_half_triangle_check_loses_no_witness(field):
    # the check compares only the entries j >= i of g^T beta g; a single
    # perturbed entry anywhere, or a mirrored pair, must still be caught
    # with the dense oracle's text and first position
    families = [Family.GSP, Family.GO_EVEN, Family.GO_ODD] + ([Family.GO_MINUS] if field.is_prime else [])
    rejected = accepted = 0
    for family in families:
        for l in (1, 2):
            d = build_descriptor(family, l, field, similitude=True)
            g = random_member(d, l, word_len=4 * l + 4, with_torus=True)
            n = d.n
            cases = [[(i, j, 1)] for i in range(n) for j in range(n)]
            cases += [[(i, j, 1), (j, i, s)] for i in range(n) for j in range(i + 1, n) for s in (1, -1)]
            for case in cases:
                rows = g.to_lists()
                for i, j, t in case:
                    rows[i][j] = field.add(rows[i][j], field.of(t))
                h = Matrix(field, rows)
                got = outcome(multiplier, h, d)
                assert got == outcome(oracle_multiplier, h, d), (d, case)
                rejected += type(got) is tuple
                accepted += type(got) is not tuple
    assert rejected and accepted
