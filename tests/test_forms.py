import os
import subprocess
import sys
from pathlib import Path

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


# ---------------------------------------------------------------------------
# the per-shape memo: named blocks, pair plans and the multiplier's anchor


def _old_blocks(d, m):
    """The signed blocks as the elimination and the coset labels wrote them
    at each call site before they were placed once per shape."""
    fam, l = d.family, d.l
    idxs = list(range(2, l + 1)) if fam is Family.GO_MINUS else list(range(1, (d.n if fam is Family.GL else l) + 1))
    strips = {Family.GO_ODD: (0,), Family.GO_MINUS: (1, -1)}.get(fam, ())
    active = idxs[:m]
    return idxs, strips, {
        "C rows over the pivots": [(-i, j) for i in active for j in idxs],
        "C": [(-i, j) for i in idxs for j in idxs],
        "D off its diagonal": [(-i, -j) for i in idxs for j in idxs if i != j],
        "B": [(i, -j) for i in idxs for j in idxs],
        "F and Y": [(p, q) for s in strips for i in idxs for p, q in ((-i, s), (s, -i))],
        "X over the zero pivots": [(s, i) for s in strips for i in idxs[m:]],
        "A rows over the pivots": [(i, j) for i in active for j in idxs],
    }


def _old_pairs(d, m, s, c):
    """The pair list of clear_pairs over the first m block indices as it was
    built on every call: (entry, pivot, token indices), signed."""
    idxs = list(d.block_indices())[:m]
    pairs = [(i, i) for i in idxs] if d.family is Family.GSP else []
    pairs += [(i, j) for k, i in enumerate(idxs) for j in idxs[k + 1:]]
    return [((s * i, c * j), (-s * j, c * j), (s * i, -s * j)) for i, j in pairs]


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_named_blocks_and_pair_plans_are_the_signed_blocks_placed(family, l):
    d = build_descriptor(family, l, Field(7))
    pos = d.pos
    for m in range(len(d.block_indices()) + 1):
        idxs, strips, blocks = _old_blocks(d, m)
        assert d.block_indices() == tuple(idxs) and d.strip_indices() == strips
        if family is Family.GL:  # decompose_gl reads the block indices alone
            continue
        for name, signed in blocks.items():
            assert d.cells(name, m) == tuple((pos(i), pos(j)) for i, j in signed), (name, m)
        if family is Family.GO_ODD:  # the coset labels' X check, on row 0 alone
            assert d.cells("X over the zero pivots", m) == tuple((pos(0), pos(i)) for i in idxs[m:])
        for s, c in ((-1, 1), (1, -1), (1, 1)):
            want = tuple((pos(a), pos(p), pos(b), ti, tj) for (a, b), (p, _), (ti, tj) in _old_pairs(d, m, s, c))
            assert d.pair_plan(m, s, c) == want, (m, s, c)


# the words of one member per shape and field, and the coset label of an isometry
SHAPE_PROBE = """
from steinberg.coset import coset_label
from steinberg.eliminate import decompose
from steinberg.field import QQ, Field
from steinberg.forms import Family, build_descriptor
from steinberg.harness import random_member

def probe(fields):
    out = []
    for family in (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS):
        for l in (1, 2, 3):
            for field in fields:
                if family is Family.GO_MINUS and field == QQ:
                    continue
                d = build_descriptor(family, l, field, similitude=True)
                dec = decompose(random_member(d, 7 * l, word_len=4 * l + 4, with_torus=True), d)
                out.append(f"{d}: {dec.left} | {dec.torus_token()} | {dec.right}")
                if family is not Family.GO_MINUS:
                    e = build_descriptor(family, l, field)
                    label = coset_label(random_member(e, 7 * l + 1, word_len=4 * l + 4), e)
                    out.append(f"{e}: {label.m} {label.left_witness} | {label.right_witness}")
    return "\\n".join(out)
"""


def test_a_shape_memo_filled_over_f7_gives_a_fresh_process_words():
    import steinberg.forms as forms

    namespace = {}
    exec(SHAPE_PROBE, namespace)
    namespace["probe"]([Field(7)])  # fills every probed shape's memo over F_7 first
    here = namespace["probe"]([Field(1000000007), QQ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-c", SHAPE_PROBE + "\nprint(probe([Field(1000000007), QQ]))"],
                           capture_output=True, text=True, env=env, timeout=300)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == here + "\n"

    def plain(v):
        return type(v) is int or type(v) is tuple and all(map(plain, v))

    for shape in forms._SHAPES.values():
        assert all(map(plain, (shape.signed, shape.block, shape.strips, *shape.memo.values())))
        assert all(type(k) is int and type(v) is int for k, v in shape.positions.items())
    # the anchor is the first nonzero of beta over every field
    for family in (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS):
        for field in (F3, Field(7), Field(1000000007), QQ):
            if family is Family.GO_MINUS and field == QQ:
                continue
            d = build_descriptor(family, 2, field)
            multiplier(Matrix.identity(field, d.n), d)
            first = next((i, j) for i, row in enumerate(d.beta.num) for j, v in enumerate(row) if v)
            assert d._shape.memo["anchor"] == first
