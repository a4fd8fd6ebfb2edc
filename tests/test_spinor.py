import random
import time
from itertools import islice

import pytest

from steinberg.field import QQ, CannotFactor, Field, SquareClass, square_class
from steinberg.forms import Family, InternalError, NotInGroup, build_descriptor, multiplier, read_multiplier
from steinberg.eliminate import decompose
from steinberg.generators import legal_x_index_pairs, token_matrix, torus, w, x, x1, x2
from steinberg.harness import _random_token_from, _token_pool, enumerate_group, random_member
from steinberg.matrix import Matrix
from steinberg.rowops import RIGHT
from steinberg.spinor import (
    NotOrthogonalFamily,
    _wall_discriminant,
    in_commutator_subgroup,
    reflection_factorization,
    reflection_matrix,
    spinor_norm,
    token_spinor_class,
    wall_spinor_norm,
)

from gauss_oracle import (
    diagonal, difference, identity, oracle_det, oracle_inverse, oracle_rank, oracle_solve, reduce_scalars, rref_rows,
    transposed,
)
from rowops_oracle import applied
from spinor_oracle import (
    oracle_moved_space_basis,
    oracle_reflection_factorization,
    oracle_totally_isotropic,
    oracle_wall_discriminant,
    oracle_wall_gram,
)
from test_eliminate import _near_members, _outcome

F3 = Field(3)
F5 = Field(5)
ORTH = (Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)
# every orthogonal family over F_5, and the split ones over Q
WALL_CASES = [(fam, F5) for fam in ORTH] + [(Family.GO_EVEN, QQ), (Family.GO_ODD, QQ)]


def square(field):
    return SquareClass(1, field.is_prime)


def _moved(g: Matrix) -> Matrix:
    """I - g, from the scalar view."""
    return Matrix(g.field, difference(g.field, identity(g.field, g.rows), g.to_lists()))


def _col(m: Matrix, j: int) -> tuple:
    return tuple(r[j] for r in m.to_lists())


def beta_pair(beta: Matrix, u, v):
    """beta(u, v) summed entry by entry in field scalars."""
    f = beta.field
    acc = f.zero
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            acc = f.add(acc, f.mul(f.mul(ui, beta[i, j]), vj))
    return acc


def moved_space_profile(g: Matrix, d) -> tuple:
    """(dim V_g, whether V_g is totally isotropic) for V_g = (I-g)V, from the
    dense oracles."""
    k = len(oracle_moved_space_basis(g)[0])
    return k, k > 0 and oracle_totally_isotropic(g, d)


def scherk_length(g: Matrix, d) -> int:
    """Scherk's minimal number of reflections for g: dim V_g, two more when
    V_g is totally isotropic."""
    k, isotropic = moved_space_profile(g, d)
    return k + 2 * isotropic


def test_wall_norm_of_identity():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    assert wall_spinor_norm(Matrix.identity(F5, 4), d) == square(F5)


def test_wall_norm_of_swap_generator():
    for l in (1, 2, 3):
        d = build_descriptor(Family.GO_EVEN, l, F5)
        assert wall_spinor_norm(token_matrix(w(l), d), d) == square(F5)


def test_wall_norm_of_torus():
    for lam in (2, 3, 4):
        d = build_descriptor(Family.GO_EVEN, 2, F5)
        g = token_matrix(torus(lam, 1), d)
        assert wall_spinor_norm(g, d) == square_class(F5, lam)


def test_wall_norm_trivial_on_unipotent_words():
    rng = random.Random(2)
    for family in ORTH:
        d = build_descriptor(family, 2, F5)
        g = Matrix.identity(F5, d.n)
        for _ in range(6):
            tok = x(*rng.choice([(1, 2), (2, 1)]), rng.randrange(1, 5)) \
                if family is not Family.GO_MINUS else x(2, 1, rng.randrange(1, 5))
            g = applied(g, tok, RIGHT, d)
        assert wall_spinor_norm(g, d) == square(F5)


def test_wall_property_one_entrywise():
    for family, field in WALL_CASES:
        d = build_descriptor(family, 2, field)
        for seed in range(6):
            g = random_member(d, seed, word_len=6)
            tilde = _moved(g)
            piv, gram = oracle_wall_gram(g, d)
            assert piv == _wall_discriminant(g, d)[0]
            basis = [_col(tilde, j) for j in piv]
            for i, u in enumerate(basis):
                for j, v in enumerate(basis):
                    lhs = field.add(gram[i, j], gram[j, i])
                    assert lhs == beta_pair(d.beta, u, v)


def _kernel_basis(a: Matrix) -> list:
    """A basis of the kernel of a, read off the scalar oracle's rref."""
    f = a.field
    rows = a.to_lists()
    pivots, _ = reduce_scalars(f, a.cols, rows)
    out = []
    for c in (c for c in range(a.cols) if c not in pivots):
        v = [f.zero] * a.cols
        v[c] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(rows[r][c])
        out.append(v)
    return out


def test_wall_norm_independent_of_choices():
    # the Wall form by its definition, [u, v] = beta(u, y) with (I - g)y = v:
    # a rescaled, shuffled rref basis of the moved space, preimages from the
    # scalar oracle shifted by random kernel vectors, and beta entrywise
    rng = random.Random(4)
    for family, f in WALL_CASES:
        shifted = 0
        for l in (1, 2, 3):
            d = build_descriptor(family, l, f)
            for seed in range(4):
                g = random_member(d, seed, word_len=4 * l + 4, with_torus=True)
                tilde = _moved(g)
                moved = [r for r in rref_rows(f, transposed(tilde.to_lists())) if any(r)]
                scales = [f.of(rng.choice([1, -1, 2, -2, 3])) for _ in moved]
                basis = [tuple(f.mul(c, v) for v in u) for c, u in zip(scales, moved)]
                rng.shuffle(basis)
                kernel = _kernel_basis(tilde)
                pre = []
                for u in basis:
                    y = oracle_solve(tilde, u)
                    for z in kernel:
                        c = f.of(rng.randint(-3, 3))
                        y = tuple(f.add(a, f.mul(c, b)) for a, b in zip(y, z))
                        shifted += 1
                    assert _col(tilde @ Matrix(f, [[v] for v in y]), 0) == u
                    pre.append(y)
                wall_basis = [_col(tilde, j) for j in _wall_discriminant(g, d)[0]]
                assert oracle_rank(Matrix(f, wall_basis + basis)) == len(wall_basis) == len(basis)
                if not basis:
                    assert wall_spinor_norm(g, d) == square(f)
                    continue
                gram = Matrix(f, [[beta_pair(d.beta, u, y) for y in pre] for u in basis])
                assert square_class(f, oracle_det(gram)) == wall_spinor_norm(g, d)
        assert shifted, (family, f)


def _wall_members(rng):
    """Seeded isometries at l <= 4 over F_3, F_7, F_1000000007 and Q, whose
    short words and products of a few reflections leave large fixed spaces."""
    for f in (F3, Field(7), Field(1000000007), QQ):
        for family in ORTH if f.is_prime else ORTH[:2]:
            for l in (1, 2, 3, 4):
                d = build_descriptor(family, l, f)
                for seed in range(6):
                    yield d, random_member(d, seed, word_len=(1, 2, 4 * l + 4)[seed % 3], with_torus=seed % 2 == 0)
                for _ in range(4):
                    g = Matrix.identity(f, d.n)
                    for _ in range(rng.randint(1, d.n)):
                        v = [f.of(rng.randint(-2, 2)) if rng.random() < 0.5 else f.zero for _ in range(d.n)]
                        if beta_pair(d.beta, v, v) != f.zero:
                            g = reflection_matrix(v, d) @ g
                    yield d, g


def test_wall_discriminant_equals_the_dense_gram_determinant(o_plus_4_3):
    # det C[P, P] from one reduction of beta^T (I - g) is the determinant of
    # the dense Gram matrix (I - g)^T beta on P, exactly, with the same P:
    # on whole groups and on seeded members of every corank
    d, en = o_plus_4_3
    cases = [(d, g) for g in en.elements]
    for family in (Family.GO_EVEN, Family.GO_MINUS):
        e = build_descriptor(family, 1, F3)
        cases += [(e, g) for g in enumerate_group(e, method="brute", cap=10**7).elements]
    cases += list(_wall_members(random.Random(9)))
    coranks = {}
    for d, g in cases:
        got = _wall_discriminant(g, d)
        assert got == oracle_wall_discriminant(g, d), (d, g)
        coranks.setdefault(d.field, set()).add(min(d.n - len(got[0]), 2))
    assert all(seen == {0, 1, 2} for seen in coranks.values()), coranks


def test_wall_route_runs_one_reduction_and_builds_no_matrix(monkeypatch):
    # one forward reduction of beta^T (I - g), no determinant of a Gram
    # matrix and no Matrix built at all, at every rank, g = I included
    reduce, store, calls = Matrix._reduce, Matrix._store, {"reduce": 0, "det": 0, "built": 0}

    def counting_reduce(self, *args, **kwargs):
        calls["reduce"] += 1
        return reduce(self, *args, **kwargs)

    def counting_det(self):
        calls["det"] += 1
        raise AssertionError("the Wall route took a determinant")

    def counting_store(self, *args):
        calls["built"] += 1
        return store(self, *args)

    cases = list(_wall_members(random.Random(10)))
    cases += [(d, Matrix.identity(d.field, d.n)) for d, _ in cases[:1]]
    monkeypatch.setattr(Matrix, "_reduce", counting_reduce)
    monkeypatch.setattr(Matrix, "det", counting_det)
    monkeypatch.setattr(Matrix, "_store", counting_store)
    for d, g in cases:
        calls.update(reduce=0, det=0, built=0)
        wall_spinor_norm(g, d)
        assert calls == {"reduce": 1, "det": 0, "built": 0}, (d, g)


def test_spinor_norm_examples():
    d = build_descriptor(Family.GO_EVEN, 3, F5)
    assert spinor_norm(token_matrix(w(3), d), d) == square(F5)
    for lam in (2, 3, 4):
        g = token_matrix(torus(lam, 1), d)
        assert spinor_norm(g, d) == square_class(F5, lam)


def test_twisted_token_values():
    d = build_descriptor(Family.GO_MINUS, 2, F5)
    f = d.field
    # x2 is the reflection in e_-1: class(eps/2), checked against Wall
    x2m = token_matrix(x2(), d)
    expect = square_class(f, f.div(d.epsilon, f.of(2)))
    assert token_spinor_class(x2(), d) == expect == wall_spinor_norm(x2m, d)
    # x1(t,s) has class(1-t)
    eps = d.epsilon
    sols = [(t, s) for t in range(5) for s in range(5) if (t * t + eps * s * s) % 5 == 1 and t != 1]
    for t, s in sols:
        tok = x1(t, s)
        got = token_spinor_class(tok, d)
        assert got == square_class(f, f.sub(f.one, t))
        assert got == wall_spinor_norm(token_matrix(tok, d), d)


def test_every_elementary_token_class_matches_wall():
    for family in ORTH:
        d = build_descriptor(family, 2, F5)
        for (i, j) in legal_x_index_pairs(d):
            tok = x(i, j, 3)
            m = token_matrix(tok, d)
            assert token_spinor_class(tok, d) == square(F5)
            assert wall_spinor_norm(m, d) == square(F5)


def test_reflection_factorization_basics():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    mirrors, cls = reflection_factorization(Matrix.identity(F5, 4), d)
    assert mirrors == [] and cls == square(F5)
    v = (1, 0, 1, 0)  # e_1 + e_-1, anisotropic
    rho = reflection_matrix(v, d)
    mirrors, cls = reflection_factorization(rho, d)
    prod = Matrix.identity(F5, 4)
    for m in mirrors:
        prod = prod @ reflection_matrix(m, d)
    assert prod == rho
    assert cls == wall_spinor_norm(rho, d)


def test_rational_reflection_route_returns_promptly():
    # the norms met here reach ~160 bits; trial division over them hung
    d = build_descriptor(Family.GO_EVEN, 4, QQ)
    g = random_member(d, 4000, word_len=20, with_torus=True)
    start = time.perf_counter()
    _, cls = reflection_factorization(g, d)
    assert time.perf_counter() - start < 2.0
    assert cls.rep == -1
    assert cls == spinor_norm(g, d) == wall_spinor_norm(g, d)


def test_rational_norm_of_a_long_word_returns_promptly():
    d = build_descriptor(Family.GO_ODD, 3, QQ)
    g = random_member(d, 1, word_len=100)
    start = time.perf_counter()
    assert spinor_norm(g, d) == wall_spinor_norm(g, d)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("family", ORTH)
def test_three_routes_agree_over_a_large_prime(family):
    # a coefficient scan over every nonzero residue would exhaust memory here
    field = Field(1000000007)
    for l in (1, 2, 3, 4, 8):
        d = build_descriptor(family, l, field)
        for seed in range(2):
            g = random_member(d, seed, word_len=4 * l, with_torus=True)
            start = time.perf_counter()
            mirrors, c = reflection_factorization(g, d)
            assert spinor_norm(g, d) == wall_spinor_norm(g, d) == c
            assert time.perf_counter() - start < 1.0
            assert len(mirrors) == scherk_length(g, d)


def test_every_route_reports_an_uncertified_squarefree_part():
    # lambda = 2^89 - 1 is a probable prime beyond what Miller-Rabin certifies:
    # the routes compare its class without factoring, and only printing it fails
    d = build_descriptor(Family.GO_EVEN, 1, QQ)
    g = token_matrix(torus(2**89 - 1, 1), d)
    a, b, (_, c) = spinor_norm(g, d), wall_spinor_norm(g, d), reflection_factorization(g, d)
    assert a == b == c and not a.is_square
    for cls in (a, b, c):
        with pytest.raises(CannotFactor, match=f": {2**89 - 1} is only a probable prime"):
            str(cls)


@pytest.mark.parametrize("field", [Field(7), Field(1000000007), QQ], ids=str)
def test_rank_one_update_equals_the_dense_product(field):
    # each candidate's mirror record: its N over den^2 is beta(v, v) for the
    # vector v = x / den it stands for, and its rank-1 update is the product
    from steinberg.spinor import _anisotropic_candidates, _record, _reflected

    f = field
    for family in ORTH if f.is_prime else ORTH[:2]:
        for l in (1, 2, 3):
            d = build_descriptor(family, l, f)
            for seed in range(3):
                h = random_member(d, seed, word_len=4 * l, with_torus=True)
                rec = _record(random_member(d, seed + 7, word_len=4 * l))
                for m, _ in islice(_anisotropic_candidates(rec, d), 4):
                    x, vden, *_, nv = m
                    v = tuple(f.div(f.of(xi), f.of(vden)) for xi in x)
                    assert f.div(f.of(nv), f.of(vden * vden)) == beta_pair(d.beta, v, v) != f.zero
                    assert _reflected(m, h) == reflection_matrix(v, d) @ h


def test_factorization_fuel_check_raises_internal_error(monkeypatch):
    import steinberg.spinor as spinor

    d = build_descriptor(Family.GO_EVEN, 2, F5)
    g = random_member(d, 1, word_len=7)
    # the descent moves its record to each trial mirror's hyperplane; a
    # stalled update leaves the record where it was, so only the fuel check
    # can stop it
    monkeypatch.setattr(spinor, "_hyperplane", lambda rec, u, d: rec)
    with pytest.raises(InternalError, match="failed to terminate"):
        reflection_factorization(g, d)


def test_a_step_without_a_passing_candidate_raises_internal_error(monkeypatch):
    import steinberg.spinor as spinor

    # a lookahead that rejects every hyperplane leaves no choice: at step 0 of
    # an input with candidates (dim V_g = 4), and after the auxiliary mirror
    # of a totally isotropic V_g (dim 2, then 3)
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    g, eichler = random_member(d, 1, word_len=7), token_matrix(x(1, -2, 1), d)
    assert moved_space_profile(g, d) == (4, False) and moved_space_profile(eichler, d) == (2, True)
    monkeypatch.setattr(spinor, "_isotropic", lambda xs, d: True)
    for h in (g, eichler):
        with pytest.raises(InternalError, match="no candidate passes the lookahead"):
            reflection_factorization(h, d)


def test_mirror_product_check_raises_internal_error(monkeypatch):
    import steinberg.spinor as spinor

    d = build_descriptor(Family.GO_ODD, 2, F5)
    g = random_member(d, 2, word_len=7)
    reflect_rows = spinor._reflect_rows
    calls = []

    def counting(m, rows, p):
        calls.append(m)
        return reflect_rows(m, rows, p)

    monkeypatch.setattr(spinor, "_reflect_rows", counting)
    mirrors, _ = reflection_factorization(g, d)
    assert mirrors
    total = len(calls)
    # no auxiliary mirror here, so only the closing check's rebuild calls it
    assert total == len(mirrors)
    calls.clear()

    def last_one_wrong(m, rows, p):
        # the check rebuilds g from I, last mirror first, so the last update
        # applies the first mirror: the last factor of the rebuilt product
        calls.append(m)
        out = reflect_rows(m, rows, p)
        return [[-v % p for v in r] for r in out] if len(calls) == total else out

    monkeypatch.setattr(spinor, "_reflect_rows", last_one_wrong)
    with pytest.raises(InternalError, match="mirror product"):
        reflection_factorization(g, d)
    assert len(calls) == total


def _orthogonal_near_members(seeds):
    return ((d, h) for d, h in _near_members(seeds=seeds) if d.family.is_orthogonal)


def test_a_non_member_is_refused_as_the_form_check_names_it():
    """reflection_factorization runs the full form check only when mu reads
    other than 1 or the descent or closing check fails; every outcome, error
    type, text and position equals that of an oracle that runs the form
    check first."""

    def form_first(g, d):
        multiplier(g, d)
        return reflection_factorization(g, d)

    seen = {"member": 0, NotInGroup: 0, "not an isometry": 0, "mu = 0": 0}
    for d, h in _orthogonal_near_members(seeds=range(3)):
        got, want = _outcome(reflection_factorization, h, d), _outcome(form_first, h, d)
        assert got == want, (d, h)
        seen[got[0]] += 1
        seen["not an isometry"] += got[0] is NotInGroup and got[1].endswith("not in the isometry group")
        seen["mu = 0"] += got[0] is NotInGroup and got[1].startswith("multiplier is zero")
    assert all(seen.values()), seen


def test_the_closing_check_alone_refuses_every_non_member(monkeypatch):
    """With the fallback form check made a no-op, the route still never
    returns a factorisation for a non-member whose mu reads 1: the descent
    or the closing check raises InternalError.  The near-members that pass
    the mu gate are factorised, and their mirrors multiply out to them."""
    import steinberg.spinor as spinor

    monkeypatch.setattr(spinor, "multiplier", lambda g, d: None)
    members = refused = 0
    for d, h in _orthogonal_near_members(seeds=range(4)):
        if read_multiplier(h, d)[0] != d.field.one:
            continue
        try:
            member = multiplier(h, d) == d.field.one
        except NotInGroup:
            member = False
        if member:
            vectors, _ = reflection_factorization(h, d)
            prod = Matrix.identity(d.field, d.n)
            for v in vectors:
                prod = prod @ reflection_matrix(v, d)
            assert prod == h
            members += 1
        else:
            with pytest.raises(InternalError):
                reflection_factorization(h, d)
            refused += 1
    assert members and refused, (members, refused)


def test_a_member_is_factorised_without_the_full_form_check(monkeypatch):
    """On members the route reads mu off one entry; the O(n^3) check runs
    only for a similitude with mu != 1, to name its refusal."""
    import steinberg.spinor as spinor

    calls = []
    monkeypatch.setattr(spinor, "multiplier", lambda g, d: calls.append(1) or multiplier(g, d))
    for field in (F3, Field(7), Field(1000000007), QQ):
        for family in ORTH if field.is_prime else ORTH[:2]:
            for l in (1, 2, 4):
                d = build_descriptor(family, l, field)
                for seed in range(2):
                    g = random_member(d, seed, word_len=4 * l + 4, with_torus=True)
                    reflection_factorization(g, d)
                for i, j in legal_x_index_pairs(d)[:3]:
                    reflection_factorization(token_matrix(x(i, j, 1), d), d)
                assert calls == [], (d, calls)
                # a similitude with mu != 1, where the family has one (GOodd
                # multipliers are squares, so over F_3 there is none)
                sim = build_descriptor(family, l, field, similitude=True)
                sims = (random_member(sim, seed, word_len=4 * l, with_torus=True) for seed in range(20))
                h = next((h for h in sims if read_multiplier(h, sim)[0] != field.one), None)
                if h is None:
                    continue
                with pytest.raises(NotInGroup, match="not in the isometry group"):
                    reflection_factorization(h, d)
                assert calls == [1]
                calls.clear()


def test_a_preimage_wall_orthogonal_to_the_moved_space_raises_internal_error(monkeypatch):
    """A mirror whose preimage has phi_k = beta(u, x_k) = 0 for every row of
    the record leaves no hyperplane to move to: InternalError, not the bare
    ValueError of an empty max().  On an isometry it cannot happen, so with
    every candidate's preimage made zero the member's error is raised as it
    is, after the form check finds g a member."""
    import steinberg.spinor as spinor

    for field in (F5, QQ):
        d = build_descriptor(Family.GO_EVEN, 2, field)
        g = random_member(d, 1, word_len=7)
        rec = spinor._record(g)
        with pytest.raises(InternalError, match="Wall-orthogonal"):
            spinor._hyperplane(rec, [0] * d.n, d)
        candidates = spinor._anisotropic_candidates
        monkeypatch.setattr(spinor, "_anisotropic_candidates",
                            lambda rec, d: ((m, [0] * len(u)) for m, u in candidates(rec, d)))
        with pytest.raises(InternalError, match="Wall-orthogonal"):
            reflection_factorization(g, d)
        monkeypatch.undo()


@pytest.mark.parametrize("field", [Field(7), Field(1000000007), QQ], ids=str)
def test_rank_one_mirror_product_equals_the_dense_chain(field):
    # the closing check's rank-1 rebuild against the dense product of the
    # returned mirrors' reflection matrices, both equal to g
    from steinberg.matrix import _over_lcm
    from steinberg.spinor import _mirror, _reflected

    for family in ORTH if field.is_prime else ORTH[:2]:
        for l in (1, 2, 3, 4):
            d = build_descriptor(family, l, field)
            for seed in range(3):
                g = random_member(d, seed, word_len=4 * l + 4, with_torus=True)
                vectors, _ = reflection_factorization(g, d)
                dense = h = Matrix.identity(field, d.n)
                for v in vectors:
                    dense = dense @ reflection_matrix(v, d)
                for v in reversed(vectors):
                    h = _reflected(_mirror(_over_lcm([v])[0][0], 1, d), h)
                assert h == dense == g


def test_factorization_length_bound():
    for family in ORTH:
        d = build_descriptor(family, 2, F5)
        for seed in range(10):
            g = random_member(d, seed, word_len=7, with_torus=True)
            mirrors, _ = reflection_factorization(g, d)
            assert len(mirrors) == scherk_length(g, d)


@pytest.mark.parametrize("field", [F3, F5, Field(7), Field(1000000007), QQ], ids=str)
def test_factorization_has_scherks_length(field):
    # random members up to l = 8, and products of two root elements x[i,j](t),
    # many of which move a totally isotropic space and take the auxiliary mirror
    rng = random.Random(17)
    isotropic = 0
    for family in ORTH if field.is_prime else ORTH[:2]:
        for l in (1, 2, 3, 4, 8):
            d = build_descriptor(family, l, field)
            members = [random_member(d, seed, word_len=4 * l + 4, with_torus=True) for seed in range(2)]
            pairs = legal_x_index_pairs(d)
            roots = [
                token_matrix(x(*rng.choice(pairs), rng.choice((1, 2, -1))), d) for _ in range(12 if pairs else 0)
            ]
            for g in members + [a @ b for a, b in zip(roots[::2], roots[1::2])]:
                mirrors, _ = reflection_factorization(g, d)
                k, eichler = moved_space_profile(g, d)
                assert len(mirrors) == k + 2 * eichler
                isotropic += eichler
    assert isotropic


@pytest.mark.parametrize("family", ORTH)
def test_triple_agreement_random(family):
    d = build_descriptor(family, 2, F5)
    for seed in range(25):
        g = random_member(d, seed, word_len=7, with_torus=True)
        a = spinor_norm(g, d)
        b = wall_spinor_norm(g, d)
        _, c = reflection_factorization(g, d)
        assert a == b == c


def test_triple_agreement_exhaustive_tiny():
    for family, p in ((Family.GO_EVEN, 3), (Family.GO_MINUS, 3), (Family.GO_ODD, 3)):
        d = build_descriptor(family, 1, Field(p))
        for g in enumerate_group(d, method="brute", cap=10**7).elements:
            a = spinor_norm(g, d)
            b = wall_spinor_norm(g, d)
            _, c = reflection_factorization(g, d)
            assert a == b == c


@pytest.mark.parametrize("family", ORTH)
def test_homomorphism(family):
    d = build_descriptor(family, 2, F5)
    for seed in range(15):
        g = random_member(d, seed, word_len=6)
        h = random_member(d, seed + 300, word_len=6)
        assert spinor_norm(g @ h, d) == spinor_norm(g, d) * spinor_norm(h, d)


def test_twisted_closed_forms():
    """Closed forms for the twisted norm, checked as a consequence.

    The normative computation is token-multiplicative; here we check that
    when the elimination stops with a reflection-type block, the norm is
    lambda*(1-t), and when the block was rotated away it picked up an extra
    eps/2 factor exactly when an x2/x1 pair was used.
    """
    d = build_descriptor(Family.GO_MINUS, 2, F5)
    f = d.field
    for seed in range(40):
        g = random_member(d, seed, word_len=6, with_torus=True)
        dec = decompose(g, d)
        theta = spinor_norm(g, d)
        lam_cls = square_class(f, dec.lam)
        if dec.block is not None:
            t, _ = dec.block
            assert theta == lam_cls * square_class(f, f.sub(f.one, t))
        else:
            extras = [tok for tok in dec.left.tokens + dec.right.tokens if tok.kind in ("x1", "x2")]
            acc = lam_cls
            for tok in extras:
                acc = acc * token_spinor_class(tok, d)
            assert theta == acc


def test_twisted_det_form():
    """Determinant form of the twisted closed formula, flagged if violated."""
    d = build_descriptor(Family.GO_MINUS, 2, F5)
    f = d.field
    mismatches = []
    for seed in range(60):
        g = random_member(d, seed, word_len=6, with_torus=True)
        dec = decompose(g, d)
        if dec.block is None:
            continue
        t, _ = dec.block
        theta = spinor_norm(g, d)
        base = square_class(f, f.mul(dec.lam, f.sub(f.one, t)))
        if g.det() == f.one:
            expected = base
        else:
            expected = base * square_class(f, f.mul(f.of(2), d.epsilon))
        if theta != expected:
            mismatches.append(seed)
    assert not mismatches, f"det-form disagrees with token accumulation at seeds {mismatches}"


def test_in_commutator_subgroup():
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    assert in_commutator_subgroup(Matrix.identity(F5, 4), d)
    for lam in (2, 3):  # nonsquares mod 5
        g = token_matrix(torus(lam, 1), d)
        assert not square_class(F5, lam).is_square
        assert not in_commutator_subgroup(g, d)
    for seed in range(10):
        a = random_member(d, seed, word_len=5)
        b = random_member(d, seed + 99, word_len=5)
        comm = a @ b @ oracle_inverse(a) @ oracle_inverse(b)
        assert in_commutator_subgroup(comm, d)


def test_rejects_wrong_family_and_similitudes():
    dsp = build_descriptor(Family.GSP, 2, F5)
    with pytest.raises(NotOrthogonalFamily):
        spinor_norm(Matrix.identity(F5, 4), dsp)
    d = build_descriptor(Family.GO_EVEN, 1, F5, similitude=True)
    g = diagonal(F5, [2, 1])  # multiplier 2
    with pytest.raises(NotInGroup):
        spinor_norm(g, d)


def test_every_route_refuses_a_similitude_with_its_own_message():
    for similitude in (False, True):
        d = build_descriptor(Family.GO_EVEN, 1, F5, similitude=similitude)
        g = diagonal(F5, [2, 1])  # multiplier 2
        for route in (spinor_norm, wall_spinor_norm, reflection_factorization, in_commutator_subgroup):
            with pytest.raises(NotInGroup) as err:
                route(g, d)
            assert str(err.value) == "multiplier 2 != 1: not in the isometry group"
            assert err.value.position is None


def test_spinor_norm_and_commutator_test_check_the_form_only_on_a_non_member(monkeypatch):
    """The elimination proves a member by its closing check, so the full
    form check runs 0 times on a member and once on a non-member, where it
    names the refusal."""
    import steinberg.eliminate as eliminate
    import steinberg.forms as forms
    import steinberg.spinor as spinor

    calls = []

    def counting(g, d):
        calls.append(1)
        return forms.multiplier(g, d)

    monkeypatch.setattr(eliminate, "multiplier", counting)
    monkeypatch.setattr(spinor, "multiplier", counting)
    for family in ORTH:
        d = build_descriptor(family, 2, F5)
        for seed in range(4):
            g = random_member(d, seed, word_len=8, with_torus=True)
            bad = g.to_lists()
            bad[0][1] = F5.add(bad[0][1], 1)
            for route in (spinor_norm, in_commutator_subgroup):
                calls.clear()
                route(g, d)
                assert len(calls) == 0
                with pytest.raises(NotInGroup) as err:
                    route(Matrix(F5, bad), d)
                assert err.value.position is not None and len(calls) == 1


# GO+ over Q: at l = 8 the mirror norms reach ~360 bits, and factoring them
# raised CannotFactor (seed 7000) or ran for seconds in rho (7001); the
# l = 4 input spent 2 s in rho
@pytest.mark.parametrize("l, seed, kwargs", [
    (8, 7000, {"word_len": 36}),
    (8, 7001, {"word_len": 36}),
    (4, 57001, {"word_len": 20, "with_torus": True}),
])
def test_three_routes_agree_on_rational_inputs_that_failed(l, seed, kwargs):
    d = build_descriptor(Family.GO_EVEN, l, QQ)
    g = random_member(d, seed, **kwargs)
    classes = []
    for route in (spinor_norm, wall_spinor_norm, lambda g, d: reflection_factorization(g, d)[1]):
        start = time.perf_counter()
        cls = route(g, d)
        text = str(cls)
        assert time.perf_counter() - start < 1.0
        classes.append((cls, text))
    (a, sa), (b, sb), (c, sc) = classes
    assert a == b == c and sa == sb == sc


def test_no_library_path_factors_a_rational_class(monkeypatch):
    import steinberg.field as field

    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(field, "_squarefree", refuse)
    for family in ORTH[:2]:
        for l in (1, 2, 4):
            d = build_descriptor(family, l, QQ)
            for seed in range(3):
                g = random_member(d, seed, word_len=4 * l + 4, with_torus=True)
                h = random_member(d, seed + 40, word_len=4 * l + 4, with_torus=True)
                a, b, (_, c) = spinor_norm(g, d), wall_spinor_norm(g, d), reflection_factorization(g, d)
                assert a == b == c
                assert a * spinor_norm(h, d) == spinor_norm(g @ h, d)
                assert (a * a).is_square and a.is_square is (a == square(QQ))
                assert in_commutator_subgroup(g, d) is (g.det() == 1 and a.is_square)


def _column(f, ints, den):
    return Matrix._normal(f, [[v] for v in ints], den)


@pytest.mark.parametrize("field", [F3, Field(7), Field(1000000007), QQ], ids=str)
def test_integer_descent_agrees_with_the_matrix_oracles(field, monkeypatch):
    # on every descent step, the record built or updated for an element h
    # (found by the record it came from and the preimage of the mirror) is
    # the oracle's rref basis of (I-h)^T, its preimages satisfy
    # (I-h) u_i / uden = x_i / xden, and the Gram test on its rows agrees
    # with the closed-form lookahead
    import steinberg.spinor as spinor

    record, hyperplane, isotropic = spinor._record, spinor._hyperplane, spinor._isotropic
    f = field
    homes = {}  # id of a record, or of its rows, -> (it, the element it describes)
    seen = {"record": 0, "hyperplane": 0, "isotropic": 0, "eichler": 0}

    def checked(rec, h):
        xs, xden, us, uden = rec
        assert (xs, xden) == oracle_moved_space_basis(h)
        tilde = _moved(h)
        for x, u in zip(xs, us):
            assert tilde @ _column(f, u, uden) == _column(f, x, xden)
        homes[id(rec)], homes[id(xs)] = (rec, h), (xs, h)
        return rec

    def checked_record(h):
        seen["record"] += 1
        return checked(record(h), h)

    def checked_hyperplane(rec, u, d):
        seen["hyperplane"] += 1
        h = homes[id(rec)][1]
        v = _col(_moved(h) @ _column(f, u, 1), 0)
        return checked(hyperplane(rec, u, d), reflection_matrix(v, d) @ h)

    def checked_isotropic(xs, d):
        seen["isotropic"] += 1
        out = isotropic(xs, d)
        assert out is oracle_totally_isotropic(homes[id(xs)][1], d)
        seen["eichler"] += out
        return out

    monkeypatch.setattr(spinor, "_record", checked_record)
    monkeypatch.setattr(spinor, "_hyperplane", checked_hyperplane)
    monkeypatch.setattr(spinor, "_isotropic", checked_isotropic)
    rng = random.Random(11)
    for family in ORTH if field.is_prime else ORTH[:2]:
        for l in (1, 2, 3, 4, 8):
            d = build_descriptor(family, l, field)
            for seed in range(2):
                g = random_member(d, seed, word_len=4 * l + 4, with_torus=True)
                mirrors, _ = reflection_factorization(g, d)
                assert len(mirrors) == scherk_length(g, d)
            # single tokens: the root elements x[i,j](t) move a totally
            # isotropic space, which the descent itself rarely meets
            for _ in range(6):
                h = token_matrix(_random_token_from(_token_pool(d), d, rng), d)
                xs = spinor._record(h)[0]
                if xs:
                    spinor._isotropic(xs, d)
    assert all(seen.values()), seen


def test_one_reduction_per_call_and_per_auxiliary_mirror(monkeypatch):
    # at most one auxiliary mirror, and the only dense products are its s_w g
    # and the closing check's one rank-1 update per mirror, both on the
    # integer rows of _reflect_rows
    import steinberg.spinor as spinor

    reduce, some, reflect_rows = Matrix._reduce, spinor._some_anisotropic, spinor._reflect_rows
    calls = {"reduce": 0, "auxiliary": 0, "reflected": 0}

    def counting_reduce(self, *args, **kwargs):
        calls["reduce"] += 1
        return reduce(self, *args, **kwargs)

    def counting_some(d):
        calls["auxiliary"] += 1
        return some(d)

    def counting_reflect_rows(m, rows, p):
        calls["reflected"] += 1
        return reflect_rows(m, rows, p)

    monkeypatch.setattr(Matrix, "_reduce", counting_reduce)
    monkeypatch.setattr(spinor, "_some_anisotropic", counting_some)
    monkeypatch.setattr(spinor, "_reflect_rows", counting_reflect_rows)
    auxiliary = 0
    for field in (F3, Field(7), QQ):
        for family in ORTH if field.is_prime else ORTH[:2]:
            for l in (1, 2, 4):
                d = build_descriptor(family, l, field)
                members = [random_member(d, seed, word_len=4 * l + 4, with_torus=True) for seed in range(3)]
                tokens = [token_matrix(x(i, j, 1), d) for i, j in legal_x_index_pairs(d)]
                for g in members + tokens:
                    calls.update(reduce=0, auxiliary=0, reflected=0)
                    mirrors, _ = reflection_factorization(g, d)
                    assert calls["auxiliary"] <= 1
                    assert calls["reduce"] == 1 + calls["auxiliary"]
                    assert calls["reflected"] == len(mirrors) + calls["auxiliary"]
                    auxiliary += calls["auxiliary"]
    assert auxiliary


def _assert_oracle_agrees(g, d):
    mirrors, norm = reflection_factorization(g, d)
    assert (mirrors, norm) == oracle_reflection_factorization(g, d)
    assert len(mirrors) == scherk_length(g, d)


@pytest.mark.parametrize("family, l", [
    (Family.GO_EVEN, 2), (Family.GO_MINUS, 2), (Family.GO_EVEN, 1), (Family.GO_MINUS, 1), (Family.GO_ODD, 1),
], ids=str)
def test_descent_equals_the_dense_oracle_on_whole_groups(family, l):
    # every element of O+(4,3), O-(4,3), O+-(2,3) and O(3,3)
    d = build_descriptor(family, l, F3)
    for g in enumerate_group(d).elements:
        _assert_oracle_agrees(g, d)


@pytest.mark.slow
@pytest.mark.parametrize("family, l, p, size, isotropic", [
    (Family.GO_EVEN, 1, 5, 8, 0), (Family.GO_MINUS, 1, 5, 12, 0), (Family.GO_ODD, 1, 5, 240, 0),
    (Family.GO_EVEN, 2, 5, 28800, 48), (Family.GO_MINUS, 2, 5, 31200, 0), (Family.GO_ODD, 2, 3, 103680, 80),
], ids=str)
def test_some_candidate_passes_the_lookahead_on_whole_groups(family, l, p, size, isotropic, whole_group):
    """Every element of each orthogonal group at l <= 2 over F_5, and of
    O(5,3) (the F_3 groups at l <= 2 are in the default run), descends in
    Scherk's length without a step that finds no passing candidate, which
    would raise InternalError.

    Why none can occur.  On W = V_h the Wall form chi(a, b) = beta(u_a, b),
    with (I-h)u_a = a, is nondegenerate and chi(a, a) = beta(a, a)/2.  The
    lookahead rejects v exactly when H = {b in W : chi(v, b) = 0} is totally
    isotropic.  Then chi is alternating on H, so dim H is even, and H holds
    the radical R of beta on W (W itself is not totally isotropic).  So beta
    has rank <= 2 on W, W has at most two totally isotropic hyperplanes,
    and at most two lines v are rejected.  Take basis rows x_i, x_j whose
    plane beta does not vanish on.  The candidates x_i, x_j and x_i + c x_j
    are m + 2 lines of that plane for m coefficients c, at most two of them
    isotropic, so m >= 3 (every F_p with p >= 5, and Q) leaves a passing
    one.  Over F_3, m = 2 and each basis plane is all four of its lines.
    Two basis planes inside neither isotropic hyperplane hold three
    anisotropic lines between them.  If only one does, R is spanned by the
    other dim W - 2 basis rows, an odd number; rejecting both anisotropic
    lines of that plane makes chi vanish from the plane to R, and chi,
    alternating on R, is then degenerate.
    """
    d, en = whole_group(family, l, p)
    elements = en.elements
    met = 0
    for g in elements:
        mirrors, _ = reflection_factorization(g, d)
        k, eichler = moved_space_profile(g, d)
        assert len(mirrors) == k + 2 * eichler
        met += eichler
    assert (len(elements), met) == (size, isotropic)


@pytest.mark.parametrize("field", [F3, Field(7), Field(1000000007), QQ], ids=str)
def test_descent_equals_the_dense_oracle_on_every_x_token(field):
    # the root elements x[i,j](t) at l = 2: the Eichler cases, where an
    # auxiliary mirror and the set of elements met come in
    for family in ORTH if field.is_prime else ORTH[:2]:
        d = build_descriptor(family, 2, field)
        for i, j in legal_x_index_pairs(d):
            for t in (1, 2, -1):
                _assert_oracle_agrees(token_matrix(x(i, j, t), d), d)
