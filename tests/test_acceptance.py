"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The word-length table
(criterion 6) is also written to word_length_table.txt in the working
directory.
"""

import random
from collections import defaultdict

import pytest

from steinberg.field import Field, QQ, square_class
from steinberg.forms import Family, build_descriptor
from steinberg.eliminate import decompose
from steinberg.generators import (
    derived_h,
    derived_w,
    evaluate_word,
    legal_x_index_pairs,
    token_matrix,
    torus,
    w,
    x,
    x1,
    x2,
    x_pattern,
)
from steinberg.harness import enumerate_group, random_member
from steinberg.matrix import Matrix
from steinberg.rowops import LEFT, RIGHT
from steinberg.coset import coset_census, coset_label, verify_label
from steinberg.spinor import (
    in_commutator_subgroup,
    reflection_factorization,
    spinor_norm,
    wall_spinor_norm,
)

from rowops_oracle import applied, oracle_apply

F3, F5, F7 = Field(3), Field(5), Field(7)
FAMILIES = (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)
SPLIT = (Family.GSP, Family.GO_EVEN, Family.GO_ODD)
ORTHOGONAL = (Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)

TRIALS = 200


def report(k: int, name: str) -> None:
    print(f"ACCEPTANCE {k} ({name}): PASS")


@pytest.fixture(scope="module")
def round_trip_runs():
    """Criterion 1 workload; op counts are reused by criterion 6."""
    ops = defaultdict(list)
    checked = 0
    for family in FAMILIES:
        for l in (1, 2, 3, 4):
            for field in (F3, F5, F7):
                d = build_descriptor(family, l, field, similitude=True)
                for seed in range(TRIALS):
                    g = random_member(d, seed, word_len=2 * l + 3, with_torus=seed % 2 == 0)
                    dec = decompose(g, d)
                    assert dec.reassemble() == g
                    ops[(family.value, l)].append(dec.op_count)
                    checked += 1
    for family in SPLIT:
        for l in (1, 2, 3, 4):
            d = build_descriptor(family, l, QQ, similitude=True)
            for seed in range(TRIALS):
                g = random_member(d, seed, word_len=2 * l + 3, with_torus=seed % 2 == 0)
                dec = decompose(g, d)
                assert dec.reassemble() == g
                ops[(family.value, l)].append(dec.op_count)
                checked += 1
    return ops, checked


def test_criterion_1_round_trip(round_trip_runs):
    ops, checked = round_trip_runs
    assert checked == len(FAMILIES) * 4 * 3 * TRIALS + len(SPLIT) * 4 * TRIALS
    report(1, f"decompose/reassemble round-trip, {checked} members bit-exact")


def test_criterion_2_table_product_equivalence():
    rng = random.Random(20)
    total = 0
    for family in FAMILIES:
        d = build_descriptor(family, 3, F5, similitude=True)
        p = 5
        templates = [("x", i, j) for (i, j) in legal_x_index_pairs(d)]
        if family in (Family.GO_EVEN, Family.GO_ODD):
            templates.append(("w", d.l))
        if family is Family.GO_MINUS:
            templates += [("w", 2), ("w", 3), ("x2",), ("x1",), ("torusb",), ("torus1",)]
        elif family is Family.GO_ODD:
            templates.append(("torusa",))
        else:
            templates.append(("torus",))
        for tpl in templates:
            for _ in range(50):
                t = rng.randrange(1, p)
                if tpl[0] == "x":
                    tok = x(tpl[1], tpl[2], t)
                elif tpl[0] == "w":
                    tok = w(tpl[1])
                elif tpl[0] == "x2":
                    tok = x2()
                elif tpl[0] == "x1":
                    sols = [(a, s) for a in range(p) for s in range(p)
                            if (a * a + d.epsilon * s * s) % p == 1]
                    tok = x1(*rng.choice(sols))
                elif tpl[0] == "torusb":
                    s = rng.randrange(1, p)
                    mu = (t * t + d.epsilon * s * s) % p
                    tok = torus(rng.randrange(1, p), mu, ts=(t, s))
                elif tpl[0] == "torusa":
                    a = rng.randrange(1, p)
                    tok = torus(t, a * a % p, alpha=a)
                elif tpl[0] == "torus1":
                    tok = torus(t, 1)
                else:
                    tok = torus(t, rng.randrange(1, p))
                g = random_member(d, rng.randrange(10**6), word_len=5, with_torus=True)
                tm = token_matrix(tok, d)
                left, right = applied(g, tok, LEFT, d), applied(g, tok, RIGHT, d)
                assert left == tm @ g == oracle_apply(g, tok, LEFT, d), str(tok)
                assert right == g @ tm == oracle_apply(g, tok, RIGHT, d), str(tok)
                total += 2
    report(2, f"in-place ops equal explicit products and the hand-written oracle, {total} checks")


def test_criterion_3_word_identities():
    checks = 0
    rng = random.Random(3)
    for l in range(1, 5):
        # swap words evaluate to the expected swap matrices in every family
        for family in FAMILIES:
            d = build_descriptor(family, l, F7)
            lo = 2 if family is Family.GO_MINUS else 1
            for i in range(lo, l + 1):
                got = evaluate_word(derived_w(i, d))
                f = d.field
                m = Matrix.identity(f, d.n).to_lists()
                pi, ni = d.pos(i), d.pos(-i)
                m[pi][pi] = m[ni][ni] = 0
                if family is Family.GSP:
                    m[pi][ni] = 1
                    m[ni][pi] = f.neg(f.one)
                else:
                    m[pi][ni] = m[ni][pi] = f.neg(f.one)
                    if family is Family.GO_ODD:
                        m[0][0] = f.neg(f.one)
                assert got == Matrix(f, m)
                checks += 1
        # h_l(lambda) = w_{l,-l}(lambda) w_{l,-l}(-1) in GSp, 20 random lambda
        d = build_descriptor(Family.GSP, l, F7)
        for _ in range(20):
            lam = rng.randrange(1, 7)
            diag = [1] * (l - 1) + [lam] + [1] * (l - 1) + [pow(lam, -1, 7)]
            assert evaluate_word(derived_h(lam, d)) == Matrix.diagonal(F7, diag)
            checks += 1
    report(3, f"swap and torus word identities exact, {checks} checks")


def _triple(g, d):
    a = spinor_norm(g, d)
    b = wall_spinor_norm(g, d)
    _, c = reflection_factorization(g, d)
    assert a == b == c, f"disagreement: {a} {b} {c}"
    return a


def test_criterion_4_spinor_triple_agreement():
    total = 0
    for family, l, p in ((Family.GO_EVEN, 1, 3), (Family.GO_MINUS, 1, 3)):
        d = build_descriptor(family, l, Field(p))
        for g in enumerate_group(d, method="brute", cap=10**6).elements:
            _triple(g, d)
            total += 1
    d = build_descriptor(Family.GO_EVEN, 2, F3)
    for g in enumerate_group(d, method="closure", cap=10**6).elements:
        _triple(g, d)
        total += 1
    for family, l in ((Family.GO_ODD, 2), (Family.GO_EVEN, 3), (Family.GO_MINUS, 2)):
        d = build_descriptor(family, l, F5)
        for seed in range(500):
            g = random_member(d, seed, word_len=7, with_torus=True)
            _triple(g, d)
            total += 1
    report(4, f"three spinor norms agree on {total} elements")


def test_criterion_5_theta_homomorphism_and_unipotents():
    rng = random.Random(55)
    pairs = 0
    for family in ORTHOGONAL:
        d = build_descriptor(family, 2, F5)
        for seed in range(500):
            g = random_member(d, seed, word_len=5, with_torus=seed % 3 == 0)
            h = random_member(d, seed + 10**6, word_len=5)
            assert spinor_norm(g @ h, d) == spinor_norm(g, d) * spinor_norm(h, d)
            pairs += 1
        # unipotent words: products of x-tokens only have trivial norm
        unipotent_pool = [
            (i, j) for (i, j) in legal_x_index_pairs(d)
        ]
        for _ in range(500):
            g = Matrix.identity(F5, d.n)
            for _ in range(rng.randrange(1, 7)):
                i, j = rng.choice(unipotent_pool)
                g = applied(g, x(i, j, rng.randrange(1, 5)), RIGHT, d)
            assert spinor_norm(g, d).is_square
    report(5, f"spinor norm multiplicative on {pairs} pairs, trivial on unipotent words")


def test_criterion_6_word_length_bound(round_trip_runs):
    ops, _ = round_trip_runs
    lines = ["family    l   trials   max_ops   mean_ops   bound=40*l^3+60"]
    for (family, l), counts in sorted(ops.items()):
        bound = 40 * l**3 + 60
        mx = max(counts)
        mean = sum(counts) / len(counts)
        assert mx <= bound, f"{family} l={l}: {mx} > {bound}"
        lines.append(f"{family:9s} {l}   {len(counts):5d}   {mx:7d}   {mean:8.1f}   {bound}")
    table = "\n".join(lines)
    print(table)
    with open("word_length_table.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    report(6, "word lengths within 40*l^3 + 60 (table in word_length_table.txt)")


def test_criterion_7_double_cosets():
    # exhaustive censuses
    d_sp = build_descriptor(Family.GSP, 1, F3)
    en_sp = enumerate_group(d_sp, method="brute", cap=10**6)
    census_sp = coset_census(d_sp, en_sp)
    assert len(census_sp) == 2
    d_o4 = build_descriptor(Family.GO_EVEN, 2, F3)
    en_o4 = enumerate_group(d_o4, method="closure", cap=10**6)
    census_o4 = coset_census(d_o4, en_o4)
    assert len(census_o4) == 3
    # witnesses verify on every enumerated element
    for d, en in ((d_sp, en_sp), (d_o4, en_o4)):
        for g in en.elements:
            assert verify_label(g, coset_label(g, d), d)
    # label invariance under parabolic multiplication
    rng = random.Random(77)
    for family, l in ((Family.GSP, 2), (Family.GO_ODD, 2)):
        d = build_descriptor(family, l, F3)
        ppairs = [
            (i, j)
            for (i, j) in legal_x_index_pairs(d)
            if x_pattern(i, j, d) in ("pp", "pn", "pnm", "i0")
        ]

        def rand_p():
            m = Matrix.identity(F3, d.n)
            for _ in range(5):
                i, j = rng.choice(ppairs)
                m = applied(m, x(i, j, rng.randrange(1, 3)), RIGHT, d)
            return m

        for gseed in range(3):
            g = random_member(d, gseed, word_len=7)
            m0 = coset_label(g, d).m
            for _ in range(100):
                g2 = rand_p() @ g @ rand_p()
                assert coset_label(g2, d).m == m0
    report(7, f"censuses {dict(census_sp)} and {dict(census_o4)}, labels P-invariant, witnesses verify")


def test_criterion_8_generation_witness():
    for family in FAMILIES:
        d = build_descriptor(family, 1, F3)
        brute = set(enumerate_group(d, method="brute", cap=10**6).elements)
        closure = set(enumerate_group(d, method="closure", cap=10**6).elements)
        assert closure == brute, family.value
    report(8, "generator+torus closure equals brute force at (l=1, p=3), all families")


def test_criterion_9_commutator_membership():
    for family in ORTHOGONAL:
        d = build_descriptor(family, 2, F5)
        for seed in range(200):
            a = random_member(d, seed, word_len=5, with_torus=True)
            b = random_member(d, seed + 10**6, word_len=5, with_torus=True)
            comm = a @ b @ a.inverse() @ b.inverse()
            assert in_commutator_subgroup(comm, d)
        nonsquares = [c for c in range(1, 5) if not square_class(F5, c).is_square]
        rng = random.Random(9)
        for k in range(200):
            lam = rng.choice(nonsquares)
            alpha = 1 if family is Family.GO_ODD else None
            g = token_matrix(torus(lam, 1, alpha=alpha), d)
            # dress the torus in a random unipotent conjugator
            u = random_member(d, k, word_len=3)
            g = u @ g @ u.inverse()
            assert not in_commutator_subgroup(g, d)
    report(9, "commutators pass membership, nonsquare-lambda tori fail it")
