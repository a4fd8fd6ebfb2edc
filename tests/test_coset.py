import random

import pytest

from steinberg.field import QQ, Field
from steinberg.forms import Family, InternalError, NotInGroup, UnsupportedFamily, build_descriptor
from steinberg.coset import (
    CosetLabel,
    coset_census,
    coset_label,
    is_in_parabolic,
    omega_matrix,
    verify_label,
)
from steinberg.generators import Word, evaluate_word, legal_x_index_pairs, token_matrix, w, x, x_pattern
from steinberg.harness import enumerate_group, random_member
from steinberg.matrix import Matrix
from steinberg.rowops import LEFT, RIGHT

from gauss_oracle import diagonal, oracle_inverse, oracle_rank
from rowops_oracle import applied, oracle_apply

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)
COSET_FAMILIES = (Family.GSP, Family.GO_EVEN, Family.GO_ODD)


def parabolic_pairs(d):
    return [
        (i, j)
        for (i, j) in legal_x_index_pairs(d)
        if x_pattern(i, j, d) in ("pp", "pn", "pnm", "i0")
    ]


def random_parabolic(d, rng):
    g = Matrix.identity(d.field, d.n)
    for _ in range(6):
        i, j = rng.choice(parabolic_pairs(d))
        g = applied(g, x(i, j, rng.randrange(1, d.field.p)), RIGHT, d)
    return g


def test_is_in_parabolic_examples():
    d = build_descriptor(Family.GO_EVEN, 2, F3)
    assert is_in_parabolic(Matrix.identity(F3, 4), d)
    assert not is_in_parabolic(token_matrix(w(2), d), d)
    assert is_in_parabolic(token_matrix(x(1, 2, 1), d), d)
    assert is_in_parabolic(token_matrix(x(1, -2, 2), d), d)


def test_parabolic_membership_in_odd_rank():
    d = build_descriptor(Family.GO_ODD, 2, F5)
    assert is_in_parabolic(token_matrix(x(1, 0, 2), d), d)
    assert not is_in_parabolic(token_matrix(x(0, 1, 2), d), d)


def test_parabolic_member_has_label_zero():
    rng = random.Random(1)
    for family in COSET_FAMILIES:
        d = build_descriptor(family, 2, F5)
        g = random_parabolic(d, rng)
        label = coset_label(g, d)
        assert label.m == 0
        assert label.omega == Matrix.identity(F5, d.n)
        assert verify_label(g, label, d)


@pytest.mark.parametrize("family", COSET_FAMILIES)
def test_label_of_omega_itself(family):
    d = build_descriptor(family, 3, F5)
    for m in range(d.l + 1):
        om = omega_matrix(d, m)
        label = coset_label(om, d)
        assert label.m == m
        assert verify_label(om, label, d)


@pytest.mark.parametrize("field", [F3, F7, QQ], ids=str)
@pytest.mark.parametrize("family", COSET_FAMILIES)
def test_label_is_the_rank_of_the_lower_left_block(family, field):
    # g in P omega_m P exactly when its lower-left l x l block C has rank m:
    # P multiplies C on both sides by invertible blocks, and omega_m's C
    # has rank m
    for l in range(1, 5):
        d = build_descriptor(family, l, field)
        rows = [d.pos(-i) for i in range(1, l + 1)]
        cols = [d.pos(i) for i in range(1, l + 1)]
        for seed in range(10):
            g = random_member(d, seed, word_len=4 * l + 4, with_torus=True)
            assert coset_label(g, d).m == oracle_rank(Matrix(field, [[g[r, c] for c in cols] for r in rows]))


def test_sp23_exhaustive_partition(sp_2_3):
    d, en = sp_2_3
    assert len(en.elements) == 24
    census = coset_census(d, en)
    assert census == {0: 6, 1: 18}  # |P| = 6 upper-triangulars of SL(2,3)
    assert_census_closed_form(d.family, census, len(en.elements), 3)


def test_o23_split_census():
    d = build_descriptor(Family.GO_EVEN, 1, F3)
    en = enumerate_group(d, method="brute", cap=10**6)
    census = coset_census(d, en)
    assert census == {0: 2, 1: 2}
    assert_census_closed_form(d.family, census, len(en.elements), 3)


def test_goodd_l1_census():
    d = build_descriptor(Family.GO_ODD, 1, F3)
    en = enumerate_group(d, method="brute", cap=10**6)
    census = coset_census(d, en)
    assert census == {0: 12, 1: 36}
    assert_census_closed_form(d.family, census, len(en.elements), 3)


def test_o43_census(o_plus_4_3):
    d, en = o_plus_4_3
    census = coset_census(d, en)
    assert census == {0: 144, 1: 576, 2: 432}
    assert sum(census.values()) == 1152
    assert_census_closed_form(d.family, census, len(en.elements), 3)


def gaussian_binomial(l, m, q):
    num = den = 1
    for k in range(m):
        num *= q ** (l - k) - 1
        den *= q ** (k + 1) - 1
    return num // den


def assert_census_closed_form(family, census, order, q):
    # |P omega_m P| / |G| = q^e(m) [l, m]_q / sum_k q^e(k) [l, k]_q
    l = len(census) - 1
    e = (lambda m: m * (m - 1) // 2) if family is Family.GO_EVEN else (lambda m: m * (m + 1) // 2)
    total = sum(q ** e(k) * gaussian_binomial(l, k, q) for k in range(l + 1))
    for m, count in census.items():
        assert count * total == order * q ** e(m) * gaussian_binomial(l, m, q)


# each takes 20-90 s; run them with  pytest -m slow tests/test_coset.py
@pytest.mark.slow
@pytest.mark.parametrize("family, l, p, expected", [
    (Family.GSP, 2, 3, {0: 1296, 1: 15552, 2: 34992}),
    (Family.GO_ODD, 2, 3, {0: 2592, 1: 31104, 2: 69984}),
    (Family.GO_EVEN, 2, 5, {0: 2400, 1: 14400, 2: 12000}),
])
def test_census_closed_form_large(family, l, p, expected, whole_group):
    d, en = whole_group(family, l, p)
    assert en.method == "closure"
    census = coset_census(d, en)
    assert census == expected
    assert_census_closed_form(family, census, len(en.elements), p)


@pytest.mark.parametrize("family,l", [(Family.GSP, 2), (Family.GO_ODD, 2)])
def test_label_invariance_under_parabolic_moves(family, l):
    rng = random.Random(7)
    d = build_descriptor(family, l, F3)
    for seed in range(8):
        g = random_member(d, seed, word_len=7)
        m = coset_label(g, d).m
        for _ in range(10):
            g2 = random_parabolic(d, rng) @ g @ random_parabolic(d, rng)
            assert coset_label(g2, d).m == m


def test_witnesses_consist_of_parabolic_tokens():
    d = build_descriptor(Family.GO_ODD, 2, F5)
    for seed in range(8):
        g = random_member(d, seed, word_len=8)
        label = coset_label(g, d)
        for tok in label.left_witness.tokens + label.right_witness.tokens:
            assert is_in_parabolic(token_matrix(tok, d), d)
        assert verify_label(g, label, d)


def test_rejected_families_and_similitudes():
    d = build_descriptor(Family.GO_MINUS, 2, F5)
    with pytest.raises(UnsupportedFamily):
        coset_label(Matrix.identity(F5, 4), d)
    dgl = build_descriptor(Family.GL, 2, F5)
    with pytest.raises(UnsupportedFamily):
        is_in_parabolic(Matrix.identity(F5, 3), dgl)
    dsim = build_descriptor(Family.GSP, 1, F5, similitude=True)
    with pytest.raises(NotInGroup):
        coset_label(diagonal(F5, [2, 1]), dsim)


def test_non_parabolic_witness_token_raises_internal_error():
    from steinberg.coset import _assert_parabolic_token

    d = build_descriptor(Family.GSP, 2, F5)
    assert _assert_parabolic_token(x(1, -1, 2), d) == x(1, -1, 2)
    for tok in (x(-1, 1, 2), x(-1, 2, 3), w(2)):
        with pytest.raises(InternalError, match="does not lie in P"):
            _assert_parabolic_token(tok, d)


def test_witness_tokens_are_classified_once_per_pair(monkeypatch):
    """The parabolic check, the token's application and the witness word's
    validation all read one compiled code per index pair, so across many
    labels ``x_pattern`` runs at most once per pair and shape."""
    from collections import Counter

    from steinberg import forms, generators

    monkeypatch.setattr(forms, "_X_CODES", {})
    calls = Counter()
    classify = generators.x_pattern

    def counting(i, j, d):
        calls[d.family, d.l, i, j] += 1
        return classify(i, j, d)

    monkeypatch.setattr(generators, "x_pattern", counting)
    for fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD):
        for field in (F5, QQ):
            d = build_descriptor(fam, 3, field)
            for seed in range(4):
                g = random_member(d, seed, word_len=12)
                assert verify_label(g, coset_label(g, d), d)
    assert calls and max(calls.values()) == 1


def member_off_the_parabolic(d):
    for seed in range(50):
        g = random_member(d, seed, word_len=8)
        if coset_label(g, d).m > 0:
            return g
    raise AssertionError("no member with a nonzero label")


def test_final_parabolic_check_raises_internal_error(monkeypatch):
    import steinberg.coset as coset

    g = member_off_the_parabolic(build_descriptor(Family.GSP, 2, F5))
    # omega_m is kept on the descriptor that first asked for it, so the
    # patched call gets a fresh one
    monkeypatch.setattr(coset, "omega_matrix", lambda dd, m: Matrix.identity(dd.field, dd.n))
    with pytest.raises(InternalError, match="not in omega"):
        coset_label(g, build_descriptor(Family.GSP, 2, F5))


def test_clearing_checks_raise_internal_error(monkeypatch):
    """Witness tokens that do nothing (t = 0) are caught by the per-pass
    checks, before the final parabolic check and before any division by 0.

    The zero is injected where the witness applies a token, so it reaches
    every token the label emits, whichever module built it."""
    import steinberg.coset as coset

    mul = coset._Witness.xmul
    monkeypatch.setattr(coset._Witness, "xmul", lambda self, i, j, t, side, neg=False: mul(self, i, j, 0, side))
    for family in (Family.GSP, Family.GO_EVEN, Family.GO_ODD):
        d = build_descriptor(family, 2, Field(7))
        for seed in range(5):
            g = random_member(d, seed, word_len=12)
            with pytest.raises(InternalError, match="^(no pivot|A rows over the pivots)"):
                coset_label(g, d)


@pytest.mark.parametrize("field", [F7, Field(1000000007), QQ], ids=str)
@pytest.mark.parametrize("family", COSET_FAMILIES)
def test_every_label_passes_the_dense_recheck(family, field):
    # the label's own check reads the working matrix; verify_label
    # multiplies omega_m^-1, as a word, and the witnesses out densely
    for l in range(1, 5):
        d = build_descriptor(family, l, field)
        for seed in range(6):
            g = random_member(d, seed, word_len=4 * l + 4, with_torus=True)
            label = coset_label(g, d)
            assert label.omega == omega_matrix(d, label.m)
            assert verify_label(g, label, d)


def _equation_holds(label, g, d) -> bool:
    """Whether left * g * right lies in omega_m * P, decided apart from the
    library's product: the witnesses are applied by the hand-written token
    updates, and omega_m^-1 b is in P exactly when b vanishes on the rows
    omega_m moves onto P's zero block (row i for i <= m, row -i for i > m,
    and row 0 in odd rank) over the columns 1..l, since omega_m swaps e_i
    and e_-i up to sign for i <= m and fixes the other basis lines."""
    b = g
    for tok in reversed(label.left_witness.tokens):
        b = oracle_apply(b, tok, LEFT, d)
    for tok in label.right_witness.tokens:
        b = oracle_apply(b, tok, RIGHT, d)
    rows = [d.pos(i if i <= label.m else -i) for i in d.block_indices()]
    rows += [d.pos(0)] if d.family is Family.GO_ODD else []
    return all(b[r, d.pos(j)] == d.field.zero for r in rows for j in d.block_indices())


@pytest.mark.parametrize("field", [F7, Field(1000000007), QQ], ids=str)
@pytest.mark.parametrize("family", COSET_FAMILIES)
def test_verify_label_refuses_a_wrong_label(family, field):
    # the true label passes.  Any other m is refused, whatever g is: omega_k^-1
    # omega_m swaps e_i and e_-i for i between k and m, and an m outside
    # 0..l names no omega.  So is the true m with any other omega_k as its
    # omega, which is not the product of the swaps w_1..w_m.  A witness with one token's parameter t moved to
    # t + 1 is refused exactly when the equation then fails.  That is not
    # every time: the change multiplies left * g * right by a conjugate q of
    # x(1) in P, which omega_m^-1 may carry back into P (always when m = 0)
    rng = random.Random(53)
    f = field
    refused = kept = 0
    for l in (1, 2, 3):
        d = build_descriptor(family, l, field)
        pairs = parabolic_pairs(d)

        def parabolic():
            return Word(d, [x(*rng.choice(pairs), rng.randint(1, 6)) for _ in range(3 if pairs else 0)])

        members = [random_member(d, seed, word_len=4 * l + 4, with_torus=True) for seed in range(3)]
        members += [evaluate_word(parabolic(), omega_matrix(d, m), parabolic()) for m in range(l + 1)]
        for g in members:
            label = coset_label(g, d)
            assert verify_label(g, label, d) and _equation_holds(label, g, d)
            for k in range(-1, l + 2):
                if k != label.m:
                    assert not verify_label(g, CosetLabel(k, label.omega, label.left_witness, label.right_witness), d)
                    if 0 <= k <= l:
                        wrong = CosetLabel(label.m, omega_matrix(d, k), label.left_witness, label.right_witness)
                        assert not verify_label(g, wrong, d)
            for side in (0, 1):
                words = [label.left_witness, label.right_witness]
                for at, tok in enumerate(words[side].tokens):
                    toks = list(words[side].tokens)
                    toks[at] = x(tok.i, tok.j, f.add(f.of(tok.t), f.one))
                    words[side] = Word(d, toks)
                    bent = CosetLabel(label.m, label.omega, *words)
                    holds = _equation_holds(bent, g, d)
                    assert verify_label(g, bent, d) is holds
                    refused += not holds
                    kept += holds
    assert refused and kept


@pytest.mark.parametrize("family", COSET_FAMILIES)
def test_a_wrong_omega_raises_internal_error(family, monkeypatch):
    import steinberg.coset as coset

    wrong = 0
    for l in (1, 2, 3):
        d = build_descriptor(family, l, F7)
        for seed in range(4):
            g = random_member(d, seed, word_len=4 * l + 4)
            label = coset_label(g, d)
            m = label.m
            subs = [omega_matrix(d, k) for k in (m - 1, m + 1) if 0 <= k <= l]
            # omega_m times a token of P: the reduced matrix still lies in
            # its coset, so only the monomial check can refuse it
            pairs = parabolic_pairs(d)
            if pairs:
                bent = label.omega @ token_matrix(x(*pairs[0], 1), d)
                reduced = evaluate_word(label.left_witness, g, label.right_witness)
                assert is_in_parabolic(oracle_inverse(bent) @ reduced, d)
                subs.append(bent)
            for sub in subs:
                monkeypatch.setattr(coset, "omega_matrix", lambda dd, k, sub=sub: sub)
                # a fresh descriptor, so the memo holds no omega yet
                with pytest.raises(InternalError, match="not in omega"):
                    coset_label(g, build_descriptor(family, l, F7))
                monkeypatch.undo()
                wrong += 1
    assert wrong


def test_omega_is_built_once_per_descriptor_and_m(monkeypatch):
    import steinberg.coset as coset

    built = []
    monkeypatch.setattr(coset, "omega_matrix", lambda dd, m: built.append((dd, m)) or omega_matrix(dd, m))
    d, e = build_descriptor(Family.GSP, 3, F7), build_descriptor(Family.GSP, 3, F7)
    assert d == e
    for _ in range(2):
        for m in range(4):
            assert coset_label(omega_matrix(d, m), d).m == m
    assert [m for _, m in built] == [0, 1, 2, 3] and all(dd is d for dd, _ in built)
    # an equal descriptor built elsewhere keeps its own memo
    assert coset_label(omega_matrix(e, 2), e).m == 2
    assert built[-1][0] is e
