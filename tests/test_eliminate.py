import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import steinberg.eliminate as eliminate
import steinberg.generators as generators
import steinberg.rowops as rowops
from steinberg.coset import coset_label
from steinberg.field import DivisionByZero, Field, QQ
from steinberg.forms import (
    Family,
    InternalError,
    MultiplierNotOne,
    NotInGroup,
    UnsupportedFamily,
    build_descriptor,
    multiplier,
    read_multiplier,
)
from steinberg.eliminate import decompose, decompose_gl
from steinberg.generators import Word, token_matrix, token_units, torus, w, x1, x2
from steinberg.harness import random_member
from steinberg.matrix import Matrix, SingularMatrix
from steinberg.spinor import spinor_norm

from gauss_oracle import diagonal, scaled

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)
ALL = (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)


def test_identity_decomposes_trivially():
    for family in ALL:
        d = build_descriptor(family, 2, F5)
        dec = decompose(Matrix.identity(F5, d.n), d)
        assert len(dec.left) == 0 and len(dec.right) == 0
        assert dec.diagonal == Matrix.identity(F5, d.n)
        assert dec.lam == 1 and dec.mu == 1 and dec.op_count == 0


def test_wl_in_o43_reassembles_with_trivial_lambda():
    d = build_descriptor(Family.GO_EVEN, 2, F3)
    g = token_matrix(w(2), d)
    dec = decompose(g, d)
    assert dec.reassemble() == g
    assert dec.lam == 1


def test_symplectic_torus_absorbed():
    for l in (1, 2, 3):
        d = build_descriptor(Family.GSP, l, F5)
        diag = [1] * (l - 1) + [3] + [1] * (l - 1) + [pow(3, -1, 5)]
        dec = decompose(diagonal(F5, diag), d)
        assert dec.diagonal == Matrix.identity(F5, d.n)
        assert dec.lam == 1 and dec.mu == 1
        assert dec.op_count > 0


@pytest.mark.parametrize("family", ALL)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_round_trip_random_words(family, p):
    field = Field(p)
    for l in (1, 2, 3):
        d = build_descriptor(family, l, field, similitude=True)
        for seed in range(6):
            g = random_member(d, seed, word_len=3 * l + 2, with_torus=True)
            dec = decompose(g, d)
            assert dec.reassemble() == g
            assert dec.mu == multiplier(g, d)


def test_round_trip_over_q():
    for family in (Family.GSP, Family.GO_EVEN, Family.GO_ODD):
        d = build_descriptor(family, 2, QQ, similitude=True)
        for seed in range(4):
            g = random_member(d, seed, word_len=5, with_torus=True)
            dec = decompose(g, d)
            assert dec.reassemble() == g


def test_words_contain_only_elementary_tokens():
    for family in ALL:
        d = build_descriptor(family, 3, F5, similitude=True)
        g = random_member(d, 17, word_len=9, with_torus=True)
        dec = decompose(g, d)
        for tok in dec.left.tokens + dec.right.tokens:
            assert tok.kind != "torus"


def test_determinism():
    d = build_descriptor(Family.GO_ODD, 3, F5)
    g = random_member(d, 23, word_len=10)
    d1 = decompose(g, d)
    d2 = decompose(g, d)
    assert d1.left == d2.left and d1.right == d2.right and d1.diagonal == d2.diagonal


def test_rejects_non_members():
    d = build_descriptor(Family.GSP, 2, F5)
    bad = Matrix.identity(F5, 4).to_lists()
    bad[0][1] = 1
    with pytest.raises(NotInGroup) as err:
        decompose(Matrix(F5, bad), d)
    assert err.value.position is not None
    with pytest.raises(NotInGroup):
        # similitude fed to an isometry descriptor
        decompose(diagonal(F5, [2, 2, 1, 1]), build_descriptor(Family.GSP, 1, F5))
    with pytest.raises(UnsupportedFamily):
        decompose(Matrix.identity(F5, 3), build_descriptor(Family.GL, 2, F5))


def test_stage_postconditions_via_observer():
    d = build_descriptor(Family.GO_EVEN, 3, F5)
    f = d.field
    g = random_member(d, 5, word_len=9)
    phases = []

    def observer(phase, cur):
        phases.append(phase)
        idxs = d.block_indices()
        if phase == "A-diagonalized":
            for i in idxs:
                for j in idxs:
                    if i != j:
                        assert cur[d.pos(i), d.pos(j)] == f.zero
            # lower-left block shape: a_i C_ij + a_j C_ji = 0, zero diagonal
            for i in idxs:
                ai = cur[d.pos(i), d.pos(i)]
                for j in idxs:
                    aj = cur[d.pos(j), d.pos(j)]
                    cij = cur[d.pos(-i), d.pos(j)]
                    cji = cur[d.pos(-j), d.pos(i)]
                    assert f.add(f.mul(ai, cij), f.mul(aj, cji)) == f.zero
        if phase == "C-cleared":
            for i in idxs:
                for j in idxs:
                    assert cur[d.pos(-i), d.pos(j)] == f.zero
                    expect = f.inv(cur[d.pos(i), d.pos(i)]) if i == j else f.zero
                    assert cur[d.pos(-i), d.pos(-j)] == expect

    dec = decompose(g, d, observer=observer)
    assert "A-diagonalized" in phases and "C-cleared" in phases and "B-cleared" in phases
    assert dec.reassemble() == g


def test_odd_observer_alpha_square():
    d = build_descriptor(Family.GO_ODD, 2, F5, similitude=True)
    g = random_member(d, 8, word_len=7, with_torus=True)
    mu = multiplier(g, d)
    seen = {}

    def observer(phase, cur):
        seen[phase] = cur

    dec = decompose(g, d, observer=observer)
    final = seen["done"]
    alpha = final[0, 0]
    assert d.field.mul(alpha, alpha) == mu
    assert dec.alpha == alpha


def test_decompose_gl_examples():
    F7 = Field(7)
    dec = decompose_gl(Matrix.identity(F7, 3))
    assert len(dec.left) == 0 and len(dec.right) == 0 and dec.diagonal == Matrix.identity(F7, 3)

    g = diagonal(F7, [2, 3])
    dec = decompose_gl(g)
    assert dec.diagonal == diagonal(F7, [1, 6])  # det = 6
    assert dec.reassemble() == g

    swap = Matrix(F7, [[0, 1], [1, 0]])
    dec = decompose_gl(swap)
    assert dec.op_count == 3
    assert dec.diagonal == diagonal(F7, [1, 6])
    assert dec.reassemble() == swap

    with pytest.raises(SingularMatrix):
        decompose_gl(Matrix(F7, [[1, 2], [2, 4]]))


def test_word_length_stats():
    """The word-length tripwire on ten random GSp l = 1 similitudes: no
    word is longer than 40 l^3 + 60 (criterion 6 keeps its own bound)."""
    d = build_descriptor(Family.GSP, 1, F5, similitude=True)
    for seed in range(10):
        g = random_member(d, seed, word_len=4 * d.l + 4, with_torus=True)
        assert decompose(g, d).op_count <= 40 * d.l**3 + 60, seed
    dec = decompose(Matrix.identity(F5, 2), d)
    assert dec.op_count == 0


def test_twisted_terminal_blocks():
    d = build_descriptor(Family.GO_MINUS, 2, F5, similitude=True)
    f = d.field
    for seed in range(30):
        g = random_member(d, seed, word_len=6, with_torus=True)
        dec = decompose(g, d)
        mu = multiplier(g, d)
        if dec.block is None:
            assert mu == f.one
        else:
            t, s = dec.block
            assert f.add(f.mul(t, t), f.mul(d.epsilon, f.mul(s, s))) == mu
            if mu == f.one:
                assert t != f.one  # degenerate blocks are absorbed as x2
        assert dec.reassemble() == g


def test_terminal_torus_check_raises_internal_error(monkeypatch):
    """The check is a raise, not an assert, so it also holds under -O: a
    torus described with one wrong unit is refused."""
    d = build_descriptor(Family.GSP, 2, F5, similitude=True)
    g = random_member(d, 1, word_len=6, with_torus=True)
    describe = eliminate.token_units

    def wrong_torus(tok, d):
        units, u, u2, den, sequential = describe(tok, d)
        if tok.kind == "torus":
            units = [*units, (0, 1, 1, False)]
        return units, u, u2, den, sequential

    monkeypatch.setattr(eliminate, "token_units", wrong_torus)
    with pytest.raises(InternalError, match="terminal matrix"):
        decompose(g, d)


def _members(field, seeds=(5,)):
    """(descriptor, member) pairs for every family over ``field``, GOminus
    over a prime field only."""
    for fam in ALL + (Family.GL,):
        if fam is Family.GO_MINUS and not field.is_prime:
            continue
        d = build_descriptor(fam, 2, field, similitude=True)
        for seed in seeds:
            yield d, random_member(d, seed, word_len=10, with_torus=True)


def _decompose(g, d):
    return decompose_gl(g) if d.family is Family.GL else decompose(g, d)


@pytest.mark.parametrize("field", [F7, Field(1000000007), QQ], ids=str)
def test_the_torus_is_described_once_and_no_token_matrix_is_built(field, monkeypatch):
    """``decompose`` describes its terminal torus once, through
    :func:`token_units`, and ``reassemble`` chains the units it kept: the
    pair builds no token matrix, and a second reassembly describes nothing."""
    tori = []
    describe, build = generators.token_units, generators.token_matrix

    def counting(tok, d):
        if tok.kind == "torus":
            tori.append(tok)
        return describe(tok, d)

    def forbidden(*args):
        raise AssertionError("a token matrix was built")

    for mod in (generators, eliminate, rowops):
        if getattr(mod, "token_units", None) is describe:
            monkeypatch.setattr(mod, "token_units", counting)
        if getattr(mod, "token_matrix", None) is build:
            monkeypatch.setattr(mod, "token_matrix", forbidden)
    for d, g in _members(field, seeds=range(3)):
        tori.clear()
        dec = _decompose(g, d)
        assert dec.reassemble() == g and dec.reassemble() == g
        assert tori == [dec.torus_token()], d


@pytest.mark.parametrize("field", [F7, Field(1000000007), QQ], ids=str)
def test_a_rebuilt_or_unpickled_decomposition_reassembles(field):
    """A decomposition built by its constructor, or through a pickle round
    trip, keeps no torus units: it is equal to the original, hashes and
    prints alike, and its reassembly describes the torus and gives g."""
    for d, g in _members(field):
        dec = _decompose(g, d)
        rebuilt = eliminate.Decomposition(*(getattr(dec, n) for n in dec._fields))
        for other in (rebuilt, pickle.loads(pickle.dumps(dec))):
            assert other._torus_units is None
            assert other == dec and hash(other) == hash(dec) and repr(other) == repr(dec)
            assert other.reassemble() == g == dec.reassemble()
            assert other._torus_units == dec._torus_units == token_units(dec.torus_token(), d)


# One rank-deficient member per family over F_7 (similitude groups, l = 2):
# its observer phases, including the one interchange round, and its word.
INTERCHANGE_CASES = [
    (
        Family.GSP,
        [[0, 0, 3, 2], [1, 2, 6, 3], [5, 4, 4, 5], [5, 3, 1, 4]],
        ["A-diagonalized", "interchanged", "A-diagonalized", "C-cleared", "B-cleared", "torus-reduced", "done"],
        "x[1,2](6) x[2,1](1) x[-1,1](5) x[2,-2](6) x[-2,2](1) x[2,-2](6) x[1,-1](1) x[2,-2](3) x[1,-2](6)"
        " x[2,-2](1) x[-2,2](6) x[2,-2](1) x[2,-2](1) x[-2,2](6) x[2,-2](1) torus(1;5) x[1,2](2)",
        16,
    ),
    (
        Family.GO_EVEN,
        [[0, 1, 3, 0], [0, 0, 3, 0], [0, 0, 2, 4], [6, 4, 5, 3]],
        ["A-diagonalized", "interchanged", "A-diagonalized", "C-cleared", "B-cleared", "done"],
        "w[2] x[2,1](4) x[1,-2](6) torus(6;4) x[1,2](1) x[2,1](6)",
        5,
    ),
    (
        Family.GO_ODD,
        [[3, 0, 3, 4, 4], [3, 0, 1, 2, 3], [2, 0, 3, 2, 2], [6, 6, 3, 6, 6], [1, 5, 3, 0, 4]],
        ["A-diagonalized", "X-E-cleared", "interchanged", "A-diagonalized", "X-E-cleared",
         "C-cleared", "B-cleared", "done"],
        "x[2,1](3) x[0,1](3) x[0,2](1) x[2,0](6) x[0,2](1) x[2,1](6) x[1,-2](5) torus(6;5;1)"
        " x[2,0](3) x[1,0](5) x[1,2](1) x[2,1](6)",
        11,
    ),
    (
        Family.GO_MINUS,
        [[3, 1, 0, 0], [4, 4, 0, 3], [0, 0, 0, 1], [4, 4, 6, 5]],
        ["A-diagonalized", "X-E-cleared", "interchanged", "A-diagonalized", "X-E-cleared",
         "C-cleared", "B-cleared", "terminal-block", "done"],
        "w[2] torus(3,4;1;6) x[-1,2](6) x[1,2](5)",
        3,
    ),
]


@pytest.mark.parametrize("family, rows, phases, word, ops", INTERCHANGE_CASES, ids=[c[0].value for c in INTERCHANGE_CASES])
def test_interchange_path_is_pinned_per_family(family, rows, phases, word, ops):
    d = build_descriptor(family, 2, F7, similitude=True)
    g = Matrix(F7, rows)
    seen = []
    dec = decompose(g, d, observer=lambda phase, m: seen.append(phase))
    assert seen == phases
    assert str(Word(d, dec.left.tokens + (dec.torus_token(),) + dec.right.tokens)) == word
    assert dec.op_count == ops
    assert dec.reassemble() == g


def test_op_count_is_the_number_of_applied_tokens(monkeypatch):
    """``op_count`` is the length of the two inverse words, and each of their
    tokens stands for one in-place application: on the interchange cases, on
    GL and on seeded similitudes of every family over F_3, F_7 and Q, with
    GSp's torus reduction and GOminus's terminal block among them."""
    from steinberg import rowops

    applied = []
    apply = rowops.apply
    monkeypatch.setattr(rowops, "apply", lambda w, tok, side: (applied.append(tok), apply(w, tok, side))[1])
    cases = [(build_descriptor(fam, 2, F7, similitude=True), Matrix(F7, rows)) for fam, rows, *_ in INTERCHANGE_CASES]
    for field in (F3, F7, QQ):
        for fam in ALL if field.is_prime else ALL[:3]:
            for l in (1, 2, 3):
                d = build_descriptor(fam, l, field, similitude=True)
                cases += [(d, random_member(d, seed, word_len=4 * l + 4, with_torus=True)) for seed in (1, 2)]
        gl = [Matrix(field, [[1, 2, 0], [3, 1, 1], [2, 0, 4]]), Matrix(field, [[0, 1, 0], [0, 0, 2], [1, 1, 1]])]
        cases += [(None, g) for g in gl]
    for d, g in cases:
        applied.clear()
        dec = decompose_gl(g) if d is None else decompose(g, d)
        assert dec.op_count == len(dec.left) + len(dec.right) == len(applied), (d, g)
        assert dec.reassemble() == g


def test_clearing_checks_survive_python_O():
    """With C left uncleared, decompose under -O stops at the C check with an
    InternalError instead of a wrong answer or an arithmetic error."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "\n".join([
        "import steinberg.eliminate as eliminate",
        "from steinberg.field import Field",
        "from steinberg.forms import Family, InternalError, build_descriptor",
        "from steinberg.harness import random_member",
        "assert False, 'asserts must be stripped'",
        "eliminate._clear_C = lambda b, active: None",
        "d = build_descriptor(Family.GSP, 2, Field(7), similitude=True)",
        "for seed in range(5):",
        "    try:",
        "        eliminate.decompose(random_member(d, seed, word_len=12, with_torus=True), d)",
        "    except InternalError as e:",
        "        print(e)",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 5 and all(line.startswith("C: entry (-1,") for line in lines), lines


SWEEP_FIELDS = (F3, F7, Field(1000000007), QQ)


@pytest.mark.parametrize("field", SWEEP_FIELDS, ids=str)
def test_every_emitted_word_passes_the_public_validation(field):
    """``decompose``, ``decompose_gl`` and ``coset_label`` assemble their
    words without the ``Word`` constructor's validation, since applying
    each token validated it.  Every word they emit, for every family at
    l = 1, 2, 3, 4, 8, with and without a torus (GOminus over F_p only),
    still passes it token for token, and a decomposition's x-tokens carry
    canonical parameters (a coset witness keeps its literal -1 moves)."""
    one = type(field.one)
    for fam in Family:
        if fam is Family.GO_MINUS and not field.is_prime:
            continue
        for l in (1, 2, 3, 4, 8):
            sim = build_descriptor(fam, l, field, similitude=True)
            iso = build_descriptor(fam, l, field)
            for seed in range(2):
                for with_torus in (False, True):
                    g = random_member(sim, 100 + seed, word_len=4 * l + 4, with_torus=with_torus)
                    dec = decompose_gl(g) if fam is Family.GL else decompose(g, sim)
                    words = [dec.left, dec.right]
                    for tok in dec.left.tokens + dec.right.tokens:
                        if tok.kind == "x":
                            assert type(tok.t) is one and field.of(tok.t) == tok.t, (fam, l, tok)
                    if fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD):
                        h = random_member(iso, 200 + seed, word_len=4 * l + 4, with_torus=with_torus)
                        label = coset_label(h, iso)
                        words += [label.left_witness, label.right_witness]
                    for word in words:
                        assert Word(word.descriptor, word.tokens) == word, (fam, l, seed, with_torus)


@pytest.mark.parametrize("field", [F7, Field(1000000007), QQ], ids=str)
def test_at_most_one_negation_per_x_token(field, monkeypatch):
    """A clearing pass negates its multiplier t once, for the token
    x(-t), and records the inverse x(t) from the t it holds, so no
    decomposition negates a field element more often than it emits
    x-tokens: counted as ``Field.neg`` calls over F_p and
    ``Fraction.__neg__`` calls over Q.  GOminus is left out, since its
    terminal-block classification negates block entries, not parameters."""
    negations = []
    neg, frac_neg = Field.neg, Fraction.__neg__

    def counting_neg(self, a):
        if self.is_prime:
            negations.append(a)
        return neg(self, a)

    def counting_frac_neg(a):
        negations.append(a)
        return frac_neg(a)

    monkeypatch.setattr(Field, "neg", counting_neg)
    monkeypatch.setattr(Fraction, "__neg__", counting_frac_neg)
    for fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GL):
        for l in (1, 2, 4, 8):
            d = build_descriptor(fam, l, field, similitude=True)
            for seed in range(5):
                g = random_member(d, 300 + seed, word_len=4 * l + 4, with_torus=True)
                negations.clear()
                dec = decompose_gl(g) if fam is Family.GL else decompose(g, d)
                tokens = sum(tok.kind == "x" for tok in dec.left.tokens + dec.right.tokens)
                assert len(negations) <= tokens, (fam, l, seed, len(negations), tokens)


def _perturbed(g, d, rng):
    """Matrices near the member g: one entry changed (three times), a row
    zeroed, two rows swapped, g scaled by 2, and the singular matrices with
    g^T beta g = 0: zero, and (with a hyperbolic pair) the rank-1 matrix
    e_i r^T for an isotropic e_i.  Some of them stay members."""
    f, n = d.field, d.n
    rows = g.to_lists()
    out = []
    for _ in range(3):
        m = [list(r) for r in rows]
        i, j = rng.randrange(n), rng.randrange(n)
        m[i][j] = f.add(m[i][j], f.of(rng.choice((1, 2, -1))))
        out.append(m)
    i, j = rng.sample(range(n), 2)
    m = [list(r) for r in rows]
    m[i] = [f.zero] * n
    out.append(m)
    m = [list(r) for r in rows]
    m[i], m[j] = m[j], m[i]
    out.append(m)
    out.append(scaled(g, 2).to_lists())
    out.append([[f.zero] * n for _ in range(n)])
    if d.block_indices():
        k = d.pos(d.block_indices()[0])
        out.append([list(rows[0]) if r == k else [f.zero] * n for r in range(n)])
    return [Matrix(f, m) for m in out]


def _near_members(fields=(F3, F7, Field(1000000007), QQ), ranks=(1, 2, 3), seeds=(0, 1)):
    """(descriptor, perturbed matrix) over every family, field and rank, for
    similitude and isometry descriptors (GOminus over F_p only)."""
    for fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS):
        for field in fields:
            if fam is Family.GO_MINUS and not field.is_prime:
                continue
            for l in ranks:
                for similitude in (True, False):
                    d = build_descriptor(fam, l, field, similitude=similitude)
                    for seed in seeds:
                        rng = random.Random(f"{fam.value} {field} {l} {similitude} {seed}")
                        g = random_member(d, 500 + seed, word_len=4 * l + 4, with_torus=True)
                        for h in _perturbed(g, d, rng):
                            yield d, h


def _outcome(route, g, d):
    try:
        result = route(g, d)
    except NotInGroup as e:
        return type(e), str(e), e.position
    return "member", result


def test_a_non_member_is_refused_as_the_form_check_names_it():
    """decompose and spinor_norm run the full form check only when the
    elimination fails, when mu reads 0 or when an isometry descriptor reads
    mu != 1; every outcome, error type, text and position equals that of an
    oracle that runs the form check first."""

    def form_first(route):
        def oracle(g, d):
            multiplier(g, d)
            return route(g, d)
        return oracle

    def words(dec):
        return dec.left, dec.right, dec.diagonal

    seen = {"member": 0, NotInGroup: 0, MultiplierNotOne: 0, "mu = 0": 0}
    for d, h in _near_members(seeds=range(3)):
        routes = [(decompose, words)]
        if d.family.is_orthogonal:
            routes.append((spinor_norm, lambda theta: theta))
        for route, result in routes:
            got, want = _outcome(route, h, d), _outcome(form_first(route), h, d)
            if got[0] == "member":
                got, want = ("member", result(got[1])), ("member", result(want[1]))
            assert got == want, (d, h, route.__name__)
        seen[got[0]] += 1
        seen["mu = 0"] += got[0] is NotInGroup and got[1].startswith("multiplier is zero")
    assert all(seen.values()), seen


def test_the_closing_check_alone_refuses_every_non_member(monkeypatch):
    """With every check before it made a no-op, the elimination still never
    returns for a non-member: the closing equality W = T refuses it.  The
    near-members that pass the mu gate decompose and reassemble."""
    monkeypatch.setattr(rowops.WorkingMatrix, "require_zero", lambda self, positions, what: None)
    monkeypatch.setattr(eliminate, "_check_lower_cleared", lambda b, mu: None)
    members = refused = 0
    for d, h in _near_members(seeds=range(4)):
        mu = read_multiplier(h, d)[0]
        if mu == d.field.zero or not (d.similitude or mu == d.field.one):
            continue
        try:
            member = multiplier(h, d) == mu
        except NotInGroup:
            member = False
        if member:
            assert eliminate._eliminate(eliminate._Bench(h, d, None), mu).reassemble() == h
            members += 1
        else:
            with pytest.raises((InternalError, ValueError, ArithmeticError)):
                eliminate._eliminate(eliminate._Bench(h, d, None), mu)
            refused += 1
    assert members and refused, (members, refused)


def test_a_member_is_decomposed_without_the_full_form_check(monkeypatch):
    """On members decompose reads mu off one entry; the O(n^3) check runs
    only for an isometry descriptor fed a similitude, to name its refusal."""
    calls = []
    monkeypatch.setattr(eliminate, "multiplier", lambda g, d: calls.append(1) or multiplier(g, d))
    for fam in ALL:
        for field in (F7, QQ) if fam is not Family.GO_MINUS else (F7,):
            d, iso = build_descriptor(fam, 3, field, similitude=True), build_descriptor(fam, 3, field)
            g = random_member(d, 9, word_len=16, with_torus=True)
            assert read_multiplier(g, d)[0] == multiplier(g, d)
            assert decompose(g, d).reassemble() == g and not calls
            with pytest.raises(MultiplierNotOne):
                decompose(scaled(random_member(iso, 9, word_len=16), 3), iso)
            assert len(calls) == 1
            calls.clear()


@pytest.mark.parametrize("field", [F7, Field(1000000007), QQ], ids=str)
def test_the_D_diagonal_check_reads_the_stored_integers(field):
    """D(i, i) A(i, i) = mu is compared on the working matrix's integers,
    over row and column dens that differ over Q; it passes, raises the
    InternalError text or raises DivisionByZero exactly as the scalar
    comparison D(i, i) != mu / A(i, i) does."""
    rng = random.Random(11)
    d = build_descriptor(Family.GSP, 2, field, similitude=True)
    f = d.field
    values = [0, 1, 2, -3, Fraction(3, 2), Fraction(-5, 9)]

    def outcome(check, b, mu):
        try:
            check(b, mu)
        except Exception as e:  # noqa: BLE001 - the type and text are what is compared
            return type(e), str(e)
        return None

    def scalar_check(b, mu):
        for i in b.d.block_indices():
            if b.at(-i, -i) != f.div(mu, b.at(i, i)):
                raise InternalError(f"D entry ({-i},{-i}) is {b.at(-i, -i)}, not mu / A({i},{i})")

    seen = set()
    for _ in range(300):
        a, mu = [f.of(rng.choice(values)) for _ in range(2)], f.of(rng.choice(values[1:]))
        diag = a + [f.div(mu, v) if v != f.zero and rng.random() < 0.7 else f.of(rng.choice(values)) for v in a]
        b = eliminate._Bench(diagonal(f, diag), d, None)
        # diag(1, lam, m, m / lam) from both sides scales each D(i, i) A(i, i) by m^2
        for side in (rowops.LEFT, rowops.RIGHT):
            rowops.apply(b, token_units(torus(f.of(Fraction(3, 2)), f.of(Fraction(5, 11))), d), side)
        if (prod := f.mul(b.at(-1, -1), b.at(1, 1))) != f.zero and rng.random() < 0.7:
            mu = prod
        got = outcome(eliminate._check_lower_cleared, b, mu)
        assert got == outcome(scalar_check, b, mu), (diag, mu)
        seen.add(None if got is None else got[0])
    assert seen == {None, InternalError, DivisionByZero}


def test_lmul_records_each_involution_with_the_units_it_applied(monkeypatch):
    # w, x1 and x2 are involutions: the left word records the token itself
    # and keeps the very units object the application took
    applied = []
    real = rowops.apply

    def recording(wm, delta, side):
        applied.append(delta)
        return real(wm, delta, side)

    monkeypatch.setattr(rowops, "apply", recording)
    goplus, gominus = build_descriptor(Family.GO_EVEN, 2, F7), build_descriptor(Family.GO_MINUS, 2, F7)
    eps = gominus.epsilon
    t, s = next((t, s) for s in range(1, 7) for t in range(7) if (t * t + eps * s * s) % 7 == 1)
    for d, tok in ((goplus, w(2)), (gominus, w(2)), (gominus, x1(t, s)), (gominus, x2())):
        b = eliminate._Bench(Matrix.identity(d.field, d.n), d, None)
        b.lmul(tok)
        assert len(applied) == len(b.left) == len(b.left_units) == 1
        assert b.left[0] is tok and b.left_units[0] is applied.pop()
