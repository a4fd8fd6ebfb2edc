"""A smoke test of the library that needs only the standard library.

    python3 tests/smoke_stdlib.py

It runs without pytest, so it also checks interpreters that have none,
such as the ``requires-python`` floor.  For every family over F_3, F_7,
F_1000000007 and Q (GOminus over F_p only) at l = 1, 2 and 4 it decomposes
a seeded member with a torus, a similitude where the family has one, and
checks that the words reassemble it; for the orthogonal families it takes
the spinor norm of an isometry three ways (elimination, Wall form,
reflections), which must agree; for GSp, GOplus and GOodd it computes
the Siegel double-coset label of an isometry and rechecks its witnesses;
and for every family but GL it feeds ``decompose`` a member with one entry
changed, which must be refused with ``NotInGroup`` and the position where
the form equation fails, as must an isometry with one entry changed fed to
``reflection_factorization`` for the orthogonal families.  Over Q it also
decomposes, for GSp, GOplus, GOodd and GL, a member whose denominators
cross ``matrix._REDUCE_FROM`` partway through the elimination, and checks
that it reassembles and that the word is the one computed with every
written vector reduced at once.  Before all that, at l = 3, which the
other checks have not yet used, it decomposes one member of each family
over F_7, F_1000000007 and Q in turn, and then in the reverse order, and
checks that each reassembles: the positions a group shape fixes are placed
once per shape over whichever field comes first, and read over the others.
Next, for one member of each family over F_7 and Q, it checks that fresh
words with the decomposition's tokens, checked ones and ones that keep no
units, reassemble it as the decomposition's own words, which keep the
units the elimination applied, do.
Then, over F_7 and Q, it checks the Wall form against the elimination on
one isometry per orthogonal family and l = 2 with I - g of rank n, one of
rank n - 1 and one of rank at most n - 2.
It imports the package from ``src/`` next to this directory, prints one
line per family and field, and exits with status 1 at the first failure.
"""

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from steinberg import matrix  # noqa: E402
from steinberg.coset import coset_label, verify_label  # noqa: E402
from steinberg.eliminate import decompose, decompose_gl  # noqa: E402
from steinberg.field import QQ, Field  # noqa: E402
from steinberg.forms import Family, NotInGroup, build_descriptor  # noqa: E402
from steinberg.generators import Word, evaluate_word, legal_x_index_pairs, x  # noqa: E402
from steinberg.harness import random_member  # noqa: E402
from steinberg.matrix import Matrix  # noqa: E402
from steinberg.spinor import reflection_factorization, spinor_norm, wall_spinor_norm  # noqa: E402

FIELDS = (Field(3), Field(7), Field(1000000007), QQ)
RANKS = (1, 2, 4)
SEEDS = (1, 2)


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)


def smoke(fam: Family, field: Field) -> int:
    """Run every check of one family over one field; return the count."""
    checks = 0
    for l in RANKS:
        sim = build_descriptor(fam, l, field, similitude=fam is not Family.GL)
        iso = build_descriptor(fam, l, field)
        for seed in SEEDS:
            where = f"{sim} seed {seed}"
            g = random_member(sim, seed, word_len=4 * l + 4, with_torus=True)
            dec = decompose_gl(g) if fam is Family.GL else decompose(g, sim)
            check(dec.reassemble() == g, f"{where}: decompose/reassemble")
            checks += 1
            h = random_member(iso, seed, word_len=4 * l + 4, with_torus=True)
            if fam.is_orthogonal:
                theta = spinor_norm(h, iso)
                check(wall_spinor_norm(h, iso) == theta, f"{where}: Wall form against elimination")
                check(reflection_factorization(h, iso)[1] == theta, f"{where}: reflections against elimination")
                checks += 2
            if fam in (Family.GSP, Family.GO_EVEN, Family.GO_ODD):
                label = coset_label(h, iso)
                check(0 <= label.m <= l and verify_label(h, label, iso), f"{where}: coset label")
                checks += 1
    if fam is not Family.GL:
        routes = [(True, decompose)] + [(False, reflection_factorization)] * fam.is_orthogonal
        for similitude, route in routes:
            d = build_descriptor(fam, 2, field, similitude=similitude)
            rows = random_member(d, 1, word_len=12, with_torus=True).to_lists()
            rows[0][1] = field.add(rows[0][1], field.one)
            try:
                route(Matrix(field, rows), d)
                check(False, f"{d}: {route.__name__} accepted a non-member")
            except NotInGroup as e:
                check(e.position is not None, f"{d}: {route.__name__} refused a non-member without a position: {e}")
            checks += 1
    if not field.is_prime and fam is not Family.GO_MINUS:
        check(tall_round_trip(fam), f"{fam.value} over Q: a word across one int digit of denominator")
        checks += 1
    return checks


def tall_round_trip(fam: Family) -> bool:
    """Decompose, at l = 3 over Q, a product of 24 x-tokens with parameters
    a/b, |a| < 10^4, b <= 3: its den is below ``matrix._REDUCE_FROM`` and
    some emitted parameter's den is not.  True when it reassembles and the
    word equals the one computed with the constant at 1."""
    d = build_descriptor(fam, 3, QQ)
    rng = random.Random(1)
    pairs = legal_x_index_pairs(d)
    g = evaluate_word(Word(d, [
        x(*rng.choice(pairs), Fraction(rng.choice((1, -1)) * rng.randrange(1, 10**4), rng.randrange(1, 4)))
        for _ in range(24)
    ]))
    route = decompose_gl if fam is Family.GL else lambda g: decompose(g, d)
    dec = route(g)
    dens = [Fraction(tok.t).denominator for tok in dec.left.tokens + dec.right.tokens if tok.t is not None]
    limit, matrix._REDUCE_FROM = matrix._REDUCE_FROM, 1
    try:
        ref = route(g)
    finally:
        matrix._REDUCE_FROM = limit
    return (g.den < limit <= max(dens) and dec.reassemble() == g
            and (dec.left, dec.torus_token(), dec.right) == (ref.left, ref.torus_token(), ref.right))


def wall_ranks(field: Field) -> int:
    """For each orthogonal family at l = 2 over the field, take the first
    seeded isometries whose I - g has rank n, n - 1 and at most n - 2 (short
    words leave large fixed spaces), and check the Wall form against the
    elimination on each."""
    checks = 0
    for fam in (Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)[:3 if field.is_prime else 2]:
        d = build_descriptor(fam, 2, field)
        seen = set()
        for seed in range(60):
            g = random_member(d, seed, word_len=(1, 2, 12)[seed % 3], with_torus=seed % 2 == 0)
            rows = enumerate(g.to_lists())
            moved = [[field.sub(field.of(int(i == j)), v) for j, v in enumerate(r)] for i, r in rows]  # I - g
            corank = min(d.n - Matrix(field, moved).rank(), 2)
            if corank not in seen:
                seen.add(corank)
                check(wall_spinor_norm(g, d) == spinor_norm(g, d), f"{d} seed {seed}: Wall form at corank {corank}")
                checks += 1
        check(seen == {0, 1, 2}, f"{d}: Wall form members of corank 0, 1 and 2 or more, found {sorted(seen)}")
    return checks


def shared_shapes() -> int:
    """Decompose one member per family at l = 3 over F_7, F_1000000007 and
    Q, interleaved (each shape's memo filled over one field, read over the
    others), then in the reverse field order; check each reassembles."""
    checks = 0
    fields = (Field(7), Field(1000000007), QQ)
    for order in (fields, fields[::-1]):
        for field in order:
            for fam in Family:
                if fam is Family.GO_MINUS and not field.is_prime:
                    continue
                d = build_descriptor(fam, 3, field, similitude=fam is not Family.GL)
                g = random_member(d, 3, word_len=16, with_torus=True)
                dec = decompose_gl(g) if fam is Family.GL else decompose(g, d)
                check(dec.reassemble() == g, f"{d}: decompose/reassemble with a shared shape memo")
                checks += 1
    return checks


def fresh_words() -> int:
    """Reassemble one member of each family over F_7 and Q from fresh words
    with the decomposition's tokens, a checked one (``Word``) and one that
    keeps no units (``Word._trusted``): each must give the element, as the
    decomposition's own words, which keep the units the elimination
    applied, do."""
    checks = 0
    for field in (Field(7), QQ):
        for fam in Family:
            if fam is Family.GO_MINUS and not field.is_prime:
                continue
            d = build_descriptor(fam, 2, field, similitude=fam is not Family.GL)
            g = random_member(d, 4, word_len=12, with_torus=True)
            dec = decompose_gl(g) if fam is Family.GL else decompose(g, d)
            e = dec.descriptor
            for make in (Word, Word._trusted):
                left, right = make(e, dec.left.tokens), make(e, dec.right.tokens)
                check(evaluate_word(left, dec.diagonal, right) == dec.reassemble() == g,
                      f"{e}: reassembly from fresh words ({make.__name__})")
                checks += 1
    return checks


def main() -> None:
    start = time.perf_counter()
    total = shared_shapes()
    print(f"ok shared shapes at l = 3: {total} checks")
    n = fresh_words()
    total += n
    print(f"ok reassembly from fresh words over F7 and Q: {n} checks")
    for field in (Field(7), QQ):
        n = wall_ranks(field)
        total += n
        print(f"ok Wall form at ranks n, n - 1 and <= n - 2 over {field}: {n} checks")
    for fam in Family:
        for field in FIELDS:
            if fam is Family.GO_MINUS and not field.is_prime:
                continue
            n = smoke(fam, field)
            total += n
            print(f"ok {fam.value:8s} {field}: {n} checks")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"smoke passed: {total} checks on Python {version} in {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
