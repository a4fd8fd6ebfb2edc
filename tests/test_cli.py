import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from steinberg.cli import (
    format_matrix_file,
    main,
    parse_matrix_file,
)
from steinberg.field import QQ, Field
from steinberg.forms import Family, build_descriptor
from steinberg.generators import Word, evaluate_word, legal_x_index_pairs, x
from steinberg.harness import random_member
from steinberg.matrix import Matrix

from gauss_oracle import diagonal

F5 = Field(5)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


IDENTITY_SP = """group=GSp l=1 field=5 similitude=0
1 0
0 1
"""


def test_decompose_identity(tmp_path, capsys):
    path = write(tmp_path, "m.txt", IDENTITY_SP)
    code, out, _ = run(capsys, "decompose", path)
    assert code == 0
    assert "L= \n" in out or "L=\n" in out
    assert "D= torus(1;1)" in out
    assert "ops=0" in out


def test_decompose_rejects_non_member(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "group=GSp l=1 field=5 similitude=0\n1 1\n0 1\n")
    # [[1,1],[0,1]] IS symplectic; perturb to break it
    path = write(tmp_path, "m2.txt", "group=GSp l=1 field=5 similitude=0\n1 1\n1 1\n")
    code, _, err = run(capsys, "decompose", path)
    assert code == 2
    assert "not in group" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "group=GSp l=1 field=5 similitude=0\n1 0\n")
    code, _, err = run(capsys, "decompose", path)
    assert code == 1
    assert "error" in err


def test_unusable_headers_and_scalars_are_parse_errors(tmp_path, capsys):
    # twisted family over Q: no such form
    path = write(tmp_path, "m.txt", "group=GOminus l=1 field=Q similitude=0\n1 0\n0 1\n")
    code, _, err = run(capsys, "decompose", path)
    assert code == 1 and "error" in err
    # denominator vanishing mod p
    path = write(tmp_path, "m2.txt", "group=GSp l=1 field=5 similitude=0\n1/5 0\n0 1\n")
    code, _, err = run(capsys, "decompose", path)
    assert code == 1 and "error" in err
    # malformed token inside a word file
    wpath = write(
        tmp_path, "w.txt",
        "group=GSp l=1 field=5 similitude=0\nL= x[9,9](1)\nD= torus(1;1)\nR= \n",
    )
    mpath = write(tmp_path, "m3.txt", IDENTITY_SP)
    code, _, err = run(capsys, "verify", wpath, mpath)
    assert code == 1 and "error" in err


def test_round_trip_verify(tmp_path, capsys):
    d = build_descriptor(Family.GO_MINUS, 2, F5, similitude=True)
    g = random_member(d, 5, word_len=7, with_torus=True)
    mpath = write(tmp_path, "m.txt", format_matrix_file(g, d))
    code, out, _ = run(capsys, "decompose", mpath)
    assert code == 0
    wpath = write(tmp_path, "w.txt", out)
    code, out2, _ = run(capsys, "verify", wpath, mpath)
    assert code == 0 and out2.strip() == "OK"


def test_verify_detects_tampering(tmp_path, capsys):
    d = build_descriptor(Family.GSP, 2, F5)
    g = random_member(d, 9, word_len=6)
    mpath = write(tmp_path, "m.txt", format_matrix_file(g, d))
    code, out, _ = run(capsys, "decompose", mpath)
    word_text = out
    # tamper with the first parameter we find
    lines = word_text.splitlines()
    for k, ln in enumerate(lines):
        if ln.startswith("L= ") and "(" in ln:
            head, _, rest = ln.partition("(")
            val, _, tail = rest.partition(")")
            newval = str((int(val) + 1) % 5) if "/" not in val else "7"
            lines[k] = head + "(" + newval + ")" + tail
            break
    wpath = write(tmp_path, "w.txt", "\n".join(lines) + "\n")
    code, out2, _ = run(capsys, "verify", wpath, mpath)
    assert code == 2 and out2.strip() == "MISMATCH"


@pytest.mark.parametrize("header, rows, witness", [
    ("group=GSp l=1 field=5 similitude=0", "1 1\n0 1\n", "(1, -1): product 0, file 1"),
    ("group=GL l=1 field=Q similitude=0", "1 0\n1/2 1\n", "(2, 1): product 0, file 1/2"),
])
def test_verify_mismatch_names_the_first_differing_entry(tmp_path, capsys, header, rows, witness):
    # the empty words multiply out to the identity
    wpath = write(tmp_path, "w.txt", f"{header}\nL= \nD= torus(1;1)\nR= \n")
    mpath = write(tmp_path, "m.txt", f"{header}\n{rows}")
    code, out, err = run(capsys, "verify", wpath, mpath)
    assert code == 2 and out == "MISMATCH\n"
    assert err == f"first difference at {witness}\n"


def test_verify_empty_word_vs_identity(tmp_path, capsys):
    wpath = write(
        tmp_path, "w.txt",
        "group=GSp l=1 field=5 similitude=0\nL= \nD= torus(1;1)\nR= \n",
    )
    mpath = write(tmp_path, "m.txt", IDENTITY_SP)
    code, out, _ = run(capsys, "verify", wpath, mpath)
    assert code == 0 and out.strip() == "OK"


def test_verify_refuses_a_similitude_torus_under_an_isometry_header(tmp_path, capsys):
    # diag(1, 3) has multiplier 3, so it is not in Sp(2, 7); the word file
    # that multiplies out to it holds a torus no isometry group contains
    header = "group=GSp l=1 field=7 similitude=0"
    wpath = write(tmp_path, "w.txt", f"{header}\nL=\nD=torus(1;3)\nR=\n")
    mpath = write(tmp_path, "m.txt", f"{header}\n1 0\n0 3\n")
    code, out, err = run(capsys, "verify", wpath, mpath)
    assert code != 0 and out == ""
    assert "torus with mu = 3 != 1 in an isometry group" in err
    assert run(capsys, "decompose", mpath)[0] == 2


def test_spinor_command(tmp_path, capsys):
    # torus with nonsquare lambda: theta=nonsquare
    d = build_descriptor(Family.GO_EVEN, 2, F5)
    g = diagonal(F5, [1, 2, 1, 3])  # lambda = 2, a nonsquare mod 5
    mpath = write(tmp_path, "m.txt", format_matrix_file(g, d))
    code, out, _ = run(capsys, "spinor", mpath)
    assert code == 0
    assert "theta=nonsquare" in out
    assert "lambda=2" in out


def test_coset_command_in_parabolic(tmp_path, capsys):
    d = build_descriptor(Family.GSP, 2, F5)
    from steinberg.generators import token_matrix, x

    g = token_matrix(x(1, 2, 3), d)
    mpath = write(tmp_path, "m.txt", format_matrix_file(g, d))
    code, out, _ = run(capsys, "coset", mpath)
    assert code == 0 and "omega=0" in out


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "--group", "GSp", "--l", "1", "--field", "3")
    assert code == 0
    assert out.splitlines() == ["omega=0 count=6", "omega=1 count=18"]


def test_random_deterministic(capsys):
    args = ["random", "--group", "GOodd", "--l", "2", "--field", "7", "--seed", "11", "--len", "6"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    g, d = parse_matrix_file(out1)
    from steinberg.forms import is_member

    assert is_member(g, d)


def test_gl_decompose_via_cli(tmp_path, capsys):
    mpath = write(tmp_path, "m.txt", "group=GL l=1 field=7 similitude=0\n0 1\n1 0\n")
    code, out, _ = run(capsys, "decompose", mpath)
    assert code == 0
    assert "D= torus(6;1)" in out
    wpath = write(tmp_path, "w.txt", out)
    code, out2, _ = run(capsys, "verify", wpath, mpath)
    assert code == 0 and out2.strip() == "OK"


def test_rational_round_trip(tmp_path, capsys):
    text = "group=GSp l=1 field=Q similitude=1\n1/2 0\n0 3\n"
    mpath = write(tmp_path, "m.txt", text)
    code, out, _ = run(capsys, "decompose", mpath)
    assert code == 0
    assert "mu=3/2" in out
    wpath = write(tmp_path, "w.txt", out)
    code, out2, _ = run(capsys, "verify", wpath, mpath)
    assert code == 0 and out2.strip() == "OK"


def test_tall_rationals_round_trip(tmp_path, capsys):
    """A GSp l = 2 matrix over Q from three x-tokens with 1,500-digit
    parameters: its entries and the parameters ``decompose`` emits pass
    4,300 digits, Python's default limit on int <-> str conversions.  A
    command lifts the limit while it runs and restores it on return."""
    d = build_descriptor(Family.GSP, 2, QQ, similitude=True)
    rng = random.Random(1)
    pairs = legal_x_index_pairs(d)

    def big():
        return rng.randrange(10**1499, 10**1500) * rng.choice((1, -1))

    g = evaluate_word(Word(d, [x(*rng.choice(pairs), Fraction(big(), big())) for _ in range(3)]))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = format_matrix_file(g, d)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    mpath = write(tmp_path, "m.txt", text)
    code, words, err = run(capsys, "decompose", mpath)
    assert code == 0, err
    wpath = write(tmp_path, "w.txt", words)
    assert run(capsys, "verify", wpath, mpath) == (0, "OK\n", "")
    for body in (text, words):
        assert max(map(len, re.findall(r"\d+", body.split("\n", 1)[1]))) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


SUMMARY_SP = "group=GSp l=1 field=5 similitude=1\nL= \nD= torus(1;2)\nR= \n"


# (body, the reason it names, the whole message with its location, or None)
BODY_CASES = [
    ("lambda=1\nmu=2\nops=0\n", None, None),
    ("ops=0\nmu=2\n", None, None),
    ("lambda=2\n", "lambda=2, but the word gives 1", "{w}:5: lambda=2, but the word gives 1 on line 3"),
    ("mu=3\n", "mu=3, but the word gives 2", "{w}:5: mu=3, but the word gives 2 on line 3"),
    ("alpha=1\n", "alpha=1, but the word gives no alpha", "{w}:5: alpha=1, but the word gives no alpha on line 3"),
    ("ops=1\n", "ops=1, but the word gives 0", "{w}:5: ops=1, but the word gives 0"),
    ("ops=+0\n", "ops=+0, but the word gives 0", "{w}:5: ops=+0, but the word gives 0"),
    ("mu=1/0\n", "bad scalar in mu= line: division by zero", "{w}:5: bad scalar in mu= line: division by zero"),
    ("L= \n", "duplicate word file key 'L'", "{w}:5: duplicate word file key 'L', first on line 2"),
    ("ops=0\nops=0\n", "duplicate word file key 'ops'", "{w}:6: duplicate word file key 'ops', first on line 5"),
    ("Z= x[1,-1](1)\n", "unknown word file key 'Z'", "{w}:5: unknown word file key 'Z'"),
    ("stray\n", "unknown word file key 'stray'", "{w}:5: unknown word file key 'stray'"),
    ("L = \n", "unknown word file key 'L '", "{w}:5: unknown word file key 'L '"),
]


@pytest.mark.parametrize("body, msg", [pytest.param(b, m, id=f"{b}-{r}") for b, r, m in BODY_CASES])
def test_word_file_body_is_strict(tmp_path, capsys, body, msg):
    """After the header, L=, D= and R= appear once each, and only lambda=,
    mu=, alpha= and ops= may join them, each once and equal to what the word
    gives; anything else is a parse error naming the key and its line."""
    mpath = write(tmp_path, "m.txt", "group=GSp l=1 field=5 similitude=1\n1 0\n0 2\n")
    wpath = write(tmp_path, "w.txt", SUMMARY_SP + body)
    want = (0, "OK\n", "") if msg is None else (1, "", f"error: {msg.format(w=wpath)}\n")
    assert run(capsys, "verify", wpath, mpath) == want


@pytest.mark.parametrize("words, msg", [
    ("L= \nD= torus(1;2)\n", "{w}: word file lacks lines: ['R']"),
    ("L= \nD= torus(1;2) torus(1;1)\nR= \nmu=2\n", "{w}:5: mu= needs a D= line of one torus token, not line 3"),
    ("L= \nD= \nR= \nlambda=1\n", "{w}:5: lambda= needs a D= line of one torus token, not line 3"),
])
def test_word_file_lines_are_required_and_summaries_need_one_torus(tmp_path, capsys, words, msg):
    mpath = write(tmp_path, "m.txt", "group=GSp l=1 field=5 similitude=1\n1 0\n0 2\n")
    wpath = write(tmp_path, "w.txt", f"group=GSp l=1 field=5 similitude=1\n{words}")
    assert run(capsys, "verify", wpath, mpath) == (1, "", f"error: {msg.format(w=wpath)}\n")


def test_spinor_command_decomposes_once(tmp_path, capsys, monkeypatch):
    import steinberg.eliminate as eliminate
    import steinberg.spinor as spinor

    calls = []
    decompose = eliminate.decompose

    def counting(*args, **kwargs):
        calls.append(1)
        return decompose(*args, **kwargs)

    # the spinor route's own name, and the module's, which a command's local import reads
    monkeypatch.setattr(spinor, "decompose", counting)
    monkeypatch.setattr(eliminate, "decompose", counting)
    d = build_descriptor(Family.GO_ODD, 2, F5)
    mpath = write(tmp_path, "m.txt", format_matrix_file(random_member(d, 3, word_len=8, with_torus=True), d))
    code, out, _ = run(capsys, "spinor", mpath)
    assert code == 0 and out.startswith("theta=") and "lambda=" in out
    assert len(calls) == 1


@pytest.mark.parametrize("argv, msg", [
    (["spinor", None], "spinor norm undefined for GSp"),
    (["census", "--group", "GSp", "--l", "1", "--field", "Q"], "enumeration needs a finite field"),
    (["census", "--group", "GSp", "--l", "2", "--field", "7", "--cap", "10"], "closure exceeded cap 10"),
])
def test_spinor_and_enumeration_errors_exit_2(tmp_path, capsys, argv, msg):
    # NotOrthogonalFamily and EnumerationTooLarge, which main catches from forms; None stands for a GSp file
    d = build_descriptor(Family.GSP, 1, F5, similitude=True)
    mpath = write(tmp_path, "m.txt", format_matrix_file(random_member(d, 1, word_len=4, with_torus=True), d))
    code, out, err = run(capsys, *(mpath if a is None else a for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: {msg}\n"


def test_relocated_exceptions_are_reexported():
    import steinberg.forms as forms
    import steinberg.harness as harness
    import steinberg.spinor as spinor

    assert spinor.NotOrthogonalFamily is forms.NotOrthogonalFamily
    assert harness.EnumerationTooLarge is forms.EnumerationTooLarge


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    import steinberg.coset as coset

    d = build_descriptor(Family.GSP, 2, F5)
    g = next(g for g in (random_member(d, s, word_len=8) for s in range(50)) if coset.coset_label(g, d).m > 0)
    mpath = write(tmp_path, "m.txt", format_matrix_file(g, d))
    monkeypatch.setattr(coset, "omega_matrix", lambda dd, m: Matrix.identity(dd.field, dd.n))
    code, out, err = run(capsys, "coset", mpath)
    assert code == 3 and out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_large_prime_similitude_round_trip_without_numpy_under_O(tmp_path):
    """GSp l=5 over F_1000000007: decompose exits 0 and verify prints OK,
    with asserts stripped and numpy unimportable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys; sys.modules['numpy'] = None; from steinberg.cli import main; sys.exit(main(sys.argv[1:]))"

    def steinberg(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )

    r = steinberg("random", "--group", "GSp", "--l", "5", "--field", "1000000007", "--similitude", "--torus")
    assert r.returncode == 0, r.stderr
    mpath = write(tmp_path, "m.txt", r.stdout)
    r = steinberg("decompose", mpath)
    assert r.returncode == 0, r.stderr
    wpath = write(tmp_path, "w.txt", r.stdout)
    r = steinberg("verify", wpath, mpath)
    assert r.returncode == 0 and r.stdout == "OK\n", (r.stdout, r.stderr)


# submodules each command must not import: a cold start loads only what the command runs
NOT_LOADED = {
    "verify": {"eliminate", "rowops", "spinor", "coset", "harness"},
    "decompose": {"spinor", "coset", "harness"},
    "spinor": {"coset", "harness"},
    "coset": {"eliminate", "spinor", "harness"},
    "random": {"eliminate", "rowops", "spinor", "coset"},
    "census": {"eliminate", "spinor"},
}


# standard modules no command loads: dataclasses pulls in inspect, ast, dis
# and tokenize, and typing costs a cold start a few ms where no site .pth
# file has loaded it already (hence -S below)
NEVER_LOADED = {"dataclasses", "inspect", "typing"}


def _loaded_modules(script, *argv):
    """The modules a fresh ``python -S`` process holds after ``script``,
    which prints them as the last line of its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script += "; print(' '.join(sys.modules))"
    r = subprocess.run([sys.executable, "-S", "-c", script, *argv], capture_output=True, text=True, env=env,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    return set(r.stdout.splitlines()[-1].split())


def _submodules(loaded):
    return {m.removeprefix("steinberg.") for m in loaded if m.startswith("steinberg.")}


def test_each_command_imports_only_what_it_runs(tmp_path, capsys):
    sim = build_descriptor(Family.GSP, 1, F5, similitude=True)
    iso = build_descriptor(Family.GO_EVEN, 2, F5)
    spath = write(tmp_path, "s.txt", format_matrix_file(random_member(sim, 1, word_len=6, with_torus=True), sim))
    ipath = write(tmp_path, "i.txt", format_matrix_file(random_member(iso, 2, word_len=6), iso))
    code, words, _ = run(capsys, "decompose", spath)
    assert code == 0
    wpath = write(tmp_path, "w.txt", words)
    commands = {
        "verify": ["verify", wpath, spath],
        "decompose": ["decompose", spath],
        "spinor": ["spinor", ipath],
        "coset": ["coset", ipath],
        "random": ["random", "--group", "GOodd", "--l", "1", "--field", "5", "--seed", "3"],
        "census": ["census", "--group", "GSp", "--l", "1", "--field", "3"],
    }
    assert set(commands) == set(NOT_LOADED)
    script = "import sys; from steinberg import cli; assert cli.main(sys.argv[1:]) == 0"
    for name, argv in commands.items():
        loaded = _loaded_modules(script, *argv)
        ours = _submodules(loaded)
        assert "forms" in ours and not ours & NOT_LOADED[name], (name, sorted(ours))
        assert not loaded & NEVER_LOADED, (name, sorted(loaded & NEVER_LOADED))
    assert _submodules(_loaded_modules("import sys, steinberg")) == set()


def test_singular_gl_file_is_a_domain_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "group=GL l=1 field=7 similitude=0\n1 2\n2 4\n")
    code, out, err = run(capsys, "decompose", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_word_file_denominator_vanishing_mod_p_is_a_parse_error(tmp_path, capsys):
    mpath = write(tmp_path, "m.txt", "group=GL l=1 field=7 similitude=0\n1 0\n0 1\n")
    wpath = write(tmp_path, "w.txt", "group=GL l=1 field=7 similitude=0\nL= \nD= torus(1/7;1)\nR= \n")
    code, out, err = run(capsys, "verify", wpath, mpath)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {wpath}:3:1: bad token in D= line") and "Traceback" not in err


def test_not_in_group_keeps_the_library_message(tmp_path, capsys):
    # diag(3, 1) satisfies the GOplus form equation with multiplier 3
    path = write(tmp_path, "m.txt", "group=GOplus l=1 field=7 similitude=0\n3 0\n0 1\n")
    code, _, err = run(capsys, "decompose", path)
    assert code == 2
    assert err == "not in group: multiplier 3 != 1 in an isometry group\n"
    # e_{-1} -> e_{-1} + e_1 breaks the equation at the signed entry (-1, -1)
    path = write(tmp_path, "m2.txt", "group=GOplus l=1 field=7 similitude=1\n1 1\n0 1\n")
    code, _, err = run(capsys, "decompose", path)
    assert code == 2
    assert err.startswith("not in group: g^T beta g = mu beta fails at (-1, -1)"), err


def test_uncertified_squarefree_part_is_a_domain_error(tmp_path, capsys):
    # lambda = 2^89 - 1 is a probable prime beyond what Miller-Rabin certifies
    lam = 2**89 - 1
    path = write(tmp_path, "m.txt", f"group=GOplus l=1 field=Q similitude=0\n{lam} 0\n0 1/{lam}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "spinor", path)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot certify the squarefree part of {lam}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    # its square is certified as a square without factoring
    sq = lam**2
    path = write(tmp_path, "m2.txt", f"group=GOplus l=1 field=Q similitude=0\n{sq} 0\n0 1/{sq}\n")
    code, out, err = run(capsys, "spinor", path)
    assert (code, err) == (0, "")
    assert out == f"theta=1\nlambda={sq}\n"


def test_a_class_rho_cannot_split_is_a_domain_error(tmp_path, capsys):
    # lambda is the product of two primes near 2^50, past rho's step budget
    lam = 842652396128173 * 945894880035277
    path = write(tmp_path, "m.txt", f"group=GOplus l=1 field=Q similitude=0\n{lam} 0\n0 1/{lam}\n")
    code, out, err = run(capsys, "spinor", path)
    assert code == 2 and out == ""
    assert err == (f"error: cannot certify the squarefree part of {lam}: its composite cofactor {lam} has no"
                   f" factor that Pollard rho finds in {2**20} steps\n")


def test_uncertified_odd_power_is_a_domain_error(tmp_path):
    # (2^89 - 1)^3 is no square; splitting it by rho alone would not finish,
    # so the command runs in a process with a time limit
    lam = (2**89 - 1) ** 3
    path = write(tmp_path, "m.txt", f"group=GOplus l=1 field=Q similitude=0\n{lam} 0\n0 1/{lam}\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-m", "steinberg.cli", "spinor", path],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith(f"error: cannot certify the squarefree part of {lam}: "), r.stderr
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr


@pytest.mark.parametrize("text, msg", [
    # blank and comment lines count in the line number
    ("# a comment\ngroup=GSp l=1 field=7 similitude=0\n\n1 0\n0 x\n", "5:2: bad scalar 'x'"),
    ("group=GSp l=1 field=7 similitude=0\n1 0\n1/7 1\n", "3:1: bad scalar '1/7': division by zero"),
    ("group=GSp l=1 field=7 similitude=0\n1 0 0\n0 1\n", "2:3: expected 2 entries per row, got 3"),
    ("group=GSp l=1 field=7 similitude=0\n1\n0 1\n", "2: expected 2 entries per row, got 1"),
    ("group=GSp l=1 field=7 similitude=0\n1 0\n0 1\n0 0\n", "4: expected 2 matrix rows, found 3"),
    ("\ngroup=GSp l=1 field=7 similitude=2\n1 0\n0 1\n", "2: header key 'similitude' must be 0 or 1, not '2'"),
    ("# nothing\n", "empty matrix file"),
])
def test_matrix_parse_errors_name_their_line_and_entry(tmp_path, capsys, text, msg):
    path = write(tmp_path, "m.txt", text)
    for command in ("decompose", "spinor", "coset"):
        assert run(capsys, command, path) == (1, "", f"error: {path}:{msg}\n" if msg[0].isdigit()
                                              else f"error: {path}: {msg}\n")


def test_word_parse_errors_name_their_line_and_token(tmp_path, capsys):
    mpath = write(tmp_path, "m.txt", IDENTITY_SP)
    wpath = write(tmp_path, "w.txt", "group=GSp l=1 field=5 similitude=0\n# L first\nL= x[1,-1](1) x[1,-1](1/0)\n"
                                     "D= torus(1;1)\nR= \n")
    code, out, err = run(capsys, "verify", wpath, mpath)
    assert (code, out) == (1, "") and err == f"error: {wpath}:3:2: bad token in L= line: division by zero\n"
    wpath = write(tmp_path, "w.txt", "group=GSp l=1 field=5 similitude=0\nL= \nD= torus(1;1)\nR= w[1]\n")
    code, out, err = run(capsys, "verify", wpath, mpath)
    assert (code, out) == (1, "") and err.startswith(f"error: {wpath}:4:1: bad token in R= line: w tokens")


def test_matrix_rows_are_counted_before_the_descriptor_is_built(tmp_path, capsys):
    # building the 2001 x 2001 Gram matrix first takes seconds; at l = 30000 it runs out of memory
    path = write(tmp_path, "m.txt", "group=GOodd l=1000 field=5 similitude=0\n1 0 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", path)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: {path}:2: expected 2001 matrix rows, found 1\n"


def test_verify_compares_headers_before_building_descriptors(tmp_path, capsys):
    big = "group=GOodd l=1000 field=5 similitude=0"
    wpath = write(tmp_path, "w.txt", f"{big}\nL= \nD= torus(1;1)\nR= \n")
    short = write(tmp_path, "m.txt", f"{big}\n1 0 0\n")
    small = write(tmp_path, "m2.txt", IDENTITY_SP)
    cases = ((short, f"{short}:2: expected 2001 matrix rows, found 1"),
             (small, f"{wpath}:1: descriptor disagrees with {small}:1"))
    for mpath, msg in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", wpath, mpath)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err == f"error: {msg}\n"


@pytest.mark.parametrize("argv, msg", [
    (["random", "--group", "GSp", "--field", "7"], "the following arguments are required: --l"),
    (["random", "--group", "GSp", "--field", "7", "--l", "x"], "argument --l: expected an integer >= 0, got 'x'"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    (["random", "--group", "GSp", "--l", "1", "--field", "7", "--len", "-1"],
     "argument --len: expected an integer >= 0, got '-1'"),
    (["census", "--group", "GSp", "--l", "1", "--field", "3", "--cap", "-5"],
     "argument --cap: expected an integer >= 0, got '-5'"),
])
def test_usage_errors_print_one_line_and_exit_1(capsys, argv, msg):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {msg}") and err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["1_0", "١", "٣", "１", "+2", "0x1", "1.0", "2 ", "", "-"])
@pytest.mark.parametrize("argv, flag", [
    (["random", "--group", "GSp", "--field", "7", "--l"], "--l"),
    (["census", "--group", "GSp", "--field", "3", "--l"], "--l"),
    (["random", "--group", "GSp", "--l", "1", "--field", "7", "--len"], "--len"),
    (["random", "--group", "GSp", "--l", "1", "--field", "7", "--seed"], "--seed"),
    (["census", "--group", "GSp", "--l", "1", "--field", "3", "--cap"], "--cap"),
])
def test_integer_flags_take_ascii_digits_only(capsys, argv, flag, text):
    """``--l``, ``--len`` and ``--cap`` take ASCII digits and ``--seed`` an
    optional ``-`` before them: Python's int-literal extras (underscores,
    other scripts' digits, a ``+``) are usage errors, exit 1, that name the
    flag, and nothing is written."""
    code, out, err = run(capsys, *argv[:-1], f"{argv[-1]}={text}")
    assert (code, out) == (1, "") and err.startswith(f"error: argument {flag}: expected an integer") and \
        err.count("\n") == 1, err


def test_integer_flags_read_their_ascii_values(capsys):
    """The values the flags do take are read as written: ``--l 2`` is l = 2,
    ``--len 0`` the identity, a negative ``--seed`` a seed of its own and
    leading zeros change nothing."""
    base = ["random", "--group", "GSp", "--field", "7"]
    code, out, _ = run(capsys, *base, "--l", "2", "--len", "0")
    assert code == 0 and out.startswith("group=GSp l=2 field=7 similitude=0\n")
    seeded = {s: run(capsys, *base, "--l", "1", "--seed", s)[1] for s in ("-3", "-3", "3", "03")}
    assert seeded["-3"] != seeded["3"] == seeded["03"]
    code, _, err = run(capsys, "census", "--group", "GSp", "--l", "1", "--field", "3", "--cap", "0010")
    assert code == 2 and err == "error: closure exceeded cap 10\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["random", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: steinberg random")
    code, out, _ = run(capsys, "random", "--group", "GSp", "--l", "1", "--field", "7", "--len", "0")
    assert code == 0 and out == "group=GSp l=1 field=7 similitude=0\n1 0\n0 1\n"


@pytest.mark.parametrize("header, what", [
    ("group=GSp l=1 field=5 simlitude=1", "unknown header key 'simlitude'"),
    ("group=GSp l=1 field=5 similitude=1 colour=red", "unknown header key 'colour'"),
    ("group=GSp l=1 field=5 similitude=0 similitude=1", "duplicate header key 'similitude'"),
    ("group=GSp l=1 l=1 field=5 similitude=1", "duplicate header key 'l'"),
    ("group=GSp l=1 field=5 similitude=2", "header key 'similitude' must be 0 or 1, not '2'"),
    ("group=GSp l=1 field=5 similitude=-1", "header key 'similitude' must be 0 or 1, not '-1'"),
    ("group=GSp l=١ field=5 similitude=1", "header key 'l' needs ASCII digits"),
    ("group=GSp l=1 field=+5 similitude=1", "header key 'field' needs ASCII digits"),
])
def test_headers_name_the_key_they_refuse(tmp_path, capsys, header, what):
    """A similitude with multiplier 2 under a header with an unknown, a
    repeated or a malformed key: every command, and ``verify`` on either
    file, refuses it with exit code 1 and names the key, instead of reading
    a typo as the isometry group (exit 2, "multiplier 2 != 1")."""
    good = "group=GSp l=1 field=5 similitude=1"
    bad_m, good_m = (write(tmp_path, f"{k}.txt", f"{h}\n1 0\n0 2\n") for k, h in (("bad_m", header), ("good_m", good)))
    words = "L= \nD= torus(1;2)\nR= \n"
    bad_w, good_w = (write(tmp_path, f"{k}.txt", f"{h}\n{words}") for k, h in (("bad_w", header), ("good_w", good)))
    assert run(capsys, "verify", good_w, good_m)[:2] == (0, "OK\n")
    for argv in (("decompose", bad_m), ("spinor", bad_m), ("coset", bad_m),
                 ("verify", bad_w, good_m), ("verify", good_w, bad_m)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and what in err, (argv, err)


ASCII_EXTRAS = ["1_0", "١", "１", "٣/4", "3/٤", "1/-2", "+-1", "0x1"]


@pytest.mark.parametrize("field", ["7", "Q"])
@pytest.mark.parametrize("scalar", ASCII_EXTRAS)
def test_matrix_scalars_are_ascii(tmp_path, capsys, field, scalar):
    """Scalars take one ASCII grammar, an optional sign, digits and
    optionally / and digits, not Python's int-literal extras: underscores,
    other scripts' digits or a sign after the slash are parse errors."""
    path = write(tmp_path, "m.txt", f"group=GSp l=1 field={field} similitude=1\n1 0\n0 {scalar}\n")
    for command in ("decompose", "spinor", "coset"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, "") and "bad scalar" in err, (command, err)
    path = write(tmp_path, "ok.txt", f"group=GSp l=1 field={field} similitude=1\n+1 0\n0 -3/2\n")
    assert run(capsys, "decompose", path)[0] == 0


@pytest.mark.parametrize("field", ["7", "Q"])
@pytest.mark.parametrize("token", [
    "x[١,2](3)", "x[1,٢](3)", "x[1,2](١)", "x[1,2](1_0)", "x[1,-٢](3)",
    "torus(1_0;1)", "torus(1;١)", "torus(2;2/٣)",
])
def test_word_tokens_are_ascii(tmp_path, capsys, field, token):
    """Token indices and scalars in word files are ASCII digits only."""
    header = f"group=GSp l=2 field={field} similitude=1"
    mpath = write(tmp_path, "m.txt", header + "\n" + "\n".join(
        " ".join(str(int(i == j)) for j in range(4)) for i in range(4)) + "\n")
    wpath = write(tmp_path, "w.txt", f"{header}\nL= {token}\nD= torus(1;1)\nR= \n")
    code, out, err = run(capsys, "verify", wpath, mpath)
    assert (code, out) == (1, "") and "bad token in L= line" in err, err
