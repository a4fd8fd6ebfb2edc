"""Fuzzing both file formats through ``cli.main``.

Every input is a seeded ``random_member`` file, or the word file of its
decomposition, with at most one mutation: a perturbed entry, a missing row,
a wrong header value, all-zero rows, or a bad token inserted into or
replacing one in an ``L=``/``D=``/``R=`` line.  Two more strategies draw
on purpose what the mutations reach only by chance: a member times a
diagonal with zero or degenerate entries (a torus with bad parameters), and
a word file whose ``D=`` line is a torus with zero or degenerate parameters.
Files whose header misspells, repeats or misstates a key, or that hold one
scalar or token index in Python's int-literal extras (underscores, other
scripts' digits), are refused by every command with exit code 1.  Garbage files with no valid header at all, bytes that are not UTF-8
included, are refused by every command with exit code 1.  The integer flags
of ``random`` and ``census`` take ASCII digits (``--seed`` an optional
``-`` before them) and refuse anything else with exit code 1.  Whatever the
input, a command exits 0, 1 or 2 with at most one line on stderr and no
traceback, and every matrix file that ``decompose`` accepts survives
``verify``.  A pair whose word file or matrix file has one line or one
entry replaced is either refused by ``verify`` with exit code 1 at
``<file>:<line>`` of that line (at any line of that file when the header
was replaced, since it gives the meaning of every line after it), or
judged by ``verify`` as the dense product of the hand-written token
updates (``rowops_oracle``) judges it: OK exactly when that product is the
matrix.
"""

import contextlib
import io
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rowops_oracle import oracle_apply
from steinberg.cli import build_parser, format_matrix_file, format_word_file, main, parse_matrix_file, parse_word_file
from steinberg.eliminate import decompose, decompose_gl
from steinberg.field import QQ, Field
from steinberg.forms import Family, UnsupportedField, build_descriptor
from steinberg.harness import random_member
from steinberg.matrix import Matrix
from steinberg.rowops import RIGHT

FIELDS = (Field(5), Field(7), Field(1000000007), QQ)


def _descriptors():
    out = []
    for family in Family:
        for field in FIELDS:
            for l in (1, 2):
                for similitude in (False, True):
                    try:
                        out.append(build_descriptor(family, l, field, similitude=similitude))
                    except UnsupportedField:  # the twisted form over Q
                        pass
    return out


DESCRIPTORS = _descriptors()

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])

scalars = st.one_of(
    st.integers(-30, 30).map(str),
    st.tuples(st.integers(-30, 30), st.integers(-12, 12)).map(lambda ab: f"{ab[0]}/{ab[1]}"),
    st.integers(-10**40, 10**40).map(str),
    st.sampled_from(["", "x", "1/", "/2", "--1", "0.5", "1e3", "1/0", "0/0", "+3", "٣", "1_0"]),
)

# int() reads each of these as an integer; the file grammar refuses them all
int_literal_extras = st.sampled_from(["1_0", "-1_0", "0_3", "١", "٣", "-٢", "１", "3/٤", "1/2_0", "1/-2", "1/+2"])

header_values = {
    "group": st.sampled_from([f.value for f in Family] + ["GSP", "Bogus", ""]),
    "l": st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["x", "", "1.0", "10000"])),
    "field": st.sampled_from(["2", "3", "5", "7", "9", "0", "1", "-7", "Q", "q", "1000000007", "1000000008", ""]),
    "similitude": st.sampled_from(["0", "1", "2", "-1", "x", ""]),
}

tokens = st.one_of(
    st.builds("x[{},{}]({})".format, st.integers(-4, 4), st.integers(-4, 4), scalars),
    st.builds("w[{}]".format, st.integers(-1, 5)),
    st.builds("x1({},{})".format, scalars, scalars),
    st.builds("torus({};{})".format, scalars, scalars),
    st.builds("torus({};{};{})".format, scalars, scalars, scalars),
    st.builds("torus({},{};{};{})".format, scalars, scalars, scalars, scalars),
    st.sampled_from(["x2", "torus()", "torus(1;1;1;1)", "w[]", "x[1,2]", "x1(1)"]),
    st.text(alphabet="xw12-/[](),;torus", min_size=1, max_size=10),
)


# zero, one and the values that break alpha^2 = mu or t^2 + eps s^2 = mu
degenerate = st.sampled_from(["0", "1", "-1", "2", "1/2", "0/3"])

degenerate_tori = st.one_of(
    st.builds("torus({};{})".format, degenerate, degenerate),
    st.builds("torus({};{};{})".format, degenerate, degenerate, degenerate),
    st.builds("torus({},{};{};{})".format, degenerate, degenerate, degenerate, degenerate),
)

garbage = st.one_of(
    st.binary(max_size=120),
    st.text(max_size=120).map(str.encode),
    st.lists(st.one_of(st.text(alphabet="=0123456789/ -Qlx", max_size=12), scalars), max_size=12)
    .map(" ".join).map(str.encode),
    st.lists(st.lists(scalars, max_size=4).map(" ".join), min_size=1, max_size=5)
    .map("\n".join).map(str.encode),
)


@st.composite
def members(draw):
    d = draw(st.sampled_from(DESCRIPTORS))
    g = random_member(d, draw(st.integers(0, 10**6)), draw(st.integers(0, 8)), with_torus=d.similitude)
    return d, g


@st.composite
def mutated_header(draw, header):
    """The header with one key's value replaced or the key dropped."""
    parts = header.split()
    k = draw(st.integers(0, len(parts) - 1))
    key = parts[k].split("=", 1)[0]
    if draw(st.booleans()):
        parts[k] = f"{key}={draw(header_values[key])}"
    else:
        del parts[k]
    return " ".join(parts)


@st.composite
def refused_header(draw, header):
    """The header with one key misspelt (a letter dropped), one key repeated
    or similitude set to something other than 0 and 1."""
    parts = header.split()
    k = draw(st.integers(0, len(parts) - 1))
    key, val = parts[k].split("=", 1)
    kind = draw(st.sampled_from(["typo", "repeat", "similitude"]))
    if kind == "typo":
        cut = draw(st.integers(0, len(key) - 1))
        parts[k] = f"{key[:cut]}{key[cut + 1:]}={val}"
    elif kind == "repeat":
        parts.insert(draw(st.integers(0, len(parts))), f"{key}={draw(st.one_of(st.just(val), header_values[key]))}")
    else:
        parts = [q for q in parts if not q.startswith("similitude=")]
        parts.append("similitude=" + draw(st.sampled_from(["2", "-1", "01", "+1", "1_0", "١", "true", ""])))
    return " ".join(parts)


@st.composite
def matrix_files(draw):
    d, g = draw(members())
    header, *rows = format_matrix_file(g, d).splitlines()
    rows = [row.split() for row in rows]
    kind = draw(st.sampled_from(["none", "entry", "missing row", "header", "zero rows"]))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "entry":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(scalars)
    elif kind == "missing row":
        del rows[i]
    elif kind == "header":
        header = draw(mutated_header(header))
    elif kind == "zero rows":
        for r in draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)):
            rows[r] = ["0"] * len(rows[r])
    return "\n".join([header] + [" ".join(row) for row in rows]) + "\n"


@st.composite
def torus_matrix_files(draw):
    """A member times a diagonal whose entries on a drawn set of positions
    are zero or degenerate values, the rest one."""
    d, g = draw(members())
    f = d.field
    diag = [f.one] * d.n
    for k in draw(st.sets(st.integers(0, d.n - 1), min_size=1)):
        diag[k] = f.of(draw(st.sampled_from([0, 1, -1, 2, Fraction(1, 2)])))
    return format_matrix_file(g @ Matrix.diagonal(f, diag), d)


@st.composite
def word_files(draw):
    """(word file, matrix file) of one member; the word file mutated once."""
    d, g = draw(members())
    dec = decompose_gl(g) if d.family is Family.GL else decompose(g, d)
    header, *lines = format_word_file(dec, dec.descriptor).splitlines()
    kind = draw(st.sampled_from(["header", "insert", "replace", "missing line"]))
    if kind == "header":
        header = draw(mutated_header(header))
    else:
        k = draw(st.integers(0, 2))  # the L=, D= and R= lines come first
        key, rest = lines[k].split("=", 1)
        words = rest.split()
        if kind == "missing line":
            del lines[k]
        elif kind == "replace" and words:
            words[draw(st.integers(0, len(words) - 1))] = draw(tokens)
            lines[k] = f"{key}= " + " ".join(words)
        else:
            words.insert(draw(st.integers(0, len(words))), draw(tokens))
            lines[k] = f"{key}= " + " ".join(words)
    return "\n".join([header] + lines) + "\n", format_matrix_file(g, d)


@st.composite
def refused_files(draw):
    """(word file, matrix file) of one member, one of them refused: a
    refused header, or one matrix entry, token scalar or token index digit
    in an int-literal extra."""
    d, g = draw(members())
    dec = decompose_gl(g) if d.family is Family.GL else decompose(g, d)
    words, matrix = format_word_file(dec, dec.descriptor).splitlines(), format_matrix_file(g, d).splitlines()
    target = draw(st.sampled_from([words, matrix]))
    kind = draw(st.sampled_from(["header", "scalar"] + ["index"] * (target is words)))
    if kind == "header":
        target[0] = draw(refused_header(target[0]))
    elif target is matrix:
        k = draw(st.integers(1, len(matrix) - 1))
        row = matrix[k].split()
        row[draw(st.integers(0, len(row) - 1))] = draw(int_literal_extras)
        matrix[k] = " ".join(row)
    else:
        i, j = (draw(st.integers(1, 9)) for _ in range(2))
        bad = draw(int_literal_extras)
        tok = f"x[{i},{j}]({bad})" if kind == "scalar" else f"x[{chr(0x660 + i)},{j}](1)"
        k = draw(st.integers(0, 2))  # the L=, D= and R= lines come first
        words[k] += f" {tok}"
    return "\n".join(words) + "\n", "\n".join(matrix) + "\n", target is matrix


# a replacement line: not blank and no comment, so the line stays where it was
replacement_lines = st.text(alphabet="=0123456789/ -Qlxw[](),;torusLDRgpmab", min_size=1, max_size=24).filter(
    lambda t: t.strip() and not t.strip().startswith("#"))


@st.composite
def corrupted_pairs(draw):
    """(word file, matrix file, which file was corrupted, its 1-based line)
    of one member and its decomposition, with one line of either file, or
    one entry of a matrix row or one token of an L=/D=/R= line, replaced."""
    d, g = draw(members())
    dec = decompose_gl(g) if d.family is Family.GL else decompose(g, d)
    files = {"word": format_word_file(dec, dec.descriptor).splitlines(), "matrix": format_matrix_file(g, d).splitlines()}
    which = draw(st.sampled_from(sorted(files)))
    lines = files[which]
    # an entry of a row (matrix lines 2 on) or a token of a word line (the L=, D= and R= lines 2-4)
    k = draw(st.integers(1, len(lines) - 1 if which == "matrix" else 3))
    parts = lines[k].split()
    key, entries = ([], parts) if which == "matrix" else (parts[:1], parts[1:])
    if entries and draw(st.integers(0, 2)):
        # a word's own tokens are legal, so a swap mostly leaves a pair that verify must multiply out
        own = [t for ln in files["word"][1:4] for t in ln.split()[1:]]
        entries[draw(st.integers(0, len(entries) - 1))] = draw(
            scalars if which == "matrix" else st.one_of(tokens, st.sampled_from(own)))
        lines[k] = " ".join(key + entries)
    else:
        k = 0 if draw(st.integers(0, 7)) == 0 else draw(st.integers(1, len(lines) - 1))  # the header one time in 8
        lines[k] = draw(st.one_of(replacement_lines, st.sampled_from(files["word"] + files["matrix"])))
    return "\n".join(files["word"]) + "\n", "\n".join(files["matrix"]) + "\n", which, k + 1


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_err(*argv):
    """(exit code, stdout, stderr) of one in-process command, checking its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    return code, out.getvalue(), err


def run(*argv):
    """(exit code, stdout) of one in-process command, checking its stderr."""
    return run_err(*argv)[:2]


def check_matrix_file(workdir, text):
    mpath = workdir / "m.txt"
    mpath.write_text(text)
    for command in ("spinor", "coset"):
        run(command, str(mpath))
    code, words = run("decompose", str(mpath))
    if code == 0:
        wpath = workdir / "w.txt"
        wpath.write_text(words)
        assert run("verify", str(wpath), str(mpath)) == (0, "OK\n"), text


def check_word_file(workdir, word_text, matrix_text):
    wpath, mpath = workdir / "w.txt", workdir / "m.txt"
    wpath.write_text(word_text)
    mpath.write_text(matrix_text)
    code, out = run("verify", str(wpath), str(mpath))
    assert out in ("", "OK\n", "MISMATCH\n")
    assert (code == 0) == (out == "OK\n")


@FUZZ
@given(text=matrix_files())
def test_matrix_files(workdir, text):
    check_matrix_file(workdir, text)


@FUZZ
@given(files=word_files())
def test_word_files(workdir, files):
    check_word_file(workdir, *files)


@FUZZ
@given(text=torus_matrix_files())
def test_matrix_files_with_degenerate_tori(workdir, text):
    check_matrix_file(workdir, text)


@FUZZ
@given(files=word_files(), torus_text=degenerate_tori)
def test_word_files_with_degenerate_tori(workdir, files, torus_text):
    word_text, matrix_text = files
    lines = [f"D= {torus_text}" if ln.startswith("D=") else ln for ln in word_text.splitlines()]
    check_word_file(workdir, "\n".join(lines) + "\n", matrix_text)


@FUZZ
@given(files=corrupted_pairs())
def test_a_corrupted_line_is_named_or_the_pair_is_judged_as_the_oracle_does(workdir, files):
    word_text, matrix_text, which, line = files
    paths = {"word": workdir / "w.txt", "matrix": workdir / "m.txt"}
    paths["word"].write_text(word_text)
    paths["matrix"].write_text(matrix_text)
    code, out, err = run_err("verify", str(paths["word"]), str(paths["matrix"]))
    if code == 1:
        # the location, or a word file message naming the other line of a pair ("first on line k")
        at = re.escape(str(paths[which])) + (":" if line == 1 else rf":{line}\b")
        named = re.search(at, err) or (which == "word" and line > 1 and re.search(rf"\bline {line}\b", err))
        assert out == "" and named, (files, err)
        return
    left, mid, right, d = parse_word_file(word_text)
    g, _ = parse_matrix_file(matrix_text)
    prod = Matrix.identity(d.field, d.n)
    for tok in left.tokens + mid.tokens + right.tokens:
        prod = oracle_apply(prod, tok, RIGHT, d)
    assert (code, out) == ((0, "OK\n") if prod == g else (2, "MISMATCH\n")), (files, err)


@FUZZ
@given(data=garbage)
def test_garbage_files(workdir, data):
    gpath, mpath = workdir / "g.txt", workdir / "m.txt"
    gpath.write_bytes(data)
    mpath.write_text("group=GSp l=1 field=5 similitude=0\n1 0\n0 1\n")
    for argv in (("decompose", gpath), ("spinor", gpath), ("coset", gpath),
                 ("verify", gpath, mpath), ("verify", mpath, gpath), ("verify", gpath, gpath)):
        assert run(*map(str, argv)) == (1, ""), (argv, data)


@FUZZ
@given(files=refused_files())
def test_refused_files_exit_1(workdir, files):
    word_text, matrix_text, matrix_refused = files
    wpath, mpath = workdir / "w.txt", workdir / "m.txt"
    wpath.write_text(word_text)
    mpath.write_text(matrix_text)
    assert run("verify", str(wpath), str(mpath)) == (1, ""), files
    if matrix_refused:
        for command in ("decompose", "spinor", "coset"):
            assert run(command, str(mpath)) == (1, ""), (command, matrix_text)


# the integer flags of random and census: the command line that each one
# completes, its name and whether it takes a leading "-"
FLAGS = [
    (["random", "--group", "GSp", "--field", "7"], "l", False),
    (["census", "--group", "GSp", "--field", "3"], "l", False),
    (["random", "--group", "GSp", "--l", "1", "--field", "7"], "len", False),
    (["random", "--group", "GSp", "--l", "1", "--field", "7"], "seed", True),
    (["census", "--group", "GSp", "--l", "1", "--field", "3"], "cap", False),
]

flag_values = st.one_of(
    st.text(alphabet="0123456789-+_ .xe\u0661\u0663\uff11\u00b2\u2070", max_size=6),
    st.integers(-10**6, 10**6).map(str),
)


@FUZZ
@given(flag=st.sampled_from(FLAGS), text=flag_values)
def test_integer_flags_exit_1_on_anything_but_ascii_digits(flag, text):
    command, name, signed = flag
    argv = command + [f"--{name}={text}"]
    digits = text[1:] if signed and text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        assert getattr(build_parser().parse_args(argv), name) == int(text), argv
    else:
        assert run(*argv) == (1, ""), argv
