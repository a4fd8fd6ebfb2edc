"""Command-line front end.

Matrix files are plain text: a header line

    group=GSp l=2 field=5 similitude=0

(each key at most once, ``similitude`` 0 or 1) followed by n rows of n
whitespace-separated scalars: integers mod p, or fractions like 3/4 over Q,
in ASCII digits with an optional sign.  ``decompose`` emits a word file
with the same header plus ``L=``, ``D=``, ``R=`` lines in the token
grammar (ASCII digits only) and the ``lambda=``, ``mu=``, ``alpha=`` and
``ops=`` lines that summarise them.  ``verify`` re-reads it, refusing a
repeated or unknown key and a summary the word does not give, and
multiplies it out, naming the first differing entry on stderr when they
disagree.  A parse error in either file is printed as
``error: <file>:<line>[:<entry>]: <reason>``: the 1-based line of the file,
blank and comment lines counted, and for a matrix row or a line of tokens
the 1-based entry on it.  Scalars may have any number of digits: a command lifts
Python's limit on int <-> str conversions while it runs.  The
integer flags take ASCII digits too (``--seed`` also a leading ``-``).  Exit
codes: 0 success, 1 usage or parse error, 2 domain error (not in group,
mismatch, unsupported family, singular GL matrix, a rational square class
whose squarefree part cannot be certified), 3 internal error (a failed
self-check: a bug in the library, not bad input).

A cold start imports only what its command runs: the module top holds the
parsing and formatting code (``field``, ``forms``, ``generators``,
``matrix``) and every domain error ``main`` maps to an exit code, and each
``cmd_*`` imports its own algorithm (``eliminate``, ``spinor``, ``coset``,
``harness``) in its body.  So ``verify`` never loads the elimination, and
``decompose`` never loads ``spinor``, ``coset`` or ``harness``; and no
command loads ``dataclasses`` or ``typing``.  ``tests/test_cli.py`` checks
each command's footprint.  What a cold process still pays is the
interpreter with ``site`` (about 55 ms more than ``python -S`` where a
``.pth`` file makes ``site`` import ``certifi``), ``argparse``,
``fractions`` with ``decimal``, and, when ``PYTHONDONTWRITEBYTECODE`` is
set, compiling the package source (about 20 ms).
"""

from __future__ import annotations

import argparse
import sys

from .field import CannotFactor, Field, QQ
from .forms import (EnumerationTooLarge, Family, GroupDescriptor, InternalError, NotInGroup, NotOrthogonalFamily,
                    UnsupportedFamily, build_descriptor, dimension, first_difference)
from .generators import IllegalToken, Word, _parse_token, evaluate_word
from .matrix import Matrix, SingularMatrix


class ParseError(ValueError):
    """A usage or file error (exit code 1).  ``line`` and ``entry`` locate it
    in a file, 1-based, where one line or one entry of a matrix row or a
    word line is at fault; ``path`` names the file, set by the command that
    read it."""

    def __init__(self, msg: str, line: int | None = None, entry: int | None = None, path: str | None = None):
        super().__init__(msg)
        self.line, self.entry, self.path = line, entry, path


class _Parser(argparse.ArgumentParser):
    """Usage errors are parse errors: one ``error:`` line, exit code 1."""

    def error(self, message):
        raise ParseError(message)


def _count(text: str) -> int:
    """An integer >= 0 in ASCII digits: no sign, underscore or other script's digit."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """An integer in ASCII digits with an optional leading ``-``."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


_FAMILIES = {f.value: f for f in Family}


def format_descriptor(d: GroupDescriptor) -> str:
    field = "Q" if not d.field.is_prime else str(d.field.p)
    return f"group={d.family.value} l={d.l} field={field} similitude={int(d.similitude)}"


def _parse_header(line: str, lineno: int | None = None) -> tuple:
    """(family, l, field, similitude, n) of a header line, checked as the
    descriptor is, but without building its n x n Gram matrix.  Each of the
    keys ``group``, ``l``, ``field`` and ``similitude`` (0 or 1, default 0)
    may appear once, ``l`` and a prime ``field`` in ASCII digits; any other
    key is refused, at line ``lineno`` of its file."""
    fields = {}
    for part in line.split():
        key, eq, val = part.partition("=")
        if not eq:
            raise ParseError(f"bad header token {part!r}", lineno)
        if key not in ("group", "l", "field", "similitude") or key in fields:
            raise ParseError(f"{'duplicate' if key in fields else 'unknown'} header key {key!r}", lineno)
        if key == "similitude" and val not in ("0", "1"):
            raise ParseError(f"header key 'similitude' must be 0 or 1, not {val!r}", lineno)
        if key in ("l", "field") and not (val.isascii() and val.isdigit() or val == "Q"):
            raise ParseError(f"header key {key!r} needs ASCII digits, not {val!r}", lineno)
        fields[key] = val
    try:
        family = _FAMILIES[fields["group"]]
        l = int(fields["l"])
        field = QQ if fields["field"] == "Q" else Field(int(fields["field"]))
        return family, l, field, fields.get("similitude") == "1", dimension(family, l, field)
    except (KeyError, ValueError) as e:  # includes UnsupportedField
        raise ParseError(f"bad header {line!r}: {e}", lineno) from e


def parse_descriptor(line: str, lineno: int | None = None) -> GroupDescriptor:
    family, l, field, similitude, _ = _parse_header(line, lineno)
    return build_descriptor(family, l, field, similitude=similitude)


def _lines(text: str, what: str) -> list:
    """(1-based line number, stripped text) of the non-blank, non-comment
    lines of a file."""
    lines = [(k, ln) for k, ln in enumerate((s.strip() for s in text.splitlines()), 1)
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"empty {what} file")
    return lines


def _header(text: str, what: str) -> tuple:
    """(line number, :func:`_parse_header`) of the first line of a file."""
    lineno, line = _lines(text, what)[0]
    return lineno, _parse_header(line, lineno)


def parse_matrix_file(text: str) -> tuple:
    lines = _lines(text, "matrix")
    # count the rows before the descriptor builds its n x n Gram matrix
    family, l, field, similitude, n = _parse_header(lines[0][1], lines[0][0])
    if len(lines) != n + 1:
        # the first row too many, or the end of a file that has too few
        at = lines[min(n + 1, len(lines) - 1)][0]
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}", at)
    rows = []
    for lineno, ln in lines[1:]:
        entries = ln.split()
        if len(entries) != n:
            raise ParseError(f"expected {n} entries per row, got {len(entries)}", lineno,
                             n + 1 if len(entries) > n else None)
        row = []
        for k, e in enumerate(entries, 1):
            try:
                row.append(field.parse(e))
            except ValueError as err:  # names the scalar
                raise ParseError(str(err), lineno, k) from err
            except ZeroDivisionError as err:
                raise ParseError(f"bad scalar {e!r}: {err}", lineno, k) from err
        rows.append(row)
    return Matrix(field, rows), build_descriptor(family, l, field, similitude=similitude)


def format_matrix_file(g: Matrix, d: GroupDescriptor) -> str:
    lines = [format_descriptor(d)]
    for row in g.data:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def format_word_file(dec, d: GroupDescriptor) -> str:
    lines = [
        format_descriptor(d),
        "L= " + str(dec.left),
        "D= " + str(dec.torus_token()),
        "R= " + str(dec.right),
        f"lambda={dec.lam}",
        f"mu={dec.mu}",
    ]
    if dec.alpha is not None:
        lines.append(f"alpha={dec.alpha}")
    lines.append(f"ops={dec.op_count}")
    return "\n".join(lines) + "\n"


_WORD_KEYS = ("L", "D", "R")
_SUMMARY_KEYS = ("lambda", "mu", "alpha", "ops")


def parse_word_file(text: str) -> tuple:
    """(L word, D word, R word, descriptor) from a decompose dump.

    After the header, each of ``L=``, ``D=`` and ``R=`` appears exactly
    once.  Only ``lambda=``, ``mu=``, ``alpha=`` and ``ops=`` may join
    them, each at most once and equal to what the word gives: the lambda,
    mu and alpha of the one torus token on the ``D=`` line, and
    ``len(L) + len(R)``.  Any other line is refused, naming its key."""
    lines = _lines(text, "word")
    d = parse_descriptor(lines[0][1], lines[0][0])
    parts, at = {}, {}
    for lineno, ln in lines[1:]:
        key, eq, rest = ln.partition("=")
        if not eq or key not in _WORD_KEYS + _SUMMARY_KEYS:
            raise ParseError(f"unknown word file key {key!r}", lineno)
        if key in parts:
            raise ParseError(f"duplicate word file key {key!r}, first on line {at[key]}", lineno)
        if key in _WORD_KEYS:
            toks, units = [], []
            for k, entry in enumerate(rest.split(), 1):
                try:
                    tok, unit = _parse_token(entry, d)
                except (ValueError, ZeroDivisionError) as e:  # includes IllegalToken
                    raise ParseError(f"bad token in {key}= line: {e}", lineno, k) from e
                toks.append(tok)
                units.append(unit)
            rest = Word._trusted(d, toks, units)  # each token checked and described once
        parts[key], at[key] = rest, lineno
    missing = [k for k in _WORD_KEYS if k not in parts]
    if missing:
        raise ParseError(f"word file lacks lines: {missing}")
    left, mid, right = (parts[k] for k in _WORD_KEYS)
    torus = mid.tokens[0] if len(mid) == 1 and mid.tokens[0].kind == "torus" else None
    for key in _SUMMARY_KEYS:
        if key not in parts:
            continue
        given, lineno = parts[key].strip(), at[key]
        if key == "ops":
            want = len(left) + len(right)
            ok = given.isascii() and given.isdigit() and int(given) == want
        elif torus is None:
            raise ParseError(f"{key}= needs a D= line of one torus token, not line {at['D']}", lineno)
        else:
            want = getattr(torus, "lam" if key == "lambda" else key)
            try:
                ok = want is not None and d.field.parse(given) == want
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError(f"bad scalar in {key}= line: {e}", lineno) from e
        if not ok:
            gives = f"no {key}" if want is None else want
            where = "" if key == "ops" else f" on line {at['D']}"
            raise ParseError(f"{key}={given}, but the word gives {gives}{where}", lineno)
    return left, mid, right, d


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def _located(path: str, parse, *args):
    """``parse(*args)``, where a :class:`ParseError` names the file at path."""
    try:
        return parse(*args)
    except ParseError as e:
        e.path = path
        raise


def _descriptor_from_args(args) -> GroupDescriptor:
    line = f"group={args.group} l={args.l} field={args.field} similitude={int(args.similitude)}"
    return parse_descriptor(line)


def cmd_decompose(args) -> int:
    from .eliminate import decompose, decompose_gl

    g, d = _located(args.matrix, parse_matrix_file, _read(args.matrix))
    dec = decompose_gl(g) if d.family is Family.GL else decompose(g, d)
    sys.stdout.write(format_word_file(dec, dec.descriptor))
    return 0


def cmd_verify(args) -> int:
    word_text, matrix_text = _read(args.word), _read(args.matrix)
    # compare family, l and field before either file builds its descriptor
    word_line, word_head = _located(args.word, _header, word_text, "word")
    matrix_line, matrix_head = _located(args.matrix, _header, matrix_text, "matrix")
    if word_head[:3] != matrix_head[:3]:
        raise ParseError(f"descriptor disagrees with {args.matrix}:{matrix_line}", word_line, path=args.word)
    g, _ = _located(args.matrix, parse_matrix_file, matrix_text)
    left, mid, right, d = _located(args.word, parse_word_file, word_text)
    prod = evaluate_word(left, mid, right)
    if prod == g:
        print("OK")
        return 0
    print("MISMATCH")
    at, got, want = first_difference(prod, g, d)
    print(f"first difference at {at}: product {got}, file {want}", file=sys.stderr)
    return 2


def cmd_spinor(args) -> int:
    from .spinor import spinor_decomposition

    g, d = _located(args.matrix, parse_matrix_file, _read(args.matrix))
    theta, dec = spinor_decomposition(g, d)
    print(f"theta={theta}")
    print(f"lambda={dec.lam}")
    return 0


def cmd_coset(args) -> int:
    from .coset import coset_label

    g, d = _located(args.matrix, parse_matrix_file, _read(args.matrix))
    label = coset_label(g, d)
    print(f"omega={label.m}")
    return 0


def cmd_random(args) -> int:
    from .harness import random_member

    d = _descriptor_from_args(args)
    g = random_member(d, args.seed, args.len, with_torus=args.torus)
    sys.stdout.write(format_matrix_file(g, d))
    return 0


def cmd_census(args) -> int:
    from .coset import coset_census
    from .harness import enumerate_group

    d = _descriptor_from_args(args)
    en = enumerate_group(d, method=args.method, cap=args.cap)
    counts = coset_census(d, en)
    for m, count in counts.items():
        print(f"omega={m} count={count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="steinberg",
        description="Generator-word decomposition, spinor norms and Siegel double cosets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a matrix file into words and a diagonal")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check a word file against a matrix file")
    p.add_argument("word")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spinor", help="spinor norm of an orthogonal isometry")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_spinor)

    p = sub.add_parser("coset", help="Siegel parabolic double-coset label")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_coset)

    for name, helptext in (("random", "emit a random member"), ("census", "double-coset census")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--group", required=True, choices=sorted(_FAMILIES))
        p.add_argument("--l", type=_count, required=True)
        p.add_argument("--field", required=True, help="odd prime p, or Q")
        p.add_argument("--similitude", action="store_true")
        if name == "random":
            p.add_argument("--seed", type=_seed, default=0)
            p.add_argument("--len", type=_count, default=8)
            p.add_argument("--torus", action="store_true")
            p.set_defaults(func=cmd_random)
        else:
            p.add_argument("--cap", type=_count, default=10**6)
            p.add_argument("--method", default="auto", choices=["auto", "brute", "closure"])
            p.set_defaults(func=cmd_census)
    return ap


def main(argv=None) -> int:
    # Python 3.10.7 on refuses int <-> str conversions above 4,300 digits.  A
    # file bounds the height of its scalars, and an emitted parameter is
    # several times taller than an input entry, so a command runs without the
    # limit; it is restored on return, so in-process callers keep theirs.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as e:
        at = ":".join(str(v) for v in (e.path, e.line, e.entry) if v is not None)
        print(f"error: {at}: {e}" if at else f"error: {e}", file=sys.stderr)
        return 1
    except NotInGroup as e:
        print(f"not in group: {e}", file=sys.stderr)
        return 2
    except (UnsupportedFamily, NotOrthogonalFamily, EnumerationTooLarge, IllegalToken, SingularMatrix,
            CannotFactor) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
