"""Command-line front end.

Matrix files are plain text: a header line

    group=GSp l=2 field=5 similitude=0

followed by n rows of n whitespace-separated scalars (integers mod p, or
fractions like 3/4 over Q).  ``decompose`` emits a word file with the same
header plus ``L=``, ``D=``, ``R=`` lines in the token grammar, which
``verify`` re-reads and multiplies out, naming the first differing entry on
stderr when they disagree.  Exit codes: 0 success, 1 usage or parse error,
2 domain error (not in group, mismatch, unsupported family, singular GL
matrix, a rational square class whose squarefree part cannot be certified),
3 internal error (a failed self-check: a bug in the library, not
bad input).

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
from .generators import IllegalToken, evaluate_word, parse_word
from .matrix import Matrix, SingularMatrix


class ParseError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are parse errors: one ``error:`` line, exit code 1."""

    def error(self, message):
        raise ParseError(message)


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


_FAMILIES = {f.value: f for f in Family}


def format_descriptor(d: GroupDescriptor) -> str:
    field = "Q" if not d.field.is_prime else str(d.field.p)
    return f"group={d.family.value} l={d.l} field={field} similitude={int(d.similitude)}"


def _parse_header(line: str) -> tuple:
    """(family, l, field, similitude, n) of a header line, checked as the
    descriptor is, but without building its n x n Gram matrix."""
    fields = {}
    for part in line.split():
        if "=" not in part:
            raise ParseError(f"bad header token {part!r}")
        key, val = part.split("=", 1)
        fields[key] = val
    try:
        family = _FAMILIES[fields["group"]]
        l = int(fields["l"])
        field = QQ if fields["field"] == "Q" else Field(int(fields["field"]))
        similitude = bool(int(fields.get("similitude", "0")))
        return family, l, field, similitude, dimension(family, l, field)
    except (KeyError, ValueError) as e:  # includes UnsupportedField
        raise ParseError(f"bad header {line!r}: {e}") from e


def parse_descriptor(line: str) -> GroupDescriptor:
    family, l, field, similitude, _ = _parse_header(line)
    return build_descriptor(family, l, field, similitude=similitude)


def _lines(text: str, what: str) -> list:
    """The non-blank, non-comment lines of a file, stripped."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"empty {what} file")
    return lines


def parse_matrix_file(text: str) -> tuple:
    lines = _lines(text, "matrix")
    # count the rows before the descriptor builds its n x n Gram matrix
    family, l, field, similitude, n = _parse_header(lines[0])
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        entries = ln.split()
        if len(entries) != n:
            raise ParseError(f"expected {n} entries per row, got {len(entries)}")
        try:
            rows.append([field.parse(e) for e in entries])
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad scalar in row {ln!r}: {e}") from e
    return Matrix(field, rows), build_descriptor(family, l, field, similitude=similitude)


def format_matrix_file(g: Matrix, d: GroupDescriptor) -> str:
    lines = [format_descriptor(d)]
    for row in g.data:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def format_enumeration(enumeration) -> str:
    """Dump an enumeration as matrix-file records separated by blank lines."""
    d = enumeration.descriptor
    return "\n".join(format_matrix_file(g, d) for g in enumeration.elements)


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


def parse_word_file(text: str) -> tuple:
    """(L word, D word, R word, descriptor) from a decompose dump."""
    lines = _lines(text, "word")
    d = parse_descriptor(lines[0])
    parts = {"L": None, "D": None, "R": None}
    for ln in lines[1:]:
        if "=" in ln:
            key, rest = ln.split("=", 1)
            if key in parts:
                try:
                    parts[key] = parse_word(rest, d)
                except (ValueError, ZeroDivisionError) as e:  # includes IllegalToken
                    raise ParseError(f"bad token in {key}= line: {e}") from e
    missing = [k for k, v in parts.items() if v is None]
    if missing:
        raise ParseError(f"word file lacks lines: {missing}")
    return parts["L"], parts["D"], parts["R"], d


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def _descriptor_from_args(args) -> GroupDescriptor:
    line = f"group={args.group} l={args.l} field={args.field} similitude={int(args.similitude)}"
    return parse_descriptor(line)


def cmd_decompose(args) -> int:
    from .eliminate import decompose, decompose_gl

    g, d = parse_matrix_file(_read(args.matrix))
    dec = decompose_gl(g) if d.family is Family.GL else decompose(g, d)
    sys.stdout.write(format_word_file(dec, dec.descriptor))
    return 0


def cmd_verify(args) -> int:
    word_text, matrix_text = _read(args.word), _read(args.matrix)
    # compare family, l and field before either file builds its descriptor
    word_head = _parse_header(_lines(word_text, "word")[0])
    if word_head[:3] != _parse_header(_lines(matrix_text, "matrix")[0])[:3]:
        raise ParseError("word and matrix descriptors disagree")
    g, _ = parse_matrix_file(matrix_text)
    left, mid, right, d = parse_word_file(word_text)
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

    g, d = parse_matrix_file(_read(args.matrix))
    theta, dec = spinor_decomposition(g, d)
    print(f"theta={theta}")
    print(f"lambda={dec.lam}")
    return 0


def cmd_coset(args) -> int:
    from .coset import coset_label

    g, d = parse_matrix_file(_read(args.matrix))
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
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--field", required=True, help="odd prime p, or Q")
        p.add_argument("--similitude", action="store_true")
        if name == "random":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--len", type=_count, default=8)
            p.add_argument("--torus", action="store_true")
            p.set_defaults(func=cmd_random)
        else:
            p.add_argument("--cap", type=_count, default=10**6)
            p.add_argument("--method", default="auto", choices=["auto", "brute", "closure"])
            p.set_defaults(func=cmd_census)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
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


if __name__ == "__main__":
    sys.exit(main())
