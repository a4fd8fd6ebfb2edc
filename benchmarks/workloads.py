"""The benchmark's four workloads: seeded inputs, timed operations, checks.

Every workload is a closed loop with one caller in one process: the next
operation starts only after the previous one returned (``cli`` runs one
subprocess at a time).  Inputs are ``harness.random_member(d, seed * 1000 + k,
word_len=4*l+4, with_torus=True)``, the convention ``word_length_stats``
uses, so the workload seed picks the inputs and the library sees only them.

A *cell* is one (family, rank, field) combination.  One *cycle* runs one
input of every cell, so every cell has the same number of samples and a cell
that fails outright weighs as much in ``ok_frac`` as any other.  A run
cycles over a pool of ``pool`` cycles' worth of distinct inputs and passes a
fresh copy of each input matrix to every call, so nothing cached on a
``Matrix`` object carries over between calls.

Each operation yields one sample: its kind, its wall time and whether it
failed.  An operation fails if it raises any exception (a bare
``AssertionError`` included), runs past the per-call limit, returns a wrong
result, exits non-zero on a valid member or writes a traceback.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# A library call still running after this long counts as failed (a hang).
# On a 2-vCPU Xeon VM the slowest successful call in any workload took about
# 0.9 s (a Q reassemble at l=8); the rational square-class tail of the
# reflection route runs for seconds to minutes.
OP_LIMIT_S = 2.0
CLI_LIMIT_S = 30.0
BIG_PRIME = 1000000007


class OpTimeout(BaseException):
    """Raised from SIGALRM into a call that ran past its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


@dataclass
class Sample:
    kind: str
    cell: str
    key: str
    seconds: float
    ok: bool
    status: str  # "ok", "wrong", "timeout", "error:<Exception>", "exit:<code>"
    start: float  # perf_counter() when the call began


def call_with_limit(fn, limit, tracer=None, kind=None):
    """Run ``fn()``; return (status, start, seconds, value).

    ``limit`` is in seconds or None.  With a tracer, the call is the root
    span ``op.<kind>`` of everything the library does inside it.
    """
    done = False
    value = None
    status = "ok"
    if tracer is not None:
        tracer.begin_op(kind)
    try:
        try:
            if limit is not None:
                signal.setitimer(signal.ITIMER_REAL, limit)
            t0 = time.perf_counter()
            try:
                value = fn()
                done = True
            finally:
                t1 = time.perf_counter()
                if limit is not None:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            if not done:
                status = "timeout"
        except Exception as e:  # every exception is a failed operation
            status = f"error:{type(e).__name__}"
    finally:
        if tracer is not None:
            tracer.end_op()
    return status, t0, t1 - t0, value


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _field(lib, name: str):
    return lib.field.QQ if name == "Q" else lib.field.Field(int(name))


@dataclass(frozen=True)
class Cell:
    family: str  # a Family value: GSp, GOplus, GOodd, GOminus, GL
    l: int
    field: str  # "7", "1000000007" or "Q"
    similitude: bool
    ops: tuple

    @property
    def name(self) -> str:
        fld = "Q" if self.field == "Q" else f"F{self.field}"
        return f"{self.family}/l={self.l}/{fld}"


def _table(families, ranks, fields, similitude, ops, skip=lambda fam, fld: False):
    return [
        Cell(fam, l, fld, similitude, ops)
        for fld in fields
        for fam in families
        if not skip(fam, fld)
        for l in ranks
    ]


@dataclass
class Item:
    cell: Cell
    key: str
    d: object
    g: object


class InProcess:
    """A workload of library calls made in this process."""

    cli = False
    limit = OP_LIMIT_S

    def __init__(self, name: str, cells: list, pool: int):
        self.name = name
        self.cells = cells
        self.pool = pool
        self.kinds = sorted({k for c in cells for k in c.ops})

    def setup(self, lib, seed: int, tmp=None, pool=None, step=None) -> dict:
        """Descriptors and the input pool (``pool`` cycles, default the
        workload's), in cycle order per cell.  ``step()``, if given, is
        called after each cell."""
        pool = self.pool if pool is None else pool
        state = {}
        for cell in self.cells:
            d = lib.forms.build_descriptor(
                lib.forms.Family(cell.family), cell.l, _field(lib, cell.field), similitude=cell.similitude
            )
            state[cell] = [
                Item(cell, f"{cell.name}/{k}", d, self.member(lib, d, seed, k))
                for k in range(pool)
            ]
            if step is not None:
                step()
        return state

    @staticmethod
    def member(lib, d, seed: int, k: int):
        return lib.harness.random_member(d, seed * 1000 + k, word_len=4 * d.l + 4, with_torus=True)

    def input_digest(self, state) -> str:
        return digest(f"{it.key} {it.d} {it.g.data}" for cell in self.cells for it in state[cell])

    def reference_digest(self, lib, seed: int) -> str:
        """Digest of one cycle of inputs, pinned in reference.json."""
        return self.input_digest(self.setup(lib, seed, pool=1))

    def cycle(self, state, c: int) -> list:
        return [state[cell][c % self.pool] for cell in self.cells]

    def run_item(self, lib, it: Item, results: dict, limit, tracer=None, skip=frozenset()) -> list:
        """Time every operation of one input; record result strings in
        ``results`` and return the samples.  Ops whose key is in ``skip``
        (they timed out earlier) are recorded as timeouts without a call."""
        ops = it.cell.ops
        if "decompose" in ops:
            return self._decompose(lib, it, results, limit, tracer, skip)
        if "spinor" in ops:
            return self._spinor(lib, it, results, limit, tracer, skip)
        return self._coset(lib, it, results, limit, tracer, skip)

    def _call(self, it, kind, fn, limit, tracer, skip, out):
        key = (it.key, kind)
        if key in skip:
            status, start, seconds, value = "timeout", time.perf_counter(), 0.0, None
        else:
            status, start, seconds, value = call_with_limit(fn, limit, tracer, kind)
        out.append(Sample(kind, it.cell.name, it.key, seconds, status == "ok", status, start))
        return status, value

    @staticmethod
    def _fresh(lib, it):
        return lib.matrix.Matrix(it.g.field, it.g.data)

    def _decompose(self, lib, it, results, limit, tracer, skip):
        out = []
        g = self._fresh(lib, it)
        if it.cell.family == "GL":
            fn = lambda: lib.eliminate.decompose_gl(g)
        else:
            fn = lambda: lib.eliminate.decompose(g, it.d)
        status, dec = self._call(it, "decompose", fn, limit, tracer, skip, out)
        if status != "ok":
            record(results, it.key, "decompose", status)
            record(results, it.key, "reassemble", "error:decompose-failed")
            out.append(Sample("reassemble", it.cell.name, it.key, 0.0, False, "error:decompose-failed", time.perf_counter()))
            return out
        record(results, it.key, "decompose", f"L={dec.left} D={dec.torus_token()} R={dec.right}")
        status, back = self._call(it, "reassemble", dec.reassemble, limit, tracer, skip, out)
        if status == "ok" and back != it.g:
            status = "wrong"
            out[-1].ok, out[-1].status = False, status
        record(results, it.key, "reassemble", "equal" if status == "ok" else status)
        return out

    def _spinor(self, lib, it, results, limit, tracer, skip):
        out = []
        sp = lib.spinor
        texts = {}
        for kind, fn in (
            ("spinor", lambda g: sp.spinor_norm(g, it.d)),
            ("wall", lambda g: sp.wall_spinor_norm(g, it.d)),
            ("reflection", lambda g: sp.reflection_factorization(g, it.d)),
        ):
            g = self._fresh(lib, it)
            status, value = self._call(it, kind, lambda: fn(g), limit, tracer, skip, out)
            if status == "ok" and kind == "reflection":
                mirrors, value = value
                if tracer is not None:
                    tracer.note("reflection.calls", 1)
                    tracer.note("reflection.mirrors", len(mirrors))
            texts[kind] = str(value) if status == "ok" else status
        classes = {smp.kind: texts[smp.kind] for smp in out if smp.ok}
        if len(set(classes.values())) > 1:  # the three routes must agree
            for smp in out:
                if smp.ok:
                    smp.ok, smp.status = False, "wrong"
                    texts[smp.kind] = "wrong:" + " ".join(f"{k}={v}" for k, v in classes.items())
        for kind, text in texts.items():
            record(results, it.key, kind, text)
        return out

    def _coset(self, lib, it, results, limit, tracer, skip):
        out = []
        g = self._fresh(lib, it)
        status, label = self._call(it, "coset", lambda: lib.coset.coset_label(g, it.d), limit, tracer, skip, out)
        if status != "ok":
            record(results, it.key, "coset", status)
            return out
        text = f"omega={label.m} L={label.left_witness} R={label.right_witness}"
        if tracer is not None:
            tracer.note("coset.calls", 1)
            tracer.note("coset.witness_tokens", len(label.left_witness) + len(label.right_witness))
        # the witness equation is rechecked once per input; later passes
        # must then reproduce the same label and witnesses
        if results.get((it.key, "coset"), "timeout") == "timeout" and not lib.coset.verify_label(it.g, label, it.d):
            out[-1].ok, out[-1].status = False, "wrong"
            text = "wrong:" + text
        record(results, it.key, "coset", text)
        return out


def record(results: dict, key: str, kind: str, text: str) -> None:
    """Remember the first result of (input, op); a later pass that returns a
    different result marks the pair as nondeterministic.  Timeouts depend on
    timing, not on the output, so they never count as a mismatch."""
    prev = results.get((key, kind))
    if prev is None:
        results[(key, kind)] = text
    elif prev != text and "timeout" not in (prev, text):
        results[(key, kind)] = f"MISMATCH {prev!r} != {text!r}"


def output_digest(results: dict) -> str:
    return digest(f"{k[0]} {k[1]} {v}" for k, v in sorted(results.items()))


def wrong_results(results: dict) -> list:
    return [k for k, v in results.items() if v.startswith(("MISMATCH", "wrong"))]


# ---------------------------------------------------------------------------
# the CLI workload


@dataclass
class Command:
    cell: str  # "<command> <file stem>"
    argv: list
    expected: str | None  # stdout of a correct run; None if the library itself fails


@dataclass
class CliState:
    tmp: Path
    commands: list
    members: list = field(default_factory=list)  # (name, descriptor, matrix)
    decompositions: list = field(default_factory=list)  # (decomposition, descriptor)


class Cli:
    """Cold ``python -m steinberg.cli`` processes on files written at set-up.

    Every family at l = 2 and 8 over F_7 is decomposed and verified; the
    orthogonal isometries go through ``spinor`` and the Siegel families'
    isometries through ``coset``.  One Q file per command and one GSp l=5
    similitude over F_1000000007 (whose decompose exits 1 with a bare
    AssertionError today) complete the set.
    """

    cli = True
    limit = CLI_LIMIT_S
    kinds = ["cli"]
    pool = 1

    def __init__(self, name: str, ranks=(2, 8)):
        self.name = name
        self.ranks = ranks
        self.src = None  # the library's source directory, for PYTHONPATH
        self.tmp = None
        self.rss_kib: list = []  # peak resident set of every timed process

    def plan(self) -> list:
        """(file stem, family, l, field, similitude, commands) per file."""
        out = []
        for fam in ("GSp", "GOplus", "GOodd", "GOminus", "GL"):
            for l in self.ranks:
                out.append((f"{fam}-l{l}-F7-sim", fam, l, "7", True, ("decompose", "verify")))
        for fam in ("GOplus", "GOodd", "GOminus"):
            for l in self.ranks:
                out.append((f"{fam}-l{l}-F7-iso", fam, l, "7", False, ("spinor",)))
        for fam in ("GSp", "GOplus", "GOodd"):
            for l in self.ranks:
                out.append((f"{fam}-l{l}-F7-iso-coset", fam, l, "7", False, ("coset",)))
        out.append(("GSp-l2-Q-sim", "GSp", 2, "Q", True, ("decompose", "verify")))
        out.append(("GOodd-l2-Q-iso", "GOodd", 2, "Q", False, ("spinor",)))
        out.append(("GSp-l2-Q-iso", "GSp", 2, "Q", False, ("coset",)))
        out.append((f"GSp-l5-F{BIG_PRIME}-sim", "GSp", 5, str(BIG_PRIME), True, ("decompose",)))
        return out

    def members(self, lib, seed: int):
        for k, (stem, fam, l, fld, sim, cmds) in enumerate(self.plan()):
            d = lib.forms.build_descriptor(lib.forms.Family(fam), l, _field(lib, fld), similitude=sim)
            yield stem, d, InProcess.member(lib, d, seed, k), cmds

    def setup(self, lib, seed: int, tmp: Path, step=None) -> CliState:
        """The matrix files and the commands with their expected output;
        ``step()``, if given, is called after each file."""
        tmp.mkdir(parents=True, exist_ok=True)
        self.tmp = tmp
        st = CliState(tmp, [])
        for stem, d, g, cmds in self.members(lib, seed):
            st.members.append((stem, d, g))
            mpath = tmp / f"{stem}.mat"
            mpath.write_text(lib.cli.format_matrix_file(g, d))
            for cmd in cmds:
                st.commands.append(self._command(lib, st, cmd, stem, d, g, mpath))
            if step is not None:
                step()
        return st

    def _command(self, lib, st, cmd, stem, d, g, mpath) -> Command:
        """The command line and the stdout it must print, computed in process."""
        try:
            if cmd in ("decompose", "verify"):
                dec = lib.eliminate.decompose_gl(g) if d.family.value == "GL" else lib.eliminate.decompose(g, d)
                words = lib.cli.format_word_file(dec, dec.descriptor)
                st.decompositions.append((dec, dec.descriptor))
                if cmd == "decompose":
                    expected = words
                else:
                    wpath = st.tmp / f"{stem}.words"
                    wpath.write_text(words)
                    return Command(f"verify {stem}", ["verify", str(wpath), str(mpath)], "OK\n")
            elif cmd == "spinor":
                theta = lib.spinor.spinor_norm(g, d)
                expected = f"theta={theta}\nlambda={lib.eliminate.decompose(g, d).lam}\n"
            else:
                expected = f"omega={lib.coset.coset_label(g, d).m}\n"
        except Exception:  # the library fails on this member; the CLI run will too
            expected = None
        return Command(f"{cmd} {stem}", [cmd, str(mpath)], expected)

    def input_digest(self, st) -> str:
        return digest(f"{stem} {d} {g.data}" for stem, d, g in st.members)

    def reference_digest(self, lib, seed: int) -> str:
        return digest(f"{stem} {d} {g.data}" for stem, d, g, _ in self.members(lib, seed))

    def cycle(self, st, c: int) -> list:
        return st.commands

    def run_item(self, lib, cmd: Command, results: dict, limit, tracer=None, skip=frozenset()) -> list:
        """One cold CLI process, timed from spawn to exit."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        env = dict(os.environ, PYTHONPATH=str(self.src))

        def run():
            with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
                p = subprocess.Popen([sys.executable, "-m", "steinberg.cli", *cmd.argv], stdout=fo, stderr=fe, env=env)
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except OpTimeout:
                p.kill()
                os.wait4(p.pid, 0)
                p.returncode = -9
                raise
            p.returncode = os.waitstatus_to_exitcode(status)
            self.rss_kib.append(usage.ru_maxrss)
            return p.returncode

        status, start, seconds, code = call_with_limit(run, CLI_LIMIT_S, tracer, "cli")
        if status == "ok":
            if code != 0:
                status = f"exit:{code}"
            elif "Traceback" in err_path.read_text():
                status = "traceback"
            elif cmd.expected is None:
                status = "unverified"
            elif out_path.read_text() != cmd.expected:
                status = "wrong"
        record(results, cmd.cell, "cli", status)
        return [Sample("cli", cmd.cell, cmd.cell, seconds, status == "ok", status, start)]


def make(name: str, tiny: bool = False):
    """The named workload; ``tiny`` keeps only the smallest rank of each
    table and one pool cycle, for the self-test."""
    if name == "cli":
        return Cli(name, ranks=(2,) if tiny else (2, 8))
    if name == "decompose-fp":
        cells = _table(
            ("GSp", "GOplus", "GOodd", "GOminus", "GL"), (2, 4, 8), ("7", str(BIG_PRIME)), True, ("decompose", "reassemble")
        )
        pool = 6
    elif name == "decompose-q":
        cells = _table(("GSp", "GOplus", "GOodd", "GL"), (2, 4, 8), ("Q",), True, ("decompose", "reassemble"))
        pool = 4
    elif name == "invariants":
        cells = _table(
            ("GOplus", "GOodd", "GOminus"), (2, 3, 4), ("7", "Q"), False, ("spinor", "wall", "reflection"),
            skip=lambda fam, fld: fam == "GOminus" and fld == "Q",
        ) + _table(("GSp", "GOplus", "GOodd"), (2, 4, 8), ("7", "Q"), False, ("coset",))
        pool = 4
    else:
        raise ValueError(f"unknown workload {name!r}")
    if tiny:
        cells = [c for c in cells if c.l == 2]
        pool = 1
    return InProcess(name, cells, pool)


WORKLOADS = ("decompose-fp", "decompose-q", "invariants", "cli")
