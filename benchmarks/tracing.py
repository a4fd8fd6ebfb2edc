"""Per-layer tracing of the library from the benchmark's own files.

``Tracer.install`` rebinds the public functions of the modules in
``src/steinberg`` to wrappers that record spans; no library source changes.
A name bound with ``from .x import y`` is a separate binding in every module
that imported it (``multiplier`` lives in ``forms``, ``eliminate``,
``spinor`` and ``coset``), so every module attribute that *is* the original
function object gets the wrapper.  ``Field.of`` is only counted: it runs once
per matrix entry and a timer there would swamp the call.

Spans (name, start, end, parent, operation kind) stay in memory in flat
arrays and are written out at the end.  A span's self time is its duration
minus the durations of its direct children.  Elimination phases come from
the public ``decompose(..., observer=)`` hook: a phase lasts from the
previous observer event (or from the end of the multiplier check) to its own
event, and its tokens are the ``rowops.apply`` calls in between.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

PHASES = (
    "A-diagonalized",
    "X-E-cleared",
    "interchanged",
    "C-cleared",
    "B-cleared",
    "torus-reduced",
    "terminal-block",
    "done",
)
SETUP = "setup"


class Tracer:
    def __init__(self):
        self.names: list = []
        self.kinds: list = []
        self.sp_name = array("q")
        self.sp_kind = array("q")
        self.sp_parent = array("q")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.stack: list = []
        self.active = False
        self.kind = -1
        self.ops = 0
        self.counts: Counter = Counter()  # calls per wrapped name, traced ops only
        self.notes: Counter = Counter()  # facts read off results
        self.phase_ns: Counter = Counter()
        self.phase_tokens: Counter = Counter()
        self.finish_ns = 0
        self._decompositions: list = []
        self._patches: list = []
        self.setup_kind = self._intern(self.kinds, SETUP)

    # -- spans ---------------------------------------------------------------

    @staticmethod
    def _intern(table: list, name: str) -> int:
        if name not in table:
            table.append(name)
        return table.index(name)

    def _open(self, name_id: int) -> int:
        sid = len(self.sp_name)
        self.sp_name.append(name_id)
        self.sp_kind.append(self.kind)
        self.sp_parent.append(self.stack[-1] if self.stack else -1)
        self.sp_end.append(0)
        self.stack.append(sid)
        self.sp_start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.sp_end[sid] = time.perf_counter_ns()
        self.stack.pop()

    def begin_op(self, kind: str) -> None:
        """Open the root span of one timed operation (or of a traced set-up)."""
        self.kind = self._intern(self.kinds, kind)
        if kind != SETUP:
            self.ops += 1
        self.active = True
        self._open(self._intern(self.names, "op." + kind))

    def end_op(self) -> None:
        self._close(self.stack[-1])
        self.active = False

    def note(self, what: str, amount: int) -> None:
        self.notes[what] += amount

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = self._intern(self.names, name)
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer.kind != tracer.setup_kind:
                counts[name] += 1
            sid = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                after(out)
            return out

        return wrapped

    def _count(self, name: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.active and tracer.kind != tracer.setup_kind:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _observed(self, fn):
        """``decompose`` with an observer that timestamps each phase."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(g, d, observer=None):
            if not tracer.active or tracer.kind == tracer.setup_kind:
                return fn(g, d, observer)
            ctx = {"start": time.perf_counter_ns(), "mult_end": None,
                   "tokens": tracer.counts["rowops.apply"], "events": []}

            def obs(phase, m):
                ctx["events"].append((phase, time.perf_counter_ns(), tracer.counts["rowops.apply"]))
                if observer is not None:
                    observer(phase, m)

            tracer._decompositions.append(ctx)
            try:
                return fn(g, d, obs)
            finally:
                end = time.perf_counter_ns()
                tracer._decompositions.pop()
                tracer._phases(ctx, end)

        return wrapped

    def _phases(self, ctx: dict, end: int) -> None:
        t, a = ctx["mult_end"] or ctx["start"], ctx["tokens"]
        for phase, t2, a2 in ctx["events"]:
            self.phase_ns[phase] += t2 - t
            self.phase_tokens[phase] += a2 - a
            t, a = t2, a2
        if ctx["events"] and ctx["events"][-1][0] == "done":
            self.finish_ns += end - t

    def _after_multiplier(self, _mu) -> None:
        if self._decompositions and self._decompositions[-1]["mult_end"] is None:
            self._decompositions[-1]["mult_end"] = time.perf_counter_ns()

    def _after_decompose(self, dec) -> None:
        if self.kind != self.setup_kind:
            self.notes["decompose.calls"] += 1
            self.notes["decompose.op_count"] += dec.op_count

    def install(self, lib) -> None:
        self._set(lib.field.Field, "of", self._count("field.of", lib.field.Field.of))
        for attr, name in (("__init__", "matrix.init"), ("__matmul__", "matrix.matmul"), ("_reduce", "matrix.reduce")):
            self._set(lib.matrix.Matrix, attr, self._span(name, getattr(lib.matrix.Matrix, attr)))
        functions = [
            (lib.field.square_class, self._span("field.square_class", lib.field.square_class)),
            (lib.forms.multiplier, self._span("forms.multiplier", lib.forms.multiplier, self._after_multiplier)),
            (lib.generators.token_matrix, self._span("generators.token_matrix", lib.generators.token_matrix)),
            (lib.generators.evaluate_word, self._span("generators.evaluate_word", lib.generators.evaluate_word)),
            (lib.rowops.apply, self._span("rowops.apply", lib.rowops.apply)),
            (lib.eliminate.decompose, self._observed(
                self._span("eliminate.decompose", lib.eliminate.decompose, self._after_decompose))),
            (lib.eliminate.decompose_gl, self._span("eliminate.decompose_gl", lib.eliminate.decompose_gl, self._after_decompose)),
            (lib.spinor.token_spinor_class, self._span("spinor.token_class", lib.spinor.token_spinor_class)),
            (lib.spinor.reflection_matrix, self._span("spinor.reflection_matrix", lib.spinor.reflection_matrix)),
            (lib.coset.omega_matrix, self._span("coset.omega_matrix", lib.coset.omega_matrix)),
            (lib.coset.is_in_parabolic, self._span("coset.is_in_parabolic", lib.coset.is_in_parabolic)),
            (lib.harness.random_member, self._span("harness.random_member", lib.harness.random_member)),
        ]
        for original, wrapper in functions:
            for mod in lib.modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """(span name, operation kind) -> [self ns, span count]."""
        n = len(self.sp_name)
        dur = [e - s for s, e in zip(self.sp_start, self.sp_end)]
        child = [0] * n
        for i, p in enumerate(self.sp_parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict = {}
        for i in range(n):
            acc = out.setdefault((self.names[self.sp_name[i]], self.kinds[self.sp_kind[i]]), [0, 0])
            acc[0] += dur[i] - child[i]
            acc[1] += 1
        return out

    @staticmethod
    def total(totals: dict, name: str, kinds=None) -> tuple:
        """(self seconds, spans) of ``name`` over the given operation kinds
        (default: every kind except set-up)."""
        ns = count = 0
        for (n, k), (t, c) in totals.items():
            if n == name and (k in kinds if kinds else k != SETUP):
                ns += t
                count += c
        return ns / 1e9, count

    def layer_metrics(self) -> dict:
        """The per-layer metrics, per timed operation unless stated."""
        n = max(self.ops, 1)
        totals = self.totals()

        def self_s(name, kinds=None):
            return self.total(totals, name, kinds)[0] / n

        c = self.counts
        notes = self.notes
        m = {
            "field.of.calls": (c["field.of"] / n, "calls/op"),
            "field.square_class.calls": (c["field.square_class"] / n, "calls/op"),
            "field.square_class_s": (self_s("field.square_class"), "s/op"),
        }
        for short in ("init", "matmul", "reduce"):
            m[f"matrix.{short}.calls"] = (c[f"matrix.{short}"] / n, "calls/op")
            m[f"matrix.{short}_s"] = (self_s(f"matrix.{short}"), "s/op")
        m["matrix.init_per_token"] = (c["matrix.init"] / c["rowops.apply"] if c["rowops.apply"] else 0.0, "ratio")
        m["forms.multiplier_s"] = (self_s("forms.multiplier"), "s/op")
        m["generators.token_matrix.calls"] = (c["generators.token_matrix"] / n, "calls/op")
        m["generators.token_matrix_s"] = (self_s("generators.token_matrix"), "s/op")
        m["generators.evaluate_word_s"] = (self_s("generators.evaluate_word"), "s/op")
        m["rowops.apply.calls"] = (c["rowops.apply"] / n, "calls/op")
        m["rowops.apply_s"] = (self_s("rowops.apply"), "s/op")
        for phase in PHASES:
            m[f"eliminate.{phase}_s"] = (self.phase_ns[phase] / 1e9 / n, "s/op")
            m[f"eliminate.{phase}.tokens"] = (self.phase_tokens[phase] / n, "tokens/op")
        m["eliminate.finish_s"] = (self.finish_ns / 1e9 / n, "s/op")
        calls = notes["decompose.calls"]
        m["eliminate.ops"] = (notes["decompose.op_count"] / calls if calls else 0.0, "tokens/call")
        m["spinor.decompose_s"] = (self_s("eliminate.decompose", ("spinor",)), "s/op")
        m["spinor.token_class_s"] = (self_s("spinor.token_class"), "s/op")
        m["spinor.reflection_matrix.calls"] = (c["spinor.reflection_matrix"] / n, "calls/op")
        m["spinor.reflection_matrix_s"] = (self_s("spinor.reflection_matrix"), "s/op")
        mirrors, routes = notes["reflection.mirrors"], notes["reflection.calls"]
        m["spinor.mirrors"] = (mirrors / routes if routes else 0.0, "mirrors/call")
        # every mirror is built once more for the final product check
        tried = self.total(totals, "spinor.reflection_matrix", ("reflection",))[1] - mirrors
        m["spinor.mirrors_per_candidate"] = (mirrors / tried if tried > 0 else 0.0, "ratio")
        m["coset.omega_matrix_s"] = (self_s("coset.omega_matrix"), "s/op")
        m["coset.is_in_parabolic_s"] = (self_s("coset.is_in_parabolic"), "s/op")
        cosets = notes["coset.calls"]
        m["coset.witness_tokens"] = (notes["coset.witness_tokens"] / cosets if cosets else 0.0, "tokens/call")
        return m

    def write(self, path) -> None:
        """All spans as CSV: id, name, kind, start and end (ns), parent id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,kind,start_ns,end_ns,parent\n")
            for i in range(len(self.sp_name)):
                fh.write(f"{i},{self.names[self.sp_name[i]]},{self.kinds[self.sp_kind[i]]},"
                         f"{self.sp_start[i]},{self.sp_end[i]},{self.sp_parent[i]}\n")
