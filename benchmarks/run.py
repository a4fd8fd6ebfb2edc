#!/usr/bin/env python3
"""Benchmark of the steinberg toolkit.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from ``src/``.
Workloads (see ``workloads.py`` for the inputs and why each exists):

* ``decompose-fp``  decompose + reassemble over F_7 and F_1000000007
* ``decompose-q``   the same over Q
* ``invariants``    spinor norm three ways and Siegel coset labels
* ``cli``           cold ``python -m steinberg.cli`` processes

The run times the library's import in fresh processes and sets up
(descriptors, inputs) several times, then runs whole cycles of the workload
until ``--seconds`` have passed, every input of the pool was used and every
reported p90 has at least 100 samples (ten beyond it).  Every result is
checked; the last line of stdout is one JSON object.

``--trace 0`` reports the end-to-end metrics:

* ``latency_cal_ms``: geometric mean, over the workload's (cell, operation)
  pairs, of the pair's median latency.  Each call's wall time is scaled to
  the nominal speed of a calibration measured next to it (see CAL_* below);
  a failed call counts as taking the whole per-call limit.
* ``ok_frac``: operations that succeeded over operations attempted.
* ``peak_rss_mb``: peak resident memory of this process, or the largest of
  the timed CLI processes.
* ``setup_s``: median import time plus median set-up time, both scaled to
  nominal calibration speed like the latencies (``import_seconds``,
  ``setup``).

Before the JSON line it prints, by name and unit, the median and p90 wall
time of every operation kind the workload runs (``decompose_ms_p50`` ...
``cli_ms_p90``), ``fail_frac`` and the uncalibrated ``latency_raw_ms``.  In
these percentiles a failed operation ranks above every successful one; a
percentile that lands on a failure reads as the whole run's wall time.

``--trace 1`` runs every cycle twice in a row, untraced and then with the
tracer of ``tracing.py`` installed, and reports the per-layer metrics, per
timed operation, plus ``trace.overhead_frac`` (traced over untraced time of
the same operations, run back to back).  Both passes must give the same
output digest.  The spans are written to ``.bench_out/`` at the end.

The run exits non-zero if an output check, the input digest pinned in
``reference.json`` or the traced/untraced digest comparison fails, or if an
operation fails in a way ``reference.json`` does not list as known: an
exception, a non-zero exit or a traceback outside the pinned (cell,
operation) pairs, or a timeout on a workload that does not tolerate them.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from tracing import PHASES, SETUP, Tracer  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
MIN_SAMPLES = 100
HARD_CAP_S = 120.0  # stop adding cycles past this, whatever the sample counts
REFERENCE_SEED = 0
PROBE_REPEATS = 5

# On a shared host the speed one process gets drifts by tens of percent
# within seconds as other tenants load it.  Latencies are therefore scaled to a calibration timed
# next to them: by the nominal time over the median calibration timed within
# CAL_WINDOW_S of each call ("ms at the nominal calibration speed").  In
# process the calibration is a slice of pure-Python work of the library's
# kind, timed at most every CAL_EVERY_S; for the CLI it is a process that
# imports what the CLI imports apart from steinberg itself, timed at most
# every CAL_EVERY_CLI_S.  Over 2-7 s windows on a shared 2-vCPU Xeon VM
# (Python 3.11) their times correlated with the library's at 0.95-0.97; a
# bare ``python -c pass`` correlated with the CLI's at only 0.33.
CAL_WINDOW_S = 0.5
CAL_EVERY_S = 0.05
CAL_NOMINAL_S = 0.0006
CAL_EVERY_CLI_S = 2.0
CAL_NOMINAL_CLI_S = 0.19
CLI_IMPORTS = "import argparse, dataclasses, enum, fractions, random, re, numpy"

# (operation kind, percentiles) reported by name on the workloads that run it
KIND_METRICS = (
    ("decompose", (50, 90)),
    ("reassemble", (50, 90)),
    ("spinor", (50, 90)),
    ("wall", (50,)),
    ("reflection", (50, 90)),
    ("coset", (50, 90)),
    ("cli", (50, 90)),
)

CLI_LAYERS = ("cli.interpreter_s", "cli.import_s", "cli.import.numpy_s", "cli.parse_s", "cli.format_s")


def import_library() -> SimpleNamespace:
    if not (SRC / "steinberg" / "__init__.py").is_file():
        sys.exit(f"error: no library at {SRC / 'steinberg'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import steinberg
    from steinberg import cli, coset, eliminate, field, forms, generators, harness, matrix, rowops, spinor

    if Path(steinberg.__file__).resolve().parent != (SRC / "steinberg").resolve():
        sys.exit(f"error: imported steinberg from {steinberg.__file__}, not from {SRC}")
    mods = (field, matrix, forms, generators, rowops, eliminate, spinor, coset, harness, cli)
    return SimpleNamespace(
        field=field, matrix=matrix, forms=forms, generators=generators, rowops=rowops, eliminate=eliminate,
        spinor=spinor, coset=coset, harness=harness, cli=cli, modules=(steinberg,) + mods,
    )


def calibration_slice() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the library's
    kind: Fraction arithmetic and rebuilding small tuples of tuples."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 7, i % 11 + 1)
    rows = [[(i * j) % 7 for j in range(12)] for i in range(12)]
    for _ in range(8):
        rows = [[(v * 3 + 1) % 7 for v in r] for r in rows]
        tuple(tuple(r) for r in rows)
    return time.perf_counter() - t0


def import_slice() -> float:
    """Seconds for a process that imports the CLI's dependencies."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", CLI_IMPORTS], check=True)
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Median seconds, at nominal speed, to import the library in a fresh
    interpreter, timed inside it (interpreter start-up excluded).  Each
    import is scaled like a CLI call, by the mean of the import slices
    (``import_slice``) timed right before and after it."""
    code = ("import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "from steinberg import cli, coset, eliminate, field, forms, generators, harness, matrix, rowops, spinor; "
            "print(time.perf_counter() - t0)")
    slices = [import_slice()]
    times = []
    for _ in range(IMPORT_REPEATS):
        times.append(float(subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, capture_output=True,
                                          text=True).stdout))
        slices.append(import_slice())
    return statistics.median(t * CAL_NOMINAL_CLI_S * 2 / (a + b) for t, a, b in zip(times, slices, slices[1:]))


def measure(lib, wl, state, results, *, seconds=0.0, cycles=None, first=0, min_samples=0,
            limit=W.OP_LIMIT_S, tracer=None, skip=frozenset()):
    """Closed loop over whole cycles, from cycle ``first``.  Without
    ``cycles``, stop once ``seconds`` have passed, the pool was used and every
    kind has ``min_samples`` samples.

    Between operations, at most every ``CAL_EVERY_S`` (``CAL_EVERY_CLI_S``),
    it times one calibration; returns (samples, cycles, wall seconds, [(time,
    slice seconds)])."""
    samples = []
    cal = []
    wl_slice, every = (import_slice, CAL_EVERY_CLI_S) if wl.cli else (calibration_slice, CAL_EVERY_S)
    counts: Counter = Counter()
    c = 0
    t0 = time.perf_counter()
    last_cal = -math.inf
    while True:
        for item in wl.cycle(state, first + c):
            if tracer is None and time.perf_counter() - last_cal >= every:
                last_cal = time.perf_counter()
                cal.append((last_cal, wl_slice()))
            for s in wl.run_item(lib, item, results, limit, tracer, skip):
                samples.append(s)
                counts[s.kind] += 1
        c += 1
        elapsed = time.perf_counter() - t0
        if cycles is not None:
            if c >= cycles:
                break
        elif elapsed >= HARD_CAP_S:
            break
        elif elapsed >= seconds and c >= wl.pool and all(counts[k] >= min_samples for k in wl.kinds):
            break
    return samples, c, time.perf_counter() - t0, cal


def calibrated(samples, cal, nominal: float) -> list:
    """Each sample's seconds scaled to the calibration's nominal speed: by
    ``nominal`` over the median calibration slice timed within CAL_WINDOW_S
    of the call's start (at least the five nearest slices)."""
    times = [t for t, _ in cal]
    out = []
    for s in samples:
        lo = bisect.bisect_left(times, s.start - CAL_WINDOW_S)
        hi = bisect.bisect_right(times, s.start + CAL_WINDOW_S)
        while hi - lo < 5 and (lo > 0 or hi < len(cal)):
            if lo > 0 and (hi == len(cal) or s.start - times[lo - 1] < times[hi] - s.start):
                lo -= 1
            else:
                hi += 1
        out.append(s.seconds * nominal / statistics.median(v for _, v in cal[lo:hi]))
    return out


def geomean_ms(samples, seconds, limit: float) -> float:
    """Geometric mean over (cell, kind) pairs of the pair's median latency in
    ms; a failed operation counts as taking the whole per-call limit."""
    groups: dict = {}
    for s, sec in zip(samples, seconds):
        groups.setdefault((s.cell, s.kind), []).append(sec if s.ok else limit)
    logs = [math.log(statistics.median(v)) for v in groups.values()]
    return math.exp(sum(logs) / len(logs)) * 1e3


def percentile(samples, q: float, fail_value: float) -> float:
    """Nearest-rank percentile in ms; failures rank above every success."""
    ok = sorted(s.seconds for s in samples if s.ok)
    rank = max(1, -(-len(samples) * q // 100))  # ceil
    return ok[int(rank) - 1] * 1e3 if rank <= len(ok) else fail_value


def setup(lib, wl, seed: int, tmp: Path):
    """Set up ``SETUP_REPEATS`` times; return the last state, the median time
    at nominal speed and whether every repetition generated the same inputs.

    A set-up is a sequence of steps (one cell's inputs, or one CLI file),
    with a calibration slice timed between each two.  Each step is scaled to
    nominal speed by the median of the five slices nearest to it, and a
    repetition's time is the sum of its scaled steps."""
    times, digests = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        steps, cal = [], [calibration_slice()]
        last = time.perf_counter()

        def step():
            nonlocal last
            steps.append(time.perf_counter() - last)
            cal.append(calibration_slice())
            last = time.perf_counter()

        state = wl.setup(lib, seed, tmp, step=step)
        # step i lies between slices i and i + 1
        times.append(sum(sec * CAL_NOMINAL_S / statistics.median(cal[max(0, i - 2):i + 4])
                         for i, sec in enumerate(steps)))
        digests.append(wl.input_digest(state))
    return state, statistics.median(times), len(set(digests)) == 1


def reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def reference_ok(lib, name: str) -> bool:
    """One cycle of the full workload's inputs at the reference seed must
    match the digest pinned in reference.json, so that a change to
    ``random_member`` cannot silently change what the benchmark measures."""
    pinned = reference()["input_digest"][name]
    return W.make(name).reference_digest(lib, REFERENCE_SEED) == pinned


def unexpected_failures(name: str, samples) -> list:
    """Failed samples that reference.json does not expect: any failure
    outside the pinned (cell, operation) pairs of the workload, except a
    timeout on a workload listed as tolerating them.  Printed to stderr."""
    ref = reference()
    known = {tuple(pair) for pair in ref["known_failures"].get(name, [])}
    timeouts = name in ref["timeouts_tolerated"]
    out = [s for s in samples
           if not s.ok and (s.cell, s.kind) not in known and not (timeouts and s.status == "timeout")]
    for (cell, kind, status), n in sorted(Counter((s.cell, s.kind, s.status) for s in out).items()):
        print(f"UNEXPECTED FAILURE {cell} {kind}: {status} x{n}", file=sys.stderr)
    return out


def kind_metrics(samples, fail_ms: float) -> dict:
    out = {}
    for kind, qs in KIND_METRICS:
        mine = [s for s in samples if s.kind == kind]
        if mine:
            for q in qs:
                out[f"{kind}_ms_p{q}"] = (percentile(mine, q, fail_ms), "ms", len(mine))
    return out


def cell_medians(samples) -> dict:
    """Median ms of the successful samples per cell and kind."""
    groups: dict = {}
    for s in samples:
        if s.ok:
            groups.setdefault(s.cell, {}).setdefault(s.kind, []).append(s.seconds * 1e3)
    return {c: {k: statistics.median(v) for k, v in kinds.items()} for c, kinds in sorted(groups.items())}


def emit(correct: bool, samples, metrics: dict, detail: dict) -> int:
    print("detail " + json.dumps(detail, sort_keys=True))
    failed = sum(1 for s in samples if not s.ok)
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_plain(args, lib, wl, state, setup_s, inputs_ok, min_samples) -> int:
    results: dict = {}
    samples, cycles, wall, cal = measure(lib, wl, state, results, seconds=args.seconds, min_samples=min_samples)
    nominal = CAL_NOMINAL_CLI_S if wl.cli else CAL_NOMINAL_S
    fail_ms = wall * 1e3
    if wl.cli:
        rss_mb = max(wl.rss_kib) / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(1 for s in samples if not s.ok)
    metrics = {
        "latency_cal_ms": (geomean_ms(samples, calibrated(samples, cal, nominal), wl.limit), "ms"),
        "ok_frac": (1 - failed / len(samples), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw_ms = geomean_ms(samples, [s.seconds for s in samples], wl.limit)
    cal_ms = statistics.median(v for _, v in cal) * 1e3
    by_kind = kind_metrics(samples, fail_ms)
    wrong = W.wrong_results(results)
    out_digest = W.output_digest(results)
    print(f"workload {wl.name} seed {args.seed}: {len(samples)} operations in {cycles} cycles, "
          f"{wall:.1f} s, {failed} failed {dict(Counter(s.status for s in samples if not s.ok))}")
    print(f"input digest {wl.input_digest(state)}  reference inputs {'ok' if inputs_ok else 'CHANGED'}  "
          f"output digest {out_digest}")
    for name, (value, unit, n) in by_kind.items():
        print(f"{name} {value:.4f} {unit} n={n}")
    print(f"fail_frac {failed / len(samples):.6f} ratio n={len(samples)}")
    print(f"latency_raw_ms {raw_ms:.6g} ms (uncalibrated); calibration slice median {cal_ms:.4f} ms "
          f"over {len(cal)} slices, nominal {nominal * 1e3} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for key in wrong:
        print(f"WRONG {key}: {results[key]}", file=sys.stderr)
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": 0, "cycles": cycles, "wall_s": wall,
        "fail_frac": failed / len(samples), "latency_raw_ms": raw_ms,
        "calibration_ms": cal_ms,
        "kinds": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in by_kind.items()},
        "cells": cell_medians(samples), "input_digest": wl.input_digest(state), "output_digest": out_digest,
    }
    unexpected = unexpected_failures(wl.name, samples)
    return emit(inputs_ok and not wrong and not unexpected, samples, metrics, detail)


def run_traced(args, lib, wl, state, tmp, inputs_ok) -> int:
    """Each cycle runs untraced and then, right after, traced, until
    ``--seconds`` have passed or the pool was used.  The traced pass runs
    without a time limit and skips the operations that timed out untraced."""
    untraced: dict = {}
    traced: dict = {}
    samples_u, samples_t = [], []
    tracer = Tracer()
    base = extra = 0.0
    cycles = 0
    t0 = time.perf_counter()
    while cycles < wl.pool and (cycles == 0 or time.perf_counter() - t0 < args.seconds):
        su, _, _, _ = measure(lib, wl, state, untraced, cycles=1, first=cycles)
        skip = frozenset((s.key, s.kind) for s in su if s.status == "timeout")
        tracer.install(lib)
        try:
            st, _, _, _ = measure(lib, wl, state, traced, cycles=1, first=cycles, limit=None, tracer=tracer,
                                  skip=skip)
        finally:
            tracer.uninstall()
        base += sum(s.seconds for s in su if (s.key, s.kind) not in skip)
        extra += sum(s.seconds for s in st if (s.key, s.kind) not in skip)
        samples_u += su
        samples_t += st
        cycles += 1
    layers = tracer.layer_metrics()
    tracer.install(lib)
    try:
        # set up once more under the trace, for the input generator's share
        _, _, _, state2 = W.call_with_limit(lambda: wl.setup(lib, args.seed, tmp), None, tracer, "setup")
        rm_s, members = Tracer.total(tracer.totals(), "harness.random_member", (SETUP,))
    finally:
        tracer.uninstall()
    layers["harness.random_member_s"] = (rm_s / members if members else 0.0, "s/member")
    probes = cli_probes(lib, state) if wl.cli else {}
    for name in CLI_LAYERS:
        layers[name] = (probes.get(name, 0.0), "s")
    # the timed CLI processes are not traced, so there is no overhead to report
    layers["trace.overhead_frac"] = (extra / base - 1 if base and not wl.cli else 0.0, "ratio")
    spans = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.csv"
    tracer.write(spans)

    d_u, d_t = W.output_digest(untraced), W.output_digest(traced)
    same_inputs = state2 is not None and wl.input_digest(state2) == wl.input_digest(state)
    wrong = W.wrong_results(untraced) + W.wrong_results(traced)
    print(f"workload {wl.name} seed {args.seed} traced: {len(samples_t)} operations in {cycles} cycles; "
          f"spans in {spans.relative_to(ROOT)}")
    print(f"output digest untraced {d_u} traced {d_t}: {'equal' if d_u == d_t else 'DIFFERENT'}; "
          f"reference inputs {'ok' if inputs_ok else 'CHANGED'}")
    for name, (value, unit) in layers.items():
        print(f"{name} {value:.6g} {unit}")
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": 1, "cycles": cycles,
        "output_digest_untraced": d_u, "output_digest_traced": d_t,
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    unexpected = unexpected_failures(wl.name, samples_u + samples_t)
    correct = inputs_ok and same_inputs and d_u == d_t and not wrong and not unexpected
    return emit(correct, samples_u, layers, detail)


def cli_probes(lib, st) -> dict:
    """Start-up split of one CLI process, and the in-process file formats."""

    def median_of(fn):
        return statistics.median(fn() for _ in range(PROBE_REPEATS))

    env = dict(os.environ, PYTHONPATH=str(SRC))

    def interpreter():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        return time.perf_counter() - t0

    def import_times():
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import steinberg.cli"],
                             check=True, env=env, capture_output=True, text=True).stderr
        total = numpy = 0.0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if name.rstrip() == " steinberg.cli":
                total = int(cumulative) / 1e6
            elif name.strip() == "numpy" and not numpy:
                numpy = int(cumulative) / 1e6
        return total, numpy

    texts = [lib.cli.format_matrix_file(g, d) for _, d, g in st.members]

    def parse():
        t0 = time.perf_counter()
        for text in texts:
            lib.cli.parse_matrix_file(text)
        return (time.perf_counter() - t0) / len(texts)

    def fmt():
        t0 = time.perf_counter()
        for dec, d in st.decompositions:
            lib.cli.format_word_file(dec, d)
        return (time.perf_counter() - t0) / len(st.decompositions)

    imports = [import_times() for _ in range(PROBE_REPEATS)]
    return {
        "cli.interpreter_s": median_of(interpreter),
        "cli.import_s": statistics.median(t for t, _ in imports),
        "cli.import.numpy_s": statistics.median(n for _, n in imports),
        "cli.parse_s": median_of(parse),
        "cli.format_s": median_of(fmt),
    }


def layer_names() -> list:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = ["field.of.calls", "field.square_class.calls", "field.square_class_s"]
    for short in ("init", "matmul", "reduce"):
        names += [f"matrix.{short}.calls", f"matrix.{short}_s"]
    names += ["matrix.init_per_token", "forms.multiplier_s", "generators.token_matrix.calls",
              "generators.token_matrix_s", "generators.evaluate_word_s", "rowops.apply.calls", "rowops.apply_s"]
    for phase in PHASES:
        names += [f"eliminate.{phase}_s", f"eliminate.{phase}.tokens"]
    names += ["eliminate.finish_s", "eliminate.ops", "spinor.decompose_s", "spinor.token_class_s",
              "spinor.reflection_matrix.calls", "spinor.reflection_matrix_s", "spinor.mirrors",
              "spinor.mirrors_per_candidate", "coset.omega_matrix_s", "coset.is_in_parabolic_s",
              "coset.witness_tokens", "harness.random_member_s", *CLI_LAYERS, "trace.overhead_frac"]
    return names


def main(argv=None, tiny: bool = False) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = import_library()
    wl = W.make(args.workload, tiny=tiny)
    wl.src = SRC
    W.install_alarm()
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    try:
        state, setup_s, repeatable = setup(lib, wl, args.seed, tmp)
        inputs_ok = repeatable and reference_ok(lib, wl.name)
        # The input pool is long-lived; keep the collector from rescanning it
        # inside timed calls, where it would add pauses that depend on the
        # pool's size rather than on the library.
        gc.collect()
        gc.freeze()
        if args.trace:
            return run_traced(args, lib, wl, state, tmp, inputs_ok)
        return run_plain(args, lib, wl, state, import_seconds() + setup_s, inputs_ok,
                        1 if tiny else MIN_SAMPLES)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
