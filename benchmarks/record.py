#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as a BENCH record.

    python3 benchmarks/record.py [--seeds 1-10] [--workloads a,b] [--out FILE] [--tier1]

For every workload it runs ``run.py`` once per seed (``run_seconds`` from
BENCHMARK.json, untraced) and prints each end-to-end metric's median,
quartiles (``statistics.quantiles(values, n=4)``) and spread, the quartile
distance as a share of the median, next to the metric's bound.  With
``--out`` it also makes one traced run per workload and writes a trajectory
record: versions, the medians and quartiles of every end-to-end and named
operation metric, the per-layer metrics, and the baseline grid of
per-cell timings.  ``--tier1`` adds one timed run of the tier-1 test suite
(information only; the acceptance suite rewrites ``word_length_table.txt``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result JSON, detail JSON) of one benchmark run; raises on failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    detail = next(json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail "))
    return json.loads(lines[-1]), detail


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
            "values": values}


def grid(details: dict) -> dict:
    """The ROADMAP baseline table, re-measured: medians over seeds of the
    per-cell median milliseconds."""

    def cell(workload, name, kind):
        vals = [d["cells"][name][kind] for d in details.get(workload, []) if kind in d["cells"].get(name, {})]
        return round(statistics.median(vals), 3) if vals else None

    fams = ("GSp", "GOplus", "GOodd", "GOminus", "GL")
    return {
        "decompose_ms_F7": {f: {l: cell("decompose-fp", f"{f}/l={l}/F7", "decompose") for l in (2, 4, 8)} for f in fams},
        "decompose_ms_GSp_Q": {l: cell("decompose-q", f"GSp/l={l}/Q", "decompose") for l in (2, 4, 8)},
        "reassemble_ms_l8": {
            "F7": {f: cell("decompose-fp", f"{f}/l=8/F7", "reassemble") for f in fams},
            "Q": {f: cell("decompose-q", f"{f}/l=8/Q", "reassemble") for f in ("GSp", "GOplus", "GOodd", "GL")},
        },
        "spinor_routes_ms_l3_F7": {
            f: {k: cell("invariants", f"{f}/l=3/F7", k) for k in ("spinor", "wall", "reflection")}
            for f in ("GOplus", "GOodd", "GOminus")
        },
    }


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return {"wall_s": round(time.perf_counter() - t0, 1), "summary": proc.stdout.strip().splitlines()[-1],
            "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"}


def environment() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           env=env, capture_output=True, text=True).stdout.strip()
    cpu = ""
    try:
        cpu = next(ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo") if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy, "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--out", default=None, help="write a trajectory record here")
    ap.add_argument("--tier1", action="store_true")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    record = {"environment": environment(), "run_seconds": seconds, "seeds": seeds,
              "end_to_end": {}, "operations": {}, "per_layer": {}, "failed": {}}
    details: dict = {}
    steady = True
    for w in names:
        results = []
        for seed in seeds:
            t0 = time.perf_counter()
            res, det = run_once(w, seed, seconds, 0)
            results.append(res)
            details.setdefault(w, []).append(det)
            print(f"{w} seed {seed}: {time.perf_counter() - t0:.1f} s, failed {res['failed']}/{res['attempted']}",
                  file=sys.stderr)
        record["failed"][w] = [r["failed"] for r in results]
        record["end_to_end"][w] = {}
        for name, spec in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in results])
            s["unit"] = spec["unit"]
            record["end_to_end"][w][name] = s
            ok = s["spread"] < spec["bound"] / 3
            steady &= ok
            print(f"{w:13} {name:12} median {s['median']:10.4f} {spec['unit']:5} q1 {s['q1']:10.4f} "
                  f"q3 {s['q3']:10.4f} spread {s['spread']:.4f} bound {spec['bound']} {'ok' if ok else 'WIDE'}")
        kinds = {}
        for k in details[w][0]["kinds"]:
            kinds[k] = summary([d["kinds"][k]["value"] for d in details[w]])
            kinds[k]["unit"] = "ms"
        kinds["fail_frac"] = summary([d["fail_frac"] for d in details[w]])
        kinds["fail_frac"]["unit"] = "ratio"
        kinds["latency_raw_ms"] = summary([d["latency_raw_ms"] for d in details[w]])
        kinds["latency_raw_ms"]["unit"] = "ms"
        record["operations"][w] = kinds
        for k, s in kinds.items():
            print(f"{w:13} {k:20} median {s['median']:10.4f} q1 {s['q1']:10.4f} q3 {s['q3']:10.4f}")
        if args.out:
            res, det = run_once(w, seeds[0], seconds, 1)
            record["per_layer"][w] = {k: v for k, v in res["metrics"].items()}
    if args.out:
        record["baseline_grid"] = grid(details)
        if "cli" in record["operations"]:
            record["baseline_grid"]["cli"] = {
                "cli_ms_p50": record["operations"]["cli"]["cli_ms_p50"]["median"],
                **{k: record["per_layer"]["cli"][k]["value"]
                   for k in ("cli.interpreter_s", "cli.import_s", "cli.import.numpy_s")},
            }
        if args.tier1:
            record["tier1"] = tier1()
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print("steady" if steady else "NOT steady: a spread is above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
