#!/usr/bin/env python3
"""Self-test of the benchmark on tiny workloads (smallest rank, one cycle).

    python3 benchmarks/selftest.py

It asserts that

* every run prints every end-to-end (untraced) or per-layer (traced) metric
  of BENCHMARK.json with its unit in the final JSON line, and every named
  operation metric of the workload's kinds on its own line;
* the failure classifier counts the CLI decompose of the large-prime GSp l=5
  member, which exits 1 with a bare AssertionError today, as failed;
* a run exits 1 when a cell that reference.json does not pin as failing
  raises (``decompose`` is broken for GSp on purpose);
* the traced and untraced passes give the same output digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402


def tiny_run(workload: str, trace: int) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)], tiny=True)
    lines = out.getvalue().splitlines()
    detail = next(json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail "))
    return code, lines, json.loads(lines[-1]), detail


def check_metrics(workload: str, bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    kinds = W.make(workload, tiny=True).kinds
    code, lines, res, _ = tiny_run(workload, 0)
    assert code == 0 and res["correct"], (workload, res)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == e2e, res["metrics"]
    printed = {ln.split()[0]: ln.split()[2] for ln in lines if len(ln.split()) >= 3}
    named = [f"{k}_ms_p{q}" for k, qs in run.KIND_METRICS if k in kinds for q in qs] + ["fail_frac"]
    for name in named:
        assert name in printed, (workload, name)
    code, lines, res, detail = tiny_run(workload, 1)
    assert code == 0 and res["correct"], (workload, res)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == layers, res["metrics"]
    assert detail["output_digest_untraced"] == detail["output_digest_traced"], detail
    print(f"{workload}: metrics and units ok, traced digest {detail['output_digest_traced']} matches")


def check_classifier() -> None:
    lib = run.import_library()
    wl = W.make("cli", tiny=True)
    wl.src = run.SRC
    tmp = run.ROOT / ".bench_tmp" / "selftest"
    try:
        st = wl.setup(lib, 1, tmp)
        cmd = next(c for c in st.commands if c.cell == f"decompose GSp-l5-F{W.BIG_PRIME}-sim")
        [sample] = wl.run_item(lib, cmd, {}, W.OP_LIMIT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert not sample.ok, sample
    print(f"cli: large-prime GSp l=5 decompose classified as failed ({sample.status})")


def check_unexpected_failure() -> None:
    lib = run.import_library()
    original = lib.eliminate.decompose

    def broken(g, d, *args, **kwargs):
        if d.family.value == "GSp":
            raise ValueError("broken on purpose by the self-test")
        return original(g, d, *args, **kwargs)

    lib.eliminate.decompose = broken
    try:
        code, _, res, _ = tiny_run("decompose-q", 0)
    finally:
        lib.eliminate.decompose = original
    assert code == 1 and not res["correct"] and res["failed"] == 2, (code, res)
    print("decompose-q: a failing GSp cell that is not pinned makes the run exit 1")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == run.layer_names()
    for workload in W.WORKLOADS:
        check_metrics(workload, bench)
    check_classifier()
    check_unexpected_failure()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
