#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 perfbench/selftest.py

1. Tiny-size runs of every workload, untraced and traced: every end-to-end
   and per-layer metric named in BENCHMARK.json prints with its unit, and
   every correctness check passes.
2. A planted byte-count mismatch (--plant-mismatch) is reported as a failed
   experiment and makes the command exit non-zero.
3. Full-size traced runs show each workload exercising its intended layers,
   and the traced host self times plus trace.dispatched_s account for the
   traced run_s.
Exits non-zero on the first broken expectation.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.01", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout + p.stderr


def check(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}

    for w in workloads:
        for trace in (0, 1):
            code, res, out = run(w, trace, "--tiny")
            check(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
                  f"{w} trace={trace} tiny run passes its checks")
            metrics = res["metrics"]
            check(set(metrics) == {m["name"] for m in declared[trace]},
                  f"{w} trace={trace} prints exactly the declared metrics")
            for m in declared[trace]:
                got = metrics[m["name"]]
                if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    check(False, f"{w} {m['name']} prints {got}, expected unit {m['unit']}")
            check("digest " in out and "seed 1" in out, f"{w} trace={trace} prints digest and seed")

    code, res, out = run(workloads[0], 0, "--tiny", "--plant-mismatch")
    check(code != 0 and res is not None and not res["correct"] and res["failed"] == res["attempted"],
          "planted byte-count mismatch is caught as a failure")

    full = {}
    for w in workloads:
        code, res, out = run(w, 1)
        check(code == 0 and res["correct"], f"{w} full-size traced run passes its checks")
        full[w] = {k: v["value"] for k, v in res["metrics"].items()}
        m = full[w]
        layers = m["mpiio.issue_s"] + m["dualpar.issue_s"] + m["wl.next_s"]
        check(m["trace.dispatched_s"] >= 0 and
              math.isclose(layers + m["trace.dispatched_s"], m["trace.run_s"], rel_tol=1e-9),
              f"{w} layer self times plus trace.dispatched_s equal trace.run_s")

    def only(metric, owner):
        for w in workloads:
            check((full[w][metric] > 0) == (w == owner),
                  f"{metric} > 0 {'only ' if w == owner else 'not '}on {w}")

    only("mpiio.collective_rounds", "btio-collective")
    only("dualpar.cycles", "dualpar-adaptive-rw")
    only("dualpar.emc_mode_switches", "dualpar-adaptive-rw")
    only("replica.repair_ops_completed", "replica-crash")
    check(full["btio-vanilla"]["sim.events"] >= 10 * full["btio-collective"]["sim.events"],
          "sim.events on btio-vanilla is at least 10x btio-collective")
    print("selftest passed")


if __name__ == "__main__":
    main()
