#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py [--seed N]

For every workload it makes two untraced runs and one traced run at the
same seed (one-second budget, so each does its minimum number of passes)
and checks that:
  * every run passes its correctness checks;
  * the same seed gives identical simulated metrics;
  * the traced and untraced runs give identical simulated metrics;
  * the untraced run prints exactly the end-to-end metrics and the traced
    run exactly the per-layer metrics named in BENCHMARK.json, with their
    units, and os.spawn_coverage_pct is reported.
Exits 1 on the first failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    simulated = next(l["simulated"] for l in lines if "simulated" in l)
    return simulated, lines[-1]


def expect(ok, what):
    if not ok:
        print(f"selftest: FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"selftest: ok: {what}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in (w["name"] for w in bench["workloads"]):
        sim_a, res_a = run(w, args.seed, 0)
        sim_b, res_b = run(w, args.seed, 0)
        sim_t, res_t = run(w, args.seed, 1)
        for name, res in (("untraced", res_a), ("untraced repeat", res_b),
                          ("traced", res_t)):
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{w} {name} run is correct")
        expect(sim_a == sim_b, f"{w} same seed -> identical simulated metrics")
        expect(sim_a == sim_t,
               f"{w} traced == untraced simulated metrics")
        expect({k: v["unit"] for k, v in res_a["metrics"].items()} == e2e,
               f"{w} untraced run prints every end-to-end metric")
        expect({k: v["unit"] for k, v in res_t["metrics"].items()} == layers,
               f"{w} traced run prints every per-layer metric")
        for k in e2e:
            if k in sim_a:
                expect(float(sim_a[k]) == res_a["metrics"][k]["value"],
                       f"{w} {k} reported as simulated")
        coverage = res_t["metrics"]["os.spawn_coverage_pct"]["value"]
        expect(coverage > 0, f"{w} os.spawn_coverage_pct reported ({coverage:.1f}%)")


if __name__ == "__main__":
    main()
