#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs a tiny version of every workload with --trace 0 and --trace 1 and
checks that the last stdout line has exactly the result keys, that every
metric BENCHMARK.json names is printed with its unit, and that the result
record parses and carries provenance. Then it perturbs one golden value in a
copy of perfbench/golden.json and checks that the affected point now fails.
Exits non-zero on the first broken expectation.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
RESULTS_DIR = ROOT / ".bench_build" / "results"
SEED = 42  # the golden seed
PROVENANCE = {"nproc", "compiler", "compiler_flags", "build_type",
              "git_commit", "seed"}


def run(workload, trace, extra=()):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def expect(cond, msg):
    if not cond:
        raise SystemExit("selftest FAILED: " + msg)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = run(w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, where + ": result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, where + ": tiny run failed")
            for m in wanted[trace]:
                got = result["metrics"].get(m["name"])
                expect(got is not None, f"{where}: {m['name']} missing")
                expect(got["unit"] == m["unit"], f"{where}: {m['name']} unit")
                expect(isinstance(got["value"], (int, float)),
                       f"{where}: {m['name']} is not a number")
            record_path = (RESULTS_DIR /
                           f"{w['name']}-tiny-seed{SEED}-trace{trace}.json")
            record = json.loads(record_path.read_text())
            expect(PROVENANCE <= set(record["provenance"]),
                   f"{where}: provenance incomplete")
            expect(record["result"] == result, f"{where}: record disagrees")
        print(f"ok   {w['name']}: every metric printed, record parses")

    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    key = "tiny/ladder/p3.n8"
    golden["points"][key]["throughput"] *= 1.0 + 1e-12
    perturbed = ROOT / ".bench_build" / "selftest-golden.json"
    perturbed.write_text(json.dumps(golden))
    result = run("ladder", 0, ["--golden", str(perturbed)])
    failed_share = 1.0 - result["metrics"]["ok_share"]["value"]
    expect(result["failed"] > 0 and failed_share > 0.0
           and not result["correct"],
           "a perturbed golden did not fail its point")
    print(f"ok   perturbed golden {key}: failed_share = {failed_share:.3f}")


if __name__ == "__main__":
    main()
