#!/usr/bin/env python3
"""Benchmark entry point: build, run one workload for a fixed time, report.

    python3 perfbench/run.py --workload ladder --seed 42 --seconds 20 --trace 0

Builds perfbench/CMakeLists.txt (the simulator library under fixed Release
flags plus the p3bench program) into .bench_build/, then runs p3bench passes
back to back, each in a fresh process so its peak RSS is its own, until the
time is used up. Passes alternate between the given seed and one seed drawn
from it (pass_seed), so a run samples two shard placements and fault draws,
and the same seed always gives the same inputs. Every point's outputs are
checked: audit findings reported by p3bench at every seed, bit-exact
equality with perfbench/golden.json at the golden seed, and traced/untraced
twins agreeing.

With --trace 0 the last stdout line carries the end-to-end metrics, taken
from each point's median over the passes; with --trace 1, the per-layer
metrics from p3bench's span files and the layers' public counters. A full
record with provenance goes to .bench_build/results/. perfbench/NOTES.md
explains the workloads and how each per-layer metric maps onto an end-to-end
one.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "p3bench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
GOLDEN = BENCH_DIR / "golden.json"
GOLDEN_SEED = 42
WORKLOADS = ("ladder", "fig_sweep", "rack_chaos")
PASS_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then always build (a no-op when up to date)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit(f"build failed: {' '.join(cmd)}")


def run_pass(workload, seed, tiny, span_path):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    if span_path is not None:
        cmd += ["--trace", str(span_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"p3bench exited with {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line]
    if not lines or not lines[-1].get("summary"):
        raise SystemExit("p3bench output has no summary line")
    points = lines[:-1]
    spans = []
    if span_path is not None:
        with open(span_path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
    return points, lines[-1], spans


# ------------------------------------------------------------------ checks

def pass_seed(seed, index):
    """Seed of the index-th pass: the run's own seed on even passes, a seed
    derived from it on odd ones. Two draws are enough to keep ladder's peak
    RSS off the low modes of a single placement; more draws would only run
    rack_chaos into more of the rare wedges recorded in NOTES.md."""
    if index % 2 == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/1".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def golden_key(workload, tiny, point):
    return ("tiny/" if tiny else "") + workload + "/" + point["point"]


def check_points(points, workload, seed, tiny, golden):
    """Returns one failure message per failed point (empty: all correct)."""
    failures = []
    by_name = {p["point"]: p for p in points}
    for p in points:
        why = []
        if p["error"]:
            why.append("threw: " + p["error"])
        why += p["problems"]
        out = p["outputs"]
        if out is not None and seed == GOLDEN_SEED and not p["twin_of"]:
            want = golden.get(golden_key(workload, tiny, p))
            if want is None:
                why.append("no golden")
            elif want != out:
                diff = sorted(k for k in want if want[k] != out.get(k))
                why.append("outputs differ from golden in " + ", ".join(diff))
        if p["twin_of"] and out is not None:
            twin = by_name.get(p["twin_of"])
            if twin is not None and twin["outputs"] != out:
                why.append("untraced twin disagrees with " + p["twin_of"])
        if why:
            failures.append(p["point"] + ": " + "; ".join(why))
    return failures


# ----------------------------------------------------------------- metrics

def end_to_end(passes):
    """End-to-end metrics of an untraced run. Each point's wall and set-up
    time is its median over the passes, so a slow spell of the host that hits
    different points in different passes does not add up. Peak RSS is the
    highest over the passes, whose inputs differ."""
    per_point = {}
    for p in passes:
        for q in p["points"]:
            per_point.setdefault(q["point"], []).append(q)
    wall = {n: statistics.median(q["wall_s"] for q in qs)
            for n, qs in per_point.items()}
    worker_iters = sum(qs[0]["workers"] * qs[0]["iters"]
                       for qs in per_point.values())
    return {
        "worker_iters_per_s": worker_iters / sum(wall.values()),
        "point_max_s": max(wall.values()),
        "peak_rss_mib": max(p["summary"]["peak_rss_mib"] for p in passes),
        "setup_s": sum(statistics.median(q["setup_s"] for q in qs)
                       for qs in per_point.values()),
    }


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. Returns ({span id: self seconds}, {id: span})."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    selfs = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        selfs[s["id"]] = (s["end"] - s["start"]) - covered
    return selfs, by_id


LAYER_SPANS = ("model.build", "ps.construct", "ps.run", "ps.drain",
               "ps.destroy", "obs.critpath", "obs.destroy")


def per_layer(points, spans):
    """Per-layer metrics of one traced pass (twins excluded from sums), and
    the worst gap between a point's wall time and its spans' self times."""
    base = [p for p in points if not p["twin_of"] and p["counters"]]
    base_ids = {p["id"] for p in base}
    selfs, by_id = self_times(spans)

    layer_s = {name: 0.0 for name in LAYER_SPANS}
    layer_s["point"] = 0.0
    per_point_run = {}  # point id -> self time in Cluster::run
    point_self = {}  # point id -> summed self time of all its spans
    for sid, s in by_id.items():
        point_self[s["point"]] = point_self.get(s["point"], 0.0) + selfs[sid]
        if s["name"] == "ps.run":
            per_point_run[s["point"]] = selfs[sid]
        if s["point"] in base_ids:
            layer_s[s["name"]] += selfs[sid]
    gap = max(abs(point_self.get(p["id"], 0.0) - p["wall_s"]) for p in points)

    def total(key):
        return sum(p["counters"][key] for p in base)

    worker_iters = sum(p["workers"] * p["iters"] for p in base)
    events = total("events")
    sim_s = layer_s["ps.run"] + layer_s["ps.drain"]
    traced = [p for p in base if p["traced"]]
    twins = {p["twin_of"]: p for p in points if p["twin_of"] and p["counters"]}
    paired = [p for p in traced if p["point"] in twins]
    twin_run = sum(per_point_run[twins[p["point"]]["id"]] for p in paired)
    m = {
        "model.build_s": layer_s["model.build"],
        "ps.construct_s": layer_s["ps.construct"],
        "ps.run_s": layer_s["ps.run"],
        "ps.drain_s": layer_s["ps.drain"],
        "ps.destroy_s": layer_s["ps.destroy"],
        "ps.pushes_per_iter": total("pushes") / worker_iters,
        "ps.params_per_iter": total("params") / worker_iters,
        "ps.notifies_per_iter": total("notifies") / worker_iters,
        "ps.pulls_per_iter": total("pulls") / worker_iters,
        "ps.retransmits": total("retransmits"),
        "ps.timeouts_fired": total("timeouts_fired"),
        "ps.heartbeats_sent": total("heartbeats_sent"),
        "ps.failovers": total("failovers"),
        "ps.goodput_ratio": total("goodput_bytes") / max(1, total("wire_bytes")),
        "sim.events": events,
        "sim.events_per_iter": events / worker_iters,
        "sim.events_per_s": events / sim_s if sim_s > 0 else 0.0,
        "sim.events_per_msg": events / max(1, total("msgs_delivered")),
        "net.msgs_per_iter": total("msgs_posted") / worker_iters,
        "net.remote_bytes_per_iter": total("remote_bytes") / worker_iters,
        "net.msgs_dropped": total("msgs_dropped"),
        "net.uplink_overtakes": total("uplink_overtakes"),
        "net.tor_uplink_bytes": total("tor_uplink_bytes"),
        "obs.trace_events": total("trace_events"),
        "obs.trace_overhead": (
            sum(per_point_run[p["id"]] for p in paired) / twin_run - 1.0
            if twin_run > 0 else 0.0),
        "obs.trace_rss_mib": max(
            (p["counters"]["rss_growth_mib"]
             - twins[p["point"]]["counters"]["rss_growth_mib"]
             for p in paired), default=0.0),
        "obs.critpath_s": layer_s["obs.critpath"],
        "obs.critpath_events_per_s": (
            total("critpath_events") / layer_s["obs.critpath"]
            if layer_s["obs.critpath"] > 0 else 0.0),
        "obs.destroy_s": layer_s["obs.destroy"],
        "bench.self_s": layer_s["point"],
        "bench.selftime_gap_s": gap,
    }
    # The scale ladder's points, one by one: where the deep heap shows.
    for method in ("baseline", "p3"):
        for n in (32, 64, 128):
            name = f"{method}.n{n}"
            p = next((q for q in base if q["point"] == name), None)
            run_s, epi = 0.0, 0.0
            if p is not None:
                run_s = per_point_run.get(p["id"], 0.0)
                epi = p["counters"]["events"] / (p["workers"] * p["iters"])
            m[f"ladder.{name}.ps.run_s"] = run_s
            m[f"ladder.{name}.sim.events_per_iter"] = epi
    return m, gap


def medians(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# -------------------------------------------------------------- provenance

def provenance(summary, seed, workload):
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(BENCH_DIR.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": summary["nproc"],
        "compiler": summary["compiler"],
        "compiler_flags": summary["flags"],
        "build_type": summary["build_type"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def load_units():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="scaled-down workloads (self-test)")
    ap.add_argument("--golden", type=Path, default=GOLDEN,
                    help="golden file to check outputs against")
    ap.add_argument("--update-golden", action="store_true",
                    help="run one pass at the golden seed and store its "
                         "outputs as the workload's goldens")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    e2e_units, layer_units = load_units()
    build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    golden = {}
    if args.golden.exists():
        with open(args.golden) as f:
            golden = json.load(f)["points"]

    if args.update_golden:
        points, _, _ = run_pass(args.workload, GOLDEN_SEED, args.tiny, None)
        for p in points:
            if p["outputs"] is None:
                raise SystemExit(f"{p['point']} failed: {p['error']}")
            golden[golden_key(args.workload, args.tiny, p)] = p["outputs"]
        with open(args.golden, "w") as f:
            json.dump({"seed": GOLDEN_SEED,
                       "points": dict(sorted(golden.items()))}, f, indent=1)
            f.write("\n")
        log(f"stored {len(points)} goldens in {args.golden}")
        return

    tag = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}"
    span_path = RESULTS_DIR / f"{tag}.spans.jsonl"
    passes = []
    attempted = 0
    failures = []
    start = time.monotonic()
    durations = []
    # Trace runs alternate traced and untraced passes (at least one of each)
    # so the benchmark's own tracing cost can be read off the difference;
    # each traced/untraced pair runs the same inputs.
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 0
        seed = pass_seed(args.seed, len(passes) // (1 + args.trace))
        t0 = time.monotonic()
        points, summary, spans = run_pass(args.workload, seed, args.tiny,
                                          span_path if traced else None)
        durations.append(time.monotonic() - t0)
        attempted += len(points)
        failures += [f"seed {seed} {msg}" for msg in check_points(
            points, args.workload, seed, args.tiny, golden)]
        passes.append({"traced": traced, "seed": seed, "points": points,
                       "summary": summary, "spans": spans})
        # Start another pass only if a typical one still ends in time.
        elapsed = time.monotonic() - start
        enough = args.trace == 0 or len(passes) >= 2
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break

    if args.trace == 0:
        metrics = end_to_end(passes)
        metrics["ok_share"] = 1.0 - len(failures) / attempted
        units = e2e_units
    else:
        rows = []
        for p in passes:
            if p["traced"]:
                row, gap = per_layer(p["points"], p["spans"])
                if gap > 1e-6:
                    raise SystemExit(f"span self times miss a point's wall "
                                     f"time by {gap} s")
                rows.append(row)
        metrics = medians(rows)

        def common_wall(p):
            return sum(q["wall_s"] for q in p["points"] if not q["twin_of"])
        on = statistics.median(common_wall(p) for p in passes if p["traced"])
        off = statistics.median(common_wall(p) for p in passes
                                if not p["traced"])
        metrics["bench.trace_overhead"] = on / off - 1.0
        units = layer_units
    failed = len(failures)

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit("metrics not produced: " + ", ".join(missing))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    record = {
        "provenance": provenance(passes[-1]["summary"], args.seed,
                                 args.workload),
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "failures": failures,
        "result": result,
        "passes": [{k: p[k] for k in ("seed", "traced", "summary", "points")}
                   for p in passes],
    }
    result_path = RESULTS_DIR / f"{tag}-trace{args.trace}.json"
    with open(result_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for msg in failures:
        log("FAIL " + msg)
    log(f"{len(passes)} passes, {attempted} points, {failed} failed; "
        f"record in {result_path.relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
