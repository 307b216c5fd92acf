"""Repeat the benchmark over several seeds and report how steady it is.

    python3 bench/steady.py [--seeds 1-10] [--traced-seed N] [--out FILE]
        [--compare FILE]

Runs bench/run.py once per (workload, seed) with tracing off, for every
workload of BENCHMARK.json and its run_seconds, then, with --traced-seed,
one traced run per workload. For every end-to-end metric it prints the
median and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound from BENCHMARK.json. The traced run adds the per-layer figures and
the tracing overhead (trace.op_p50_ms over the untraced op_p50_ms median,
minus one). --out writes every value to FILE, so a later commit can be
compared with this one; --compare reads such a file, refuses it if its
runs were of another length, and flags every metric whose median here is
worse than there by more than its bound, and every calls_per_op count
that differs. Exits 1 if a run failed its output checks or a comparison
flagged something, 2 if the baseline does not fit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "exit": proc.returncode, "metrics": {}}
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def compare(old: dict, new: dict, bounds: dict, better: dict) -> bool:
    """Print how `new` moved against `old`; False if anything regressed."""
    ok = True
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        for name, now in entry["end_to_end"].items():
            if name not in before["end_to_end"]:
                continue
            then = before["end_to_end"][name]["median"]
            change = now["median"] / then - 1
            worse = change if better[name] == "lower" else -change
            flag = "REGRESSED" if worse > bounds[name] else "ok"
            ok = ok and flag == "ok"
            print(f"  {workload:<10} {name:<12} {then:<12.6g} -> {now['median']:<12.6g}"
                  f" {change:+7.2%}  bound {bounds[name]:.0%}  {flag}")
        layers_then = before.get("per_layer", {}).get("metrics", {})
        layers_now = entry.get("per_layer", {}).get("metrics", {})
        for name, value in layers_now.items():
            if name.endswith(".calls_per_op") and name in layers_then and layers_then[name] != value:
                ok = False
                print(f"  {workload:<10} {name}: {layers_then[name]} -> {value}  COUNT CHANGED")
    return ok


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    baseline = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            baseline = json.load(fh)
        if baseline["seconds"] != seconds:
            print(f"error: {args.compare} holds {baseline['seconds']} s runs, "
                  f"BENCHMARK.json asks for {seconds} s", file=sys.stderr)
            return 2
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record: dict = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seconds": seconds, "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for seed in seeds_from(args.seeds):
            result = run_once(workload, seed, seconds, 0)
            ok = ok and result["correct"] and result["exit"] == 0
            runs[seed] = result
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs.values() if name in r["metrics"]]
            if len(values) < 2:
                continue
            median, share = spread(values)
            summary[name] = {"median": median, "spread": share, "values": values}
            flag = "ok" if share < bound / 3 else ("WITHIN BOUND" if share <= bound else "TOO WIDE")
            print(f"  {workload:<10} {name:<12} median {median:<12.6g} spread {share:7.2%}"
                  f"  bound {bound:.0%}  {flag}", flush=True)
        entry = {"end_to_end": summary,
                 "attempted": {s: r.get("attempted") for s, r in runs.items()},
                 "failed": {s: r.get("failed") for s, r in runs.items()}}
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, seconds, 1)
            ok = ok and traced["correct"] and traced["exit"] == 0
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer"] = {"seed": args.traced_seed, "metrics": layers}
            if "op_p50_ms" in summary and "trace.op_p50_ms" in layers:
                overhead = layers["trace.op_p50_ms"] / summary["op_p50_ms"]["median"] - 1
                entry["per_layer"]["tracing_overhead"] = overhead
                print(f"  {workload:<10} tracing overhead on op_p50_ms: {overhead:+.1%}", flush=True)
        record["workloads"][workload] = entry
    if baseline is not None:
        ok = compare(baseline, record, bounds, better) and ok
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
