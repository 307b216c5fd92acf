"""Layered loopback benchmark for tokenledger (stdlib only).

    python3 bench/run.py --workload {transfer,replicate,audit,all} \\
        --seed N --seconds S [--trace {0,1}]

Run from the root of a checkout. The package is imported from src/ and
servers are started with `python -m tokenledger.cli serve`; nothing is
installed and nothing under src/ is changed. Traffic stays on loopback.
Every file goes to a fresh directory under .bench_tmp/ in the checkout,
removed at the end.

The workloads are described in workloads.py. A run sets its workload up
several times (the workload's setup_repeats; every set-up but the last is
undone), runs ops in a closed loop for --seconds on the last one, then
checks the outputs. The lines before the last print every figure with its
unit and sample count; the last line is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, the same five on every workload:

    setup_s     median wall time of the run's set-ups
    op_p50_ms   latency of one op: a whole transfer (transfer); ADD on A
                until visible on B (replicate); one replay plus verify_all
                pass over the database (audit)
    op_p99_ms   99th percentile of the same, over every successful op
    ops_per_s   ops completed per second
    rss_mb      resident memory of the process holding the ledger after a
                fixed number of ops (the larger of A and B on replicate);
                for audit, the growth caused by the first load

op_p50_ms and ops_per_s are medians over CHUNKS chunks of consecutive ops,
so that a brief stall of a shared machine moves one chunk rather than the
whole run. A tail needs every op, so op_p99_ms is taken over all of them.
The figures each workload names for itself (transfer_p50_ms, add_p50_ms,
visible_p50_ms, replay_records_per_s, verify_records_per_s, failed_ratio,
...) are taken over all ops and printed above the JSON line.

--trace 1 is a separate run with spans at every layer boundary, in the
client and in the servers (bench/launcher.py stands in for `serve`). It
reports the per-layer metrics of tracing.per_layer and trace.op_p50_ms,
the op_p50_ms of the traced run: its excess over the untraced op_p50_ms
is the cost of tracing.

--workload all runs the three workloads one after another, each in its own
process, and prints all their figures.

Exit code: 0 when every output check passed, 1 when one failed, 2 when the
run could not start (for example, when there is no src/ to import).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
WORKLOAD_NAMES = ("transfer", "replicate", "audit")
MAX_FAILURE_REPORTS = 3
CHUNKS = 20


@dataclass
class Timed:
    """What the timed loop saw."""

    latencies: list[float] = field(default_factory=list)  # seconds, successful ops
    ends: list[float] = field(default_factory=list)  # perf_counter at each one's end
    window: tuple[int, int] = (0, 0)  # perf_counter_ns at the start and end of the loop
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.ends[-1] - self.window[0] / 1e9 if self.ends else 0.0

    def chunk_medians(self) -> tuple[float, float]:
        """Cut the ops into at most CHUNKS chunks of consecutive ops; the
        median over chunks of their p50 (ms) and of their ops/s."""
        from workloads import percentile

        n = len(self.latencies)
        k = min(CHUNKS, n)
        if not k:
            return float("nan"), 0.0
        cuts = [round(j * n / k) for j in range(k + 1)]
        p50s, rates = [], []
        prev = self.window[0] / 1e9
        for a, b in zip(cuts, cuts[1:]):
            p50s.append(percentile(self.latencies[a:b], 50) * 1e3)
            rates.append((b - a) / (self.ends[b - 1] - prev))
            prev = self.ends[b - 1]
        return statistics.median(p50s), statistics.median(rates)


def _fs_type(path: str) -> str:
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
                best, fstype = mount, fields[2]
    return fstype


def environment(workdir: str, wl) -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "tmp_fs": _fs_type(os.path.realpath(workdir)),
        "traffic": "loopback only",
        "flush_policy": "one fsync per accepted append (the server's own)",
        "tcp_nodelay": "unset (the server's default)",
        "client_processes": 1,
        "client_threads": threading.active_count(),
        "client_connections": wl.max_connections,
    }


def _line(name: str, value: float, unit: str, n: int) -> None:
    print(f"  {name:<38} {value:>14.6g} {unit:<6} (n={n})")


def timed_loop(wl, seconds: float, tracer) -> Timed:
    """Run ops for `seconds` (at least one op)."""
    t = Timed()
    start_ns = time.perf_counter_ns()
    deadline = start_ns / 1e9 + seconds
    i = 0
    while (i == 0 or time.perf_counter() < deadline) and wl.has_op(i):
        if tracer is not None:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            wl.op(i)
        except Exception:  # any failure of the system under test counts against it
            t.failed += 1
            if len(t.errors) < MAX_FAILURE_REPORTS:
                t.errors.append(traceback.format_exc())
        else:
            done = time.perf_counter()
            t.latencies.append(done - t0)
            t.ends.append(done)
        i += 1
        if i == wl.rss_after_ops:
            wl.note_rss()
    t.attempted = i
    t.window = (start_ns, time.perf_counter_ns())
    if i < wl.rss_after_ops:
        wl.note_rss()
    return t


def end_to_end(wl, setup_times: list[float], t: Timed) -> dict[str, tuple[float, str]]:
    from workloads import percentile

    p50, rate = t.chunk_medians()
    p99 = percentile(t.latencies, 99) * 1e3
    ok = len(t.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "op_p50_ms": (p50, "ms", ok),
        "op_p99_ms": (p99, "ms", ok),
        "ops_per_s": (rate, "1/s", ok),
        "rss_mb": (float(wl.facts.get("rss_mb", float("nan"))), "MB", 1),
    }
    print(f"{wl.name}: end to end")
    _line("failed_ratio", t.failed / max(t.attempted, 1), "ratio", t.attempted)
    for name, value, unit, n in wl.figures(t.latencies, t.seconds):
        _line(name, value, unit, n)
    print(f"{wl.name}: metrics of the JSON line (op_p50_ms and ops_per_s: medians over {CHUNKS} chunks)")
    for name, (value, unit, n) in metrics.items():
        _line(name, value, unit, n)
    return {name: (value, unit) for name, (value, unit, _n) in metrics.items()}


def per_layer(wl, span_paths: list[str], t: Timed) -> dict[str, tuple[float, str]]:
    import tracing

    figures, outcomes = tracing.per_layer(
        span_paths, t.window, t.attempted, wl.client_targets,
        wl.added_by_client, wl.records_replayed, wl.polls)
    figures["trace.op_p50_ms"] = t.chunk_medians()[0]
    print(f"{wl.name}: per layer (traced run, {t.attempted} ops)")
    for name, value in figures.items():
        _line(name, value, tracing.unit_of(name), t.attempted)
    for key, count in sorted(outcomes.items()):
        _line(f"store.append outcome {key}", count, "count", t.attempted)
    return {name: (value, tracing.unit_of(name)) for name, value in figures.items()}


def run(args) -> int:
    from workloads import WORKLOADS

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    traced = args.trace == 1
    wl = WORKLOADS[args.workload](workdir, args.seed, traced)
    tracer = None
    try:
        setup_times = []
        for k in range(wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            if k < wl.setup_repeats - 1:
                wl.teardown()
        if traced:
            import tracing

            tracer = tracing.Tracer("client")
            tracing.install(tracer, server=False)
            wl.tracer = tracer
        env = environment(workdir, wl)
        t = timed_loop(wl, args.seconds, tracer)
        if tracer is not None:
            tracer.enabled = False
        try:
            wl.finish()
        except Exception:
            t.errors.append("end-of-run check failed:\n" + traceback.format_exc())
        for err in t.errors:
            print(err, file=sys.stderr)
        print("env " + json.dumps(env, sort_keys=True))
        if traced:
            client_spans = os.path.join(workdir, "client.spans")
            tracer.dump(client_spans)
            metrics = per_layer(wl, wl.servers.spans + [client_spans], t)
        else:
            metrics = end_to_end(wl, setup_times, t)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(tmp_root)
    correct = not t.errors
    print(json.dumps({
        "correct": correct,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=600,
        )
        worst = max(worst, proc.returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        import tokenledger  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import tokenledger from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
