"""`tokenledger serve` processes for the benchmark.

Each server is started from the checkout's src/ (the package need not be
installed), binds an ephemeral loopback port, and counts as ready when it
prints its `listening on` line. Stopping sends SIGTERM, waits, and kills
a server that has not ended; `ServerSet.stop_all` does this on every exit
path of a run.
"""
from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0


def rss_mb(pid: int) -> float:
    """Resident set size of a process, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


class Server:
    def __init__(self, proc: subprocess.Popen, label: str, db: str):
        self.proc = proc
        self.label = label
        self.db = db
        self.address = ""

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        buf = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buf += chunk
            for line in buf.decode("utf-8", "replace").splitlines():
                if line.startswith("listening on "):
                    self.address = line[len("listening on "):].strip()
                    return
        raise RuntimeError(f"server {self.label} did not report ready: {buf!r}")

    def rss_mb(self) -> float:
        return rss_mb(self.proc.pid)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


class ServerSet:
    """Every server of one benchmark run, so all are stopped on exit."""

    def __init__(self, workdir: str, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.servers: list[Server] = []
        self.spans: list[str] = []  # span files of every server started
        self._n = 0

    def start(self, label: str, peers: tuple[str, ...] = ()) -> Server:
        self._n += 1
        tag = f"{label}{self._n}"
        db = os.path.join(self.workdir, f"{tag}.db")
        serve_args = ["--db", db, "--listen", "127.0.0.1:0"]
        if peers:
            serve_args += ["--peers", ",".join(peers)]
        if self.traced:
            spans = os.path.join(self.workdir, f"{tag}.spans")
            self.spans.append(spans)
            argv = [sys.executable, os.path.join(BENCH_DIR, "launcher.py"),
                    "--spans", spans, "--label", label, "--", *serve_args]
        else:
            argv = [sys.executable, "-m", "tokenledger.cli", "serve", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONUNBUFFERED"] = "1"
        with open(os.path.join(self.workdir, f"{tag}.stderr"), "wb") as err:
            proc = subprocess.Popen(
                argv, cwd=self.workdir, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err,
            )
        server = Server(proc, label, db)
        self.servers.append(server)
        server.wait_ready()
        return server

    def stop(self, server: Server) -> int:
        self.servers.remove(server)
        return server.stop()

    def stop_all(self) -> None:
        while self.servers:
            self.stop(self.servers[-1])
