"""Traced stand-in for `tokenledger serve`.

Usage: python3 bench/launcher.py --spans FILE --label NAME -- <serve arguments>

Installs the span wrappers, then runs the package's own `serve` command
with the given arguments, so the server builds exactly the Ledger and
LedgerServer that `tokenledger serve` builds. Just before the server shuts
down it reads the notifier's dropped and backlog counts. When `serve`
returns (on SIGTERM) the spans are written to FILE.
"""
from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
from tokenledger import cli, network  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    tracer = tracing.Tracer(args.label)
    tracing.install(tracer, server=True)
    shutdown = network.LedgerServer.shutdown

    def traced_shutdown(self):
        tracer.meta["notify_dropped"] = self.notify_dropped()
        tracer.meta["notify_backlog"] = self.notify_backlog()
        shutdown(self)

    network.LedgerServer.shutdown = traced_shutdown
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
