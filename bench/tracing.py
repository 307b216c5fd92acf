"""Spans for the traced benchmark run, and the per-layer figures made from them.

A span is (name, start, end, parent, op id). Spans live in memory as
parallel arrays, so a long traced run costs about 32 bytes per span, and
are written to one file per process when that process ends. Spans nest per
thread: a span opened while another is open on the same thread is its
child, and a span's self time is its duration minus that of its children.
Spans of one request share its op id: the client sets the op id of each
workload op, and a server span with no parent opens a request whose id is
its own index.

The wrappers are installed from the benchmark's own code; nothing under
src/ changes. `install` rebinds each traced function in every tokenledger
module that imported it by name, so calls between layers are traced too.
"""
from __future__ import annotations

import array
import json
import os
import sys
import threading
import time

# (module, attribute, span name) of every plain function that is traced.
FUNCTIONS = (
    ("tokenledger.hashing", "canonical_hash", "hashing.canonical_hash"),
    ("tokenledger.hashing", "is_digest", "hashing.is_digest"),
    ("tokenledger.chain", "parse_record", "chain.parse_record"),
    ("tokenledger.chain", "verify_link", "chain.verify_link"),
    ("tokenledger.wallet", "recipient_offer", "wallet.recipient_offer"),
    ("tokenledger.wallet", "sender_publish_half", "wallet.sender_publish_half"),
    ("tokenledger.wallet", "recipient_counter", "wallet.recipient_counter"),
    ("tokenledger.wallet", "sender_publish_next", "wallet.sender_publish_next"),
    ("tokenledger.wallet", "recipient_finish", "wallet.recipient_finish"),
    ("tokenledger.wallet", "owns", "wallet.owns"),
)

VERBS = ("ADD", "GET", "GETCHAIN", "GETHEAD")
WALLET_FNS = tuple(attr for module, attr, _name in FUNCTIONS if module == "tokenledger.wallet")
# Work done to answer the benchmark's own visibility polls: its amount
# depends on timing, so it is left out of the hashing and chain figures.
POLL_ROOT = "network.handle_line.GET"


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, label: str):
        self.label = label
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.meta: dict[str, object] = {}
        self.current_op = -1  # set by a client around each workload op
        self.enabled = True  # cleared to stop recording, e.g. for end-of-run checks
        self._lock = threading.Lock()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def mark(self, name: str) -> None:
        """A zero-length span: counts an event where it happens."""
        self.close(self.open(self.name_id(name)))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, nid: int) -> int:
        """Start a span and return its index, or -1 while recording is off."""
        if not self.enabled:
            return -1
        stack = self._stack()
        with self._lock:
            idx = len(self.name)
            if stack:
                parent = stack[-1]
                op = self.op[parent]
            else:
                parent = -1
                op = self.current_op if self.current_op >= 0 else idx
            self.name.append(nid)
            self.parent.append(parent)
            self.op.append(op)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if idx >= 0:
            self.end[idx] = time.perf_counter_ns()
            self._stack().pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def dump(self, path: str) -> None:
        header = {
            "label": self.label,
            "names": self.names,
            "n": len(self.name),
            "meta": self.meta,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.op, self.start, self.end):
                column.tofile(fh)


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self) -> "_Span":
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.idx)


def _rebind(original, replacement) -> None:
    """Point every tokenledger module global that names `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if modname != "tokenledger" and not modname.startswith("tokenledger."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, server: bool) -> None:
    """Trace the layer boundaries in this process.

    Always: the hashing, chain and wallet functions in FUNCTIONS, and
    Ledger.append with its outcome. With server=True also
    LedgerServer.handle_line by verb, os.fsync, and the connections that
    notifier threads open.
    """
    import tokenledger.network as network
    import tokenledger.store as store

    for modname, attr, name in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        _rebind(original, tracer.wrap(name, original))

    def count_outcome(result) -> None:
        key = result.status if result.reason is None else f"{result.status}.{result.reason}"
        tracer.mark(f"store.append.outcome.{key}")

    store.Ledger.append = tracer.wrap("store.append", store.Ledger.append, count_outcome)
    if not server:
        return

    os.fsync = tracer.wrap("store.fsync", os.fsync)
    handle_line = network.LedgerServer.handle_line
    verb_ids = {verb: tracer.name_id(f"network.handle_line.{verb}") for verb in VERBS}
    other_id = tracer.name_id("network.handle_line.other")

    def traced_handle_line(self, line):
        idx = tracer.open(verb_ids.get(line.partition(" ")[0], other_id))
        try:
            return handle_line(self, line)
        finally:
            tracer.close(idx)

    network.LedgerServer.handle_line = traced_handle_line

    class CountingClient(network.WireClient):
        def __init__(self, *args, **kwargs):
            if threading.current_thread().name.startswith("notify-"):
                with tracer.span("network.notify.connect"):
                    super().__init__(*args, **kwargs)
            else:
                super().__init__(*args, **kwargs)

    _rebind(network.WireClient, CountingClient)


def unit_of(metric: str) -> str:
    if metric.endswith((".us", "_us", ".us_per_record")):
        return "us"
    if metric.endswith((".ms", "_ms")):
        return "ms"
    return "count"


# -- aggregation ---------------------------------------------------------------


class _Loaded:
    """One process's spans, reduced to per-name totals.

    Only requests (root spans) that start inside the timed window count,
    so set-up work such as readiness pings and replicate's genesis records
    is left out.
    """

    def __init__(self, path: str, window: tuple[int, int]):
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["n"]
            columns = []
            for typecode in ("i", "i", "q", "q", "q"):
                column = array.array(typecode)
                column.fromfile(fh, n)
                columns.append(column)
        self.label: str = header["label"]
        self.meta: dict[str, object] = header["meta"]
        names: list[str] = header["names"]
        name, parent, _op, start, end = columns
        lo, hi = window
        poll_id = names.index(POLL_ROOT) if POLL_ROOT in names else -2
        child_ns = [0] * n
        timed = [False] * n
        in_poll = [False] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
                timed[i] = timed[p]
                in_poll[i] = in_poll[p]
            else:
                timed[i] = lo <= start[i] < hi
                in_poll[i] = name[i] == poll_id
        # per name: [calls, total ns, self ns], all spans and outside polls
        self.all: dict[str, list[int]] = {}
        self.no_poll: dict[str, list[int]] = {}
        for i in range(n):
            if not timed[i]:
                continue
            dur = end[i] - start[i]
            for table, skip in ((self.all, False), (self.no_poll, in_poll[i])):
                if skip:
                    continue
                row = table.setdefault(names[name[i]], [0, 0, 0])
                row[0] += 1
                row[1] += dur
                row[2] += dur - child_ns[i]


def _sum(rows: list[list[int]]) -> list[int]:
    return [sum(col) for col in zip(*rows)] if rows else [0, 0, 0]


def per_layer(paths: list[str], window: tuple[int, int], ops: int,
              client_targets: dict[str, list[str]], added_by_client: int,
              records_replayed: int, polls: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer figures from the span files of one traced run, and the
    count of append outcomes by status and reason.

    client_targets maps each verb the client sent to the labels of the
    servers it sent it to; wire_wait for a verb is the client's round trip
    minus the handle_line time of those same requests.
    """
    loaded = [_Loaded(p, window) for p in paths]
    ops = max(ops, 1)

    def rows(table: str, name: str, labels=None) -> list[int]:
        return _sum([
            getattr(lp, table)[name] for lp in loaded
            if name in getattr(lp, table) and (labels is None or lp.label in labels)
        ])

    def count(prefix: str) -> int:
        return sum(row[0] for lp in loaded for k, row in lp.all.items() if k.startswith(prefix))

    out: dict[str, float] = {}
    for name in ("hashing.canonical_hash", "hashing.is_digest",
                 "chain.parse_record", "chain.verify_link"):
        calls, _total, self_ns = rows("no_poll", name)
        out[f"{name}.calls_per_op"] = calls / ops
        out[f"{name}.self_us"] = self_ns / calls / 1e3 if calls else 0.0

    appends, _total, self_ns = rows("all", "store.append")
    out["store.append.self_us"] = self_ns / appends / 1e3 if appends else 0.0
    for status in ("added", "duplicate", "rejected"):
        out[f"store.append.outcome.{status}"] = count(f"store.append.outcome.{status}") / ops
    fsyncs, fsync_ns, _self = rows("all", "store.fsync")
    out["store.fsync.us"] = fsync_ns / fsyncs / 1e3 if fsyncs else 0.0
    out["store.fsync.per_append"] = fsyncs / appends if appends else 0.0
    _n, replay_ns, _self = rows("all", "store.replay")
    out["store.replay.us_per_record"] = (
        replay_ns / records_replayed / 1e3 if records_replayed else 0.0
    )

    for verb in VERBS:
        targets = client_targets.get(verb, [])
        sent, client_ns, _self = rows("all", f"network.client.{verb}")
        _h, handle_ns, _self = rows("all", f"network.handle_line.{verb}", targets)
        handled = _h if targets else 0
        out[f"network.client.{verb}.ms"] = client_ns / sent / 1e6 if sent else 0.0
        out[f"network.handle_line.{verb}.us"] = handle_ns / handled / 1e3 if handled else 0.0
        out[f"network.wire_wait.{verb}.ms"] = (
            (client_ns - handle_ns) / sent / 1e6 if sent and targets else 0.0
        )

    out["network.notify.connections_per_record"] = (
        count("network.notify.connect") / added_by_client if added_by_client else 0.0
    )
    out["network.notify.dropped"] = float(sum(int(lp.meta.get("notify_dropped", 0)) for lp in loaded))
    out["network.notify.backlog_end"] = float(sum(int(lp.meta.get("notify_backlog", 0)) for lp in loaded))
    out["network.visible.polls_per_record"] = polls / added_by_client if added_by_client else 0.0

    for fn in WALLET_FNS:
        calls, _total, self_ns = rows("all", f"wallet.{fn}")
        out[f"wallet.{fn}.self_us"] = self_ns / calls / 1e3 if calls else 0.0

    outcomes: dict[str, int] = {}
    for lp in loaded:
        for key, row in lp.all.items():
            if key.startswith("store.append.outcome."):
                key = key[len("store.append.outcome."):]
                outcomes[key] = outcomes.get(key, 0) + row[0]
    return out, outcomes
