"""The three benchmark workloads. Each is a closed loop from one process:
the client sends its next request only when the previous reply is in.

transfer   One `serve` process with the default config (sha256, m = 1,
           fsync before every ack, unlimited depth) and one client
           connection. One op is a full two-party transfer of a fresh
           token, making the library calls the CLI makes: create (ADD),
           offer (GETHEAD), finish with the offer (GETCHAIN, ADD), counter
           (GETCHAIN), finish with the counter (GETCHAIN, ADD) and the
           recipient's confirmation (GETCHAIN), then ownership and
           verify_chain checks. Chains stay short, so per-request wire cost
           and wallet hashing dominate.
replicate  Two `serve` processes, B the static peer of A, and one client
           connection to each. Set-up builds self-extension records for a
           pool of tokens, so the client does no hashing while timed.
           Records go out in seq-major order. One op is ADD on A, then GET
           polls on B until the record is visible there. No GETCHAIN is
           sent: this path is parse -> gate -> link check -> fsync, then
           the notifier fan-out to B.
audit      Offline, no sockets. Set-up writes a database with m = 2, a
           domain tag and a few tokens with long chains. One op is
           `Ledger(cfg, path)` replay followed by `verify_all()`: the
           "anyone can audit with only the database" use, under a
           non-default config.

Every input derives from the workload seed: tokens, passphrases and the
record pools. The checks that decide whether an op gave the right output
live here; a failed check raises `WrongOutput`.
"""
from __future__ import annotations

import contextlib
import math
import os
import random
import subprocess
import sys
import time

from tokenledger import chain, store, wallet
from tokenledger.chain import Record, TokenChain, serialize_record
from tokenledger.hashing import HashConfig
from tokenledger.network import WireClient

from servers import BENCH_DIR, ROOT, ServerSet, rss_mb

CLIENT_TIMEOUT_S = 10.0
VISIBLE_TIMEOUT_S = 5.0

REPLICATE_TOKENS = 64
# outlasts a 20 s run up to 3200 ops/s; the seed does about 2200
REPLICATE_RECORDS = 64_000
AUDIT_TOKENS = 16
AUDIT_CHAIN = 2000
AUDIT_CONFIG = HashConfig(generator_count=2, domain_tag="tokenledger-bench-audit")


class WrongOutput(Exception):
    """The program answered, but not with what the workload expected."""


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile, p in (0, 100]; NaN for no values."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _hex(rng: random.Random) -> str:
    return f"{rng.getrandbits(256):064x}"


def _passphrase(rng: random.Random) -> str:
    return f"pass-{rng.getrandbits(96):024x}"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


class Workload:
    """Set-up, one op, and the end-of-run checks of one workload."""

    name = ""
    # verb -> labels of the servers the client sends it to
    client_targets: dict[str, list[str]] = {}
    # setup_s is the median of this many set-ups; the last one is run on
    setup_repeats = 3
    # The runner calls note_rss() after this many ops (or at the end of a
    # shorter run): a closed loop does more ops on a faster system, and
    # memory grows with the records held, so a fixed point keeps runs
    # comparable. 0: the workload reads memory itself.
    rss_after_ops = 0

    def __init__(self, workdir: str, seed: int, traced: bool):
        self.workdir = workdir
        self.seed = seed
        self.servers = ServerSet(workdir, traced)
        self.tracer = None  # set by the runner once set-up is done
        self.samples: dict[str, list[float]] = {}
        self.facts: dict[str, object] = {}
        self.records_replayed = 0
        self.added_by_client = 0
        self.polls = 0
        self.open_connections = 0
        self.max_connections = 0

    def sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo one set-up, so that the next one starts from scratch."""
        self.servers.stop_all()
        self.servers.spans.clear()

    def has_op(self, i: int) -> bool:
        return True

    def op(self, i: int) -> None:
        raise NotImplementedError

    def note_rss(self) -> None:
        """Read the resident memory of the processes that hold the ledger."""

    def figures(self, latencies: list[float], timed_s: float) -> list[tuple[str, float, str, int]]:
        """This workload's own end-to-end figures: (name, value, unit, samples)."""
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks; servers are stopped here."""
        raise NotImplementedError

    def close(self) -> None:
        self.servers.stop_all()


class _Client:
    """A WireClient whose calls are spans named after their verb."""

    def __init__(self, workload: Workload, server):
        self.workload = workload
        self.label = server.label
        self.wire = WireClient(server.address, timeout=CLIENT_TIMEOUT_S)
        workload.open_connections += 1
        workload.max_connections = max(workload.max_connections, workload.open_connections)
        _expect(self.wire.ping(), f"{self.label}: PING did not answer pong")

    def call(self, verb: str, method: str, *args):
        with self.workload.span(f"network.client.{verb}"):
            return getattr(self.wire, method)(*args)

    def close(self) -> None:
        if self.wire is not None:
            self.wire.close()
            self.wire = None
            self.workload.open_connections -= 1


# -- transfer -----------------------------------------------------------------


class Transfer(Workload):
    name = "transfer"
    client_targets = {verb: ["server"] for verb in ("ADD", "GETCHAIN", "GETHEAD")}
    # a set-up is mostly the server's interpreter start, about 50 ms, whose
    # time varies by tens of percent on a shared machine
    setup_repeats = 15
    rss_after_ops = 40

    def __init__(self, workdir: str, seed: int, traced: bool):
        super().__init__(workdir, seed, traced)
        self.cfg = HashConfig()
        self.rng = random.Random(seed)
        self.client: _Client | None = None

    def setup(self) -> None:
        self.server = self.servers.start("server")
        self.client = _Client(self, self.server)

    def teardown(self) -> None:
        self.client.close()
        super().teardown()

    def _chain(self, token: str) -> TokenChain:
        lines = self.client.call("GETCHAIN", "getchain", token)
        return TokenChain(token=token, records=tuple(chain.parse_record(self.cfg, ln) for ln in lines))

    def _add(self, record: Record) -> None:
        response = self.client.call("ADD", "add", serialize_record(record))
        _expect(response == "OK added", f"ADD seq {record.seq}: {response}")

    def op(self, i: int) -> None:
        cfg, w = self.cfg, wallet
        token = _hex(self.rng)
        sender = w.KeyMaterial(cfg, token, _passphrase(self.rng))
        recipient = w.KeyMaterial(cfg, token, _passphrase(self.rng))
        self._add(w.genesis_record(cfg, token, sender))

        head_line = self.client.call("GETHEAD", "gethead", token)
        _expect(head_line is not None, "GETHEAD: token not found after genesis")
        head = chain.parse_record(cfg, head_line)
        offer, r_session = w.recipient_offer(cfg, token, head.seq, recipient)

        offer_msg = w.parse_transfer_message(cfg, offer.to_line())
        half, s_session = w.sender_publish_half(cfg, self._chain(token), sender, offer_msg)
        self._add(half)
        s_session.mark_published(half.seq)

        counter = w.recipient_counter(cfg, self._chain(token), recipient, r_session)

        counter_msg = w.parse_transfer_message(cfg, counter.to_line())
        final = w.sender_publish_next(cfg, self._chain(token), sender, s_session, counter_msg)
        self._add(final)
        s_session.mark_published(final.seq)

        final_chain = self._chain(token)
        _expect(w.recipient_finish(cfg, final_chain, recipient, r_session),
                "recipient does not see the transfer complete")
        _expect(s_session.phase == "complete", f"sender session is {s_session.phase}")
        _expect(len(final_chain) == 3, f"chain has {len(final_chain)} records, want 3")
        _expect(w.owns(cfg, final_chain, recipient), "recipient does not own the token")
        _expect(not w.owns(cfg, final_chain, sender), "sender still owns the token")
        _expect(chain.verify_chain(cfg, final_chain).ok, "verify_chain failed")

    def note_rss(self) -> None:
        self.facts["rss_mb"] = self.server.rss_mb()

    def figures(self, latencies, timed_s):
        n = len(latencies)
        return [
            ("transfer_p50_ms", percentile(latencies, 50) * 1e3, "ms", n),
            ("transfer_p99_ms", percentile(latencies, 99) * 1e3, "ms", n),
            ("transfers_per_s", n / timed_s if timed_s else 0.0, "1/s", n),
        ]

    def finish(self) -> None:
        self.client.close()
        code = self.servers.stop(self.server)
        _expect(code == 0, f"server exited with {code}")


# -- replicate ----------------------------------------------------------------


def replicate_pool(seed: int) -> tuple[list[str], list[tuple[str, int, str]]]:
    """Genesis lines of the pool's tokens, and (token, seq, record line) of
    every later record in seq-major order."""
    cfg = HashConfig()
    rng = random.Random(seed)
    per_token = REPLICATE_RECORDS // REPLICATE_TOKENS
    columns = []
    for _ in range(REPLICATE_TOKENS):
        token = _hex(rng)
        km = wallet.KeyMaterial(cfg, token, _passphrase(rng))
        record = wallet.genesis_record(cfg, token, km)
        lines = [serialize_record(record)]
        for _ in range(per_token):
            record = wallet.self_extend(cfg, TokenChain(token, (record,)), km)
            lines.append(serialize_record(record))
        columns.append((token, lines))
    genesis = [lines[0] for _token, lines in columns]
    pool = [(token, seq, lines[seq]) for seq in range(1, per_token + 1) for token, lines in columns]
    return genesis, pool


def _chains_in_file(path: str) -> dict[str, list[str]]:
    chains: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            chains.setdefault(line.split(" ", 2)[1], []).append(line)
    return chains


class Replicate(Workload):
    name = "replicate"
    client_targets = {"ADD": ["A"], "GET": ["B"]}
    rss_after_ops = 8_000

    def __init__(self, workdir: str, seed: int, traced: bool):
        super().__init__(workdir, seed, traced)
        self.a_client: _Client | None = None
        self.b_client: _Client | None = None

    def setup(self) -> None:
        self.genesis, self.pool = replicate_pool(self.seed)
        self.b = self.servers.start("B")
        self.a = self.servers.start("A", peers=(self.b.address,))
        self.a_client = _Client(self, self.a)
        self.b_client = _Client(self, self.b)
        # every op extends a chain, so each does the same work
        for line in self.genesis:
            token = line.split(" ", 2)[1]
            response = self.a_client.wire.add(line)
            _expect(response == "OK added", f"genesis ADD on A: {response}")
            self._wait_visible(token, 0, line)

    def teardown(self) -> None:
        self.a_client.close()
        self.b_client.close()
        super().teardown()

    def has_op(self, i: int) -> bool:
        return i < len(self.pool)

    def op(self, i: int) -> None:
        token, seq, line = self.pool[i]
        t0 = time.perf_counter()
        response = self.a_client.call("ADD", "add", line)
        t1 = time.perf_counter()
        _expect(response == "OK added", f"ADD on A, seq {seq}: {response}")
        self.added_by_client += 1
        self.polls += self._wait_visible(token, seq, line)
        t2 = time.perf_counter()
        self.sample("add", t1 - t0)
        self.sample("visible", t2 - t1)

    def _wait_visible(self, token: str, seq: int, line: str) -> int:
        """Poll B until it returns the record; the number of polls made."""
        deadline = time.perf_counter() + VISIBLE_TIMEOUT_S
        polls = 0
        while True:
            polls += 1
            got = self.b_client.call("GET", "get", token, seq)
            if got is not None:
                _expect(got == line, f"B holds other bytes at seq {seq}")
                return polls
            _expect(time.perf_counter() < deadline, f"seq {seq} not visible on B in time")

    def note_rss(self) -> None:
        self.facts["rss_mb_A"] = self.a.rss_mb()
        self.facts["rss_mb_B"] = self.b.rss_mb()
        self.facts["rss_mb"] = max(self.facts["rss_mb_A"], self.facts["rss_mb_B"])

    def figures(self, latencies, timed_s):
        add, vis = self.samples.get("add", []), self.samples.get("visible", [])
        return [
            ("add_p50_ms", percentile(add, 50) * 1e3, "ms", len(add)),
            ("add_p99_ms", percentile(add, 99) * 1e3, "ms", len(add)),
            ("visible_p50_ms", percentile(vis, 50) * 1e3, "ms", len(vis)),
            ("visible_p99_ms", percentile(vis, 99) * 1e3, "ms", len(vis)),
            ("adds_per_s", len(latencies) / timed_s if timed_s else 0.0, "1/s", len(latencies)),
            ("rss_mb_A", self.facts.get("rss_mb_A", float("nan")), "MB", 1),
            ("rss_mb_B", self.facts.get("rss_mb_B", float("nan")), "MB", 1),
        ]

    def finish(self) -> None:
        """Stop the pair and check that B holds exactly A's chains."""
        self.a_client.close()
        self.b_client.close()
        for server in (self.a, self.b):
            code = self.servers.stop(server)
            _expect(code == 0, f"server {server.label} exited with {code}")
        a_chains, b_chains = _chains_in_file(self.a.db), _chains_in_file(self.b.db)
        held = sum(len(c) for c in a_chains.values())
        _expect(held == len(self.genesis) + self.added_by_client,
                f"A's file holds {held} records, the client added {self.added_by_client}")
        _expect(a_chains == b_chains, "A's and B's chains differ")


# -- audit --------------------------------------------------------------------


def write_audit_db(path: str, seed: int) -> None:
    """Write the audit database: AUDIT_TOKENS chains of AUDIT_CHAIN records,
    seq-major, as a server that accepted them would have."""
    cfg = AUDIT_CONFIG
    rng = random.Random(seed)
    columns = []
    for _ in range(AUDIT_TOKENS):
        token = _hex(rng)
        km = wallet.KeyMaterial(cfg, token, _passphrase(rng))
        record = wallet.genesis_record(cfg, token, km)
        lines = [serialize_record(record)]
        for _ in range(1, AUDIT_CHAIN):
            record = wallet.self_extend(cfg, TokenChain(token, (record,)), km)
            lines.append(serialize_record(record))
        columns.append(lines)
    with open(path, "w", encoding="utf-8") as fh:
        for seq in range(AUDIT_CHAIN):
            for lines in columns:
                fh.write(lines[seq] + "\n")


def _rss_self_mb() -> float:
    return rss_mb(os.getpid())


class Audit(Workload):
    name = "audit"

    def setup(self) -> None:
        self.path = os.path.join(self.workdir, "audit.db")
        # written by a child process, so that its garbage cannot be reused
        # by the loads measured here and hide their memory growth
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((BENCH_DIR, os.path.join(ROOT, "src"))))
        code = "import sys, workloads; workloads.write_audit_db(sys.argv[1], int(sys.argv[2]))"
        subprocess.run([sys.executable, "-c", code, self.path, str(self.seed)],
                       cwd=self.workdir, env=env, check=True, timeout=120)
        self.expected = AUDIT_TOKENS * AUDIT_CHAIN

    def teardown(self) -> None:
        os.remove(self.path)

    def op(self, i: int) -> None:
        # memory: the growth caused by the first load
        before = _rss_self_mb() if i == 0 else 0.0
        t0 = time.perf_counter()
        with self.span("store.replay"):
            ledger = store.Ledger(AUDIT_CONFIG, self.path)
        t1 = time.perf_counter()
        reports = ledger.verify_all()
        t2 = time.perf_counter()
        if i == 0:
            self.facts["rss_mb"] = _rss_self_mb() - before
        try:
            records = sum(len(ledger.get_chain(t)) for t in ledger.tokens())
            _expect(records == self.expected, f"replayed {records} records, wrote {self.expected}")
            _expect(len(reports) == AUDIT_TOKENS and all(r.ok for r in reports.values()),
                    "verify_all reported a failure")
        finally:
            ledger.close()
        self.records_replayed += records
        self.sample("replay", t1 - t0)
        self.sample("verify", t2 - t1)

    def figures(self, latencies, timed_s):
        replay, verify = self.samples.get("replay", []), self.samples.get("verify", [])
        per_pass = self.records_replayed / max(len(replay), 1)
        return [
            ("replay_records_per_s", self.records_replayed / sum(replay) if replay else 0.0, "1/s", len(replay)),
            ("verify_records_per_s", self.records_replayed / sum(verify) if verify else 0.0, "1/s", len(verify)),
            ("records_per_pass", per_pass, "count", len(replay)),
        ]

    def finish(self) -> None:
        self._negative_control()

    def _negative_control(self) -> None:
        """A copy with one owner digest flipped must fail to load, at the
        line of the next record of that token (whose link it breaks)."""
        rng = random.Random(self.seed ^ 0x5EED)
        flip_line = rng.randrange(1, AUDIT_TOKENS * (AUDIT_CHAIN // 8))
        bad_path = self.path + ".flipped"
        with open(self.path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        fields = lines[flip_line - 1].split(" ")
        owner = 3 + AUDIT_CONFIG.generator_count
        fields[owner] = ("0" if fields[owner][0] != "0" else "1") + fields[owner][1:]
        lines[flip_line - 1] = " ".join(fields)
        with open(bad_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        want_line = flip_line + AUDIT_TOKENS
        try:
            store.Ledger(AUDIT_CONFIG, bad_path).close()
        except store.LoadError as exc:
            _expect(exc.line_no == want_line and "bad-O" in str(exc),
                    f"flipped owner: LoadError {exc}, want line {want_line} bad-O")
        else:
            raise WrongOutput("a database with a flipped owner digest loaded cleanly")
        finally:
            os.remove(bad_path)


WORKLOADS = {w.name: w for w in (Transfer, Replicate, Audit)}
