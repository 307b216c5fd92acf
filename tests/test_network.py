import dataclasses
import gc
import random
import socket
import threading
import warnings
from collections import defaultdict

import pytest

from conftest import as_chain, build_records, make_token, rival_copies, wait_until
from tokenledger import (
    HashConfig,
    Ledger,
    Record,
    WireClient,
    WireError,
    serialize_record,
    verify_chain,
)
from tokenledger.network import (
    ALIVE,
    DEAD,
    MAX_LINE_BYTES,
    SUSPECT,
    LedgerServer,
    PeerTable,
    _Handler,
    split_address,
)

S = make_token("network token")


def push_chain(server, records, upto=None):
    with WireClient(server.address) as client:
        for record in records[:upto]:
            response = client.add(serialize_record(record))
            assert response == "OK added", response


# -- wire protocol ------------------------------------------------------------


def test_ping(server_factory):
    server = server_factory()
    with WireClient(server.address) as client:
        assert client.ping()


def test_gethead_get_getchain(cfg, server_factory):
    server = server_factory()
    records = build_records(cfg, S, "pw", 4)
    push_chain(server, records)
    with WireClient(server.address) as client:
        assert client.gethead(S) == serialize_record(records[-1])
        assert client.get(S, 2) == serialize_record(records[2])
        assert client.get(S, 9) is None
        assert client.gethead(make_token("missing")) is None
        assert client.getchain(S) == [serialize_record(r) for r in records]
        assert client.getchain(make_token("missing")) == []


def test_get_pruned_answer(cfg, server_factory):
    server = server_factory(history_depth=2)
    push_chain(server, build_records(cfg, S, "pw", 5))
    with WireClient(server.address) as client:
        assert client.request(f"GET {S} 0") == "ERR pruned"
        assert client.request(f"GET {S} 4").startswith("REC ")


def test_add_validates_and_reports_gate_reasons(cfg, server_factory):
    server = server_factory()
    records = build_records(cfg, S, "pw", 3)
    with WireClient(server.address) as client:
        assert client.add(serialize_record(records[0])) == "OK added"
        assert client.add(serialize_record(records[0])) == "OK duplicate"
        assert client.add(serialize_record(records[2])) == "ERR seq-gap"
        good = records[1]
        flip = ("0" if good.key[0] != "0" else "1") + good.key[1:]
        bad = Record(seq=1, token=S, key=flip, generators=good.generators, owner=good.owner)
        assert client.add(serialize_record(bad)) == "ERR bad-G(1)"
        assert client.add("complete garbage") == "ERR bad-request"
        assert client.add(serialize_record(good)) == "OK added"


@pytest.mark.parametrize("seq", [0, 2, 4])  # the genesis, a middle record, the head
def test_add_of_a_copy_that_keeps_the_key_is_a_conflict(cfg, server_factory, seq):
    """A copy of a held record that differs only in its owner or only in its
    data is a rival at a retained slot: refused and counted as divergence."""
    server = server_factory()
    records = build_records(cfg, S, "pw", 5)
    push_chain(server, records)
    before = server.ledger.file_bytes()
    reason = "genesis-exists" if seq == 0 else "seq-occupied"
    with WireClient(server.address) as client:
        for count, copy in enumerate(rival_copies(records[seq]), start=1):
            assert client.add(serialize_record(copy)) == f"ERR {reason}"
            assert server.divergence == count
    assert server.ledger.file_bytes() == before


@pytest.mark.parametrize("m", [0, 1, 2])
def test_add_reads_a_wrong_generator_count_by_position(server_factory, m):
    """ADD never answers wrong-generator-count, because a line carries no
    count of its own: one digest short is a bad request, and one surplus
    digest is read as the owner, with the real owner taken as the data."""
    cfg = HashConfig(generator_count=m)
    server = server_factory(cfg=cfg)
    records = build_records(cfg, S, "pw", 2)
    fields = serialize_record(records[1]).split(" ")  # N S K G_1 .. G_m O
    surplus = make_token("surplus generator")
    with WireClient(server.address) as client:
        assert client.add(serialize_record(records[0])) == "OK added"
        short = fields[: 2 + m] + fields[3 + m :]  # drops G_m (K when m = 0)
        assert client.add(" ".join(short)) == "ERR bad-request"
        extra = fields[: 3 + m] + [surplus] + fields[3 + m :]
        assert client.add(" ".join(extra)) == "OK added"
    stored = dataclasses.replace(records[1], owner=surplus, data=records[1].owner)
    assert server.ledger.get_head(S) == stored


def test_add_is_durable_before_response(cfg, server_factory):
    server = server_factory(name="durable")
    records = build_records(cfg, S, "pw", 1)
    push_chain(server, records)
    assert serialize_record(records[0]) in server.ledger.file_bytes().decode()


def test_malformed_line_keeps_connection_open(server_factory):
    server = server_factory()
    with WireClient(server.address) as client:
        assert client.request("WHAT is this") == "ERR bad-request"
        assert client.request("") == "ERR bad-request"
        assert client.request("GETHEAD nothex") == "ERR bad-request"
        assert client.ping()  # same connection still serves


def test_get_seq_follows_the_record_grammar(server_factory):
    """A seq past int()'s digit limit is a bad request, not a dropped connection."""
    server = server_factory()
    with WireClient(server.address) as client:
        assert client.request(f"GET {S} {'9' * 4300}") == "ERR not-found"
        assert client.request(f"GET {S} {'9' * 4301}") == "ERR bad-request"
        assert client.request(f"GET {S} 01") == "ERR bad-request"
        assert client.request(f"GET {S} +1") == "ERR bad-request"
        assert client.ping()  # same connection still serves


def test_oversize_line_answered_then_closed(server_factory):
    server = server_factory()
    host, port = split_address(server.address)
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(b"ADD " + b"a" * (MAX_LINE_BYTES + 10) + b"\n")
        reply = sock.makefile("rb").readline()
        assert reply.strip() == b"ERR bad-request"


def test_peers_listing(cfg, server_factory):
    a = server_factory(name="a")
    b = server_factory(name="b", peers=(a.address,))
    with WireClient(b.address) as client:
        listing = client.peers()
    assert b.advertise in listing and a.address in listing


# -- one write per response block ---------------------------------------------


@pytest.fixture
def handler_writes(monkeypatch):
    """Every write each server's handlers make to their connections, by server address."""
    writes = defaultdict(list)
    setup = _Handler.setup

    def counting_setup(self):
        setup(self)
        write = self.wfile.write
        server_writes = writes[self.server.ledger_server.address]

        def counted(data):
            server_writes.append(bytes(data))
            return write(data)

        self.wfile.write = counted

    monkeypatch.setattr(_Handler, "setup", counting_setup)
    return writes


def raw_exchange(address, request: bytes, expected_len: int) -> bytes:
    """Send one raw request and read exactly expected_len reply bytes."""
    with socket.create_connection(split_address(address), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while len(reply) < expected_len:
            chunk = sock.recv(expected_len - len(reply))
            if not chunk:
                break
            reply += chunk
    return reply


def test_getchain_block_is_one_write_with_unchanged_bytes(cfg, server_factory, handler_writes):
    server = server_factory()
    records = build_records(cfg, S, "pw", 3)
    push_chain(server, records)
    before = len(handler_writes[server.address])
    expected = "".join(f"REC {serialize_record(r)}\n" for r in records) + "END\n"
    expected = expected.encode()
    reply = raw_exchange(server.address, f"GETCHAIN {S}\n".encode(), len(expected))
    assert reply == expected
    assert handler_writes[server.address][before:] == [expected]


def test_peers_block_is_one_write(server_factory, handler_writes):
    a = server_factory(name="a")
    b = server_factory(name="b")
    c = server_factory(name="c", peers=(a.address, b.address))
    expected = f"PEER {c.advertise}\nPEER {a.address}\nPEER {b.address}\nEND\n".encode()
    reply = raw_exchange(c.address, b"PEERS\n", len(expected))
    assert reply == expected
    assert handler_writes[c.address] == [expected]


@pytest.mark.parametrize("request_line, expected", [
    (b"PING\n", b"OK pong\n"),
    (b"BOGUS verb\n", b"ERR bad-request\n"),
    (b"\xff\xfe\n", b"ERR bad-request\n"),
])
def test_one_line_reply_is_one_write(server_factory, handler_writes, request_line, expected):
    server = server_factory()
    assert raw_exchange(server.address, request_line, len(expected)) == expected
    assert handler_writes[server.address] == [expected]


# -- notifications ------------------------------------------------------------


def test_notification_fanout_and_delivery(cfg, server_factory):
    a = server_factory(name="a")
    b = server_factory(name="b", peers=(a.address,))
    c = server_factory(name="c", peers=(a.address, b.address))
    a.peers.add_static(b.address)
    a.peers.add_static(c.address)
    records = build_records(cfg, S, "pw", 4)
    targets = a.notify_peers("warmup-noop")  # fanout arithmetic
    assert sorted(targets) == sorted([b.address, c.address])
    push_chain(a, records, upto=3)
    assert wait_until(lambda: len(b.ledger.get_chain(S)) == 3), "b never caught up"
    assert wait_until(lambda: len(c.ledger.get_chain(S)) == 3), "c never caught up"
    # duplicate notify: peers answer OK duplicate over the kept-open
    # connection, which counts as success; the next record, queued behind
    # it, shows that it has been answered
    a.notify_peers(serialize_record(records[2]))
    push_chain(a, records[3:])
    assert wait_until(lambda: len(b.ledger.get_chain(S)) == 4), "b never caught up"
    assert wait_until(lambda: len(c.ledger.get_chain(S)) == 4), "c never caught up"
    assert a.peers.get_state(b.address) == ALIVE
    assert a.peers.get_state(c.address) == ALIVE
    assert a.notify_dropped() == 0


def test_down_peer_marked_suspect_others_unaffected(cfg, server_factory):
    a = server_factory(name="a", probe_interval=30)  # probes out of the picture
    b = server_factory(name="b")
    dead_address = "127.0.0.1:1"  # nothing listens there
    a.peers.add_static(b.address)
    a.peers.add_static(dead_address)
    records = build_records(cfg, S, "pw", 2)
    push_chain(a, records)
    assert wait_until(lambda: len(b.ledger.get_chain(S)) == 2)
    assert wait_until(lambda: a.peers.get_state(dead_address) in (SUSPECT, DEAD))
    assert a.peers.get_state(b.address) == ALIVE


def test_notified_records_share_one_connection(cfg, server_factory, monkeypatch):
    """50 records reach the peer over the one connection A's notifier keeps open."""
    b = server_factory(name="b")
    accepted = []  # the client address of each connection b accepts
    process_request = b._tcp.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    monkeypatch.setattr(b._tcp, "process_request", counting)
    a = server_factory(name="a", peers=(b.address,), probe_interval=30)  # no probes
    records = build_records(cfg, S, "pw", 50)
    push_chain(a, records)
    assert wait_until(lambda: len(b.ledger.get_chain(S)) == 50), "b never caught up"
    assert len(accepted) == 1
    assert a.peers.get_state(b.address) == ALIVE


def test_notifier_reconnects_to_a_restarted_peer(cfg, server_factory, tmp_path):
    """The first record after the peer restarts fails on the kept-open
    connection, is sent again on a fresh one, and the peer stays alive."""
    ledger = Ledger(cfg, tmp_path / "restarted.db")
    b = LedgerServer(ledger, probe_interval=30).start()
    try:
        a = server_factory(name="a", peers=(b.address,), probe_interval=30)
        records = build_records(cfg, S, "pw", 2)
        push_chain(a, records, upto=1)
        assert wait_until(lambda: len(ledger.get_chain(S)) == 1)
        b.shutdown()
        b = LedgerServer(ledger, listen=b.address, probe_interval=30).start()
        push_chain(a, records[1:])
        assert wait_until(lambda: len(ledger.get_chain(S)) == 2), "record lost on reconnect"
        assert a.peers.get_state(b.address) == ALIVE
    finally:
        b.shutdown()
        ledger.close()


@pytest.mark.parametrize("ending", ["peer leaves the table", "server stops"])
def test_notifier_connection_closes_with_its_notifier(cfg, server_factory, ending):
    b = server_factory(name="b")
    a = server_factory(name="a", probe_interval=30)
    record = build_records(cfg, S, "pw", 1)[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a.peers.max_size = 1
        assert a.peers.learn(b.address, "test")
        a.peers.mark_success(b.address)
        a.notify_peers(serialize_record(record))
        assert wait_until(lambda: len(b.ledger.get_chain(S)) == 1)
        assert len(b._tcp.connections) == 1
        if ending == "server stops":
            a.shutdown()
        else:
            newcomer = "127.0.0.1:1"  # nothing listens there
            assert a.peers.learn(newcomer, "test")  # evicts b from the 1-entry table
            a.peers.mark_success(newcomer)
            a.notify_peers("line for the newcomer")  # starting its notifier retires b's
        assert wait_until(lambda: not b._tcp.connections), "notifier connection left open"
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# -- sync ---------------------------------------------------------------------


def test_sync_token_pull(cfg, server_factory):
    source = server_factory(name="src")
    fresh = server_factory(name="dst")
    records = build_records(cfg, S, "pw", 10)
    push_chain(source, records)
    assert fresh.sync_token(S, source.address) == 10
    assert fresh.sync_token(S, source.address) == 0  # idempotent
    assert [serialize_record(r) for r in fresh.ledger.get_chain(S)] == [
        serialize_record(r) for r in records
    ]


def test_sync_conflict_detected_not_overwritten(cfg, server_factory):
    ours = server_factory(name="ours")
    theirs = server_factory(name="theirs")
    mine = build_records(cfg, S, "pw-mine", 3)
    rival = build_records(cfg, S, "pw-rival", 3)
    push_chain(ours, mine, upto=1)
    push_chain(theirs, rival)
    accepted = ours.sync_token(S, theirs.address)
    assert accepted == 0
    assert ours.divergence == 1  # the rival genesis; rival seq 1 fails its link, seq 2 is a gap
    assert ours.ledger.get_head(S) == mine[0]  # never overwritten
    assert verify_chain(cfg, as_chain(S, ours.ledger.get_chain(S))).ok


def test_sync_below_history_window_is_not_divergence(cfg, server_factory):
    full = server_factory(name="full")
    shallow = server_factory(name="shallow", history_depth=4)
    records = build_records(cfg, S, "pw", 20)
    push_chain(full, records)
    push_chain(shallow, records)
    assert shallow.sync_token(S, full.address) == 0
    assert shallow.divergence == 0
    with WireClient(shallow.address) as client:  # the wire reply is unchanged
        assert client.add(serialize_record(records[3])) == "ERR seq-occupied"
        assert client.add(serialize_record(records[0])) == "ERR genesis-exists"
    assert shallow.divergence == 0


def test_sync_unreachable_peer_marks_suspect(cfg, server_factory):
    lonely = server_factory(name="lonely")
    silent = "127.0.0.1:1"
    lonely.peers.add_static(silent)
    assert lonely.sync_token(S, silent) == 0
    assert lonely.peers.get_state(silent) in (SUSPECT, DEAD)


# -- peer state machine ---------------------------------------------------------


def test_peer_lifecycle_alive_suspect_dead_resurrect(cfg, server_factory, tmp_path):
    from tokenledger import Ledger

    watcher = server_factory(name="watch", probe_interval=0.05, dead_probe_interval=0.2)
    ledger = Ledger(cfg, tmp_path / "flaky.db")
    flaky = LedgerServer(ledger, listen="127.0.0.1:0", probe_interval=30).start()
    address = flaky.address
    watcher.peers.add_static(address)
    assert wait_until(lambda: watcher.peers.get_state(address) == ALIVE)
    flaky.shutdown()
    assert wait_until(lambda: watcher.peers.get_state(address) == SUSPECT, timeout=8)
    assert wait_until(lambda: watcher.peers.get_state(address) == DEAD, timeout=8)
    # restart on the same port; slow re-probe resurrects it
    revived = LedgerServer(ledger, listen=address, probe_interval=30).start()
    try:
        assert wait_until(lambda: watcher.peers.get_state(address) == ALIVE, timeout=8)
    finally:
        revived.shutdown()
        ledger.close()


def test_gossip_learns_unknown_addresses_as_suspect(server_factory):
    a = server_factory(name="a", probe_interval=0.05)
    b = server_factory(name="b", probe_interval=30)
    c = server_factory(name="c", probe_interval=30)
    b.peers.add_static(c.address)  # b knows c; a only knows b
    a.peers.add_static(b.address)
    assert wait_until(lambda: a.peers.get_state(c.address) is not None, timeout=8)
    # learned entries start suspect, then the prober finds them alive
    assert wait_until(lambda: a.peers.get_state(c.address) == ALIVE, timeout=8)


def test_peer_table_basics():
    table = PeerTable("127.0.0.1:9000", max_size=3)
    table.add_static("127.0.0.1:9001")
    assert not table.learn("127.0.0.1:9000", "x")  # own address never enters
    assert table.learn("127.0.0.1:9002", "gossip")
    assert table.get_state("127.0.0.1:9002") == SUSPECT
    table.mark_success("127.0.0.1:9002")
    assert table.get_state("127.0.0.1:9002") == ALIVE
    for _ in range(3):
        table.mark_failure("127.0.0.1:9002")
    assert table.get_state("127.0.0.1:9002") == DEAD
    assert "127.0.0.1:9002" not in table.alive()
    # capped: static survives, dead learned entry is evicted first
    assert table.learn("127.0.0.1:9003", "gossip")
    assert table.learn("127.0.0.1:9004", "gossip")
    assert table.get_state("127.0.0.1:9002") is None  # evicted
    assert table.get_state("127.0.0.1:9001") is not None


@pytest.mark.parametrize("address", [
    "nohostport", ":9440", "host:", "host:port", "host:65536", "host:+1", "a..b:9440",
])
def test_peer_table_refuses_malformed_addresses(address):
    table = PeerTable("127.0.0.1:9000")
    with pytest.raises(ValueError, match="bad address"):
        table.add_static(address)
    assert not table.learn(address, "gossip")
    assert table.snapshot() == []


def test_malformed_static_peer_refused_before_binding(cfg):
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken = f"127.0.0.1:{blocker.getsockname()[1]}"
        with Ledger(cfg, None) as ledger, pytest.raises(ValueError, match="nohostport"):
            LedgerServer(ledger, listen=taken, peers=("nohostport",))


def test_non_utf8_reply_marks_the_peer_down(server_factory):
    """A peer that answers with undecodable bytes is a failed probe, not a dead prober."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)

    def answer_garbage():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                conn.recv(64)
                conn.sendall(b"\xff\xfe\n")

    threading.Thread(target=answer_garbage, daemon=True).start()
    address = f"127.0.0.1:{listener.getsockname()[1]}"
    server = server_factory(name="prober", probe_interval=0.05)
    try:
        server.peers.add_static(address)
        assert wait_until(lambda: server.peers.get_state(address) == DEAD)
        assert server._maintenance_thread.is_alive()
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the accept on Linux
        listener.close()


def test_conflicting_geneses_detected_never_corrupt(cfg, server_factory):
    """Two peered servers fed rival geneses stay internally consistent and
    at least one counts the divergence."""
    a = server_factory(name="left")
    b = server_factory(name="right")
    mine = build_records(cfg, S, "pw-left", 1)[0]
    rival = build_records(cfg, S, "pw-right", 1)[0]
    # both geneses land before the servers are peered, so neither
    # notification can reach the other side first
    with WireClient(a.address) as ca, WireClient(b.address) as cb:
        assert ca.add(serialize_record(mine)) == "OK added"
        assert cb.add(serialize_record(rival)) == "OK added"
    a.peers.add_static(b.address)
    b.peers.add_static(a.address)
    a.notify_peers(serialize_record(mine))
    b.notify_peers(serialize_record(rival))
    # notifications cross; each side keeps its own first-accepted genesis
    assert wait_until(lambda: a.divergence + b.divergence > 0, timeout=8)
    assert a.ledger.get_head(S) == mine
    assert b.ledger.get_head(S) == rival
    for server in (a, b):
        assert verify_chain(cfg, as_chain(S, server.ledger.get_chain(S))).ok


def test_notify_relay_through_chain_topology(cfg, server_factory):
    """A -> B -> C with no direct A-C link still converges via relaying."""
    a = server_factory(name="ra")
    b = server_factory(name="rb", peers=(a.address,))
    c = server_factory(name="rc", peers=(b.address,))
    a.peers.add_static(b.address)
    b.peers.add_static(c.address)
    records = build_records(cfg, S, "pw", 3)
    push_chain(a, records)
    assert wait_until(lambda: len(c.ledger.get_chain(S)) == 3, timeout=8), (
        "records never relayed through the middle server"
    )


def test_notify_buffer_bounded_drops_oldest(cfg, server_factory):
    server = server_factory(name="tiny", notify_buffer=4)
    black_hole = "127.0.0.1:1"
    server.peers.add_static(black_hole)
    for i in range(64):
        server.notify_peers(f"line {i}")
    assert server.notify_backlog() <= 4
    assert server.notify_dropped() > 0


def test_notifier_threads_end_when_their_peer_leaves_the_table(cfg):
    """Churn 20 addresses through a 3-entry table: no more notifiers run than it holds."""
    addresses = [f"127.0.0.{i}:1" for i in range(2, 22)]  # loopback, nothing listens
    with Ledger(cfg, None) as ledger:
        server = LedgerServer(ledger, listen="127.0.0.1:0")
        server.peers.max_size = 3
        try:
            for address in addresses:
                assert server.peers.learn(address, "test")
                server.peers.mark_success(address)
                server.notify_peers(f"line for {address}")

            def notifier_threads():
                names = {f"notify-{address}" for address in addresses}
                return [t for t in threading.enumerate() if t.name in names]

            assert wait_until(lambda: len(notifier_threads()) <= 3, timeout=10), (
                [t.name for t in notifier_threads()]
            )
        finally:
            server.shutdown()


def test_gate_universality_wire_fuzz(cfg, server_factory):
    """Random wire garbage and mutations never corrupt the ledger."""
    server = server_factory(name="fuzzed")
    records = build_records(cfg, S, "pw", 6)
    lines = [serialize_record(r) for r in records]
    rng = random.Random(13)
    with WireClient(server.address) as client:
        for line in lines:
            client.add(line)
        for _ in range(300):
            base = rng.choice(lines)
            roll = rng.random()
            if roll < 0.4:
                pos = rng.randrange(len(base))
                mutated = base[:pos] + rng.choice("0123456789abcdefXYZ !") + base[pos + 1 :]
            elif roll < 0.7:
                cut = rng.randrange(len(base))
                mutated = base[:cut]
            else:
                mutated = " ".join(rng.sample(base.split(" "), k=len(base.split(" "))))
            client.add(mutated)
    report = verify_chain(cfg, as_chain(S, server.ledger.get_chain(S)))
    assert report.ok
    assert [serialize_record(r) for r in server.ledger.get_chain(S)] == lines


# -- shutdown -----------------------------------------------------------------


def test_shutdown_returns_on_a_server_never_started(cfg):
    with Ledger(cfg, None) as ledger:
        server = LedgerServer(ledger, listen="127.0.0.1:0")
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()


def test_stopped_server_answers_nothing(server_factory):
    server = server_factory()
    with WireClient(server.address) as client:
        assert client.ping()
        server.shutdown()
        with pytest.raises((WireError, OSError)):
            client.ping()
