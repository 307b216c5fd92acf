"""Line-oriented TCP protocol, peer notifications, and anti-entropy sync.

One request line, one response block. Servers never trust each other: every
record arriving over the wire passes the local store gate, whether pushed
by a notification or pulled by sync. Conflicting records are counted as
divergence and surfaced, never resolved.

Wire protocol (UTF-8 lines, <= 64 KiB):

    PING                -> OK pong
    GETHEAD <S>         -> REC <record-line> | ERR not-found
    GET <S> <N>         -> REC <record-line> | ERR not-found | ERR pruned
    GETCHAIN <S>        -> zero or more REC <record-line> lines, then END
    ADD <record-line>   -> OK added | OK duplicate | ERR <gate reason>
    PEERS               -> zero or more PEER <address> lines, then END

A response block goes out in one write. Written line by line, a multi-line
block meets Nagle's algorithm combined with the client's delayed ACK
(RFC 896; RFC 1122 4.2.3.2): the rest of the block waits for the ACK of its
first line, which the client delays by about 40 ms on Linux loopback.
"""
from __future__ import annotations

import contextlib
import logging
import queue
import random
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from .chain import Record, RecordFormatError, parse_record, parse_seq, serialize_record
from .hashing import HashConfig, is_digest
from .store import CONFLICT_REASONS, Ledger, PRUNED

logger = logging.getLogger(__name__)

MAX_LINE_BYTES = 64 * 1024

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

SUSPECT_AFTER = 1  # consecutive failed probes
DEAD_AFTER = 3
PEER_TIMEOUT = 2.0  # seconds, for each request a server sends a peer
MAX_PEERS = 64

T = TypeVar("T")


class WireError(Exception):
    """Protocol-level failure talking to a peer."""


def split_address(address: str) -> tuple[str, int]:
    """host:port as the socket layer takes it; ValueError naming the address otherwise."""
    host, _, port = address.rpartition(":")
    try:
        host.encode("idna")  # how socket encodes a host name; refuses empty labels
        if host and port.isascii() and port.isdigit() and int(port) < 65536:
            return host, int(port)
    except ValueError:  # UnicodeError, or a port past int()'s digit limit
        pass
    raise ValueError(f"bad address (want host:port): {address!r}")


@dataclass
class Peer:
    address: str
    state: str = SUSPECT
    last_seen: float = 0.0
    learned_from: str = "static"
    failures: int = 0
    static: bool = False
    last_probe: float = 0.0


class PeerTable:
    """Known servers with liveness state. Static entries are never evicted.

    add_static and learn, the only ways in, refuse an address that is not host:port.
    """

    def __init__(self, own_address: str, max_size: int = MAX_PEERS):
        self.own_address = own_address
        self.max_size = max_size
        self._peers: dict[str, Peer] = {}
        self._lock = threading.Lock()

    def set_own_address(self, address: str) -> None:
        with self._lock:
            self.own_address = address
            self._peers.pop(address, None)

    def add_static(self, address: str) -> None:
        """Add an operator-configured peer; ValueError for a malformed address."""
        split_address(address)
        if address == self.own_address:
            return
        with self._lock:
            # operator-configured peers start alive so a fresh server
            # notifies them before the first probe round completes
            self._peers[address] = Peer(address=address, state=ALIVE, static=True)

    def learn(self, address: str, source: str) -> bool:
        """Merge a gossiped address; new entries start suspect until pinged."""
        try:
            split_address(address)
        except ValueError:
            return False
        if address == self.own_address:
            return False
        with self._lock:
            if address in self._peers:
                return False
            if len(self._peers) >= self.max_size and not self._evict_one():
                return False
            self._peers[address] = Peer(address=address, state=SUSPECT, learned_from=source)
            return True

    def _evict_one(self) -> bool:
        candidates = [p for p in self._peers.values() if not p.static]
        if not candidates:
            return False
        candidates.sort(key=lambda p: ({DEAD: 0, SUSPECT: 1, ALIVE: 2}[p.state], p.last_seen))
        del self._peers[candidates[0].address]
        return True

    def mark_success(self, address: str) -> None:
        with self._lock:
            peer = self._peers.get(address)
            if peer is None:
                return
            peer.state = ALIVE
            peer.failures = 0
            peer.last_seen = time.monotonic()

    def mark_failure(self, address: str) -> None:
        with self._lock:
            peer = self._peers.get(address)
            if peer is None:
                return
            peer.failures += 1
            if peer.failures >= DEAD_AFTER:
                peer.state = DEAD
            elif peer.failures >= SUSPECT_AFTER:
                peer.state = SUSPECT

    def alive(self) -> list[str]:
        with self._lock:
            return [p.address for p in self._peers.values() if p.state == ALIVE]

    def shareable(self) -> list[str]:
        with self._lock:
            return [p.address for p in self._peers.values() if p.state != DEAD]

    def snapshot(self) -> list[Peer]:
        with self._lock:
            return [Peer(**vars(p)) for p in self._peers.values()]

    def get_state(self, address: str) -> str | None:
        with self._lock:
            peer = self._peers.get(address)
            return peer.state if peer else None

    def note_probe(self, address: str) -> None:
        with self._lock:
            peer = self._peers.get(address)
            if peer is not None:
                peer.last_probe = time.monotonic()


class WireClient:
    """Blocking client for one server connection."""

    def __init__(self, address: str, timeout: float = 5.0):
        host, port = split_address(address)
        self.address = address
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        try:
            self._rfile.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read_line(self) -> str:
        raw = self._rfile.readline(MAX_LINE_BYTES + 2)
        if not raw:
            raise WireError(f"{self.address}: connection closed mid-response")
        try:
            return raw.decode("utf-8").rstrip("\n")
        except UnicodeDecodeError:
            raise WireError(f"{self.address}: reply is not UTF-8") from None

    def request(self, line: str) -> str:
        self._sock.sendall(line.encode("utf-8") + b"\n")
        return self._read_line()

    def request_block(self, line: str, item_prefix: str) -> list[str]:
        self._sock.sendall(line.encode("utf-8") + b"\n")
        items: list[str] = []
        while True:
            response = self._read_line()
            if response == "END":
                return items
            if response.startswith(item_prefix + " "):
                items.append(response[len(item_prefix) + 1 :])
            elif response.startswith("ERR "):
                raise WireError(f"{self.address}: {response}")
            else:
                raise WireError(f"{self.address}: unexpected line {response!r}")

    def ping(self) -> bool:
        return self.request("PING") == "OK pong"

    def gethead(self, token: str) -> str | None:
        response = self.request(f"GETHEAD {token}")
        if response.startswith("REC "):
            return response[4:]
        if response == "ERR not-found":
            return None
        raise WireError(f"{self.address}: {response}")

    def get(self, token: str, seq: int) -> str | None:
        response = self.request(f"GET {token} {seq}")
        if response.startswith("REC "):
            return response[4:]
        if response in ("ERR not-found", "ERR pruned"):
            return None
        raise WireError(f"{self.address}: {response}")

    def getchain(self, token: str) -> list[str]:
        return self.request_block(f"GETCHAIN {token}", "REC")

    def add(self, record_line: str) -> str:
        return self.request(f"ADD {record_line}")

    def peers(self) -> list[str]:
        return self.request_block("PEERS", "PEER")


class _Notifier:
    """Per-peer bounded fan-out queue over one kept-open connection; oldest
    entries dropped when full. The connection opens with the first record
    and closes when the sentinel ends the thread."""

    def __init__(self, server: "LedgerServer", address: str, buffer_size: int):
        self.server = server
        self.address = address
        self.queue: queue.Queue[str | None] = queue.Queue(maxsize=buffer_size)
        self.dropped = 0
        self._client: WireClient | None = None
        self.thread = threading.Thread(
            target=self._run, name=f"notify-{address}", daemon=True
        )
        self.thread.start()

    def enqueue(self, line: str | None) -> None:
        """Queue a record line, or None to end the thread; drop the oldest if full."""
        while True:
            try:
                self.queue.put_nowait(line)
                return
            except queue.Full:
                try:
                    self.queue.get_nowait()
                    self.dropped += 1
                except queue.Empty:
                    pass

    def _run(self) -> None:
        try:
            while (line := self.queue.get()) is not None:
                self.server._mark_peer(self.address, lambda: self._add(line))
        finally:
            self._disconnect()

    def _add(self, line: str) -> str:
        """ADD one record line to the peer. A request that fails on a reused
        connection is sent once more on a fresh one (the peer may have
        restarted); ADD is idempotent, so a record that got through the
        first time comes back OK duplicate."""
        while True:
            fresh = self._client is None
            if fresh:
                self._client = WireClient(self.address, timeout=PEER_TIMEOUT)
            try:
                return self._client.add(line)
            except (OSError, WireError):
                self._disconnect()
                if fresh:
                    raise

    def _disconnect(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: LedgerServer = self.server.ledger_server  # type: ignore[attr-defined]
        while True:
            try:
                raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            except OSError:
                return
            if not raw:
                return
            if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
                # framing lost: answer and drop the connection
                self._send("ERR bad-request")
                return
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError:
                self._send("ERR bad-request")
                continue
            if not self._send("\n".join(server.handle_line(line))):
                return

    def _send(self, text: str) -> bool:
        """Write one response block, newline-terminated, in a single write."""
        try:
            self.wfile.write(text.encode("utf-8") + b"\n")
            return True
        except OSError:
            return False


class _TCPServer(socketserver.ThreadingTCPServer):
    """Tracks its open connections, so that stopping can close them."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.connections: set[socket.socket] = set()
        self.connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self.connections_lock:
            self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self.connections_lock:
            self.connections.discard(request)
        super().shutdown_request(request)


class LedgerServer:
    """Record service around one Ledger; never trusts a peer's claim.

    All mutation funnels through the store gate; notifications run detached
    from the request path with bounded per-peer buffers; peer maintenance is
    an independent periodic activity.
    """

    def __init__(
        self,
        ledger: Ledger,
        listen: str = "127.0.0.1:0",
        peers: tuple[str, ...] | list[str] = (),
        advertise: str | None = None,
        probe_interval: float = 2.0,
        dead_probe_interval: float = 10.0,
        notify_buffer: int = 128,
    ):
        self.ledger = ledger
        self.cfg: HashConfig = ledger.cfg
        # addresses are checked before a port is bound; the bound address
        # replaces listen as the table's own address
        self.peers = PeerTable(advertise or listen)
        for peer in peers:
            self.peers.add_static(peer)
        host, port = split_address(listen)
        try:
            self._tcp = _TCPServer((host, port), _Handler)
        except OSError as exc:
            raise WireError(f"cannot bind {listen}: {exc}") from exc
        self._tcp.ledger_server = self  # type: ignore[attr-defined]
        self.address = f"{self._tcp.server_address[0]}:{self._tcp.server_address[1]}"
        self.advertise = advertise or self.address
        self.peers.set_own_address(self.advertise)
        self.probe_interval = probe_interval
        self.dead_probe_interval = dead_probe_interval
        self.notify_buffer = notify_buffer
        self.divergence = 0
        self._counter_lock = threading.Lock()
        self._notifiers: dict[str, _Notifier] = {}
        self._notifier_lock = threading.Lock()
        self._retired_dropped = 0  # what ended notifiers dropped, for notify_dropped
        self._stop = threading.Event()
        self._serve_thread: threading.Thread | None = None
        self._maintenance_thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "LedgerServer":
        self._serve_thread = threading.Thread(
            target=self._tcp.serve_forever, name=f"serve-{self.address}", daemon=True
        )
        self._serve_thread.start()
        self._maintenance_thread = threading.Thread(
            target=self._maintain_peers, name=f"peers-{self.address}", daemon=True
        )
        self._maintenance_thread.start()
        logger.info("serving on %s", self.address)
        return self

    def shutdown(self) -> None:
        """Stop serving and close every open connection; also returns before start()."""
        self._stop.set()
        # serve_forever polls its shutdown flag only every 0.5 s; a shut-down
        # listening socket is readable at once, so its select wakes now
        with contextlib.suppress(OSError):
            self._tcp.socket.shutdown(socket.SHUT_RDWR)
        if self._serve_thread is not None:
            self._tcp.shutdown()  # waits for a serve_forever, so only after start()
        with self._tcp.connections_lock:  # each handler then reads end of input
            for connection in self._tcp.connections:
                with contextlib.suppress(OSError):
                    connection.shutdown(socket.SHUT_RDWR)
        self._tcp.server_close()
        with self._notifier_lock:
            notifiers = list(self._notifiers.values())
        for notifier in notifiers:
            notifier.enqueue(None)  # the sentinel that ends its thread
        if self._maintenance_thread is not None:
            self._maintenance_thread.join(timeout=5)
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5)

    def __enter__(self) -> "LedgerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- request dispatch ---------------------------------------------------

    def handle_line(self, line: str) -> list[str]:
        """One request line to one response block. Testable without sockets."""
        if not line:
            return ["ERR bad-request"]
        verb, _, rest = line.partition(" ")
        if verb == "PING" and not rest:
            return ["OK pong"]
        if verb == "GETHEAD":
            if not is_digest(self.cfg, rest):
                return ["ERR bad-request"]
            head = self.ledger.get_head(rest)
            return [f"REC {serialize_record(head)}"] if head else ["ERR not-found"]
        if verb == "GET":
            token, _, seq_text = rest.partition(" ")
            if not is_digest(self.cfg, token):
                return ["ERR bad-request"]
            try:
                seq = parse_seq(seq_text)
            except ValueError:
                return ["ERR bad-request"]
            found = self.ledger.get_record(token, seq)
            if found is PRUNED:
                return ["ERR pruned"]
            if found is None:
                return ["ERR not-found"]
            return [f"REC {serialize_record(found)}"]
        if verb == "GETCHAIN":
            if not is_digest(self.cfg, rest):
                return ["ERR bad-request"]
            records = self.ledger.get_chain(rest)
            return [f"REC {serialize_record(r)}" for r in records] + ["END"]
        if verb == "ADD":
            return [self._ingest(rest)]
        if verb == "PEERS" and not rest:
            listing = [self.advertise] + self.peers.shareable()
            return [f"PEER {address}" for address in listing] + ["END"]
        return ["ERR bad-request"]

    def _ingest(self, record_line: str) -> str:
        """Run one record line through the gate, from a client or a peer.

        Returns the ADD reply. A record the gate accepts is passed on to the
        peers. A conflict counts as divergence only when the slot is still
        retained here (the gate names a conflict only for a slot that holds
        other bytes): a slot below this node's history window says nothing
        about whether the records agree.
        """
        try:
            record = parse_record(self.cfg, record_line)
        except (RecordFormatError, ValueError):
            return "ERR bad-request"
        result = self.ledger.append(record)
        if result.status == "added":
            self.notify_peers(record_line)
            return "OK added"
        if result.status == "duplicate":
            return "OK duplicate"
        assert result.reason is not None
        if result.reason in CONFLICT_REASONS:
            local = self.ledger.get_record(record.token, record.seq)
            if isinstance(local, Record):
                with self._counter_lock:
                    self.divergence += 1
        return f"ERR {result.reason}"

    # -- propagation --------------------------------------------------------

    def notify_peers(self, record_line: str) -> list[str]:
        """Fan a just-accepted record out to every alive peer, best-effort."""
        targets = self.peers.alive()
        for address in targets:
            self._notifier_for(address).enqueue(record_line)
        return targets

    def _notifier_for(self, address: str) -> _Notifier:
        """The address's notifier. Before one is started, each notifier whose
        peer has left the table gets its sentinel, so no more run than the
        table holds peers."""
        with self._notifier_lock:
            notifier = self._notifiers.get(address)
            if notifier is None:
                for gone in [a for a in self._notifiers if self.peers.get_state(a) is None]:
                    retired = self._notifiers.pop(gone)
                    retired.enqueue(None)
                    self._retired_dropped += retired.dropped
                notifier = _Notifier(self, address, self.notify_buffer)
                self._notifiers[address] = notifier
            return notifier

    def notify_backlog(self) -> int:
        with self._notifier_lock:
            return sum(n.queue.qsize() for n in self._notifiers.values())

    def notify_dropped(self) -> int:
        """Notifications discarded because a peer's bounded buffer was full."""
        with self._notifier_lock:
            return self._retired_dropped + sum(n.dropped for n in self._notifiers.values())

    def sync_token(self, token: str, peer: str) -> int:
        """Pull a peer's retained chain through the local gate, in seq order.

        Returns how many records were newly accepted. Local records are
        never overwritten; conflicting peer records count as divergence
        under the same rule as ADD.
        """
        lines = self._ask_peer(peer, lambda client: client.getchain(token))
        return sum(self._ingest(line) == "OK added" for line in lines or ())

    # -- peer maintenance ---------------------------------------------------

    def _ask_peer(self, address: str, request: Callable[[WireClient], T]) -> T | None:
        """Send one request to a peer on a fresh connection; mark the peer by the outcome."""

        def once() -> T:
            with WireClient(address, timeout=PEER_TIMEOUT) as client:
                return request(client)

        return self._mark_peer(address, once)

    def _mark_peer(self, address: str, attempt: Callable[[], T]) -> T | None:
        """Run one attempt at a request to a peer; mark the peer by the outcome.

        Returns the attempt's result, or None once the failure is marked. A
        result of False (a PING not answered with pong) is a failure too.
        """
        try:
            result = attempt()
        except (OSError, WireError):
            result = False
        if result is False:
            self.peers.mark_failure(address)
            return None
        self.peers.mark_success(address)
        return result

    def _gossip(self) -> None:
        alive = self.peers.alive()
        if not alive:
            return
        address = random.choice(alive)
        for peer in self._ask_peer(address, WireClient.peers) or ():
            self.peers.learn(peer, source=address)

    def _maintain_peers(self) -> None:
        while not self._stop.wait(self.probe_interval):
            now = time.monotonic()
            for peer in self.peers.snapshot():
                if self._stop.is_set():
                    return
                if peer.state != DEAD or now - peer.last_probe >= self.dead_probe_interval:
                    self.peers.note_probe(peer.address)
                    self._ask_peer(peer.address, WireClient.ping)
            self._gossip()
