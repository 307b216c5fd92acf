"""Append-only record database: publishing gate, per-token indexes, pruning.

The storage file is the database: newline-delimited canonical record lines,
appended in acceptance order and fsynced before an append returns. An
append and the load run every record through the same link rule, so the
on-disk file is self-verifying, and each link is proved once, there.
Pruning trims the in-memory window eagerly (per token, the head always
survives); compact() rewrites the file to match.
"""
from __future__ import annotations

import logging
import os
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .chain import (
    ChainReport,
    Record,
    RecordFormatError,
    TokenChain,
    parse_record,
    serialize_record,
    verify_link,
)
from .hashing import HashConfig

logger = logging.getLogger(__name__)

# Gate rejection reasons (wire-visible, bit-exact).
SEQ_GAP = "seq-gap"
SEQ_OCCUPIED = "seq-occupied"
GENESIS_EXISTS = "genesis-exists"
WRONG_GENERATOR_COUNT = "wrong-generator-count"
# a failed commitment is rejected under its link verdict: chain.BAD_O, chain.bad_g(j)

# get_record result for a seq that existed but was discarded by retention.
PRUNED = object()


@dataclass(frozen=True)
class AppendResult:
    status: str  # "added" | "duplicate" | "rejected"
    reason: str | None = None
    conflict: bool = False  # rejected at a slot still retained with other bytes


ADDED = AppendResult("added")
DUPLICATE = AppendResult("duplicate")


def rejected(reason: str, conflict: bool = False) -> AppendResult:
    return AppendResult("rejected", reason, conflict)


class LoadError(Exception):
    """The storage file failed replay; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# The one parser per setting. The config file's key=value lines and the
# command-line flags that set a key both go through it.
SETTINGS = {
    "algorithm": str,
    "domain_tag": lambda text: text or None,
    "generators": int,
    "history_depth": lambda text: None if text == "unlimited" else int(text),
    "listen": str,
    "peers": lambda text: tuple(p.strip() for p in text.split(",") if p.strip()),
}


@dataclass(frozen=True)
class StoreConfig:
    """Flat server configuration; its values are checked once, when it is built."""

    algorithm: str = "sha256"
    domain_tag: str | None = None
    generators: int = 1
    history_depth: int | None = None  # None = unlimited
    listen: str = "127.0.0.1:9440"
    peers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.generators < 0:  # named by its key here, not by HashConfig's field
            raise ValueError("generators must be >= 0")
        self.hash_config()  # refuses a bad algorithm or domain tag
        if self.history_depth is not None and self.history_depth < 1:
            raise ValueError("history_depth must be >= 1 (the head must survive)")

    def hash_config(self) -> HashConfig:
        return HashConfig(
            algorithm=self.algorithm,
            domain_tag=self.domain_tag,
            generator_count=self.generators,
        )

    @classmethod
    def from_text(cls, text: str, overrides: Iterable[tuple[str, str]] = ()) -> "StoreConfig":
        """Read key=value lines, then the (key, value) overrides; a later value wins."""
        settings: list[tuple[str, str]] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line (expected key=value): {raw!r}")
            settings.append((key.strip(), value.strip()))
        values: dict[str, object] = {}
        for key, value in [*settings, *overrides]:
            if key not in SETTINGS:
                raise ValueError(f"unknown config key: {key!r}")
            try:
                values[key] = SETTINGS[key](value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        return cls(**values)  # type: ignore[arg-type]


def write_durably(path: Path, chunks: Iterable[str]) -> None:
    """Replace path's content with chunks: write and fsync path + ".tmp",
    os.replace it over path, then fsync the directory so the rename survives
    power loss. A crash leaves the old content or the new, never a mix."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_lines(path: str | Path) -> tuple[list[str], int]:
    """A storage file's complete lines, and the size in bytes of a torn
    final line (0 when the file ends in a newline). Only reads the file."""
    raw = Path(path).read_bytes()
    lines = raw.decode("utf-8", errors="surrogateescape").split("\n")
    tail = lines.pop()  # "" for a clean file, the torn fragment otherwise
    return lines, len(tail.encode("utf-8", errors="surrogateescape"))


class _TokenState:
    """One token's retained records, the first seq still in the file, and its lock."""

    __slots__ = ("records", "file_floor", "lock")

    def __init__(self, history_depth: int | None, file_floor: int = 0):
        self.records: deque[Record] = deque(maxlen=history_depth)
        self.file_floor = file_floor
        self.lock = threading.Lock()


class Ledger:
    """Token chains behind a single validation gate, mirrored to a text file.

    Appends for one token are serialized; different tokens proceed in
    parallel. File writes are ordered by a separate lock and fsynced, so an
    accepted record is durable before append() returns. After a write or
    fsync fails, every append that would write raises until the ledger is
    reopened; reads go on.
    """

    def __init__(self, cfg: HashConfig, path: str | Path | None, history_depth: int | None = None):
        if history_depth is not None and history_depth < 1:
            raise ValueError("history_depth must be >= 1")
        self.cfg = cfg
        self.path = Path(path) if path is not None else None
        self.history_depth = history_depth
        self._tokens: dict[str, _TokenState] = {}
        self._registry_lock = threading.Lock()
        self._file_lock = threading.Lock()
        self._fh = None
        self._write_failed = False
        if self.path is not None:
            if self.path.exists():
                lines, torn = read_lines(self.path)
                if torn:
                    logger.warning(
                        "%s: truncating torn final line (%d bytes), earlier content kept",
                        self.path, torn,
                    )
                    with open(self.path, "r+b") as fh:
                        fh.seek(-torn, os.SEEK_END)
                        fh.truncate()
                        fh.flush()
                        os.fsync(fh.fileno())
                self.replay(lines)
            self._fh = open(self.path, "a", encoding="utf-8")

    # -- loading ---------------------------------------------------------

    def replay(self, lines: Iterable[str]) -> None:
        """Run stored record lines through the link rule, in order; raises
        LoadError naming the first line (from 1) that fails to parse or link.
        Writes nothing (the lines are already stored), so it only fills a
        ledger no other thread can see yet, and takes no lock."""
        for line_no, line in enumerate(lines, start=1):
            try:
                record = parse_record(self.cfg, line)
            except (RecordFormatError, ValueError) as exc:
                raise LoadError(line_no, str(exc)) from exc
            state = self._tokens.get(record.token)
            if state is None:  # a compacted or depth-bounded file starts a token above 0
                state = self._tokens[record.token] = _TokenState(self.history_depth, record.seq)
            elif (result := self._rule(state.records, record)) is DUPLICATE:
                continue
            elif result is not None:
                raise LoadError(
                    line_no,
                    f"record (token {record.token[:12]}..., seq {record.seq}) "
                    f"failed the gate: {result.reason}",
                )
            state.records.append(record)  # a bounded deque drops the oldest record

    # -- gate ------------------------------------------------------------

    def _state(self, token: str, create: bool = False) -> _TokenState | None:
        with self._registry_lock:
            state = self._tokens.get(token)
            if state is None and create:
                state = self._tokens[token] = _TokenState(self.history_depth)
            return state

    def _rule(self, records: deque[Record], record: Record) -> AppendResult | None:
        """The linking rules: None when the record extends the head, else its
        verdict. Reads only the token's retained window and the record; takes
        no lock, does no I/O and changes nothing."""
        if not records:  # a token whose first append failed to persist
            return None if record.seq == 0 else rejected(SEQ_GAP)
        head = records[-1]
        if record.seq <= head.seq:
            offset = record.seq - records[0].seq
            if offset >= 0 and records[offset] == record:
                return DUPLICATE
            reason = GENESIS_EXISTS if record.seq == 0 else SEQ_OCCUPIED
            return rejected(reason, conflict=offset >= 0)
        if record.seq > head.seq + 1:
            return rejected(SEQ_GAP)
        failure = verify_link(self.cfg, head, record)
        return None if failure is None else rejected(failure)

    def _gate(self, record: Record) -> AppendResult:
        """The linking rules for an already validated record, applied live."""
        state = self._state(record.token, create=record.seq == 0)
        if state is None:
            return rejected(SEQ_GAP)
        with state.lock:
            result = self._rule(state.records, record)
            if result is not None:
                return result
            # durable before visible: a failed write must not leave
            # phantom in-memory state
            self._persist(record)
            state.records.append(record)  # a bounded deque drops the oldest record
            return ADDED

    def _persist(self, record: Record) -> None:
        """Write, flush and fsync the record's line. Once one of those has
        raised, the line may or may not be in the file, and a failed fsync
        leaves the page cache no guide to what reached the disk; so nothing
        more is written, and only a reload learns what the file holds."""
        if self.path is None:
            return
        with self._file_lock:
            if self._fh is None:
                raise RuntimeError("ledger is closed")
            if self._write_failed:
                raise RuntimeError("a write to the ledger file failed; reopen the ledger to append")
            try:
                self._fh.write(serialize_record(record) + "\n")
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except BaseException:
                self._write_failed = True
                raise

    def append(self, record: Record) -> AppendResult:
        """Validate the record and run the publishing gate; durable before
        returning on acceptance. Raises RecordFormatError for malformed fields."""
        if len(record.generators) != self.cfg.generator_count:
            return rejected(WRONG_GENERATOR_COUNT)
        return self._gate(record.validate(self.cfg))

    # -- reads -----------------------------------------------------------

    def get_head(self, token: str) -> Record | None:
        state = self._state(token)
        if state is None:
            return None
        with state.lock:
            return state.records[-1] if state.records else None

    def get_record(self, token: str, seq: int):
        """Record, None (never existed yet), or PRUNED (discarded by retention)."""
        state = self._state(token)
        if state is None or seq < 0:
            return None
        with state.lock:
            records = state.records
            if not records or seq > records[-1].seq:
                return None
            offset = seq - records[0].seq
            return records[offset] if offset >= 0 else PRUNED

    def get_chain(self, token: str) -> list[Record]:
        state = self._state(token)
        if state is None:
            return []
        with state.lock:
            return list(state.records)

    def token_chain(self, token: str) -> TokenChain:
        return TokenChain(token=token, records=tuple(self.get_chain(token)))

    def tokens(self) -> list[str]:
        with self._registry_lock:
            return [token for token, state in self._tokens.items() if state.records]

    def verify_all(self) -> dict[str, ChainReport]:
        """Each token's retained chain, reported as verify_chain would report it.

        Nothing is hashed again. Every record after a token's first enters
        its records through _rule, which proves verify_link(head, record)
        first (at ADD, at sync and at load); records are frozen, and
        a bounded deque that drops its oldest record keeps every adjacent
        pair it holds. So every retained link has been proved once already.
        """
        return {token: ChainReport(token) for token in self.tokens()}

    # -- size control ----------------------------------------------------

    def compact(self) -> list[tuple[str, int]]:
        """Drop file history outside each token's retained window.

        Returns the discarded (token, seq) pairs. The head is always
        retained (history_depth >= 1 is enforced at construction).

        Lock order: the registry lock, every token lock in sorted-token
        order, then the file lock — the order appenders follow, so the two
        cannot deadlock. The registry lock is held throughout so that no
        new token's first record goes to the file being replaced.
        """
        with self._registry_lock:
            states = sorted(self._tokens.items())
            for _token, state in states:
                state.lock.acquire()
            try:
                retained = [(token, state) for token, state in states if state.records]
                discarded = [
                    (token, seq)
                    for token, state in retained
                    for seq in range(state.file_floor, state.records[0].seq)
                ]
                if not discarded:
                    return []
                if self.path is not None:
                    with self._file_lock:
                        try:
                            write_durably(self.path, (
                                serialize_record(record) + "\n"
                                for _token, state in retained
                                for record in state.records
                            ))
                        finally:  # append to whatever file the path now names
                            if self._fh is not None:
                                self._fh.close()
                            self._fh = open(self.path, "a", encoding="utf-8")
                for _token, state in retained:
                    state.file_floor = state.records[0].seq
                return discarded
            finally:
                for _token, state in reversed(states):
                    state.lock.release()

    # -- lifecycle -------------------------------------------------------

    def file_bytes(self) -> bytes:
        if self.path is None:
            return b""
        with self._file_lock:
            return self.path.read_bytes() if self.path.exists() else b""

    def close(self) -> None:
        with self._file_lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

