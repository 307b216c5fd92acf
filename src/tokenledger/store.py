"""Append-only record database: publishing gate, per-token indexes, pruning.

The storage file is the database: newline-delimited canonical record lines,
appended in acceptance order and fsynced before an append returns. Loading
replays every line through the same gate, so the on-disk file is
self-verifying, and each link is proved once, there. Pruning trims the
in-memory window eagerly (per token, the head always survives); compact()
rewrites the file to match.
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
    LinkVerdict,
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

CONFLICT_REASONS = (SEQ_OCCUPIED, GENESIS_EXISTS)

# get_record result for a seq that existed but was discarded by retention.
PRUNED = object()


@dataclass(frozen=True)
class AppendResult:
    status: str  # "added" | "duplicate" | "rejected"
    reason: str | None = None


ADDED = AppendResult("added")
DUPLICATE = AppendResult("duplicate")


def rejected(reason: str) -> AppendResult:
    return AppendResult("rejected", reason)


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

    @classmethod
    def from_file(cls, path: str | Path) -> "StoreConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


def replace_durably(src: Path, dst: Path) -> None:
    """os.replace, then fsync the directory so the rename survives power loss."""
    os.replace(src, dst)
    fd = os.open(dst.parent, os.O_RDONLY)
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

    def __init__(self, history_depth: int | None):
        self.records: deque[Record] = deque(maxlen=history_depth)
        self.file_floor = 0
        self.lock = threading.Lock()

    @property
    def window_start(self) -> int:
        return self.records[0].seq


class Ledger:
    """Token chains behind a single validation gate, mirrored to a text file.

    Appends for one token are serialized; different tokens proceed in
    parallel. File writes are ordered by a separate lock and fsynced, so an
    accepted record is durable before append() returns.
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
        """Run stored record lines through the gate, in order; raises
        LoadError naming the first line (from 1) that fails to parse or link.
        Writes nothing: the lines are already stored."""
        for line_no, line in enumerate(lines, start=1):
            try:
                record = parse_record(self.cfg, line)
            except (RecordFormatError, ValueError) as exc:
                raise LoadError(line_no, str(exc)) from exc
            result = self._gate(record, trusted_replay=True)
            if result.status == "rejected":
                raise LoadError(
                    line_no,
                    f"record (token {record.token[:12]}..., seq {record.seq}) "
                    f"failed the gate: {result.reason}",
                )

    # -- gate ------------------------------------------------------------

    def _state(self, token: str, create: bool = False) -> _TokenState | None:
        with self._registry_lock:
            state = self._tokens.get(token)
            if state is None and create:
                state = self._tokens[token] = _TokenState(self.history_depth)
            return state

    def _gate(self, record: Record, trusted_replay: bool = False) -> AppendResult:
        """The linking rules for an already validated record."""
        state = self._state(record.token, create=record.seq == 0 or trusted_replay)
        if state is None:
            return rejected(SEQ_GAP)
        with state.lock:
            records = state.records
            if not records:
                if record.seq == 0 or trusted_replay:
                    # durable before visible: a failed write must not leave
                    # phantom in-memory state
                    self._persist(record, trusted_replay)
                    records.append(record)
                    state.file_floor = record.seq
                    return ADDED
                return rejected(SEQ_GAP)
            head = records[-1]
            if record.seq <= head.seq:
                window_start = state.window_start
                if record.seq >= window_start:
                    existing = records[record.seq - window_start]
                    if existing == record:
                        return DUPLICATE
                if record.seq == 0:
                    return rejected(GENESIS_EXISTS)
                return rejected(SEQ_OCCUPIED)
            if record.seq > head.seq + 1:
                return rejected(SEQ_GAP)
            verdict = verify_link(self.cfg, head, record)
            if not verdict.ok:
                return rejected(verdict.field)
            self._persist(record, trusted_replay)
            records.append(record)  # a bounded deque drops the oldest record
            return ADDED

    def _persist(self, record: Record, trusted_replay: bool) -> None:
        if trusted_replay or self.path is None:
            return
        with self._file_lock:
            if self._fh is None:
                raise RuntimeError("ledger is closed")
            self._fh.write(serialize_record(record) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

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
            if seq < state.window_start:
                return PRUNED
            return records[seq - state.window_start]

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

        Nothing is hashed again. _gate is the only way a record enters a
        token's records, and it proves verify_link(head, record) before
        every append (at ADD, at sync and at replay); records are frozen, and
        a bounded deque that drops its oldest record keeps every adjacent
        pair it holds. So every retained link has been proved once already.
        """
        reports = {}
        for token in self.tokens():
            records = self.get_chain(token)
            verdicts = tuple(LinkVerdict(prev_seq=prev.seq, ok=True) for prev in records[:-1])
            reports[token] = ChainReport(token=token, ok=True, verdicts=verdicts)
        return reports

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
                    for seq in range(state.file_floor, state.window_start)
                ]
                if not discarded:
                    return []
                if self.path is not None:
                    with self._file_lock:
                        tmp = self.path.with_suffix(self.path.suffix + ".compact")
                        with open(tmp, "w", encoding="utf-8") as fh:
                            for _token, state in retained:
                                for record in state.records:
                                    fh.write(serialize_record(record) + "\n")
                            fh.flush()
                            os.fsync(fh.fileno())
                        if self._fh is not None:
                            self._fh.close()
                        replace_durably(tmp, self.path)
                        self._fh = open(self.path, "a", encoding="utf-8")
                for _token, state in retained:
                    state.file_floor = state.window_start
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

