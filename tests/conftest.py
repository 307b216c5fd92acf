import dataclasses
import hashlib
import os
import stat
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracle module

from tokenledger import (
    HashConfig,
    KeyMaterial,
    Ledger,
    LedgerServer,
    TokenChain,
    genesis_record,
    self_extend,
    verify_chain,
)


@pytest.fixture
def cfg():
    return HashConfig()


def make_token(seed: str, algorithm: str = "sha256") -> str:
    return hashlib.new(algorithm, seed.encode()).hexdigest()


def build_records(cfg, token, passphrase, length, datas=None):
    """Honest single-owner chain via the package's constructive path."""
    km = KeyMaterial(cfg, token, passphrase)
    records = [genesis_record(cfg, token, km, data=(datas or {}).get(0))]
    for seq in range(1, length):
        chain = TokenChain(token=token, records=tuple(records))
        records.append(self_extend(cfg, chain, km, data=(datas or {}).get(seq)))
    return records


def as_chain(token, records):
    return TokenChain(token=token, records=tuple(records))


def rival_copies(record):
    """Copies of record that keep its seq, key and generators and change
    only the owner, or only the data."""
    flipped = ("0" if record.owner[0] != "0" else "1") + record.owner[1:]
    return [dataclasses.replace(record, owner=flipped), dataclasses.replace(record, data="rival note")]


def assert_stored_chains_verify(ledger):
    """Re-prove every stored chain with verify_chain, independently of the
    gate that let its records in (verify_all only reports the gate's proofs)."""
    tokens = ledger.tokens()
    assert tokens
    for token in tokens:
        assert verify_chain(ledger.cfg, ledger.token_chain(token)).ok, token


@pytest.fixture
def server_factory(tmp_path):
    """Spin LedgerServers on ephemeral ports; everything torn down at exit."""
    opened = []

    def make(name="node", cfg=None, peers=(), history_depth=None, **kwargs):
        cfg = cfg or HashConfig()
        ledger = Ledger(cfg, tmp_path / f"{name}.db", history_depth)
        kwargs.setdefault("probe_interval", 0.5)
        server = LedgerServer(ledger, listen="127.0.0.1:0", peers=peers, **kwargs).start()
        opened.append((server, ledger))
        return server

    yield make
    for server, ledger in opened:
        server.shutdown()
        ledger.close()


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def rename_log(monkeypatch):
    """os.replace targets and fsynced directories (by inode), in call order."""
    events = []
    replace, fsync = os.replace, os.fsync

    def spy_replace(src, dst):
        replace(src, dst)
        events.append(("replace", Path(dst)))

    def spy_fsync(fd):
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            events.append(("fsync-dir", st.st_ino))
        fsync(fd)

    monkeypatch.setattr(os, "replace", spy_replace)
    monkeypatch.setattr(os, "fsync", spy_fsync)
    return events


def dir_synced_after_replace(events, path: Path) -> bool:
    """The directory holding path was fsynced after path was last replaced."""
    last = max(i for i, event in enumerate(events) if event == ("replace", path))
    return ("fsync-dir", path.parent.stat().st_ino) in events[last + 1 :]
