import os
import random
import threading

import pytest

from conftest import (
    as_chain,
    assert_stored_chains_verify,
    build_records,
    dir_synced_after_replace,
    make_token,
)
from tokenledger import (
    HashConfig,
    KeyMaterial,
    Ledger,
    LoadError,
    Record,
    StoreConfig,
    self_extend,
    serialize_record,
    verify_chain,
)
from tokenledger.store import PRUNED

S = make_token("store token")


@pytest.fixture
def db(tmp_path):
    return tmp_path / "ledger.db"


def fill(ledger, cfg, token, passphrase, length, datas=None):
    records = build_records(cfg, token, passphrase, length, datas)
    for record in records:
        result = ledger.append(record)
        assert result.status == "added", (record.seq, result)
    return records


# -- gate ---------------------------------------------------------------------


def test_genesis_accepted_and_first_wins(cfg, db):
    with Ledger(cfg, db) as ledger:
        g = build_records(cfg, S, "pw", 1)[0]
        assert ledger.append(g).status == "added"
        rival = build_records(cfg, S, "other-pw", 1)[0]
        result = ledger.append(rival)
        assert result.status == "rejected" and result.reason == "genesis-exists"
        assert ledger.get_head(S) == g


def test_genesis_must_start_at_zero(cfg, db):
    with Ledger(cfg, db) as ledger:
        later = build_records(cfg, S, "pw", 3)[2]
        result = ledger.append(later)
        assert result.status == "rejected" and result.reason == "seq-gap"


def test_extension_and_gap(cfg, db):
    with Ledger(cfg, db) as ledger:
        records = build_records(cfg, S, "pw", 4)
        assert ledger.append(records[0]).status == "added"
        assert ledger.append(records[1]).status == "added"
        result = ledger.append(records[3])
        assert result.reason == "seq-gap"
        assert ledger.append(records[2]).status == "added"


def test_duplicate_is_idempotent_accept(cfg, db):
    with Ledger(cfg, db) as ledger:
        records = fill(ledger, cfg, S, "pw", 3)
        before = ledger.file_bytes()
        for record in records:
            assert ledger.append(record).status == "duplicate"
        assert ledger.file_bytes() == before


def test_conflict_at_occupied_seq_rejected(cfg, db):
    with Ledger(cfg, db) as ledger:
        fill(ledger, cfg, S, "pw", 3)
        rival = build_records(cfg, S, "rival-pw", 3)[1]
        result = ledger.append(rival)
        assert result.status == "rejected" and result.reason == "seq-occupied"


def test_bad_commitments_rejected_with_field_reason(cfg, db):
    with Ledger(cfg, db) as ledger:
        records = build_records(cfg, S, "pw", 2)
        ledger.append(records[0])
        good = records[1]
        flip = lambda s: ("0" if s[0] != "0" else "1") + s[1:]
        bad_key = Record(seq=1, token=S, key=flip(good.key), generators=good.generators, owner=good.owner)
        result = ledger.append(bad_key)
        assert result.reason == "bad-G(1)"
        # a record whose generator list does not match the config
        wrong_count = Record(seq=1, token=S, key=good.key, generators=(), owner=good.owner)
        assert ledger.append(wrong_count).reason == "wrong-generator-count"


def test_bad_owner_reason(db):
    cfg = HashConfig(generator_count=0)
    with Ledger(cfg, db) as ledger:
        records = build_records(cfg, S, "pw", 2)
        ledger.append(records[0])
        good = records[1]
        flip = ("0" if good.key[0] != "0" else "1") + good.key[1:]
        bad = Record(seq=1, token=S, key=flip, generators=(), owner=good.owner)
        assert ledger.append(bad).reason == "bad-O"


def test_gate_soundness_under_fuzz(cfg, db):
    """Interleaved valid/invalid submissions leave only verified chains."""
    rng = random.Random(21)
    with Ledger(cfg, db) as ledger:
        tokens = {}
        for t in range(5):
            token = make_token(f"fuzz {t}")
            tokens[token] = build_records(cfg, token, f"pw-{t}", 12)
        # geneses go in first: a junk record at seq 0 for an unknown token
        # would itself be a legitimate genesis (fields are unconstrained)
        progress = {}
        for token, records in tokens.items():
            assert ledger.append(records[0]).status == "added"
            progress[token] = 1
        submissions = 0
        while submissions < 400:
            submissions += 1
            token = rng.choice(list(tokens))
            records = tokens[token]
            roll = rng.random()
            if roll < 0.5 and progress[token] < len(records):
                assert ledger.append(records[progress[token]]).status == "added"
                progress[token] += 1
            elif roll < 0.7 and progress[token] > 0:
                ledger.append(records[rng.randrange(progress[token])])  # duplicate
            else:
                base = records[min(progress[token], len(records) - 1)]
                junk = Record(
                    seq=rng.choice([base.seq, base.seq + 1, base.seq + 3]),
                    token=token,
                    key="".join(rng.choices("0123456789abcdef", k=64)),
                    generators=base.generators,
                    owner=base.owner,
                )
                assert ledger.append(junk).status in ("rejected", "duplicate")
        assert_stored_chains_verify(ledger)


# -- reads ----------------------------------------------------------------------


def test_reads_reflect_appends(cfg, db):
    with Ledger(cfg, db) as ledger:
        records = fill(ledger, cfg, S, "pw", 3)
        assert ledger.get_head(S) == records[-1]
        assert ledger.get_record(S, 1) == records[1]
        assert ledger.get_record(S, 7) is None
        assert ledger.get_record(make_token("unknown"), 0) is None
        assert ledger.get_head(make_token("unknown")) is None
        assert ledger.get_chain(S) == records


def test_retention_window_reads(cfg, db):
    with Ledger(cfg, db, history_depth=2) as ledger:
        fill(ledger, cfg, S, "pw", 5)
        assert [r.seq for r in ledger.get_chain(S)] == [3, 4]
        assert ledger.get_record(S, 1) is PRUNED
        assert ledger.get_record(S, 4).seq == 4
        assert ledger.get_record(S, 9) is None  # never existed yet


# -- compaction -------------------------------------------------------------------


def test_compact_unlimited_depth_reports_nothing(cfg, db):
    with Ledger(cfg, db) as ledger:
        fill(ledger, cfg, S, "pw", 5)
        assert ledger.compact() == []


def test_compact_small_chain_untouched(cfg, db):
    with Ledger(cfg, db, history_depth=3) as ledger:
        fill(ledger, cfg, S, "pw", 2)
        assert ledger.compact() == []


def test_compact_depth1_keeps_head_and_future_appends_validate(cfg, db):
    with Ledger(cfg, db, history_depth=1) as ledger:
        records = fill(ledger, cfg, S, "pw", 10)
        discarded = ledger.compact()
        assert sorted(discarded) == [(S, n) for n in range(9)]
        assert [r.seq for r in ledger.get_chain(S)] == [9]
        nxt = self_extend(cfg, as_chain(S, records), KeyMaterial(cfg, S, "pw"))
        assert ledger.append(nxt).status == "added"
    with Ledger(cfg, db, history_depth=1) as reloaded:
        assert [r.seq for r in reloaded.get_chain(S)] == [10]


def test_compacted_file_reloads_and_reports_pruned(cfg, db):
    with Ledger(cfg, db, history_depth=2) as ledger:
        fill(ledger, cfg, S, "pw", 6)
        ledger.compact()
    with Ledger(cfg, db) as reloaded:
        assert [r.seq for r in reloaded.get_chain(S)] == [4, 5]
        assert reloaded.get_record(S, 0) is PRUNED
        assert verify_chain(cfg, reloaded.token_chain(S)).ok


def test_compact_fsyncs_the_directory_after_the_rename(cfg, db, rename_log):
    with Ledger(cfg, db, history_depth=2) as ledger:
        fill(ledger, cfg, S, "pw", 4)
        assert ledger.compact()
    assert dir_synced_after_replace(rename_log, db)


# -- verify_all --------------------------------------------------------------------


def assert_reports_match_verify_chain(ledger):
    reports = ledger.verify_all()
    assert sorted(reports) == sorted(ledger.tokens())
    for token, report in reports.items():
        assert report == verify_chain(ledger.cfg, ledger.token_chain(token)), token


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_verify_all_matches_verify_chain(m, db):
    """Appended, reloaded, depth-bounded, and compacted to a window that
    does not start at seq 0: verify_all reports what verify_chain proves."""
    cfg = HashConfig(generator_count=m)
    tokens = [make_token(f"parity m{m} {t}") for t in range(3)]
    with Ledger(cfg, db) as ledger:
        for t, token in enumerate(tokens):
            fill(ledger, cfg, token, f"pw-{t}", 1 + 3 * t)  # 1, 4 and 7 records
        assert_reports_match_verify_chain(ledger)
    with Ledger(cfg, db) as reloaded:
        assert_reports_match_verify_chain(reloaded)
    with Ledger(cfg, db, history_depth=3) as bounded:
        assert [r.seq for r in bounded.get_chain(tokens[2])] == [4, 5, 6]
        assert_reports_match_verify_chain(bounded)
        assert bounded.compact()
    with Ledger(cfg, db) as compacted:
        assert [r.seq for r in compacted.get_chain(tokens[2])] == [4, 5, 6]
        assert_reports_match_verify_chain(compacted)


def _mutants(lines, m):
    """Acceptance criterion 2's sweep: every other hex digit at each
    position of K, G_1..G_m and O, and each seq +1 and -1, one line at a time.
    Yields (line index, column, mutated lines)."""
    for idx, line in enumerate(lines):
        parts = line.split(" ")
        for col in range(2, 4 + m):
            for pos, original in enumerate(parts[col]):
                for digit in "0123456789abcdef".replace(original, ""):
                    field = parts[col][:pos] + digit + parts[col][pos + 1 :]
                    mutated = " ".join(parts[:col] + [field] + parts[col + 1 :])
                    yield idx, col, lines[:idx] + [mutated] + lines[idx + 1 :]
        for delta in (1, -1):
            mutated = f"{int(parts[0]) + delta} {line.split(' ', 1)[1]}"
            yield idx, 0, lines[:idx] + [mutated] + lines[idx + 1 :]


def test_verify_all_matches_verify_chain_on_every_mutant_that_loads():
    """The mutants that load are the sweep's two blind spots, the genesis
    key and the head owner, which nothing commits to."""
    cfg = HashConfig(generator_count=1)
    token = make_token("acceptance criterion two")
    lines = [serialize_record(r) for r in build_records(cfg, token, "c2-passphrase", 5)]
    loaded = set()
    for idx, col, mutated in _mutants(lines, cfg.generator_count):
        ledger = Ledger(cfg, None)
        try:
            ledger.replay(mutated)
        except LoadError:
            continue
        loaded.add((idx, col))
        assert_reports_match_verify_chain(ledger)
    assert loaded == {(0, 2), (len(lines) - 1, 3 + cfg.generator_count)}


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_load_proves_each_link_once_and_verify_all_hashes_nothing(m, db, monkeypatch):
    """m + 1 hashes per link at load, through the name the benchmark's
    tracer rebinds; verify_all reports those proofs and hashes nothing."""
    from tokenledger import chain

    cfg = HashConfig(generator_count=m)
    with Ledger(cfg, db) as ledger:
        fill(ledger, cfg, S, "pw", 6)
        fill(ledger, cfg, make_token("second"), "pw-2", 3)
    calls = []
    counted = chain.canonical_hash
    monkeypatch.setattr(chain, "canonical_hash", lambda *a: calls.append(a) or counted(*a))
    with Ledger(cfg, db) as loaded:
        assert len(calls) == (m + 1) * (5 + 2)
        calls.clear()
        reports = loaded.verify_all()
    assert calls == []
    assert [len(reports[token].verdicts) for token in (S, make_token("second"))] == [5, 2]


# -- persistence -------------------------------------------------------------------


def test_file_is_canonical_lines(cfg, db):
    with Ledger(cfg, db) as ledger:
        records = fill(ledger, cfg, S, "pw", 3, datas={1: "note one"})
        want = "".join(serialize_record(r) + "\n" for r in records)
        assert ledger.file_bytes().decode() == want


def test_reload_roundtrip(cfg, db):
    with Ledger(cfg, db) as ledger:
        fill(ledger, cfg, S, "pw", 5)
        state = ledger.file_bytes()
    with Ledger(cfg, db) as again:
        assert again.file_bytes() == state
        assert verify_chain(cfg, again.token_chain(S)).ok


def test_corrupted_digit_aborts_load_naming_line(cfg, db):
    with Ledger(cfg, db) as ledger:
        fill(ledger, cfg, S, "pw", 4)
    raw = db.read_text().splitlines()
    line = raw[2]
    pos = line.index(" ") + 5
    flipped = ("0" if line[pos] != "0" else "1")
    raw[2] = line[:pos] + flipped + line[pos + 1 :]
    db.write_text("\n".join(raw) + "\n")
    with pytest.raises(LoadError) as err:
        Ledger(cfg, db)
    assert err.value.line_no in (3, 4)  # the bad digest or the link it breaks


def test_empty_file_is_empty_ledger(cfg, db):
    db.write_bytes(b"")
    with Ledger(cfg, db) as ledger:
        assert ledger.tokens() == []


def test_torn_final_line_truncated_with_warning(cfg, db, caplog):
    with Ledger(cfg, db) as ledger:
        fill(ledger, cfg, S, "pw", 3)
        full = ledger.file_bytes()
    db.write_bytes(full + b"4 deadbeef")  # crash artifact
    with caplog.at_level("WARNING"):
        with Ledger(cfg, db) as ledger:
            assert len(ledger.get_chain(S)) == 3
    assert any("torn" in message for message in caplog.messages)
    assert db.read_bytes() == full  # file repaired in place


def test_durability_prefix_property(cfg, db):
    """Any crash boundary reloads to an exact prefix of the appends."""
    with Ledger(cfg, db) as ledger:
        records = fill(ledger, cfg, S, "pw", 20)
        boundaries = []
        content = b""
        for record in records:
            content += (serialize_record(record) + "\n").encode()
            boundaries.append(len(content))
        assert ledger.file_bytes() == content
    for k, boundary in enumerate(boundaries, start=1):
        crash = db.parent / "crash.db"
        crash.write_bytes(content[:boundary])
        with Ledger(cfg, crash) as survivor:
            assert [r.seq for r in survivor.get_chain(S)] == list(range(k))


def test_concurrent_appends_different_tokens(cfg, db):
    chains = {}
    for t in range(8):
        token = make_token(f"thread {t}")
        chains[token] = build_records(cfg, token, f"pw-{t}", 15)
    with Ledger(cfg, db) as ledger:
        errors = []

        def run(token):
            try:
                for record in chains[token]:
                    assert ledger.append(record).status == "added"
            except Exception as exc:  # propagate to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(token,)) for token in chains]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        for token in chains:
            assert len(ledger.get_chain(token)) == 15
    with Ledger(cfg, db) as reloaded:
        assert_stored_chains_verify(reloaded)


def test_compact_keeps_a_genesis_written_during_it(cfg, db, monkeypatch):
    """A new token's first record, mid-write when compact() starts, survives the rewrite."""
    newcomer = build_records(cfg, make_token("newcomer"), "pw", 1)[0]
    in_fsync, release = threading.Event(), threading.Event()
    real_fsync = os.fsync

    def fsync(fd):
        if threading.current_thread().name == "newcomer":
            in_fsync.set()
            release.wait(timeout=10)
        real_fsync(fd)

    with Ledger(cfg, db, history_depth=1) as ledger:
        fill(ledger, cfg, S, "pw", 3)
        monkeypatch.setattr(os, "fsync", fsync)
        appender = threading.Thread(target=ledger.append, args=(newcomer,), name="newcomer")
        compactor = threading.Thread(target=ledger.compact)
        appender.start()
        assert in_fsync.wait(timeout=10)
        compactor.start()
        compactor.join(timeout=0.2)  # time for compact() to reach the locks it waits on
        release.set()
        appender.join(timeout=10)
        compactor.join(timeout=10)
        assert not appender.is_alive() and not compactor.is_alive()
    with Ledger(cfg, db) as reloaded:
        assert reloaded.get_head(newcomer.token) == newcomer


def test_concurrent_conflicts_one_winner(cfg, db):
    """Racing same-seq submissions: exactly one occupies each slot, forever."""
    token = make_token("race")
    variants = [build_records(cfg, token, f"pw-{i}", 1)[0] for i in range(16)]
    with Ledger(cfg, db) as ledger:
        outcomes = []
        lock = threading.Lock()

        def run(record):
            result = ledger.append(record)
            with lock:
                outcomes.append((record, result.status))

        threads = [threading.Thread(target=run, args=(v,)) for v in variants]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        added = [r for r, status in outcomes if status == "added"]
        assert len(added) == 1
        assert ledger.get_head(token) == added[0]
        for record, status in outcomes:
            if record != added[0]:
                assert status == "rejected"


def test_first_wins_stability_1000(cfg, db):
    token = make_token("stability")
    honest = build_records(cfg, token, "pw-honest", 2)
    rivals = [build_records(cfg, token, f"pw-r{i}", 2) for i in range(10)]
    with Ledger(cfg, db) as ledger:
        for record in honest:
            ledger.append(record)
        before = ledger.file_bytes()
        rng = random.Random(17)
        for _ in range(1000):
            rival = rng.choice(rivals)[rng.randrange(2)]
            assert ledger.append(rival).status == "rejected"
        assert ledger.file_bytes() == before
        assert ledger.get_chain(token) == honest


# -- config file --------------------------------------------------------------------


def test_store_config_parse_roundtrip(tmp_path):
    text = (
        "# server config\n"
        "algorithm=sha256\n"
        "domain_tag=prod-db\n"
        "generators=2\n"
        "history_depth=16\n"
        "listen=0.0.0.0:9440\n"
        "peers=10.0.0.1:9440, 10.0.0.2:9440\n"
    )
    path = tmp_path / "node.conf"
    path.write_text(text)
    cfg = StoreConfig.from_file(path)
    assert cfg.generators == 2
    assert cfg.history_depth == 16
    assert cfg.peers == ("10.0.0.1:9440", "10.0.0.2:9440")
    hc = cfg.hash_config()
    assert hc.domain_tag == "prod-db" and hc.generator_count == 2


def test_store_config_defaults_and_unlimited():
    cfg = StoreConfig.from_text("history_depth=unlimited\n")
    assert cfg.history_depth is None
    assert cfg.algorithm == "sha256"
    with pytest.raises(ValueError):
        StoreConfig.from_text("history_depth=0\n")
    with pytest.raises(ValueError):
        StoreConfig.from_text("nonsense=1\n")
    with pytest.raises(ValueError):
        StoreConfig.from_text("algorithm=md5\n")
