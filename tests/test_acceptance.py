"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Every criterion carries its
stated budget; the budgets are asserted, not aspirational.
"""
import random
import time

import pytest

import oracle
from conftest import (
    as_chain,
    assert_stored_chains_verify,
    build_records,
    make_token,
    wait_until,
)
from tokenledger import (
    HashConfig,
    KeyMaterial,
    Ledger,
    Record,
    TokenChain,
    WireClient,
    genesis_record,
    owns,
    parse_record,
    recipient_counter,
    recipient_finish,
    recipient_offer,
    sender_publish_half,
    sender_publish_next,
    serialize_record,
    verify_chain,
)

HEXDIGITS = "0123456789abcdef"

# criterion 1 state reused by criterion 7's "m=1 unchanged" clause
_C1_INPUTS = ("acceptance criterion one", "c1-passphrase")
_c1_lines: list[str] = []


def _announce(number: int, slug: str, started: float, budget: float | None = None):
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    limit = f", budget {budget:.0f}s" if budget else ""
    print(f"\nACCEPTANCE {number} {slug}: PASS ({elapsed:.2f}s{limit})")


# -- 1. equation fidelity ------------------------------------------------------


def _build_c1_chain():
    cfg = HashConfig(generator_count=1)
    token = make_token(_C1_INPUTS[0])
    records = build_records(cfg, token, _C1_INPUTS[1], 2)
    return cfg, token, records


def test_criterion_1_equation_fidelity():
    started = time.monotonic()
    cfg, token, records = _build_c1_chain()
    pw = _C1_INPUTS[1]
    k1 = oracle.derive(1, token, pw)
    k2 = oracle.derive(2, token, pw)
    g1 = oracle.join_hash([2, token, k2])
    assert records[0].generators[0] == oracle.join_hash([1, token, k1])
    assert records[0].owner == oracle.join_hash([1, token, g1])
    assert records[1].generators[0] == g1
    assert records[1].key == oracle.derive(1, token, pw)
    _c1_lines[:] = [serialize_record(r) for r in records]
    _announce(1, "equation-fidelity", started, budget=1.0)


# -- 2. mutation kill-rate -------------------------------------------------------


def _mutation_sweep(cfg, token, lines):
    """Exhaustive single-hex-digit and seq mutations over serialized lines.

    Returns (killed, survived) where survived lists (record index, column).
    """
    m = cfg.generator_count
    killed = 0
    survived = []
    field_columns = list(range(2, 4 + m))  # K, G..., O columns
    for idx, line in enumerate(lines):
        parts = line.split(" ")
        for col in field_columns:
            for char_pos in range(len(parts[col])):
                original = parts[col][char_pos]
                for replacement in HEXDIGITS:
                    if replacement == original:
                        continue
                    mutated_field = (
                        parts[col][:char_pos] + replacement + parts[col][char_pos + 1 :]
                    )
                    mutated_line = " ".join(
                        parts[:col] + [mutated_field] + parts[col + 1 :]
                    )
                    chain = list(lines)
                    chain[idx] = mutated_line
                    if _chain_text_fails(cfg, token, chain):
                        killed += 1
                    else:
                        survived.append((idx, col))
    # seq perturbations, +1 and -1ery record
    for idx, line in enumerate(lines):
        seq = int(line.split(" ", 1)[0])
        for delta in (1, -1):
            mutated_line = f"{seq + delta}{line[line.index(' '):]}"
            chain = list(lines)
            chain[idx] = mutated_line
            assert _chain_text_fails(cfg, token, chain), (idx, delta)
            killed += 1
    return killed, survived


def _chain_text_fails(cfg, token, lines) -> bool:
    try:
        records = [parse_record(cfg, line) for line in lines]
    except ValueError:
        return True  # unparseable mutation cannot enter any store
    try:
        return not verify_chain(cfg, as_chain(token, records)).ok
    except ValueError:
        return True


def test_criterion_2_mutation_kill_rate():
    started = time.monotonic()
    cfg = HashConfig(generator_count=1)
    token = make_token("acceptance criterion two")
    lines = [serialize_record(r) for r in build_records(cfg, token, "c2-passphrase", 5)]
    killed, survived = _mutation_sweep(cfg, token, lines)
    # the two structurally uncommitted fields: genesis key, head owner.
    # nothing in the chain commits to them, so no verifier can see them flip.
    expected_blind_spots = {(0, 2), (len(lines) - 1, 3 + cfg.generator_count)}
    assert set(survived) == expected_blind_spots
    per_field = 64 * 15
    committed_fields = len(lines) * (2 + cfg.generator_count) - 2
    assert killed == committed_fields * per_field + len(lines) * 2
    _announce(2, "mutation-kill-rate", started, budget=10.0)


# -- 3. transfer end-to-end -------------------------------------------------------


def _wire_add(client, record):
    response = client.add(serialize_record(record))
    assert response in ("OK added", "OK duplicate"), response
    return response


def _wire_chain(client, cfg, token) -> TokenChain:
    return TokenChain(
        token=token,
        records=tuple(parse_record(cfg, line) for line in client.getchain(token)),
    )


def _transfer_over_wire(cfg, client, token, km_s, km_r, rng=None, data=None):
    """Scripted two-party handshake against one server, with lock asserts."""
    m = cfg.generator_count
    chain = _wire_chain(client, cfg, token)
    offer, r_session = recipient_offer(cfg, token, chain.head.seq, km_r)
    half, s_session = sender_publish_half(cfg, chain, km_s, offer)
    _wire_add(client, half)
    s_session.mark_published(half.seq)
    for _ in range(m):
        chain = _wire_chain(client, cfg, token)
        assert not owns(cfg, chain, km_s), "sender still owns during the locked state"
        assert not owns(cfg, chain, km_r), "recipient owns before the final record"
        counter = recipient_counter(cfg, chain, km_r, r_session)
        is_final = s_session.next_record_step == m + 1
        record = sender_publish_next(
            cfg, chain, km_s, s_session, counter, data=data if is_final else None
        )
        _wire_add(client, record)
        s_session.mark_published(record.seq)
    chain = _wire_chain(client, cfg, token)
    assert owns(cfg, chain, km_r), "recipient must own after the final record"
    assert not owns(cfg, chain, km_s), "sender must be disowned after the final record"
    assert verify_chain(cfg, chain).ok
    assert recipient_finish(cfg, chain, km_r, r_session)
    assert s_session.phase == "complete" and r_session.phase == "complete"
    return chain


def _run_transfer_batch(cfg, server, pairs, seed):
    rng = random.Random(seed)
    with WireClient(server.address) as client:
        for i in range(pairs):
            token = make_token(f"c3 token {seed} {i}")
            pw_s = f"sender-{rng.randrange(10**12)}"
            pw_r = f"recipient-{rng.randrange(10**12)}"
            km_s = KeyMaterial(cfg, token, pw_s)
            km_r = KeyMaterial(cfg, token, pw_r)
            _wire_add(client, genesis_record(cfg, token, km_s))
            chain = _transfer_over_wire(cfg, client, token, km_s, km_r)
            assert len(chain.records) == 1 + cfg.generator_count + 1


def test_criterion_3_transfer_e2e(server_factory):
    started = time.monotonic()
    cfg = HashConfig(generator_count=1)
    server = server_factory(name="c3", cfg=cfg)
    _run_transfer_batch(cfg, server, pairs=200, seed=33)
    _announce(3, "transfer-e2e-200-pairs", started, budget=30.0)


# -- 4. convergence ------------------------------------------------------------------


class _Cluster:
    def __init__(self, server_factory, cfg, n=3):
        self.cfg = cfg
        self.servers = [server_factory(name=f"conv{i}", cfg=cfg) for i in range(n)]
        for server in self.servers:
            for other in self.servers:
                if other is not server:
                    server.peers.add_static(other.address)
        self.clients = [WireClient(s.address, timeout=10) for s in self.servers]

    def close(self):
        for client in self.clients:
            client.close()

    def heads(self, token):
        return [s.ledger.get_head(token) for s in self.servers]

    def ensure_head(self, index, token, seq, sources):
        """Give server `index` the chain through seq: notify may already have
        done it; otherwise pull (the randomized sync path)."""
        server = self.servers[index]
        if wait_until(
            lambda: (h := server.ledger.get_head(token)) is not None and h.seq >= seq,
            timeout=0.05,
        ):
            return
        for source in sources:
            server.sync_token(token, source)
            head = server.ledger.get_head(token)
            if head is not None and head.seq >= seq:
                return
        assert wait_until(
            lambda: (h := server.ledger.get_head(token)) is not None and h.seq >= seq,
            timeout=5,
        ), f"server {index} never obtained {token[:8]}.. seq {seq}"

    def sync_round(self, tokens):
        for server in self.servers:
            for other in self.servers:
                if other is not server:
                    for token in tokens:
                        server.sync_token(token, other.address)

    def assert_identical(self, tokens):
        for token in tokens:
            chains = [
                [serialize_record(r) for r in s.ledger.get_chain(token)]
                for s in self.servers
            ]
            assert chains[0] == chains[1] == chains[2], f"divergent chains for {token[:12]}"


def test_criterion_4_convergence(server_factory):
    started = time.monotonic()
    cfg = HashConfig(generator_count=1)
    cluster = _Cluster(server_factory, cfg, n=3)
    rng = random.Random(44)
    tokens = []
    owners = {}
    try:
        for i in range(50):
            token = make_token(f"c4 token {i}")
            pw = f"owner-{i}"
            record = genesis_record(cfg, token, KeyMaterial(cfg, token, pw))
            sink = rng.randrange(3)
            assert cluster.clients[sink].add(serialize_record(record)) == "OK added"
            tokens.append(token)
            owners[token] = (pw, sink)
        trials = 100
        for trial in range(trials):
            trng = random.Random(1000 + trial)
            touched = trng.sample(tokens, 3)
            for token in touched:
                pw, last_sink = owners[token]
                new_pw = f"owner-{trial}-{trng.randrange(10**9)}"
                sink = trng.randrange(3)
                server = cluster.servers[sink]
                km_s = KeyMaterial(cfg, token, pw)
                km_r = KeyMaterial(cfg, token, new_pw)
                # the submitting server must first hold the token's history:
                # sometimes notifications already delivered it, sometimes we
                # pull it over - the randomized interleaving under test
                head_seq = max(
                    h.seq for h in cluster.heads(token) if h is not None
                )
                sources = [s.address for s in cluster.servers if s is not server]
                trng.shuffle(sources)
                cluster.ensure_head(sink, token, head_seq, sources)
                chain = as_chain(token, server.ledger.get_chain(token))
                offer, r_session = recipient_offer(cfg, token, chain.head.seq, km_r)
                half, s_session = sender_publish_half(cfg, chain, km_s, offer)
                assert cluster.clients[sink].add(serialize_record(half)) == "OK added"
                s_session.mark_published(half.seq)
                chain = as_chain(token, server.ledger.get_chain(token))
                counter = recipient_counter(cfg, chain, km_r, r_session)
                final = sender_publish_next(cfg, chain, km_s, s_session, counter)
                assert cluster.clients[sink].add(serialize_record(final)) == "OK added"
                s_session.mark_published(final.seq)
                owners[token] = (new_pw, sink)
                if trng.random() < 0.3:
                    puller = trng.randrange(3)
                    cluster.servers[puller].sync_token(
                        token, cluster.servers[sink].address
                    )
            cluster.sync_round(touched)
            cluster.assert_identical(touched)
        # quiescence: queues drained, then a final full round and global check
        assert wait_until(
            lambda: all(s.notify_backlog() == 0 for s in cluster.servers), timeout=30
        )
        cluster.sync_round(tokens)
        cluster.assert_identical(tokens)
        assert all(s.divergence == 0 for s in cluster.servers), "false divergence"
        for server in cluster.servers:
            assert_stored_chains_verify(server.ledger)
    finally:
        cluster.close()
    _announce(4, f"convergence-3x50x{trials}", started, budget=120.0)


# -- 5. fault tolerance ----------------------------------------------------------


def test_criterion_5_fault_tolerance(server_factory, tmp_path):
    from tokenledger import LedgerServer

    started = time.monotonic()
    cfg = HashConfig(generator_count=1)
    survivors = [server_factory(name=f"surv{i}", cfg=cfg) for i in range(2)]
    mortal_ledger = Ledger(cfg, tmp_path / "mortal.db")
    mortal = LedgerServer(mortal_ledger, listen="127.0.0.1:0").start()
    everyone = survivors + [mortal]
    for server in everyone:
        for other in everyone:
            if other is not server:
                server.peers.add_static(other.address)

    tokens, owners = [], {}
    with WireClient(survivors[0].address) as client:
        for i in range(6):
            token = make_token(f"c5 token {i}")
            pw = f"c5-owner-{i}"
            _wire_add(client, genesis_record(cfg, token, KeyMaterial(cfg, token, pw)))
            tokens.append(token)
            owners[token] = pw
    for server in everyone:
        for token in tokens:
            server.sync_token(token, survivors[0].address)

    # transfers in flight: offers made and half records already published
    inflight = []
    with WireClient(survivors[0].address) as client:
        for token in tokens[:3]:
            km_s = KeyMaterial(cfg, token, owners[token])
            km_r = KeyMaterial(cfg, token, f"new-{token[:8]}")
            chain = _wire_chain(client, cfg, token)
            offer, r_session = recipient_offer(cfg, token, chain.head.seq, km_r)
            half, s_session = sender_publish_half(cfg, chain, km_s, offer)
            _wire_add(client, half)
            s_session.mark_published(half.seq)
            inflight.append((token, km_s, km_r, r_session, s_session))

    # one of three servers dies mid-run
    mortal.shutdown()
    mortal_ledger.close()

    # in-flight transfers targeting the survivors complete
    with WireClient(survivors[0].address) as client:
        for token, km_s, km_r, r_session, s_session in inflight:
            chain = _wire_chain(client, cfg, token)
            counter = recipient_counter(cfg, chain, km_r, r_session)
            final = sender_publish_next(cfg, chain, km_s, s_session, counter)
            _wire_add(client, final)
            s_session.mark_published(final.seq)
            chain = _wire_chain(client, cfg, token)
            assert owns(cfg, chain, km_r) and not owns(cfg, chain, km_s)
            owners[token] = None  # transferred away

    # fresh transfers between clients of the remaining two also complete
    with WireClient(survivors[1].address) as client:
        for token in tokens[3:]:
            for server in survivors:
                server.sync_token(token, survivors[0].address)
            km_s = KeyMaterial(cfg, token, owners[token])
            km_r = KeyMaterial(cfg, token, f"post-crash-{token[:8]}")
            _transfer_over_wire(cfg, client, token, km_s, km_r)

    # everything still verifies on the survivors (criterion-1 style)
    for server in survivors:
        for token in tokens:
            for peer in survivors:
                if peer is not server:
                    server.sync_token(token, peer.address)
        assert_stored_chains_verify(server.ledger)
    probe = tokens[0]
    lines = [serialize_record(r) for r in survivors[0].ledger.get_chain(probe)]
    first_owner_lines = oracle.build_chain(probe, "c5-owner-0", 1, m=1)
    assert lines[0] == first_owner_lines[0]

    # the dead server restarts from its files and catches up to identity
    revived_ledger = Ledger(cfg, tmp_path / "mortal.db")
    revived = LedgerServer(revived_ledger, listen="127.0.0.1:0").start()
    try:
        for token in tokens:
            revived.sync_token(token, survivors[0].address)
        for token in tokens:
            ours = [serialize_record(r) for r in revived_ledger.get_chain(token)]
            theirs = [
                serialize_record(r) for r in survivors[0].ledger.get_chain(token)
            ]
            assert ours == theirs, f"revived server diverges on {token[:12]}"
    finally:
        revived.shutdown()
        revived_ledger.close()
    _announce(5, "fault-tolerance-kill-restart", started)


# -- 6. first-wins and idempotence --------------------------------------------------


def test_criterion_6_first_wins_idempotence(server_factory):
    started = time.monotonic()
    cfg = HashConfig(generator_count=1)
    server = server_factory(name="c6", cfg=cfg)
    token = make_token("c6 token")
    honest = build_records(cfg, token, "honest-pw", 3)
    rng = random.Random(66)
    rivals = [build_records(cfg, token, f"rival-{i}", 3) for i in range(7)]

    with WireClient(server.address) as client:
        for record in honest:
            assert client.add(serialize_record(record)) == "OK added"
        snapshot = server.ledger.file_bytes()

        conflicts = 0
        for _ in range(1000):
            roll = rng.random()
            if roll < 0.45:  # exact duplicate: idempotent accept
                record = honest[rng.randrange(3)]
                assert client.add(serialize_record(record)) == "OK duplicate"
            elif roll < 0.85:  # true conflict at an occupied slot
                rival = rivals[rng.randrange(len(rivals))][rng.randrange(3)]
                response = client.add(serialize_record(rival))
                assert response in ("ERR seq-occupied", "ERR genesis-exists")
                conflicts += 1
            else:  # invalid non-conflicting junk: rejected, not divergence
                base = honest[-1]
                junk = Record(
                    seq=3,
                    token=token,
                    key="".join(rng.choices(HEXDIGITS, k=64)),
                    generators=base.generators,
                    owner=base.owner,
                )
                assert client.add(serialize_record(junk)) == "ERR bad-G(1)"

    assert server.ledger.file_bytes() == snapshot, "store changed under the barrage"
    assert [serialize_record(r) for r in server.ledger.get_chain(token)] == [
        serialize_record(r) for r in honest
    ]
    assert server.divergence == conflicts, "divergence must fire per true conflict only"
    assert conflicts > 0
    _announce(6, "first-wins-idempotence-1000", started)


# -- 7. generator-count generality ----------------------------------------------------


def test_criterion_7_generator_generality(server_factory):
    started = time.monotonic()
    for m in (0, 2, 3):
        cfg = HashConfig(generator_count=m)
        token = make_token(f"c7 equations m{m}")
        pw = f"c7-pw-{m}"
        records = build_records(cfg, token, pw, 2)
        keys = [oracle.derive(i, token, pw) for i in range(0, m + 3)]
        gens, owner = oracle.record_fields(token, 0, m, keys[1 : m + 2])
        assert list(records[0].generators) == gens
        assert records[0].owner == owner
        assert records[0].key == keys[0]

        lines = [serialize_record(r) for r in build_records(cfg, token, pw, 5)]
        killed, survived = _mutation_sweep(cfg, token, lines)
        assert set(survived) == {(0, 2), (4, 3 + m)}

        server = server_factory(name=f"c7m{m}", cfg=cfg)
        _run_transfer_batch(cfg, server, pairs=200, seed=70 + m)

    # m=1 results unchanged from criterion 1
    cfg1, token1, rebuilt = _build_c1_chain()
    lines = [serialize_record(r) for r in rebuilt]
    if _c1_lines:
        assert lines == _c1_lines
    pw = _C1_INPUTS[1]
    g1 = oracle.join_hash([2, token1, oracle.derive(2, token1, pw)])
    assert rebuilt[0].owner == oracle.join_hash([1, token1, g1])
    _announce(7, "generator-generality-m-0-2-3", started)


# -- 8. durability ---------------------------------------------------------------------


def test_criterion_8_durability(tmp_path):
    started = time.monotonic()
    cfg = HashConfig(generator_count=1)
    token = make_token("c8 token")
    records = build_records(cfg, token, "c8-pw", 100)
    db = tmp_path / "durable.db"
    boundaries = []
    with Ledger(cfg, db) as ledger:
        for record in records:
            assert ledger.append(record).status == "added"
            boundaries.append(len(ledger.file_bytes()))
    content = db.read_bytes()
    assert len(boundaries) == 100

    rng = random.Random(88)
    crash = tmp_path / "crash.db"
    for k, boundary in enumerate(boundaries, start=1):
        crash.write_bytes(content[:boundary])
        with Ledger(cfg, crash) as survivor:
            got = [r.seq for r in survivor.get_chain(token)]
            assert got == list(range(k)), f"boundary {k} not a clean prefix"
            assert verify_chain(cfg, survivor.token_chain(token)).ok
        # a torn write inside the (k+1)-th record loses only that record
        if k < 100:
            cut = boundary + rng.randrange(1, boundaries[k] - boundary)
            crash.write_bytes(content[:cut])
            with Ledger(cfg, crash) as survivor:
                got = [r.seq for r in survivor.get_chain(token)]
                assert got == list(range(k)), f"torn cut at {cut} corrupted state"
    _announce(8, "durability-crash-injection-100", started)


# -- 9. throughput sanity ----------------------------------------------------------------


def test_criterion_9_throughput(tmp_path):
    started = time.monotonic()
    cfg = HashConfig(generator_count=1)
    token = make_token("c9 token")
    records = build_records(cfg, token, "c9-pw", 2000)
    with Ledger(cfg, tmp_path / "fast.db") as ledger:
        t0 = time.monotonic()
        for record in records[:1000]:
            assert ledger.append(record).status == "added"
        mid = time.monotonic()
        for record in records[1000:]:
            assert ledger.append(record).status == "added"
        t1 = time.monotonic()
    rate_per_minute = 2000 / (t1 - t0) * 60
    assert rate_per_minute >= 5000, f"gate throughput {rate_per_minute:.0f}/min"
    first, second = mid - t0, t1 - mid
    assert second < first * 3 + 0.25, "append cost grows with chain length"
    print(f"\n  gate throughput: {rate_per_minute:,.0f} validated appends/min")
    _announce(9, "throughput-sanity", started)
