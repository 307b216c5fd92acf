import dataclasses
import random

import pytest

import oracle
from conftest import as_chain, build_records, make_token
from tokenledger import (
    EncodingError,
    HashConfig,
    KeyMaterial,
    OfferMessage,
    OwnershipError,
    TransferAborted,
    TransferPending,
    TransferProtocolError,
    TransferSession,
    derive_key,
    owns,
    parse_transfer_message,
    recipient_counter,
    recipient_finish,
    recipient_offer,
    self_extend,
    sender_publish_half,
    sender_publish_next,
    verify_chain,
)
from tokenledger.wallet import PhaseError

S = make_token("wallet token")

# frozen: sha256 of `1 <S> alice-secret` where S = sha256("oracle token alpha")
ORACLE_S = "9d605f02e10dae6d5a0fa0b901b18be086e3bfc81355f5cea9ad34863dc74c36"
DERIVE_1_ALICE = "a1d6e7fdbc213843777e45a19859eb41c04435be62549070b66a0441a827a081"


class Exchange:
    """In-memory stand-in for a store: appends records, serves chains."""

    def __init__(self, cfg, token, records):
        self.cfg = cfg
        self.token = token
        self.records = list(records)

    def chain(self):
        return as_chain(self.token, self.records)

    def publish(self, record):
        self.records.append(record)


def run_transfer(cfg, exchange, km_sender, km_recipient, locked_probe=None, data=None):
    """Full handshake; returns (sender session, recipient session)."""
    m = cfg.generator_count
    offer, r_session = recipient_offer(cfg, exchange.token, exchange.chain().head.seq, km_recipient)
    half, s_session = sender_publish_half(cfg, exchange.chain(), km_sender, offer)
    exchange.publish(half)
    s_session.mark_published(half.seq)
    for _ in range(m):
        if locked_probe is not None:
            locked_probe(exchange.chain())
        counter = recipient_counter(cfg, exchange.chain(), km_recipient, r_session)
        is_final = s_session.next_record_step == m + 1
        record = sender_publish_next(
            cfg, exchange.chain(), km_sender, s_session, counter,
            data=data if is_final else None,
        )
        exchange.publish(record)
        s_session.mark_published(record.seq)
    assert recipient_finish(cfg, exchange.chain(), km_recipient, r_session)
    return s_session, r_session


# -- key derivation -----------------------------------------------------------


def test_derive_key_frozen_vector(cfg):
    assert derive_key(cfg, ORACLE_S, "alice-secret", 1) == DERIVE_1_ALICE
    assert oracle.derive(1, ORACLE_S, "alice-secret") == DERIVE_1_ALICE


def test_derive_key_deterministic_and_index_separated(cfg):
    a = derive_key(cfg, S, "pw", 1)
    assert a == derive_key(cfg, S, "pw", 1)
    assert a != derive_key(cfg, S, "pw", 2)
    assert a == oracle.derive(1, S, "pw")


@pytest.mark.parametrize("pw", ["", "with space", "nl\n", "cr\r"])
def test_bad_passphrases_rejected_at_wallet_creation(cfg, pw):
    with pytest.raises(EncodingError):
        KeyMaterial(cfg, S, pw)


def test_key_material_never_reprs_passphrase(cfg):
    km = KeyMaterial(cfg, S, "super-secret-phrase")
    assert "super-secret-phrase" not in repr(km)


# -- ownership ----------------------------------------------------------------


def test_owner_recognized_and_stranger_rejected(cfg):
    records = build_records(cfg, S, "owner-pw", 4)
    chain = as_chain(S, records)
    assert owns(cfg, chain, KeyMaterial(cfg, S, "owner-pw"))
    assert not owns(cfg, chain, KeyMaterial(cfg, S, "stranger-pw"))


def test_owns_m0_single_key():
    cfg = HashConfig(generator_count=0)
    chain = as_chain(S, build_records(cfg, S, "pw0", 2))
    assert owns(cfg, chain, KeyMaterial(cfg, S, "pw0"))


def test_owns_empty_chain_is_an_error(cfg):
    with pytest.raises(ValueError):
        owns(cfg, as_chain(S, []), KeyMaterial(cfg, S, "pw"))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_ownership_is_exactly_m_plus_one_keys(m):
    """Withholding any single window key breaks the predicate."""
    cfg = HashConfig(generator_count=m)
    token = make_token(f"window {m}")
    records = build_records(cfg, token, "pw-window", 3)
    chain = as_chain(token, records)
    head_seq = chain.head.seq

    class Withholding(KeyMaterial):
        """Derives every key but one, and notes which keys were asked for."""

        def __init__(self, withheld):
            super().__init__(cfg, token, "pw-window")
            self.withheld = withheld
            self.asked = set()

        def key(self, index):
            self.asked.add(index)
            if index == self.withheld:
                return oracle.derive(999, token, "someone-else")
            return super().key(index)

    km = Withholding(withheld=None)
    assert owns(cfg, chain, km)
    assert km.asked == set(range(head_seq + 1, head_seq + m + 2))
    for withheld in sorted(km.asked):
        assert not owns(cfg, chain, Withholding(withheld))


# -- offers --------------------------------------------------------------------


def test_offer_value_composition(cfg):
    """Opening commitment for a genesis-headed chain: H(2, S, H(3, S, K'_3))."""
    km_r = KeyMaterial(cfg, S, "recipient-pw")
    offer, session = recipient_offer(cfg, S, 0, km_r)
    want = oracle.join_hash([2, S, oracle.join_hash([3, S, oracle.derive(3, S, "recipient-pw")])])
    assert offer.owner_commitment == want
    assert session.phase == "offered"


def test_offer_deterministic_per_key_material(cfg):
    km = KeyMaterial(cfg, S, "pw-r")
    a, _ = recipient_offer(cfg, S, 5, km)
    b, _ = recipient_offer(cfg, S, 5, km)
    assert a == b
    c, _ = recipient_offer(cfg, S, 5, KeyMaterial(cfg, S, "pw-other"))
    assert c != a


def test_messages_carry_only_digests_and_token(cfg):
    """Structural anonymity: no indices, no identities, single-line formats."""
    km = KeyMaterial(cfg, S, "pw-anon")
    offer, _ = recipient_offer(cfg, S, 0, km)
    assert {f.name for f in dataclasses.fields(offer)} == {"token", "owner_commitment"}
    line = offer.to_line()
    assert "\n" not in line
    verb, *values = line.split(" ")
    assert verb == "OFFER" and all(len(v) == 64 for v in values)

    exchange = Exchange(cfg, S, build_records(cfg, S, "pw-a", 1))
    offer2, r_session = recipient_offer(cfg, S, 0, km)
    half, s_session = sender_publish_half(cfg, exchange.chain(), KeyMaterial(cfg, S, "pw-a"), offer2)
    exchange.publish(half)
    counter = recipient_counter(cfg, exchange.chain(), km, r_session)
    assert {f.name for f in dataclasses.fields(counter)} == {
        "token", "generator_commitments", "owner_commitment",
    }
    cverb, *cvalues = counter.to_line().split(" ")
    assert cverb == "COUNTER" and all(len(v) == 64 for v in cvalues)


def test_message_line_roundtrip(cfg):
    km = KeyMaterial(cfg, S, "pw-rt")
    offer, _ = recipient_offer(cfg, S, 3, km)
    assert parse_transfer_message(cfg, offer.to_line()) == offer
    counter = parse_transfer_message(cfg, f"COUNTER {S} {S} {S}")
    assert counter.generator_commitments == (S,)
    with pytest.raises(TransferProtocolError):
        parse_transfer_message(cfg, "NONSENSE a b")


# -- handshake, happy paths -----------------------------------------------------


def test_full_transfer_single_generator_two_rounds(cfg):
    km_s = KeyMaterial(cfg, S, "sender-pw")
    km_r = KeyMaterial(cfg, S, "recipient-pw")
    exchange = Exchange(cfg, S, build_records(cfg, S, "sender-pw", 1))

    locked_states = []

    def probe(chain):
        locked_states.append((owns(cfg, chain, km_s), owns(cfg, chain, km_r)))

    s_session, r_session = run_transfer(cfg, exchange, km_s, km_r, locked_probe=probe)
    assert locked_states == [(False, False)]
    chain = exchange.chain()
    assert owns(cfg, chain, km_r) and not owns(cfg, chain, km_s)
    assert verify_chain(cfg, chain).ok
    assert s_session.phase == "complete" and r_session.phase == "complete"
    assert len(chain.records) == 3  # genesis + half + final


@pytest.mark.parametrize("m", [0, 2, 3])
def test_full_transfer_other_generator_counts(m):
    cfg = HashConfig(generator_count=m)
    token = make_token(f"transfer m{m}")
    km_s = KeyMaterial(cfg, token, "alice-pw")
    km_r = KeyMaterial(cfg, token, "bob-pw")
    exchange = Exchange(cfg, token, build_records(cfg, token, "alice-pw", 2))

    locked = []

    def probe(chain):
        locked.append((owns(cfg, chain, km_s), owns(cfg, chain, km_r)))

    run_transfer(cfg, exchange, km_s, km_r, locked_probe=probe)
    chain = exchange.chain()
    assert owns(cfg, chain, km_r) and not owns(cfg, chain, km_s)
    assert verify_chain(cfg, chain).ok
    assert len(chain.records) == 2 + m + 1
    # locked through every intermediate state; m=0 has none
    assert locked == [(False, False)] * m


def test_transfer_chains_compose(cfg):
    """A token can be handed on: A -> B -> C, each new owner exclusive."""
    token = make_token("relay")
    pws = ["pw-a", "pw-b", "pw-c"]
    exchange = Exchange(cfg, token, build_records(cfg, token, pws[0], 1))
    for sender_pw, recipient_pw in zip(pws, pws[1:]):
        run_transfer(
            cfg, exchange, KeyMaterial(cfg, token, sender_pw), KeyMaterial(cfg, token, recipient_pw)
        )
    chain = exchange.chain()
    assert verify_chain(cfg, chain).ok
    assert owns(cfg, chain, KeyMaterial(cfg, token, "pw-c"))
    for loser in ("pw-a", "pw-b"):
        assert not owns(cfg, chain, KeyMaterial(cfg, token, loser))


def test_key_index_never_revealed_twice(cfg):
    """Each record reveals the key at its own seq; indices never repeat."""
    token = make_token("no reuse")
    exchange = Exchange(cfg, token, build_records(cfg, token, "pw-x", 1))
    run_transfer(cfg, exchange, KeyMaterial(cfg, token, "pw-x"), KeyMaterial(cfg, token, "pw-y"))
    revealed = [r.seq for r in exchange.records]
    assert len(revealed) == len(set(revealed))
    keys = [r.key for r in exchange.records]
    assert len(keys) == len(set(keys))


def test_final_record_can_carry_data(cfg):
    token = make_token("with data")
    exchange = Exchange(cfg, token, build_records(cfg, token, "pw-s", 1))
    run_transfer(
        cfg, exchange, KeyMaterial(cfg, token, "pw-s"), KeyMaterial(cfg, token, "pw-r"),
        data="paid in full",
    )
    assert exchange.chain().head.data == "paid in full"
    assert verify_chain(cfg, exchange.chain()).ok


# -- handshake, guards and failures ---------------------------------------------


def test_sender_without_ownership_refuses(cfg):
    exchange = Exchange(cfg, S, build_records(cfg, S, "real-owner", 1))
    km_r = KeyMaterial(cfg, S, "pw-r")
    offer, _ = recipient_offer(cfg, S, 0, km_r)
    with pytest.raises(OwnershipError):
        sender_publish_half(cfg, exchange.chain(), KeyMaterial(cfg, S, "impostor"), offer)


def test_offer_for_wrong_token_rejected(cfg):
    exchange = Exchange(cfg, S, build_records(cfg, S, "pw-s", 1))
    other = make_token("some other token")
    offer = OfferMessage(token=other, owner_commitment=S)
    with pytest.raises(TransferProtocolError, match="token"):
        sender_publish_half(cfg, exchange.chain(), KeyMaterial(cfg, S, "pw-s"), offer)


def test_counter_before_half_visible_is_retryable(cfg):
    km_r = KeyMaterial(cfg, S, "pw-r")
    exchange = Exchange(cfg, S, build_records(cfg, S, "pw-s", 1))
    offer, r_session = recipient_offer(cfg, S, 0, km_r)
    with pytest.raises(TransferPending):
        recipient_counter(cfg, exchange.chain(), km_r, r_session)
    assert r_session.phase == "offered"  # unchanged, retry allowed

    half, s_session = sender_publish_half(
        cfg, exchange.chain(), KeyMaterial(cfg, S, "pw-s"), offer
    )
    exchange.publish(half)
    s_session.mark_published(half.seq)
    counter = recipient_counter(cfg, exchange.chain(), km_r, r_session)  # now fine
    assert counter.token == S


def test_wrong_record_at_slot_aborts_with_evidence(cfg):
    """A mismatched owner commitment on-chain is terminal for the recipient."""
    km_s = KeyMaterial(cfg, S, "pw-s")
    km_r = KeyMaterial(cfg, S, "pw-r")
    km_other = KeyMaterial(cfg, S, "pw-other")
    exchange = Exchange(cfg, S, build_records(cfg, S, "pw-s", 1))
    _, r_session = recipient_offer(cfg, S, 0, km_r)
    rogue_offer, _ = recipient_offer(cfg, S, 0, km_other)
    half, s_session = sender_publish_half(cfg, exchange.chain(), km_s, rogue_offer)
    exchange.publish(half)
    with pytest.raises(TransferAborted, match="owner commitment mismatch"):
        recipient_counter(cfg, exchange.chain(), km_r, r_session)
    assert r_session.phase == "aborted"
    with pytest.raises(PhaseError):
        recipient_counter(cfg, exchange.chain(), km_r, r_session)


def test_tampered_counter_rejected_phase_unchanged(cfg):
    km_s = KeyMaterial(cfg, S, "pw-s")
    km_r = KeyMaterial(cfg, S, "pw-r")
    exchange = Exchange(cfg, S, build_records(cfg, S, "pw-s", 1))
    offer, r_session = recipient_offer(cfg, S, 0, km_r)
    half, s_session = sender_publish_half(cfg, exchange.chain(), km_s, offer)
    exchange.publish(half)
    s_session.mark_published(half.seq)
    counter = recipient_counter(cfg, exchange.chain(), km_r, r_session)
    bad_value = counter.generator_commitments[0]
    bad_value = ("0" if bad_value[0] != "0" else "1") + bad_value[1:]
    tampered = dataclasses.replace(counter, generator_commitments=(bad_value,))
    with pytest.raises(TransferProtocolError, match="link check"):
        sender_publish_next(cfg, exchange.chain(), km_s, s_session, tampered)
    assert s_session.phase == "half-published"
    # the honest counter still works afterwards
    record = sender_publish_next(cfg, exchange.chain(), km_s, s_session, counter)
    exchange.publish(record)
    s_session.mark_published(record.seq)
    assert s_session.phase == "complete"


def test_counter_with_wrong_value_count_rejected(cfg):
    km_s = KeyMaterial(cfg, S, "pw-s")
    km_r = KeyMaterial(cfg, S, "pw-r")
    exchange = Exchange(cfg, S, build_records(cfg, S, "pw-s", 1))
    offer, r_session = recipient_offer(cfg, S, 0, km_r)
    half, s_session = sender_publish_half(cfg, exchange.chain(), km_s, offer)
    exchange.publish(half)
    s_session.mark_published(half.seq)
    counter = recipient_counter(cfg, exchange.chain(), km_r, r_session)
    padded = dataclasses.replace(
        counter, generator_commitments=counter.generator_commitments + (S,)
    )
    with pytest.raises(TransferProtocolError, match="must carry"):
        sender_publish_next(cfg, exchange.chain(), km_s, s_session, padded)


# -- sessions --------------------------------------------------------------------


def test_phase_monotone_and_abort_terminal():
    session = TransferSession(role="sender", token=S, base_seq=3, generator_count=1)
    session.advance_phase("half-published")
    with pytest.raises(PhaseError):
        session.advance_phase("offered")
    session.advance_phase("counter-sent")
    session.abort()
    assert session.phase == "aborted"
    with pytest.raises(PhaseError):
        session.advance_phase("complete")


def test_complete_sessions_cannot_abort():
    session = TransferSession(role="sender", token=S, base_seq=0, generator_count=0)
    session.mark_published(1)
    assert session.phase == "complete"
    with pytest.raises(PhaseError):
        session.abort()


def test_out_of_order_publish_confirmation_rejected():
    session = TransferSession(role="sender", token=S, base_seq=0, generator_count=2)
    with pytest.raises(PhaseError):
        session.mark_published(2)


def test_session_text_roundtrip(cfg):
    km = KeyMaterial(cfg, S, "pw-io")
    _, session = recipient_offer(cfg, S, 7, km)
    session.advance_phase("half-published")
    restored = TransferSession.from_text(session.to_text())
    assert restored == session
    assert "pw-io" not in session.to_text()


def test_self_extend_requires_ownership(cfg):
    chain = as_chain(S, build_records(cfg, S, "pw-own", 2))
    with pytest.raises(OwnershipError):
        self_extend(cfg, chain, KeyMaterial(cfg, S, "pw-else"))


def test_random_passphrase_pairs_all_transfer(cfg):
    rng = random.Random(42)
    for trial in range(10):
        token = make_token(f"rand {trial}")
        pw_s = f"s-{rng.randrange(10**9)}"
        pw_r = f"r-{rng.randrange(10**9)}"
        exchange = Exchange(cfg, token, build_records(cfg, token, pw_s, 1))
        run_transfer(cfg, exchange, KeyMaterial(cfg, token, pw_s), KeyMaterial(cfg, token, pw_r))
        chain = exchange.chain()
        assert owns(cfg, chain, KeyMaterial(cfg, token, pw_r))
        assert verify_chain(cfg, chain).ok
