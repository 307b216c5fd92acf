"""Frozen bytes of a full transfer for m = 0 .. 3.

Each case builds a genesis record and one data-carrying self-extension,
then hands the token over through the six handshake entry points. Every
record line, every OFFER/COUNTER line and the text of every session after
each step must match `handshake_vectors.txt` byte for byte. The vectors
were written by this module's `transcript` before the handshake builders
were merged into one record builder and one recipient step.
"""
from pathlib import Path

import pytest

from conftest import as_chain, make_token
from tokenledger import (
    HashConfig,
    KeyMaterial,
    genesis_record,
    owns,
    recipient_counter,
    recipient_finish,
    recipient_offer,
    self_extend,
    sender_publish_half,
    sender_publish_next,
    serialize_record,
)

VECTORS = Path(__file__).with_name("handshake_vectors.txt")
TOKEN = make_token("handshake vectors")
SENDER_PW = "vector-sender"
RECIPIENT_PW = "vector-recipient"


def transcript(m: int) -> list[str]:
    """The handshake's wire and disk bytes, one line per artefact."""
    cfg = HashConfig(generator_count=m)
    km_s = KeyMaterial(cfg, TOKEN, SENDER_PW)
    km_r = KeyMaterial(cfg, TOKEN, RECIPIENT_PW)
    lines: list[str] = []

    def session(s):
        text = s.to_text().rstrip().replace("\n", ";")
        lines.append(f"m={m} session {text}")

    def publish(record):
        records.append(record)
        lines.append(f"m={m} record {serialize_record(record)}")

    records = []
    publish(genesis_record(cfg, TOKEN, km_s))
    publish(self_extend(cfg, as_chain(TOKEN, records), km_s, data="pinned"))

    offer, r_session = recipient_offer(cfg, TOKEN, records[-1].seq, km_r)
    lines.append(f"m={m} {offer.to_line()}")
    session(r_session)
    half, s_session = sender_publish_half(cfg, as_chain(TOKEN, records), km_s, offer)
    publish(half)
    s_session.mark_published(half.seq)
    session(s_session)
    for step in range(2, m + 2):
        counter = recipient_counter(cfg, as_chain(TOKEN, records), km_r, r_session)
        lines.append(f"m={m} {counter.to_line()}")
        session(r_session)
        data = "sold" if step == m + 1 else None
        record = sender_publish_next(cfg, as_chain(TOKEN, records), km_s, s_session, counter, data=data)
        publish(record)
        s_session.mark_published(record.seq)
        session(s_session)
    assert recipient_finish(cfg, as_chain(TOKEN, records), km_r, r_session)
    session(r_session)
    chain = as_chain(TOKEN, records)
    assert owns(cfg, chain, km_r) and not owns(cfg, chain, km_s)
    return lines


def _frozen(m: int) -> list[str]:
    prefix = f"m={m} "
    text = VECTORS.read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.startswith(prefix)]


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_handshake_bytes_are_frozen(m):
    frozen = _frozen(m)
    assert frozen, f"no vectors for m={m}"
    assert transcript(m) == frozen
