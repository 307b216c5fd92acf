import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import as_chain, build_records, make_token
from tokenledger import (
    HashConfig,
    KeyMaterial,
    Record,
    RecordFormatError,
    TokenMismatchError,
    parse_record,
    serialize_record,
    verify_chain,
    verify_link,
)
from tokenledger.chain import commitment

S = make_token("chain token")
HEXDIGITS = "0123456789abcdef"


def rand_digest(rng):
    return "".join(rng.choices(HEXDIGITS, k=64))


# -- linking rules against the independent oracle ---------------------------


def test_two_record_chain_linking_equations(cfg):
    """G_0 = Hash(1, S, K_1) and O_0 = Hash(1, S, G_1), byte-exact."""
    records = build_records(cfg, S, "sender-secret", 2)
    k1 = oracle.derive(1, S, "sender-secret")
    k2 = oracle.derive(2, S, "sender-secret")
    g1 = oracle.join_hash([2, S, k2])
    assert records[0].generators[0] == oracle.join_hash([1, S, k1])
    assert records[0].owner == oracle.join_hash([1, S, g1])
    assert records[1].generators[0] == g1


def test_m0_owner_is_single_hash():
    cfg = HashConfig(generator_count=0)
    records = build_records(cfg, S, "pw", 2)
    k1 = oracle.derive(1, S, "pw")
    assert records[0].generators == ()
    assert records[0].owner == oracle.join_hash([1, S, k1])


def test_m2_owner_is_triple_nested_tower():
    cfg = HashConfig(generator_count=2)
    records = build_records(cfg, S, "pw", 1)
    k3 = oracle.derive(3, S, "pw")
    want = oracle.join_hash([1, S, oracle.join_hash([2, S, oracle.join_hash([3, S, k3])])])
    assert records[0].owner == want


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_package_chain_equals_oracle_chain(m):
    cfg = HashConfig(generator_count=m)
    token = make_token(f"dual route {m}")
    ours = [serialize_record(r) for r in build_records(cfg, token, "pw-dual", 6)]
    theirs = oracle.build_chain(token, "pw-dual", 6, m=m)
    assert ours == theirs


@pytest.mark.parametrize("m, hashes", [(0, 1), (1, 3), (2, 6), (3, 10)])
def test_fields_from_keys_hashes_each_tower_level_once(m, hashes, monkeypatch):
    """KeyMaterial.fields builds slot j as one height-j commitment: 1 + 2 + .. + (m+1) hashes."""
    from tokenledger import chain

    cfg = HashConfig(generator_count=m)
    km = KeyMaterial(cfg, S, "pw-count")
    want = km.fields(10)  # also caches the keys, so only tower levels are counted below
    calls = []
    counted = chain.canonical_hash
    monkeypatch.setattr(chain, "canonical_hash", lambda *a: calls.append(a) or counted(*a))
    assert km.fields(10) == want
    assert len(calls) == hashes


@pytest.mark.parametrize("m", [0, 2])
def test_parse_record_checks_each_digest_once(m, monkeypatch):
    from tokenledger import chain, hashing

    cfg = HashConfig(generator_count=m)
    line = serialize_record(build_records(cfg, S, "pw", 1)[0])
    calls = []
    counted = hashing.is_digest
    for module in (chain, hashing):
        monkeypatch.setattr(module, "is_digest", lambda *a: calls.append(a) or counted(*a))
    parse_record(cfg, line)
    assert len(calls) == m + 3


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_expected_fields_round_trips_construction(m):
    """Fields built as height-j towers over the next keys are the height-1
    commitments verify_link expects from the next record's contents."""
    cfg = HashConfig(generator_count=m)
    rng = random.Random(m)
    keys = [rand_digest(rng) for _ in range(m + 2)]  # keys[i] is revealed in record 5 + i

    def built(seq, window):
        return [commitment(cfg, S, seq, j, key) for j, key in enumerate(window, start=1)]

    *prev_gens, prev_owner = built(4, keys[: m + 1])
    *next_gens, next_owner = built(5, keys[1:])
    prev = Record(seq=4, token=S, key=rand_digest(rng), generators=prev_gens, owner=prev_owner)
    nxt = Record(seq=5, token=S, key=keys[0], generators=next_gens, owner=next_owner)
    expected = [commitment(cfg, S, 4, 1, value) for value in (keys[0], *next_gens)]
    assert expected == [*prev_gens, prev_owner]
    assert verify_link(cfg, prev, nxt).ok


def test_expected_fields_generator_count_mismatch(cfg):
    r = build_records(cfg, S, "pw", 2)
    short = dataclasses.replace(r[1], generators=())
    with pytest.raises(ValueError, match="generator count"):
        verify_link(cfg, r[0], short)
    with pytest.raises(ValueError, match="generator count"):
        verify_link(cfg, dataclasses.replace(r[0], generators=()), r[1])
    assert verify_chain(cfg, as_chain(S, [r[0], short])).first_failure.field == "format"


# -- verify_link / verify_chain ---------------------------------------------


def test_honest_link_accepts(cfg):
    r = build_records(cfg, S, "pw", 3)
    assert verify_link(cfg, r[0], r[1]).ok
    assert verify_link(cfg, r[1], r[2]).ok


def test_seq_gap_rejected(cfg):
    r = build_records(cfg, S, "pw", 3)
    verdict = verify_link(cfg, r[0], r[2])
    assert not verdict.ok and verdict.field == "seq"


def test_flipped_next_key_rejects_first_generator(cfg):
    r = build_records(cfg, S, "pw", 2)
    flipped = "f" if r[1].key[0] != "f" else "0"
    bad = Record(
        seq=r[1].seq, token=S, key=flipped + r[1].key[1:],
        generators=r[1].generators, owner=r[1].owner,
    )
    verdict = verify_link(cfg, r[0], bad)
    assert not verdict.ok and verdict.field == "bad-G(1)"


def test_flipped_last_generator_rejects_owner(cfg):
    r = build_records(cfg, S, "pw", 2)
    g = r[1].generators[-1]
    flipped = ("f" if g[0] != "f" else "0") + g[1:]
    bad = Record(seq=r[1].seq, token=S, key=r[1].key, generators=(flipped,), owner=r[1].owner)
    verdict = verify_link(cfg, r[0], bad)
    assert not verdict.ok and verdict.field == "bad-O"


def test_token_mismatch_is_an_error_not_a_verdict(cfg):
    r = build_records(cfg, S, "pw", 2)
    other = make_token("other token")
    foreign = build_records(cfg, other, "pw", 2)[1]
    with pytest.raises(TokenMismatchError):
        verify_link(cfg, r[0], foreign)


def test_verify_chain_constructive_100(cfg):
    records = build_records(cfg, S, "pw-100", 100)
    report = verify_chain(cfg, as_chain(S, records))
    assert report.ok and len(report.verdicts) == 99


def test_verify_chain_empty_and_single_pass(cfg):
    assert verify_chain(cfg, as_chain(S, [])).ok
    assert verify_chain(cfg, as_chain(S, build_records(cfg, S, "pw", 1))).ok


def test_verify_chain_owner_swap_fails_at_the_right_link(cfg):
    records = build_records(cfg, S, "pw-swap", 100)
    swapped = Record(
        seq=records[50].seq, token=S, key=records[50].key,
        generators=records[50].generators, owner=records[51].owner,
    )
    records[50] = swapped
    report = verify_chain(cfg, as_chain(S, records))
    assert not report.ok
    bad = report.first_failure
    assert bad.prev_seq == 50 and bad.field == "bad-O"
    # the link 49 -> 50 is untouched: record 50's owner is not checked there
    assert report.verdicts[49].ok


def test_data_never_affects_verdicts(cfg):
    records = build_records(cfg, S, "pw-data", 5)
    with_data = [dataclasses.replace(r, data=f"note {r.seq}") for r in records]
    assert verify_chain(cfg, as_chain(S, with_data)).ok


# -- serialization -----------------------------------------------------------


def test_serialize_roundtrip_with_data(cfg):
    r = build_records(cfg, S, "pw", 1, datas={0: "hello world"})[0]
    line = serialize_record(r)
    assert line.endswith(" hello world")
    parsed = parse_record(cfg, line)
    assert parsed == r and parsed.data == "hello world"


def test_parse_leading_zero_seq_rejected(cfg):
    line = serialize_record(build_records(cfg, S, "pw", 1)[0])
    bad = "07" + line[1:]
    with pytest.raises(RecordFormatError, match="seq"):
        parse_record(cfg, bad)


@pytest.mark.parametrize("mut", ["-1", "+1", "1.0", "١"])
def test_parse_non_canonical_seq_rejected(cfg, mut):
    line = serialize_record(build_records(cfg, S, "pw", 1)[0])
    bad = mut + line[1:]
    with pytest.raises(RecordFormatError):
        parse_record(cfg, bad)


def test_parse_uppercase_hex_rejected(cfg):
    line = serialize_record(build_records(cfg, S, "pw", 1)[0])
    parts = line.split(" ")
    parts[2] = parts[2].upper()
    with pytest.raises(RecordFormatError, match="field 3"):
        parse_record(cfg, " ".join(parts))


def test_parse_wrong_field_count_names_expectation(cfg):
    with pytest.raises(RecordFormatError, match="fields"):
        parse_record(cfg, f"0 {S}")


def test_parse_wrong_generator_count_for_config():
    cfg2 = HashConfig(generator_count=2)
    line = serialize_record(build_records(HashConfig(), S, "pw", 1)[0])
    with pytest.raises(RecordFormatError):
        parse_record(cfg2, line)


def test_record_invariants():
    with pytest.raises(RecordFormatError):
        Record(seq=-1, token=S, key=S, generators=(S,), owner=S)
    with pytest.raises(RecordFormatError):
        Record(seq=0, token=S, key=S, generators=(S,), owner=S, data="a\nb")


def test_data_size_cap_configurable(cfg):
    big = "x" * 1025
    record = Record(seq=0, token=S, key=S, generators=(S,), owner=S, data=big)
    with pytest.raises(RecordFormatError, match="1024"):
        record.validate(cfg)
    roomy = HashConfig(data_max_bytes=2048)
    assert record.validate(roomy) is record
    with pytest.raises(RecordFormatError):
        parse_record(cfg, serialize_record(record))


hex_digest = st.binary(min_size=32, max_size=32).map(bytes.hex)
data_text = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    min_size=0,
    max_size=60,
)


@given(
    m=st.integers(min_value=0, max_value=3),
    seq=st.integers(min_value=0, max_value=10**9),
    digests=st.lists(hex_digest, min_size=6, max_size=6),
    data=st.none() | data_text,
)
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(m, seq, digests, data):
    cfg = HashConfig(generator_count=m)
    record = Record(
        seq=seq,
        token=digests[0],
        key=digests[1],
        generators=tuple(digests[2 : 2 + m]),
        owner=digests[5],
        data=data,
    )
    assert parse_record(cfg, serialize_record(record)) == record


def test_roundtrip_randomized_10k():
    rng = random.Random(99)
    alphabet = "abcdefghij KLMNOP.:;!?"
    for i in range(10_000):
        m = rng.randrange(4)
        cfg = HashConfig(generator_count=m)
        data = None
        if rng.random() < 0.4:
            data = "".join(rng.choices(alphabet, k=rng.randint(1, 30))).strip() or None
        record = Record(
            seq=rng.randrange(10**6),
            token=rand_digest(rng),
            key=rand_digest(rng),
            generators=tuple(rand_digest(rng) for _ in range(m)),
            owner=rand_digest(rng),
            data=data,
        )
        assert parse_record(cfg, serialize_record(record)) == record


def test_mutation_completeness_small(cfg):
    """Single hex-digit changes in committed K/G/O fields are always caught.

    Exactly two fields per chain are structurally uncommitted: the genesis
    record's key slot (nothing commits to it) and the head record's owner
    field (it commits to an unpublished successor). Everything else must
    kill.
    """
    token = make_token("mutate small")
    lines = [serialize_record(r) for r in build_records(cfg, token, "pw-mut", 3)]
    last = len(lines) - 1
    rng = random.Random(5)
    for idx in range(3):
        parts = lines[idx].split(" ")
        for field_pos in (2, 3, 4):  # K, G, O columns
            char_pos = rng.randrange(64)
            original = parts[field_pos][char_pos]
            replacement = rng.choice([c for c in HEXDIGITS if c != original])
            mutated_field = (
                parts[field_pos][:char_pos] + replacement + parts[field_pos][char_pos + 1 :]
            )
            mutated_line = " ".join(
                parts[:field_pos] + [mutated_field] + parts[field_pos + 1 :]
            )
            chain = [parse_record(cfg, line) for line in lines]
            chain[idx] = parse_record(cfg, mutated_line)
            uncommitted = (idx == 0 and field_pos == 2) or (idx == last and field_pos == 4)
            assert verify_chain(cfg, as_chain(token, chain)).ok == uncommitted
