import hashlib
import random
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from tokenledger.hashing import (
    EncodingError,
    HashConfig,
    _encode_arg,
    canonical_hash,
    is_digest,
    validate_digest,
)

S = oracle.join_hash(["oracle", "token", "alpha"])  # any fixed digest

# frozen with an independent sha256 oracle over the exact byte strings
# `1 <S> pass` and `db7 1 <S> pass`
NO_TAG_DIGEST = "0b507aa3b3e54c356cf25de41e2f02b67a05930cf7d2b7bc476fdccf32ca313b"
TAGGED_DIGEST = "4122a787d5d40987dba5965972a60ab0c199f24f6acf4caff003e309aca5f13a"


def test_no_tag_frozen_vector():
    assert oracle.join_hash(["1", S, "pass"]) == NO_TAG_DIGEST
    assert canonical_hash(HashConfig(), ["1", S, "pass"]) == NO_TAG_DIGEST


def test_domain_tag_frozen_vector():
    assert oracle.join_hash(["1", S, "pass"], tag="db7") == TAGGED_DIGEST
    assert canonical_hash(HashConfig(domain_tag="db7"), ["1", S, "pass"]) == TAGGED_DIGEST
    assert TAGGED_DIGEST != NO_TAG_DIGEST


def test_determinism(cfg):
    assert canonical_hash(cfg, ["1", S, "pass"]) == canonical_hash(cfg, ["1", S, "pass"])


def test_int_args_canonical_decimal(cfg):
    assert canonical_hash(cfg, [7, S]) == canonical_hash(cfg, ["7", S])


@pytest.mark.parametrize(
    "args",
    [[], ["has space"], ["line\nbreak"], ["carriage\rreturn"], [""], [-1], [None]],
)
def test_encoding_errors(cfg, args):
    with pytest.raises(EncodingError):
        canonical_hash(cfg, args)


def test_bool_rejected(cfg):
    with pytest.raises(EncodingError):
        canonical_hash(cfg, [True, S])


@pytest.mark.parametrize("tag", ["has space", "nl\n", ""])
def test_bad_domain_tags(tag):
    with pytest.raises(ValueError):
        HashConfig(domain_tag=tag)


def test_bad_generator_count():
    with pytest.raises(ValueError):
        HashConfig(generator_count=-1)


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        HashConfig(algorithm="crc32")


def test_algorithm_digest_lengths():
    assert HashConfig().digest_length == 64
    assert HashConfig(algorithm="sha512").digest_length == 128
    out = canonical_hash(HashConfig(algorithm="sha512"), ["1", S])
    assert len(out) == 128


def test_is_digest(cfg):
    assert is_digest(cfg, S)
    assert not is_digest(cfg, S.upper())
    assert not is_digest(cfg, S[:-1])
    assert not is_digest(cfg, S[:-1] + "g")
    assert not is_digest(cfg, "\u0661" + S[1:])  # ARABIC-INDIC DIGIT ONE
    with pytest.raises(ValueError):
        validate_digest(cfg, "zz", "field")


token_text = st.text(
    alphabet=st.characters(blacklist_characters=" \n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=24,
)


@given(a=st.lists(token_text, min_size=1, max_size=5), b=st.lists(token_text, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_encoding_injective(a, b):
    """Distinct arg lists give distinct joined byte strings, hence digests."""
    cfg = HashConfig()
    joined_a, joined_b = " ".join(a), " ".join(b)
    if a != b:
        assert joined_a != joined_b
        assert canonical_hash(cfg, a) != canonical_hash(cfg, b)
    else:
        assert canonical_hash(cfg, a) == canonical_hash(cfg, b)


def test_digest_length_constant_10k(cfg):
    rng = random.Random(7)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_."
    for _ in range(10_000):
        args = ["".join(rng.choices(alphabet, k=rng.randint(1, 20))) for _ in range(rng.randint(1, 4))]
        assert len(canonical_hash(cfg, args)) == 64


def test_domain_tag_changes_every_digest():
    rng = random.Random(11)
    plain = HashConfig()
    tagged = HashConfig(domain_tag="experimental-db")
    alphabet = "abcdef0123456789"
    for _ in range(1_000):
        args = ["".join(rng.choices(alphabet, k=12)) for _ in range(rng.randint(1, 3))]
        assert canonical_hash(plain, args) != canonical_hash(tagged, args)


# -- canonical_hash's short paths against the general encoding -----------------


class Level(IntEnum):
    LOW = 0
    HIGH = 7


class Text(str):
    pass


def encode_arg_hash(cfg, args):
    """canonical_hash with every argument through _encode_arg: no short path."""
    if not args:
        raise EncodingError("argument list must not be empty")
    parts = [_encode_arg(a) for a in args]
    if cfg.domain_tag is not None:
        parts.insert(0, cfg.domain_tag)
    return hashlib.new(cfg.algorithm, " ".join(parts).encode("utf-8")).hexdigest()


def outcome(fn, *args):
    """The digest, or the type and message of what was raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_hash_parity(cfg, args):
    want = outcome(encode_arg_hash, cfg, args)
    assert outcome(canonical_hash, cfg, args) == want
    if isinstance(want, str):
        assert oracle.join_hash(args, cfg.algorithm, cfg.domain_tag) == want


HASH_CONFIGS = [
    HashConfig(),
    HashConfig(domain_tag="db7"),
    HashConfig(algorithm="sha1"),
    HashConfig(algorithm="sha3_256", domain_tag="tag-\u00e9"),
]


@pytest.mark.parametrize("cfg", HASH_CONFIGS)
@pytest.mark.parametrize(
    "args",
    [
        [], (), [S], (3, S, "pass"), [0, S], [Level.HIGH, S], [Level.LOW], [Text("pass"), S],
        [Text("")], [Text("a b")], [True, S], [False], [1.5], [b"pass"], [None], [-1], [-0],
        [""], [" "], ["\n"], ["\r"], ["a b"], ["trailing "], ["caf\u00e9"], ["\u0661"],
        ["\ud800"], [S, "\udcff"], [10**4301],
    ],
)
def test_canonical_hash_matches_encode_arg_path(cfg, args):
    assert_hash_parity(cfg, args)


odd_char = st.sampled_from([" ", "\n", "\r", "\u00e9", "\u0661", "\ud800", "\udcff", "0", "a"])
arg_text = st.text(alphabet=st.one_of(st.characters(), odd_char), max_size=12)
hash_arg = st.one_of(
    arg_text,
    arg_text.map(Text),
    st.integers(min_value=-3, max_value=10**30),
    st.sampled_from(list(Level)),
    st.booleans(),
    st.floats(),
    st.binary(max_size=4),
    st.none(),
)


@given(
    cfg=st.sampled_from(HASH_CONFIGS),
    args=st.lists(hash_arg, max_size=4) | st.lists(hash_arg, max_size=4).map(tuple),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_canonical_hash_parity_property(cfg, args):
    """Same digest, or the same exception type and message, as the
    _encode_arg-only path; accepted inputs also match the oracle."""
    assert_hash_parity(cfg, args)
