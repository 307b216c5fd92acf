"""Record data model, canonical serialization, and the chain linking rules.

A record line is `N S K G_1 .. G_m O [D]`. Record N's generator fields and
owner field are hash commitments to the contents of record N+1: slot j of
record N must equal Hash(N+1, S, x) where x is record N+1's key (j=1) or its
generator slot j-1 (j>1); the owner field sits one level deeper, committing
to record N+1's last generator (or its key when m=0).

Expanding that recursion, slot j of record N is a nested hash tower of
height j anchored at the key revealed in record N+j, with sequence numbers
ascending inward:

    G_N[j] = Hash(N+1, S, Hash(N+2, S, ... Hash(N+j, S, K_{N+j}) ...))

and the owner field is the height-(m+1) tower anchored at K_{N+m+1}. Knowing
the next m+1 keys is therefore exactly what it takes to reproduce a head
record's commitments.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .hashing import HashConfig, canonical_hash, is_digest, validate_digest


class RecordFormatError(ValueError):
    """A record line or field violates the canonical format."""


class TokenMismatchError(ValueError):
    """Records for different tokens were linked together (caller routing bug)."""


@dataclass(frozen=True)
class Record:
    """One ledger line. data never participates in any hash computation."""

    seq: int
    token: str
    key: str
    generators: tuple[str, ...]
    owner: str
    data: str | None = None

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise RecordFormatError(f"seq must be >= 0, got {self.seq}")
        if self.data is not None and ("\n" in self.data or "\r" in self.data):
            raise RecordFormatError("data field must not contain newlines")
        object.__setattr__(self, "generators", tuple(self.generators))

    def validate(self, cfg: HashConfig) -> "Record":
        """The one field check: generator count, digest form, data size.

        Digest errors name the field's position in the record line.
        """
        m = cfg.generator_count
        if len(self.generators) != m:
            raise RecordFormatError(
                f"expected {m} generator fields, got {len(self.generators)}"
            )
        for pos, value in enumerate((self.token, self.key, *self.generators, self.owner), start=2):
            if not is_digest(cfg, value):
                name = ("token", "key", *(f"generator {j}" for j in range(1, m + 1)), "owner")
                raise RecordFormatError(
                    f"field {pos} ({name[pos - 2]}): not a {cfg.digest_length}-char "
                    f"lowercase hex digest: {value!r}"
                )
        if self.data is not None and len(self.data.encode("utf-8")) > cfg.data_max_bytes:
            raise RecordFormatError(
                f"data field exceeds {cfg.data_max_bytes} bytes"
            )
        return self

    def with_data(self, data: str | None) -> "Record":
        return replace(self, data=data)


@dataclass(frozen=True)
class TokenChain:
    """Records sharing one token, ordered by seq. The unit of verification."""

    token: str
    records: tuple[Record, ...]

    @property
    def head(self) -> Record | None:
        return self.records[-1] if self.records else None

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class LinkVerdict:
    """Outcome of checking one adjacent record pair.

    field names the first failing commitment: "seq", "G[j]" or "O".
    """

    prev_seq: int
    ok: bool
    field: str | None = None


@dataclass(frozen=True)
class ChainReport:
    token: str
    ok: bool
    verdicts: tuple[LinkVerdict, ...]

    @property
    def first_failure(self) -> LinkVerdict | None:
        for v in self.verdicts:
            if not v.ok:
                return v
        return None


def serialize_record(record: Record) -> str:
    """Canonical single-line form; the inverse of parse_record, byte-exact."""
    fields = [str(record.seq), record.token, record.key]
    fields.extend(record.generators)
    fields.append(record.owner)
    line = " ".join(fields)
    if record.data is not None:
        line += " " + record.data
    return line


def _parse_seq(text: str) -> int:
    if not text.isascii() or not text.isdigit():
        raise RecordFormatError(f"field 1 (seq): not a canonical integer: {text!r}")
    if len(text) > 1 and text[0] == "0":
        raise RecordFormatError(f"field 1 (seq): leading zeros: {text!r}")
    return int(text)


def parse_record(cfg: HashConfig, line: str) -> Record:
    """Parse and validate one canonical record line; errors name the offending position."""
    if "\n" in line or "\r" in line:
        raise RecordFormatError("record line contains a newline")
    m = cfg.generator_count
    head_fields = 4 + m  # N S K G... O
    parts = line.split(" ", head_fields)
    if len(parts) < head_fields:
        raise RecordFormatError(
            f"expected at least {head_fields} fields for {m} generators, "
            f"got {len(parts)}"
        )
    record = Record(
        seq=_parse_seq(parts[0]),
        token=parts[1],
        key=parts[2],
        generators=tuple(parts[3 : 3 + m]),
        owner=parts[3 + m],
        data=parts[head_fields] if len(parts) > head_fields else None,
    )
    return record.validate(cfg)


def _tower(cfg: HashConfig, token: str, reveal_seq: int, height: int, value: str) -> list[str]:
    """Levels 1..height of the tower over value, innermost hash at reveal_seq.

    Level h hashes at seq reveal_seq - h + 1, so the last level is the
    whole tower: Hash(reveal_seq - height + 1, S, ... Hash(reveal_seq, S, value)).
    """
    levels: list[str] = []
    for seq in range(reveal_seq, reveal_seq - height, -1):
        value = canonical_hash(cfg, [seq, token, value])
        levels.append(value)
    return levels


def key_cascade(cfg: HashConfig, token: str, reveal_seq: int, key: str) -> tuple[str, ...]:
    """All commitment values anchored at one key.

    key is the secret revealed by record reveal_seq. Position h-1 of the
    result is the height-h tower ending at that key: the generator
    commitment at depth h held by record reveal_seq - h for h <= m, and the
    owner commitment of record reveal_seq - m - 1 at h = m+1. Heights whose
    holding record would sit before the genesis are omitted.
    """
    if reveal_seq < 1:
        raise ValueError(f"reveal_seq must be >= 1, got {reveal_seq}")
    validate_digest(cfg, key, "key")
    height = min(cfg.generator_count + 1, reveal_seq)
    return tuple(_tower(cfg, token, reveal_seq, height, key))


def commitment_tower(cfg: HashConfig, token: str, reveal_seq: int, height: int, key: str) -> str:
    """The single height-h tower anchored at the key revealed in record reveal_seq."""
    if height < 1 or height > min(cfg.generator_count + 1, reveal_seq):
        raise ValueError(f"height {height} out of range for reveal_seq {reveal_seq}")
    validate_digest(cfg, key, "key")
    return _tower(cfg, token, reveal_seq, height, key)[-1]


def fields_from_keys(
    cfg: HashConfig, token: str, seq: int, next_keys: Sequence[str]
) -> tuple[tuple[str, ...], str]:
    """Build record seq's generator and owner fields from the next m+1 keys.

    next_keys[i] is the key to be revealed by record seq+1+i; slot j (the
    owner at j = m+1) is the height-j tower over next_keys[j-1]. This is the
    constructive side of the linking rules; expected_fields is the
    verification side, and the two must agree on honestly built chains.
    """
    m = cfg.generator_count
    if len(next_keys) != m + 1:
        raise ValueError(f"need exactly {m + 1} keys, got {len(next_keys)}")
    *gens, owner = (
        _tower(cfg, token, seq + j, j, key)[-1] for j, key in enumerate(next_keys, start=1)
    )
    return tuple(gens), owner


def expected_fields(
    cfg: HashConfig, prev: Record, next_key: str, next_generators: Sequence[str]
) -> tuple[tuple[str, ...], str]:
    """What prev's generators and owner must equal, given the next record's contents.

    Slot 1 commits to the next record's key; slot j+1 to its generator j;
    the owner field to its last generator (to its key when m = 0). Each is
    one tower level above the value it commits to.
    """
    m = cfg.generator_count
    if len(next_generators) != m:
        raise ValueError(
            f"generator count mismatch: expected {m}, got {len(next_generators)}"
        )
    *gens, owner = (
        _tower(cfg, prev.token, prev.seq + 1, 1, value)[-1]
        for value in (next_key, *next_generators)
    )
    return tuple(gens), owner


def verify_link(cfg: HashConfig, prev: Record, nxt: Record) -> LinkVerdict:
    """Accept iff nxt extends prev under the linking rules, byte-exact."""
    if prev.token != nxt.token:
        raise TokenMismatchError(
            f"records for different tokens: {prev.token} vs {nxt.token}"
        )
    if nxt.seq != prev.seq + 1:
        return LinkVerdict(prev_seq=prev.seq, ok=False, field="seq")
    gens, owner = expected_fields(cfg, prev, nxt.key, nxt.generators)
    for j, (have, want) in enumerate(zip(prev.generators, gens), start=1):
        if have != want:
            return LinkVerdict(prev_seq=prev.seq, ok=False, field=f"G[{j}]")
    if prev.owner != owner:
        return LinkVerdict(prev_seq=prev.seq, ok=False, field="O")
    return LinkVerdict(prev_seq=prev.seq, ok=True)


def verify_chain(cfg: HashConfig, chain: TokenChain | Iterable[Record]) -> ChainReport:
    """Per-link verdicts for a whole chain; empty and single-record chains pass."""
    if isinstance(chain, TokenChain):
        token = chain.token
        records = list(chain.records)
    else:
        records = list(chain)
        token = records[0].token if records else ""
    verdicts: list[LinkVerdict] = []
    ok = True
    for prev, nxt in zip(records, records[1:]):
        try:
            verdict = verify_link(cfg, prev, nxt)
        except TokenMismatchError:
            verdict = LinkVerdict(prev_seq=prev.seq, ok=False, field="token")
        except ValueError:
            verdict = LinkVerdict(prev_seq=prev.seq, ok=False, field="format")
        verdicts.append(verdict)
        ok = ok and verdict.ok
    return ChainReport(token=token, ok=ok, verdicts=tuple(verdicts))
