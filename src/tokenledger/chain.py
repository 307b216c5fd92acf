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

commitment() is that tower and the one place the rule is computed: a wallet
builds slot j with it from its own key (height j), and verify_link checks
slot j with it one level above record N+1's key or generator (height 1). A
failed check is named by the gate reason it becomes, bad-G(j) or bad-O.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .hashing import HashConfig, canonical_hash, is_digest


class RecordFormatError(ValueError):
    """A record line or field violates the canonical format."""


class TokenMismatchError(ValueError):
    """Records for different tokens were linked together (caller routing bug)."""


# Gate rejection reasons for a failed commitment (wire-visible, bit-exact).
BAD_O = "bad-O"


def bad_g(slot: int) -> str:
    return f"bad-G({slot})"


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

    field names the first failure: "seq", or the gate's reason for a
    failed commitment, bad-G(j) or bad-O. verify_chain adds "token" and
    "format".
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


def parse_seq(text: str) -> int:
    """A record's seq field: canonical decimal, no sign, no leading zeros.

    Raises RecordFormatError, or ValueError past Python's int() digit limit.
    """
    if not text.isascii() or not text.isdigit():
        raise RecordFormatError(f"field 1 (seq): not a canonical integer: {text!r}")
    if len(text) > 1 and text[0] == "0":
        raise RecordFormatError(f"field 1 (seq): leading zeros: {text!r}")
    return int(text)


@lru_cache(maxsize=None)
def _record_grammar(generator_count: int, digest_length: int) -> re.Pattern[str]:
    """The whole canonical line `N S K G_1 .. G_m O [D]` as one pattern.

    [0-9] is spelled out because \\d also matches non-ASCII digits.
    """
    digest = f"([0-9a-f]{{{digest_length}}})"
    return re.compile(" ".join(["(0|[1-9][0-9]*)", *[digest] * (generator_count + 3)]) + "(?: (.*))?")


def parse_record(cfg: HashConfig, line: str) -> Record:
    """Parse and validate one canonical record line; errors name the offending position."""
    if "\n" in line or "\r" in line:
        raise RecordFormatError("record line contains a newline")
    match = _record_grammar(cfg.generator_count, cfg.digest_length).fullmatch(line)
    if match is None:
        return _parse_fields(cfg, line)
    seq, token, key, *generators, owner, data = match.groups()
    if data is not None and len(data.encode("utf-8")) > cfg.data_max_bytes:
        return _parse_fields(cfg, line)
    return Record(int(seq), token, key, tuple(generators), owner, data)


def _parse_fields(cfg: HashConfig, line: str) -> Record:
    """parse_record field by field, for a line the grammar refused: the
    first bad field is the one the error names."""
    m = cfg.generator_count
    head_fields = 4 + m  # N S K G... O
    parts = line.split(" ", head_fields)
    if len(parts) < head_fields:
        raise RecordFormatError(
            f"expected at least {head_fields} fields for {m} generators, "
            f"got {len(parts)}"
        )
    record = Record(
        seq=parse_seq(parts[0]),
        token=parts[1],
        key=parts[2],
        generators=tuple(parts[3 : 3 + m]),
        owner=parts[3 + m],
        data=parts[head_fields] if len(parts) > head_fields else None,
    )
    return record.validate(cfg)


def commitment(cfg: HashConfig, token: str, seq: int, height: int, value: str) -> str:
    """The height-h tower over a value revealed in record seq + height.

    Hash(seq + 1, S, ... Hash(seq + height, S, value) ...) is slot `height`
    of record seq, the owner field at height m+1. value is not checked here.
    """
    for level_seq in range(seq + height, seq, -1):
        value = canonical_hash(cfg, [level_seq, token, value])
    return value


def verify_link(cfg: HashConfig, prev: Record, nxt: Record) -> LinkVerdict:
    """Accept iff nxt extends prev under the linking rules, byte-exact."""
    if prev.token != nxt.token:
        raise TokenMismatchError(
            f"records for different tokens: {prev.token} vs {nxt.token}"
        )
    if nxt.seq != prev.seq + 1:
        return LinkVerdict(prev_seq=prev.seq, ok=False, field="seq")
    m = cfg.generator_count
    if not len(prev.generators) == len(nxt.generators) == m:
        raise ValueError(
            f"generator count mismatch: expected {m}, "
            f"got {len(prev.generators)} then {len(nxt.generators)}"
        )
    # slot j commits to nxt's key (j = 1) or its generator j-1; the owner is slot m+1
    slots = (*prev.generators, prev.owner)
    for j, (have, value) in enumerate(zip(slots, (nxt.key, *nxt.generators)), start=1):
        if have != commitment(cfg, prev.token, prev.seq, 1, value):
            return LinkVerdict(prev_seq=prev.seq, ok=False, field=BAD_O if j > m else bad_g(j))
    return LinkVerdict(prev_seq=prev.seq, ok=True)


def verify_chain(cfg: HashConfig, chain: TokenChain) -> ChainReport:
    """Per-link verdicts for a whole chain; empty and single-record chains pass."""
    records = chain.records
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
    return ChainReport(token=chain.token, ok=ok, verdicts=tuple(verdicts))
