"""Passphrase-derived keys, the ownership predicate, and the transfer handshake.

Ownership of a token whose chain head sits at seq n means knowing the m+1
secret keys (indices n+1 .. n+m+1) whose commitment towers reproduce the
head's generator and owner fields.

A transfer hands the committed key window over to the recipient. Each
published record slides the window by exactly one slot, so a full handover
takes m+1 records, all published by the sender (they reveal the sender's
keys n+1 .. n+m+1), while the recipient feeds in commitments anchored at
m+1 fresh keys of their own (indices n+m+2 .. n+2m+2):

  - the recipient opens with an offer carrying one owner commitment,
  - the sender publishes the half record,
  - for each later record the recipient, after checking the previous record
    on-chain, sends a counter message with the values the sender cannot
    build (one more per step), and the sender publishes.

For one generator this collapses to a two-round exchange: offer,
half record, counter with one generator value plus one owner value, final
record. Between the half record and the last record neither side's keys
satisfy the ownership predicate: the token is locked until both cooperate.

Messages are single text lines (`OFFER <token> <digest>` /
`COUNTER <token> <digests...>`) so they can travel over any channel,
including copy-paste. They carry no key indices and no identities.

Note: offers are anchored against the chain head seq the recipient read.
The message formats carry no seq, so an offer built against a stale head
produces a half record whose owner commitment is mis-anchored; the
recipient's next step detects this and aborts, but the sender has already
burned a key. Offer against a live head.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .chain import (
    Record,
    TokenChain,
    commitment_tower,
    fields_from_keys,
    verify_link,
)
from .hashing import EncodingError, HashConfig, canonical_hash, validate_digest


class TransferError(Exception):
    """Base for transfer protocol failures."""


class OwnershipError(TransferError):
    """The key material does not own the chain head."""


class TransferProtocolError(TransferError):
    """A message or chain state does not fit the protocol step."""


class TransferAborted(TransferError):
    """Recipient-side abort; carries evidence of what was expected vs found."""


class TransferPending(TransferError):
    """The chain has not caught up yet; retry later, session unchanged."""


class PhaseError(TransferError):
    """Illegal session phase transition."""


def derive_key(cfg: HashConfig, token: str, passphrase: str, index: int) -> str:
    """Secret key number `index` for a token: hash of (index, token, passphrase)."""
    if index < 0:
        raise ValueError("key index must be >= 0")
    return canonical_hash(cfg, [index, token, passphrase])


class KeyMaterial:
    """Deterministic per-token key source. Never stores derived keys stale."""

    def __init__(self, cfg: HashConfig, token: str, passphrase: str):
        if not passphrase:
            raise EncodingError("passphrase must not be empty")
        if any(c in passphrase for c in (" ", "\n", "\r")):
            raise EncodingError("passphrase must not contain spaces or newlines")
        validate_digest(cfg, token, "token")
        self.cfg = cfg
        self.token = token
        self._passphrase = passphrase
        self._cache: dict[int, str] = {}

    def key(self, index: int) -> str:
        k = self._cache.get(index)
        if k is None:
            k = derive_key(self.cfg, self.token, self._passphrase, index)
            self._cache[index] = k
        return k

    def window(self, head_seq: int) -> list[str]:
        """The m+1 keys committed by a head record at head_seq."""
        m = self.cfg.generator_count
        return [self.key(head_seq + 1 + i) for i in range(m + 1)]

    def commitment(self, seq: int, slot: int) -> str:
        """Slot `slot` of record seq (the owner field at m+1), built from our own key."""
        return commitment_tower(self.cfg, self.token, seq + slot, slot, self.key(seq + slot))

    def __repr__(self) -> str:  # never leak the passphrase
        return f"KeyMaterial(token={self.token[:12]}...)"


def owns(cfg: HashConfig, chain: TokenChain, km: KeyMaterial) -> bool:
    """True iff km's derived keys reproduce the head's commitment fields."""
    head = chain.head
    if head is None:
        raise ValueError("ownership is undefined for an empty chain")
    gens, owner = fields_from_keys(cfg, chain.token, head.seq, km.window(head.seq))
    return gens == head.generators and owner == head.owner


def genesis_record(cfg: HashConfig, token: str, km: KeyMaterial, data: str | None = None) -> Record:
    """First record of a token: key slot 0, commitments to keys 1 .. m+1."""
    gens, owner = fields_from_keys(cfg, token, 0, km.window(0))
    return Record(
        seq=0, token=token, key=km.key(0), generators=gens, owner=owner, data=data
    ).validate(cfg)


def self_extend(cfg: HashConfig, chain: TokenChain, km: KeyMaterial, data: str | None = None) -> Record:
    """One-record extension by the current owner, keeping ownership.

    Reveals the next key and re-commits to the owner's own following keys;
    the minimal record-producing action an owner can take alone. Used to
    attach a data payload to a token.
    """
    if not owns(cfg, chain, km):
        raise OwnershipError("key material does not own this chain")
    head = chain.head
    seq = head.seq + 1
    gens, owner = fields_from_keys(cfg, chain.token, seq, km.window(seq))
    return _extend(cfg, head, km, gens, owner, data, "self-extension")


def _extend(
    cfg: HashConfig, head: Record, km: KeyMaterial, gens: tuple[str, ...], owner: str,
    data: str | None, what: str,
) -> Record:
    """The one builder of a non-genesis record: reveals key head.seq + 1.

    Raises naming the record as `what` when it does not link to head.
    """
    seq = head.seq + 1
    record = Record(
        seq=seq, token=km.token, key=km.key(seq), generators=gens, owner=owner, data=data
    ).validate(cfg)
    verdict = verify_link(cfg, head, record)
    if not verdict.ok:
        raise TransferProtocolError(f"{what} fails the link check at {verdict.field}")
    return record


@dataclass(frozen=True)
class OfferMessage:
    """Opening message of a transfer: token plus one owner commitment."""

    token: str
    owner_commitment: str

    def to_line(self) -> str:
        return f"OFFER {self.token} {self.owner_commitment}"


@dataclass(frozen=True)
class CounterMessage:
    """Step message of a transfer: generator commitments plus an owner commitment.

    Step r of the handshake carries r-1 generator values; a
    single-generator transfer has one counter with exactly one of each.
    """

    token: str
    generator_commitments: tuple[str, ...]
    owner_commitment: str

    def to_line(self) -> str:
        parts = ["COUNTER", self.token, *self.generator_commitments, self.owner_commitment]
        return " ".join(parts)


def parse_transfer_message(cfg: HashConfig, line: str) -> OfferMessage | CounterMessage:
    parts = line.strip().split(" ")
    verb = parts[0] if parts else ""
    if verb not in ("OFFER", "COUNTER"):
        raise TransferProtocolError(f"unknown transfer message verb: {verb!r}")
    if len(parts) < 3:
        raise TransferProtocolError(f"truncated transfer message: {line!r}")
    try:
        for value in parts[1:]:
            validate_digest(cfg, value, "message field")
    except ValueError as exc:
        raise TransferProtocolError(str(exc)) from exc
    if verb == "OFFER":
        if len(parts) != 3:
            raise TransferProtocolError("OFFER carries exactly a token and one commitment")
        return OfferMessage(token=parts[1], owner_commitment=parts[2])
    return CounterMessage(
        token=parts[1],
        generator_commitments=tuple(parts[2:-1]),
        owner_commitment=parts[-1],
    )


PHASES = ("offered", "half-published", "counter-sent", "complete", "aborted")
_PHASE_ORDER = {name: i for i, name in enumerate(PHASES[:4])}


@dataclass
class TransferSession:
    """Single-owner state machine for one side of a transfer.

    Phases move monotonically offered -> half-published -> counter-sent ->
    complete; aborted is terminal from any non-complete phase. For multiple
    generators the middle records keep the session in half-published.
    Holds no passphrase: only already-committed digests and bookkeeping.
    """

    role: str  # "sender" | "recipient"
    token: str
    base_seq: int
    generator_count: int
    phase: str = "offered"
    published_through: int = -1  # sender: highest transfer seq confirmed in store
    sent_values: dict[int, tuple[str, ...]] = field(default_factory=dict)  # recipient

    def __post_init__(self) -> None:
        if self.role not in ("sender", "recipient"):
            raise ValueError(f"bad role: {self.role!r}")
        if self.phase not in PHASES:
            raise ValueError(f"bad phase: {self.phase!r}")
        if self.published_through < 0:
            self.published_through = self.base_seq

    @property
    def total_steps(self) -> int:
        return self.generator_count + 1

    @property
    def final_seq(self) -> int:
        return self.base_seq + self.total_steps

    @property
    def awaiting_final(self) -> bool:
        """Recipient: every step's values are sent; only the final record is left."""
        return max(self.sent_values, default=0) >= self.total_steps

    @property
    def next_record_step(self) -> int:
        """1-based index of the next transfer record to publish."""
        return self.published_through - self.base_seq + 1

    def advance_phase(self, phase: str) -> None:
        if self.phase == "aborted":
            raise PhaseError("session is aborted")
        if self.phase == "complete" and phase != "complete":
            raise PhaseError("session is complete")
        if _PHASE_ORDER[phase] < _PHASE_ORDER[self.phase]:
            raise PhaseError(f"phase cannot regress: {self.phase} -> {phase}")
        self.phase = phase

    def abort(self) -> None:
        if self.phase == "complete":
            raise PhaseError("cannot abort a complete session")
        self.phase = "aborted"

    def mark_published(self, seq: int) -> None:
        """Record that the store accepted the transfer record at seq."""
        if seq != self.published_through + 1:
            raise PhaseError(
                f"out-of-order publish confirmation: {seq}, "
                f"expected {self.published_through + 1}"
            )
        self.published_through = seq
        self.advance_phase("complete" if seq == self.final_seq else "half-published")

    def to_text(self) -> str:
        lines = [
            f"role={self.role}",
            f"token={self.token}",
            f"base_seq={self.base_seq}",
            f"generators={self.generator_count}",
            f"phase={self.phase}",
            f"published_through={self.published_through}",
        ]
        for step in sorted(self.sent_values):
            lines.append(f"sent.{step}={','.join(self.sent_values[step])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TransferSession":
        fields: dict[str, str] = {}
        sent: dict[int, tuple[str, ...]] = {}
        for raw in text.splitlines():
            raw = raw.strip()
            if not raw:
                continue
            key, _, value = raw.partition("=")
            if key.startswith("sent."):
                sent[int(key[5:])] = tuple(value.split(","))
            else:
                fields[key] = value
        try:
            session = cls(
                role=fields["role"],
                token=fields["token"],
                base_seq=int(fields["base_seq"]),
                generator_count=int(fields["generators"]),
                phase=fields["phase"],
                published_through=int(fields["published_through"]),
            )
        except KeyError as exc:
            raise ValueError(f"session text lacks {exc.args[0]!r}") from None
        session.sent_values = sent
        return session


def _message_slots(m: int, step: int) -> range:
    """Generator slots of transfer record `step` the recipient must supply."""
    return range(m + 2 - step, m + 1)


def _recipient_step(
    km: KeyMaterial, session: TransferSession, step: int
) -> tuple[tuple[str, ...], str]:
    """Step `step`'s generator and owner values, recorded in session.sent_values.

    Step 1 is the offer, which carries no generator values.
    """
    m = session.generator_count
    seq = session.base_seq + step
    gen_values = tuple(km.commitment(seq, slot) for slot in _message_slots(m, step))
    owner_value = km.commitment(seq, m + 1)
    session.sent_values[step] = (*gen_values, owner_value)
    return gen_values, owner_value


def recipient_offer(
    cfg: HashConfig, token: str, base_seq: int, km: KeyMaterial
) -> tuple[OfferMessage, TransferSession]:
    """Open a transfer toward km's holder for a chain headed at base_seq.

    Derives the first fresh key (absolute index base_seq + m + 2) and
    anchors the half record's owner commitment at it.
    """
    session = TransferSession(
        role="recipient",
        token=token,
        base_seq=base_seq,
        generator_count=cfg.generator_count,
        phase="offered",
    )
    _, owner_value = _recipient_step(km, session, 1)
    return OfferMessage(token=token, owner_commitment=owner_value), session


def _check_published_step(
    cfg: HashConfig, chain: TokenChain, session: TransferSession, step: int
) -> Record:
    """Verify that transfer record `step` is on-chain with the values we sent."""
    m = session.generator_count
    seq = session.base_seq + step
    wanted = session.sent_values.get(step)
    if wanted is None:
        raise TransferProtocolError(f"no values were sent for step {step}")
    records = chain.records
    i = seq - records[0].seq if records else -1
    if not 0 <= i < len(records) or records[i].seq != seq:
        # absent is retryable (propagation lag); only a wrong record at the
        # expected seq is evidence that the handshake went off the rails
        raise TransferPending(
            f"transfer record at seq {seq} not on chain yet (step {step})"
        )
    record = records[i]
    *gen_values, owner_value = wanted
    if record.owner != owner_value:
        raise TransferAborted(
            f"record {seq}: owner commitment mismatch: "
            f"expected {owner_value}, chain has {record.owner}"
        )
    for slot, value in zip(_message_slots(m, step), gen_values):
        have = record.generators[slot - 1]
        if have != value:
            raise TransferAborted(
                f"record {seq}: generator slot {slot} mismatch: "
                f"expected {value}, chain has {have}"
            )
    return record


def recipient_counter(
    cfg: HashConfig, chain: TokenChain, km: KeyMaterial, session: TransferSession
) -> CounterMessage:
    """Check the previously requested record on-chain, emit the next counter.

    Aborts the session with evidence when the chain does not show the
    values sent earlier (protects the recipient from paying for nothing).
    """
    if session.role != "recipient":
        raise PhaseError("counter messages are produced by the recipient session")
    if session.phase in ("complete", "aborted"):
        raise PhaseError(f"session is {session.phase}")
    if session.awaiting_final:
        raise PhaseError("all counter messages for this transfer were already sent")
    if chain.token != session.token:
        raise TransferProtocolError("chain is for a different token")
    step = max(session.sent_values) + 1
    try:
        _check_published_step(cfg, chain, session, step - 1)
    except TransferAborted:
        session.abort()
        raise
    gen_values, owner_value = _recipient_step(km, session, step)
    session.advance_phase("counter-sent" if session.awaiting_final else "half-published")
    return CounterMessage(
        token=session.token,
        generator_commitments=gen_values,
        owner_commitment=owner_value,
    )


def recipient_finish(
    cfg: HashConfig, chain: TokenChain, km: KeyMaterial, session: TransferSession
) -> bool:
    """Confirm the final transfer record and close the recipient session.

    Returns False when the final record is simply not published yet.
    """
    if session.role != "recipient":
        raise PhaseError("not a recipient session")
    if session.phase == "complete":
        return True
    if session.phase == "aborted":
        raise PhaseError("session is aborted")
    if not session.awaiting_final:
        raise PhaseError("counter messages are still outstanding")
    try:
        _check_published_step(cfg, chain, session, session.total_steps)
    except TransferPending:
        return False
    except TransferAborted:
        session.abort()
        raise
    if not owns(cfg, chain, km):
        session.abort()
        raise TransferAborted("final record published but ownership did not transfer")
    session.advance_phase("complete")
    return True


def sender_publish_half(
    cfg: HashConfig, chain: TokenChain, km: KeyMaterial, offer: OfferMessage
) -> tuple[Record, TransferSession]:
    """Build the first transfer record from an offer.

    Refuses outright when km does not own the chain head, so no key is
    burned on a chain the sender cannot extend. The caller submits the
    record through a store gate and then calls session.mark_published.
    """
    if offer.token != chain.token:
        raise TransferProtocolError(
            f"offer is for token {offer.token[:12]}..., chain holds {chain.token[:12]}..."
        )
    if not owns(cfg, chain, km):
        raise OwnershipError("sender's key material does not own this chain")
    head = chain.head
    # step 1: the offer supplies no generator slot, so all are our own
    gens = tuple(km.commitment(head.seq + 1, j) for j in range(1, cfg.generator_count + 1))
    record = _extend(cfg, head, km, gens, offer.owner_commitment, None, "half record")
    session = TransferSession(
        role="sender",
        token=chain.token,
        base_seq=head.seq,
        generator_count=cfg.generator_count,
        phase="offered",
    )
    return record, session


def sender_publish_next(
    cfg: HashConfig,
    chain: TokenChain,
    km: KeyMaterial,
    session: TransferSession,
    counter: CounterMessage,
    data: str | None = None,
) -> Record:
    """Build the next transfer record from a counter message.

    The record is link-checked against the chain head before it is handed
    back; a malformed counter raises and leaves the session phase alone.
    """
    if session.role != "sender":
        raise PhaseError("not a sender session")
    if session.phase in ("complete", "aborted"):
        raise PhaseError(f"session is {session.phase}")
    if counter.token != session.token:
        raise TransferProtocolError("counter message is for a different token")
    m = session.generator_count
    step = session.next_record_step
    if step < 2:
        raise PhaseError("the half record has not been confirmed yet")
    if step > m + 1:
        raise PhaseError("transfer already has all its records")
    supplied = _message_slots(m, step)
    if len(counter.generator_commitments) != len(supplied):
        raise TransferProtocolError(
            f"counter for step {step} must carry {len(supplied)} generator "
            f"values, got {len(counter.generator_commitments)}"
        )
    head = chain.head
    seq = session.base_seq + step
    if head is None or head.seq != seq - 1:
        raise TransferProtocolError(f"chain head out of step: expected seq {seq - 1}")
    by_slot = dict(zip(supplied, counter.generator_commitments))
    gens = tuple(by_slot[j] if j in by_slot else km.commitment(seq, j) for j in range(1, m + 1))
    record = _extend(
        cfg, head, km, gens, counter.owner_commitment, data, "malformed counter message: record"
    )
    if step == m + 1:
        session.advance_phase("counter-sent")
    return record
