"""Canonical byte encoding of hash arguments and the single hash primitive.

Every digest in the system is produced here: arguments are joined with a
single space, optionally prefixed by a database domain tag, and hashed with
the configured algorithm. The space-joined encoding is injective as long as
no argument contains a separator byte, which is why separator bytes are a
hard error rather than something to sanitize.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

# Algorithms guaranteed by hashlib on every platform and sane to expose.
ALGORITHMS = ("sha256", "sha512", "sha224", "sha384", "sha1", "sha3_256", "sha3_512")
_DIGEST_LENGTHS = {name: hashlib.new(name).digest_size * 2 for name in ALGORITHMS}
# Spelled out rather than \d, which also matches non-ASCII digits.
_LOWER_HEX = re.compile("[0-9a-f]+")

_SEPARATORS = (" ", "\n", "\r")


class EncodingError(ValueError):
    """An argument cannot be encoded unambiguously (caller bug, never sanitized)."""


@dataclass(frozen=True)
class HashConfig:
    """Per-database hash parameters.

    Two databases are compatible iff algorithm, domain_tag and
    generator_count are all equal. data_max_bytes only bounds the free-text
    data field and does not affect compatibility.
    """

    algorithm: str = "sha256"
    domain_tag: str | None = None
    generator_count: int = 1
    data_max_bytes: int = 1024

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unsupported hash algorithm: {self.algorithm!r}")
        if self.domain_tag is not None:
            if not self.domain_tag:
                raise ValueError("domain_tag must be absent or non-empty")
            if any(sep in self.domain_tag for sep in _SEPARATORS):
                raise ValueError("domain_tag must not contain spaces or newlines")
        if self.generator_count < 0:
            raise ValueError("generator_count must be >= 0")
        if self.data_max_bytes < 0:
            raise ValueError("data_max_bytes must be >= 0")

    @property
    def digest_length(self) -> int:
        """Length in hex characters of a digest under this config."""
        return _DIGEST_LENGTHS[self.algorithm]


def _encode_arg(arg: str | int) -> str:
    if isinstance(arg, bool):
        raise EncodingError("bool is not a hashable argument")
    if isinstance(arg, int):
        if arg < 0:
            raise EncodingError(f"negative integer argument: {arg}")
        return str(arg)
    if not isinstance(arg, str):
        raise EncodingError(f"argument must be text or int, got {type(arg).__name__}")
    if not arg:
        raise EncodingError("empty argument")
    if any(sep in arg for sep in _SEPARATORS):
        raise EncodingError(f"argument contains a separator byte: {arg!r}")
    return arg


def canonical_hash(cfg: HashConfig, args: list[str | int] | tuple[str | int, ...]) -> str:
    """Hash the space-joined UTF-8 encoding of args, as lowercase hex.

    Integers are rendered as canonical decimal text (no sign, no leading
    zeros). The domain tag, when configured, is prepended as the first
    space-joined component.
    """
    if not args:
        raise EncodingError("argument list must not be empty")
    parts = [_encode_arg(a) for a in args]
    if cfg.domain_tag is not None:
        parts.insert(0, cfg.domain_tag)
    h = hashlib.new(cfg.algorithm)
    h.update(" ".join(parts).encode("utf-8"))
    return h.hexdigest()


def is_digest(cfg: HashConfig, value: str) -> bool:
    """True iff value is a well-formed digest: exact length, lowercase hex."""
    if not isinstance(value, str) or len(value) != cfg.digest_length:
        return False
    return _LOWER_HEX.fullmatch(value) is not None


def validate_digest(cfg: HashConfig, value: str, field: str) -> str:
    if not is_digest(cfg, value):
        raise ValueError(
            f"{field}: not a {cfg.digest_length}-char lowercase hex digest: {value!r}"
        )
    return value
