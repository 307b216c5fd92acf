"""Single command exposing server, auditor, and wallet roles.

Exit codes: 0 success, 1 verification/protocol failure, 2 usage error,
3 connectivity. Passphrases come from TOKENLEDGER_PASSPHRASE or a prompt,
never argv. Transfer sessions persist as plain text files (no passphrase,
only already-committed digests plus phase) so a handshake can span days and
reboots; the printed OFFER/COUNTER lines are relayed over any channel.
"""
from __future__ import annotations

import argparse
import getpass
import hashlib
import logging
import os
import secrets
import signal
import socket
import sys
import threading
from pathlib import Path

from . import wallet
from .chain import RecordFormatError, TokenChain, parse_record, serialize_record, verify_chain
from .hashing import EncodingError, validate_digest
from .network import LedgerServer, WireClient, WireError
from .store import SETTINGS, Ledger, LoadError, StoreConfig, replace_durably

PASSPHRASE_ENV = "TOKENLEDGER_PASSPHRASE"

E_OK, E_FAIL, E_USAGE, E_CONN = 0, 1, 2, 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--algorithm", help="hash algorithm (default sha256)")
    parser.add_argument("--domain-tag", dest="domain_tag", help="database domain tag")
    parser.add_argument("--generators", help="generator field count")


def _effective_config(args: argparse.Namespace) -> StoreConfig:
    """The config file's settings, then the flags given; each flag's dest is its key."""
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}", E_USAGE)
    flags = [(key, value) for key in SETTINGS if (value := getattr(args, key, None)) is not None]
    return StoreConfig.from_text(text, flags)


def _passphrase() -> str:
    value = os.environ.get(PASSPHRASE_ENV)
    if value:
        return value
    return getpass.getpass("passphrase: ")


def _connect(host: str) -> WireClient:
    try:
        return WireClient(host)
    except OSError as exc:  # a malformed address is a ValueError, a usage error
        raise CliError(f"cannot reach {host}: {exc}", E_CONN)


def _fetch_chain(client: WireClient, cfg, token: str) -> TokenChain:
    validate_digest(cfg, token, "token")
    try:
        lines = client.getchain(token)
        records = tuple(parse_record(cfg, line) for line in lines)
    except (WireError, OSError, ValueError) as exc:  # a record line parse_record refuses, too
        raise CliError(f"fetching chain failed: {exc}", E_CONN)
    return TokenChain(token=token, records=records)


def _wire_add(client: WireClient, record) -> str:
    try:
        response = client.add(serialize_record(record))
    except (WireError, OSError) as exc:
        raise CliError(f"submit failed: {exc}", E_CONN)
    if response.startswith("ERR"):
        raise CliError(f"server rejected record: {response}", E_FAIL)
    return response


class _SessionFile:
    """Exclusive claim on one (role, token) transfer session."""

    def __init__(self, state_dir: str, role: str, token: str):
        self.dir = Path(state_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.role = role
        self.path = self.dir / f"{role}-{token}.session"
        self.lock_path = self.path.with_suffix(".session.lock")
        self._lock_fd: int | None = None

    def __enter__(self) -> "_SessionFile":
        try:
            self._lock_fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise CliError(
                f"another invocation holds the session for this token "
                f"({self.lock_path})",
                E_USAGE,
            )
        return self

    def __exit__(self, *exc) -> None:
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            os.unlink(self.lock_path)

    def load(self) -> wallet.TransferSession:
        if not self.path.exists():
            raise CliError(f"no session at {self.path}", E_USAGE)
        try:
            return wallet.TransferSession.from_text(self.path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CliError(f"unreadable session at {self.path}: {exc}", E_USAGE)

    def save(self, session: wallet.TransferSession) -> None:
        """Replace the session file atomically: a crash leaves the old or the new."""
        tmp = self.path.with_suffix(".session.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(session.to_text())
            fh.flush()
            os.fsync(fh.fileno())
        replace_durably(tmp, self.path)

    def refuse_if_in_progress(self) -> None:
        """Starting a new session must not overwrite an unfinished one."""
        if self.path.exists() and self.load().phase not in ("complete", "aborted"):
            raise CliError(
                f"a {self.role} session for this token is already in progress", E_USAGE
            )


# -- subcommands -----------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
        for key in SETTINGS:
            print(f"config {key}={getattr(cfg, key)}")
    try:
        ledger = Ledger(cfg.hash_config(), args.db, cfg.history_depth)
    except LoadError as exc:
        print(f"error: database failed verification on load: {exc}", file=sys.stderr)
        return E_FAIL
    except OSError as exc:
        print(f"error: cannot open database {args.db}: {exc}", file=sys.stderr)
        return E_USAGE
    try:
        server = LedgerServer(ledger, listen=cfg.listen, peers=cfg.peers)
    except (WireError, ValueError) as exc:  # port taken; bad listen or peer address
        ledger.close()
        raise CliError(str(exc), E_CONN if isinstance(exc, WireError) else E_USAGE)
    stop = threading.Event()

    def _signalled(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _signalled)
    signal.signal(signal.SIGINT, _signalled)
    server.start()
    print(f"listening on {server.address}")
    try:
        while not stop.wait(0.2):
            pass
    finally:
        server.shutdown()
        ledger.close()
    return E_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _effective_config(args).hash_config()
    results: dict[str, tuple] = {}  # token -> (report, retained records)
    if args.host:
        if not args.token:
            raise CliError("host verification needs at least one --token", E_USAGE)
        with _connect(args.host) as client:
            for token in args.token:
                token_chain = _fetch_chain(client, cfg, token)
                results[token] = (verify_chain(cfg, token_chain), token_chain.records)
    else:
        if not args.db:
            raise CliError("give a --db path or a --host", E_USAGE)
        if not Path(args.db).exists():
            print(f"error: no database at {args.db}", file=sys.stderr)
            return E_USAGE
        try:
            ledger = Ledger(cfg, args.db, None)
        except LoadError as exc:
            print(f"FAIL load: {exc}")
            return E_FAIL
        with ledger:
            for token, report in ledger.verify_all().items():
                results[token] = (report, ledger.get_chain(token))
    failures = 0
    for token, (report, records) in sorted(results.items()):
        if not records:  # a held token always keeps its head
            failures += 1
            print(f"FAIL {token} not-found")
        elif report.ok:
            # what was proved: the retained window links, from its first seq
            window = f"{len(records)} records from seq {records[0].seq}"
            if records[0].seq > 0:
                window += ", genesis not retained"
            print(f"ok {token} ({window})")
        else:
            failures += 1
            bad = report.first_failure
            print(f"FAIL {token} seq {bad.prev_seq} {bad.field}")
    print(f"{len(results)} tokens")
    return E_FAIL if failures else E_OK


def cmd_create(args: argparse.Namespace) -> int:
    cfg = _effective_config(args).hash_config()
    if args.file:
        try:
            payload = Path(args.file).read_bytes()
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}", E_USAGE)
    elif args.random:
        payload = secrets.token_bytes(32)
    else:
        raise CliError("need --file or --random", E_USAGE)
    token = hashlib.new(cfg.algorithm, payload).hexdigest()
    km = wallet.KeyMaterial(cfg, token, _passphrase())
    record = wallet.genesis_record(cfg, token, km)
    with _connect(args.host) as client:
        _wire_add(client, record)
    print(f"token {token}")
    print(f"record {serialize_record(record)}")
    return E_OK


def cmd_show(args: argparse.Namespace) -> int:
    cfg = _effective_config(args).hash_config()
    with _connect(args.host) as client:
        token_chain = _fetch_chain(client, cfg, args.token)
    if not token_chain.records:
        print("no records")
        return E_FAIL
    for record in token_chain.records:
        print(f"record {serialize_record(record)}")
    report = verify_chain(cfg, token_chain)
    print(f"chain {'ok' if report.ok else 'FAIL'} ({len(token_chain.records)} records)")
    if args.check_ownership:
        km = wallet.KeyMaterial(cfg, args.token, _passphrase())
        owned = wallet.owns(cfg, token_chain, km)
        print("owned" if owned else "not-owned")
        return E_OK if owned and report.ok else E_FAIL
    return E_OK if report.ok else E_FAIL


def cmd_publish(args: argparse.Namespace) -> int:
    cfg = _effective_config(args).hash_config()
    if "\n" in args.text or "\r" in args.text:
        raise CliError("data text must not contain newlines", E_USAGE)
    km = wallet.KeyMaterial(cfg, args.token, _passphrase())
    with _connect(args.host) as client:
        token_chain = _fetch_chain(client, cfg, args.token)
        if not token_chain.records:
            raise CliError("token unknown to this server", E_FAIL)
        try:
            record = wallet.self_extend(cfg, token_chain, km, data=args.text)
        except wallet.OwnershipError as exc:
            raise CliError(str(exc), E_FAIL)
        _wire_add(client, record)
    print(f"record {serialize_record(record)}")
    return E_OK


def cmd_transfer_offer(args: argparse.Namespace) -> int:
    cfg = _effective_config(args).hash_config()
    km = wallet.KeyMaterial(cfg, args.token, _passphrase())
    with _connect(args.host) as client:
        try:
            head_line = client.gethead(args.token)
            head = None if head_line is None else parse_record(cfg, head_line)
        except (WireError, OSError, ValueError) as exc:
            raise CliError(f"fetching head failed: {exc}", E_CONN)
    if head is None:
        raise CliError("token unknown to this server", E_FAIL)
    with _SessionFile(args.state_dir, "recipient", args.token) as sf:
        sf.refuse_if_in_progress()
        offer, session = wallet.recipient_offer(cfg, args.token, head.seq, km)
        sf.save(session)
    print(offer.to_line())
    return E_OK


def cmd_transfer_counter(args: argparse.Namespace) -> int:
    cfg = _effective_config(args).hash_config()
    km = wallet.KeyMaterial(cfg, args.token, _passphrase())
    with _SessionFile(args.state_dir, "recipient", args.token) as sf:
        session = sf.load()
        with _connect(args.host) as client:
            token_chain = _fetch_chain(client, cfg, args.token)
        try:
            if session.awaiting_final:
                done = wallet.recipient_finish(cfg, token_chain, km, session)
                sf.save(session)
                if done:
                    print("transfer complete")
                    return E_OK
                print("waiting for the final record")
                return E_FAIL
            message = wallet.recipient_counter(cfg, token_chain, km, session)
        except wallet.TransferPending as exc:
            raise CliError(f"{exc} (record not found; retry once it propagates)", E_FAIL)
        except wallet.TransferAborted as exc:
            sf.save(session)
            raise CliError(f"aborted: {exc}", E_FAIL)
        except wallet.TransferError as exc:
            raise CliError(str(exc), E_FAIL)
        sf.save(session)
    print(message.to_line())
    return E_OK


def cmd_transfer_finish(args: argparse.Namespace) -> int:
    cfg = _effective_config(args).hash_config()
    if not args.message:
        raise CliError("need --message with the received line", E_USAGE)
    try:
        message = wallet.parse_transfer_message(cfg, args.message)
    except (wallet.TransferProtocolError, ValueError) as exc:
        raise CliError(f"bad message: {exc}", E_USAGE)
    km = wallet.KeyMaterial(cfg, args.token, _passphrase())
    with _SessionFile(args.state_dir, "sender", args.token) as sf:
        with _connect(args.host) as client:
            token_chain = _fetch_chain(client, cfg, args.token)
            if isinstance(message, wallet.OfferMessage):
                sf.refuse_if_in_progress()
                try:
                    record, session = wallet.sender_publish_half(cfg, token_chain, km, message)
                except wallet.TransferError as exc:
                    raise CliError(str(exc), E_FAIL)
            else:
                session = sf.load()
                try:
                    record = wallet.sender_publish_next(
                        cfg, token_chain, km, session, message, data=args.data
                    )
                except wallet.TransferError as exc:
                    sf.save(session)
                    raise CliError(str(exc), E_FAIL)
            _wire_add(client, record)
            session.mark_published(record.seq)
            sf.save(session)
    print(f"record {serialize_record(record)}")
    if session.phase == "complete":
        print("transfer complete")
    else:
        print(f"phase {session.phase}")
    return E_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenledger",
        description="hash-chain token ledger: server, auditor, and wallet",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run a record server")
    _config_args(p_serve)
    p_serve.add_argument("--db", default="tokenledger.db", help="storage file path")
    p_serve.add_argument("--listen", help="host:port to bind")
    p_serve.add_argument("--peers", help="comma-separated peer addresses")
    p_serve.add_argument("--history-depth", dest="history_depth", help="N or 'unlimited'")
    p_serve.add_argument("--verbose", action="store_true")
    p_serve.set_defaults(func=cmd_serve)

    p_verify = sub.add_parser("verify", help="audit chain consistency")
    _config_args(p_verify)
    p_verify.add_argument("--db", help="storage file to audit")
    p_verify.add_argument("--host", help="server to audit instead of a file")
    p_verify.add_argument("--token", action="append", help="token to audit (host mode)")
    p_verify.set_defaults(func=cmd_verify)

    p_create = sub.add_parser("create", help="create a token and publish its genesis")
    _config_args(p_create)
    p_create.add_argument("--host", required=True)
    p_create.add_argument("--file", help="digital data the token identifies")
    p_create.add_argument("--random", action="store_true", help="random token payload")
    p_create.set_defaults(func=cmd_create)

    p_show = sub.add_parser("show", help="print a token's chain")
    _config_args(p_show)
    p_show.add_argument("--host", required=True)
    p_show.add_argument("--token", required=True)
    p_show.add_argument("--check-ownership", action="store_true")
    p_show.set_defaults(func=cmd_show)

    p_publish = sub.add_parser("publish", help="attach data to an owned token")
    _config_args(p_publish)
    p_publish.add_argument("--host", required=True)
    p_publish.add_argument("--token", required=True)
    p_publish.add_argument("--text", required=True)
    p_publish.set_defaults(func=cmd_publish)

    p_transfer = sub.add_parser("transfer", help="two-party ownership transfer")
    t_sub = p_transfer.add_subparsers(dest="step", required=True)

    t_offer = t_sub.add_parser("offer", help="recipient: open a transfer")
    _config_args(t_offer)
    t_offer.add_argument("--host", required=True)
    t_offer.add_argument("--token", required=True)
    t_offer.add_argument("--state-dir", dest="state_dir", default=_default_state_dir())
    t_offer.set_defaults(func=cmd_transfer_offer)

    t_counter = t_sub.add_parser("counter", help="recipient: verify and answer")
    _config_args(t_counter)
    t_counter.add_argument("--host", required=True)
    t_counter.add_argument("--token", required=True)
    t_counter.add_argument("--state-dir", dest="state_dir", default=_default_state_dir())
    t_counter.set_defaults(func=cmd_transfer_counter)

    t_finish = t_sub.add_parser("finish", help="sender: publish from a received message")
    _config_args(t_finish)
    t_finish.add_argument("--host", required=True)
    t_finish.add_argument("--token", required=True)
    t_finish.add_argument("--state-dir", dest="state_dir", default=_default_state_dir())
    t_finish.add_argument("--message", help="received OFFER or COUNTER line")
    t_finish.add_argument("--data", help="data text for the published record")
    t_finish.set_defaults(func=cmd_transfer_finish)

    return parser


def _default_state_dir() -> str:
    return os.path.join(os.path.expanduser("~"), ".tokenledger")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_FAIL
    except (EncodingError, RecordFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_USAGE
    except (ConnectionError, socket.timeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_CONN
    except KeyboardInterrupt:
        return E_OK


if __name__ == "__main__":
    sys.exit(main())
