import dataclasses
import signal
import socket
import socketserver
import subprocess
import sys
import threading
import time

import pytest

from conftest import build_records, dir_synced_after_replace, make_token, wait_until
from tokenledger import WireClient, parse_record, serialize_record
from tokenledger.cli import main

ALICE = "alice-cli-pw"
BOB = "bob-cli-pw"


@pytest.fixture
def server(server_factory):
    return server_factory(name="cli")


@pytest.fixture
def as_alice(monkeypatch):
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_cli_token(capsys, host, payload_file):
    code, out, _ = run(capsys, "create", "--host", host, "--file", str(payload_file))
    assert code == 0
    token = [l for l in out.splitlines() if l.startswith("token ")][0].split(" ")[1]
    return token


# -- create / show -----------------------------------------------------------


def test_create_and_ownership(capsys, server, as_alice, tmp_path):
    payload = tmp_path / "artwork.bin"
    payload.write_bytes(b"one of a kind")
    token = make_cli_token(capsys, server.address, payload)
    assert len(token) == 64
    code, out, _ = run(
        capsys, "show", "--host", server.address, "--token", token, "--check-ownership"
    )
    assert code == 0 and out.strip().endswith("owned")


def test_create_same_file_different_owner_rejected(capsys, server, tmp_path, monkeypatch):
    payload = tmp_path / "shared.bin"
    payload.write_bytes(b"contested")
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    make_cli_token(capsys, server.address, payload)
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", "intruder-pw")
    code, _, err = run(capsys, "create", "--host", server.address, "--file", str(payload))
    assert code == 1 and "genesis-exists" in err


def test_create_random_twice_distinct(capsys, server, as_alice):
    tokens = set()
    for _ in range(2):
        code, out, _ = run(capsys, "create", "--host", server.address, "--random")
        assert code == 0
        tokens.add([l for l in out.splitlines() if l.startswith("token ")][0].split(" ")[1])
    assert len(tokens) == 2


def test_connectivity_failure_exit_3(capsys, as_alice):
    code, _, err = run(capsys, "create", "--host", "127.0.0.1:1", "--random")
    assert code == 3


def test_malformed_host_exit_2(capsys, as_alice):
    code, _, err = run(capsys, "create", "--host", "nohostport", "--random")
    assert code == 2 and "nohostport" in err


# -- verify -------------------------------------------------------------------


def test_verify_pristine_db(capsys, cfg, tmp_path):
    from tokenledger import Ledger

    db = tmp_path / "good.db"
    with Ledger(cfg, db) as ledger:
        for record in build_records(cfg, make_token("v1"), "pw", 5):
            ledger.append(record)
    code, out, _ = run(capsys, "verify", "--db", str(db))
    assert code == 0 and "1 tokens" in out


def test_verify_flipped_digit_names_the_record(capsys, cfg, tmp_path):
    from tokenledger import Ledger

    db = tmp_path / "bad.db"
    with Ledger(cfg, db) as ledger:
        for record in build_records(cfg, make_token("v2"), "pw", 5):
            ledger.append(record)
    lines = db.read_text().splitlines()
    target = lines[2].split(" ")
    target[2] = ("0" if target[2][0] != "0" else "1") + target[2][1:]
    lines[2] = " ".join(target)
    db.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--db", str(db))
    assert code == 1 and "line 3" in out


def test_verify_says_when_genesis_is_not_retained(capsys, cfg, tmp_path):
    token = make_token("v3")
    records = build_records(cfg, token, "pw", 8)
    db = tmp_path / "window.db"
    db.write_text("".join(serialize_record(r) + "\n" for r in records[5:]))
    code, out, _ = run(capsys, "verify", "--db", str(db))
    assert code == 0 and "1 tokens" in out
    assert f"ok {token} (3 records from seq 5, genesis not retained)" in out

    full = tmp_path / "full.db"
    full.write_text("".join(serialize_record(r) + "\n" for r in records))
    code, out, _ = run(capsys, "verify", "--db", str(full))
    assert code == 0 and f"ok {token} (8 records from seq 0)" in out


def test_verify_empty_db(capsys, cfg, tmp_path):
    db = tmp_path / "empty.db"
    db.write_bytes(b"")
    code, out, _ = run(capsys, "verify", "--db", str(db))
    assert code == 0 and "0 tokens" in out


def test_verify_over_the_wire(capsys, server, as_alice, tmp_path):
    payload = tmp_path / "w.bin"
    payload.write_bytes(b"wire verify")
    token = make_cli_token(capsys, server.address, payload)
    code, out, _ = run(
        capsys, "verify", "--host", server.address, "--token", token
    )
    assert code == 0 and f"ok {token}" in out
    code, _, err = run(capsys, "verify", "--host", server.address)
    assert code == 2


@pytest.fixture
def stub_server():
    """Start servers that answer each request verb with a fixed reply block."""
    started = []

    def make(replies):
        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for raw in self.rfile:
                    verb = raw.decode().split(" ", 1)[0].strip()
                    block = replies.get(verb, ["ERR bad-request"])
                    self.wfile.write("".join(line + "\n" for line in block).encode())

        srv = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        srv.daemon_threads = True
        thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        started.append((srv, thread))
        return f"127.0.0.1:{srv.server_address[1]}"

    yield make
    for srv, thread in started:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def test_verify_over_the_wire_names_the_failed_link(capsys, cfg, stub_server):
    token = make_token("broken owner link")
    records = build_records(cfg, token, "pw", 2)
    flipped = ("0" if records[0].owner[0] != "0" else "1") + records[0].owner[1:]
    records[0] = dataclasses.replace(records[0], owner=flipped)
    host = stub_server({"GETCHAIN": [f"REC {serialize_record(r)}" for r in records] + ["END"]})
    code, out, _ = run(capsys, "verify", "--host", host, "--token", token)
    assert code == 1
    assert f"FAIL {token} seq 0 bad-O" in out.splitlines()


@pytest.mark.parametrize("command, failed", [
    (["show"], "fetching chain failed"),
    (["verify"], "fetching chain failed"),
    (["transfer", "offer", "--state-dir", "STATE"], "fetching head failed"),
])
def test_malformed_record_from_server_is_a_bad_reply(
    capsys, stub_server, as_alice, tmp_path, command, failed
):
    """A record line the server sends that does not parse exits 3, like any bad reply."""
    host = stub_server({"GETCHAIN": ["REC 0 garbage", "END"], "GETHEAD": ["REC 0 garbage"]})
    token = make_token("garbage reply")
    argv = [str(tmp_path) if arg == "STATE" else arg for arg in command]
    code, _, err = run(capsys, *argv, "--host", host, "--token", token)
    assert code == 3
    assert failed in err


def test_verify_over_the_wire_names_a_missing_token(capsys, server, as_alice, tmp_path):
    payload = tmp_path / "held.bin"
    payload.write_bytes(b"held")
    token = make_cli_token(capsys, server.address, payload)
    missing = make_token("never created")
    code, out, _ = run(
        capsys, "verify", "--host", server.address, "--token", token, "--token", missing
    )
    assert code == 1
    assert f"ok {token} (1 records from seq 0)" in out
    assert f"FAIL {missing} not-found" in out
    assert "2 tokens" in out


# -- publish (data field) -------------------------------------------------------


def test_publish_data_shows_in_head(capsys, server, as_alice, tmp_path):
    payload = tmp_path / "asset.bin"
    payload.write_bytes(b"asset")
    token = make_cli_token(capsys, server.address, payload)
    code, out, _ = run(
        capsys, "publish", "--host", server.address, "--token", token, "--text", "IOU:42"
    )
    assert code == 0
    with WireClient(server.address) as client:
        head = client.gethead(token)
    assert head.endswith(" IOU:42")
    assert parse_record(server.cfg, head).data == "IOU:42"


def test_publish_by_non_owner_refused(capsys, server, tmp_path, monkeypatch):
    payload = tmp_path / "locked.bin"
    payload.write_bytes(b"locked")
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    token = make_cli_token(capsys, server.address, payload)
    before = len(server.ledger.get_chain(token))
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", "thief-pw")
    code, _, err = run(
        capsys, "publish", "--host", server.address, "--token", token, "--text", "stolen"
    )
    assert code == 1 and "own" in err
    assert len(server.ledger.get_chain(token)) == before  # no key revealed, no record


def test_publish_newline_rejected(capsys, server, as_alice, tmp_path):
    payload = tmp_path / "nl.bin"
    payload.write_bytes(b"nl")
    token = make_cli_token(capsys, server.address, payload)
    code, _, err = run(
        capsys, "publish", "--host", server.address, "--token", token, "--text", "a\nb"
    )
    assert code == 2


# -- transfer ---------------------------------------------------------------------


def transfer_via_cli(capsys, server, token, tmp_path, sender_pw, recipient_pw, monkeypatch):
    recipient_dir = tmp_path / f"r-{recipient_pw}"
    sender_dir = tmp_path / f"s-{sender_pw}"

    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", recipient_pw)
    code, out, _ = run(
        capsys, "transfer", "offer", "--host", server.address, "--token", token,
        "--state-dir", str(recipient_dir),
    )
    assert code == 0
    offer_line = out.strip().splitlines()[-1]

    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", sender_pw)
    code, out, _ = run(
        capsys, "transfer", "finish", "--host", server.address, "--token", token,
        "--state-dir", str(sender_dir), "--message", offer_line,
    )
    assert code == 0 and "phase half-published" in out

    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", recipient_pw)
    code, out, _ = run(
        capsys, "transfer", "counter", "--host", server.address, "--token", token,
        "--state-dir", str(recipient_dir),
    )
    assert code == 0
    counter_line = out.strip().splitlines()[-1]

    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", sender_pw)
    code, out, _ = run(
        capsys, "transfer", "finish", "--host", server.address, "--token", token,
        "--state-dir", str(sender_dir), "--message", counter_line,
    )
    assert code == 0 and "transfer complete" in out

    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", recipient_pw)
    code, out, _ = run(
        capsys, "transfer", "counter", "--host", server.address, "--token", token,
        "--state-dir", str(recipient_dir),
    )
    assert code == 0 and "transfer complete" in out


def test_transfer_full_flow_over_cli(capsys, server, tmp_path, monkeypatch):
    payload = tmp_path / "gift.bin"
    payload.write_bytes(b"gift")
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    token = make_cli_token(capsys, server.address, payload)
    transfer_via_cli(capsys, server, token, tmp_path, ALICE, BOB, monkeypatch)

    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", BOB)
    code, out, _ = run(
        capsys, "show", "--host", server.address, "--token", token, "--check-ownership"
    )
    assert code == 0 and out.strip().endswith("owned")
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    code, out, _ = run(
        capsys, "show", "--host", server.address, "--token", token, "--check-ownership"
    )
    assert code == 1 and out.strip().endswith("not-owned")


def test_counter_before_half_visible(capsys, server, as_alice, tmp_path, monkeypatch):
    payload = tmp_path / "early.bin"
    payload.write_bytes(b"early")
    token = make_cli_token(capsys, server.address, payload)
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", BOB)
    code, out, _ = run(
        capsys, "transfer", "offer", "--host", server.address, "--token", token,
        "--state-dir", str(tmp_path / "rb"),
    )
    assert code == 0
    code, _, err = run(
        capsys, "transfer", "counter", "--host", server.address, "--token", token,
        "--state-dir", str(tmp_path / "rb"),
    )
    assert code == 1 and "not on chain yet" in err


def test_finish_with_tampered_counter_keeps_session(capsys, server, tmp_path, monkeypatch):
    payload = tmp_path / "tamper.bin"
    payload.write_bytes(b"tamper")
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    token = make_cli_token(capsys, server.address, payload)

    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", BOB)
    code, out, _ = run(
        capsys, "transfer", "offer", "--host", server.address, "--token", token,
        "--state-dir", str(tmp_path / "rb"),
    )
    offer_line = out.strip().splitlines()[-1]
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    code, out, _ = run(
        capsys, "transfer", "finish", "--host", server.address, "--token", token,
        "--state-dir", str(tmp_path / "sa"), "--message", offer_line,
    )
    assert code == 0
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", BOB)
    code, out, _ = run(
        capsys, "transfer", "counter", "--host", server.address, "--token", token,
        "--state-dir", str(tmp_path / "rb"),
    )
    counter_line = out.strip().splitlines()[-1]
    parts = counter_line.split(" ")
    parts[2] = ("0" if parts[2][0] != "0" else "1") + parts[2][1:]
    tampered = " ".join(parts)

    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    code, _, err = run(
        capsys, "transfer", "finish", "--host", server.address, "--token", token,
        "--state-dir", str(tmp_path / "sa"), "--message", tampered,
    )
    assert code == 1 and "link check" in err
    session_text = (tmp_path / "sa" / f"sender-{token}.session").read_text()
    assert "phase=half-published" in session_text
    # honest counter still completes the transfer
    code, out, _ = run(
        capsys, "transfer", "finish", "--host", server.address, "--token", token,
        "--state-dir", str(tmp_path / "sa"), "--message", counter_line,
    )
    assert code == 0 and "transfer complete" in out


def test_counter_on_aborted_session_reports_it(capsys, server, tmp_path, monkeypatch):
    payload = tmp_path / "abort.bin"
    payload.write_bytes(b"abort")
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    token = make_cli_token(capsys, server.address, payload)
    r_dir = str(tmp_path / "rb")
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", BOB)
    code, _, _ = run(
        capsys, "transfer", "offer", "--host", server.address, "--token", token,
        "--state-dir", r_dir,
    )
    assert code == 0
    # the owner fills the offered slot with a record of their own instead
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    code, _, _ = run(
        capsys, "publish", "--host", server.address, "--token", token, "--text", "mine"
    )
    assert code == 0
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", BOB)
    counter = ("transfer", "counter", "--host", server.address, "--token", token,
               "--state-dir", r_dir)
    code, _, err = run(capsys, *counter)
    assert code == 1 and "aborted: " in err and "owner commitment mismatch" in err
    code, _, err = run(capsys, *counter)
    assert code == 1 and err == "error: session is aborted\n"


@pytest.mark.parametrize("text", [
    "role=sender\ntok",  # torn mid-write
    "role=sender\ntoken={t}\nbase_seq=0\ngenerators=1\nphase=bogus\npublished_through=1\n",
])
def test_unreadable_session_file_names_its_path(capsys, server, as_alice, tmp_path, text):
    token = make_token("torn session")
    state = tmp_path / "torn-state"
    state.mkdir()
    session_path = state / f"sender-{token}.session"
    session_path.write_text(text.format(t=token))
    code, _, err = run(
        capsys, "transfer", "finish", "--host", server.address, "--token", token,
        "--state-dir", str(state), "--message", f"COUNTER {token} {token} {token}",
    )
    assert code == 2 and f"unreadable session at {session_path}" in err


def test_session_lock_rejects_concurrent_invocation(capsys, server, as_alice, tmp_path):
    payload = tmp_path / "lock.bin"
    payload.write_bytes(b"lock")
    token = make_cli_token(capsys, server.address, payload)
    state = tmp_path / "locked-state"
    state.mkdir()
    (state / f"recipient-{token}.session.lock").touch()
    code, _, err = run(
        capsys, "transfer", "offer", "--host", server.address, "--token", token,
        "--state-dir", str(state),
    )
    assert code == 2 and "another invocation" in err


def test_session_save_fsyncs_the_directory_after_the_rename(
    capsys, server, as_alice, tmp_path, rename_log
):
    payload = tmp_path / "durable.bin"
    payload.write_bytes(b"durable")
    token = make_cli_token(capsys, server.address, payload)
    state = tmp_path / "durable-state"
    code, _, _ = run(
        capsys, "transfer", "offer", "--host", server.address, "--token", token,
        "--state-dir", str(state),
    )
    assert code == 0
    assert dir_synced_after_replace(rename_log, state / f"recipient-{token}.session")


def test_sessions_never_contain_passphrases(capsys, server, tmp_path, monkeypatch):
    payload = tmp_path / "priv.bin"
    payload.write_bytes(b"priv")
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    token = make_cli_token(capsys, server.address, payload)
    transfer_via_cli(capsys, server, token, tmp_path, ALICE, BOB, monkeypatch)
    for session_file in tmp_path.rglob("*.session"):
        text = session_file.read_text()
        assert ALICE not in text and BOB not in text


def test_show_and_verify_refuse_a_malformed_token(capsys, server):
    for argv in (
        ["show", "--host", server.address, "--token", "zz"],
        ["verify", "--host", server.address, "--token", "zz"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "token: not a 64-char lowercase hex digest" in err


def test_usage_error_exit_2(capsys, server):
    code, _, err = run(
        capsys, "transfer", "finish", "--host", server.address,
        "--token", make_token("x"), "--state-dir", "/tmp/nowhere",
    )
    assert code == 2


# -- debt workflow recipe (data-field only, no dedicated code) --------------------


def test_debt_token_workflow(capsys, server, tmp_path, monkeypatch):
    """Identity tokens carry debt state purely through data records."""
    ids = {}
    for user, pw in (("a", "user-a-pw"), ("b", "user-b-pw")):
        payload = tmp_path / f"id-{user}.bin"
        payload.write_bytes(f"identity of {user}".encode())
        monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", pw)
        ids[user] = make_cli_token(capsys, server.address, payload)

    debt_text = "DEBT:coffee-fund:10"
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", "user-a-pw")
    code, out, _ = run(
        capsys, "publish", "--host", server.address, "--token", ids["a"], "--text", debt_text
    )
    assert code == 0
    debt_seq = parse_record(server.cfg, out.splitlines()[0][len("record "):]).seq

    # B accepts the debt by publishing the same text in their identity token
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", "user-b-pw")
    code, out, _ = run(
        capsys, "publish", "--host", server.address, "--token", ids["b"], "--text", debt_text
    )
    assert code == 0
    accept_seq = parse_record(server.cfg, out.splitlines()[0][len("record "):]).seq

    # A publishes a reference to B's acceptance record, releasing them
    release = f"RELEASED:{ids['b']}:{accept_seq}"
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", "user-a-pw")
    code, _, _ = run(
        capsys, "publish", "--host", server.address, "--token", ids["a"], "--text", release
    )
    assert code == 0

    with WireClient(server.address) as client:
        chain_a = [parse_record(server.cfg, l) for l in client.getchain(ids["a"])]
        chain_b = [parse_record(server.cfg, l) for l in client.getchain(ids["b"])]
    assert chain_a[debt_seq].data == debt_text
    assert chain_b[accept_seq].data == debt_text
    assert chain_a[-1].data == release
    code, out, _ = run(
        capsys, "verify", "--host", server.address, "--token", ids["a"], "--token", ids["b"]
    )
    assert code == 0


def test_config_file_with_flag_overrides(capsys, tmp_path, server_factory):
    """Flag overrides beat file values; compatible config reaches the wire."""
    from tokenledger import HashConfig

    cfg = HashConfig(domain_tag="tagged-db", generator_count=2)
    server = server_factory(name="tagged", cfg=cfg)
    conf = tmp_path / "node.conf"
    conf.write_text("domain_tag=tagged-db\ngenerators=1\n")  # generators wrong on purpose

    payload = tmp_path / "cfg.bin"
    payload.write_bytes(b"configured")
    import os

    os.environ["TOKENLEDGER_PASSPHRASE"] = ALICE
    try:
        code, out, _ = run(
            capsys, "create", "--host", server.address, "--file", str(payload),
            "--config", str(conf), "--generators", "2",
        )
        assert code == 0
        token = [l for l in out.splitlines() if l.startswith("token ")][0].split(" ")[1]
        code, out, _ = run(
            capsys, "show", "--host", server.address, "--token", token,
            "--config", str(conf), "--generators", "2", "--check-ownership",
        )
        assert code == 0 and out.strip().endswith("owned")
    finally:
        del os.environ["TOKENLEDGER_PASSPHRASE"]


@pytest.mark.parametrize("key, value", [
    ("generators", "abc"),
    ("generators", "-1"),
    ("history_depth", "abc"),
    ("history_depth", "0"),
    ("algorithm", "md5"),
    ("domain_tag", "two words"),
])
def test_bad_setting_same_message_from_file_and_flag(capsys, tmp_path, key, value):
    """One parser for the config file and the flags: exit 2, and the message names the key."""
    conf = tmp_path / "bad.conf"
    conf.write_text(f"{key}={value}\n")
    with socket.socket() as blocker:  # should a bad value get through, serve cannot bind
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        serve = ["serve", "--db", str(tmp_path / "s.db"),
                 "--listen", f"127.0.0.1:{blocker.getsockname()[1]}"]
        from_file = run(capsys, *serve, "--config", str(conf))
        from_flag = run(capsys, *serve, "--" + key.replace("_", "-"), value)
    assert from_file == from_flag
    code, _, err = from_file
    assert code == 2 and key in err


def test_unreadable_config_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing.conf"
    code, _, err = run(capsys, "verify", "--db", str(tmp_path / "x.db"), "--config", str(missing))
    assert code == 2 and "missing.conf" in err


def _transfer_over_cli(capsys, tmp_path, server_factory, monkeypatch, m):
    """One token created and handed over at m generators; m + 1 published records."""
    from tokenledger import HashConfig

    cfg = HashConfig(generator_count=m)
    server = server_factory(name=f"m{m}", cfg=cfg)
    gen_args = ["--generators", str(m)]
    payload = tmp_path / f"m{m}.bin"
    payload.write_bytes(f"{m} generators".encode())

    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
    code, out, _ = run(
        capsys, "create", "--host", server.address, "--file", str(payload), *gen_args
    )
    assert code == 0
    token = [l for l in out.splitlines() if l.startswith("token ")][0].split(" ")[1]

    r_dir, s_dir = str(tmp_path / "rb"), str(tmp_path / "sa")
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", BOB)
    code, out, _ = run(
        capsys, "transfer", "offer", "--host", server.address, "--token", token,
        "--state-dir", r_dir, *gen_args,
    )
    assert code == 0
    message = out.strip().splitlines()[-1]
    for round_no in range(m + 1):  # half, middle and final publishes
        monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", ALICE)
        code, out, _ = run(
            capsys, "transfer", "finish", "--host", server.address, "--token", token,
            "--state-dir", s_dir, "--message", message, *gen_args,
        )
        assert code == 0
        monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", BOB)
        code, out, _ = run(
            capsys, "transfer", "counter", "--host", server.address, "--token", token,
            "--state-dir", r_dir, *gen_args,
        )
        assert code == 0
        message = out.strip().splitlines()[-1]
    assert message == "transfer complete"
    monkeypatch.setenv("TOKENLEDGER_PASSPHRASE", BOB)
    code, out, _ = run(
        capsys, "show", "--host", server.address, "--token", token,
        "--check-ownership", *gen_args,
    )
    assert code == 0 and out.strip().endswith("owned")


def test_transfer_multi_generator_over_cli(capsys, tmp_path, server_factory, monkeypatch):
    """m=2: the half record, one middle counter round, then the final."""
    _transfer_over_cli(capsys, tmp_path, server_factory, monkeypatch, 2)


def test_transfer_without_generators_over_cli(capsys, tmp_path, server_factory, monkeypatch):
    """m=0: the offer is the recipient's only message; the half record is final."""
    _transfer_over_cli(capsys, tmp_path, server_factory, monkeypatch, 0)


# -- serve lifecycle ----------------------------------------------------------------


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_serve_runs_and_stops_cleanly(tmp_path):
    port = _free_port()
    with subprocess.Popen(
        [sys.executable, "-m", "tokenledger.cli", "serve",
         "--db", str(tmp_path / "srv.db"), "--listen", f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:  # leaving the block closes the pipes
        try:
            assert wait_until(lambda: _ping(port), timeout=10), "server never answered"
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0


def _ping(port):
    try:
        with WireClient(f"127.0.0.1:{port}", timeout=0.5) as client:
            return client.ping()
    except OSError:
        return False


def test_serve_occupied_port_names_it(capsys, tmp_path):
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        code = main([
            "serve", "--db", str(tmp_path / "s.db"), "--listen", f"127.0.0.1:{port}",
        ])
        captured = capsys.readouterr()
    assert code != 0 and str(port) in captured.err


def test_serve_malformed_peer_exits_2_before_binding(capsys, tmp_path):
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        code, _, err = run(
            capsys, "serve", "--db", str(tmp_path / "s.db"),
            "--listen", f"127.0.0.1:{port}", "--peers", "127.0.0.1:9441,nohostport",
        )
    assert code == 2 and "nohostport" in err


def test_serve_with_peers_listed(tmp_path, server_factory):
    peer_a = server_factory(name="pa")
    peer_b = server_factory(name="pb")
    port = _free_port()
    with subprocess.Popen(
        [sys.executable, "-m", "tokenledger.cli", "serve",
         "--db", str(tmp_path / "peered.db"), "--listen", f"127.0.0.1:{port}",
         "--peers", f"{peer_a.address},{peer_b.address}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:  # leaving the block closes the pipes
        try:
            assert wait_until(lambda: _ping(port), timeout=10)
            with WireClient(f"127.0.0.1:{port}") as client:
                listing = client.peers()
            assert peer_a.address in listing and peer_b.address in listing
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
