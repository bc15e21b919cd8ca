import csv

import pytest
from click.testing import CliRunner

from lcws.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _setup_keys(runner, base):
    res = runner.invoke(main, ["ta-setup", "--out-dir", str(base / "keys"), "--seed", "1"])
    assert res.exit_code == 0, res.output
    return base / "keys"


def _keygen(runner, keys, attrs, out, seed="2"):
    res = runner.invoke(main, [
        "ta-keygen", "--pk", str(keys / "pk.lcws"), "--mk", str(keys / "mk.lcws"),
        "--attrs", attrs, "--out", str(out), "--seed", seed,
    ])
    return res


def test_keygen_writes_one_component_per_attribute(runner, tmp_path):
    from lcws import wire
    keys = _setup_keys(runner, tmp_path)
    out = tmp_path / "sk3.lcws"
    assert _keygen(runner, keys, "a,b,c", out).exit_code == 0
    sk = wire.decode_secret_key(out.read_bytes())
    assert len(sk.components) == 3


def test_full_protocol_flow(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    sk = tmp_path / "sk.lcws"
    assert _keygen(runner, keys, "a,b", sk).exit_code == 0

    msg = tmp_path / "msg.bin"
    msg.write_bytes(bytes(range(256)) * 5)
    res = runner.invoke(main, [
        "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a AND b)",
        "--store", str(tmp_path / "store"), "--seed", "3",
    ])
    assert res.exit_code == 0, res.output
    mid = res.output.strip().splitlines()[0]

    # policy depth 2: exactly two blocks in the store
    blocks = sorted((tmp_path / "store" / mid).glob("*.ctb"))
    assert len(blocks) == 2

    out = tmp_path / "out.bin"
    res = runner.invoke(main, [
        "dr-decrypt", "--sk", str(sk), "--store", str(tmp_path / "store"),
        "--message-id", mid, "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == msg.read_bytes()

    v = tmp_path / "v.lcws"
    res = runner.invoke(main, [
        "ta-challenge", "--mk", str(keys / "mk.lcws"), "--store", str(tmp_path / "store"),
        "--message-id", mid, "--out", str(v), "--seed", "4",
    ])
    assert res.exit_code == 0, res.output

    res = runner.invoke(main, ["dr-verify", str(out), "--v", str(v)])
    assert res.exit_code == 0 and res.output.strip() == "True"

    tampered = bytearray(out.read_bytes())
    tampered[7] ^= 0x20
    out.write_bytes(bytes(tampered))
    res = runner.invoke(main, ["dr-verify", str(out), "--v", str(v)])
    assert res.exit_code == 2 and res.output.strip() == "False"


def test_unsatisfying_key_exit_code_and_no_output(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    sk = tmp_path / "sk.lcws"
    assert _keygen(runner, keys, "only-this", sk).exit_code == 0
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"payload bytes")
    res = runner.invoke(main, [
        "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a AND b)",
        "--store", str(tmp_path / "store"), "--seed", "5",
    ])
    mid = res.output.strip().splitlines()[0]
    out = tmp_path / "nope.bin"
    res = runner.invoke(main, [
        "dr-decrypt", "--sk", str(sk), "--store", str(tmp_path / "store"),
        "--message-id", mid, "--out", str(out),
    ])
    assert res.exit_code == 2
    assert "policy" in res.output.lower() or "policy" in (res.stderr or "").lower()
    assert not out.exists()


def test_empty_attribute_list_usage_error(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    res = _keygen(runner, keys, " , ,", tmp_path / "sk.lcws")
    assert res.exit_code == 2


def test_empty_message_rejected(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    res = runner.invoke(main, [
        "do-encrypt", str(empty), "--pk", str(keys / "pk.lcws"),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a AND b)",
        "--store", str(tmp_path / "store"),
    ])
    assert res.exit_code != 0
    assert "empty message" in res.output


def test_policy_syntax_error_exit_code(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"data")
    res = runner.invoke(main, [
        "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a AND",
        "--store", str(tmp_path / "store"),
    ])
    assert res.exit_code == 2


def test_unknown_message_id_is_io_error(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    sk = tmp_path / "sk.lcws"
    assert _keygen(runner, keys, "a", sk).exit_code == 0
    res = runner.invoke(main, [
        "dr-decrypt", "--sk", str(sk), "--store", str(tmp_path / "store"),
        "--message-id", "doesnotexist", "--out", str(tmp_path / "x.bin"),
    ])
    assert res.exit_code == 3


def test_corrupt_key_file_is_format_error(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    bad = tmp_path / "bad.lcws"
    bad.write_bytes(b"not a key file at all")
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"data")
    res = runner.invoke(main, [
        "do-encrypt", str(msg), "--pk", str(bad),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a AND b)",
        "--store", str(tmp_path / "store"),
    ])
    assert res.exit_code == 4


def test_ten_level_policy_uploads_ten_blocks(runner, tmp_path):
    from lcws.bench import synthetic_policy
    keys = _setup_keys(runner, tmp_path)
    text, _ = synthetic_policy(10, 100)
    msg = tmp_path / "m.bin"
    msg.write_bytes(bytes(200))
    res = runner.invoke(main, [
        "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", text,
        "--store", str(tmp_path / "store"), "--seed", "6",
    ])
    assert res.exit_code == 0, res.output
    mid = res.output.strip().splitlines()[0]
    assert len(list((tmp_path / "store" / mid).glob("*.ctb"))) == 10


def test_decrypt_through_simulated_link(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    sk = tmp_path / "sk.lcws"
    assert _keygen(runner, keys, "a,b,c", sk).exit_code == 0
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"x" * 5000)
    res = runner.invoke(main, [
        "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a AND (b OR c))",
        "--store", str(tmp_path / "store"), "--seed", "7",
    ])
    mid = res.output.strip().splitlines()[0]
    out = tmp_path / "o.bin"
    res = runner.invoke(main, [
        "dr-decrypt", "--sk", str(sk), "--store", str(tmp_path / "store"),
        "--message-id", mid, "--out", str(out), "--bandwidth", "1000000",
    ])
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == msg.read_bytes()


def test_bench_command_writes_reports(runner, tmp_path):
    out_csv = tmp_path / "bench.csv"
    out_dat = tmp_path / "bench.dat"
    res = runner.invoke(main, [
        "bench", "--sizes", "0.0625,0.125", "--levels", "3", "--leaves", "4",
        "--bandwidth", "2097152", "--latency", "0.05", "--runs", "1",
        "--seed", "8", "--out-csv", str(out_csv), "--out-dat", str(out_dat),
    ])
    assert res.exit_code == 0, res.output
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "size_bytes"
    assert len(rows) == 3
    assert out_dat.read_text().startswith("# size_bytes")


@pytest.fixture()
def four_block_message(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    sk = tmp_path / "sk.lcws"
    assert _keygen(runner, keys, "a,b,c,d", sk).exit_code == 0
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"four blocks " * 400)
    res = runner.invoke(main, [
        "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a AND (b AND (c AND d)))",
        "--store", str(tmp_path / "store"), "--seed", "9",
    ])
    assert res.exit_code == 0, res.output
    mid = res.output.strip().splitlines()[0]
    assert len(list((tmp_path / "store" / mid).glob("*.ctb"))) == 4
    return sk, tmp_path / "store", mid


def _dr_decrypt(runner, sk, store, mid, out, link_args):
    return runner.invoke(main, [
        "dr-decrypt", "--sk", str(sk), "--store", str(store),
        "--message-id", mid, "--out", str(out), *link_args,
    ])


@pytest.mark.parametrize("link_args", [[], ["--bandwidth", "1e7"]])
def test_corrupt_block_is_format_error(runner, tmp_path, four_block_message, link_args):
    sk, store, mid = four_block_message
    block = store / mid / "00002.ctb"
    data = bytearray(block.read_bytes())
    data[-1] ^= 0x01                              # inside a leaf component
    block.write_bytes(bytes(data))
    out = tmp_path / "o.bin"
    res = _dr_decrypt(runner, sk, store, mid, out, link_args)
    assert res.exit_code == 4, res.output
    assert "malformed input" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("link_args", [[], ["--bandwidth", "1e7"]])
def test_missing_block_is_io_error(runner, tmp_path, four_block_message, link_args):
    sk, store, mid = four_block_message
    (store / mid / "00003.ctb").unlink()
    out = tmp_path / "o.bin"
    res = _dr_decrypt(runner, sk, store, mid, out, link_args)
    assert res.exit_code == 3, res.output
    assert f"{mid}/00003" in res.stderr
    assert not out.exists()
