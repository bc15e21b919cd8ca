import dataclasses
import json
import platform
import random
import shutil
import struct

import pytest
from click.testing import CliRunner

from lcws import algebra, pipeline, scheme, wire
from lcws.cli import main
from lcws.errors import DecodeError
from lcws.policy import MAX_NESTING
from lcws.store import BlobStore

from helpers import UNNAMEABLE_ATTRIBUTES, recording, without_leaf_component


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


@pytest.mark.parametrize("command", ["do-encrypt", "ta-keygen"])
def test_attribute_too_long_for_the_wire_exits_2_and_writes_nothing(runner, tmp_path, command):
    # 65536 bytes overflow the wire's 16-bit attribute length: the policy, or
    # the attribute list, is refused before any block is sealed or key drawn
    keys = _setup_keys(runner, tmp_path)
    long_attribute = "a" * 65536
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"data")
    store = tmp_path / "store"
    out = tmp_path / "sk.lcws"
    if command == "do-encrypt":
        res = runner.invoke(main, [
            "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
            "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", f"(b OR {long_attribute})",
            "--store", str(store), "--message-id", "m1",
        ])
    else:
        res = _keygen(runner, keys, "b," + long_attribute, out)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "attribute of 65536 bytes is over 65535" in res.output
    assert not store.exists() and not out.exists()


# a comma separates the attributes of --attrs, so "a,b" names two good ones there
@pytest.mark.parametrize("name", [n for n in UNNAMEABLE_ATTRIBUTES if "," not in n])
def test_keygen_refuses_an_attribute_no_policy_can_name(runner, tmp_path, name):
    keys = _setup_keys(runner, tmp_path)
    out = tmp_path / "sk.lcws"
    res = _keygen(runner, keys, f"b,{name}", out)
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--attrs'" in res.output and "no name a policy can use" in res.output
    assert not out.exists()


def test_policy_nested_past_the_cap_exits_2_and_stores_nothing(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"data")
    store = tmp_path / "store"
    depth = MAX_NESTING + 1
    res = runner.invoke(main, [
        "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(" * depth + "a" + ")" * depth,
        "--store", str(store), "--message-id", "m1",
    ])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"nested deeper than {MAX_NESTING}" in res.output
    assert not store.exists()


def test_unknown_message_id_is_io_error(runner, tmp_path):
    keys = _setup_keys(runner, tmp_path)
    sk = tmp_path / "sk.lcws"
    assert _keygen(runner, keys, "a", sk).exit_code == 0
    res = runner.invoke(main, [
        "dr-decrypt", "--sk", str(sk), "--store", str(tmp_path / "store"),
        "--message-id", "doesnotexist", "--out", str(tmp_path / "x.bin"),
    ])
    assert res.exit_code == 3
    # so is a message folder that exists but holds no block
    (tmp_path / "store" / "empty").mkdir(parents=True)
    res = runner.invoke(main, [
        "dr-decrypt", "--sk", str(sk), "--store", str(tmp_path / "store"),
        "--message-id", "empty", "--out", str(tmp_path / "x.bin"),
    ])
    assert res.exit_code == 3 and not (tmp_path / "x.bin").exists()


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


def test_corrupt_verification_tuple_point_is_format_error(runner, tmp_path):
    # the tuple decodes with either point moved off the subgroup.  v2, its
    # pairing's Miller point, then fails on the first pairing, a format
    # error; v1, only evaluated, pairs as its order-ORDER part, so the
    # check is False
    _, mk = scheme.setup(random.Random(10))
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"attested content")
    v = scheme.make_challenge(scheme.data_verification(msg.read_bytes(), mk), mk,
                              random.Random(11))
    data = wire.encode_verification_tuple(v)

    def corrupt(name):
        # the first flip of the point's last byte that keeps x on the curve
        raw = getattr(v, name).serialize()
        for bit in range(1, 256):
            bad = data.replace(raw, raw[:-1] + bytes([raw[-1] ^ bit]))
            try:
                getattr(wire.decode_verification_tuple(bad), name).validate()
            except DecodeError as exc:
                if "subgroup" in str(exc):
                    return bad

    v_path = tmp_path / "v.lcws"
    for content, code, output in ((data, 0, "True"), (corrupt("v2"), 4, ""),
                                  (corrupt("v1"), 2, "False")):
        v_path.write_bytes(content)
        res = runner.invoke(main, ["dr-verify", str(msg), "--v", str(v_path)])
        assert res.exit_code == code and res.stdout.strip() == output, res.output
        if code == 4:
            assert "malformed input" in res.stderr


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


def test_bench_report_refuses_sizes_out_of_order(monkeypatch):
    # refused before any set-up, not once the sweep has run
    from lcws import bench

    def setup(rng=None):
        raise AssertionError("set up before the sizes were checked")

    monkeypatch.setattr(bench.scheme, "setup", setup)
    with pytest.raises(ValueError, match="strictly increasing"):
        bench.run_bench([131072, 65536], 3, 4, pipeline.LinkModel(1e6), runs=1)


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


_BENCH_FIELDS = ["size_bytes", "enc_tx_sequential_s", "enc_tx_pipelined_s", "enc_tx_delta_s",
                 "tx_dec_sequential_s", "tx_dec_pipelined_s", "tx_dec_delta_s",
                 "max_block_enc_s", "min_block_tx_s"]


def test_bench_command_writes_reports(runner, tmp_path):
    out_json = tmp_path / "bench.json"
    res = runner.invoke(main, [
        "bench", "--sizes", "0.0625,0.125", "--levels", "3", "--leaves", "4",
        "--bandwidth", "2097152", "--latency", "0.05", "--runs", "1",
        "--seed", "8", "--json", str(out_json),
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(out_json.read_text())
    assert (report["levels"], report["leaves"], report["runs"]) == (3, 4, 1)
    assert report["nproc"] >= 1 and report["python"] == platform.python_version()
    assert "commit" in report
    assert [list(row) for row in report["rows"]] == [_BENCH_FIELDS] * 2
    assert [row["size_bytes"] for row in report["rows"]] == [65536, 131072]
    for row in report["rows"]:
        assert all(isinstance(row[name], float) for name in _BENCH_FIELDS[1:])
    primitives = report["primitives"]
    assert sorted(primitives) == ["final_exponentiation", "g0_pow_one_use", "g0_validate",
                                  "gt_pow", "hash_to_g0_uncached", "lines",
                                  "pair_ratio_kept", "pair_ratio_one_use", "verify_message"]
    assert all(p["unit"] == "ms" and 0 < p["q1"] <= p["median"] <= p["q3"]
               for p in primitives.values())


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
    data[-1] ^= 0x01                              # inside a leaf component the key reads
    block.write_bytes(bytes(data))
    out = tmp_path / "o.bin"
    res = _dr_decrypt(runner, sk, store, mid, out, link_args)
    assert res.exit_code == 4, res.output
    assert "malformed input" in res.stderr
    assert not out.exists()


def test_block_missing_a_leaf_component_is_format_error(runner, tmp_path):
    # policy (a AND b), key {a, b}: block 2 stored without leaf a's entry
    # is malformed input (exit 4), not an unsatisfied policy (exit 2)
    keys = _setup_keys(runner, tmp_path)
    sk = tmp_path / "sk.lcws"
    assert _keygen(runner, keys, "a,b", sk).exit_code == 0
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"two blocks " * 40)
    store = tmp_path / "store"
    res = runner.invoke(main, [
        "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a AND b)",
        "--store", str(store), "--seed", "11",
    ])
    assert res.exit_code == 0, res.output
    mid = res.output.strip().splitlines()[0]
    block = store / mid / "00002.ctb"
    ctb, _ = wire.decode_ctb(block.read_bytes())
    leaf_a = next(d.node_id for d in ctb.descriptor if d.attribute == "a")
    block.write_bytes(without_leaf_component(block.read_bytes(), leaf_a))
    out = tmp_path / "o.bin"
    res = _dr_decrypt(runner, sk, store, mid, out, [])
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


def test_block_of_another_message_is_format_error(runner, tmp_path, four_block_message):
    sk, store, mid = four_block_message
    shutil.copytree(store / mid, store / "other")
    out = tmp_path / "o.bin"
    res = _dr_decrypt(runner, sk, store, "other", out, [])
    assert res.exit_code == 4, res.output
    assert f"block '{mid}/00001' stored as 'other/00001'" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["ta-keygen", "do-encrypt"])
def test_key_file_with_a_zero_scalar_is_format_error(runner, tmp_path, command):
    # beta = 0 in the master key, or k = 0 in the owner context, which
    # used to seal a message under the identity commitment
    keys = _setup_keys(runner, tmp_path)
    if command == "ta-keygen":
        path, decode, encode, field = (keys / "mk.lcws", wire.decode_master_key,
                                       wire.encode_master_key, "beta")
    else:
        path, decode, encode, field = (keys / "enc-ctx.lcws", wire.decode_encryption_context,
                                       wire.encode_encryption_context, "k")
    path.write_bytes(encode(dataclasses.replace(decode(path.read_bytes()),
                                                **{field: algebra.Scalar(0)})))
    out = tmp_path / "out"
    if command == "ta-keygen":
        res = _keygen(runner, keys, "a", out)
    else:
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"message")
        res = runner.invoke(main, [
            "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
            "--enc-ctx", str(path), "--policy", "a", "--store", str(out), "--seed", "3"])
    assert res.exit_code == 4, res.output
    assert "scalar out of range" in res.stderr
    assert not out.exists()


def test_challenge_for_a_block_of_another_message_is_format_error(runner, tmp_path,
                                                                  four_block_message):
    _, store, mid = four_block_message
    shutil.copytree(store / mid, store / "other")
    v = tmp_path / "v.lcws"
    res = runner.invoke(main, [
        "ta-challenge", "--mk", str(tmp_path / "keys" / "mk.lcws"), "--store", str(store),
        "--message-id", "other", "--out", str(v), "--seed", "4",
    ])
    assert res.exit_code == 4, res.output
    assert f"block '{mid}/00001' stored as 'other/00001'" in res.stderr
    assert not v.exists()


def test_block_stored_under_another_index_is_format_error(runner, tmp_path, four_block_message):
    sk, store, mid = four_block_message
    shutil.copyfile(store / mid / "00003.ctb", store / mid / "00002.ctb")
    out = tmp_path / "o.bin"
    res = _dr_decrypt(runner, sk, store, mid, out, [])
    assert res.exit_code == 4, res.output
    assert f"block '{mid}/00003' stored as '{mid}/00002'" in res.stderr
    assert not out.exists()


def test_shorter_message_under_a_held_id_replaces_every_block(runner, tmp_path,
                                                               four_block_message):
    sk, store, mid = four_block_message
    keys = tmp_path / "keys"
    msg = tmp_path / "short.bin"
    msg.write_bytes(b"two blocks " * 100)
    for _ in range(2):                            # and again into the id it now holds
        res = runner.invoke(main, [
            "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
            "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a AND b)",
            "--store", str(store), "--message-id", mid, "--seed", "10",
        ])
        assert res.exit_code == 0, res.output
        assert sorted(p.name for p in (store / mid).iterdir()) == ["00001.ctb", "00002.ctb"]
        out = tmp_path / "o.bin"
        res = _dr_decrypt(runner, sk, store, mid, out, [])
        assert res.exit_code == 0, res.output
        assert out.read_bytes() == msg.read_bytes()


def test_failed_store_write_stops_encryption(runner, tmp_path, monkeypatch):
    from lcws.bench import synthetic_policy
    keys = _setup_keys(runner, tmp_path)
    text, _ = synthetic_policy(10, 9)
    msg = tmp_path / "m.bin"
    msg.write_bytes(bytes(200))
    encrypted, written = [], []
    encrypt_block, put = scheme.encrypt_block, BlobStore.put

    def counting_encrypt_block(state, pk, rng=None):
        encrypted.append(state)
        return encrypt_block(state, pk, rng)

    def failing_put(self, object_id, data):
        written.append(object_id)
        if len(written) == 2:
            raise OSError("disk full")
        put(self, object_id, data)

    monkeypatch.setattr(scheme, "encrypt_block", counting_encrypt_block)
    monkeypatch.setattr(BlobStore, "put", failing_put)
    res = runner.invoke(main, [
        "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
        "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", text,
        "--store", str(tmp_path / "store"), "--message-id", "m1", "--seed", "6",
    ])
    assert res.exit_code == 3, res.output
    assert "disk full" in res.stderr
    assert written == ["m1/00001", "m1/00002"]
    assert [p.name for p in (tmp_path / "store" / "m1").iterdir()] == ["00001.ctb"]
    # beyond the failing block: at most a full hand-off and the block in flight
    assert len(encrypted) <= 2 + pipeline._HANDOFF_BLOCKS + 1 < 10


def test_block_longer_than_its_header_allows_is_format_error(runner, tmp_path):
    # 20 bytes in 2 blocks make 10-byte blocks; block 2 is re-masked under its
    # level secret with a 20-byte payload and a header block length of 20
    keys = _setup_keys(runner, tmp_path)
    sk = tmp_path / "sk.lcws"
    assert _keygen(runner, keys, "a", sk).exit_code == 0
    msg = tmp_path / "m.bin"
    msg.write_bytes(bytes(range(20)))
    store = tmp_path / "store"
    with recording() as drawn:
        res = runner.invoke(main, [
            "do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
            "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a OR b)",
            "--store", str(store), "--seed", "6",
        ])
    assert res.exit_code == 0, res.output
    mid = res.output.strip().splitlines()[0]
    block = store / mid / "00002.ctb"
    data = block.read_bytes()
    ctb, _ = wire.decode_ctb(data)
    assert (ctb.total_len, ctb.block_count, ctb.block_len) == (20, 2, 10)
    pk = wire.decode_public_key((keys / "pk.lcws").read_bytes())
    plain = bytes(range(100, 120)) + algebra.G0Element.identity().serialize()
    mask = algebra.kdf_mask(pk.egg_alpha ** drawn.level_secrets()[2], len(plain))
    forged = data.replace(struct.pack(">IQI", 12, 20, 10), struct.pack(">IQI", 12, 20, 20))
    forged = forged.replace(struct.pack(">I", len(ctb.masked_payload)) + ctb.masked_payload,
                            struct.pack(">I", len(plain)) + algebra.xor_bytes(plain, mask))
    assert len(forged) == len(data) + 10
    with pytest.raises(DecodeError):
        wire.decode_ctb(forged)
    block.write_bytes(forged)
    out = tmp_path / "o.bin"
    res = _dr_decrypt(runner, sk, store, mid, out, [])
    assert res.exit_code == 4, res.output
    assert "malformed input" in res.stderr
    assert not out.exists()


_BENCH_ARGS = ["bench", "--sizes", "0.0625", "--levels", "3", "--leaves", "4", "--runs", "1",
               "--seed", "8"]


_BAD_OPTIONS = [
    ("dr-decrypt", ["--bandwidth", "0"]),
    ("dr-decrypt", ["--bandwidth", "1e7", "--latency", "-1"]),
    ("dr-decrypt", ["--latency", "5"]),
    ("dr-decrypt", ["--bandwidth", "nan"]),
    ("dr-decrypt", ["--bandwidth", "inf"]),
    ("dr-decrypt", ["--bandwidth", "1e6", "--latency", "nan"]),
    ("dr-decrypt", ["--bandwidth", "1e6", "--latency", "inf"]),
    ("dr-decrypt", ["--bandwidth", "1e-300"]),
    ("dr-decrypt", ["--bandwidth", "1e6", "--latency", "1e10"]),
    ("bench", ["--bandwidth", "0"]),
    ("bench", ["--latency", "-5"]),
    ("bench", ["--bandwidth", "nan"]),
    ("bench", ["--bandwidth", "inf"]),
    ("bench", ["--latency", "nan"]),
    ("bench", ["--latency", "inf"]),
    ("bench", ["--bandwidth", "1e-300"]),
    ("bench", ["--bandwidth", "1e6", "--latency", "1e10"]),
    ("bench", ["--runs", "0"]),
    ("bench", ["--levels", "0"]),
    ("bench", ["--levels", "3", "--leaves", "1"]),
    ("bench", ["--levels", "1", "--leaves", "2"]),
    ("bench", ["--levels", "200", "--leaves", "200"]),
    ("bench", ["--sizes", "0"]),
    ("bench", ["--sizes", "0.01,0.01"]),
    ("bench", ["--sizes", "abc"]),
]


@pytest.mark.parametrize("command, bad_args", _BAD_OPTIONS,
                         ids=[command + "".join(args) for command, args in _BAD_OPTIONS])
def test_out_of_range_option_is_usage_error(runner, tmp_path, four_block_message, command,
                                            bad_args):
    # every other option is valid, and a later option overrides an earlier one
    sk, store, mid = four_block_message
    out = tmp_path / "out"
    if command == "dr-decrypt":
        res = _dr_decrypt(runner, sk, store, mid, out, bad_args)
    else:
        res = runner.invoke(main, [*_BENCH_ARGS, "--json", str(out), *bad_args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Invalid value" in res.output
    assert not out.exists()


@pytest.mark.parametrize("bandwidth, code", [("0", 2), ("1e-300", 2), ("1e7", 4)])
def test_bad_link_is_refused_before_the_key_file_is_read(runner, tmp_path, four_block_message,
                                                          bandwidth, code):
    # the key file is corrupt (exit 4 once read), so a refused link exits 2
    # only if it is checked first
    sk, store, mid = four_block_message
    sk.write_bytes(b"not a key file at all")
    out = tmp_path / "o.bin"
    res = _dr_decrypt(runner, sk, store, mid, out, ["--bandwidth", bandwidth])
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit)
    assert not out.exists()


@pytest.mark.parametrize("message_id", ["a b", "", "x/../m1"])
@pytest.mark.parametrize("command", ["ta-challenge", "do-encrypt", "dr-decrypt"])
def test_bad_message_id_is_usage_error(runner, tmp_path, command, message_id):
    # the store holds messages x and m1, so "x/../m1" names a real folder;
    # a bad id is refused before any key file is read or block encrypted
    keys = _setup_keys(runner, tmp_path)
    sk = tmp_path / "sk.lcws"
    assert _keygen(runner, keys, "a", sk).exit_code == 0
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"message")
    store = tmp_path / "store"
    encrypt = ["do-encrypt", str(msg), "--pk", str(keys / "pk.lcws"),
               "--enc-ctx", str(keys / "enc-ctx.lcws"), "--policy", "(a OR b)",
               "--store", str(store), "--seed", "10"]
    for mid in ("x", "m1"):
        assert runner.invoke(main, [*encrypt, "--message-id", mid]).exit_code == 0
    before = sorted(store.rglob("*"))
    out = tmp_path / "out"
    args = {
        "ta-challenge": ["ta-challenge", "--mk", str(keys / "mk.lcws"), "--store", str(store),
                         "--out", str(out), "--seed", "11"],
        "do-encrypt": encrypt,
        "dr-decrypt": ["dr-decrypt", "--sk", str(sk), "--store", str(store), "--out", str(out)],
    }[command]
    res = runner.invoke(main, [*args, "--message-id", message_id])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Invalid value" in res.output and "bad message id" in res.output
    assert not out.exists() and sorted(store.rglob("*")) == before
