import dataclasses
import random

import pytest

from lcws import scheme, wire
from lcws.algebra import SUITE_ID
from lcws.errors import DecodeError
from lcws.policy import parse_policy

from helpers import random_policy


@pytest.fixture(scope="module")
def corpus(suite):
    pk, mk, ctx = suite
    rng = random.Random(90)
    out = []
    for text in ["a", "(a AND b)", "(2 of (a, b, (c AND d)))"]:
        tree = parse_policy(text)
        msg = rng.randbytes(rng.randint(40, 400))
        out.extend(scheme.encrypt_message(msg, tree, pk, ctx, rng))
    for _ in range(3):
        tree = parse_policy(random_policy(rng, max_depth=4, max_leaves=8))
        msg = rng.randbytes(64)
        out.extend(scheme.encrypt_message(msg, tree, pk, ctx, rng))
    return out


def test_ctb_round_trip_structural(corpus):
    for ctb in corpus:
        data = wire.encode_ctb(ctb, "msg-0001")
        parsed, message_id = wire.decode_ctb(data)
        assert message_id == "msg-0001"
        assert parsed == ctb


def test_ctb_round_trip_byte_identity(corpus):
    for ctb in corpus:
        data = wire.encode_ctb(ctb, "msg-0002")
        parsed, mid = wire.decode_ctb(data)
        assert wire.encode_ctb(parsed, mid) == data


def test_ctb_rejects_bad_magic(corpus):
    data = bytearray(wire.encode_ctb(corpus[0], "m"))
    data[0] ^= 0xFF
    with pytest.raises(DecodeError):
        wire.decode_ctb(bytes(data))


def test_ctb_rejects_unknown_version(corpus):
    data = bytearray(wire.encode_ctb(corpus[0], "m"))
    data[4:6] = (99).to_bytes(2, "big")
    with pytest.raises(DecodeError):
        wire.decode_ctb(bytes(data))
    # so are flag bits other than commitment and sentinel
    data = bytearray(wire.encode_ctb(corpus[0], "m"))
    at = 4 + 2 + 4 + len(SUITE_ID) + 4 + 1 + 8         # flags byte after "m", index, count
    assert data[at] == wire.FLAG_COMMITMENT | wire.FLAG_SENTINEL
    data[at] |= 0x04
    with pytest.raises(DecodeError):
        wire.decode_ctb(bytes(data))


def test_ctb_rejects_truncation_everywhere(corpus):
    data = wire.encode_ctb(corpus[0], "m")
    for cut in [3, 5, 10, len(data) // 2, len(data) - 1]:
        with pytest.raises(DecodeError):
            wire.decode_ctb(data[:cut])


def test_ctb_rejects_trailing_garbage(corpus):
    data = wire.encode_ctb(corpus[0], "m")
    with pytest.raises(DecodeError):
        wire.decode_ctb(data + b"\x00")


def test_ctb_rejects_corrupt_element(corpus):
    data = bytearray(wire.encode_ctb(corpus[0], "m"))
    data[-1] ^= 0x01                              # inside a leaf component
    with pytest.raises(DecodeError):
        wire.decode_ctb(bytes(data))


def _replaced(data, old, new):
    assert len(old) == len(new) and data.count(old) == 1
    return data.replace(old, new)


def test_ctb_rejects_non_text_fields(corpus):
    data = wire.encode_ctb(corpus[0], "msg-text-field")
    for field in (SUITE_ID.encode("ascii"), b"msg-text-field"):
        with pytest.raises(DecodeError):
            wire.decode_ctb(_replaced(data, field, b"\xff" + field[1:]))
    ctb = next(c for c in corpus if any(d.is_leaf for d in c.descriptor))
    leaf = next(i for i, d in enumerate(ctb.descriptor) if d.is_leaf)
    descriptor = list(ctb.descriptor)
    descriptor[leaf] = dataclasses.replace(descriptor[leaf], attribute="attribute:text")
    data = wire.encode_ctb(dataclasses.replace(ctb, descriptor=tuple(descriptor)), "m")
    with pytest.raises(DecodeError):
        wire.decode_ctb(_replaced(data, b"attribute:text", b"\xffttribute:text"))


def test_ctb_rejects_index_outside_block_range(corpus):
    # a middle block: neither the commitment nor the sentinel pins its index
    ctb = next(c for c in corpus if 1 < c.index < c.block_count)
    data = bytearray(wire.encode_ctb(ctb, "m"))
    at = 4 + 2 + 4 + len(SUITE_ID) + 4 + 1            # index field after "m"
    assert int.from_bytes(data[at:at + 4], "big") == ctb.index
    for index in (0, ctb.block_count + 1):
        data[at:at + 4] = index.to_bytes(4, "big")
        with pytest.raises(DecodeError):
            wire.decode_ctb(bytes(data))


def test_ctb_rejects_bad_descriptors(corpus):
    ctb = next(c for c in corpus if c.index > 1 and len(c.descriptor) > 1
               and any(not d.is_leaf for d in c.descriptor))
    gate = next(i for i, d in enumerate(ctb.descriptor) if not d.is_leaf)
    zero = list(ctb.descriptor)
    zero[gate] = dataclasses.replace(zero[gate], threshold=0)
    twice = list(ctb.descriptor)
    twice[1] = dataclasses.replace(twice[1], node_id=twice[0].node_id)
    for descriptor in (zero, twice):
        data = wire.encode_ctb(dataclasses.replace(ctb, descriptor=tuple(descriptor)), "m")
        with pytest.raises(DecodeError):
            wire.decode_ctb(data)


def test_key_file_rejects_non_utf8_attribute(suite):
    pk, mk, _ = suite
    sk = scheme.keygen(pk, mk, {"attribute:plain-text"}, random.Random(92))
    data = wire.encode_secret_key(sk)
    with pytest.raises(DecodeError):
        wire.decode_secret_key(_replaced(data, b"attribute:plain-text", b"\xffttribute:plain-text"))
    with pytest.raises(DecodeError):
        wire.decode_secret_key(_replaced(data, SUITE_ID.encode("ascii"),
                                         b"\x80" + SUITE_ID.encode("ascii")[1:]))


def test_key_file_round_trips(suite):
    pk, mk, ctx = suite
    rng = random.Random(91)
    sk = scheme.keygen(pk, mk, {"a", "b", "room:42"}, rng)
    v = scheme.make_challenge(scheme.data_verification(b"m", mk), mk, rng)
    assert wire.decode_public_key(wire.encode_public_key(pk)) == pk
    assert wire.decode_master_key(wire.encode_master_key(mk)) == mk
    sk2 = wire.decode_secret_key(wire.encode_secret_key(sk))
    assert sk2.d == sk.d and sk2.d_hat == sk.d_hat
    assert dict(sk2.components) == dict(sk.components)
    assert wire.decode_encryption_context(wire.encode_encryption_context(ctx)) == ctx
    assert wire.decode_verification_tuple(wire.encode_verification_tuple(v)) == v


def test_key_file_kind_mismatch(suite):
    pk, mk, ctx = suite
    data = wire.encode_public_key(pk)
    with pytest.raises(DecodeError):
        wire.decode_master_key(data)


def test_key_file_truncation(suite):
    pk, _, _ = suite
    data = wire.encode_public_key(pk)
    with pytest.raises(DecodeError):
        wire.decode_public_key(data[:-3])
