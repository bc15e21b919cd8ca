import pytest

from lcws.errors import StoreNotFoundError
from lcws.store import BlobStore, make_object_id

from helpers import opened


def test_put_get_identity(tmp_path):
    store = BlobStore(tmp_path / "s")
    store.put("m1/00001", b"\x00\x01\xff" * 100)
    assert store.get("m1/00001") == b"\x00\x01\xff" * 100


def test_put_overwrites(tmp_path):
    store = BlobStore(tmp_path / "s")
    store.put("m1/00001", b"old")
    store.put("m1/00001", b"new")
    assert store.get("m1/00001") == b"new"


def test_delete(tmp_path):
    store = BlobStore(tmp_path / "s")
    store.put("m1/00001", b"x")
    store.delete("m1/00001")
    with pytest.raises(StoreNotFoundError):
        store.get("m1/00001")
    assert store.list("m1") == []
    store.delete("m1/00001")                       # already gone: no error


def test_get_unknown_raises(tmp_path):
    store = BlobStore(tmp_path / "s")
    with pytest.raises(StoreNotFoundError):
        store.get("nope/00001")
    with pytest.raises(StoreNotFoundError):
        store.list("nope")


def test_list_in_index_order(tmp_path):
    store = BlobStore(tmp_path / "s")
    for i in range(10, 0, -1):                     # upload in reverse
        store.put(make_object_id("msg", i), bytes([i]))
    ids = store.list("msg")
    assert len(ids) == 10
    assert ids == sorted(ids)
    assert ids[0].endswith("00001") and ids[-1].endswith("00010")


def test_list_orders_past_five_digit_indices_by_number(tmp_path):
    # past 99 999 an id is wider than five digits, so its string sorts early
    store = BlobStore(tmp_path / "s")
    for i in (100000, 99999, 1):
        store.put(make_object_id("m", i), bytes([i % 256]))
    assert store.list("m") == ["m/00001", "m/99999", "m/100000"]


def test_one_object_id_per_block_index(tmp_path):
    # only make_object_id's spelling names a block, so a stray file under
    # another spelling of index 7 is not listed and no id can write one
    store = BlobStore(tmp_path / "s")
    store.put("m/00007", b"x")
    (tmp_path / "s" / "m" / "7.ctb").write_bytes(b"y")
    (tmp_path / "s" / "m" / "000007.ctb").write_bytes(b"z")
    assert store.list("m") == ["m/00007"]
    for object_id in ("m/7", "m/000007", "m/0100000"):
        with pytest.raises(ValueError):
            store.put(object_id, b"x")
    store.put("m/100000", b"x")
    assert store.list("m") == ["m/00007", "m/100000"]


def test_bad_object_id_rejected(tmp_path):
    store = BlobStore(tmp_path / "s")
    with pytest.raises(ValueError):
        store.put("../evil/00001", b"x")
    with pytest.raises(ValueError):
        store.put("m1/not-a-number", b"x")
    store.put("m1/00001", b"x")
    with pytest.raises(ValueError):
        store.list("x/../m1")


def test_no_temp_files_left(tmp_path):
    store = BlobStore(tmp_path / "s")
    store.put("m1/00001", b"payload")
    # a write that fails removes its temp file and leaves no object
    with pytest.raises(TypeError):
        store.put("m1/00002", "text, not bytes")
    leftovers = [p for p in (tmp_path / "s").rglob("*") if p.suffix == ".tmp"]
    assert leftovers == [] and store.list("m1") == ["m1/00001"]


def test_store_contents_alone_reveal_nothing(tmp_path, suite):
    # store bytes plus public key, opened with a key holding no policy
    # attribute, never yield a message
    import random

    from lcws import scheme, wire
    from lcws.errors import PolicyNotSatisfiedError
    from lcws.policy import parse_policy
    import pytest as _pytest

    pk, mk, ctx = suite
    rng = random.Random(40)
    store = BlobStore(tmp_path / "cloud")
    corpus = {}
    for i, text in enumerate(["(a AND b)", "(x OR (y AND z))", "(2 of (p, q, r))"]):
        mid = f"m{i}"
        msg = rng.randbytes(300)
        corpus[mid] = msg
        for ctb in scheme.encrypt_message(msg, parse_policy(text), pk, ctx, rng):
            store.put(make_object_id(mid, ctb.index), wire.encode_ctb(ctb, mid))
    outsider = scheme.keygen(pk, mk, {"outsider:none"}, rng)
    for mid in corpus:
        state = scheme.DecryptionState(outsider)
        for oid in store.list(mid):
            ctb, _ = wire.decode_ctb(store.get(oid))
            state.add_block(ctb)
        assert not opened(state)
        with _pytest.raises(PolicyNotSatisfiedError):
            scheme.assemble_message(state, outsider)
