import dataclasses
import hashlib
import random
import struct
import tracemalloc

import pytest

from lcws import algebra, scheme, wire
from lcws.algebra import SUITE_ID
from lcws.bench import synthetic_policy
from lcws.errors import DecodeError
from lcws.policy import parse_policy

from helpers import UNNAMEABLE_ATTRIBUTES, affine_mul_naf, naf_msb, opened, random_policy


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


def _replaced(data, old, new):
    assert len(old) == len(new) and data.count(old) == 1
    return data.replace(old, new)


def _corrupt(data, element):
    """`data` with the last byte of `element`'s encoding flipped: the x
    coordinate then leaves the curve or at best the prime-order subgroup."""
    raw = element.serialize()
    return _replaced(data, raw, raw[:-1] + bytes([raw[-1] ^ 0x01]))


def _off_curve(data, element):
    """`data` with the first flip of the last byte of `element`'s encoding
    that moves its x off the curve."""
    raw = element.serialize()
    q, x = algebra.FIELD_PRIME, int.from_bytes(raw[1:], "big")
    flip = next(bit for bit in range(1, 256)
                if pow(((x ^ bit) ** 3 + (x ^ bit)) % q, (q - 1) // 2, q) == q - 1)
    return _replaced(data, raw, raw[:-1] + bytes([raw[-1] ^ flip]))


def test_ctb_rejects_corrupt_element(corpus):
    # other points are validated on first use, but block 1's commitment is
    # checked by decode itself: a message whose commitment names no subgroup
    # point can never be verified
    ctb = corpus[0]
    with pytest.raises(DecodeError, match="curve|subgroup"):
        wire.decode_ctb(_corrupt(wire.encode_ctb(ctb, "m"), ctb.commitment))


# "(a OR (b AND c))": block 1 holds the root, block 2 leaf a and the gate
# (b AND c) with its link, block 3 leaves b and c; key {a} reads leaf a only
@pytest.fixture(scope="module")
def three_blocks(suite):
    pk, mk, ctx = suite
    rng = random.Random(93)
    msg = rng.randbytes(300)
    ctbs = list(scheme.encrypt_message(msg, parse_policy("(a OR (b AND c))"), pk, ctx, rng))
    assert len(ctbs) == 3
    return msg, ctbs, scheme.keygen(pk, mk, {"a"}, rng)


def _leaf_components(ctb, attribute):
    return next(ctb.leaf_components[d.node_id] for d in ctb.descriptor
                if d.attribute == attribute)


def _decrypt(ctbs, sk, reverse=False):
    state = scheme.DecryptionState(sk)
    for ctb in (ctbs[::-1] if reverse else ctbs):
        state.add_block(ctb)
    return scheme.assemble_message(state, sk)


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
def test_corrupt_leaf_component_the_key_reads_fails_in_add_block(three_blocks, component,
                                                                  reverse):
    msg, ctbs, sk = three_blocks
    blobs = [wire.encode_ctb(ctb, "m") for ctb in ctbs]
    blobs[1] = _corrupt(blobs[1], _leaf_components(ctbs[1], "a")[component])
    decoded = [wire.decode_ctb(blob)[0] for blob in blobs]
    assert wire.encode_ctb(decoded[1], "m") == blobs[1]
    with pytest.raises(DecodeError, match="curve|subgroup"):
        _decrypt(decoded, sk, reverse)


@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
def test_corrupt_points_the_key_never_reads_still_decrypt(three_blocks, reverse):
    msg, ctbs, sk = three_blocks
    blob_2 = _corrupt(wire.encode_ctb(ctbs[1], "m"), next(iter(ctbs[1].gate_links.values())))
    blob_3 = wire.encode_ctb(ctbs[2], "m")
    for attribute in ("b", "c"):
        for element in _leaf_components(ctbs[2], attribute):
            blob_3 = _corrupt(blob_3, element)
    decoded = [ctbs[0], wire.decode_ctb(blob_2)[0], wire.decode_ctb(blob_3)[0]]
    assert _decrypt(decoded, sk, reverse) == msg


@pytest.mark.parametrize("point", ["leaf", "encap"])
def test_block_whose_point_fails_is_dropped_so_a_resent_copy_decrypts(three_blocks, point):
    # a corrupt leaf a component in block 2 fails while the root value is
    # evaluated, a corrupt encapsulation while block 2 opens by the chain;
    # either way the genuine block 2 sent again is taken in, not ignored as
    # a repeat, and block 3 then opens by the chain
    msg, ctbs, sk = three_blocks
    element = _leaf_components(ctbs[1], "a")[0] if point == "leaf" else ctbs[1].encap
    blob_2 = _corrupt(wire.encode_ctb(ctbs[1], "m"), element)
    state = scheme.DecryptionState(sk)
    state.add_block(ctbs[0])
    with pytest.raises(DecodeError, match="curve|subgroup"):
        state.add_block(wire.decode_ctb(blob_2)[0])
    assert 2 not in state.blocks
    state.add_block(ctbs[1])
    assert opened(state) == [1, 2]
    state.add_block(ctbs[2])
    assert scheme.assemble_message(state, sk) == msg


def _key_file_cases(suite, three_blocks):
    """(encoded file, the file corrupt, decode, first use) per decoded point
    kind.  A point is corrupt as `_corrupt` makes it, but the verification
    tuple's v1 off the curve: it is only evaluated, so outside the
    prime-order subgroup it pairs as its order-ORDER part."""
    pk, mk, _ = suite
    msg, ctbs, sk = three_blocks
    v = scheme.make_challenge(scheme.data_verification(msg, mk), mk, random.Random(94))
    pk_file, mk_file = wire.encode_public_key(pk), wire.encode_master_key(mk)
    sk_file, v_file = wire.encode_secret_key(sk), wire.encode_verification_tuple(v)
    # the public key's g and h, and the secret key's d and d_hat, become
    # fixed bases, which leaves them unvalidated until their first use
    return [
        (pk_file, _corrupt(pk_file, pk.g), wire.decode_public_key, lambda bad: bad.g ** 2),
        (pk_file, _corrupt(pk_file, pk.h), wire.decode_public_key, lambda bad: bad.h ** 2),
        (mk_file, _corrupt(mk_file, mk.g_alpha), wire.decode_master_key,
         lambda bad: scheme.keygen(pk, bad, {"a"}, random.Random(95))),
        *((sk_file, _corrupt(sk_file, element), wire.decode_secret_key,
           lambda bad: _decrypt(ctbs, bad)) for element in (sk.d, sk.d_hat, *sk.components["a"])),
        *((v_file, corrupt, wire.decode_verification_tuple,
           lambda bad: scheme.verify_message(msg, bad))
          for corrupt in (_off_curve(v_file, v.v1), _corrupt(v_file, v.v2))),
    ]


def test_corrupt_key_file_point_fails_on_first_use(suite, three_blocks):
    for _, corrupt, decode, use in _key_file_cases(suite, three_blocks):
        decoded = decode(corrupt)
        with pytest.raises(DecodeError, match="curve|subgroup"):
            use(decoded)


def test_corrupt_key_file_point_fails_on_every_use_after_a_memo_hit(three_blocks):
    # a point that fails its check keeps nothing, so the memoised key fails
    # again however often its file is decoded and used
    msg, ctbs, sk = three_blocks
    sk_file = wire.encode_secret_key(sk)
    for element in (sk.d, sk.d_hat, *sk.components["a"]):
        bad = _corrupt(sk_file, element)
        first = wire.decode_secret_key(bad)
        for _ in range(3):
            again = wire.decode_secret_key(bad)
            assert again is first
            with pytest.raises(DecodeError, match="curve|subgroup"):
                _decrypt(ctbs, again)
    assert _decrypt(ctbs, wire.decode_secret_key(sk_file)) == msg


def test_key_memo_stays_at_its_bound(three_blocks):
    _, _, sk = three_blocks
    wire.decode_secret_key.cache_clear()
    bound = wire.decode_secret_key.cache_info().maxsize
    files = [wire.encode_secret_key(scheme.SecretKey(sk.d, sk.d_hat, {
        f"a{i}": sk.components["a"]})) for i in range(bound + 5)]
    keys = [wire.decode_secret_key(data) for data in files]
    assert wire.decode_secret_key.cache_info().currsize == bound == 16
    # the newest stay, the oldest were let go
    assert wire.decode_secret_key(files[-1]) is keys[-1]
    assert wire.decode_secret_key(files[0]) is not keys[0]
    assert wire.decode_secret_key.cache_info().currsize == bound


def _message_curve_point(msg):
    """The point R whose [COFACTOR]R is H(msg): the first counter's curve
    point, y even, recomputed from the hash's framing with hashlib alone."""
    q = algebra.FIELD_PRIME
    for counter in range(256):
        framed = b"lcws-h2c-v1" + bytes([2]) + b"Hv" + msg + bytes([counter])
        x = int.from_bytes(hashlib.sha512(framed).digest(), "big") % q
        rhs = (x * x * x + x) % q
        y = pow(rhs, (q + 1) // 4, q)
        if y * y % q == rhs:
            return (x, q - y if y & 1 else y)
    raise AssertionError("no counter gave a point")


def test_no_unvalidated_point_reaches_curve_or_pairing_internals(suite, three_blocks,
                                                                  monkeypatch):
    # every point whose Miller-loop lines are returned, and every point
    # handed to point addition, a comb table build, a comb exponentiation or
    # a one-use ladder power, is a prime-order subgroup point; every point a
    # product of pairings evaluates them at is a curve point with x != 0.
    # This holds also while corrupt blocks and key files are being decrypted
    # and checked.  An evaluated point need not lie in the subgroup: the
    # verifier's own R, the message hash before its cofactor is cleared,
    # lies outside it by design
    msg, ctbs, sk = three_blocks
    r_point = _message_curve_point(msg)
    seen, evaluated = set(), set()

    def watch(name, points):
        real = getattr(algebra, name)

        def wrapper(*args):
            seen.update(p for p in points(*args) if p is not None)
            return real(*args)
        monkeypatch.setattr(algebra, name, wrapper)

    real_walk, real_product = algebra._walk, algebra._miller_product

    def walk(p):
        # a Miller point's walk reaches its last row only once its loop
        # has shown the point's order
        for k, row in enumerate(real_walk(p), 1):
            if k == len(algebra._ORDER_BITS):
                seen.add(p)
            yield row

    def miller_product(terms):
        evaluated.update(q for _, q, _ in terms)
        return real_product(terms)

    monkeypatch.setattr(algebra, "_walk", walk)
    monkeypatch.setattr(algebra, "_miller_product", miller_product)
    # a mixed addition's affine operand, and a product's left factor: the
    # Jacobian operand with Z = 1
    watch("_jac_add_affine", lambda p, a: (a, p[:2] if p is not None and p[2] == 1 else None))
    watch("_build_comb", lambda point, teeth: (point,))
    # the source group's comb walks start from the identity, None
    watch("_comb_pow", lambda table, k, square, mul, acc: (table[1],) if acc is None else ())
    # every ladder power but a hash's cofactor clearing
    watch("_ladder", lambda p, k: (p,) if k != algebra.COFACTOR else ())
    algebra._comb_table.cache_clear()
    blobs = [wire.encode_ctb(ctb, "m") for ctb in ctbs]
    blobs[1] = _corrupt(blobs[1], _leaf_components(ctbs[1], "a")[0])
    with pytest.raises(DecodeError):
        _decrypt([wire.decode_ctb(blob)[0] for blob in blobs], sk)
    for data, corrupt, decode, use in _key_file_cases(suite, three_blocks):
        with pytest.raises(DecodeError):
            use(decode(corrupt))
        use(decode(data))
    assert _decrypt([wire.decode_ctb(wire.encode_ctb(ctb, "m"))[0] for ctb in ctbs], sk) == msg
    monkeypatch.undo()                      # the oracle below adds points too
    assert len(seen) > 20 and len(evaluated) > 5
    order_naf = naf_msb(algebra.ORDER)
    for point in seen:
        assert affine_mul_naf(point, order_naf) is None, point
    q = algebra.FIELD_PRIME
    for x, y in evaluated:
        assert x != 0 and (y * y - x * x * x - x) % q == 0, (x, y)
    # R was evaluated, and lies outside the subgroup
    assert r_point in evaluated and affine_mul_naf(r_point, order_naf) is not None


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


@pytest.mark.parametrize("name", UNNAMEABLE_ATTRIBUTES)
def test_decode_refuses_an_attribute_no_policy_can_name(corpus, name):
    # no owner writes a leaf, and no authority a key component, under such a
    # name, so a block or a key file holding one is refused as malformed
    ctb = next(c for c in corpus if any(d.is_leaf for d in c.descriptor))
    leaf = next(i for i, d in enumerate(ctb.descriptor) if d.is_leaf)
    descriptor = list(ctb.descriptor)
    descriptor[leaf] = dataclasses.replace(descriptor[leaf], attribute=name)
    data = wire.encode_ctb(dataclasses.replace(ctb, descriptor=tuple(descriptor)), "m")
    with pytest.raises(DecodeError, match="no name a policy can use"):
        wire.decode_ctb(data)
    g = algebra.generator()
    key_file = wire.encode_secret_key(scheme.SecretKey(g, g, {"b": (g, g), name: (g, g)}))
    with pytest.raises(DecodeError, match="no name a policy can use"):
        wire.decode_secret_key(key_file)


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


def test_ctb_rejects_sentinel_flag_off_the_last_block(corpus):
    # the sentinel flag marks exactly the last block: set on a middle block,
    # or cleared on a last one, it is refused
    at = 4 + 2 + 4 + len(SUITE_ID) + 4 + 1 + 8         # flags byte after "m", index, count
    middle = next(c for c in corpus if 1 < c.index < c.block_count)
    last = next(c for c in corpus if 1 < c.index == c.block_count)
    for ctb, flags in ((middle, 0), (last, wire.FLAG_SENTINEL)):
        data = bytearray(wire.encode_ctb(ctb, "m"))
        assert data[at] == flags
        data[at] ^= wire.FLAG_SENTINEL
        with pytest.raises(DecodeError, match="flags 0x0[02] do not fit block"):
            wire.decode_ctb(bytes(data))


def test_ctb_rejects_bad_descriptors(corpus):
    ctb = next(c for c in corpus if c.index > 1 and len(c.descriptor) > 1
               and any(not d.is_leaf for d in c.descriptor))
    gate = next(i for i, d in enumerate(ctb.descriptor) if not d.is_leaf)
    zero = list(ctb.descriptor)
    zero[gate] = dataclasses.replace(zero[gate], threshold=0)
    twice = list(ctb.descriptor)
    twice[1] = dataclasses.replace(twice[1], node_id=twice[0].node_id)
    for descriptor, message in ((zero, "threshold 0"), (twice, "appears more than once")):
        # the maps re-keyed to the forged descriptor's nodes, so that the
        # block is canonical and decode reaches the descriptor's check
        point = ctb.encap
        forged = dataclasses.replace(
            ctb, descriptor=tuple(descriptor),
            gate_links={d.node_id: point for d in descriptor if not d.is_leaf},
            leaf_components={d.node_id: (point, point) for d in descriptor if d.is_leaf})
        with pytest.raises(DecodeError, match=message):
            wire.decode_ctb(wire.encode_ctb(forged, "m"))
    # a node kind byte other than 0 (leaf) or 1 (gate)
    d = ctb.descriptor[gate]
    gate_bytes = struct.pack(">IIHBH", d.node_id, d.parent_id, d.index, 1, d.threshold)
    other_kind = struct.pack(">IIHBH", d.node_id, d.parent_id, d.index, 2, d.threshold)
    with pytest.raises(DecodeError, match="unknown node kind 2"):
        wire.decode_ctb(_replaced(wire.encode_ctb(ctb, "m"), gate_bytes, other_kind))


def test_ctb_rejects_a_descriptor_the_tree_rule_refuses(suite):
    # block 2 of this policy holds leaf 2 and gate 3; decode applies
    # `policy.tree_fault` to the block's level, so a sibling index 0 (the
    # gate's own secret q(0)) or a node id 0 is refused before any receiver
    pk, _, ctx = suite
    tree = parse_policy("(a AND (b OR c))")
    ctb = list(scheme.encrypt_message(b"m" * 30, tree, pk, ctx, random.Random(96)))[1]
    leaf, gate = ctb.descriptor
    assert (leaf.node_id, leaf.is_leaf, gate.node_id) == (2, True, 3)
    (component,) = ctb.leaf_components.values()
    index_0 = dataclasses.replace(ctb, descriptor=(dataclasses.replace(leaf, index=0), gate))
    id_0 = dataclasses.replace(ctb, descriptor=(dataclasses.replace(leaf, node_id=0), gate),
                               leaf_components={0: component})
    for forged, message in ((index_0, "block 2: node 2 has sibling index 0 outside"),
                            (id_0, "block 2: node 0 has id 0 outside")):
        with pytest.raises(DecodeError, match=message):
            wire.decode_ctb(wire.encode_ctb(forged, "m"))


def test_ctb_rejects_a_level_that_breaks_the_partition_rule_on_its_own(suite):
    # block 3 of this policy holds leaves 4 and 5; a level holds a node and
    # only the root has parent id 0, which the level shows without the
    # level above it, so decode refuses such a block at any index
    pk, _, ctx = suite
    ctb = list(scheme.encrypt_message(b"m" * 30, parse_policy("(a AND (b OR c))"), pk, ctx,
                                      random.Random(98)))[2]
    assert [d.node_id for d in ctb.descriptor] == [4, 5]
    component = ctb.leaf_components[4]
    empty = dataclasses.replace(ctb, descriptor=(), leaf_components={})
    second_root = dataclasses.replace(
        ctb, descriptor=ctb.descriptor + (dataclasses.replace(ctb.descriptor[0], node_id=99,
                                                              parent_id=0, index=1),),
        leaf_components={**ctb.leaf_components, 99: component})
    for forged, message in ((empty, "block 3: a level holds no node"),
                            (second_root, "block 3: node 99 has no parent gate in the level "
                                          "above or earlier in its own")):
        with pytest.raises(DecodeError, match=message):
            wire.decode_ctb(wire.encode_ctb(forged, "m"))


def test_ctb_rejects_header_block_length_its_total_length_does_not_give(corpus):
    ctb = next(c for c in corpus if c.block_count > 1)
    header = struct.pack(">IQI", 12, ctb.total_len, ctb.block_len)
    data = wire.encode_ctb(ctb, "m")
    for block_len in (ctb.block_len - 1, ctb.block_len + 1):
        wrong = struct.pack(">IQI", 12, ctb.total_len, block_len)
        with pytest.raises(DecodeError, match="block length"):
            wire.decode_ctb(_replaced(data, header, wrong))


def _map_body(entries):
    """A block's gate-link or leaf-component section: a count, then each
    node id with its points."""
    return struct.pack(">I", len(entries)) + b"".join(
        struct.pack(">I", nid) + b"".join(p.serialize() for p in points)
        for nid, points in entries)


@pytest.mark.parametrize("field", ["gate_links", "leaf_components"])
def test_ctb_rejects_map_entries_out_of_order_or_repeated(suite, field):
    # the encoder sorts each map by node id, so no other order is canonical
    pk, _, ctx = suite
    tree = parse_policy("((a AND b) OR (c AND d))")
    ctbs = list(scheme.encrypt_message(b"m" * 30, tree, pk, ctx, random.Random(94)))
    ctb = next(c for c in ctbs if len(getattr(c, field)) >= 2)
    entries = [(nid, points if field == "leaf_components" else (points,))
               for nid, points in sorted(getattr(ctb, field).items())]
    data = wire.encode_ctb(ctb, "m")
    for bad in (entries[::-1], entries[:1] * len(entries)):
        with pytest.raises(DecodeError, match="strictly increasing"):
            wire.decode_ctb(_replaced(data, _map_body(entries), _map_body(bad)))


def _map_section(entries):
    """A gate-link or leaf-component section as encoded, length first."""
    body = _map_body(entries)
    return struct.pack(">I", len(body)) + body


def test_ctb_rejects_links_and_components_of_nodes_not_its_own(suite):
    # block 2 of this policy holds leaf 2 and gate 3: its gate links name
    # exactly gate 3 and its leaf components exactly leaf 2.  A stray entry
    # is refused, and so is a missing one
    pk, _, ctx = suite
    tree = parse_policy("(a AND (b OR (c AND d)))")
    ctb = list(scheme.encrypt_message(b"m" * 40, tree, pk, ctx, random.Random(95)))[1]
    assert [(d.node_id, d.is_leaf) for d in ctb.descriptor] == [(2, True), (3, False)]
    (link,), (component,) = ctb.gate_links.values(), ctb.leaf_components.values()
    link = (link,)
    data = wire.encode_ctb(ctb, "m")
    maps = _map_section([(3, link)]) + _map_section([(2, component)])
    assert data.endswith(maps)                  # the last two sections
    for gate_links, leaf_components, node in (
            ([(3, link), (99, link)], [(2, component)], 99),
            ([(2, link), (3, link)], [(2, component)], 2),
            ([(3, link)], [(2, component), (3, component)], 3),
            ([(3, link)], [(2, component), (99, component)], 99),
            ([], [(2, component)], 3),
            ([(3, link)], [], 2),
            ([], [], 2)):
        forged = data[:-len(maps)] + _map_section(gate_links) + _map_section(leaf_components)
        with pytest.raises(DecodeError, match=f"node {node}: a gate link or leaf component"):
            wire.decode_ctb(forged)


def test_ctb_rejects_two_children_of_one_gate_under_one_index(suite):
    # block 2 of (a AND b) holds both children of gate 1; under one index
    # they would take one share, and no set of two could interpolate
    pk, _, ctx = suite
    ctb = list(scheme.encrypt_message(b"m" * 30, parse_policy("(a AND b)"), pk, ctx,
                                      random.Random(97)))[1]
    leaf_a, leaf_b = ctb.descriptor
    forged = dataclasses.replace(ctb, descriptor=(leaf_a, dataclasses.replace(leaf_b, index=1)))
    with pytest.raises(DecodeError, match="block 2: gate 1 has two children of one index"):
        wire.decode_ctb(wire.encode_ctb(forged, "m"))


def test_key_file_rejects_attributes_out_of_order_or_repeated(suite):
    pk, mk, _ = suite
    sk = scheme.keygen(pk, mk, {"a", "b"}, random.Random(95))
    data = wire.encode_secret_key(sk)
    entry = {attr: struct.pack(">H", 1) + attr.encode()
             + b"".join(p.serialize() for p in sk.components[attr]) for attr in "ab"}
    for bad in (entry["b"] + entry["a"], entry["a"] + entry["a"]):
        with pytest.raises(DecodeError, match="strictly increasing"):
            wire.decode_secret_key(_replaced(data, entry["a"] + entry["b"], bad))


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


def test_key_file_rejects_a_zero_scalar(suite):
    # every scalar a key file carries is drawn nonzero; a zero one would
    # divide by zero or make a commitment the identity
    _, mk, ctx = suite
    cases = ((mk, wire.encode_master_key, wire.decode_master_key, ("beta", "q", "k")),
             (ctx, wire.encode_encryption_context, wire.decode_encryption_context, ("q", "k")))
    for record, encode, decode, fields in cases:
        for field in fields:
            zeroed = dataclasses.replace(record, **{field: algebra.Scalar(0)})
            with pytest.raises(DecodeError, match="scalar out of range"):
                decode(encode(zeroed))


def test_key_file_kind_mismatch(suite):
    pk, mk, ctx = suite
    data = wire.encode_public_key(pk)
    with pytest.raises(DecodeError):
        wire.decode_master_key(data)
    # so is a key file of another version or another suite
    version = struct.pack(">BH", data[4], wire.WIRE_VERSION)
    with pytest.raises(DecodeError, match="unsupported key file version 99"):
        wire.decode_public_key(_replaced(data, version, struct.pack(">BH", data[4], 99)))
    suite_id = SUITE_ID.encode("ascii")
    other = bytes([suite_id[0] ^ 0x01]) + suite_id[1:]
    with pytest.raises(DecodeError, match="unknown suite"):
        wire.decode_public_key(_replaced(data, suite_id, other))


def test_key_file_truncation(suite):
    pk, _, _ = suite
    data = wire.encode_public_key(pk)
    with pytest.raises(DecodeError):
        wire.decode_public_key(data[:-3])


# sha256 of the public, master, encryption-context and two secret-key files
# made from seed 2026; must never change
KEY_FILES_DIGEST = "9371b4651febcd4d3a94e4c458cdc3730fa2abc3197e0e7275fcfbfac5957ba3"


def test_key_files_golden_digest():
    rng = random.Random(2026)
    pk, mk = scheme.setup(rng)
    ctx = scheme.encryption_context(mk)
    files = [wire.encode_public_key(pk), wire.encode_master_key(mk),
             wire.encode_encryption_context(ctx)]
    for attrs in ({"a"}, {"a", "b", "room:42", "dept:ops"}):
        files.append(wire.encode_secret_key(scheme.keygen(pk, mk, attrs, rng)))
    assert hashlib.sha256(b"".join(files)).hexdigest() == KEY_FILES_DIGEST


# sha256 of the blocks of C9's recipe (seed 2024, bytes(range(256)) * 3,
# message id golden-0001) under two shapes C9's policy lacks: a gate and its
# leaf on one level, and the benchmark's 10-level, 100-leaf chain; must never
# change
SHAPE_DIGESTS = {
    "alpha": "abd28a868cc83304a9701e57fcdbd0b4a13662c461d5a2c0b6e628ac92ea4c51",
    synthetic_policy(10, 100)[0]:
        "dc9e385ebdce95fdf58d42a1e2ca56b132daba79160f0a10046f6323d6c34261",
}


@pytest.mark.parametrize("policy", list(SHAPE_DIGESTS), ids=["one-level", "bench"])
def test_policy_shape_golden_digest(policy):
    rng = random.Random(2024)
    pk, mk = scheme.setup(rng)
    ctx = scheme.encryption_context(mk)
    message = bytes(range(256)) * 3
    blobs = [wire.encode_ctb(ctb, "golden-0001")
             for ctb in scheme.encrypt_message(message, parse_policy(policy), pk, ctx, rng)]
    assert hashlib.sha256(b"".join(blobs)).hexdigest() == SHAPE_DIGESTS[policy]


def test_decoded_public_key_builds_its_tables_on_first_use(suite, monkeypatch):
    # the wide tables of g's and h's points and of egg_alpha's value are in
    # the comb cache, emptied here: each is built on its first power and
    # found there on the second
    expected = (suite[0].g ** 5, suite[0].h ** 6, suite[0].egg_alpha ** 7)
    built = []
    comb_rows = algebra._comb_rows
    # both groups' table builds start from their rows
    monkeypatch.setattr(algebra, "_comb_rows", lambda base, teeth, square: built.append(
        ("gt" if square is algebra._fq2_sqr else "g0", teeth)) or comb_rows(base, teeth, square))
    algebra._comb_table.cache_clear()
    pk = wire.decode_public_key(wire.encode_public_key(suite[0]))
    assert built == []
    for _ in range(2):
        assert (pk.g ** 5, pk.h ** 6, pk.egg_alpha ** 7) == expected
    assert built == [("g0", 8), ("g0", 8), ("gt", 8)]
    info = algebra._comb_table.cache_info()
    assert (info.hits, info.misses) == (3, 3)


def test_copies_of_one_public_key_share_one_target_group_table(suite, monkeypatch):
    # 20 decodes of one key file are 20 equal egg_alpha bases; the comb
    # cache keys a target-group table by the element's value, so the first
    # power builds the one table, about 64 KB, and the other 19 find it
    key_file = wire.encode_public_key(suite[0])
    expected = suite[0].egg_alpha ** 7
    built = []
    comb_rows = algebra._comb_rows
    monkeypatch.setattr(algebra, "_comb_rows", lambda base, teeth, square: built.append(
        square) or comb_rows(base, teeth, square))
    algebra._comb_table.cache_clear()
    tracemalloc.start()
    try:
        keys = [wire.decode_public_key(key_file) for _ in range(20)]
        assert [pk.egg_alpha ** 7 for pk in keys] == [expected] * 20
        grown, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built == [algebra._fq2_sqr]
    assert grown <= 64 * 1024 + 64 * 1024
