import dataclasses
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lcws import algebra as alg
from lcws import bench, scheme, wire
from lcws.algebra import G0Element, Scalar
from lcws.errors import DecodeError, PolicyNotSatisfiedError
from lcws.policy import AccessTree, NodeDescriptor, parse_policy
from lcws.scheme import (
    ChainUnlock,
    DecryptionState,
    GateUnlock,
    RootUnlock,
    assemble_message,
    decrypt_block,
    decrypt_interior,
    decrypt_leaf,
    make_challenge,
    unchain_blocks,
    verify_message,
)

from helpers import (UNNAMEABLE_ATTRIBUTES, affine_add, leaf_attributes, opened,
                     partition_message,
                     point_of_prime_order, random_curve_point, random_policy, recording,
                     reduced, satisfying_attrs, unsatisfying_attrs, verify_message_reference,
                     without_leaf_component)

G = alg.generator()
E_GG = alg.pair(G, G)


def _encrypt_all(message, text, pk, ctx, rng):
    tree = parse_policy(text)
    return tree, list(scheme.encrypt_message(message, tree, pk, ctx, rng))


def _decrypt(ctbs, sk):
    state = DecryptionState(sk)
    for ctb in ctbs:
        state.add_block(ctb)
    return assemble_message(state, sk)


# ---------------------------------------------------------------------------
# setup / keygen
# ---------------------------------------------------------------------------

def test_setup_fresh_randomness():
    rng = random.Random(1)
    pk1, _ = scheme.setup(rng)
    pk2, _ = scheme.setup(rng)
    assert pk1.egg_alpha != pk2.egg_alpha


def test_setup_internal_consistency(suite):
    pk, mk, _ = suite
    assert alg.pair(pk.g, mk.g_alpha) == pk.egg_alpha
    # pair(h, g^(1/beta)) collapses the blinding: equals pair(g, g)
    assert alg.pair(pk.h, pk.g ** mk.beta.inverse()) == E_GG


def test_keygen_component_identities(suite):
    pk, mk, _ = suite
    rng = random.Random(2)
    with recording() as drawn:
        sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    r = drawn.r
    # pair(D, h) = egg_alpha * pair(g,g)^r
    assert alg.pair(sk.d, pk.h) == pk.egg_alpha * E_GG ** r
    # per-attribute blinding cancels
    for attr, (d_j, d_j_prime) in sk.components.items():
        h_att = alg.hash_to_g0(alg.TAG_ATTRIBUTE, attr.encode())
        assert alg.pair(d_j, pk.g) / alg.pair(h_att, d_j_prime) == E_GG ** r


def test_keygen_fresh_blinding_across_keys(suite):
    pk, mk, _ = suite
    rng = random.Random(3)
    sk1 = scheme.keygen(pk, mk, {"a"}, rng)
    sk2 = scheme.keygen(pk, mk, {"a"}, rng)
    assert sk1.d != sk2.d


def test_keygen_builds_one_narrow_table_per_new_attribute_and_none_for_d(suite, monkeypatch):
    # attribute hashes recur across keys and blocks, so each new one builds
    # its shared 4 x 40 table; d's base (g_alpha g^r) is used once and takes
    # the ladder, and so do the commitment's and the challenge's bases
    pk, mk, ctx = suite
    pk.g ** 1                                # the generator's wide table exists
    built = []
    build_comb = alg._build_comb
    monkeypatch.setattr(alg, "_build_comb",
                        lambda point, teeth: built.append(teeth) or build_comb(point, teeth))
    rng = random.Random(4)
    attrs = {"keygen-tables:%d:%d" % (i, rng.getrandbits(64)) for i in range(5)}
    scheme.keygen(pk, mk, attrs, rng)
    assert built == [4] * 5
    built.clear()
    make_challenge(scheme.data_verification(b"committed message", ctx), mk, rng)
    assert built == []


def test_keygen_empty_attrs_rejected(suite):
    pk, mk, _ = suite
    with pytest.raises(ValueError):
        scheme.keygen(pk, mk, set())


# ---------------------------------------------------------------------------
# commitment
# ---------------------------------------------------------------------------

def test_data_verification_matches_definition(suite):
    _, mk, ctx = suite
    m = b"some message"
    c1 = scheme.data_verification(m, mk)
    c2 = scheme.data_verification(m, ctx)
    assert c1 == c2 == alg.hash_to_g0(alg.TAG_MESSAGE, m) ** mk.k
    assert scheme.data_verification(b"other", mk) != c1


# ---------------------------------------------------------------------------
# partition / chaining
# ---------------------------------------------------------------------------

def test_partition_single_block():
    assert partition_message(b"hello", 1) == [b"hello"]


def test_partition_hand_xor():
    assert partition_message(bytes.fromhex("aabb"), 2) == [bytes.fromhex("aa"),
                                                           bytes.fromhex("11")]


def test_partition_rejects_bad_input(suite):
    # an empty message cannot be sealed, and no block holds zero segments
    pk, _, ctx = suite
    with pytest.raises(ValueError, match="empty message"):
        list(scheme.encrypt_message(b"", parse_policy("(a AND b)"), pk, ctx))
    with pytest.raises(ValueError, match="block count must be at least 1"):
        scheme.CiphertextBlock(index=1, block_count=0, total_len=1, descriptor=(),
                               masked_payload=b"", encap=G, gate_links={},
                               leaf_components={}, commitment=G)


@settings(max_examples=80, deadline=None)
@given(data=st.binary(min_size=1, max_size=200), n=st.integers(min_value=1, max_value=16))
def test_partition_unchain_round_trip(data, n):
    assert unchain_blocks(partition_message(data, n), len(data)) == data


# ---------------------------------------------------------------------------
# block encryption shapes
# ---------------------------------------------------------------------------

def test_encrypt_depth_one_policy_shape(suite):
    pk, mk, ctx = suite
    rng = random.Random(4)
    tree, ctbs = _encrypt_all(b"tiny", "(a)", pk, ctx, rng)
    assert len(ctbs) == 1
    ctb = ctbs[0]
    assert len(ctb.leaf_components) == 1
    assert not ctb.gate_links
    assert ctb.commitment is not None
    assert ctb.is_last
    # opening it yields the sentinel (no next element)
    sk = scheme.keygen(pk, mk, {"a"}, rng)
    state = DecryptionState(sk)
    state.add_block(ctb)
    assert state.blocks[1].next_element is None
    assert _rebuild(state, sk) == b"tiny"


def _rebuild(state, sk):
    return assemble_message(state, sk)


def test_encrypt_and_gate_block_shapes(suite):
    pk, _, ctx = suite
    rng = random.Random(5)
    _, ctbs = _encrypt_all(b"0123456789", "(a AND b)", pk, ctx, rng)
    first, second = ctbs
    assert first.commitment is not None and second.commitment is None
    assert not first.leaf_components and not first.gate_links
    assert len(second.leaf_components) == 2 and not second.gate_links
    assert first.block_len == 5 and first.total_len == 10
    # a commitment on a later block, or a gate link on block 1, is refused
    with pytest.raises(ValueError, match="commitment must be present exactly on block 1"):
        dataclasses.replace(second, commitment=first.commitment)
    with pytest.raises(ValueError, match="block 1 carries no gate links"):
        dataclasses.replace(first, gate_links={first.descriptor[0].node_id: G})


def test_a_block_index_outside_its_block_count_is_refused(suite):
    pk, _, ctx = suite
    _, ctbs = _encrypt_all(b"0123456789", "(a AND (b OR c))", pk, ctx, random.Random(39))
    for index in (0, 4):
        with pytest.raises(ValueError, match=f"block index {index} outside 1..3"):
            dataclasses.replace(ctbs[1], index=index)


def test_encrypt_unmask_with_fixture_exponents(suite):
    pk, mk, ctx = suite
    rng = random.Random(6)
    msg = bytes(range(60))
    _, ctbs = _encrypt_all(msg, "(a AND (b OR c))", pk, ctx, rng)
    payloads = partition_message(msg, 3)
    # g^(alpha/beta) rebuilt from the master key unlocks every mask directly
    g_alpha_over_beta = mk.g_alpha ** mk.beta.inverse()
    for ctb, payload in zip(ctbs, payloads):
        key = alg.pair(ctb.encap, g_alpha_over_beta)
        plain = alg.xor_bytes(ctb.masked_payload, alg.kdf_mask(key, len(ctb.masked_payload)))
        assert plain[: ctb.block_len] == payload
        element = G0Element.deserialize(plain[ctb.block_len:])
        assert element.is_identity() == ctb.is_last


def test_owner_keeps_no_copy_of_the_message(suite):
    # the state holds the message itself and each block slices its own two
    # segments, so encryption allocates well under one message's size
    pk, _, ctx = suite
    rng = random.Random(7)
    tree = parse_policy(bench.synthetic_policy(10, 100)[0])
    for _ in scheme.encrypt_message(b"warm the comb and hash tables", tree, pk, ctx, rng):
        pass
    size = 1 << 20
    message = rng.randbytes(size)
    tracemalloc.start()
    try:
        for _ in scheme.encrypt_message(message, tree, pk, ctx, rng):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * size


def test_owner_raises_g_once_per_distinct_exponent_in_a_block(suite, monkeypatch):
    # the bench policy is a chain of OR gates: every leaf under one gate
    # carries one share, so a message needs 9 leaf exponents, 8 gate links
    # and 9 next unlocks, 26 powers of g where one per use would be 117
    pk, _, ctx = suite
    tree = parse_policy(bench.synthetic_policy(10, 100)[0])
    powers = []
    real_pow = G0Element.__pow__

    def counting_pow(self, k):
        if self is pk.g:
            powers.append(k)
        return real_pow(self, k)

    monkeypatch.setattr(G0Element, "__pow__", counting_pow)
    ctbs = list(scheme.encrypt_message(b"m" * 100, tree, pk, ctx, random.Random(40)))
    assert len(ctbs) == 10
    assert len(powers) == 26


def test_a_finished_owner_state_refuses_another_block(suite):
    pk, _, ctx = suite
    rng = random.Random(41)
    state = scheme.begin_encryption(b"0123456789", parse_policy("(a AND b)"), ctx, rng)
    for _ in range(2):
        scheme.encrypt_block(state, pk, rng)
    with pytest.raises(ValueError, match="all 2 blocks of this message are already sealed"):
        scheme.encrypt_block(state, pk, rng)


# ---------------------------------------------------------------------------
# leaf / interior / block decryption
# ---------------------------------------------------------------------------

def test_decrypt_leaf_fixture_value(suite):
    pk, mk, ctx = suite
    rng = random.Random(8)
    with recording() as key_drawn:
        sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    with recording() as enc_drawn:
        tree, ctbs = _encrypt_all(b"payload!", "(a AND b)", pk, ctx, rng)
    shares = enc_drawn.node_shares(tree)
    leaf_ids = sorted(ctbs[1].leaf_components)
    for nid in leaf_ids:
        value = decrypt_leaf(ctbs[1], sk, nid)
        assert reduced(value) == E_GG ** (key_drawn.r * shares[nid])


def test_decrypt_leaf_absent_attribute(suite):
    pk, mk, ctx = suite
    rng = random.Random(9)
    sk = scheme.keygen(pk, mk, {"zzz"}, rng)
    _, ctbs = _encrypt_all(b"payload!", "(a AND b)", pk, ctx, rng)
    nid = sorted(ctbs[1].leaf_components)[0]
    assert decrypt_leaf(ctbs[1], sk, nid) is None


def test_decrypt_leaf_wrong_node_rejected(suite):
    pk, mk, ctx = suite
    rng = random.Random(10)
    sk = scheme.keygen(pk, mk, {"a"}, rng)
    _, ctbs = _encrypt_all(b"payload!", "(a AND b)", pk, ctx, rng)
    with pytest.raises(ValueError):
        decrypt_leaf(ctbs[1], sk, 99)


def test_decrypt_leaf_independent_of_attribute_blinding(suite):
    pk, mk, ctx = suite
    rng = random.Random(11)
    with recording() as drawn:
        sk = scheme.keygen(pk, mk, {"a"}, rng)
    # second key forged with the same r but fresh per-attribute blinding
    r = drawn.r
    r_j = alg.random_nonzero_scalar(rng)
    h_att = alg.hash_to_g0(alg.TAG_ATTRIBUTE, b"a")
    forged = scheme.SecretKey(
        d=sk.d,
        d_hat=sk.d_hat,
        components={"a": (pk.g ** r * h_att ** r_j, pk.g ** r_j)},
    )
    _, ctbs = _encrypt_all(b"payload!", "(a AND b)", pk, ctx, rng)
    nid = sorted(ctbs[1].leaf_components)[0]
    assert reduced(decrypt_leaf(ctbs[1], sk, nid)) == reduced(decrypt_leaf(ctbs[1], forged, nid))


def test_decrypt_interior_singleton():
    value = E_GG ** 77
    assert decrypt_interior({1: value}, 1) == value


def test_decrypt_interior_fixture_polynomial():
    # q(x) = 5 + 2x with blinding r = 3: children carry r*q(1), r*q(2)
    r = 3
    children = {1: E_GG ** (r * 7), 2: E_GG ** (r * 9)}
    assert decrypt_interior(children, 2) == E_GG ** 15


def test_decrypt_interior_insufficient():
    assert decrypt_interior({1: E_GG}, 2) is None
    assert decrypt_interior({}, 1) is None


def test_decrypt_interior_any_subset_agrees():
    # degree-1 polynomial, three children: every pair interpolates equally
    r, a0, a1 = 5, 11, 13
    q = lambda x: a0 + a1 * x
    children = {i: E_GG ** (r * q(i)) for i in (1, 2, 3)}
    expected = E_GG ** (r * a0)
    assert decrypt_interior(children, 2) == expected
    assert decrypt_interior({k: children[k] for k in (2, 3)}, 2) == expected


def test_chain_unlock_exponent_identity(suite):
    pk, mk, _ = suite
    rng = random.Random(12)
    s = alg.random_nonzero_scalar(rng)
    r = alg.random_nonzero_scalar(rng)
    element = pk.g ** (s / mk.q)            # chain element for level secret s
    d_hat = pk.g ** (r * mk.q)
    assert alg.pair(element, d_hat) == E_GG ** (r * s)


def test_gate_link_fixture_scalars(suite):
    pk, mk, _ = suite
    rng = random.Random(13)
    r = alg.random_nonzero_scalar(rng)
    s_i, share = Scalar(9), Scalar(4)
    link = pk.g ** ((s_i - share) / mk.q)   # encodes delta = 5
    d_hat = pk.g ** (r * mk.q)
    gate_value = E_GG ** (r * share)
    assert gate_value * alg.pair(link, d_hat) == E_GG ** (r * s_i)


def test_decrypt_block_root_path_recovers_first_segment(suite):
    pk, mk, ctx = suite
    rng = random.Random(14)
    msg = bytes(range(90))
    sk = scheme.keygen(pk, mk, {"a", "b", "c"}, rng)
    tree, ctbs = _encrypt_all(msg, "(a AND (b OR c))", pk, ctx, rng)
    state = DecryptionState(sk)
    for ctb in ctbs:
        state.add_block(ctb)
    root_id = tree.root.node_id
    payload, nxt = decrypt_block(ctbs[0], sk, RootUnlock(state.node_values[root_id]))
    assert payload == partition_message(msg, 3)[0]
    assert nxt is not None


# ---------------------------------------------------------------------------
# assembly and protocol-level properties
# ---------------------------------------------------------------------------

def test_round_trip_satisfying_key(suite):
    pk, mk, ctx = suite
    rng = random.Random(15)
    msg = random.Random(0).randbytes(3000)
    sk = scheme.keygen(pk, mk, {"a", "c"}, rng)
    _, ctbs = _encrypt_all(msg, "(a AND (b OR c))", pk, ctx, rng)
    assert _decrypt(ctbs, sk) == msg


def test_round_trip_out_of_order_arrival(suite):
    pk, mk, ctx = suite
    rng = random.Random(16)
    msg = random.Random(1).randbytes(512)
    sk = scheme.keygen(pk, mk, {"a", "b", "c", "d"}, rng)
    _, ctbs = _encrypt_all(msg, "((a OR b) AND (c OR d))", pk, ctx, rng)
    assert _decrypt(list(reversed(ctbs)), sk) == msg


_BENCH_TEXT, _BENCH_SPREAD = bench.synthetic_policy(10, 100)


@pytest.mark.parametrize("text, good, bad", [
    ("(alpha AND (beta OR (2 of (gamma, delta, epsilon))))", {"alpha", "gamma", "epsilon"},
     {"alpha", "delta"}),
    (_BENCH_TEXT, {_BENCH_SPREAD[-1]}, {"bench:9999"}),
    ("(a AND b)", {"a", "b"}, {"b"}),
], ids=["c9", "bench", "and"])
def test_one_level_partition_decrypts(suite, text, good, bad):
    # the whole tree sealed as one block, as traditional CP-ABE seals it: a
    # gate finds its children in its own block, under higher node ids; the
    # bench key holds one leaf of the deepest gate, nine gates below the root
    pk, mk, ctx = suite
    rng = random.Random(34)
    tree = parse_policy(text)
    flat = AccessTree([sorted((d for level in tree.levels for d in level),
                              key=lambda d: d.node_id)])
    msg = rng.randbytes(300)
    ctbs = [wire.decode_ctb(wire.encode_ctb(ctb, "m"))[0]
            for ctb in scheme.encrypt_message(msg, flat, pk, ctx, rng)]
    assert len(ctbs) == 1 and len(ctbs[0].descriptor) == len(tree)
    assert _decrypt(ctbs, scheme.keygen(pk, mk, good, rng)) == msg
    with pytest.raises(PolicyNotSatisfiedError):
        _decrypt(ctbs, scheme.keygen(pk, mk, bad, rng))


@pytest.mark.parametrize("cut", [1, 3, 5])
@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
def test_two_block_partition_decrypts(suite, cut, reverse):
    # C9's tree cut into two blocks in node-id order: block 2 holds a gate
    # and its children (after nodes 1 and 3), or leaves only (after node 5)
    pk, mk, ctx = suite
    rng = random.Random(35)
    tree = parse_policy("(alpha AND (beta OR (2 of (gamma, delta, epsilon))))")
    nodes = sorted((d for level in tree.levels for d in level), key=lambda d: d.node_id)
    msg = rng.randbytes(300)
    ctbs = [wire.decode_ctb(wire.encode_ctb(ctb, "m"))[0] for ctb in
            scheme.encrypt_message(msg, AccessTree([nodes[:cut], nodes[cut:]]), pk, ctx, rng)]
    ctbs = ctbs[::-1] if reverse else ctbs
    assert len(ctbs) == 2
    assert _decrypt(ctbs, scheme.keygen(pk, mk, {"alpha", "gamma", "epsilon"}, rng)) == msg
    with pytest.raises(PolicyNotSatisfiedError):
        _decrypt(ctbs, scheme.keygen(pk, mk, {"alpha", "gamma"}, rng))


def _sealed(msg, levels, pk, ctx, rng):
    """`msg` sealed under the tree of `levels`, each block through the wire."""
    return [wire.decode_ctb(wire.encode_ctb(ctb, "m"))[0]
            for ctb in scheme.encrypt_message(msg, AccessTree(levels), pk, ctx, rng)]


def test_partition_walks_stored_order_not_node_ids(suite):
    # (a AND b) sealed flat with its gate listed first under the highest id:
    # node ids are names, and a level is walked in the order it is stored
    pk, mk, ctx = suite
    rng = random.Random(36)
    msg = rng.randbytes(200)
    ctbs = _sealed(msg, [[NodeDescriptor(9, 0, 1, None, 2), NodeDescriptor(2, 9, 1, "a", None),
                          NodeDescriptor(3, 9, 2, "b", None)]], pk, ctx, rng)
    assert _decrypt(ctbs, scheme.keygen(pk, mk, {"a", "b"}, rng)) == msg
    with pytest.raises(PolicyNotSatisfiedError):
        _decrypt(ctbs, scheme.keygen(pk, mk, {"b"}, rng))


def test_owner_and_receiver_agree_on_the_partition_rule(suite):
    # random trees with each node in its parent's block or the next, each
    # block in node-id order: every such tree opens with a satisfying key in
    # either arrival order and stays closed to an unsatisfying one; moving
    # a leaf two blocks below its parent gets the tree refused
    pk, mk, ctx = suite
    rng = random.Random(37)
    moved = 0
    for _ in range(10):
        tree = parse_policy(random_policy(rng, max_depth=4, max_leaves=6))
        nodes = sorted((d for level in tree.levels for d in level), key=lambda d: d.node_id)
        block = {0: -1}                     # 0, the root's parent id, sits above block 0
        for d in nodes:
            block[d.node_id] = block[d.parent_id] + (d.parent_id == 0 or rng.random() < 0.5)
        depth = max(block.values()) + 1
        levels = [[d for d in nodes if block[d.node_id] == k] for k in range(depth)]
        msg = rng.randbytes(rng.randint(1, 500))
        ctbs = _sealed(msg, levels, pk, ctx, rng)
        sk = scheme.keygen(pk, mk, satisfying_attrs(tree, rng), rng)
        assert _decrypt(ctbs, sk) == msg and _decrypt(ctbs[::-1], sk) == msg
        with pytest.raises(PolicyNotSatisfiedError):
            _decrypt(ctbs, scheme.keygen(pk, mk, unsatisfying_attrs(tree, rng), rng))
        leaves = [d for d in nodes if d.is_leaf and len(levels[block[d.node_id]]) > 1
                  and block[d.parent_id] + 2 < depth]
        if leaves:
            leaf = rng.choice(leaves)
            block[leaf.node_id] = block[leaf.parent_id] + 2
            with pytest.raises(ValueError, match=f"node {leaf.node_id} has no parent gate"):
                AccessTree([[d for d in nodes if block[d.node_id] == k] for k in range(depth)])
            moved += 1
    assert moved >= 3


def test_unauthorized_key_denied(suite):
    pk, mk, ctx = suite
    rng = random.Random(17)
    sk = scheme.keygen(pk, mk, {"b"}, rng)
    _, ctbs = _encrypt_all(b"secret data", "(a AND b)", pk, ctx, rng)
    state = DecryptionState(sk)
    for ctb in ctbs:
        state.add_block(ctb)
    with pytest.raises(PolicyNotSatisfiedError):
        assemble_message(state, sk)


def test_partial_decryption_gate_path(suite):
    # key satisfies the level-2 subtree only: block 2 opens through the
    # gate link, the chain then opens block 3, block 1 stays sealed
    pk, mk, ctx = suite
    rng = random.Random(18)
    msg = random.Random(2).randbytes(600)
    sk = scheme.keygen(pk, mk, {"b", "c"}, rng)
    _, ctbs = _encrypt_all(msg, "(a AND (b AND c))", pk, ctx, rng)
    state = DecryptionState(sk)
    for ctb in ctbs:
        state.add_block(ctb)
    assert opened(state) == [2, 3]
    assert 1 in state.blocks
    with pytest.raises(PolicyNotSatisfiedError):
        assemble_message(state, sk)


def test_chain_completeness_without_leaf_components(suite):
    # root satisfied purely from block 2's components; every deeper block,
    # its leaf components and gate links all the identity, still opens
    # through the unlock chain seeded by block 1.  A leaf read would refuse
    # the identity, and a gate link read would give a wrong mask key
    pk, mk, ctx = suite
    rng = random.Random(19)
    msg = random.Random(3).randbytes(900)
    sk = scheme.keygen(pk, mk, {"a"}, rng)
    _, ctbs = _encrypt_all(msg, "(a OR (b AND (c AND d)))", pk, ctx, rng)
    assert len(ctbs) == 4
    o = G0Element.identity()

    def blank(ctb):
        return dataclasses.replace(ctb, gate_links=dict.fromkeys(ctb.gate_links, o),
                                   leaf_components=dict.fromkeys(ctb.leaf_components, (o, o)))

    blanked = [ctbs[0], dataclasses.replace(ctbs[1], gate_links=blank(ctbs[1]).gate_links),
               *map(blank, ctbs[2:])]
    assert _decrypt(blanked, sk) == msg


def _counting_decrypt(monkeypatch, ctbs, sk):
    """Decrypt in arrival order, counting Miller-loop terms (one per
    pairing), final exponentiations (each one hard part), leaf evaluations
    and unlock kinds."""
    counts = {"terms": 0, "final_exp": 0, "leaf": 0, RootUnlock: 0, GateUnlock: 0,
              ChainUnlock: 0}
    real_product, real_final = alg._miller_product, alg._final_exponentiation
    real_decrypt_block, real_decrypt_leaf = scheme.decrypt_block, scheme.decrypt_leaf

    def miller_product(terms):
        counts["terms"] += len(terms)
        return real_product(terms)

    def final_exponentiation(f, *over):
        counts["final_exp"] += 1
        return real_final(f, *over)

    def decrypt_leaf(ctb, key, node_id):
        counts["leaf"] += 1
        return real_decrypt_leaf(ctb, key, node_id)

    def decrypt_block(ctb, key, unlock):
        counts[type(unlock)] += 1
        return real_decrypt_block(ctb, key, unlock)

    monkeypatch.setattr(alg, "_miller_product", miller_product)
    monkeypatch.setattr(alg, "_final_exponentiation", final_exponentiation)
    monkeypatch.setattr(scheme, "decrypt_leaf", decrypt_leaf)
    monkeypatch.setattr(scheme, "decrypt_block", decrypt_block)
    return _decrypt(ctbs, sk), counts


@pytest.fixture(scope="module")
def bench_policy_blocks(suite):
    pk, mk, ctx = suite
    rng = random.Random(26)
    text, spread = bench.synthetic_policy(10, 100)
    msg = rng.randbytes(1000)
    tree, ctbs = _encrypt_all(msg, text, pk, ctx, rng)
    keys = {"spread": scheme.keygen(pk, mk, spread, rng),
            "full": scheme.keygen(pk, mk, leaf_attributes(tree), rng)}
    return msg, ctbs, keys


@pytest.mark.parametrize("key", ["spread", "full"])
@pytest.mark.parametrize("order", ["in-order", "reversed"])
def test_bench_policy_costs_21_pairings_and_one_leaf(bench_policy_blocks, monkeypatch,
                                                     key, order):
    # one leaf (2 pairings) opens the first block to open; every other block
    # costs 2 pairings (chain: unlock element and mask key; gate: link and
    # mask key, its value read from the gate below) and block 1 by the root
    # costs 1, so 21 on 10 blocks.  Each opening takes one final
    # exponentiation, so 10: the leaf's value stays unreduced until the
    # opening it serves divides it out before the hard part.  Reversed,
    # blocks 8 to 1 each open after their successor, so each checks its
    # chain element against that opening: 2 pairings and one final
    # exponentiation more apiece
    msg, ctbs, keys = bench_policy_blocks
    arrival = ctbs if order == "in-order" else ctbs[::-1]
    out, counts = _counting_decrypt(monkeypatch, arrival, keys[key])
    assert out == msg
    unlocks = ({RootUnlock: 1, GateUnlock: 0, ChainUnlock: 9} if order == "in-order"
               else {RootUnlock: 1, GateUnlock: 8, ChainUnlock: 1})
    checks = 0 if order == "in-order" else 8
    assert counts == {"terms": 21 + 2 * checks, "final_exp": 10 + checks, "leaf": 1, **unlocks}


def test_a_block_waits_for_the_block_before_once_block_1_is_open(bench_policy_blocks,
                                                                 monkeypatch):
    # block 1 opens as block 2 arrives; blocks 4 to 10 then come before
    # block 3, and wait for its chain element instead of pairing for gates
    msg, ctbs, keys = bench_policy_blocks
    arrival = [*ctbs[:2], *ctbs[3:], ctbs[2]]
    state = DecryptionState(keys["full"])
    for ctb in arrival[:-1]:
        state.add_block(ctb)
    assert opened(state) == [1, 2] and 3 not in state.blocks
    in_order = _counting_decrypt(monkeypatch, ctbs, keys["full"])
    monkeypatch.undo()
    assert _counting_decrypt(monkeypatch, arrival, keys["full"]) == in_order


def _counting_plans(monkeypatch):
    """A list that grows by one on each `DecryptionState._plan` build."""
    builds, real_plan = [], DecryptionState._plan
    monkeypatch.setattr(DecryptionState, "_plan",
                        lambda state: builds.append(state) or real_plan(state))
    return builds


@pytest.fixture(scope="module")
def gate_chain_blocks(suite):
    """200 blocks of a hand-built chain of 1-of gates, one per level, with
    leaf `a` at the bottom, and a key for {b}, which opens none of them."""
    pk, mk, ctx = suite
    rng = random.Random(27)
    n = 200
    tree = AccessTree([[NodeDescriptor(k, k - 1, 1, None, 1)] for k in range(1, n)]
                      + [[NodeDescriptor(n, n - 1, 1, "a", None)]])
    ctbs = list(scheme.encrypt_message(rng.randbytes(n), tree, pk, ctx, rng))
    return ctbs, scheme.keygen(pk, mk, {"b"}, rng)


@pytest.mark.parametrize("order", ["in-order", "reversed"])
def test_an_arrival_builds_one_plan_on_a_chain_the_key_cannot_open(gate_chain_blocks,
                                                                   monkeypatch, order):
    # every block stays closed, so every arrival plans once; a plan for each
    # closed block would make 20 100 builds here, cubic work in all
    ctbs, sk = gate_chain_blocks
    builds = _counting_plans(monkeypatch)
    state = DecryptionState(sk)
    for ctb in ctbs if order == "in-order" else ctbs[::-1]:
        state.add_block(ctb)
    assert len(builds) == len(ctbs) == 200
    with pytest.raises(PolicyNotSatisfiedError):
        assemble_message(state, sk)


@pytest.mark.parametrize("order", ["in-order", "reversed"])
def test_plan_is_rebuilt_only_after_a_root_or_gate_unlock(bench_policy_blocks, monkeypatch,
                                                          order):
    # a pass plans once, and once more after each unlock that adds node values
    msg, ctbs, keys = bench_policy_blocks
    arrival = ctbs if order == "in-order" else ctbs[::-1]
    builds = _counting_plans(monkeypatch)
    out, counts = _counting_decrypt(monkeypatch, arrival, keys["spread"])
    assert out == msg
    assert len(builds) <= len(arrival) + counts[RootUnlock] + counts[GateUnlock]


def test_secret_key_d_and_d_hat_keep_their_lines(bench_policy_blocks):
    # a decoded key's d, d_hat and attribute components are fixed bases that
    # stay unvalidated until their first pairing; then the bounded
    # `_kept_lines` keeps their Miller-loop lines, packed as 160 lines of
    # two 64-byte coefficients: d's, d_hat's and the paired leaf's two
    # components', and no other
    msg, ctbs, keys = bench_policy_blocks
    wire.decode_secret_key.cache_clear()     # a freshly decoded key
    sk = wire.decode_secret_key(wire.encode_secret_key(keys["spread"]))
    assert sk == keys["spread"]
    points = [sk.d, sk.d_hat, *(c for pair in sk.components.values() for c in pair)]
    assert all(e._teeth == alg._WIDE_TEETH and e._point is alg._UNCHECKED for e in points)
    alg._kept_lines.cache_clear()
    assert _decrypt(ctbs, sk) == msg
    assert alg._kept_lines.cache_info().currsize == 4
    assert len(alg._kept_lines(sk.d._p)) == len(alg._kept_lines(sk.d_hat._p)) == 160 * 2 * 64
    assert alg._kept_lines.cache_info().misses == 4


def test_bench_policy_validates_26_points(bench_policy_blocks, monkeypatch):
    # the key file and the 10 blocks hold 248 points, counting the 9 chain
    # elements the payloads carry; the spread key, in order, reads d and
    # d_hat, one leaf's two key and two block components, the 10
    # encapsulations and the 9 chain elements, and decode checks block 1's
    # commitment: 26 square roots.  Only the commitment takes the x-only
    # subgroup test: d, d_hat and the leaf's two key components are Miller
    # points, whose walks show membership when their tables are recorded,
    # and the other 21, the leaf's block components among them, are only
    # evaluated, which needs no more than the curve
    msg, ctbs, keys = bench_policy_blocks
    key_file = wire.encode_secret_key(keys["spread"])
    blobs = [wire.encode_ctb(ctb, "m") for ctb in ctbs]
    held = (2 + 2 * len(keys["spread"].components) + len(ctbs) - 1
            + sum(1 + (ctb.commitment is not None) + len(ctb.gate_links)
                  + 2 * len(ctb.leaf_components) for ctb in ctbs))
    assert held == 248
    roots, checked = [], []
    real_root, real_check = alg._decompress, alg._in_prime_subgroup
    monkeypatch.setattr(alg, "_decompress", lambda data: roots.append(data) or real_root(data))
    monkeypatch.setattr(alg, "_in_prime_subgroup", lambda x: checked.append(x) or real_check(x))
    wire.decode_secret_key.cache_clear()     # a freshly decoded key
    sk = wire.decode_secret_key(key_file)
    state = DecryptionState(sk)
    for blob in blobs:
        state.add_block(wire.decode_ctb(blob)[0])
    assert assemble_message(state, sk) == msg
    assert len(roots) == 26
    assert checked == [int.from_bytes(ctbs[0].commitment.serialize()[1:], "big")]


def test_a_key_file_decoded_again_keeps_its_square_roots_and_tables(bench_policy_blocks,
                                                                    monkeypatch):
    # the second decode of the same bytes returns the key decoded first, so
    # d, d_hat and the paired leaf's d_j and d_j' keep their square roots
    # (4 fewer) and d and d_hat their kept tables; d_j and d_j' find theirs
    # in `_kept_lines`, so no table is recorded
    msg, ctbs, keys = bench_policy_blocks
    key_file = wire.encode_secret_key(keys["spread"])
    blobs = [wire.encode_ctb(ctb, "m") for ctb in ctbs]
    roots, kept = [], []
    real_root, real_lines = alg._decompress, alg._lines
    monkeypatch.setattr(alg, "_decompress", lambda data: roots.append(data) or real_root(data))
    monkeypatch.setattr(alg, "_lines", lambda p: kept.append(p) or real_lines(p))

    def decrypt():
        roots.clear()
        kept.clear()
        sk = wire.decode_secret_key(key_file)
        state = DecryptionState(sk)
        for blob in blobs:
            state.add_block(wire.decode_ctb(blob)[0])
        assert assemble_message(state, sk) == msg
        return sk, len(roots), len(kept)

    wire.decode_secret_key.cache_clear()
    alg._kept_lines.cache_clear()
    first, *first_costs = decrypt()
    second, *second_costs = decrypt()
    assert second is first
    assert first_costs == [26, 4] and second_costs == [22, 0]


# "(a OR (b AND c))": block 1 holds the root, block 2 leaf a and the gate
# (b AND c) with its link, block 3 leaves b and c
_THREE_LEVELS = "(a OR (b AND c))"


def _plus_small_order(element, order, rng):
    """`element` plus a point of prime order `order`, decoded from its
    encoding as a receiver gets it."""
    point = affine_add(element._p, point_of_prime_order(order, rng))
    return G0Element.deserialize(G0Element(point).serialize())


@pytest.mark.parametrize("order", [3, 17])
def test_points_a_pairing_only_evaluates_need_only_lie_on_the_curve(suite, monkeypatch, order):
    # an encapsulation, a gate link, a chain element and a block's leaf
    # components are each only evaluated by the product that reads them, so
    # each plus a point of small order opens its block to the same
    # plaintext; a key's d_j and d_j' are its leaf pairing's Miller points,
    # whose table's walk refuses the same addition
    pk, mk, ctx = suite
    rng = random.Random(40 + order)
    msg = rng.randbytes(300)
    _, ctbs = _encrypt_all(msg, _THREE_LEVELS, pk, ctx, rng)
    key_a = scheme.keygen(pk, mk, {"a"}, rng)
    key_bc = scheme.keygen(pk, mk, {"b", "c"}, rng)

    def plus(element):
        return _plus_small_order(element, order, rng)

    # key {a} opens block 2 by the chain, whose product evaluates its encapsulation
    encap = dataclasses.replace(ctbs[1], encap=plus(ctbs[1].encap))
    out, counts = _counting_decrypt(monkeypatch, [ctbs[0], encap, ctbs[2]], key_a)
    assert out == msg and counts[ChainUnlock] == 2
    monkeypatch.undo()
    # key {b, c} with block 3 first opens block 2 by its gate and the gate's link
    links = dataclasses.replace(ctbs[1], gate_links={
        nid: plus(link) for nid, link in ctbs[1].gate_links.items()})
    out, counts = _counting_decrypt(monkeypatch, [ctbs[2], links, ctbs[0]], key_bc)
    assert out == msg and counts[GateUnlock] == 1
    monkeypatch.undo()
    # the chain element block 1's payload carries for block 2
    state = DecryptionState(key_a)
    state.add_block(ctbs[0])
    state.add_block(ctbs[1])
    element = state.blocks[1].next_element
    assert (decrypt_block(ctbs[1], key_a, ChainUnlock(plus(element)))
            == decrypt_block(ctbs[1], key_a, ChainUnlock(element)))
    # either of the block's components for the leaf key {a} reads
    leaf = next(d.node_id for d in ctbs[1].descriptor if d.attribute == "a")
    c_hat, c_hat_prime = ctbs[1].leaf_components[leaf]
    for components in ((plus(c_hat), c_hat_prime), (c_hat, plus(c_hat_prime))):
        forged = dataclasses.replace(
            ctbs[1], leaf_components={**ctbs[1].leaf_components, leaf: components})
        assert _decrypt([ctbs[0], forged, ctbs[2]], key_a) == msg
    # either one as the identity, which a pairing would skip: refused before
    # any node value is kept, and the block is dropped, so a genuine copy
    # sent again is taken in
    one = G0Element.identity()
    for components in ((one, c_hat_prime), (c_hat, one)):
        forged = dataclasses.replace(
            ctbs[1], leaf_components={**ctbs[1].leaf_components, leaf: components})
        state = DecryptionState(key_a)
        state.add_block(ctbs[0])
        with pytest.raises(DecodeError, match="is the identity"):
            state.add_block(forged)
        assert not state.node_values and 2 not in state.blocks
        for ctb in ctbs[1:]:
            state.add_block(ctb)
        assert assemble_message(state, key_a) == msg


@pytest.mark.parametrize("name", UNNAMEABLE_ATTRIBUTES)
def test_keygen_refuses_an_attribute_no_policy_can_name(suite, name):
    pk, mk, _ = suite
    with pytest.raises(ValueError, match="no name a policy can use"):
        scheme.keygen(pk, mk, {"b", name}, random.Random(44))


def _reference_opening(ctbs, sk):
    """Each block's payload as a full final exponentiation per pairing
    opens it, apart from `DecryptionState`: every leaf value is a reduced
    `pair_ratio`, every gate value a Lagrange product in the target group,
    and a block opens by its root value, by the chain element of the block
    before, or by a gate of its level, whichever it has first."""
    nodes = {d.node_id: d for ctb in ctbs for d in ctb.descriptor}
    components = {nid: c for ctb in ctbs for nid, c in ctb.leaf_components.items()}
    kids = {}
    for d in nodes.values():
        kids.setdefault(d.parent_id, []).append(d)

    def value(d):
        if d.is_leaf:
            if d.attribute not in sk.components:
                return None
            (c_hat, c_hat_prime), (d_j, d_j_prime) = (components[d.node_id],
                                                      sk.components[d.attribute])
            return alg.pair_ratio(c_hat, d_j, c_hat_prime, d_j_prime)
        known = {k.index: v for k in kids.get(d.node_id, []) if (v := value(k)) is not None}
        return decrypt_interior(known, d.threshold)

    payloads, chain = {}, {}
    for ctb in sorted(ctbs, key=lambda c: c.index):
        i = ctb.index
        if i in chain:
            mask = alg.pair_ratio(ctb.encap, sk.d, chain[i], sk.d_hat)
        elif i == 1:
            root = value(ctb.descriptor[0])
            mask = root and alg.pair(ctb.encap, sk.d) / root
        else:
            gates = [(nid, v) for nid in ctb.gate_links if (v := value(nodes[nid])) is not None]
            mask = gates and (alg.pair_ratio(ctb.encap, sk.d, ctb.gate_links[gates[0][0]],
                                             sk.d_hat) / gates[0][1])
        if not mask:
            continue
        plain = alg.xor_bytes(ctb.masked_payload, alg.kdf_mask(mask, len(ctb.masked_payload)))
        payloads[i] = plain[:ctb.block_len]
        if not ctb.is_last:
            chain[i + 1] = G0Element.deserialize(plain[ctb.block_len:])
    return payloads


def test_every_opened_payload_equals_a_reference_opening(suite):
    # leaf and gate values stay unreduced until the opening that uses them
    # takes its one hard part; on random policies, keys and arrival orders
    # every block the receiver opens holds the reference's payload
    pk, mk, ctx = suite
    rng = random.Random(45)
    for _ in range(6):
        tree, ctbs = _encrypt_all(rng.randbytes(rng.randint(50, 300)),
                                  random_policy(rng, max_depth=4, max_leaves=10), pk, ctx, rng)
        for attrs in (satisfying_attrs(tree, rng), unsatisfying_attrs(tree, rng)):
            sk = scheme.keygen(pk, mk, attrs, rng)
            reference = _reference_opening(ctbs, sk)
            arrival = rng.sample(ctbs, len(ctbs))
            state = DecryptionState(sk)
            for ctb in arrival:
                state.add_block(ctb)
            assert {i: state.blocks[i].payload for i in opened(state)} == reference


def test_a_wide_key_keeps_at_most_the_bound_of_component_tables(suite):
    # every kept Miller table is in `_kept_lines`, which keeps the most
    # recent `_KEPT_TABLES`, so the memory held stays within _KEPT_TABLES x
    # 20 KiB and the keys however many tables are recorded: a key of 200
    # attributes pairs each of 64 leaves (128 component tables, d and d_hat),
    # and 64 held one-attribute keys each open both blocks of one message
    # (d, d_hat and two components each: 256 tables)
    pk, mk, ctx = suite
    rng = random.Random(46)
    msg = rng.randbytes(100)
    wide = [f"wide:{i:03d}" for i in range(200)]
    _, wide_ctbs = _encrypt_all(msg, "(" + " AND ".join(wide[:64]) + ")", pk, ctx, rng)
    many = [f"many:{i:02d}" for i in range(64)]
    _, many_ctbs = _encrypt_all(msg, "(" + " OR ".join(many) + ")", pk, ctx, rng)
    assert len(many_ctbs) == 2
    for ctbs, keys, recorded in ((wide_ctbs, [scheme.keygen(pk, mk, wide, rng)], 130),
                                 (many_ctbs, [scheme.keygen(pk, mk, {a}, rng) for a in many],
                                  256)):
        alg._kept_lines.cache_clear()
        tracemalloc.start()
        try:
            for sk in keys:
                assert _decrypt(ctbs, sk) == msg
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        info = alg._kept_lines.cache_info()
        assert info.misses == recorded and info.currsize == alg._KEPT_TABLES
        assert grown <= alg._KEPT_TABLES * 20 * 1024 + 128 * 1024, len(keys)


@pytest.mark.parametrize("fault", ["off the curve", "outside the subgroup"])
def test_a_corrupt_key_component_is_blamed_on_the_key_not_a_block(suite, fault):
    # policy (a AND b) and a key for {a, b} whose a component is corrupt: the
    # key's components are read before the block's, so the error names the
    # attribute, and both genuine blocks stay held, neither dropped nor
    # suspect, since no re-sent block could repair the key
    pk, mk, ctx = suite
    rng = random.Random(42)
    msg = rng.randbytes(200)
    _, ctbs = _encrypt_all(msg, "(a AND b)", pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    d_j, d_j_prime = sk.components["a"]
    if fault == "off the curve":
        q = alg.FIELD_PRIME
        x = next(x for x in range(1, 100) if pow(x * x * x + x, (q - 1) // 2, q) != 1)
        bad = G0Element.deserialize(b"\x02" + x.to_bytes(64, "big"))
        match = "x is not on the curve"
    else:
        bad = _plus_small_order(d_j, 3, rng)
        match = "point not in the prime-order subgroup"
    key = wire.decode_secret_key(wire.encode_secret_key(
        scheme.SecretKey(sk.d, sk.d_hat, {"a": (bad, d_j_prime), "b": sk.components["b"]})))
    state = DecryptionState(key)
    state.add_block(ctbs[0])
    with pytest.raises(DecodeError, match=f"key component of attribute 'a': {match}"):
        state.add_block(ctbs[1])
    assert sorted(state.blocks) == [1, 2] and opened(state) == [] and not state._suspects
    for ctb in ctbs:
        state.add_block(ctb)                 # repeats, ignored
    assert sorted(state.blocks) == [1, 2] and not state._suspects
    # the key satisfies the policy, so assembling blames the key, not the policy
    with pytest.raises(DecodeError, match=f"key component of attribute 'a': {match}"):
        assemble_message(state, key)


@pytest.mark.parametrize("text", ["(a AND b)", "(a AND (b OR c))", "(2 of (a, b, c))"])
def test_colluding_keys_do_not_combine(suite, text):
    # d and d_hat of a key for {a} with the component of b from a key for
    # {b}: each key's blinding r differs, so the leaf values do not meet
    pk, mk, ctx = suite
    rng = random.Random(40)
    for _ in range(4):
        msg = rng.randbytes(300)
        _, ctbs = _encrypt_all(msg, text, pk, ctx, rng)
        v = make_challenge(ctbs[0].commitment, mk, rng)
        key_a = scheme.keygen(pk, mk, {"a"}, rng)
        key_b = scheme.keygen(pk, mk, {"b"}, rng)
        colluding = scheme.SecretKey(key_a.d, key_a.d_hat, {"a": key_a.components["a"],
                                                            "b": key_b.components["b"]})
        assert _decrypt(ctbs, scheme.keygen(pk, mk, {"a", "b"}, rng)) == msg
        for order in (ctbs, ctbs[::-1]):
            try:
                out = _decrypt(order, colluding)
            except DecodeError:
                continue
            assert out != msg and not verify_message(out, v)


def test_an_evaluated_point_at_x_0_is_a_decode_error(suite):
    # (0, 0) is on the curve, but a line can vanish there: it is refused as a
    # point, before any product of pairings evaluates it
    pk, mk, ctx = suite
    rng = random.Random(39)
    msg = rng.randbytes(300)
    _, ctbs = _encrypt_all(msg, _THREE_LEVELS, pk, ctx, rng)
    key_a = scheme.keygen(pk, mk, {"a"}, rng)
    zero = G0Element.deserialize(G0Element((0, 0)).serialize())
    with pytest.raises(DecodeError, match="x = 0"):
        _decrypt([ctbs[0], dataclasses.replace(ctbs[1], encap=zero), ctbs[2]], key_a)
    with pytest.raises(DecodeError, match="x = 0"):
        decrypt_block(ctbs[1], key_a, ChainUnlock(zero))
    d_j, d_j_prime = key_a.components["a"]
    for components in ((zero, d_j_prime), (d_j, zero)):
        with pytest.raises(DecodeError, match="x = 0"):
            _decrypt(ctbs, scheme.SecretKey(key_a.d, key_a.d_hat, {"a": components}))


def test_unlock_slot_must_match_the_block_position(suite):
    # the last block's unlock slot holds the identity sentinel and every
    # earlier block's an unlock element, so a block opened as if it stood
    # elsewhere in the chain is refused, as is one opened by a wrong mask key
    pk, mk, ctx = suite
    rng = random.Random(38)
    msg = rng.randbytes(300)
    _, ctbs = _encrypt_all(msg, "(a AND (b AND c))", pk, ctx, rng)
    assert len(ctbs) == 3
    sk = scheme.keygen(pk, mk, {"a", "b", "c"}, rng)
    state = DecryptionState(sk)
    for ctb in ctbs:
        state.add_block(ctb)
    assert assemble_message(state, sk) == msg
    chain = {i + 1: b.next_element for i, b in state.blocks.items()}
    assert decrypt_block(ctbs[1], sk, ChainUnlock(chain[2]))[1] == chain[3]
    assert decrypt_block(ctbs[2], sk, ChainUnlock(chain[3]))[1] is None
    with pytest.raises(DecodeError, match="block 3: unlock slot holds no identity sentinel"):
        decrypt_block(dataclasses.replace(ctbs[1], index=3), sk, ChainUnlock(chain[2]))
    with pytest.raises(DecodeError, match="block 2: unlock slot holds no unlock element"):
        decrypt_block(dataclasses.replace(ctbs[2], index=2), sk, ChainUnlock(chain[3]))
    # block 2 opened by block 3's chain element, a wrong mask key: a random
    # slot passes as a point with probability about 0.5%, not for this seed
    with pytest.raises(DecodeError, match="block 2: unlock slot"):
        decrypt_block(ctbs[1], sk, ChainUnlock(chain[3]))
    # a root value opens only block 1, and a chain element must come wrapped
    with pytest.raises(ValueError, match="root unlock only applies to block 1"):
        decrypt_block(ctbs[1], sk, RootUnlock(E_GG))
    with pytest.raises(TypeError, match="unsupported unlock"):
        decrypt_block(ctbs[1], sk, chain[2])


def _decoded(point):
    """A curve point, or None for the identity, as a receiver decodes it."""
    return G0Element.deserialize(G0Element(point).serialize())


def test_block_that_supplied_a_failing_chain_element_is_replaced_by_its_resent_copy(suite):
    # block 2's encapsulation is a uniform curve point: its wrong mask key
    # leaves, for this seed, a slot that still decodes as a point, so block 2
    # opens and hands block 3 a wrong chain element.  Block 3 fails and is
    # dropped, and block 2, which supplied the element, becomes suspect: its
    # genuine copy sent again replaces it instead of being ignored as a repeat
    pk, mk, ctx = suite
    rng = random.Random(81)
    msg = rng.randbytes(400)
    _, ctbs = _encrypt_all(msg, "(a AND (b AND (c AND d)))", pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a", "b", "c", "d"}, rng)
    forged = dataclasses.replace(ctbs[1], encap=_decoded(random_curve_point(random.Random(29))))
    state = DecryptionState(sk)
    for ctb in (ctbs[0], forged, ctbs[2]):
        state.add_block(ctb)
    with pytest.raises(DecodeError, match="block 3: unlock slot"):
        state.add_block(ctbs[3])                    # block 1 opens by the root, then 2 and 3
    assert opened(state) == [1, 2] and sorted(state.blocks) == [1, 2, 4]
    assert state.blocks[2].payload != partition_message(msg, 4)[1]
    for ctb in ctbs[1:]:
        state.add_block(ctb)
    assert opened(state) == [1, 2, 3, 4]
    assert assemble_message(state, sk) == msg


def _in_subgroup(rng):
    """Another point of the prime-order subgroup, decoded as a receiver gets it."""
    return G0Element.deserialize((G ** Scalar(rng.randrange(1, alg.ORDER))).serialize())


def test_a_leaf_component_swapped_for_a_subgroup_point_is_repaired_by_a_resend(suite):
    # block 2's first leaf component is another subgroup point: its pairing
    # passes, but leaf a's value is wrong, so block 1 opens by a wrong root
    # value and fails.  The failure forgets every node value and makes block
    # 2 suspect, so its genuine copy replaces it and block 1 then opens
    pk, mk, ctx = suite
    rng = random.Random(40)
    msg = rng.randbytes(300)
    _, ctbs = _encrypt_all(msg, "(a AND b)", pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    nid = min(ctbs[1].leaf_components)
    d_j, d_j_prime = ctbs[1].leaf_components[nid]
    forged = dataclasses.replace(ctbs[1], leaf_components={
        **ctbs[1].leaf_components, nid: (_in_subgroup(rng), d_j_prime)})
    state = DecryptionState(sk)
    state.add_block(forged)
    with pytest.raises(DecodeError, match="block 1: unlock slot"):
        state.add_block(ctbs[0])
    assert sorted(state.blocks) == [2] and not state.node_values
    state.add_block(ctbs[1])
    assert state.blocks[2] is ctbs[1]
    state.add_block(ctbs[0])
    assert opened(state) == [1, 2]
    assert assemble_message(state, sk) == msg


def test_a_leaf_that_fails_its_check_forgets_the_values_paired_before_it(suite):
    # block 2's leaf a is another subgroup point, paired first into a wrong
    # value, and its leaf b is the identity, refused.  The refusal forgets
    # leaf a's value as well, so the genuine block 2 re-pairs it and opens
    # block 1 instead of failing it by a wrong root value
    pk, mk, ctx = suite
    rng = random.Random(41)
    msg = rng.randbytes(300)
    _, ctbs = _encrypt_all(msg, "(a AND b)", pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    leaf = {d.attribute: d.node_id for d in ctbs[1].descriptor}
    components = dict(ctbs[1].leaf_components)
    components[leaf["a"]] = (_in_subgroup(rng), components[leaf["a"]][1])
    components[leaf["b"]] = (G0Element.identity(), components[leaf["b"]][1])
    forged = dataclasses.replace(ctbs[1], leaf_components=components)
    state = DecryptionState(sk)
    state.add_block(ctbs[0])
    with pytest.raises(DecodeError, match=f"block 2: leaf {leaf['b']} component is the identity"):
        state.add_block(forged)
    assert sorted(state.blocks) == [1] and not state.node_values
    state.add_block(ctbs[1])
    assert opened(state) == [1, 2]
    assert assemble_message(state, sk) == msg


def test_a_failing_leaf_of_an_open_block_names_that_block(suite):
    # block 3 opens by its gate (c OR d) and does not read its leaf b, whose
    # first component is the identity; block 2 then pairs b from the open
    # block 3, which fails, is dropped and is named in the error
    pk, mk, ctx = suite
    rng = random.Random(42)
    msg = rng.randbytes(400)
    _, ctbs = _encrypt_all(msg, "(a OR (b AND (c OR d)))", pk, ctx, rng)
    assert len(ctbs) == 4
    sk = scheme.keygen(pk, mk, {"b", "c"}, rng)
    leaf_b = next(d.node_id for d in ctbs[2].descriptor if d.attribute == "b")
    forged = dataclasses.replace(ctbs[2], leaf_components={
        **ctbs[2].leaf_components,
        leaf_b: (G0Element.identity(), ctbs[2].leaf_components[leaf_b][1])})
    state = DecryptionState(sk)
    state.add_block(ctbs[3])
    state.add_block(forged)
    assert opened(state) == [3, 4]
    with pytest.raises(DecodeError, match=f"^block 3: leaf {leaf_b} component is the identity$"):
        state.add_block(ctbs[1])
    assert sorted(state.blocks) == [2, 4] and not state.node_values
    for ctb in ctbs:
        state.add_block(ctb)
    assert assemble_message(state, sk) == msg


def test_a_refused_arrival_forgets_every_node_value(suite):
    # blocks 1 and 2 are open by leaf a; a conflicting copy of block 2 is
    # refused, forgets the root's and leaf a's values and makes both held
    # blocks suspect, so the genuine blocks sent again are taken in
    pk, mk, ctx = suite
    rng = random.Random(43)
    msg = rng.randbytes(300)
    _, ctbs = _encrypt_all(msg, "(a OR (b AND c))", pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a"}, rng)
    state = DecryptionState(sk)
    state.add_block(ctbs[0])
    state.add_block(ctbs[1])
    assert opened(state) == [1, 2] and len(state.node_values) == 2
    with pytest.raises(DecodeError, match="conflicting blocks for index 2"):
        state.add_block(dataclasses.replace(ctbs[2], index=2))
    assert sorted(state.blocks) == [1, 2] and not state.node_values
    for ctb in ctbs:
        state.add_block(ctb)
    assert assemble_message(state, sk) == msg


def test_gate_opens_block_2_before_block_1(suite, monkeypatch):
    # block 3 brings leaf a, so the gate (a OR x) opens block 2 and the chain
    # opens block 3; the root still needs b and c from block 4, whose chain
    # element is already known
    pk, mk, ctx = suite
    rng = random.Random(27)
    msg = rng.randbytes(800)
    sk = scheme.keygen(pk, mk, {"a", "b", "c"}, rng)
    _, ctbs = _encrypt_all(msg, "((a OR x) AND ((b AND c) OR y))", pk, ctx, rng)
    assert len(ctbs) == 4
    state = DecryptionState(sk)
    for ctb in ctbs[:3]:
        state.add_block(ctb)
    assert opened(state) == [2, 3] and state.blocks[3].next_element is not None
    state.add_block(ctbs[3])
    assert assemble_message(state, sk) == msg
    _, counts = _counting_decrypt(monkeypatch, ctbs, sk)
    assert counts[RootUnlock] == counts[GateUnlock] == 1


def test_repeated_block_ignored_conflicting_block_rejected(suite):
    pk, mk, ctx = suite
    rng = random.Random(28)
    msg = rng.randbytes(300)
    sk = scheme.keygen(pk, mk, {"a"}, rng)
    _, ctbs = _encrypt_all(msg, "(a OR (b AND c))", pk, ctx, rng)
    state = DecryptionState(sk)
    for ctb in ctbs:
        state.add_block(ctb)
        state.add_block(ctb)
    assert assemble_message(state, sk) == msg
    # block 2 relabelled as block 3, before and after the genuine block 3
    relabelled = dataclasses.replace(ctbs[1], index=3)
    for order in ([ctbs[0], relabelled, ctbs[2]], [ctbs[0], ctbs[2], relabelled]):
        state = DecryptionState(sk)
        with pytest.raises(DecodeError):
            for ctb in order:
                state.add_block(ctb)


_HEADER_POLICY = "(a AND (b OR c))"           # 3 blocks: 1000 and 1002 bytes both cut into 334


def test_refused_first_block_leaves_no_header(suite):
    # a block 1 with another total length but the same block length, and a
    # root that names a parent, is refused; it sets no header, so the
    # genuine blocks that follow are taken in
    pk, mk, ctx = suite
    rng = random.Random(34)
    msg = rng.randbytes(1000)
    _, ctbs = _encrypt_all(msg, _HEADER_POLICY, pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    root = dataclasses.replace(ctbs[0].descriptor[0], parent_id=5)
    forged = dataclasses.replace(ctbs[0], total_len=1002, descriptor=(root,))
    assert forged.block_len == ctbs[0].block_len
    state = DecryptionState(sk)
    with pytest.raises(DecodeError, match="block 1: "):
        state.add_block(forged)
    assert state.total_len is None and state.commitment is None and not state.blocks
    for ctb in ctbs:
        state.add_block(ctb)
    assert assemble_message(state, sk) == msg


@pytest.mark.parametrize("held", [1, 3])
def test_block_whose_header_differs_is_refused_while_another_is_held(suite, held):
    pk, mk, ctx = suite
    rng = random.Random(35)
    msg = rng.randbytes(1000)
    _, ctbs = _encrypt_all(msg, _HEADER_POLICY, pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    state = DecryptionState(sk)
    state.add_block(ctbs[held - 1])
    # the same block length under another total length or block count
    for header in ({"total_len": 1001}, {"total_len": 1336, "block_count": 4}):
        forged = dataclasses.replace(ctbs[1], **header)
        assert forged.block_len == ctbs[1].block_len
        with pytest.raises(DecodeError, match="inconsistent headers"):
            state.add_block(forged)
        assert (state.block_count, state.total_len) == (3, 1000) and 2 not in state.blocks
    for ctb in ctbs:
        state.add_block(ctb)
    assert assemble_message(state, sk) == msg


@pytest.mark.parametrize("forgery", ["header", "root id"])
def test_a_forged_block_1_held_first_is_replaced_by_a_resent_copy(suite, forgery):
    # a forged block 1 is held first, with another total length but the
    # same block length, or with another root id; each genuine block that
    # disagrees with it is refused and makes it suspect, so the genuine
    # block 1 sent again replaces it
    pk, mk, ctx = suite
    rng = random.Random(37)
    msg = rng.randbytes(1000)
    _, ctbs = _encrypt_all(msg, _HEADER_POLICY, pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    if forgery == "header":
        forged = dataclasses.replace(ctbs[0], total_len=1002)
    else:
        root = dataclasses.replace(ctbs[0].descriptor[0], node_id=99)
        forged = dataclasses.replace(ctbs[0], descriptor=(root,))
    assert forged.block_len == ctbs[0].block_len and forged != ctbs[0]
    state = DecryptionState(sk)
    state.add_block(forged)
    refused = []
    for ctb in ctbs * 2:
        try:
            state.add_block(ctb)
        except DecodeError:
            refused.append(ctb.index)
    assert refused == ([2, 3] if forgery == "header" else [1, 2])
    assert assemble_message(state, sk) == msg


def test_node_ids_shared_across_blocks_rejected(suite):
    pk, mk, ctx = suite
    rng = random.Random(29)
    sk = scheme.keygen(pk, mk, {"a"}, rng)
    _, ctbs = _encrypt_all(b"0123456789", "(a AND b)", pk, ctx, rng)
    clash, root_id = ctbs[1].descriptor[0], ctbs[0].descriptor[0].node_id
    components = dict(ctbs[1].leaf_components)
    components[root_id] = components.pop(clash.node_id)      # re-keyed with the leaf
    forged = dataclasses.replace(ctbs[1], descriptor=ctbs[1].descriptor[1:] + (
        dataclasses.replace(clash, node_id=root_id),), leaf_components=components)
    state = DecryptionState(sk)
    state.add_block(ctbs[0])
    with pytest.raises(DecodeError, match=f"node id {root_id} appears more than once"):
        state.add_block(forged)


@pytest.mark.parametrize("first", [1, 2], ids=["block-1-first", "block-2-first"])
def test_block_with_index_0_or_an_id_twice_is_refused(suite, first):
    # index 0 would be the gate's own secret q(0); a node id twice in one
    # block names two nodes at once.  Neither block is taken in, in either
    # order, and the genuine block 2 still opens the message
    pk, mk, ctx = suite
    rng = random.Random(36)
    msg = rng.randbytes(200)
    _, ctbs = _encrypt_all(msg, "(a AND b)", pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    leaf_a, leaf_b = ctbs[1].descriptor
    index_0 = dataclasses.replace(ctbs[1], descriptor=(
        dataclasses.replace(leaf_a, index=0), leaf_b))
    twice = dataclasses.replace(ctbs[1], descriptor=(
        leaf_a, dataclasses.replace(leaf_b, node_id=leaf_a.node_id)),
        leaf_components={leaf_a.node_id: ctbs[1].leaf_components[leaf_a.node_id]})
    for forged, message in ((index_0, f"node {leaf_a.node_id} has sibling index 0"),
                            (twice, f"node id {leaf_a.node_id} appears more than once")):
        state = DecryptionState(sk)
        if first == 1:
            state.add_block(ctbs[0])
        with pytest.raises(DecodeError, match=f"block 2: {message}"):
            state.add_block(forged)
        assert 2 not in state.blocks
        for ctb in ctbs:
            state.add_block(ctb)
        assert assemble_message(state, sk) == msg


def test_a_stored_block_missing_a_leaf_component_is_refused_and_the_genuine_one_opens(suite):
    # policy (a AND b), key {a, b}: block 2's stored bytes lose leaf a's
    # entry.  A receiver that took such a block in planned without leaf a,
    # found the policy unsatisfied, and ignored every genuine copy of block 2
    # as a repeat; decode refuses it, so the genuine blocks assemble
    pk, mk, ctx = suite
    rng = random.Random(38)
    msg = rng.randbytes(300)
    _, ctbs = _encrypt_all(msg, "(a AND b)", pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    stored = [wire.encode_ctb(ctb, "m") for ctb in ctbs]
    leaf_a = next(d.node_id for d in ctbs[1].descriptor if d.attribute == "a")
    state = DecryptionState(sk)
    state.add_block(wire.decode_ctb(stored[0])[0])
    with pytest.raises(DecodeError, match=f"node {leaf_a}: a gate link or leaf component"):
        wire.decode_ctb(without_leaf_component(stored[1], leaf_a))
    for data in stored:
        state.add_block(wire.decode_ctb(data)[0])
    assert assemble_message(state, sk) == msg


def _hang_gate_chain(ctbs, length):
    """Block 2 gains `length` gates, each the parent of the next, the first
    hung under the root."""
    root, block_2 = ctbs[0].descriptor[0], ctbs[1]
    first = max(d.node_id for ctb in ctbs for d in ctb.descriptor) + 1
    chain = tuple(NodeDescriptor(node_id=first + k, parent_id=first + k - 1 if k else root.node_id,
                                 index=1 if k else 99, attribute=None, threshold=1)
                  for k in range(length))
    (link,) = block_2.gate_links.values()          # each added gate gets a link too
    return [ctbs[0], dataclasses.replace(block_2, descriptor=block_2.descriptor + chain,
                                         gate_links={**block_2.gate_links,
                                                     **{d.node_id: link for d in chain}}),
            *ctbs[2:]]


def _gates_parent_each_other(ctbs):
    """The gate of block 2 names the gate of block 3 as its parent; that one
    already names it."""
    gate_2 = next(d for d in ctbs[1].descriptor if not d.is_leaf)
    gate_3 = next(d for d in ctbs[2].descriptor if d.parent_id == gate_2.node_id
                  and not d.is_leaf)
    descriptor = tuple(dataclasses.replace(d, parent_id=gate_3.node_id) if d == gate_2 else d
                       for d in ctbs[1].descriptor)
    return [ctbs[0], dataclasses.replace(ctbs[1], descriptor=descriptor), *ctbs[2:]]


def _root_parents_itself(ctbs):
    root = ctbs[0].descriptor[0]
    forged = dataclasses.replace(root, parent_id=root.node_id)
    return [dataclasses.replace(ctbs[0], descriptor=(forged,)), *ctbs[1:]]


@pytest.mark.parametrize("forge", [lambda ctbs: _hang_gate_chain(ctbs, 3000),
                                   _gates_parent_each_other, _root_parents_itself],
                         ids=["gate-chain-3000", "gates-parent-each-other", "root-parents-itself"])
@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
def test_hostile_parent_ids_end_in_typed_errors(suite, forge, reverse):
    # the evaluator counts a child only in the next block or under a higher
    # id in its own, so no parent id can make it loop or recurse; every key
    # either opens the message or ends in a typed error
    pk, mk, ctx = suite
    rng = random.Random(31)
    msg = rng.randbytes(400)
    _, ctbs = _encrypt_all(msg, "(a OR (b AND (c OR d)))", pk, ctx, rng)
    assert len(ctbs) == 4 and len(ctbs[0].descriptor) == 1
    forged = forge(ctbs)
    for attrs in ({"a"}, {"b", "c"}, {"b", "d"}, {"c", "d"}):
        sk = scheme.keygen(pk, mk, attrs, rng)
        state = DecryptionState(sk)
        try:
            for ctb in (forged[::-1] if reverse else forged):
                state.add_block(ctb)
            out = assemble_message(state, sk)
        except (DecodeError, PolicyNotSatisfiedError):
            continue
        assert out == msg


@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
def test_dangling_parent_id_rejected_once_both_blocks_held(suite, reverse):
    # a node of block 3 names a leaf of block 2, or no node at all, as its
    # parent; key {a} never reads block 3's nodes, yet the block is refused
    # as soon as block 2 is held too
    pk, mk, ctx = suite
    rng = random.Random(32)
    _, ctbs = _encrypt_all(rng.randbytes(400), "(a OR (b AND (c OR d)))", pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a"}, rng)
    leaf_2 = next(d for d in ctbs[1].descriptor if d.is_leaf)
    unknown = max(d.node_id for ctb in ctbs for d in ctb.descriptor) + 1
    child, *rest = ctbs[2].descriptor
    for parent_id in (leaf_2.node_id, unknown):
        forged = dataclasses.replace(ctbs[2], descriptor=(
            dataclasses.replace(child, parent_id=parent_id), *rest))
        arrival = [ctbs[0], ctbs[1], forged, ctbs[3]]
        arrival = arrival[::-1] if reverse else arrival
        state = DecryptionState(sk)
        for ctb in arrival[:2]:
            state.add_block(ctb)
        with pytest.raises(DecodeError, match="no parent gate"):
            state.add_block(arrival[2])


@pytest.mark.parametrize("index", [1, 2])
def test_empty_block_rejected(suite, index):
    # a block holding no node is no tree level; block 1 would have no root
    pk, mk, ctx = suite
    rng = random.Random(33)
    _, ctbs = _encrypt_all(rng.randbytes(100), "(a OR b)", pk, ctx, rng)
    ctbs[index - 1] = dataclasses.replace(ctbs[index - 1], descriptor=(), leaf_components={})
    state = DecryptionState(scheme.keygen(pk, mk, {"a"}, rng))
    with pytest.raises(DecodeError, match=f"block {index}: a level holds no node"):
        for ctb in ctbs:
            state.add_block(ctb)


@pytest.mark.parametrize("forgery", ["empty", "second-root"])
def test_a_forged_last_block_held_first_is_refused_and_the_genuine_blocks_assemble(
        suite, forgery):
    # policy (a AND (b OR c)), key {a, b}: a block 3 with no node, or one
    # holding a second root, is refused on arrival, before block 2 is held.
    # Kept, it made the receiver refuse a genuine block in its place, and
    # the genuine blocks sent once did not assemble
    pk, mk, ctx = suite
    rng = random.Random(42)
    msg = rng.randbytes(900)
    _, ctbs = _encrypt_all(msg, _HEADER_POLICY, pk, ctx, rng)
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    last = ctbs[-1]
    if forgery == "empty":
        forged = dataclasses.replace(last, descriptor=(), leaf_components={})
        message = "a level holds no node"
    else:
        forged = dataclasses.replace(
            last, descriptor=last.descriptor + (NodeDescriptor(99, 0, 1, "b", None),),
            leaf_components={**last.leaf_components, 99: last.leaf_components[4]})
        message = "node 99 has no parent gate in the level above or earlier in its own"
    state = DecryptionState(sk)
    refused = []
    for ctb in (forged, *ctbs):
        try:
            state.add_block(ctb)
        except DecodeError as exc:
            refused.append((ctb.index, str(exc)))
    assert refused == [(3, f"block 3: {message}")]
    assert assemble_message(state, sk) == msg


def test_blocks_spliced_from_another_message_are_refused_and_a_resend_repairs(suite):
    # policy (a OR (x AND (b OR y))), key {a, b}, two messages under it.  B's
    # blocks 4 and 3, relabelled as A's, open by the gate (b OR y) and the
    # chain; A's block 1 then opens by the root and A2 by A1's chain element.
    # A2's own chain element must give block 3 the blinded level value B3's
    # gate gave it, and does not: A2's opening is a DecodeError, where it
    # once assembled bytes that were neither A nor B.  Re-sending A's blocks,
    # twice, as a forged block still held can fail a genuine one, gives A
    pk, mk, ctx = suite
    rng = random.Random(39)
    messages = [rng.randbytes(800) for _ in range(2)]
    spliced = []
    for msg in messages:
        _, ctbs = _encrypt_all(msg, "(a OR (x AND (b OR y)))", pk, ctx, rng)
        spliced.append([wire.decode_ctb(wire.encode_ctb(ctb, "msg-A"))[0] for ctb in ctbs])
    a_blocks, b_blocks = spliced
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    state = DecryptionState(sk)
    for ctb in (b_blocks[3], b_blocks[2], a_blocks[1]):
        state.add_block(ctb)
    assert opened(state) == [3, 4]
    with pytest.raises(DecodeError, match="block 2: its chain element does not open block 3"):
        state.add_block(a_blocks[0])
    assert opened(state) == [1, 3, 4] and 2 not in state.blocks
    for ctb in a_blocks + a_blocks:
        try:
            state.add_block(ctb)
        except DecodeError:
            pass
    assert assemble_message(state, sk) == messages[0]


def test_a_forged_encapsulation_whose_wrong_key_passes_its_slot_is_refused(bench_policy_blocks):
    # reversed, blocks 10 to 2 of the bench policy open by their gates.  A
    # uniform curve point in place of block 5's encapsulation opens it with
    # a wrong mask key, whose slot still holds a point in about 1 case in
    # 200, here found by a seeded search.  Block 6 opened first, so the
    # wrong chain element meets the cross-check, and block 5's opening is a
    # DecodeError where it once gave wrong bytes.  Re-sending the genuine
    # blocks, twice, gives the message
    msg, ctbs, keys = bench_policy_blocks
    sk = keys["spread"]
    state = DecryptionState(sk)
    for ctb in ctbs[:3:-1]:                             # blocks 10 to 5
        state.add_block(ctb)
    link, value = state.blocks[5].opened_by
    unlock = GateUnlock(next(n for n, g in ctbs[4].gate_links.items() if g is link), value)
    rng = random.Random(47)
    for _ in range(2000):
        forged = dataclasses.replace(ctbs[4], encap=_decoded(random_curve_point(rng)))
        try:
            decrypt_block(forged, sk, unlock)
            break
        except DecodeError:
            pass
    else:
        pytest.fail("no forged encapsulation passed the slot check")
    state = DecryptionState(sk)
    for ctb in ctbs[:4:-1]:                             # blocks 10 to 6
        state.add_block(ctb)
    with pytest.raises(DecodeError, match="block 5: its chain element does not open block 6"):
        state.add_block(forged)
    for ctb in ctbs[::-1] + ctbs[::-1]:
        try:
            state.add_block(ctb)
        except DecodeError:
            pass
    assert assemble_message(state, sk) == msg


_FUZZ_POLICY = "((a OR x) AND ((b AND c) OR y))"
_FUZZ_KEYS = ({"a", "b", "c"}, {"x", "y"}, {"b", "c"})


@pytest.fixture(scope="module")
def fuzz_corpus(suite):
    pk, mk, ctx = suite
    rng = random.Random(30)
    _, ctbs = _encrypt_all(rng.randbytes(500), _FUZZ_POLICY, pk, ctx, rng)
    keys = [scheme.keygen(pk, mk, attrs, rng) for attrs in _FUZZ_KEYS]
    return ctbs, [wire.encode_ctb(ctb, "msg-0001") for ctb in ctbs], keys


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bit_flips_end_in_typed_errors(fuzz_corpus, data):
    ctbs, blobs, keys = fuzz_corpus
    target = data.draw(st.integers(0, len(blobs) - 1), label="block")
    bit = data.draw(st.integers(0, 200 * 8 - 1), label="bit")
    sk = data.draw(st.sampled_from(keys), label="key")
    reverse = data.draw(st.booleans(), label="reversed arrival")
    flipped = bytearray(blobs[target])
    flipped[bit // 8] ^= 1 << (bit % 8)
    try:
        mutated, _ = wire.decode_ctb(bytes(flipped))
        arrival = [mutated if i == target else ctb for i, ctb in enumerate(ctbs)]
        state = DecryptionState(sk)
        for ctb in (arrival[::-1] if reverse else arrival):
            state.add_block(ctb)
        assemble_message(state, sk)
    except (DecodeError, PolicyNotSatisfiedError):
        pass


@pytest.fixture(scope="module")
def resend_corpus(suite):
    pk, mk, ctx = suite
    rng = random.Random(36)
    msg = rng.randbytes(500)                        # 4 blocks of 125 bytes, none padded
    _, ctbs = _encrypt_all(msg, _FUZZ_POLICY, pk, ctx, rng)
    keys = [scheme.keygen(pk, mk, attrs, rng) for attrs in _FUZZ_KEYS]
    return msg, ctbs, keys, make_challenge(ctbs[0].commitment, mk, rng)


def _points(ctb):
    """(kind, genuine point, the block with that point replaced) per point."""
    out = [("encap", ctb.encap, lambda p: dataclasses.replace(ctb, encap=p))]
    if ctb.commitment is not None:
        out.append(("commitment", ctb.commitment,
                    lambda p: dataclasses.replace(ctb, commitment=p)))
    for nid, link in ctb.gate_links.items():
        out.append(("gate link", link, lambda p, nid=nid: dataclasses.replace(
            ctb, gate_links={**ctb.gate_links, nid: p})))
    for nid, pair in ctb.leaf_components.items():
        for k in (0, 1):
            out.append(("leaf", pair[k], lambda p, nid=nid, k=k, pair=pair: dataclasses.replace(
                ctb, leaf_components={**ctb.leaf_components,
                                      nid: (p, pair[1]) if k == 0 else (pair[0], p)})))
    return out


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_resending_every_genuine_block_repairs_one_corrupt_point(resend_corpus, data):
    # one point replaced, or one payload byte flipped; the blocks arrive in
    # order or reversed, then every genuine block is sent again, twice: a
    # forged point still held can fail a genuine block in the first round
    msg, ctbs, keys, v = resend_corpus
    key = data.draw(st.integers(0, len(keys) - 1), label="key")
    i = data.draw(st.integers(0, len(ctbs) - 1), label="block")
    how = data.draw(st.sampled_from(["uniform", 3, 17, "(0, 0)", "identity", "subgroup",
                                     "flip"]), label="replacement")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    if how == "flip":
        pos = rng.randrange(len(ctbs[i].masked_payload))
        kind = "payload" if pos < ctbs[i].block_len else "slot"
        masked = bytearray(ctbs[i].masked_payload)
        masked[pos] ^= 1 << rng.randrange(8)
        forged = dataclasses.replace(ctbs[i], masked_payload=bytes(masked))
    else:
        kind, genuine, replace = data.draw(st.sampled_from(_points(ctbs[i])), label="point")
        forged = replace(G0Element.identity() if how == "identity"
                         else _decoded((0, 0)) if how == "(0, 0)"
                         else _decoded(random_curve_point(rng)) if how == "uniform"
                         else _in_subgroup(rng) if how == "subgroup"
                         else _plus_small_order(genuine, how, rng))
    arrival = [forged if j == i else ctb for j, ctb in enumerate(ctbs)]
    if data.draw(st.booleans(), label="reversed"):
        arrival.reverse()
    state = DecryptionState(keys[key])
    for ctb in arrival + ctbs + ctbs:
        try:
            state.add_block(ctb)
        except DecodeError:
            pass
    if key == 2:                                    # {b, c} fails the policy
        with pytest.raises(PolicyNotSatisfiedError):
            assemble_message(state, keys[key])
        return
    out = assemble_message(state, keys[key])
    if kind == "payload":
        assert out != msg and not verify_message(out, v)
    else:
        # a wrong mask key whose slot still holds a point (about 1 case in
        # 200) gives a wrong chain element, which the next block's slot or,
        # if that block opened first, the cross-check of the two refuses
        assert out == msg


def test_assemble_requires_all_blocks(suite):
    pk, mk, ctx = suite
    rng = random.Random(20)
    sk = scheme.keygen(pk, mk, {"a", "b"}, rng)
    _, ctbs = _encrypt_all(b"0123456789", "(a AND b)", pk, ctx, rng)
    state = DecryptionState(sk)
    state.add_block(ctbs[0])
    with pytest.raises(ValueError):
        assemble_message(state, sk)


# ---------------------------------------------------------------------------
# verification protocol
# ---------------------------------------------------------------------------

def test_challenge_fixture_randomness(suite):
    _, mk, ctx = suite
    msg = b"attested content"
    commitment = scheme.data_verification(msg, mk)
    v = make_challenge(commitment, mk, random.Random(21))
    t = alg.random_nonzero_scalar(random.Random(21))
    assert v.v2 == G ** t
    assert v.v1 == alg.hash_to_g0(alg.TAG_MESSAGE, msg) ** t


def test_challenge_fresh_per_call(suite):
    _, mk, _ = suite
    commitment = scheme.data_verification(b"m", mk)
    rng = random.Random(22)
    assert make_challenge(commitment, mk, rng) != make_challenge(commitment, mk, rng)


def test_verify_honest_and_tampered(suite):
    _, mk, _ = suite
    msg = b"the exact message bytes"
    v = make_challenge(scheme.data_verification(msg, mk), mk, random.Random(23))
    assert verify_message(msg, v)
    assert not verify_message(msg + b"x", v)
    flipped = bytearray(msg)
    flipped[0] ^= 1
    assert not verify_message(bytes(flipped), v)


def test_verify_matches_the_cleared_hash_reference(suite):
    # genuine, one-bit-flipped and truncated messages under five challenge
    # tuples, every message under every other tuple, and tuples with v1, v2
    # or both the identity
    _, mk, _ = suite
    rng = random.Random(26)
    messages, tuples = [], []
    for _ in range(5):
        msg = rng.randbytes(rng.randrange(2, 200))
        v = make_challenge(scheme.data_verification(msg, mk), mk, rng)
        candidates = [msg]
        for _ in range(20):
            flipped = bytearray(msg)
            bit = rng.randrange(8 * len(msg))
            flipped[bit // 8] ^= 1 << bit % 8
            candidates.append(bytes(flipped))
        candidates += [msg[:rng.randrange(len(msg))] for _ in range(19)]
        verdicts = [verify_message(m, v) for m in candidates]
        assert verdicts == [verify_message_reference(m, v) for m in candidates]
        assert verdicts == [True] + [False] * 39
        messages.append(msg)
        tuples.append(v)
    for i, v in enumerate(tuples):
        for j, msg in enumerate(messages):
            assert verify_message(msg, v) == verify_message_reference(msg, v) == (i == j)
    identity = G0Element.identity()
    v = tuples[0]
    for forged, expected in ((scheme.VerificationTuple(v1=identity, v2=v.v2), False),
                             (scheme.VerificationTuple(v1=v.v1, v2=identity), False),
                             (scheme.VerificationTuple(v1=identity, v2=identity), True)):
        for msg in messages:
            assert verify_message(msg, forged) == verify_message_reference(msg, forged) == expected


def test_verify_wrong_challenge_exponent(suite):
    _, mk, _ = suite
    msg = b"message"
    v = make_challenge(scheme.data_verification(msg, mk), mk, random.Random(24))
    forged = scheme.VerificationTuple(v1=v.v1, v2=G ** 12345)
    assert not verify_message(msg, forged)


# ---------------------------------------------------------------------------
# randomized end-to-end
# ---------------------------------------------------------------------------

def test_random_policies_round_trip(suite):
    pk, mk, ctx = suite
    rng = random.Random(25)
    for _ in range(10):
        tree = parse_policy(random_policy(rng, max_depth=4, max_leaves=10))
        msg = rng.randbytes(rng.randint(1, 2000))
        attrs = satisfying_attrs(tree, rng)
        sk = scheme.keygen(pk, mk, attrs, rng)
        ctbs = list(scheme.encrypt_message(msg, tree, pk, ctx, rng))
        assert _decrypt(ctbs, sk) == msg
        bad = unsatisfying_attrs(tree, rng)
        sk_bad = scheme.keygen(pk, mk, bad, rng)
        state = DecryptionState(sk_bad)
        for ctb in ctbs:
            state.add_block(ctb)
        with pytest.raises(PolicyNotSatisfiedError):
            assemble_message(state, sk_bad)


# ---------------------------------------------------------------------------
# the benchmark's tracer
# ---------------------------------------------------------------------------

def test_benchmark_tracer_wraps_the_scheme_names(suite, monkeypatch):
    # perfbench/tracing.py patches scheme functions by name; a rename would
    # break `perfbench/run.py --trace 1` without failing any other test
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    pk, mk, ctx = suite
    rng = random.Random(33)
    sk = scheme.keygen(pk, mk, {"a"}, rng)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        _, ctbs = _encrypt_all(b"traced message", "(a OR (b AND c))", pk, ctx, rng)
        assert _decrypt(ctbs, sk) == b"traced message"
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["scheme.begin_encryption"] == 1
    assert calls["scheme.encrypt_block"] == calls["scheme.decrypt_block"] == len(ctbs) == 3
