"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print.  Criteria 6 and 7 share a single measured sweep.
"""

import functools
import hashlib
import itertools
import random

import pytest

from lcws import algebra as alg
from lcws import bench as bench_mod
from lcws import pipeline as pl
from lcws import scheme, wire
from lcws.errors import PolicyNotSatisfiedError
from lcws.policy import parse_policy, satisfies
from lcws.scheme import (
    ChainUnlock,
    DecryptionState,
    GateUnlock,
    RootUnlock,
    assemble_message,
    decrypt_block,
    decrypt_interior,
    decrypt_leaf,
)

from helpers import (leaf_attributes, opened, partition_message, random_policy, recording,
                     reduced, satisfying_attrs, unsatisfying_attrs)

G = alg.generator()
E_GG = alg.pair(G, G)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE C{number} FAIL: {title}")
                raise
            print(f"ACCEPTANCE C{number} PASS: {title}" + (f" ({detail})" if detail else ""))
        return wrapper
    return deco


def _decrypt(ctbs, sk):
    state = DecryptionState(sk)
    for ctb in ctbs:
        state.add_block(ctb)
    return assemble_message(state, sk)


# ---------------------------------------------------------------------------
# 1. crypto round trip, randomized
# ---------------------------------------------------------------------------

@criterion(1, "100/100 randomized encrypt-decrypt round trips with verification")
def test_c1_round_trip(suite):
    pk, mk, ctx = suite
    rng = random.Random(0xC1)
    for trial in range(100):
        tree = parse_policy(random_policy(rng, max_depth=6, max_leaves=40))
        message = rng.randbytes(rng.randint(1, 65536))
        sk = scheme.keygen(pk, mk, satisfying_attrs(tree, rng), rng)
        ctbs = list(scheme.encrypt_message(message, tree, pk, ctx, rng))
        assert _decrypt(ctbs, sk) == message, f"trial {trial}"
        v = scheme.make_challenge(ctbs[0].commitment, mk, rng)
        assert scheme.verify_message(message, v), f"trial {trial} verification"
    return "policies depth<=6, leaves<=40, messages 1B..64KiB"


# ---------------------------------------------------------------------------
# 2. access control
# ---------------------------------------------------------------------------

@criterion(2, "100/100 non-satisfying keys rejected")
def test_c2_access_control(suite):
    pk, mk, ctx = suite
    rng = random.Random(0xC2)
    for trial in range(100):
        tree = parse_policy(random_policy(rng, max_depth=5, max_leaves=24))
        message = rng.randbytes(rng.randint(1, 4096))
        sk = scheme.keygen(pk, mk, unsatisfying_attrs(tree, rng), rng)
        ctbs = list(scheme.encrypt_message(message, tree, pk, ctx, rng))
        state = DecryptionState(sk)
        for ctb in ctbs:
            state.add_block(ctb)
        with pytest.raises(PolicyNotSatisfiedError):
            assemble_message(state, sk)
    return None


# ---------------------------------------------------------------------------
# 3. partial decryption through a mid-tree gate
# ---------------------------------------------------------------------------

@criterion(3, "level-2 subtree key recovers block 2 but never the message")
def test_c3_partial_decryption(suite):
    pk, mk, ctx = suite
    rng = random.Random(0xC3)
    message = rng.randbytes(768)
    tree = parse_policy("(a AND (b AND c))")          # 3 levels
    assert tree.depth == 3
    sk = scheme.keygen(pk, mk, {"b", "c"}, rng)       # satisfies the inner gate only
    ctbs = list(scheme.encrypt_message(message, tree, pk, ctx, rng))
    state = DecryptionState(sk)
    for ctb in ctbs:
        state.add_block(ctb)
    assert opened(state) == [2, 3]                     # via the gate link path
    with pytest.raises(PolicyNotSatisfiedError):
        assemble_message(state, sk)
    # the recovered block is the XOR of two segments, not plaintext
    segments = partition_message(message, 3)
    assert state.blocks[2].payload == segments[1]
    return "block 2 open via gate link, block 1 sealed, assembly denied"


# ---------------------------------------------------------------------------
# 4. verification soundness under tampering
# ---------------------------------------------------------------------------

@criterion(4, "1000/1000 single-byte tamperings rejected, 10/10 honest accepted")
def test_c4_verification_soundness(suite):
    pk, mk, ctx = suite
    rng = random.Random(0xC4)
    rejected = 0
    for _ in range(10):
        message = rng.randbytes(rng.randint(64, 2048))
        v = scheme.make_challenge(scheme.data_verification(message, mk), mk, rng)
        assert scheme.verify_message(message, v)
        for _ in range(100):
            tampered = bytearray(message)
            pos = rng.randrange(len(tampered))
            tampered[pos] ^= rng.randint(1, 255)
            assert not scheme.verify_message(bytes(tampered), v)
            rejected += 1
    assert rejected == 1000
    return None


# ---------------------------------------------------------------------------
# 5. timing closed forms
# ---------------------------------------------------------------------------

@criterion(5, "pipeline recurrences equal closed forms exactly, gain positive")
def test_c5_timing_closed_forms():
    for n in range(1, 33):
        for a, b in [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0), (0.25, 0.75)]:
            enc = dec = [a] * n
            tx = [b] * n
            enc_sched = pl.schedule(pl.ENC, enc, tx)
            dec_sched = pl.schedule(pl.DEC, tx, dec)
            enc_total = enc_sched.total_pipelined
            # transmit-dominant and compute-dominant closed forms
            if b >= a:
                assert enc_total == enc[0] + sum(tx)
                assert enc_sched.delta_t == sum(enc) - enc[0]
            if a >= b:
                assert enc_total == sum(enc) + tx[-1]
                assert enc_sched.delta_t == sum(tx) - tx[-1]
            dec_total = dec_sched.total_pipelined
            if b >= a:                               # transmit dominates decryption
                assert dec_total == sum(tx) + dec[-1]
                assert dec_sched.delta_t == sum(dec) - dec[-1]
            if a >= b:
                assert dec_total == tx[0] + sum(dec)
                assert dec_sched.delta_t == sum(tx) - tx[0]
            if n == 1:
                assert enc_sched.delta_t == 0.0
                assert dec_sched.delta_t == 0.0
            else:
                assert enc_sched.delta_t > 0
                assert dec_sched.delta_t > 0
            assert enc_total <= enc_sched.total_sequential
    return "n in 1..32, both stage dominance orders, zero tolerance"


# ---------------------------------------------------------------------------
# 6 and 7. measured sweep analogues of the paper's figures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_report():
    sizes = [s * 1048576 for s in (1, 2, 4, 8, 16)]
    link = pl.LinkModel(bandwidth=1048576.0, latency=0.25)
    return bench_mod.run_bench(sizes, levels=10, leaves=100, link=link,
                               runs=5, seed=0xC6C7)


@criterion(6, "enc-tx sweep: pipelined < sequential at every size, gap nondecreasing")
def test_c6_encrypt_transmit_sweep(sweep_report):
    report = sweep_report
    assert [r.size for r in report.rows] == [s * 1048576 for s in (1, 2, 4, 8, 16)]
    for row in report.rows:
        # throttle premise: every block transmits slower than it encrypts
        assert row.max_block_enc < row.min_block_tx, \
            f"link not throttled enough at {row.size}"
        assert row.enc_pipe < row.enc_seq, f"no pipeline gain at {row.size}"
    gaps = [row.enc_delta for row in report.rows]
    assert all(b >= a for a, b in zip(gaps, gaps[1:])), f"gaps not monotone: {gaps}"
    return "gaps(ms): " + ", ".join(f"{g * 1e3:.0f}" for g in gaps)


@criterion(7, "tx-dec sweep: positive pipeline gain at every size")
def test_c7_transmit_decrypt_sweep(sweep_report):
    for row in sweep_report.rows:
        assert row.dec_pipe < row.dec_seq, f"no decrypt-side gain at {row.size}"
        assert row.dec_delta > 0
    return "gains(ms): " + ", ".join(f"{r.dec_delta * 1e3:.0f}" for r in sweep_report.rows)


# ---------------------------------------------------------------------------
# 8. oracle equivalence with retained secrets
# ---------------------------------------------------------------------------

_ORACLE_TREES = [
    ("x", lambda s: "x" in s),
    ("(a AND b)", lambda s: "a" in s and "b" in s),
    ("(a OR b)", lambda s: "a" in s or "b" in s),
    ("(2 of (a, b, c))", lambda s: len(s & {"a", "b", "c"}) >= 2),
    ("(a AND (b OR c))", lambda s: "a" in s and ("b" in s or "c" in s)),
    ("(a OR (b AND c))", lambda s: "a" in s or ("b" in s and "c" in s)),
    ("((a OR b) AND (c OR d))",
     lambda s: ("a" in s or "b" in s) and ("c" in s or "d" in s)),
]


def _check_closed_forms(tree, ctbs, sk, pk, ctx, key_drawn, enc_drawn, attrs):
    """Walk the decryption bottom-up, asserting every intermediate against
    its closed-form exponent."""
    r = key_drawn.r
    shares = enc_drawn.node_shares(tree)
    secrets = enc_drawn.level_secrets()
    n = len(ctbs)
    node_values = {}

    descriptors = {}
    for ctb in ctbs:
        for desc in ctb.descriptor:
            descriptors[desc.node_id] = desc
        for nid in ctb.leaf_components:
            desc = next(d for d in ctb.descriptor if d.node_id == nid)
            if desc.attribute in attrs:
                value = decrypt_leaf(ctb, sk, nid)
                assert reduced(value) == E_GG ** (r * shares[nid]), "leaf closed form"
                node_values[nid] = value
            else:
                assert decrypt_leaf(ctb, sk, nid) is None

    children = {}
    for desc in descriptors.values():
        if desc.parent_id:
            children.setdefault(desc.parent_id, []).append(desc)
    changed = True
    while changed:
        changed = False
        for nid, desc in descriptors.items():
            if desc.is_leaf or nid in node_values:
                continue
            avail = {c.index: node_values[c.node_id]
                     for c in children.get(nid, []) if c.node_id in node_values}
            value = decrypt_interior(avail, desc.threshold)
            if value is not None:
                assert reduced(value) == E_GG ** (r * shares[nid]), "gate closed form"
                node_values[nid] = value
                changed = True

    chain = {}
    opened = {}
    for _ in range(n):
        for ctb in ctbs:
            i = ctb.index
            if i in opened:
                continue
            unlocks = []
            if i == 1:
                root = next(d for d in ctb.descriptor if d.parent_id == 0)
                if root.node_id in node_values:
                    unlocks.append(RootUnlock(node_values[root.node_id]))
            else:
                for nid in ctb.gate_links:
                    if nid in node_values:
                        unlocks.append(GateUnlock(nid, node_values[nid]))
            if i in chain:
                unlocks.append(ChainUnlock(chain[i]))
            if not unlocks:
                continue
            blinded_expected = E_GG ** (r * secrets[i])
            mask_expected = pk.egg_alpha ** secrets[i]
            for unlock in unlocks:
                if isinstance(unlock, RootUnlock):
                    blinded = reduced(unlock.value)
                elif isinstance(unlock, GateUnlock):
                    blinded = reduced(unlock.value) * alg.pair(
                        ctb.gate_links[unlock.node_id], sk.d_hat)
                else:
                    blinded = alg.pair(unlock.element, sk.d_hat)
                assert blinded == blinded_expected, "blinded level secret"
                assert alg.pair(ctb.encap, sk.d) / blinded == mask_expected, \
                    "mask key quotient"
            opened[i], nxt = decrypt_block(ctb, sk, unlocks[0])
            if nxt is not None:
                assert nxt == pk.g ** (secrets[i + 1] / ctx.q), "chain element"
                chain[i + 1] = nxt
    return opened


@criterion(8, "all decryption intermediates equal closed-form exponents")
def test_c8_oracle_equivalence(suite):
    pk, mk, ctx = suite
    rng = random.Random(0xC8)
    checked_subsets = 0
    for text, oracle in _ORACLE_TREES:
        tree = parse_policy(text)
        assert len(tree) <= 7
        leaves = sorted(leaf_attributes(tree))
        message = rng.randbytes(200)
        with recording() as enc_drawn:
            ctbs = list(scheme.encrypt_message(message, tree, pk, ctx, rng))
        for k in range(len(leaves) + 1):
            for combo in itertools.combinations(leaves, k):
                attrs = set(combo)
                expected = oracle(attrs)
                assert satisfies(tree, attrs) == expected, (text, attrs)
                if not attrs:
                    assert not expected
                    continue
                with recording() as key_drawn:
                    sk = scheme.keygen(pk, mk, attrs, rng)
                if expected:
                    opened = _check_closed_forms(
                        tree, ctbs, sk, pk, ctx, key_drawn, enc_drawn, attrs)
                    assert sorted(opened) == list(range(1, len(ctbs) + 1))
                    payloads = [opened[i] for i in sorted(opened)]
                    assert scheme.unchain_blocks(payloads, len(message)) == message
                else:
                    state = DecryptionState(sk)
                    for ctb in ctbs:
                        state.add_block(ctb)
                    with pytest.raises(PolicyNotSatisfiedError):
                        assemble_message(state, sk)
                checked_subsets += 1
    return f"{checked_subsets} attribute subsets over {len(_ORACLE_TREES)} trees"


# ---------------------------------------------------------------------------
# 9. wire stability
# ---------------------------------------------------------------------------

GOLDEN_POLICY = "(alpha AND (beta OR (2 of (gamma, delta, epsilon))))"
GOLDEN_DIGEST = "c70d900b398f154b43cabc9f8492155c4bbed96391fd1ee0cf4fe583ac7b64b4"


def _golden_bytes():
    rng = random.Random(2024)
    pk, mk = scheme.setup(rng)
    ctx = scheme.encryption_context(mk)
    tree = parse_policy(GOLDEN_POLICY)
    message = bytes(range(256)) * 3
    blobs = [wire.encode_ctb(ctb, "golden-0001")
             for ctb in scheme.encrypt_message(message, tree, pk, ctx, rng)]
    return b"".join(blobs)


@criterion(9, "serialized ciphertext blocks byte-identical for a fixed seed")
def test_c9_wire_stability():
    first = _golden_bytes()
    second = _golden_bytes()
    assert first == second, "same seed must reproduce identical bytes in-process"
    digest = hashlib.sha256(first).hexdigest()
    assert digest == GOLDEN_DIGEST, f"golden digest changed: {digest}"
    return f"sha256 {GOLDEN_DIGEST[:16]}..."
