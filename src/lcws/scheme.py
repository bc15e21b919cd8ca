"""Level-partitioned CP-ABE: setup, key generation, chained block
encryption, three-stage decryption, and pairing-based integrity checking.

A message is cut into one data block per tree level and XOR-chained, so
no block after the first is useful on its own.  Each block is sealed
under its level's share of the policy tree plus a fresh level secret;
the payload of block i additionally smuggles the unlock element for
block i+1, which lets a receiver who satisfied the root open the whole
chain without touching deeper levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

import secrets

from .algebra import (
    G0_BYTES,
    ORDER,
    SUITE_ID,
    G0Element,
    GTElement,
    Scalar,
    TAG_ATTRIBUTE,
    TAG_MESSAGE,
    generator,
    hash_to_g0,
    kdf_mask,
    pair,
    random_nonzero_scalar,
    xor_bytes,
)
from .errors import DecodeError, EncryptionStateError, PolicyNotSatisfiedError
from .policy import AccessTree, LevelPartition, LevelSlice, NodeDescriptor, lagrange_coeff, partition_levels

_DEFAULT_RNG = secrets.SystemRandom()


def _rng_or_default(rng):
    return _DEFAULT_RNG if rng is None else rng


# ---------------------------------------------------------------------------
# key material
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PublicKey:
    suite: str
    g: G0Element
    h: G0Element                 # g^beta
    egg_alpha: GTElement         # pair(g, g)^alpha


@dataclass(frozen=True)
class MasterKey:
    beta: Scalar
    g_alpha: G0Element
    q: Scalar
    k: Scalar


@dataclass(frozen=True)
class EncryptionContext:
    """Owner-side provisioning handed out by the authority: the scalars a
    data owner needs to build ciphertext chains and commitments."""

    suite: str
    q: Scalar
    k: Scalar


@dataclass(frozen=True)
class SecretKey:
    d: G0Element                 # g^((alpha + r) / beta)
    d_hat: G0Element             # g^(r * q)
    components: Mapping[str, Tuple[G0Element, G0Element]]
    attrs: FrozenSet[str]

    def __post_init__(self):
        if set(self.components) != set(self.attrs):
            raise ValueError("key components must cover exactly the attribute set")


@dataclass(frozen=True)
class VerificationTuple:
    v1: G0Element                # hash(message)^t
    v2: G0Element                # g^t


@dataclass
class KeygenTrace:
    """Secret randomness retained for test fixtures only."""

    r: Optional[Scalar] = None
    blinding: Dict[str, Scalar] = field(default_factory=dict)


def setup(rng=None) -> Tuple[PublicKey, MasterKey]:
    """Sample the master secrets and publish the public parameters."""
    rng = _rng_or_default(rng)
    g = generator()
    alpha = random_nonzero_scalar(rng)
    beta = random_nonzero_scalar(rng)
    q = random_nonzero_scalar(rng)
    k = random_nonzero_scalar(rng)
    pk = PublicKey(suite=SUITE_ID, g=g, h=g ** beta, egg_alpha=pair(g, g) ** alpha)
    mk = MasterKey(beta=beta, g_alpha=g ** alpha, q=q, k=k)
    return pk, mk


def encryption_context(mk: MasterKey) -> EncryptionContext:
    return EncryptionContext(suite=SUITE_ID, q=mk.q, k=mk.k)


def keygen(pk: PublicKey, mk: MasterKey, attrs: Iterable[str], rng=None,
           trace: Optional[KeygenTrace] = None) -> SecretKey:
    """Issue a key for an attribute set; fresh blinding prevents collusion."""
    attrs = frozenset(attrs)
    if not attrs:
        raise ValueError("attribute set must be non-empty")
    rng = _rng_or_default(rng)
    r = random_nonzero_scalar(rng)
    beta_inv = mk.beta.inverse()
    d = (mk.g_alpha * pk.g ** r) ** beta_inv
    d_hat = pk.g ** (r * mk.q)
    components = {}
    for attr in sorted(attrs):
        r_j = random_nonzero_scalar(rng)
        components[attr] = (
            pk.g ** r * hash_to_g0(TAG_ATTRIBUTE, attr.encode()) ** r_j,
            pk.g ** r_j,
        )
        if trace is not None:
            trace.blinding[attr] = r_j
    if trace is not None:
        trace.r = r
    return SecretKey(d=d, d_hat=d_hat, components=components, attrs=attrs)


# ---------------------------------------------------------------------------
# message partition and chaining
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataBlock:
    index: int                   # 1-based
    payload: bytes


def _segment_message(message: bytes, n: int) -> List[bytes]:
    """Equal-length segments, the last zero-padded."""
    if n < 1:
        raise ValueError("block count must be at least 1")
    if not message:
        raise ValueError("empty message")
    block_len = (len(message) + n - 1) // n
    return [
        message[i * block_len:(i + 1) * block_len].ljust(block_len, b"\x00")
        for i in range(n)
    ]


def _chain_segment(segments: List[bytes], i: int) -> bytes:
    """Chained payload for 1-based block i: segment 1 in the clear, every
    later block the XOR of two consecutive segments."""
    if i == 1:
        return segments[0]
    return xor_bytes(segments[i - 2], segments[i - 1])


def partition_message(message: bytes, n: int) -> List[DataBlock]:
    """Split into n equal segments (last zero-padded) and XOR-chain them.

    Block 1 is the first segment in the clear; every later block is the
    XOR of two consecutive segments, so blocks without their predecessor
    carry no recoverable plaintext.
    """
    segments = _segment_message(message, n)
    return [DataBlock(i, _chain_segment(segments, i)) for i in range(1, n + 1)]


def unchain_blocks(payloads: Iterable[bytes], total_len: int) -> bytes:
    """Invert the XOR chain and truncate the padding."""
    out = []
    prev = None
    for payload in payloads:
        prev = payload if prev is None else xor_bytes(payload, prev)
        out.append(prev)
    return b"".join(out)[:total_len]


def data_verification(message: bytes, keys) -> G0Element:
    """Commitment to the plaintext, bound by the authority's challenge
    scalar; `keys` is anything carrying that scalar as `.k`."""
    return hash_to_g0(TAG_MESSAGE, message) ** keys.k


# ---------------------------------------------------------------------------
# block encryption
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CiphertextBlock:
    """Everything a receiver gets for one tree level."""

    index: int
    block_count: int
    total_len: int
    block_len: int
    suite: str
    descriptor: Tuple[NodeDescriptor, ...]
    masked_payload: bytes        # (data block || next unlock element) xor keystream
    encap: G0Element             # h^(level secret)
    gate_links: Mapping[int, G0Element]
    leaf_components: Mapping[int, Tuple[G0Element, G0Element]]
    commitment: Optional[G0Element] = None

    def __post_init__(self):
        if (self.index == 1) != (self.commitment is not None):
            raise ValueError("commitment must be present exactly on block 1")
        if self.index == 1 and self.gate_links:
            raise ValueError("block 1 carries no gate links")
        if len(self.masked_payload) != self.block_len + G0_BYTES:
            raise ValueError("masked payload length mismatch")

    @property
    def is_last(self) -> bool:
        return self.index == self.block_count


@dataclass
class EncryptionTrace:
    """Per-message secrets retained for test fixtures only."""

    level_secrets: Dict[int, Scalar] = field(default_factory=dict)
    node_shares: Dict[int, Scalar] = field(default_factory=dict)


@dataclass
class EncryptState:
    """Mutable hand-off between consecutive block encryptions.

    Carries the chain scalar, the current and next level secrets, and the
    polynomial shares owed to nodes of the level about to be processed.
    The state for level i+1 is complete before block i is released, which
    is what lets encryption overlap transmission.
    """

    q: Scalar
    block_count: int
    total_len: int
    block_len: int
    level_secret: Scalar
    pending_shares: Dict[int, Scalar]
    commitment: G0Element
    next_index: int = 1
    trace: Optional[EncryptionTrace] = None


def begin_encryption(message: bytes, tree: AccessTree, ctx: EncryptionContext,
                     rng=None, trace: Optional[EncryptionTrace] = None
                     ) -> Tuple[EncryptState, List[bytes], LevelPartition]:
    """Segment the message by tree depth and seed the encryption state.

    Segments are returned unchained; the XOR chaining happens per block
    during encryption so that each block's cost stays with that block."""
    rng = _rng_or_default(rng)
    segments = _segment_message(message, tree.depth)
    partition = partition_levels(tree)
    s1 = random_nonzero_scalar(rng)
    state = EncryptState(
        q=ctx.q,
        block_count=tree.depth,
        total_len=len(message),
        block_len=len(segments[0]),
        level_secret=s1,
        pending_shares={tree.root.node_id: s1},
        commitment=data_verification(message, ctx),
        trace=trace,
    )
    return state, segments, partition


def _poly_shares(share: Scalar, threshold: int, children: Tuple, rng) -> Dict[int, Scalar]:
    """Fresh polynomial of degree threshold-1 through (0, share), evaluated
    at each child's index."""
    coeffs = [share.value] + [rng.randrange(ORDER) for _ in range(threshold - 1)]
    out = {}
    for child in children:
        x = child.index
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % ORDER
        out[child.node_id] = Scalar(acc)
    return out


def encrypt_block(db: DataBlock, level_slice: LevelSlice, pk: PublicKey,
                  state: EncryptState, rng=None) -> CiphertextBlock:
    """Seal one data block under one tree level.

    Gates of the slice spend their pending share on a fresh polynomial and
    queue shares for their children; leaves of the slice spend theirs on
    the published component pair.  Every gate except the root also gets a
    link element that lifts its recovered value to the level secret.
    """
    rng = _rng_or_default(rng)
    i = db.index
    if i != state.next_index:
        raise EncryptionStateError(f"expected block {state.next_index}, got {i}")
    s_i = state.level_secret
    if state.trace is not None:
        state.trace.level_secrets[i] = s_i

    gate_links: Dict[int, G0Element] = {}
    for gate in level_slice.interior_nodes:
        try:
            share = state.pending_shares.pop(gate.node_id)
        except KeyError:
            raise EncryptionStateError(f"no pending share for gate {gate.node_id}") from None
        state.pending_shares.update(_poly_shares(share, gate.threshold, gate.children, rng))
        if state.trace is not None:
            state.trace.node_shares[gate.node_id] = share
        if i >= 2:
            gate_links[gate.node_id] = pk.g ** ((s_i - share) / state.q)

    leaf_components: Dict[int, Tuple[G0Element, G0Element]] = {}
    for leaf in level_slice.leaf_nodes:
        try:
            share = state.pending_shares.pop(leaf.node_id)
        except KeyError:
            raise EncryptionStateError(f"no pending share for leaf {leaf.node_id}") from None
        leaf_components[leaf.node_id] = (
            pk.g ** share,
            hash_to_g0(TAG_ATTRIBUTE, leaf.attribute.encode()) ** share,
        )
        if state.trace is not None:
            state.trace.node_shares[leaf.node_id] = share

    if i < state.block_count:
        s_next = random_nonzero_scalar(rng)
        next_unlock = pk.g ** (s_next / state.q)
    else:
        s_next = None
        next_unlock = G0Element.identity()

    mask = kdf_mask(pk.egg_alpha ** s_i, state.block_len + G0_BYTES)
    masked = xor_bytes(db.payload + next_unlock.serialize(), mask)

    ctb = CiphertextBlock(
        index=i,
        block_count=state.block_count,
        total_len=state.total_len,
        block_len=state.block_len,
        suite=pk.suite,
        descriptor=level_slice.descriptor,
        masked_payload=masked,
        encap=pk.h ** s_i,
        gate_links=gate_links,
        leaf_components=leaf_components,
        commitment=state.commitment if i == 1 else None,
    )
    if s_next is not None:
        state.level_secret = s_next
    state.next_index = i + 1
    return ctb


def encrypt_message(message: bytes, tree: AccessTree, pk: PublicKey,
                    ctx: EncryptionContext, rng=None,
                    trace: Optional[EncryptionTrace] = None) -> Iterator[CiphertextBlock]:
    """Stream ciphertext blocks in index order; each is final as soon as it
    is yielded, so transmission may start immediately."""
    rng = _rng_or_default(rng)
    state, segments, partition = begin_encryption(message, tree, ctx, rng, trace)
    for i, level_slice in enumerate(partition.levels, start=1):
        db = DataBlock(i, _chain_segment(segments, i))
        yield encrypt_block(db, level_slice, pk, state, rng)


# ---------------------------------------------------------------------------
# decryption
# ---------------------------------------------------------------------------

def decrypt_leaf(ctb: CiphertextBlock, sk: SecretKey, node_id: int) -> Optional[GTElement]:
    """Blinded share value for one leaf, or None when the key lacks the
    leaf's attribute."""
    desc = next((d for d in ctb.descriptor if d.node_id == node_id and d.is_leaf), None)
    if desc is None:
        raise ValueError(f"node {node_id} is not a leaf of block {ctb.index}")
    if desc.attribute not in sk.attrs:
        return None
    d_j, d_j_prime = sk.components[desc.attribute]
    c_hat, c_hat_prime = ctb.leaf_components[node_id]
    return pair(d_j, c_hat) / pair(d_j_prime, c_hat_prime)


def decrypt_interior(children: Mapping[int, GTElement], threshold: int) -> Optional[GTElement]:
    """Interpolate a gate's value from child values keyed by child index.

    Returns None when fewer than `threshold` children are available; with
    more, the lowest indices are used (any size-threshold subset agrees).
    """
    if len(children) < threshold:
        return None
    chosen = sorted(children)[:threshold]
    acc = GTElement.one()
    for idx in chosen:
        acc = acc * children[idx] ** lagrange_coeff(idx, chosen, 0)
    return acc


@dataclass(frozen=True)
class RootUnlock:
    """Recovered root value; only valid for block 1."""
    value: GTElement


@dataclass(frozen=True)
class GateUnlock:
    """Recovered value of one gate in the block's level."""
    node_id: int
    value: GTElement


@dataclass(frozen=True)
class ChainUnlock:
    """Unlock element recovered from the previous block's payload."""
    element: G0Element


Unlock = Union[RootUnlock, GateUnlock, ChainUnlock]


def decrypt_block(ctb: CiphertextBlock, sk: SecretKey, unlock: Unlock
                  ) -> Tuple[DataBlock, Optional[G0Element]]:
    """Open one ciphertext block with any available unlock.

    All three unlock paths reconstruct the same blinded level secret; the
    keystream key is then the quotient of the encapsulation pairing by
    that value.  Returns the data block and the next block's chain unlock
    element (None on the last block, whose slot holds the identity
    sentinel)."""
    if isinstance(unlock, RootUnlock):
        if ctb.index != 1:
            raise ValueError("root unlock only applies to block 1")
        blinded = unlock.value
    elif isinstance(unlock, GateUnlock):
        blinded = unlock.value * pair(ctb.gate_links[unlock.node_id], sk.d_hat)
    elif isinstance(unlock, ChainUnlock):
        blinded = pair(unlock.element, sk.d_hat)
    else:
        raise TypeError(f"unsupported unlock {unlock!r}")

    mask_key = pair(ctb.encap, sk.d) / blinded
    plain = xor_bytes(ctb.masked_payload, kdf_mask(mask_key, len(ctb.masked_payload)))
    payload, sec_bytes = plain[: ctb.block_len], plain[ctb.block_len:]
    next_element = G0Element.deserialize(sec_bytes)
    if next_element.is_identity():
        return DataBlock(ctb.index, payload), None
    return DataBlock(ctb.index, payload), next_element


class DecryptionState:
    """Accumulates arriving blocks and opens whatever becomes reachable.

    Each block is opened by the first available unlock among a recovered
    gate value at its level (with its link element), the root value for
    block 1, or the chain element from the previous block's payload.  Until
    block 1 opens, leaf values are computed per arrival and gate values
    resolve bottom-up as their children's levels arrive.  Once block 1 is
    open the chain opens every later block in turn, so later arrivals cost
    no leaf pairings.  The test is "block 1 is open", not "this block has a
    chain element": a gate can open block 2 while the root still needs
    leaves from deeper blocks.
    """

    def __init__(self, sk: SecretKey):
        self.sk = sk
        self.block_count: Optional[int] = None
        self.total_len: Optional[int] = None
        self.pending_blocks: Dict[int, CiphertextBlock] = {}
        self.data_blocks: Dict[int, DataBlock] = {}
        self.chain_elements: Dict[int, G0Element] = {}
        self.node_values: Dict[int, GTElement] = {}
        self.commitment: Optional[G0Element] = None
        self._descriptors: Dict[int, NodeDescriptor] = {}
        self._children: Dict[int, List[NodeDescriptor]] = {}
        self._level_of_block: Dict[int, Tuple[NodeDescriptor, ...]] = {}

    def received_all(self) -> bool:
        return self.block_count is not None and len(self._level_of_block) == self.block_count

    def add_block(self, ctb: CiphertextBlock) -> None:
        """Ingest one arriving block and cascade any newly possible work.

        A repeat of a block already held is ignored; a different block
        under the same index, or node ids shared with another block, is a
        DecodeError."""
        if self.block_count is None:
            self.block_count = ctb.block_count
            self.total_len = ctb.total_len
        elif ctb.block_count != self.block_count or ctb.total_len != self.total_len:
            raise DecodeError("inconsistent headers across blocks")
        held = self._level_of_block.get(ctb.index)
        if held is not None:
            if held != ctb.descriptor:
                raise DecodeError(f"conflicting blocks for index {ctb.index}")
            return
        for desc in ctb.descriptor:
            if desc.node_id in self._descriptors:
                raise DecodeError(f"node id {desc.node_id} appears in more than one block")
        if ctb.index == 1:
            self.commitment = ctb.commitment
        self.pending_blocks[ctb.index] = ctb
        self._level_of_block[ctb.index] = ctb.descriptor
        for desc in ctb.descriptor:
            self._descriptors[desc.node_id] = desc
            if desc.parent_id:
                self._children.setdefault(desc.parent_id, []).append(desc)
        if 1 not in self.data_blocks:
            for desc in ctb.descriptor:
                if (desc.is_leaf and desc.attribute in self.sk.attrs
                        and desc.node_id in ctb.leaf_components):
                    self.node_values[desc.node_id] = decrypt_leaf(ctb, self.sk, desc.node_id)
            self._propagate_gates()
        self._open_blocks()

    def _propagate_gates(self) -> None:
        changed = True
        while changed:
            changed = False
            for nid, desc in self._descriptors.items():
                if desc.is_leaf or nid in self.node_values:
                    continue
                kids = self._children.get(nid, [])
                available = {
                    k.index: self.node_values[k.node_id]
                    for k in kids if k.node_id in self.node_values
                }
                value = decrypt_interior(available, desc.threshold)
                if value is not None:
                    self.node_values[nid] = value
                    changed = True

    def _unlock_for(self, ctb: CiphertextBlock) -> Optional[Unlock]:
        if ctb.index == 1:
            root = next((d for d in ctb.descriptor if d.parent_id == 0), None)
            if root is not None and root.node_id in self.node_values:
                return RootUnlock(self.node_values[root.node_id])
        else:
            for nid in ctb.gate_links:
                if nid in self.node_values:
                    return GateUnlock(nid, self.node_values[nid])
        element = self.chain_elements.get(ctb.index)
        if element is not None:
            return ChainUnlock(element)
        return None

    def _open_blocks(self) -> None:
        progress = True
        while progress:
            progress = False
            for idx in sorted(self.pending_blocks):
                ctb = self.pending_blocks[idx]
                unlock = self._unlock_for(ctb)
                if unlock is None:
                    continue
                db, next_element = decrypt_block(ctb, self.sk, unlock)
                del self.pending_blocks[idx]
                self.data_blocks[idx] = db
                if next_element is not None:
                    self.chain_elements[idx + 1] = next_element
                progress = True


def assemble_message(state: DecryptionState, sk: SecretKey) -> bytes:
    """Rebuild the plaintext after all blocks arrived.

    `add_block` has already opened every block the key reaches, so any
    block still closed means the policy is not satisfied; that is always
    block 1, since the chain from block 1 opens every later block.  `sk`
    is the key the state was built with; the state already holds it."""
    if not state.received_all():
        raise ValueError("not all ciphertext blocks have been received")
    if state.pending_blocks:
        closed = min(state.pending_blocks)
        raise PolicyNotSatisfiedError(
            f"attributes do not satisfy the access policy: block {closed} stays closed")
    payloads = [state.data_blocks[i].payload for i in range(1, state.block_count + 1)]
    return unchain_blocks(payloads, state.total_len)


# ---------------------------------------------------------------------------
# verification protocol
# ---------------------------------------------------------------------------

def make_challenge(commitment: G0Element, mk: MasterKey, rng=None) -> VerificationTuple:
    """Authority-side challenge: strips the commitment scalar and rebinds
    the plaintext hash to a fresh exponent the receiver can check."""
    rng = _rng_or_default(rng)
    t = random_nonzero_scalar(rng)
    return VerificationTuple(
        v1=commitment ** (t / mk.k),
        v2=generator() ** t,
    )


def verify_message(message: bytes, v: VerificationTuple) -> bool:
    """Pairing check that the decrypted plaintext matches the committed one."""
    return pair(hash_to_g0(TAG_MESSAGE, message), v.v2) == pair(v.v1, generator())
