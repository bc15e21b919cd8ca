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

import functools
import operator
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Set,
                    Tuple, Union)

import secrets
from types import MappingProxyType

from .algebra import (
    G0_BYTES,
    ORDER,
    G0Element,
    GTElement,
    Scalar,
    TAG_ATTRIBUTE,
    TAG_MESSAGE,
    Unreduced,
    check_message_pairing,
    generator,
    hash_to_g0,
    kdf_mask,
    keep_lines,
    pair,
    pair_ratio,
    random_nonzero_scalar,
    unreduced_pair_ratio,
    xor_bytes,
)
from .errors import DecodeError, PolicyNotSatisfiedError
from .policy import AccessTree, NodeDescriptor, check_attributes, partition_levels, tree_fault

_DEFAULT_RNG = secrets.SystemRandom()


def _rng_or_default(rng):
    return _DEFAULT_RNG if rng is None else rng


# ---------------------------------------------------------------------------
# key material
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PublicKey:
    g: G0Element
    h: G0Element                 # g^beta
    egg_alpha: GTElement         # pair(g, g)^alpha

    def __post_init__(self):
        # every block encryption exponentiates these three bases, so each is
        # a fixed base, whose wide comb `algebra`'s comb cache builds on its
        # first power and keeps for its value, so decoded copies share it
        for name in ("g", "h", "egg_alpha"):
            object.__setattr__(self, name, getattr(self, name).fixed_base())


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

    q: Scalar
    k: Scalar


@dataclass(frozen=True)
class SecretKey:
    d: G0Element                 # g^((alpha + r) / beta)
    d_hat: G0Element             # g^(r * q)
    components: Mapping[str, Tuple[G0Element, G0Element]]   # keys: the attribute set

    def __post_init__(self):
        # every block's mask key pairs d, every later block's d_hat and every
        # leaf its attribute's two components, so each is a fixed base, whose
        # lines `algebra` keeps; one key may serve many callers
        # (`wire.decode_secret_key`), so its components are read-only
        for name in ("d", "d_hat"):
            object.__setattr__(self, name, getattr(self, name).fixed_base())
        object.__setattr__(self, "components", MappingProxyType({
            attr: (d_j.fixed_base(), d_j_prime.fixed_base())
            for attr, (d_j, d_j_prime) in self.components.items()}))


@dataclass(frozen=True)
class VerificationTuple:
    v1: G0Element                # hash(message)^t
    v2: G0Element                # g^t


def setup(rng=None) -> Tuple[PublicKey, MasterKey]:
    """Sample the master secrets and publish the public parameters."""
    rng = _rng_or_default(rng)
    g = generator()                  # a fixed base: pk.g and challenges share its table
    alpha = random_nonzero_scalar(rng)
    beta = random_nonzero_scalar(rng)
    q = random_nonzero_scalar(rng)
    k = random_nonzero_scalar(rng)
    pk = PublicKey(g=g, h=g ** beta, egg_alpha=pair(g, g) ** alpha)
    mk = MasterKey(beta=beta, g_alpha=g ** alpha, q=q, k=k)
    return pk, mk


def encryption_context(mk: MasterKey) -> EncryptionContext:
    return EncryptionContext(q=mk.q, k=mk.k)


def keygen(pk: PublicKey, mk: MasterKey, attrs: Iterable[str], rng=None) -> SecretKey:
    """Issue a key for an attribute set; fresh blinding prevents collusion.
    An empty set, or an attribute no policy can name, is a ValueError."""
    attrs = frozenset(attrs)
    check_attributes(attrs)
    rng = _rng_or_default(rng)
    r = random_nonzero_scalar(rng)
    beta_inv = mk.beta.inverse()
    g_r = pk.g ** r
    d = (mk.g_alpha * g_r) ** beta_inv
    d_hat = pk.g ** (r * mk.q)
    components = {}
    for attr in sorted(attrs):
        r_j = random_nonzero_scalar(rng)
        components[attr] = (
            g_r * hash_to_g0(TAG_ATTRIBUTE, attr.encode()) ** r_j,
            pk.g ** r_j,
        )
    return SecretKey(d=d, d_hat=d_hat, components=components)


# ---------------------------------------------------------------------------
# message partition and chaining
# ---------------------------------------------------------------------------

def _block_len(total_len: int, n: int) -> int:
    """Length of each of the n equal segments of a total_len-byte message."""
    if n < 1:
        raise ValueError("block count must be at least 1")
    if total_len < 1:
        raise ValueError("empty message")
    return -(-total_len // n)


def _chain_segment(message: bytes, n: int, i: int) -> bytes:
    """Chained payload for 1-based block i of n: segment 1 in the clear,
    every later block the XOR of two consecutive segments.  Segments are
    slices of the message, zero-padded when short: not only the last can be
    (1 byte in 3 blocks pads segments 2 and 3)."""
    block_len = _block_len(len(message), n)

    def segment(j):
        return message[(j - 1) * block_len:j * block_len].ljust(block_len, b"\x00")

    return segment(1) if i == 1 else xor_bytes(segment(i - 1), segment(i))


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
    """Everything a receiver gets for one tree level, in the one shape the owner writes."""

    index: int
    block_count: int
    total_len: int
    descriptor: Tuple[NodeDescriptor, ...]
    masked_payload: bytes        # (data block || next unlock element) xor keystream
    encap: G0Element             # h^(level secret)
    gate_links: Mapping[int, G0Element]
    leaf_components: Mapping[int, Tuple[G0Element, G0Element]]
    commitment: Optional[G0Element] = None

    def __post_init__(self):
        if len(self.masked_payload) != self.block_len + G0_BYTES:
            raise ValueError("masked payload length mismatch")
        if not 1 <= self.index <= self.block_count:
            raise ValueError(f"block index {self.index} outside 1..{self.block_count}")
        if (self.index == 1) != (self.commitment is not None):
            raise ValueError("commitment must be present exactly on block 1")
        if self.index == 1 and self.gate_links:
            raise ValueError("block 1 carries no gate links")
        gates = {d.node_id for d in self.descriptor if not d.is_leaf} if self.index > 1 else set()
        leaves = {d.node_id for d in self.descriptor if d.is_leaf}
        odd = (self.gate_links.keys() ^ gates) | (self.leaf_components.keys() ^ leaves)
        if odd:
            raise ValueError(f"node {min(odd)}: a gate link or leaf component is missing or stray")

    @property
    def block_len(self) -> int:
        return _block_len(self.total_len, self.block_count)

    @property
    def is_last(self) -> bool:
        return self.index == self.block_count


@dataclass
class EncryptState:
    """The owner's side of one message between block encryptions.

    Holds the chain scalar, the commitment, the message and the access
    tree, the secret of the level about to be sealed, and the polynomial
    shares owed to that level's nodes.  The state for level i+1 is
    complete before block i is released, which is what lets encryption
    overlap transmission.
    """

    q: Scalar
    commitment: G0Element
    message: bytes
    tree: AccessTree
    level_secret: Scalar
    pending_shares: Dict[int, Scalar]
    index: int = 1               # of the next block to seal


def begin_encryption(message: bytes, tree: AccessTree, ctx: EncryptionContext,
                     rng=None) -> EncryptState:
    """Seed the encryption state for one block per tree level.

    The state keeps the message itself; each `encrypt_block` call slices and
    XORs its own two segments, so each block's cost stays with it."""
    _block_len(len(message), tree.depth)         # an empty message is a ValueError
    rng = _rng_or_default(rng)
    s1 = random_nonzero_scalar(rng)
    return EncryptState(
        q=ctx.q,
        commitment=data_verification(message, ctx),
        message=message,
        tree=tree,
        level_secret=s1,
        pending_shares={tree.root.node_id: s1},
    )


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


def lagrange_coeff(i: int, index_set: Iterable[int], x: int) -> Scalar:
    """Lagrange basis coefficient for index i over `index_set`, at point x."""
    s = set(index_set)
    if i not in s:
        raise ValueError(f"index {i} not in interpolation set {sorted(s)}")
    num, den = 1, 1
    for j in s:
        if j == i:
            continue
        num = num * (x - j) % ORDER
        den = den * (i - j) % ORDER
    return Scalar(num * pow(den, -1, ORDER) % ORDER)


def encrypt_block(state: EncryptState, pk: PublicKey, rng=None) -> CiphertextBlock:
    """Seal the next data block under its tree level and move the state on.

    The level's nodes are walked once in stored order, so by the partition
    rule of `tree_fault` a node's share is queued before it is spent.  A
    gate spends its pending share on a fresh polynomial and queues shares
    for its children; a leaf spends its share on the published component
    pair.  Every gate except the root also gets a link element that lifts
    its recovered value to the level secret.  A state whose last block is
    sealed refuses another with `ValueError`.
    """
    rng = _rng_or_default(rng)
    i = state.index
    tree = state.tree
    block_count = tree.depth
    if i > block_count:
        raise ValueError(f"all {block_count} blocks of this message are already sealed")
    level = partition_levels(tree)[i - 1]
    s_i = state.level_secret
    # one power of g per distinct exponent in the block: the leaves under an
    # OR gate share one share, and sibling gates under it one link
    g_pow = functools.cache(pk.g.__pow__)

    gate_links: Dict[int, G0Element] = {}
    leaf_components: Dict[int, Tuple[G0Element, G0Element]] = {}
    for node in level:
        share = state.pending_shares.pop(node.node_id)
        if node.is_leaf:
            leaf_components[node.node_id] = (
                g_pow(share),
                hash_to_g0(TAG_ATTRIBUTE, node.attribute.encode()) ** share,
            )
        else:
            state.pending_shares.update(
                _poly_shares(share, node.threshold, tree.children(node.node_id), rng))
            if i >= 2:
                gate_links[node.node_id] = g_pow((s_i - share) / state.q)

    if i < block_count:
        state.level_secret = random_nonzero_scalar(rng)
        next_unlock = g_pow(state.level_secret / state.q)
    else:
        next_unlock = G0Element.identity()

    plain = b"".join((_chain_segment(state.message, block_count, i), next_unlock.serialize()))
    masked = xor_bytes(plain, kdf_mask(pk.egg_alpha ** s_i, len(plain)))
    state.index = i + 1
    return CiphertextBlock(
        index=i,
        block_count=block_count,
        total_len=len(state.message),
        descriptor=level,
        masked_payload=masked,
        encap=pk.h ** s_i,
        gate_links=gate_links,
        leaf_components=leaf_components,
        commitment=state.commitment if i == 1 else None,
    )


def encrypt_message(message: bytes, tree: AccessTree, pk: PublicKey,
                    ctx: EncryptionContext, rng=None) -> Iterator[CiphertextBlock]:
    """Stream ciphertext blocks in index order; each is final as soon as it
    is yielded, so transmission may start immediately."""
    state = begin_encryption(message, tree, ctx, rng)
    for _ in range(tree.depth):
        yield encrypt_block(state, pk, rng)


# ---------------------------------------------------------------------------
# decryption
# ---------------------------------------------------------------------------

def decrypt_leaf(ctb: CiphertextBlock, sk: SecretKey, node_id: int) -> Optional[Unreduced]:
    """Blinded share value for one leaf, before the hard part of its final
    exponentiation, or None when the key lacks the leaf's attribute.  The
    key's components are the Miller points, fixed bases whose tables recur
    across messages (`SecretKey`), so a component outside the prime-order
    subgroup raises `DecodeError` here.  The block's, only
    evaluated, need only lie on the curve; either as the identity, which a
    pairing would skip, raises `DecodeError` too.  An error names the leaf,
    not the block: `add_block` passes open blocks too, which keep no index."""
    desc = next((d for d in ctb.descriptor if d.node_id == node_id and d.is_leaf), None)
    if desc is None:
        raise ValueError(f"node {node_id} is not a leaf of this block")
    if desc.attribute not in sk.components:
        return None
    d_j, d_j_prime = sk.components[desc.attribute]
    c_hat, c_hat_prime = ctb.leaf_components[node_id]
    if c_hat.is_identity() or c_hat_prime.is_identity():
        raise DecodeError(f"leaf {node_id} component is the identity")
    return unreduced_pair_ratio(d_j, c_hat, d_j_prime, c_hat_prime)


def decrypt_interior(children: Mapping[int, Unreduced], threshold: int) -> Optional[Unreduced]:
    """Interpolate a gate's value from child values keyed by child index:
    the product of their powers by the Lagrange coefficients at 0.

    Returns None when fewer than `threshold` children are available; with
    more, the lowest indices are used (any size-threshold subset agrees).
    """
    if len(children) < threshold:
        return None
    chosen = sorted(children)[:threshold]
    return functools.reduce(operator.mul, (children[idx] ** lagrange_coeff(idx, chosen, 0)
                                           for idx in chosen))


@dataclass(frozen=True)
class RootUnlock:
    """Recovered root value; only valid for block 1."""
    value: Unreduced


@dataclass(frozen=True)
class GateUnlock:
    """Recovered value of one gate in the block's level."""
    node_id: int
    value: Unreduced


@dataclass(frozen=True)
class ChainUnlock:
    """Unlock element recovered from the previous block's payload."""
    element: G0Element


Unlock = Union[RootUnlock, GateUnlock, ChainUnlock]


def decrypt_block(ctb: CiphertextBlock, sk: SecretKey, unlock: Unlock
                  ) -> Tuple[bytes, Optional[G0Element]]:
    """Open one ciphertext block with any available unlock.

    All three unlock paths reconstruct the same blinded level secret; the
    keystream key is then the quotient of the encapsulation pairing by
    that value, one product of pairings for a gate or chain unlock, with
    one final exponentiation: a root or gate value is divided out before
    its hard part.
    Returns the chained payload and the next block's chain unlock element
    (None on the last block, whose slot holds the identity sentinel).  A
    slot that is no point, the sentinel before the last block or anything
    else in the last block is a `DecodeError`: the mask key was wrong, as it
    is when the product evaluates an encapsulation, gate link or chain
    element outside the prime-order subgroup."""
    match unlock:
        case RootUnlock(value):
            if ctb.index != 1:
                raise ValueError("root unlock only applies to block 1")
            mask_key = pair(ctb.encap, sk.d, over=value)
        case GateUnlock(node_id, value):
            mask_key = pair_ratio(ctb.encap, sk.d, ctb.gate_links[node_id], sk.d_hat, over=value)
        case ChainUnlock(element):
            mask_key = pair_ratio(ctb.encap, sk.d, element, sk.d_hat)
        case _:
            raise TypeError(f"unsupported unlock {unlock!r}")

    plain = xor_bytes(ctb.masked_payload, kdf_mask(mask_key, len(ctb.masked_payload)))
    payload, sec_bytes = plain[: ctb.block_len], plain[ctb.block_len:]
    try:
        next_element = G0Element.deserialize(sec_bytes)
    except DecodeError:
        next_element = None
    if next_element is None or next_element.is_identity() != ctb.is_last:
        expected = "identity sentinel" if ctb.is_last else "unlock element"
        raise DecodeError(f"block {ctb.index}: unlock slot holds no {expected}")
    return payload, None if ctb.is_last else next_element


class _OpenedBlock(NamedTuple):
    """An opened block: `decrypt_block`'s results, not its masked payload,
    and the (element, value) it opened by, a chain element and None or a
    gate's link and value: pair(element, d_hat), times the reduced value if
    any, is its blinded level value.  Block 1, opened by the root, keeps
    None."""
    descriptor: Tuple[NodeDescriptor, ...]
    leaf_components: Mapping[int, Tuple[G0Element, G0Element]]
    payload: bytes
    next_element: Optional[G0Element]     # block index + 1's chain element; None on the last
    opened_by: Optional[Tuple[G0Element, Optional[Unreduced]]]


class DecryptionState:
    """Accumulates arriving blocks and opens each one as soon as it can.

    `blocks` holds a closed block as its `CiphertextBlock`, an open one as
    its `_OpenedBlock`.  A block opens by the chain element in the record
    before it; while block 1 is closed, block 1 can also open by the root
    value and a later block by a gate of its level with that gate's link
    element.  Node values are computed only for such an unlock, from the
    held subset with the fewest leaves still to pair.  The held blocks keep
    the tree rule of `policy.tree_fault`, so a satisfying key opens any tree
    `AccessTree` accepts, and no parent id can loop.  An arrival checks it and
    builds the plan once, and again only after an unlock adds node values: work
    linear in the held nodes, so quadratic in the block count for a message the
    key cannot open.  No cap bounds `block_count`; a tree may have any depth.

    A block that opens after its successor has its chain element checked
    against the successor's opening: both must give the successor's blinded
    level value, or the opening fails.  With the slot check of the chain
    path and the sentinel of the last block, every mask key is then checked
    once, so a block spliced from another message under the same policy, or
    opened with a wrong key whose slot still holds a point, is a
    `DecodeError`, not wrong bytes."""

    def __init__(self, sk: SecretKey):
        self.sk = sk
        self.block_count: Optional[int] = None
        self.total_len: Optional[int] = None
        self.commitment: Optional[G0Element] = None
        self.node_values: Dict[int, Unreduced] = {}
        self.blocks: Dict[int, Union[CiphertextBlock, _OpenedBlock]] = {}
        self._suspects: Set[int] = set()
        self.key_fault: Optional[DecodeError] = None

    def add_block(self, ctb: CiphertextBlock) -> None:
        """Ingest one block and open every block now reachable.  A repeat is
        ignored; another block under a held index, a header unlike the other
        held blocks' and a block that, with the held ones, breaks the tree rule
        are each a DecodeError naming a block, and so are a leaf component that
        fails its check and a block that fails to open.  Each fault follows the
        one repair rule, `_fail`: a refused block is not kept and sets no
        header, a held block that fails is dropped, every node value is
        forgotten and every held block becomes suspect, since any held point,
        not only the one that surfaced the fault, may be forged.  The next
        copy of a suspect block replaces it and is checked against the other
        held blocks only."""
        i = ctb.index
        held = i in self.blocks and i not in self._suspects
        if held and self.blocks[i].descriptor == ctb.descriptor:
            return
        if held:
            fault = f"conflicting blocks for index {i}"
        elif (self.blocks.keys() - {i}
              and (ctb.block_count, ctb.total_len) != (self.block_count, self.total_len)):
            fault = "inconsistent headers across blocks"
        else:
            fault = tree_fault({j: b.descriptor for j, b in {**self.blocks, i: ctb}.items()})
            fault = fault and "block %d: %s" % fault
        if fault:
            self._fail(None)
            raise DecodeError(fault)
        self.block_count, self.total_len = ctb.block_count, ctb.total_len
        if i == 1:
            self.commitment = ctb.commitment
        self.blocks[i] = ctb
        self._suspects.discard(i)
        # one ascending pass: opening block i only yields what blocks after i need;
        # opening changes nothing the plan reads, adding node values does
        plan = None
        for idx, block in sorted(self.blocks.items()):
            if isinstance(block, _OpenedBlock):
                continue
            if isinstance(self.blocks.get(idx - 1), _OpenedBlock):
                element = self.blocks[idx - 1].next_element
                unlock, opened_by = ChainUnlock(element), (element, None)
            elif isinstance(self.blocks.get(1), _OpenedBlock):
                continue
            else:
                plan = self._plan() if plan is None else plan
                ids = [block.descriptor[0].node_id] if idx == 1 else block.gate_links
                # ids are this block's nodes, and no node id is in two held blocks
                ready = [nid for nid in ids if nid in plan]
                if not ready:
                    continue
                nid = min(ready, key=lambda n: plan[n][0])
                value = self._value(plan, nid)
                unlock = RootUnlock(value) if idx == 1 else GateUnlock(nid, value)
                opened_by = None if idx == 1 else (block.gate_links[nid], value)
                plan = None
            try:
                payload, next_element = decrypt_block(block, self.sk, unlock)
                successor = self.blocks.get(idx + 1)
                if (isinstance(successor, _OpenedBlock)
                        and not self._gives(next_element, successor)):
                    raise DecodeError(f"block {idx}: its chain element does not open "
                                      f"block {idx + 1} as that block opened")
            except DecodeError:
                self._fail(idx)
                raise
            self.blocks[idx] = _OpenedBlock(block.descriptor, block.leaf_components,
                                            payload, next_element, opened_by)

    def _gives(self, element: G0Element, opened: _OpenedBlock) -> bool:
        """Whether a chain element gives the blinded level value `opened`
        opened by: pair(element, d_hat) against pair(link, d_hat) times the
        reduced value, with one final exponentiation.  `opened`'s own point
        was read when it opened, so only an element off the curve can raise,
        and such an element gives no level value."""
        link, value = opened.opened_by
        try:
            return pair_ratio(element, self.sk.d_hat, link, self.sk.d_hat,
                              over=value).is_identity()
        except DecodeError:
            return False

    def _plan(self) -> Dict[int, tuple]:
        """(leaves to pair, block, descriptor, children) per satisfied node.
        Blocks go from the last and each in reversed stored order, so by the
        partition rule of `tree_fault` a child is planned before its parent."""
        plan: Dict[int, tuple] = {}
        kids: Dict[Tuple[int, int], List[NodeDescriptor]] = {}
        for j, ctb in sorted(self.blocks.items(), reverse=True):
            for d in reversed(ctb.descriptor):
                if d.node_id in self.node_values:
                    plan[d.node_id] = (0, j, d, ())
                elif d.is_leaf and d.attribute in self.sk.components:
                    plan[d.node_id] = (1, j, d, ())
                elif not d.is_leaf:
                    chosen = sorted(kids.get((j, d.node_id), ()),
                                    key=lambda k: (plan[k.node_id][0], k.index))[:d.threshold]
                    if len(chosen) == d.threshold:
                        plan[d.node_id] = (sum(plan[k.node_id][0] for k in chosen), j, d, chosen)
                if d.node_id in plan:
                    for parent_block in (j, j - 1):
                        kids.setdefault((parent_block, d.parent_id), []).append(d)
        return plan

    def _value(self, plan: Dict[int, tuple], node_id: int) -> Unreduced:
        """Evaluate a planned node, children first, pairing only unknown
        leaves.  A leaf's key components are read first, so a fault in them
        is a `DecodeError` naming the attribute, kept as `key_fault`, and no
        held block is dropped or made suspect for it."""
        order, todo = [], [node_id]
        while todo:
            nid = todo.pop()
            if nid not in self.node_values:
                order.append(nid)
                todo.extend(k.node_id for k in plan[nid][3])
        for nid in reversed(order):
            _, j, d, chosen = plan[nid]
            if d.is_leaf:
                try:
                    for component in self.sk.components[d.attribute]:
                        keep_lines(component)
                except DecodeError as exc:
                    fault = f"key component of attribute {d.attribute!r}: {exc}"
                    self.key_fault = DecodeError(fault)
                    raise self.key_fault from None
                try:
                    self.node_values[nid] = decrypt_leaf(self.blocks[j], self.sk, nid)
                except DecodeError as exc:
                    self._fail(j)
                    raise DecodeError(f"block {j}: {exc}") from None
            else:
                shares = {k.index: self.node_values[k.node_id] for k in chosen}
                self.node_values[nid] = decrypt_interior(shares, d.threshold)
        return self.node_values[node_id]

    def _fail(self, j: Optional[int]) -> None:
        """The one repair rule: drop block j if held, forget every node value
        and make every held block suspect."""
        self.blocks.pop(j, None)
        self.node_values.clear()
        self._suspects = set(self.blocks)


def assemble_message(state: DecryptionState, sk: SecretKey) -> bytes:
    """Rebuild the plaintext after all blocks arrived.

    `add_block` has already opened every block the key reaches, so any
    block still closed means the policy is not satisfied, or a key component
    is corrupt (its `DecodeError`); that is always block 1, since the chain
    from block 1 opens every later block.  `sk` is the key the state was
    built with; the state already holds it."""
    if len(state.blocks) != state.block_count:
        raise ValueError("not all ciphertext blocks have been received")
    closed = [i for i, b in state.blocks.items() if not isinstance(b, _OpenedBlock)]
    if closed:
        raise state.key_fault or PolicyNotSatisfiedError(
            f"attributes do not satisfy the access policy: block {min(closed)} stays closed")
    payloads = [state.blocks[i].payload for i in range(1, state.block_count + 1)]
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
    """Pairing check that the decrypted plaintext matches the committed one:
    pair(H(m), v2) == pair(v1, g), evaluated without clearing H(m)'s
    cofactor (see `algebra.check_message_pairing`)."""
    return check_message_pairing(message, v.v1, v.v2)
