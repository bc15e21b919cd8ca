"""Bit-exact wire formats for ciphertext blocks and key files.

All integers are big-endian; every variable-length section carries a
4-byte length prefix.  Maps are serialized sorted by node id, making the
encoding canonical: parse followed by serialize is byte identity.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from .algebra import G0_BYTES, GT_BYTES, SCALAR_BYTES, SUITE_ID, G0Element, GTElement, Scalar
from .errors import DecodeError
from .policy import NodeDescriptor
from .scheme import (
    CiphertextBlock,
    EncryptionContext,
    MasterKey,
    PublicKey,
    SecretKey,
    VerificationTuple,
)

CTB_MAGIC = b"LCWS"
KEY_MAGIC = b"LCWK"
WIRE_VERSION = 1

FLAG_COMMITMENT = 0x01
FLAG_SENTINEL = 0x02

_KIND_PK = 1
_KIND_MK = 2
_KIND_SK = 3
_KIND_CTX = 4
_KIND_VTUPLE = 5


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError("truncated input")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def section(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError(f"{len(self.data) - self.pos} trailing bytes")


def _section(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def _text(raw: bytes, encoding: str) -> str:
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError:
        raise DecodeError(f"text is not valid {encoding}") from None


def _encode_descriptor(descriptor: Tuple[NodeDescriptor, ...]) -> bytes:
    parts = [struct.pack(">I", len(descriptor))]
    for d in descriptor:
        parts.append(struct.pack(">IIH", d.node_id, d.parent_id, d.index))
        if d.is_leaf:
            attr = d.attribute.encode("utf-8")
            parts.append(b"\x00" + struct.pack(">H", len(attr)) + attr)
        else:
            parts.append(b"\x01" + struct.pack(">H", d.threshold))
    return b"".join(parts)


def _decode_descriptor(data: bytes) -> Tuple[NodeDescriptor, ...]:
    r = _Reader(data)
    count = r.u32()
    out = []
    seen = set()
    for _ in range(count):
        node_id, parent_id, index = struct.unpack(">IIH", r.take(10))
        if node_id in seen:
            raise DecodeError(f"duplicate node id {node_id}")
        seen.add(node_id)
        kind = r.u8()
        if kind == 0:
            attr = _text(r.take(r.u16()), "utf-8")
            out.append(NodeDescriptor(node_id, parent_id, index, attr, None))
        elif kind == 1:
            threshold = r.u16()
            if threshold == 0:
                raise DecodeError(f"gate {node_id} has threshold 0")
            out.append(NodeDescriptor(node_id, parent_id, index, None, threshold))
        else:
            raise DecodeError(f"unknown node kind {kind}")
    r.done()
    return tuple(out)


def encode_ctb(ctb: CiphertextBlock, message_id: str) -> bytes:
    flags = 0
    if ctb.commitment is not None:
        flags |= FLAG_COMMITMENT
    if ctb.is_last:
        flags |= FLAG_SENTINEL
    parts = [
        CTB_MAGIC,
        struct.pack(">H", WIRE_VERSION),
        _section(ctb.suite.encode("ascii")),
        _section(message_id.encode("ascii")),
        struct.pack(">IIB", ctb.index, ctb.block_count, flags),
        _section(struct.pack(">QI", ctb.total_len, ctb.block_len)),
        _section(_encode_descriptor(ctb.descriptor)),
        _section(ctb.masked_payload),
        _section(ctb.encap.serialize()),
    ]
    if ctb.commitment is not None:
        parts.append(_section(ctb.commitment.serialize()))
    delta = [struct.pack(">I", len(ctb.gate_links))]
    for nid in sorted(ctb.gate_links):
        delta.append(struct.pack(">I", nid) + ctb.gate_links[nid].serialize())
    parts.append(_section(b"".join(delta)))
    leaves = [struct.pack(">I", len(ctb.leaf_components))]
    for nid in sorted(ctb.leaf_components):
        a, b = ctb.leaf_components[nid]
        leaves.append(struct.pack(">I", nid) + a.serialize() + b.serialize())
    parts.append(_section(b"".join(leaves)))
    return b"".join(parts)


def decode_ctb(data: bytes) -> Tuple[CiphertextBlock, str]:
    r = _Reader(data)
    if r.take(4) != CTB_MAGIC:
        raise DecodeError("bad magic")
    version = r.u16()
    if version != WIRE_VERSION:
        raise DecodeError(f"unsupported wire version {version}")
    suite = _text(r.section(), "ascii")
    if suite != SUITE_ID:
        raise DecodeError(f"unknown suite {suite!r}")
    message_id = _text(r.section(), "ascii")
    index, block_count, flags = struct.unpack(">IIB", r.take(9))
    if flags & ~(FLAG_COMMITMENT | FLAG_SENTINEL):
        raise DecodeError(f"unknown flag bits {flags:#04x}")
    if not 1 <= index <= block_count:
        raise DecodeError(f"block index {index} outside 1..{block_count}")
    header = _Reader(r.section())
    total_len = header.u64()
    block_len = header.u32()
    header.done()
    descriptor = _decode_descriptor(r.section())
    masked_payload = r.section()
    encap = G0Element.deserialize(r.section())
    commitment = None
    if flags & FLAG_COMMITMENT:
        commitment = G0Element.deserialize(r.section())
    deltas = _Reader(r.section())
    gate_links: Dict[int, G0Element] = {}
    for _ in range(deltas.u32()):
        nid = deltas.u32()
        gate_links[nid] = G0Element.deserialize(deltas.take(G0_BYTES))
    deltas.done()
    leaves = _Reader(r.section())
    leaf_components: Dict[int, Tuple[G0Element, G0Element]] = {}
    for _ in range(leaves.u32()):
        nid = leaves.u32()
        a = G0Element.deserialize(leaves.take(G0_BYTES))
        b = G0Element.deserialize(leaves.take(G0_BYTES))
        leaf_components[nid] = (a, b)
    leaves.done()
    r.done()
    if bool(flags & FLAG_SENTINEL) != (index == block_count):
        raise DecodeError("sentinel flag inconsistent with block index")
    try:
        ctb = CiphertextBlock(
            index=index,
            block_count=block_count,
            total_len=total_len,
            block_len=block_len,
            suite=suite,
            descriptor=descriptor,
            masked_payload=masked_payload,
            encap=encap,
            gate_links=gate_links,
            leaf_components=leaf_components,
            commitment=commitment,
        )
    except ValueError as exc:
        raise DecodeError(str(exc)) from None
    return ctb, message_id


# ---------------------------------------------------------------------------
# key files
# ---------------------------------------------------------------------------

def _key_frame(kind: int, body: bytes) -> bytes:
    return (KEY_MAGIC + struct.pack(">BH", kind, WIRE_VERSION)
            + _section(SUITE_ID.encode("ascii")) + _section(body))


def _key_unframe(data: bytes, kind: int) -> bytes:
    r = _Reader(data)
    if r.take(4) != KEY_MAGIC:
        raise DecodeError("bad magic")
    got_kind, version = struct.unpack(">BH", r.take(3))
    if version != WIRE_VERSION:
        raise DecodeError(f"unsupported key file version {version}")
    if got_kind != kind:
        raise DecodeError(f"wrong key file kind {got_kind}, expected {kind}")
    suite = _text(r.section(), "ascii")
    if suite != SUITE_ID:
        raise DecodeError(f"unknown suite {suite!r}")
    body = r.section()
    r.done()
    return body


def encode_public_key(pk: PublicKey) -> bytes:
    return _key_frame(_KIND_PK, pk.g.serialize() + pk.h.serialize() + pk.egg_alpha.serialize())


def decode_public_key(data: bytes) -> PublicKey:
    r = _Reader(_key_unframe(data, _KIND_PK))
    g = G0Element.deserialize(r.take(G0_BYTES))
    h = G0Element.deserialize(r.take(G0_BYTES))
    egg_alpha = GTElement.deserialize(r.take(GT_BYTES))
    r.done()
    return PublicKey(suite=SUITE_ID, g=g, h=h, egg_alpha=egg_alpha)


def encode_master_key(mk: MasterKey) -> bytes:
    return _key_frame(_KIND_MK, mk.beta.serialize() + mk.g_alpha.serialize()
                      + mk.q.serialize() + mk.k.serialize())


def decode_master_key(data: bytes) -> MasterKey:
    r = _Reader(_key_unframe(data, _KIND_MK))
    beta = Scalar.deserialize(r.take(SCALAR_BYTES))
    g_alpha = G0Element.deserialize(r.take(G0_BYTES))
    q = Scalar.deserialize(r.take(SCALAR_BYTES))
    k = Scalar.deserialize(r.take(SCALAR_BYTES))
    r.done()
    return MasterKey(beta=beta, g_alpha=g_alpha, q=q, k=k)


def encode_secret_key(sk: SecretKey) -> bytes:
    parts = [sk.d.serialize(), sk.d_hat.serialize(), struct.pack(">I", len(sk.components))]
    for attr in sorted(sk.components):
        encoded = attr.encode("utf-8")
        a, b = sk.components[attr]
        parts.append(struct.pack(">H", len(encoded)) + encoded + a.serialize() + b.serialize())
    return _key_frame(_KIND_SK, b"".join(parts))


def decode_secret_key(data: bytes) -> SecretKey:
    r = _Reader(_key_unframe(data, _KIND_SK))
    d = G0Element.deserialize(r.take(G0_BYTES))
    d_hat = G0Element.deserialize(r.take(G0_BYTES))
    components = {}
    for _ in range(r.u32()):
        attr = _text(r.take(r.u16()), "utf-8")
        a = G0Element.deserialize(r.take(G0_BYTES))
        b = G0Element.deserialize(r.take(G0_BYTES))
        components[attr] = (a, b)
    r.done()
    return SecretKey(d=d, d_hat=d_hat, components=components, attrs=frozenset(components))


def encode_encryption_context(ctx: EncryptionContext) -> bytes:
    return _key_frame(_KIND_CTX, ctx.q.serialize() + ctx.k.serialize())


def decode_encryption_context(data: bytes) -> EncryptionContext:
    r = _Reader(_key_unframe(data, _KIND_CTX))
    q = Scalar.deserialize(r.take(SCALAR_BYTES))
    k = Scalar.deserialize(r.take(SCALAR_BYTES))
    r.done()
    return EncryptionContext(suite=SUITE_ID, q=q, k=k)


def encode_verification_tuple(v: VerificationTuple) -> bytes:
    return _key_frame(_KIND_VTUPLE, v.v1.serialize() + v.v2.serialize())


def decode_verification_tuple(data: bytes) -> VerificationTuple:
    r = _Reader(_key_unframe(data, _KIND_VTUPLE))
    v1 = G0Element.deserialize(r.take(G0_BYTES))
    v2 = G0Element.deserialize(r.take(G0_BYTES))
    r.done()
    return VerificationTuple(v1=v1, v2=v2)
