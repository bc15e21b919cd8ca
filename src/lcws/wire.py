"""Bit-exact wire formats for ciphertext blocks and key files.

All integers are big-endian; every variable-length section carries a 4-byte
length prefix.  Maps are sorted by node id or attribute, a block's flags byte
is the one its position gives, and its header states the block length its
total length and block count give; decoding rejects anything else, so parse
then serialize is identity.

Decoding checks structure: a descriptor keeps `policy.tree_fault`, a block
`CiphertextBlock`'s shape.  A source-group point is checked for its prefix,
length, canonical identity and x < q here, and is proven to lie in the
prime-order subgroup on its first arithmetic use (block 1's commitment at
once), so a point no decryption reads costs no square root or subgroup check.
A secret key is decoded once per key file for the life of the process (see
`decode_secret_key`).
"""

from __future__ import annotations

import struct
from functools import lru_cache, partial
from typing import Tuple

from .algebra import G0_BYTES, GT_BYTES, SCALAR_BYTES, SUITE_ID, G0Element, GTElement, Scalar
from .errors import DecodeError
from .policy import NodeDescriptor, check_attributes, tree_fault
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

_KIND_SK = 3                     # the other key file kinds are rows of _KEY_LAYOUTS


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


def _canonical_map(entries) -> dict:
    """A map from its (key, value) entries as read, keys strictly increasing."""
    keys = [key for key, _ in entries]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise DecodeError("map keys not strictly increasing")
    return dict(entries)


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
    for _ in range(count):
        node_id, parent_id, index = struct.unpack(">IIH", r.take(10))
        kind = r.u8()
        if kind == 0:
            attr = _text(r.take(r.u16()), "utf-8")
            out.append(NodeDescriptor(node_id, parent_id, index, attr, None))
        elif kind == 1:
            out.append(NodeDescriptor(node_id, parent_id, index, None, r.u16()))
        else:
            raise DecodeError(f"unknown node kind {kind}")
    r.done()
    return tuple(out)


def _flags(index: int, block_count: int) -> int:
    """The flags byte a block's position gives: the commitment flag on block
    1, the sentinel flag on the last block."""
    return (FLAG_COMMITMENT if index == 1 else 0) | (FLAG_SENTINEL if index == block_count else 0)


def encode_ctb(ctb: CiphertextBlock, message_id: str) -> bytes:
    parts = [
        CTB_MAGIC,
        struct.pack(">H", WIRE_VERSION),
        _section(SUITE_ID.encode("ascii")),
        _section(message_id.encode("ascii")),
        struct.pack(">IIB", ctb.index, ctb.block_count, _flags(ctb.index, ctb.block_count)),
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
    if flags != _flags(index, block_count):
        raise DecodeError(f"flags {flags:#04x} do not fit block {index} of {block_count}")
    header = _Reader(r.section())
    total_len = header.u64()
    block_len = header.u32()
    header.done()
    descriptor = _decode_descriptor(r.section())
    fault = tree_fault({index: descriptor})
    if fault:
        raise DecodeError("block %d: %s" % fault)
    masked_payload = r.section()
    encap = G0Element.deserialize(r.section())
    commitment = None
    if flags & FLAG_COMMITMENT:
        # points are otherwise validated on first use; a message whose
        # commitment is invalid can never be verified, so reject it here
        commitment = G0Element.deserialize(r.section())
        commitment.validate()
    deltas = _Reader(r.section())
    gate_links = _canonical_map([
        (deltas.u32(), G0Element.deserialize(deltas.take(G0_BYTES)))
        for _ in range(deltas.u32())])
    deltas.done()
    leaves = _Reader(r.section())
    leaf_components = _canonical_map([
        (leaves.u32(), (G0Element.deserialize(leaves.take(G0_BYTES)),
                        G0Element.deserialize(leaves.take(G0_BYTES))))
        for _ in range(leaves.u32())])
    leaves.done()
    r.done()
    try:
        ctb = CiphertextBlock(
            index=index,
            block_count=block_count,
            total_len=total_len,
            descriptor=descriptor,
            masked_payload=masked_payload,
            encap=encap,
            gate_links=gate_links,
            leaf_components=leaf_components,
            commitment=commitment,
        )
    except ValueError as exc:
        raise DecodeError(str(exc)) from None
    if block_len != ctb.block_len:
        raise DecodeError(f"header block length {block_len}, not {ctb.block_len}")
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


# each fixed-width key file: its kind byte, then its (field, type) pairs in wire order
_KEY_LAYOUTS = {
    PublicKey: (1, (("g", G0Element), ("h", G0Element), ("egg_alpha", GTElement))),
    MasterKey: (2, (("beta", Scalar), ("g_alpha", G0Element), ("q", Scalar), ("k", Scalar))),
    EncryptionContext: (4, (("q", Scalar), ("k", Scalar))),
    VerificationTuple: (5, (("v1", G0Element), ("v2", G0Element))),
}
_WIDTHS = {G0Element: G0_BYTES, GTElement: GT_BYTES, Scalar: SCALAR_BYTES}


def _encode_key_file(record) -> bytes:
    kind, fields = _KEY_LAYOUTS[type(record)]
    return _key_frame(kind, b"".join(getattr(record, name).serialize() for name, _ in fields))


def _decode_key_file(record_type, data: bytes):
    kind, fields = _KEY_LAYOUTS[record_type]
    r = _Reader(_key_unframe(data, kind))
    values = {name: cls.deserialize(r.take(_WIDTHS[cls])) for name, cls in fields}
    r.done()
    return record_type(**values)


encode_public_key = encode_master_key = _encode_key_file
encode_encryption_context = encode_verification_tuple = _encode_key_file
decode_public_key = partial(_decode_key_file, PublicKey)
decode_master_key = partial(_decode_key_file, MasterKey)
decode_encryption_context = partial(_decode_key_file, EncryptionContext)
decode_verification_tuple = partial(_decode_key_file, VerificationTuple)


def encode_secret_key(sk: SecretKey) -> bytes:
    parts = [sk.d.serialize(), sk.d_hat.serialize(), struct.pack(">I", len(sk.components))]
    for attr in sorted(sk.components):
        encoded = attr.encode("utf-8")
        a, b = sk.components[attr]
        parts.append(struct.pack(">H", len(encoded)) + encoded + a.serialize() + b.serialize())
    return _key_frame(_KIND_SK, b"".join(parts))


# key files a process keeps decoded; a receiver holds one or a few
_KEY_MEMO = 16


@lru_cache(maxsize=_KEY_MEMO)
def decode_secret_key(data: bytes) -> SecretKey:
    """The key in a key file, memoised on the file's bytes: decoding the
    same bytes again returns the same key, whose points keep their checks,
    so a receiver pays for them once per key file, not once per message.
    A point that fails its check keeps nothing and fails again on every use.  The attributes keep
    the rule `keygen` applies (`policy.check_attributes`): a key no policy
    can name is refused here, as a block naming such a leaf is."""
    r = _Reader(_key_unframe(data, _KIND_SK))
    d = G0Element.deserialize(r.take(G0_BYTES))
    d_hat = G0Element.deserialize(r.take(G0_BYTES))
    components = _canonical_map([
        (_text(r.take(r.u16()), "utf-8"), (G0Element.deserialize(r.take(G0_BYTES)),
                                           G0Element.deserialize(r.take(G0_BYTES))))
        for _ in range(r.u32())])
    r.done()
    try:
        check_attributes(components)
    except ValueError as exc:
        raise DecodeError(str(exc)) from None
    return SecretKey(d=d, d_hat=d_hat, components=components)
