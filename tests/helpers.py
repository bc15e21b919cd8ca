"""Shared generators for random scalars, curve points of any order and
randomized policy/key trials, a tree's leaf attributes, the reduction of
an unreduced pairing value, a recorder of the secrets keygen and
encryption draw, point addition and negation on points of any order, the
plain NAF exponentiations that tests compare the package's ladders and
combs against, the verifier's check as the scheme defines it, the owner's
XOR chain computed apart from the package, and the blocks a receiver holds
open."""

from __future__ import annotations

import contextlib
import random
import struct
from typing import Dict, Iterator, List, Set, Tuple

from lcws import algebra, scheme, wire
from lcws.algebra import Scalar
from lcws.policy import AccessTree, NodeDescriptor, satisfies


def random_scalar(rng) -> Scalar:
    """A uniform scalar, zero included."""
    return Scalar(rng.randrange(algebra.ORDER))


def is_zero(s: Scalar) -> bool:
    return s.value == 0


def affine_add(p, q):
    """P + Q for affine curve points of any order, None the identity, by the
    package's mixed Jacobian addition."""
    if p is None:
        return q
    return algebra._jac_to_affine(algebra._jac_add_affine((*p, 1), q))


def affine_neg(p):
    """-P for an affine curve point, None the identity."""
    return None if p is None else (p[0], -p[1] % algebra.FIELD_PRIME)


def random_curve_point(rng):
    """A uniform affine point of E(F_q), of any order."""
    q = algebra.FIELD_PRIME
    while True:
        x = rng.randrange(q)
        rhs = (x * x * x + x) % q
        y = pow(rhs, algebra._SQRT_EXP, q)
        if y * y % q == rhs:
            return (x, y)


def point_of_prime_order(d, rng):
    """A point of prime order d dividing the cofactor, 3 or 17: [(q + 1) / d]R
    for random curve points R until that is not the identity."""
    while True:
        t = algebra._ladder(random_curve_point(rng), (algebra.FIELD_PRIME + 1) // d)
        if t is not None:
            return t


def naf_msb(k: int) -> list:
    """Non-adjacent form digits of k >= 1, most significant first, without
    the leading 1."""
    digits = []
    while k:
        if k & 1:
            d = 2 - (k & 3)
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits[-2::-1]


def affine_mul_naf(p, naf_digits_msb):
    """[k]P by NAF double-and-add in Jacobian coordinates, from the NAF
    digits of k >= 1 without the leading 1; None is the identity."""
    if p is None:
        return None
    neg = affine_neg(p)
    acc = (p[0], p[1], 1)
    for d in naf_digits_msb:
        acc = algebra._jac_double(acc)
        if d == 1:
            acc = algebra._jac_add_affine(acc, p)
        elif d == -1:
            acc = algebra._jac_add_affine(acc, neg)
    return algebra._jac_to_affine(acc)


def fq2_pow_naf(u, naf_digits_msb):
    """u^k for u of norm 1 in F_q^2 (whose inverse is its conjugate) by NAF
    square-and-multiply, with the digits as for `affine_mul_naf`."""
    inv = algebra._fq2_conj(u)
    acc = u
    for d in naf_digits_msb:
        acc = algebra._fq2_sqr(acc)
        if d == 1:
            acc = algebra._fq2_mul(acc, u)
        elif d == -1:
            acc = algebra._fq2_mul(acc, inv)
    return acc


def reduced(value: algebra.Unreduced) -> algebra.GTElement:
    """The target-group value of an unreduced one: the hard part of the
    final exponentiation, the power by COFACTOR."""
    return algebra.GTElement(algebra._unitary_pow(value._v, algebra.COFACTOR))


def verify_message_reference(message: bytes, v: scheme.VerificationTuple) -> bool:
    """pair(H(m), v2) = pair(v1, g) with the cofactor-cleared H(m) of
    `hash_to_g0`: the check `scheme.verify_message` evaluates without
    clearing the cofactor."""
    h = algebra.hash_to_g0(algebra.TAG_MESSAGE, message)
    return algebra.pair_ratio(h, v.v2, v.v1, algebra.generator()).is_identity()


def partition_message(message: bytes, n: int) -> List[bytes]:
    """The XOR chain by hand: the message zero-padded to n equal segments,
    block 1 the first segment and block i the XOR of segments i - 1 and i."""
    size = -(-len(message) // n)
    padded = message.ljust(size * n, b"\x00")
    segments = [padded[k * size:(k + 1) * size] for k in range(n)]
    return segments[:1] + [bytes(a ^ b for a, b in zip(prev, seg))
                           for prev, seg in zip(segments, segments[1:])]


def without_leaf_component(data: bytes, node_id: int) -> bytes:
    """A block's wire bytes with the leaf-component entry of `node_id`
    dropped from its last section, as a forger would store them."""
    entries = sorted(wire.decode_ctb(data)[0].leaf_components.items())

    def section(entries):
        body = struct.pack(">I", len(entries)) + b"".join(
            struct.pack(">I", nid) + a.serialize() + b.serialize() for nid, (a, b) in entries)
        return struct.pack(">I", len(body)) + body

    old = section(entries)
    assert data.endswith(old)
    return data[:-len(old)] + section([e for e in entries if e[0] != node_id])


def opened(state: scheme.DecryptionState) -> List[int]:
    """Indices of the blocks a receiver holds open, ascending."""
    return sorted(i for i, b in state.blocks.items() if isinstance(b, scheme._OpenedBlock))


class Drawn:
    """Secrets drawn inside one `recording()` block."""

    def __init__(self):
        self.scalars: List[Scalar] = []       # from random_nonzero_scalar, in draw order
        self.shares: Dict[int, Scalar] = {}   # node id -> share, from _poly_shares

    @property
    def r(self) -> Scalar:
        """A key's blinding exponent: keygen's first draw."""
        return self.scalars[0]

    def level_secrets(self) -> Dict[int, Scalar]:
        """Block index -> level secret: encryption draws one per block, in order."""
        return dict(enumerate(self.scalars, start=1))

    def node_shares(self, tree: AccessTree) -> Dict[int, Scalar]:
        """Node id -> share; the root's share is the first level secret."""
        return {tree.root.node_id: self.scalars[0], **self.shares}


@contextlib.contextmanager
def recording() -> Iterator[Drawn]:
    """Wrap the scheme's two sources of secrets for the length of the block:
    `random_nonzero_scalar` (keygen's r and attribute blinding, encryption's
    level secrets) and `_poly_shares` (every node share below the root)."""
    drawn = Drawn()
    real_scalar, real_shares = scheme.random_nonzero_scalar, scheme._poly_shares

    def random_nonzero_scalar(rng):
        drawn.scalars.append(real_scalar(rng))
        return drawn.scalars[-1]

    def poly_shares(share, threshold, children, rng):
        out = real_shares(share, threshold, children, rng)
        drawn.shares.update(out)
        return out

    scheme.random_nonzero_scalar, scheme._poly_shares = random_nonzero_scalar, poly_shares
    try:
        yield drawn
    finally:
        scheme.random_nonzero_scalar, scheme._poly_shares = real_scalar, real_shares


def random_policy(rng: random.Random, max_depth: int = 6, max_leaves: int = 40) -> str:
    """Random policy text within depth and leaf budgets."""
    counter = [0]

    def fresh_attr() -> str:
        counter[0] += 1
        return f"attr{counter[0]:03d}"

    def gen(depth_left: int, leaf_budget: int) -> Tuple[str, int]:
        if depth_left <= 1 or leaf_budget <= 1 or rng.random() < 0.30:
            return fresh_attr(), 1
        arity = rng.randint(2, min(4, leaf_budget))
        parts = []
        used = 0
        for slot in range(arity):
            remaining = leaf_budget - used - (arity - slot - 1)
            text, n = gen(depth_left - 1, max(1, remaining))
            parts.append(text)
            used += n
        kind = rng.random()
        if kind < 0.45:
            return "(" + " AND ".join(parts) + ")", used
        if kind < 0.80:
            return "(" + " OR ".join(parts) + ")", used
        k = rng.randint(1, arity)
        return f"({k} of (" + ", ".join(parts) + "))", used

    text, _ = gen(max_depth, max_leaves)
    return text


def satisfying_attrs(tree: AccessTree, rng: random.Random) -> Set[str]:
    """A minimal-ish attribute set that satisfies the tree: every gate is
    met through a random choice of exactly threshold children."""

    def pick(node: NodeDescriptor) -> Set[str]:
        if node.is_leaf:
            return {node.attribute}
        chosen = rng.sample(tree.children(node.node_id), node.threshold)
        out: Set[str] = set()
        for child in chosen:
            out |= pick(child)
        return out

    attrs = pick(tree.root)
    assert satisfies(tree, attrs)
    return attrs


# attributes no policy can name: a space, punctuation, a keyword, an
# integer, a letter outside ASCII and a comma
UNNAMEABLE_ATTRIBUTES = ["a b", "c(d)", "AND", "of", "123", "é", "a,b"]


def leaf_attributes(tree: AccessTree) -> Set[str]:
    return {n.attribute for level in tree.levels for n in level if n.is_leaf}


def unsatisfying_attrs(tree: AccessTree, rng: random.Random) -> Set[str]:
    """A non-empty attribute set that fails the tree's policy."""
    leaf_attrs = sorted(leaf_attributes(tree))
    for _ in range(64):
        subset = {a for a in leaf_attrs if rng.random() < 0.3}
        if rng.random() < 0.3:
            subset.add("foreign:" + str(rng.randrange(1000)))
        if subset and not satisfies(tree, subset):
            return subset
    return {"foreign:fallback"}
