import hashlib
import random
from math import gcd

import pytest

from lcws import algebra as alg
from lcws.algebra import G0Element, GTElement, Scalar
from lcws.errors import DecodeError

from helpers import (affine_add, affine_mul_naf, affine_neg, fq2_pow_naf, is_zero, naf_msb,
                     random_curve_point, random_scalar, reduced)

G = alg.generator()
E_GG = alg.pair(G, G)

# canonical encoding of the suite generator; must never change
GENERATOR_HEX = (
    "034ecbcfdaed2441bed7d03f3a6e63e08c73f507d35ccf8ada817b61c18f301ee1"
    "f278b7c8ca2ab9d4224015b2a9a2fed055a2e00aca7e62976914ce45e5d0dda5"
)


def test_suite_parameters_consistent():
    assert alg.FIELD_PRIME % 4 == 3
    assert alg.FIELD_PRIME + 1 == alg.COFACTOR * alg.ORDER
    assert alg.SCALAR_BYTES == 20
    assert alg.G0_BYTES == 65
    assert alg.GT_BYTES == 128


def test_pair_small_exponents():
    assert alg.pair(G ** 2, G ** 3) == E_GG ** 6


def test_pair_identity_argument():
    assert alg.pair(G, G0Element.identity()).is_identity()
    assert alg.pair(G0Element.identity(), G).is_identity()
    assert alg.pair(G, G ** 0).is_identity()


def test_pair_nondegenerate():
    assert not E_GG.is_identity()


def test_bilinearity_and_symmetry_random():
    rng = random.Random(101)
    for _ in range(100):
        a = alg.random_nonzero_scalar(rng)
        b = alg.random_nonzero_scalar(rng)
        u = G ** alg.random_nonzero_scalar(rng)
        v = G ** alg.random_nonzero_scalar(rng)
        lhs = alg.pair(u ** a, v ** b)
        assert lhs == alg.pair(u, v) ** (a * b)
        assert lhs == alg.pair(v ** b, u ** a)


def test_group_exponent_laws():
    rng = random.Random(7)
    a = random_scalar(rng)
    b = random_scalar(rng)
    assert G ** (a + b) == (G ** a) * (G ** b)
    # chained multiplications agree with one exponentiation
    acc = G0Element.identity()
    for _ in range(13):
        acc = acc * G
    assert acc == G ** 13


def test_identity_is_neutral_on_either_side():
    assert G * G0Element.identity() == G0Element.identity() * G == G


def test_scalar_field_laws():
    rng = random.Random(8)
    a = alg.random_nonzero_scalar(rng)
    b = alg.random_nonzero_scalar(rng)
    assert (a * b) * a.inverse() == b
    assert a * a.inverse() == Scalar(1)
    assert is_zero(a - a)
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_hash_deterministic_and_domain_separated():
    h1 = alg.hash_to_g0(alg.TAG_MESSAGE, b"payload")
    h2 = alg.hash_to_g0(alg.TAG_MESSAGE, b"payload")
    assert h1 == h2
    assert alg.hash_to_g0(alg.TAG_MESSAGE, b"m") != alg.hash_to_g0(alg.TAG_ATTRIBUTE, b"m")


def test_hash_output_obeys_group_law():
    h = alg.hash_to_g0(alg.TAG_ATTRIBUTE, b"temperature")
    assert h ** 2 == h * h
    # hashed points land in the prime-order subgroup
    assert (h ** alg.ORDER).is_identity()


def test_kdf_deterministic_and_involutive():
    k = E_GG ** 42
    assert alg.kdf_mask(k, 64) == alg.kdf_mask(k, 64)
    payload = bytes(range(48))
    mask = alg.kdf_mask(k, len(payload))
    assert alg.xor_bytes(alg.xor_bytes(payload, mask), mask) == payload
    with pytest.raises(ValueError):
        alg.kdf_mask(k, 0)


def test_xor_refuses_operands_of_unequal_length():
    with pytest.raises(ValueError, match="equal length"):
        alg.xor_bytes(bytes(4), bytes(3))


def test_kdf_distinct_keys_distinct_streams():
    rng = random.Random(55)
    prefixes = set()
    for _ in range(100):
        k = E_GG ** alg.random_nonzero_scalar(rng)
        prefixes.add(alg.kdf_mask(k, 32))
    assert len(prefixes) == 100


def test_serialize_round_trips():
    rng = random.Random(9)
    for _ in range(5):
        s = random_scalar(rng)
        assert Scalar.deserialize(s.serialize()) == s
        p = G ** alg.random_nonzero_scalar(rng)
        assert G0Element.deserialize(p.serialize()) == p
        t = E_GG ** alg.random_nonzero_scalar(rng)
        assert GTElement.deserialize(t.serialize()) == t
    assert G0Element.deserialize(G0Element.identity().serialize()).is_identity()


def test_generator_encoding_is_frozen():
    assert G.serialize().hex() == GENERATOR_HEX
    assert alg.generator() == G


def test_decode_rejects_bad_input():
    with pytest.raises(DecodeError):
        Scalar.deserialize(b"\x00" * 19)                      # truncated
    with pytest.raises(DecodeError):
        Scalar.deserialize(alg.ORDER.to_bytes(20, "big"))     # out of range
    with pytest.raises(DecodeError):
        Scalar.deserialize(bytes(20))                         # zero
    good = (G ** 5).serialize()
    with pytest.raises(DecodeError):
        G0Element.deserialize(good[:-1])
    with pytest.raises(DecodeError):
        G0Element.deserialize(b"\x05" + good[1:])             # bad prefix
    with pytest.raises(DecodeError):
        G0Element.deserialize(b"\x00" + b"\x01" * 64)         # junk identity
    with pytest.raises(DecodeError):
        G0Element.deserialize(b"\x02" + alg.FIELD_PRIME.to_bytes(64, "big"))  # x >= q
    bad_x = bytearray(good)
    bad_x[-1] ^= 1
    # flipping an x bit leaves the curve or at best the prime-order subgroup;
    # decode checks structure only, and the first use of the point finds it
    lazy = G0Element.deserialize(bytes(bad_x))
    with pytest.raises(DecodeError):
        lazy ** 2
    t = (E_GG ** 3).serialize()
    with pytest.raises(DecodeError):
        GTElement.deserialize(t[:-1])
    corrupted = bytearray(t)
    corrupted[10] ^= 0xFF
    with pytest.raises(DecodeError):
        GTElement.deserialize(bytes(corrupted))
    q = alg.FIELD_PRIME.to_bytes(64, "big")
    for coords in (q + t[64:], t[:64] + q):                   # a coordinate >= q
        with pytest.raises(DecodeError, match="coordinate out of range"):
            GTElement.deserialize(coords)


def test_gt_inverse_and_division():
    rng = random.Random(12)
    x = E_GG ** alg.random_nonzero_scalar(rng)
    assert (x * x.inverse()).is_identity()
    y = E_GG ** alg.random_nonzero_scalar(rng)
    assert (x / y) * y == x


# ---------------------------------------------------------------------------
# point decode: the x-only subgroup check against the [ORDER]P == O oracle
# ---------------------------------------------------------------------------

_GROUP_ORDER = alg.FIELD_PRIME + 1
_SMALL_ORDERS = (2, 4, 8, 3, 6, 12, 24, 17, 34, 51)


def _mul(p, k):
    """Plain double-and-add [k]P for k >= 1; None is the identity."""
    if k == 1:
        return p
    return affine_mul_naf(p, naf_msb(k))


def _oracle_in_subgroup(p):
    return _mul(p, alg.ORDER) is None


def _point_of_order(d, rng):
    """[(q + 1) / d]R for random points R until the result has order exactly d."""
    primes = [p for p in (2, 3, 17) if d % p == 0]
    while True:
        t = _mul(random_curve_point(rng), _GROUP_ORDER // d)
        if t is not None and _mul(t, d) is None and all(_mul(t, d // p) is not None for p in primes):
            return t


def _decodes(point):
    try:
        G0Element.deserialize(G0Element(point).serialize()).validate()
    except DecodeError:
        return False
    return True


def test_subgroup_check_exponents_share_only_3_and_17_with_group_order():
    assert alg.ORDER == 2 ** 159 + 2 ** 107 + 1
    assert gcd(2 ** 159 + 2 ** 107 - 1, _GROUP_ORDER) == 3
    assert gcd(2 ** 159 - 2 ** 107 - 1, _GROUP_ORDER) == 17
    assert gcd(2 ** 159 - 2 ** 107 + 1, _GROUP_ORDER) == 1


def _subgroup_test_points(rng):
    """Subgroup points, random curve points, (0, 0), points of small order
    and subgroup points plus those: (all, subgroup, small)."""
    subgroup = [(G ** alg.random_nonzero_scalar(rng))._p for _ in range(8)]
    small = [_point_of_order(d, rng) for d in _SMALL_ORDERS]
    cases = (subgroup
             + [random_curve_point(rng) for _ in range(20)]
             + [(0, 0)]
             + small
             + [affine_add(s, t) for s, t in zip(subgroup * 2, small)])
    return cases, subgroup, small


def test_subgroup_check_matches_oracle():
    cases, subgroup, small = _subgroup_test_points(random.Random(31))
    for point in cases:
        assert _decodes(point) == _oracle_in_subgroup(point), point
    assert all(_decodes(p) for p in subgroup)
    assert not any(_decodes(p) for p in small)


def test_miller_loop_refuses_exactly_the_points_outside_the_subgroup():
    # the loop of f_{ORDER, P} computes [ORDER]P, and it ends as the loop of a
    # point of order ORDER ends for no other point, on the same set as the
    # x-only subgroup test and the [ORDER]P == O oracle
    cases, subgroup, small = _subgroup_test_points(random.Random(31))
    for point in cases:
        try:
            lines = alg._lines(point)
        except DecodeError:
            lines = None
        member = _oracle_in_subgroup(point)
        assert (lines is not None) == member, point
        if point != (0, 0):
            assert alg._in_prime_subgroup(point[0]) == member, point
    assert len(cases) == 49 and sum(map(_oracle_in_subgroup, cases)) == len(subgroup)


def test_every_arithmetic_entry_point_validates_a_decoded_point():
    # decode checks structure only; an x off the curve, the point of order 2
    # and a point outside the prime-order subgroup all decode, encode back to
    # their bytes, and fail with DecodeError at every first use that needs a
    # subgroup point: arithmetic, validation, and a pairing that puts the
    # element in the Miller position.  A pairing that only evaluates the
    # element needs a curve point with x != 0, so there the first two fail
    # and the third pairs as its subgroup part, and is still refused by
    # every later use of the first kind
    q = alg.FIELD_PRIME
    off_curve = next(x for x in range(1, 100) if pow(x * x * x + x, (q - 1) // 2, q) != 1)
    outside = random_curve_point(random.Random(46))
    assert not _oracle_in_subgroup(outside)
    encodings = [b"\x02" + off_curve.to_bytes(64, "big"), G0Element((0, 0)).serialize(),
                 G0Element(outside).serialize()]
    one = G0Element.identity()
    plain = G ** 5                          # keeps no lines, so it stays where it is put
    subgroup_uses = [
        lambda e: e ** 3, lambda e: e ** 0, lambda e: e * G, lambda e: G * e,
        lambda e: e.fixed_base() ** 2, lambda e: e.validate(),
        lambda e: alg.pair(e, plain), lambda e: alg.pair_ratio(plain, G, e, plain),
        lambda e: alg.pair(e.fixed_base(), G), lambda e: alg.pair(plain, e.fixed_base())]
    evaluated_uses = [
        lambda e: alg.pair(e, G), lambda e: alg.pair(G, e), lambda e: alg.pair(plain, e),
        lambda e: alg.pair(e, one), lambda e: alg.pair(one, e),
        lambda e: alg.pair_ratio(e, G, G, G), lambda e: alg.pair_ratio(G, e, G, G),
        lambda e: alg.pair_ratio(G, G, e, G), lambda e: alg.pair_ratio(G, G, G, e),
        lambda e: alg.pair_ratio(e, one, G, G), lambda e: alg.pair_ratio(G, G, one, e),
        lambda e: alg.pair(G, e.fixed_base())]
    for data in encodings:
        for use in subgroup_uses + evaluated_uses:
            e = G0Element.deserialize(data)
            assert e.serialize() == data and not e.is_identity()
            assert e == G0Element.deserialize(data) and hash(e) == hash(G0Element.deserialize(data))
            for _ in range(2):
                if data == encodings[-1] and use in evaluated_uses:
                    use(e)
                    with pytest.raises(DecodeError, match="subgroup"):
                        e ** 3
                else:
                    with pytest.raises(DecodeError):
                        use(e)
        # making a decoded element a fixed base validates nothing
        fixed = G0Element.deserialize(data).fixed_base()
        assert fixed._point is alg._UNCHECKED and fixed.serialize() == data


def test_a_pairing_evaluates_a_point_as_its_subgroup_part():
    # with a Miller point of order ORDER the pairing is bilinear in the
    # evaluated point over all of E(F_q), so a component of small order
    # pairs to 1, whichever side the point is passed on
    rng = random.Random(49)
    s, plain = (G ** alg.random_nonzero_scalar(rng) for _ in range(2))
    for d in (2, 3, 4, 17, 51):
        mixed = G0Element.deserialize(
            G0Element(affine_add(s._p, _point_of_order(d, rng))).serialize())
        assert alg.pair(G, mixed) == alg.pair(mixed, G) == alg.pair(G, s)
        assert alg.pair(plain, mixed) == alg.pair(plain, s)
        assert alg.pair_ratio(plain, mixed, mixed, G) == alg.pair_ratio(plain, s, s, G)
        with pytest.raises(DecodeError, match="subgroup"):
            alg.pair(mixed, plain)
    # a Miller point whose loop returns is marked validated; one that is only
    # evaluated is not
    fresh = G0Element.deserialize(s.serialize())
    alg.pair(G, fresh)
    assert fresh._point is alg._UNCHECKED
    alg.pair(fresh, plain)
    assert fresh._point == s._p


# ---------------------------------------------------------------------------
# the pairing engine against the plain Miller loop
# ---------------------------------------------------------------------------

def _miller(p, q):
    """Oracle: f_{ORDER, p} at the distorted image of q in one Miller loop
    that makes and evaluates each line in place (projective tangents and
    secants in Jacobian coordinates, vertical lines skipped)."""
    Q = alg.FIELD_PRIME
    xq, yq = q
    xq_d = (Q - xq) % Q
    f = alg._FQ2_ONE
    X, Y, Z = p[0], p[1], 1
    px, py = p
    npx, npy = px, Q - py
    for d in naf_msb(alg.ORDER):
        Z2 = Z * Z % Q
        Z3 = Z2 * Z % Q
        W = (3 * X * X + Z2 * Z2) % Q
        l_re = (W * ((xq_d * Z2 - X) % Q) + 2 * Y * Y) % Q
        l_im = Q - (2 * Y % Q) * Z3 % Q * yq % Q
        f = alg._fq2_mul(alg._fq2_sqr(f), (l_re, l_im % Q))
        Y2 = Y * Y % Q
        S = 4 * X * Y2 % Q
        Xn = (W * W - 2 * S) % Q
        Y, Z = (W * (S - Xn) - 8 * Y2 * Y2) % Q, 2 * Y * Z % Q
        X = Xn
        if d:
            ax, ay = (px, py) if d == 1 else (npx, npy)
            Z1Z1 = Z * Z % Q
            U2 = ax * Z1Z1 % Q
            S2 = ay * Z % Q * Z1Z1 % Q
            if U2 == X and (S2 + Y) % Q == 0:
                X, Y, Z = 0, 1, 0
                continue
            H = (U2 - X) % Q
            rr = (S2 - Y) % Q
            l_re = (rr * ((xq_d - ax) % Q) + ay * H % Q * Z) % Q
            l_im = Q - yq * H % Q * Z % Q
            f = alg._fq2_mul(f, (l_re, l_im % Q))
            HH = H * H % Q
            I = 4 * HH % Q
            J = H * I % Q
            r2 = 2 * rr % Q
            V = X * I % Q
            X3 = (r2 * r2 - J - 2 * V) % Q
            Y3 = (r2 * (V - X3) - 2 * Y * J) % Q
            Z3n = ((Z + H) * (Z + H) - Z1Z1 - HH) % Q
            X, Y, Z = X3, Y3, Z3n
    return f


def _oracle_pair(u, v):
    if u.is_identity() or v.is_identity():
        return GTElement.one()
    return GTElement(alg._final_exponentiation(_miller(u._p, v._p)))


def test_miller_loop_bits_are_the_naf_of_order():
    # no two adjacent ones in ORDER, so the loop's plain bits are its NAF
    assert alg._ORDER_BITS == tuple(naf_msb(alg.ORDER)) == tuple(map(int, bin(alg.ORDER)[3:]))
    assert len(alg._ORDER_BITS) == 159 and set(alg._ORDER_BITS) == {0, 1}


def test_pair_and_pair_ratio_match_the_miller_loop_oracle():
    rng = random.Random(47)
    one = G0Element.identity()
    a, b, c, d = (G ** alg.random_nonzero_scalar(rng) for _ in range(4))
    fixed = {id(e): e.fixed_base() for e in (a, b, c, d, one)}
    cases = [(a, b, c, d), (c, a, d, b), (one, b, c, d), (a, one, c, d), (a, b, one, d),
             (a, b, c, one), (one, b, c, one), (a, b, a, b), (one, one, one, one)]
    # each pair plain, its first, its second or both arguments fixed bases
    sides = [(False, False), (True, False), (False, True), (True, True)]
    for args in cases:
        ab, cd = _oracle_pair(*args[:2]), _oracle_pair(*args[2:])
        for marks in ((s + t) for s in sides for t in sides):
            x, y, z, w = (fixed[id(e)] if m else e for e, m in zip(args, marks))
            assert alg.pair(x, y) == alg.pair(y, x) == ab
            assert alg.pair(z, w) == alg.pair(w, z) == cd
            assert alg.pair_ratio(x, y, z, w) == alg.pair_ratio(y, x, w, z) == ab / cd
            assert alg.pair_ratio(x, y, z, w).serialize() == (ab / cd).serialize()


def test_unreduced_values_take_their_hard_part_once():
    # unreduced_pair_ratio is pair_ratio before the hard part: its products
    # and powers reduce to the target group's, and pair and pair_ratio
    # divide one out before their own hard part
    rng = random.Random(49)
    a, b, c, d, e, f = (G ** alg.random_nonzero_scalar(rng) for _ in range(6))
    one = G0Element.identity()
    u = alg.unreduced_pair_ratio(a, b, c, d)
    w = alg.unreduced_pair_ratio(e, f, one, f)
    ab_cd, ef = alg.pair_ratio(a, b, c, d), alg.pair(e, f)
    assert reduced(u) == ab_cd and reduced(w) == ef
    k = alg.random_nonzero_scalar(rng)
    assert reduced(u ** k * w) == ab_cd ** k * ef
    assert u ** 1 is u and reduced(u ** 0) == GTElement.one()
    assert alg.pair(e, f, over=u) == ef / ab_cd
    assert alg.pair_ratio(a, b, c, d, over=u).is_identity()
    assert alg.pair(one, f, over=w) == ef.inverse()
    # plain Miller points are walked and keep nothing; fixed bases a and c,
    # as a key's components are, are the Miller points on either side, and
    # the bounded cache keeps their tables
    alg._kept_lines.cache_clear()
    alg.unreduced_pair_ratio(a, f, c, f)
    assert alg._kept_lines.cache_info().currsize == 0
    alg.unreduced_pair_ratio(f, a.fixed_base(), c.fixed_base(), f)
    assert alg._kept_lines.cache_info().currsize == 2
    alg.keep_lines(a)
    assert alg._kept_lines.cache_info().hits == 1


def test_unitary_pow_over_a_denominator():
    # (u/n)^k from u and n, with one inversion for both
    rng = random.Random(50)
    q = alg.FIELD_PRIME
    for _ in range(4):
        f = (rng.randrange(1, q), rng.randrange(1, q))
        u = alg._easy_part(f)
        n = rng.randrange(1, q)
        scaled = (u[0] * n % q, u[1] * n % q)
        for k in (0, 1, 2, alg.ORDER, alg.COFACTOR, rng.randrange(alg.ORDER)):
            assert alg._unitary_pow(scaled, k, n) == alg._unitary_pow(u, k), k
    for sign in (1, q - 1):
        n = rng.randrange(1, q)
        assert alg._unitary_pow((sign * n % q, 0), 3, n) == (sign, 0)
        assert alg._unitary_pow((sign * n % q, 0), 2, n) == (1, 0)


def test_lines_recorded_once_per_fixed_base_and_never_kept_on_a_plain_one(monkeypatch):
    # a plain Miller point is walked once per pairing, in the loop that
    # evaluates it, and keeps nothing; a fixed base's walk is recorded as
    # its point's kept table on its first pairing only
    alg._kept_lines.cache_clear()
    walked, kept = [], []
    real_walk, real_lines = alg._walk, alg._lines
    monkeypatch.setattr(alg, "_walk", lambda p: walked.append(p) or real_walk(p))
    monkeypatch.setattr(alg, "_lines", lambda p: kept.append(p) or real_lines(p))
    rng = random.Random(48)
    plain, other = (G ** alg.random_nonzero_scalar(rng) for _ in range(2))
    expected = alg.pair(plain, other)
    walked.clear()
    for _ in range(3):
        assert alg.pair(plain, other) == expected
        assert alg.pair_ratio(other, plain, plain, other).is_identity()
    assert len(walked) == 9 and not kept
    fixed = plain.fixed_base()
    assert alg._kept_lines.cache_info().currsize == 0
    walked.clear()
    for _ in range(3):
        assert alg.pair(other, fixed) == expected
        assert alg.pair_ratio(fixed, other, other, fixed).is_identity()
    assert walked == kept == [fixed._p]
    # kept lines are normalised to (a/c, b/c) and packed: 160 lines, 20 KiB
    q = alg.FIELD_PRIME
    table = alg._kept_lines(fixed._p)
    assert len(table) == 160 * 2 * 64 and alg._kept_lines.cache_info().currsize == 1
    assert alg._coefficients(table) == [
        v for row in real_walk(fixed._p) for line in row if line
        for v in (line[0] * pow(line[2], -1, q) % q, line[1] * pow(line[2], -1, q) % q)]
    # the table is its point's: the plain element on that point, once a fixed
    # base, and the generator find theirs kept by their first pairing
    assert alg.pair(other, plain.fixed_base()) == expected
    alg.pair(other, G)
    alg.pair(G, other)
    assert kept == [fixed._p, G._p]


# ---------------------------------------------------------------------------
# hash to G0 and the unitary powers against the NAF oracles
# ---------------------------------------------------------------------------

_NAF_COFACTOR = naf_msb(alg.COFACTOR)


def _oracle_hash_to_curve(tag, msg):
    """Try-and-increment with a square root per counter and [COFACTOR]P by NAF."""
    q = alg.FIELD_PRIME
    for counter in range(256):
        framed = alg._H2C_PREFIX + bytes([len(tag)]) + tag + msg + bytes([counter])
        x = int.from_bytes(hashlib.sha512(framed).digest(), "big") % q
        rhs = (x * x * x + x) % q
        y = pow(rhs, alg._SQRT_EXP, q)
        if y * y % q != rhs:
            continue
        cleared = affine_mul_naf((x, q - y if y & 1 else y), _NAF_COFACTOR)
        if cleared is not None:
            return cleared
    raise AssertionError("no counter gave a point")


def test_hash_to_curve_matches_the_naf_oracle():
    rng = random.Random(61)
    tags = (alg.TAG_ATTRIBUTE, alg.TAG_MESSAGE, b"", bytes(range(255)))
    for i in range(200):
        tag, msg = tags[i % 4], rng.randbytes(rng.randrange(64))
        assert alg._hash_to_curve(tag, msg) == _oracle_hash_to_curve(tag, msg), (tag, msg)
    assert G._p == _oracle_hash_to_curve(alg._TAG_GENERATOR, alg.SUITE_ID.encode("ascii"))


def test_hash_rejects_a_domain_tag_over_255_bytes():
    with pytest.raises(ValueError, match="limit is 255"):
        alg.hash_to_g0(b"t" * 256, b"m")
    assert not alg.hash_to_g0(b"t" * 255, b"m").is_identity()


def test_cofactor_ladder_matches_the_naf_oracle_on_points_of_every_order():
    rng = random.Random(62)
    subgroup = [(G ** alg.random_nonzero_scalar(rng))._p for _ in range(4)]
    small = [_point_of_order(d, rng) for d in _SMALL_ORDERS]
    mixed = [affine_add(s, t) for s, t in zip(subgroup * 3, small)]
    cases = small + mixed + subgroup + [random_curve_point(rng) for _ in range(10)]
    for point in cases + [affine_neg(p) for p in cases]:
        assert alg._ladder(point, alg.COFACTOR) == affine_mul_naf(point, _NAF_COFACTOR), point
    # [COFACTOR]P is the identity exactly on the points of small order
    assert all(alg._ladder(p, alg.COFACTOR) is None for p in small)
    assert not any(alg._ladder(p, alg.COFACTOR) is None for p in mixed + subgroup)


def test_ladder_matches_the_naf_oracle_on_one_use_exponents():
    rng = random.Random(65)
    subgroup = [(G ** alg.random_nonzero_scalar(rng))._p for _ in range(3)]
    points = subgroup + [random_curve_point(rng) for _ in range(3)]
    small = [_point_of_order(d, rng) for d in _SMALL_ORDERS]
    exponents = (1, 2, 3, alg.ORDER - 2, alg.ORDER - 1, rng.getrandbits(160) | 1 << 159,
                 alg.COFACTOR)
    for point in points + small:
        for k in exponents:
            assert alg._ladder(point, k) == _mul(point, k), (point, k)
    # k = ORDER - 1 takes the branch where [k + 1]P is the identity: -P
    assert all(alg._ladder(p, alg.ORDER - 1) == affine_neg(p) for p in subgroup)
    assert alg._ladder(small[0], 3) == small[0] and alg._ladder(small[0], 2) is None


def test_one_use_power_equals_the_comb_power_and_builds_no_table(monkeypatch):
    # a plain element, neither a fixed base nor an attribute hash, is raised
    # by the ladder; the generator's wide comb gives the same powers
    rng = random.Random(66)
    logs = [alg.random_nonzero_scalar(rng) for _ in range(3)]
    bases = [G ** a for a in logs]
    expected = [[G ** (a.value * alg._exponent(k)) for k in _exponents(67)] for a in logs]
    monkeypatch.setattr(alg, "_build_comb", None)
    monkeypatch.setattr(alg, "_comb_table", None)
    for base, powers in zip(bases, expected):
        one_use = [base ** k for k in _exponents(67)]
        assert [p.serialize() for p in one_use] == [p.serialize() for p in powers]
    assert not any(base._teeth for base in bases)
    assert G0Element.identity() ** 5 == G0Element.identity()
    corrupt = bytearray(G.serialize())
    corrupt[-1] ^= 1
    with pytest.raises(DecodeError):
        G0Element.deserialize(bytes(corrupt)) ** 5


def test_verifier_base_is_the_generator_over_the_cofactor():
    g_prime = alg._G_PRIME
    assert G0Element(g_prime._p) ** alg.COFACTOR == G
    # a fixed base that is never raised: a check builds no comb table
    assert g_prime.fixed_base() is g_prime and g_prime._teeth == alg._WIDE_TEETH
    v1, v2 = G ** 3, G ** 5
    alg._comb_table.cache_clear()
    alg.check_message_pairing(b"a message", v1, v2)
    assert alg._comb_table.cache_info().currsize == 0


def test_unitary_pow_matches_the_naf_oracle():
    rng = random.Random(63)
    q = alg.FIELD_PRIME
    units = [(1, 0), (q - 1, 0), (0, 1), (0, q - 1), E_GG._v]
    for _ in range(6):
        f = (rng.randrange(1, q), rng.randrange(1, q))
        units.append(alg._fq2_mul(alg._fq2_conj(f), alg._fq2_inv(f)))
    for u in units:
        assert (u[0] * u[0] + u[1] * u[1]) % q == 1
        for k in (0, 1, 2, 3, alg.ORDER - 1, alg.ORDER, alg.COFACTOR, rng.randrange(alg.ORDER)):
            expected = alg._FQ2_ONE if k == 0 else fq2_pow_naf(u, naf_msb(k))
            assert alg._unitary_pow(u, k) == expected, (u, k)


def test_jacobi_agrees_with_euler_criterion():
    rng = random.Random(64)
    for n in (3, 5, 7, 11, 13, 17, 19, 23, 10007, alg.FIELD_PRIME):
        values = [0, n, 1, n - 1, -1, 2 * n + 3] + [rng.randrange(n) for _ in range(100)]
        values += [v * v for v in values]
        symbols = set()
        for a in values:
            euler = pow(a, (n - 1) // 2, n)
            symbols.add(alg._jacobi(a, n))
            assert alg._jacobi(a, n) == (-1 if euler == n - 1 else euler), (a, n)
        assert symbols == {-1, 0, 1}


# ---------------------------------------------------------------------------
# hash cache
# ---------------------------------------------------------------------------

def test_message_hashes_bypass_the_cache():
    before = alg._hash_to_point.cache_info().currsize
    alg.hash_to_g0(alg.TAG_MESSAGE, b"a message seen once " + bytes(range(64)))
    assert alg._hash_to_point.cache_info().currsize == before
    alg.hash_to_g0(alg.TAG_ATTRIBUTE, b"attribute seen once")
    assert alg._hash_to_point.cache_info().currsize == min(before + 1, 4096)


# ---------------------------------------------------------------------------
# fixed-base tables: the public key's wide combs and the shared 4 x 40 LRU
# ---------------------------------------------------------------------------

def _exponents(seed):
    rng = random.Random(seed)
    edges = (0, 1, 2, alg.ORDER - 1, alg.ORDER, alg.ORDER + 1, -1)
    return edges + tuple(random_scalar(rng) for _ in range(6))


def _oracle_pow(point, k):
    e = (k.value if isinstance(k, Scalar) else k) % alg.ORDER
    return None if e == 0 else _mul(point, e)


def test_wide_g0_comb_matches_generic_path(suite):
    pk = suite[0]
    for base in (pk.g, pk.h):
        generic = G0Element(base._p)
        for k in _exponents(41):
            assert base ** k == generic ** k
            assert (base ** k)._p == _oracle_pow(base._p, k)
    assert pk.g._teeth == pk.h._teeth == alg._WIDE_TEETH
    assert len(alg._comb_table(pk.g._p, 8)) == len(alg._comb_table(pk.h._p, 8)) == 256


def test_wide_gt_comb_matches_generic_path(suite):
    egg_alpha = suite[0].egg_alpha
    generic = GTElement(egg_alpha._v)
    for k in _exponents(42):
        assert egg_alpha ** k == generic ** k
    assert egg_alpha ** alg.ORDER == GTElement.one()
    assert egg_alpha ** 3 == generic * generic * generic
    assert len(egg_alpha._table) == 256


def test_cold_narrow_comb_matches_oracle():
    # hashing a new attribute builds nothing; its first power takes one miss
    # of the shared LRU and each later one a hit; a plain element on the
    # same point takes the ladder and leaves the LRU alone
    rng = random.Random(43)
    powers = sum(1 for k in _exponents(44) if alg._exponent(k))
    for _ in range(3):
        before = alg._comb_table.cache_info()
        attribute = alg.hash_to_g0(alg.TAG_ATTRIBUTE, b"cold comb %d" % rng.getrandbits(64))
        assert alg._comb_table.cache_info() == before
        point = attribute._p
        for k in _exponents(44):
            assert (attribute ** k)._p == _oracle_pow(point, k)
        info = alg._comb_table.cache_info()
        assert info.misses == before.misses + 1 and info.hits == before.hits + powers - 1
        plain = G0Element(point)
        for k in _exponents(44):
            assert (plain ** k)._p == _oracle_pow(point, k)
        assert alg._comb_table.cache_info() == info
    # every entry of both widths is the sum of its row bases [2^(span*j)]P
    for teeth, entries in ((4, range(1, 16)), (8, (1, 2, 128, 3, 0x81, 0xA5, 0xFF))):
        table = alg._build_comb(point, teeth)
        span = 160 // teeth
        assert len(table) == 1 << teeth and table[0] is None
        for b in entries:
            k = sum(1 << (span * j) for j in range(teeth) if b >> j & 1)
            assert table[b] == _mul(point, k)


def test_fixed_base_is_equal_and_idempotent():
    plain = G ** 3
    wide = plain.fixed_base()
    assert wide == plain and hash(wide) == hash(plain) and wide.fixed_base() is wide
    assert not plain._teeth and wide._teeth == alg._WIDE_TEETH
    # the generator is one fixed base, so setup's g and every challenge's
    # generator() ** t share its table
    assert alg.generator() is G and G.fixed_base() is G and G._teeth == alg._WIDE_TEETH
    # an attribute hash is marked with the narrow comb; its fixed base is a
    # new element marked with the wide one, a table of its own in the LRU
    attribute = alg.hash_to_g0(alg.TAG_ATTRIBUTE, b"fixed base of an attribute")
    wide = attribute.fixed_base()
    assert wide is not attribute and wide == attribute and wide.fixed_base() is wide
    assert attribute._teeth == alg._COMB_TEETH and wide._teeth == alg._WIDE_TEETH
    assert wide ** 5 == attribute ** 5 and len(alg._comb_table(wide._p, wide._teeth)) == 256
    egg = E_GG.fixed_base()
    assert egg == E_GG and egg.fixed_base() is egg
    assert G0Element.identity().fixed_base() ** 5 == G0Element.identity()


def test_unitary_power_loop_serves_decode_and_final_exponentiation():
    # a norm-1 element of F_q^2 lies in the target group only after the
    # cofactor power that ends the final exponentiation
    rng = random.Random(45)
    f = (rng.randrange(1, alg.FIELD_PRIME), rng.randrange(1, alg.FIELD_PRIME))
    unit = alg._fq2_mul(alg._fq2_conj(f), alg._fq2_inv(f))
    outside = GTElement(unit).serialize()
    with pytest.raises(DecodeError, match="target subgroup"):
        GTElement.deserialize(outside)
    inside = GTElement(alg._final_exponentiation(f))
    assert GTElement.deserialize(inside.serialize()) == inside
    assert inside ** alg.ORDER == GTElement.one()
