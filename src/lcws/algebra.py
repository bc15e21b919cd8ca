"""Pairing-enabled group arithmetic.

Fixed suite: the 512-bit supersingular curve y^2 = x^3 + x over F_q with
q = 3 mod 4 and #E(F_q) = q + 1 = cofactor * order (the classic "type A"
parameter set, 160-bit prime-order subgroup).  The pairing is the Tate
pairing composed with the distortion map (x, y) -> (-x, i*y) into
E(F_q^2), which makes the exposed map symmetric: pair(u, v) == pair(v, u)
for all source-group elements.  Scalars live in Z mod `ORDER`.

Everything here is a pure function of its inputs; elements are immutable
and hashable (a decoded source-group element keeps its coordinates once
its first use has checked them, and a target-group fixed base its comb
table).  A source-group element carries only its point and a mark of the
comb it recurs with: none, the attribute comb that `hash_to_g0` marks an
attribute hash with, or the wide one of `fixed_base()`.  Every table of
a source-group point lives in one of two bounded caches keyed by the
point: a marked element's power walks its comb from `_comb_table`, and a
pairing with a marked Miller point reads its packed lines, 20 KiB, from
`_kept_lines`.  An unmarked base takes the x-only ladder, and an
unmarked Miller point is walked in the loop that evaluates it; neither
keeps anything.  So the memory of source-group tables is bounded however
many keys a process reads.

A decoded point is checked as far as its use needs.  Arithmetic (a
product, power, inverse or comb build) needs a point of the prime-order
subgroup, and runs the x-only subgroup test.  A pairing's Miller point
needs the same, and its own loop proves it: `_walk` refuses a point
whose multiple [ORDER]P is not the identity, and a kept table is only
recorded from a walk that ends.  The point a pairing only evaluates needs
to lie on the curve with x != 0, no more: with a Miller point of order
ORDER the reduced Tate pairing is bilinear in its second argument over
all of E(F_q) (Galbraith, Paterson and Smart, "Pairings for
cryptographers", 2008), so a component of any other order pairs to 1,
and the point pairs as its order-ORDER part.

The final exponentiation is an easy part, which lands in the norm-1
group of F_q^2, and a hard part, the power by COFACTOR, which maps that
group onto the target group and is a homomorphism.  So a value that is
only combined with others by products and powers can stay after its easy
part, as an `Unreduced`, and the one quotient that uses it takes the
hard part once (`pair` and `pair_ratio` with `over`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from .errors import DecodeError

SUITE_ID = "ss512-tate-v1"

# Base field prime, subgroup order and cofactor satisfy q + 1 = COFACTOR * ORDER,
# q = 3 (mod 4), ORDER = 2^159 + 2^107 + 1.
FIELD_PRIME = int(
    "8780710799663312522437781984754049815806883199414208211028653399266475630880"
    "2229570786251794226622214231558587695823174592777133673174813249251299982247"
    "91"
)
ORDER = 730750818665451621361119245571504901405976559617
COFACTOR = (FIELD_PRIME + 1) // ORDER

SCALAR_BYTES = 20
G0_BYTES = 65          # 1 prefix byte + 64-byte x coordinate
GT_BYTES = 128         # two 64-byte base-field coordinates
_FQ_BYTES = 64

_Q = FIELD_PRIME
_SQRT_EXP = (_Q + 1) // 4          # valid square roots since q = 3 (mod 4)

TAG_MESSAGE = b"Hv"
TAG_ATTRIBUTE = b"Hatt"
_TAG_GENERATOR = b"gen"

_H2C_PREFIX = b"lcws-h2c-v1"
_KDF_PREFIX = b"lcws-kdf-v1"


# ORDER = 2^159 + 2^107 + 1 has no two adjacent ones, so its NAF is its
# binary form: the Miller loop reads these bits, most significant first,
# without the leading 1
_ORDER_BITS = tuple(map(int, bin(ORDER)[3:]))


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scalar:
    """Residue modulo the group order; exponent domain for both groups."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value < ORDER:
            object.__setattr__(self, "value", self.value % ORDER)

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar((self.value + other.value) % ORDER)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar((self.value - other.value) % ORDER)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.value * other.value % ORDER)

    def inverse(self) -> "Scalar":
        if self.value == 0:
            raise ZeroDivisionError("zero scalar has no inverse")
        return Scalar(pow(self.value, -1, ORDER))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def serialize(self) -> bytes:
        return self.value.to_bytes(SCALAR_BYTES, "big")

    @classmethod
    def deserialize(cls, data: bytes) -> "Scalar":
        if len(data) != SCALAR_BYTES:
            raise DecodeError(f"scalar must be {SCALAR_BYTES} bytes, got {len(data)}")
        v = int.from_bytes(data, "big")
        if not 0 < v < ORDER:                # every stored scalar is nonzero
            raise DecodeError("scalar out of range")
        return cls(v)


def random_nonzero_scalar(rng) -> Scalar:
    return Scalar(rng.randrange(1, ORDER))


# ---------------------------------------------------------------------------
# curve arithmetic (internal, affine/Jacobian tuples over F_q)
# ---------------------------------------------------------------------------
# Affine points are (x, y) tuples; None is the identity.  Jacobian triples
# (X, Y, Z) satisfy x = X/Z^2, y = Y/Z^3.

def _jac_double(p):
    if p is None:
        return None
    X, Y, Z = p
    if Y == 0:
        return None
    Y2 = Y * Y % _Q
    S = 4 * X * Y2 % _Q
    Z2 = Z * Z % _Q
    M = (3 * X * X + Z2 * Z2) % _Q
    X3 = (M * M - 2 * S) % _Q
    Y3 = (M * (S - X3) - 8 * Y2 * Y2) % _Q
    return (X3, Y3, 2 * Y * Z % _Q)


def _jac_add_affine(p, a):
    """Mixed addition of a Jacobian point and an affine point."""
    if a is None:
        return p
    if p is None:
        return (a[0], a[1], 1)
    X1, Y1, Z1 = p
    x2, y2 = a
    Z1Z1 = Z1 * Z1 % _Q
    U2 = x2 * Z1Z1 % _Q
    S2 = y2 * Z1 % _Q * Z1Z1 % _Q
    if U2 == X1:
        if S2 == Y1:
            return _jac_double(p)
        return None
    H = (U2 - X1) % _Q
    HH = H * H % _Q
    I = 4 * HH % _Q
    J = H * I % _Q
    rr = 2 * (S2 - Y1) % _Q
    V = X1 * I % _Q
    X3 = (rr * rr - J - 2 * V) % _Q
    Y3 = (rr * (V - X3) - 2 * Y1 * J) % _Q
    Z3 = ((Z1 + H) * (Z1 + H) - Z1Z1 - HH) % _Q
    return (X3, Y3, Z3)


def _jac_to_affine(p):
    if p is None:
        return None
    X, Y, Z = p
    zi = pow(Z, -1, _Q)
    zi2 = zi * zi % _Q
    return (X * zi2 % _Q, Y * zi2 % _Q * zi % _Q)


# Subgroup membership from x alone.  ORDER = 2^159 + 2^107 + 1, so [ORDER]P
# is the sum of A = [2^159]P, B = [2^107]P and P.  Three points sum to the
# identity for some choice of signs exactly when Semaev's third summation
# polynomial vanishes at their x coordinates (ePrint 2004/031); on
# y^2 = x^3 + x it is
#   S3(x1, x2, x3) = (x1 - x2)^2 x3^2 - 2 (x1 + x2)(x1 x2 + 1) x3 + (x1 x2 - 1)^2.
# In projective form it also covers A or B being the identity: with
# W_A = 0 it reduces to U_A^2 (x(P) W_B - U_B)^2, zero iff B = +-P.
# E(F_q) is cyclic of order q + 1, so S3 = 0 iff the order of P divides one
# of 2^159 +- 2^107 +- 1, whose common factors with q + 1 are ORDER, 3, 17
# and 1.  Points of order 3 or 17 are then the ones with [16]P = +-P, that
# is x([16]P) = x(P); no point of order ORDER has it.

def _x_double(u: int, w: int, times: int) -> Tuple[int, int]:
    """`times` projective x-only doublings (Montgomery, Math. Comp. 1987):
    x(2P) = (x^2 - 1)^2 / (4x(x^2 + 1)), at four reductions per step.
    (U, W) never becomes (0, 0), and W = 0 stands for the identity."""
    for _ in range(times):
        s = (u + w) * (u + w) % _Q
        t = (u - w) * (u - w) % _Q
        u, w = 2 * s * t % _Q, (s - t) * (s + t) % _Q
    return u, w


def _in_prime_subgroup(x: int) -> bool:
    """Whether the curve points with x coordinate `x` (known to be on the
    curve) have order ORDER."""
    u16, w16 = _x_double(x, 1, 4)            # [2^4]P
    if (u16 - x * w16) % _Q == 0:
        return False
    ub, wb = _x_double(u16, w16, 103)        # B = [2^107]P
    ua, wa = _x_double(ub, wb, 52)           # A = [2^159]P
    # S3(x(A), x(B), x(P)) scaled by (W_A W_B)^2
    diff = (ua * wb - ub * wa) % _Q
    total = (ua * wb + ub * wa) % _Q
    prod = (ua * ub - wa * wb) % _Q
    norm = (ua * ub + wa * wb) % _Q
    return (diff * diff % _Q * x * x - 2 * total * norm % _Q * x + prod * prod) % _Q == 0


# Scalar multiplication of a base without a comb table.  y^2 = x^3 + x is
# the Montgomery curve B y^2 = x^3 + A x^2 + x with A = 0 and B = 1, so [k]P
# comes from Montgomery's x-only ladder, whose two registers always differ
# by P: each step is one differential addition and one of `_x_double`'s
# doublings, and no table is built.  y of Q = [k]P then follows from P, x(Q) and x(Q + P)
# (Okeya and Sakurai, CHES 2001):
#   y(Q) = ((x x_Q + 1)(x + x_Q) - (x - x_Q)^2 x_{Q+P}) / (2y).
# Where Q + P is the identity, x_{Q+P} is infinite and Q = -P.  The
# differential addition breaks down only when the difference P is (0, 0),
# the point of order 2, which is therefore handled apart.  Powers of plain
# elements and the cofactor clearing of `_hash_to_curve` both use it.

def _ladder(p, k: int) -> Optional[Tuple[int, int]]:
    """[k]P for a curve point P and k >= 1, or None for the identity."""
    x, y = p
    if y == 0:
        return None if k % 2 == 0 else p
    u0, w0 = x, 1                            # R0 = P
    u1, w1 = _x_double(x, 1, 1)              # R1 = 2P
    swapped = "0"
    for bit in bin(k)[3:]:
        # bit 0: R1 <- R0 + R1, R0 <- 2 R0; bit 1: the same with R0 and R1
        # exchanged, done lazily by swapping only where the bit changes
        if bit != swapped:
            u0, w0, u1, w1 = u1, w1, u0, w0
            swapped = bit
        s = u0 + w0
        t = u0 - w0
        da = (u1 - w1) * s % _Q
        cb = (u1 + w1) * t % _Q
        u1 = (da + cb) * (da + cb) % _Q
        w1 = (da - cb) * (da - cb) % _Q * x % _Q
        s = s * s % _Q
        t = t * t % _Q
        u0, w0 = 2 * s * t % _Q, (s - t) * (s + t) % _Q
    if swapped == "1":
        u0, w0, u1, w1 = u1, w1, u0, w0
    if w0 == 0:
        return None
    if w1 == 0:
        return (x, _Q - y)
    # x_Q = u0 / w0 and x_{Q+P} = u1 / w1, over the common denominator
    # 2y w0^2 w1, inverted once
    n = ((x * u0 + w0) * (x * w0 + u0) % _Q * w1 - (x * w0 - u0) ** 2 % _Q * u1) % _Q
    d = 2 * y * w0 % _Q * w1 % _Q
    inv = pow(d * w0, -1, _Q)
    return (u0 * d % _Q * inv % _Q, n * inv % _Q)


# Fixed-base comb exponentiation (Lim and Lee, CRYPTO '94).  An exponent
# below 2^160 is cut into `teeth` rows of 160 / teeth bits, and entry b of
# the base's table is the sum of the row bases [2^(span*j)]P over the bits j
# set in b, so one exponentiation costs span - 1 doublings and at most span
# additions.  A marked element's table is built on its first power and
# kept in `_comb_table`, an LRU of 512 tables keyed by point and width: a
# fixed base's (the generator, the public key's g and h) is the wide 8 x 20
# one (255 points, about 61 KB), and an attribute hash's, which recurs
# across keys and blocks, the 4 x 40 one (15 points), whose build costs
# about one ladder power.  The same comb serves the target group: the
# public key's egg_alpha keeps an 8 x 20 table of row products.

_COMB_BITS = ORDER.bit_length()          # 160
_COMB_TEETH = 4
_WIDE_TEETH = 8


def _batch_inverse(values) -> list:
    """The inverses mod q of a sequence of nonzero values, with one
    inversion (Montgomery's trick)."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % _Q
    inv = pow(acc, -1, _Q)
    out = [0] * len(prefix)
    for i in range(len(prefix) - 1, -1, -1):
        out[i] = inv * prefix[i] % _Q
        inv = inv * values[i] % _Q
    return out


def _batch_to_affine(points):
    """Jacobian points, none the identity, to affine with one inversion."""
    out = []
    for (x, y, _), zi in zip(points, _batch_inverse([z for _, _, z in points])):
        zi2 = zi * zi % _Q
        out.append((x * zi2 % _Q, y * zi2 % _Q * zi % _Q))
    return out


def _comb_rows(base, teeth: int, square) -> list:
    """The comb's row bases base^(2^(span*j)), j < teeth, of either group,
    by repeated squaring (doubling in the source group)."""
    span = _COMB_BITS // teeth
    rows = [base]
    for _ in range(teeth - 1):
        for _ in range(span):
            base = square(base)
        rows.append(base)
    return rows


def _comb_entries(rows, mul, one) -> list:
    """Entry b is the product of the rows over the bits set in b: entry
    (b xor low) times the row of b's lowest set bit; entry 0 is `one`."""
    entries = [one] * (1 << len(rows))
    for b in range(1, len(entries)):
        low = b & -b
        entries[b] = mul(entries[b ^ low], rows[low.bit_length() - 1])
    return entries


def _build_comb(point, teeth: int) -> tuple:
    """Affine comb table of a subgroup point; entry 0 (the identity) is None.
    Rows come from doubling and entries from mixed additions in Jacobian
    coordinates, each set made affine with a single inversion."""
    rows = _batch_to_affine(_comb_rows((point[0], point[1], 1), teeth, _jac_double))
    return (None, *_batch_to_affine(_comb_entries(rows, _jac_add_affine, None)[1:]))


@lru_cache(maxsize=512)
def _comb_table(point, teeth: int) -> tuple:
    return _build_comb(point, teeth)


def _comb_columns(k: int, teeth: int) -> list:
    """The comb's table indices for 0 <= k < 2^160, most significant column
    first: bit j of column i is bit span*j + i of k.  In k's 160-digit
    binary string, column span-1-c is every span-th digit from digit c."""
    span = _COMB_BITS // teeth
    bits = format(k, f"0{_COMB_BITS}b")
    return [int(bits[c::span], 2) for c in range(span)]


def _comb_pow(table, k: int, square, mul, acc):
    """The comb walk of either group for 0 < k < ORDER: from `acc`, one
    `square` per column and one `mul` by the entry of each nonzero column."""
    for b in _comb_columns(k, len(table).bit_length() - 1):
        acc = square(acc)
        if b:
            acc = mul(acc, table[b])
    return acc


# ---------------------------------------------------------------------------
# F_q^2 arithmetic (internal): elements (a, b) represent a + b*i, i^2 = -1
# ---------------------------------------------------------------------------

_FQ2_ONE = (1, 0)


def _fq2_mul(u, v):
    a, b = u
    c, d = v
    ac = a * c % _Q
    bd = b * d % _Q
    return ((ac - bd) % _Q, ((a + b) * (c + d) - ac - bd) % _Q)


def _fq2_sqr(u):
    a, b = u
    return ((a + b) * (a - b) % _Q, 2 * a * b % _Q)


def _fq2_conj(u):
    a, b = u
    return (a, (_Q - b) % _Q)


def _fq2_inv(u):
    a, b = u
    n = pow(a * a + b * b, -1, _Q)
    return (a * n % _Q, (_Q - b) * n % _Q)


_HALF = (_Q + 1) // 2


def _unitary_pow(u, k: int, n: int = 1):
    """(u/n)^k for u/n of norm 1, n in F_q nonzero and k >= 0, by a Lucas
    ladder (as in Scott and Barreto, "Compressed Pairings", CRYPTO 2004).
    Write u/n = a + b*i.  Since (u/n)^-1 = conj(u/n), V_k = (u/n)^k +
    (u/n)^-k = 2 Re((u/n)^k) lies in F_q, and the ladder keeps (V_k, V_k+1)
    through V_2k = V_k^2 - 2 and V_2k+1 = V_k V_k+1 - V_1, at two
    reductions a bit.  With (u/n)^k = c + d*i, c = V_k / 2 and V_k+1 =
    2(a c - b d) give d = (a V_k - V_k+1) / (2b).  The ladder's 1/n and that
    last 1/(2b) share one inversion."""
    a, b = u
    if b == 0:
        # u/n = +-1
        return _FQ2_ONE if a == n % _Q or not k & 1 else (_Q - 1, 0)
    inv = pow(2 * b * n, -1, _Q)             # 1/(2b n): a/n = a 2b inv, n/(2b) = n^2 inv
    half_over_b = n * n % _Q * inv % _Q      # 1/(2 (b/n))
    a = a * 2 * b % _Q * inv % _Q
    v1 = 2 * a % _Q
    v, w = 2, v1
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w = (v * w - v1) % _Q, (w * w - 2) % _Q
        else:
            v, w = (v * v - 2) % _Q, (v * w - v1) % _Q
    return (v * _HALF % _Q, (a * v - w) * half_over_b % _Q)


# ---------------------------------------------------------------------------
# pairing core: one Miller loop over a product of pairings
# ---------------------------------------------------------------------------
# f_{ORDER,p} is the product of a tangent line at each step's running
# point and a secant line at each one bit.  `_walk` yields a point's lines
# as three coefficients (a, b, c) in F_q; at the distorted image (-x, i*y)
# of Q = (x, y), that is at x_bar = -x, a line's value is
# (a*x_bar + b) - c*y*i.  Every factor in F_q vanishes in the final
# exponentiation (Barreto, Kim, Lynn and Scott, CRYPTO 2002), so the lines
# need no inversion, the vertical ones are left out, and each term is
# scaled once by 1/ny, ny = -y: at x' = x_bar/ny and n' = 1/ny a line is
# (a*x' + b*n') + c*i.  An unmarked Miller point is walked in the loop
# that evaluates it and keeps nothing.  A marked one records the lines of
# its first walk as (A, B) = (a/c, b/c), normalised with one
# batched inversion, so each later pairing with it costs L = A*x' + B*n'
# and the sparse product f * (L + i) per line (Costello and Stebila, "Fixed
# argument pairings", LATINCRYPT 2010; Scott, "Implementing cryptographic
# pairings", Pairing 2007).  The table is packed as one `bytes` object,
# each coefficient in 64 bytes, in the walk's order: a tangent for each of
# the 159 rows and a secant at each one bit of ORDER below the top but the
# last, whose secant is vertical, so 160 lines in 20 KiB (tuples of ints
# would take about twice that).
#
# A product of pairings shares one squaring of f per step among its terms
# and one final exponentiation (Granger and Smart, ePrint 2006/172).  An
# inverted term is evaluated at -Q, whose lines are the conjugates, since
# fe(f1 * conj(f2)) = fe(f1) / fe(f2).

_SECANT_ROWS = (*_ORDER_BITS[:-1], 0)


def _walk(p):
    """The lines of f_{ORDER, p} for a curve point p, one (tangent, secant
    or None) row per bit, as the loop reaches them.  The last row comes
    only if p has order ORDER; otherwise the walk raises `DecodeError` in
    its place or sooner.

    The loop computes [ORDER]p.  For p of order ORDER the running point
    reaches -p just before the last digit, 1, and the loop ends on that
    digit's vertical secant with Z != 0 throughout.  Any other p ends some
    other way: [ORDER]p is then not the identity, or an intermediate point
    is the identity or +-p, and the formulas below give Z = 0 there, which
    every later step keeps."""
    px, py = p
    X, Y, Z = px, py, 1
    last = len(_ORDER_BITS) - 1
    for k, d in enumerate(_ORDER_BITS):
        Z2 = Z * Z % _Q
        W = (3 * X * X + Z2 * Z2) % _Q
        Y2 = Y * Y % _Q
        Zn = 2 * Y * Z % _Q
        tangent = (W * Z2 % _Q, (2 * Y2 - W * X) % _Q, Zn * Z2 % _Q)
        S = 4 * X * Y2 % _Q
        Xn = (W * W - 2 * S) % _Q
        X, Y, Z = Xn, (W * (S - Xn) - 8 * Y2 * Y2) % _Q, Zn
        secant = None
        if d:
            Z1Z1 = Z * Z % _Q
            U2 = px * Z1Z1 % _Q
            S2 = py * Z % _Q * Z1Z1 % _Q
            if U2 == X and (S2 + Y) % _Q == 0:
                # running point is the negative of the addend: the secant is
                # vertical and the sum is the identity
                if Z and k == last:
                    yield tangent, None
                    return
                break
            if k == last:
                break
            H = (U2 - X) % _Q
            rr = (S2 - Y) % _Q
            HZ = H * Z % _Q
            secant = (rr, (py * HZ - rr * px) % _Q, HZ)
            HH = H * H % _Q
            I = 4 * HH % _Q
            J = H * I % _Q
            r2 = 2 * rr % _Q
            V = X * I % _Q
            X3 = (r2 * r2 - J - 2 * V) % _Q
            Y3 = (r2 * (V - X3) - 2 * Y * J) % _Q
            Z3n = ((Z + H) * (Z + H) - Z1Z1 - HH) % _Q
            X, Y, Z = X3, Y3, Z3n
        yield tangent, secant
    raise DecodeError("point not in the prime-order subgroup")


def _lines(p) -> bytes:
    """The packed kept table of a curve point: its walk's lines, each
    (a, b, c) as (a/c, b/c) with one batched inversion of every c; raises
    `DecodeError` unless p has order ORDER, which makes every c nonzero and
    gives every table the rows `_SECANT_ROWS` describes."""
    lines = [line for row in _walk(p) for line in row if line]
    inverses = _batch_inverse([c for _, _, c in lines])
    return b"".join(
        (a * ci % _Q).to_bytes(_FQ_BYTES, "big") + (b * ci % _Q).to_bytes(_FQ_BYTES, "big")
        for (a, b, _), ci in zip(lines, inverses))


def _coefficients(table: bytes) -> list:
    """A packed table's coefficients, A and B of each line in turn."""
    return [int.from_bytes(table[i:i + _FQ_BYTES], "big") for i in range(0, len(table), _FQ_BYTES)]


# The kept tables of every marked Miller point: the generator, the
# verifier's G', and a receiver's d, d_hat and key components, each
# component paired by the leaves of its attribute in message after message.
# A table is recorded on the point's first pairing, by the walk that also
# shows the point's order, and the least recently used one goes when a new
# one comes, so the memory stays at most _KEPT_TABLES x 20 KiB, 2.1 MiB,
# however many keys a process reads.  Recording costs about 1 ms more than
# a walk in the loop, and each later pairing from the table saves about
# 2.5 ms.  Replaying the receiver's pairings of 60 `many-policies` messages
# (seeds 1, 4 and 11: 394, 374 and 382 component pairings of 128, 124 and
# 122 distinct components), 96 tables of components alone hit 216, 236 and
# 222 times; the LRU also holds 9 other tables there, the d and d_hat of 4
# keys and G', so it is 9 larger, which keeps those hits (96 shared: 192,
# 230 and 200).
_KEPT_TABLES = 105


@lru_cache(maxsize=_KEPT_TABLES)
def _kept_lines(point) -> bytes:
    return _lines(point)


def _miller_product(terms):
    """The product of f_{ORDER, p} at the distorted image of q over `terms`,
    each (lines of p, q, inverted), before the final exponentiation: the
    lines are p's packed kept table or its walk, which raises `DecodeError`
    unless p has order ORDER.  An inverted term is conjugated."""
    # ny = -y, or y to conjugate an inverted term's lines; each term is
    # evaluated at (x_bar/ny, 1/ny)
    nys = [q[1] if inverted else _Q - q[1] for _, q, inverted in terms]
    points = [((_Q - q[0]) * n % _Q, n) for (_, q, _), n in zip(terms, _batch_inverse(nys))]
    kept, walked = [], []
    for (lines, _, _), (xs, ns) in zip(terms, points):
        if isinstance(lines, bytes):
            kept.append((_coefficients(lines), xs, ns))
        else:
            walked.append((lines, xs, ns))
    f0, f1 = _FQ2_ONE
    j = 0                                    # every kept table's next line
    for secant in _SECANT_ROWS:
        f0, f1 = (f0 + f1) * (f0 - f1) % _Q, 2 * f0 * f1 % _Q
        for c, xs, ns in kept:
            # a kept line, c = 1
            L = (c[j] * xs + c[j + 1] * ns) % _Q
            f0, f1 = (f0 * L - f1) % _Q, (f1 * L + f0) % _Q
            if secant:
                L = (c[j + 2] * xs + c[j + 3] * ns) % _Q
                f0, f1 = (f0 * L - f1) % _Q, (f1 * L + f0) % _Q
        j += 4 if secant else 2
        for rows, xs, ns in walked:
            for line in next(rows):
                if line is None:
                    continue
                a, b, c = line
                l0 = (a * xs + b * ns) % _Q
                t0 = f0 * l0 % _Q
                t1 = f1 * c % _Q
                f0, f1 = (t0 - t1) % _Q, ((f0 + f1) * (l0 + c) - t0 - t1) % _Q
    return f0, f1


def _easy_part(f):
    """conj(f)/f, of norm 1: the first factor of the final exponentiation."""
    return _fq2_mul(_fq2_conj(f), _fq2_inv(f))


def _final_exponentiation(f, over=_FQ2_ONE):
    """f^((q^2-1)/ORDER) = (conj(f)/f)^COFACTOR, divided by the reduction of
    the norm-1 value `over`.  conj(f)/f = conj(f)^2 / N(f), so the hard
    part, the power by COFACTOR, takes conj(f)^2 conj(over) over the
    denominator N(f), and N(f) shares the ladder's one inversion."""
    a, b = f
    easy = ((a + b) * (a - b) % _Q, -2 * a * b % _Q)
    return _unitary_pow(_fq2_mul(easy, _fq2_conj(over)), COFACTOR, (a * a + b * b) % _Q)


# ---------------------------------------------------------------------------
# public element types
# ---------------------------------------------------------------------------

# The `_table` of a target-group element made by `fixed_base()`, which
# alone sets it, before its first exponentiation.  Two threads may both
# build the table; either copy is kept.
_NOT_BUILT = object()

# The `_point` of a decoded element whose first use has not yet validated it.
_UNCHECKED = object()


def _exponent(k) -> int:
    return (k.value if isinstance(k, Scalar) else int(k)) % ORDER


def _decompress(data: bytes) -> Tuple[int, int]:
    """The curve point behind a structurally valid, non-identity encoding,
    other than (0, 0); whether it lies in the subgroup is left open.  (0, 0)
    is refused because it is the one point at which a line of a Miller loop
    can vanish."""
    x = int.from_bytes(data[1:], "big")
    if x == 0:
        raise DecodeError("x = 0 names the point of order 2")
    rhs = (x * x * x + x) % _Q
    y = pow(rhs, _SQRT_EXP, _Q)
    if y * y % _Q != rhs:
        raise DecodeError("x is not on the curve")
    if (y & 1) != (data[0] == 0x03):
        y = _Q - y
    return (x, y)


class G0Element:
    """Element of the prime-order source-group subgroup (multiplicative API).

    A decoded element keeps its wire bytes and is checked on its first use,
    which raises `DecodeError` if the bytes name no point the use accepts.
    Arithmetic and `validate` need a subgroup point (square root and
    subgroup test); a pairing needs only a curve point with x != 0 (square
    root) where it evaluates the element, and where the element is the
    Miller point its loop shows membership and marks it validated.
    Encoding, equality, hashing and `is_identity` need no check.

    `_teeth` marks the comb the element recurs with, 0 for none: a marked
    element's powers and pairings read the tables the module's caches keep
    for its point, an unmarked one keeps none (module docstring)."""

    __slots__ = ("_point", "_curve", "_raw", "_teeth")

    def __init__(self, point: Optional[Tuple[int, int]], teeth: int = 0):
        self._point = point
        self._curve = None
        self._raw = None
        self._teeth = teeth

    @property
    def _p(self) -> Optional[Tuple[int, int]]:
        """The affine point, or None for the identity, in the prime-order
        subgroup; every read of the coordinates but a pairing's goes
        through here, so none is used unvalidated."""
        p = self._point
        if p is _UNCHECKED:
            p = self._on_curve
            if not _in_prime_subgroup(p[0]):
                raise DecodeError("point not in the prime-order subgroup")
            self._point = p
        return p

    @property
    def _on_curve(self) -> Optional[Tuple[int, int]]:
        """The affine point, or None for the identity, as a pairing reads
        it: on the curve with x != 0, in the subgroup only if shown so."""
        p = self._point
        if p is _UNCHECKED:
            p = self._curve
            if p is None:
                p = self._curve = _decompress(self._raw)
        return p

    def validate(self) -> None:
        """Run the deferred validation now; raises `DecodeError` on failure."""
        self._p

    def fixed_base(self) -> "G0Element":
        """An equal element, for bases that recur throughout: its powers walk
        the wide 8 x 20 comb of its point, and it is the Miller point of its
        pairings, which read the lines kept for its point.  A decoded element
        stays unvalidated until its first use."""
        if self._teeth == _WIDE_TEETH:
            return self
        out = G0Element(self._point, _WIDE_TEETH)
        out._curve, out._raw = self._curve, self._raw
        return out

    def __mul__(self, other: "G0Element") -> "G0Element":
        p, q = self._p, other._p
        if p is None:
            return G0Element(q)
        return G0Element(_jac_to_affine(_jac_add_affine((*p, 1), q)))

    def __pow__(self, k) -> "G0Element":
        p = self._p
        e = _exponent(k)
        if p is None or e == 0:
            return G0Element(None)
        if not self._teeth:
            return G0Element(_ladder(p, e))
        table = _comb_table(p, self._teeth)
        return G0Element(_jac_to_affine(_comb_pow(table, e, _jac_double, _jac_add_affine, None)))

    def is_identity(self) -> bool:
        return self._point is None

    def __eq__(self, other) -> bool:
        return isinstance(other, G0Element) and self.serialize() == other.serialize()

    def __hash__(self):
        return hash(("g0", self.serialize()))

    def __repr__(self):
        if self._point is None:
            return "G0Element(identity)"
        return f"G0Element(x={int.from_bytes(self.serialize()[1:], 'big'):#x})"

    def serialize(self) -> bytes:
        if self._raw is not None:
            return self._raw
        if self._point is None:
            return b"\x00" * G0_BYTES
        x, y = self._point
        prefix = 0x03 if y & 1 else 0x02
        return bytes([prefix]) + x.to_bytes(_FQ_BYTES, "big")

    @classmethod
    def deserialize(cls, data: bytes) -> "G0Element":
        """Structural checks only: length, prefix, canonical identity, x < q."""
        if len(data) != G0_BYTES:
            raise DecodeError(f"group element must be {G0_BYTES} bytes, got {len(data)}")
        prefix = data[0]
        if prefix == 0x00:
            if any(data[1:]):
                raise DecodeError("non-canonical identity encoding")
            return cls(None)
        if prefix not in (0x02, 0x03):
            raise DecodeError(f"bad point prefix {prefix:#x}")
        if int.from_bytes(data[1:], "big") >= _Q:
            raise DecodeError("x coordinate out of range")
        out = cls(_UNCHECKED)
        out._raw = bytes(data)
        return out

    @classmethod
    def identity(cls) -> "G0Element":
        return cls(None)


class GTElement:
    """Element of the order-`ORDER` subgroup of F_q^2 (the pairing target)."""

    __slots__ = ("_v", "_table")

    def __init__(self, value: Tuple[int, int]):
        self._v = value
        self._table = None

    def fixed_base(self) -> "GTElement":
        """An equal element that builds its own 8 x 20 comb table on its first
        exponentiation and keeps it, for bases that recur throughout."""
        if self._table is not None:
            return self
        out = GTElement(self._v)
        out._table = _NOT_BUILT
        return out

    def __mul__(self, other: "GTElement") -> "GTElement":
        return GTElement(_fq2_mul(self._v, other._v))

    def __pow__(self, k) -> "GTElement":
        e = _exponent(k)
        if e == 0:
            return GTElement(_FQ2_ONE)
        table = self._table
        if table is None:
            return GTElement(_unitary_pow(self._v, e))
        if table is _NOT_BUILT:
            table = self._table = _comb_entries(
                _comb_rows(self._v, _WIDE_TEETH, _fq2_sqr), _fq2_mul, _FQ2_ONE)
        return GTElement(_comb_pow(table, e, _fq2_sqr, _fq2_mul, _FQ2_ONE))

    def inverse(self) -> "GTElement":
        # subgroup elements have norm 1, so conjugation inverts
        return GTElement(_fq2_conj(self._v))

    def __truediv__(self, other: "GTElement") -> "GTElement":
        return self * other.inverse()

    def is_identity(self) -> bool:
        return self._v == _FQ2_ONE

    def __eq__(self, other) -> bool:
        return isinstance(other, GTElement) and self._v == other._v

    def __hash__(self):
        return hash(("gt", self._v))

    def __repr__(self):
        return f"GTElement({self._v[0]:#x}, {self._v[1]:#x})"

    def serialize(self) -> bytes:
        a, b = self._v
        return a.to_bytes(_FQ_BYTES, "big") + b.to_bytes(_FQ_BYTES, "big")

    @classmethod
    def deserialize(cls, data: bytes) -> "GTElement":
        if len(data) != GT_BYTES:
            raise DecodeError(f"target element must be {GT_BYTES} bytes, got {len(data)}")
        a = int.from_bytes(data[:_FQ_BYTES], "big")
        b = int.from_bytes(data[_FQ_BYTES:], "big")
        if a >= _Q or b >= _Q:
            raise DecodeError("coordinate out of range")
        v = (a, b)
        if (a * a + b * b) % _Q != 1:
            raise DecodeError("element not in the unit-norm subgroup")
        if _unitary_pow(v, ORDER) != _FQ2_ONE:
            raise DecodeError("element not in the pairing target subgroup")
        return cls(v)

    @classmethod
    def one(cls) -> "GTElement":
        return cls(_FQ2_ONE)


class Unreduced:
    """A product of pairings before the hard part of its final
    exponentiation: an element of the norm-1 group of F_q^2, whose image
    under the power by COFACTOR is the target-group value.  That power is a
    homomorphism, so products and powers (exponents taken mod ORDER, since
    the group's order q + 1 is COFACTOR * ORDER) commute with it.  It has no
    encoding and no equality: only the quotient that uses it, through
    `over`, reduces it."""

    __slots__ = ("_v",)

    def __init__(self, value: Tuple[int, int]):
        self._v = value

    def __mul__(self, other: "Unreduced") -> "Unreduced":
        return Unreduced(_fq2_mul(self._v, other._v))

    def __pow__(self, k) -> "Unreduced":
        e = _exponent(k)
        return self if e == 1 else Unreduced(_unitary_pow(self._v, e))


def _miller_value(pairs):
    """The product of f_{ORDER, p} at the distorted image of q over (u, v,
    inverted) triples, or of its conjugate where `inverted`, before the
    final exponentiation; a pair with the identity is left out.  The
    pairing is symmetric, so either side can be the Miller point p: u,
    unless only v is marked.  A marked Miller point reads its table from
    `_kept_lines`, recorded there by its point's first pairing, and an
    unmarked one is walked in the product's own loop.  Both points are read
    as curve points; the Miller point's walk then refuses it outside the
    prime-order subgroup and marks it validated otherwise, and the other
    point, only evaluated, needs no more (module docstring)."""
    terms, walked = [], []
    for u, v, inverted in pairs:
        p, q = u._on_curve, v._on_curve      # both read, even beside the identity
        if p is None or q is None:
            continue
        if not u._teeth and v._teeth:
            u, p, q = v, q, p
        if u._teeth:
            lines = _kept_lines(p)
            u._point = p
        else:
            lines = _walk(p)
            walked.append((u, p))
        terms.append((lines, q, inverted))
    if not terms:
        return _FQ2_ONE
    out = _miller_product(terms)
    for u, p in walked:
        u._point = p                         # its walk showed p has order ORDER
    return out


def _reduced(pairs, over: Optional[Unreduced]) -> GTElement:
    return GTElement(_final_exponentiation(_miller_value(pairs),
                                           _FQ2_ONE if over is None else over._v))


def pair(u: G0Element, v: G0Element, over: Optional[Unreduced] = None) -> GTElement:
    """Symmetric bilinear map into the target group, divided by the
    reduction of `over` if given, with one final exponentiation."""
    return _reduced(((u, v, False),), over)


def pair_ratio(a: G0Element, b: G0Element, c: G0Element, d: G0Element,
               over: Optional[Unreduced] = None) -> GTElement:
    """pair(a, b) / pair(c, d), divided by the reduction of `over` if
    given, with one final exponentiation."""
    return _reduced(((a, b, False), (c, d, True)), over)


def unreduced_pair_ratio(a: G0Element, b: G0Element, c: G0Element, d: G0Element) -> Unreduced:
    """pair(a, b) / pair(c, d) before the hard part."""
    return Unreduced(_easy_part(_miller_value(((a, b, False), (c, d, True)))))


def keep_lines(u: G0Element) -> None:
    """Read u as a pairing reads a marked Miller point, so that a fault in
    u shows apart from the points it is paired with: its table is found in
    `_kept_lines` or recorded there now, and `DecodeError` is raised unless
    u is the identity or a prime-order subgroup point."""
    p = u._on_curve
    if p is not None:
        _kept_lines(p)
        u._point = p


# ---------------------------------------------------------------------------
# hashing and key derivation
# ---------------------------------------------------------------------------

def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0; for a prime n it is 0 on
    multiples of n, 1 on the other squares and -1 on non-squares."""
    a %= n
    t = 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 3 == 3:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


_MAX_TAG_BYTES = 255


def _curve_points(domain_tag: bytes, msg: bytes):
    """Deterministic try-and-increment: the point P = (x, y), y even, of each
    counter in turn whose x is on the curve.  A Jacobi symbol, about a tenth
    of the cost of a square root, skips the counters whose x is not; past
    the last counter it raises `RuntimeError`."""
    if len(domain_tag) > _MAX_TAG_BYTES:
        raise ValueError(f"domain tag is {len(domain_tag)} bytes; the limit is {_MAX_TAG_BYTES}")
    framed = hashlib.sha512(_H2C_PREFIX + len(domain_tag).to_bytes(1, "big") + domain_tag)
    framed.update(msg)
    for counter in range(256):
        attempt = framed.copy()
        attempt.update(bytes([counter]))
        digest = attempt.digest()
        x = int.from_bytes(digest, "big") % _Q
        rhs = (x * x * x + x) % _Q
        if _jacobi(rhs, _Q) < 0:
            continue
        y = pow(rhs, _SQRT_EXP, _Q)
        yield (x, _Q - y if y & 1 else y)
    raise RuntimeError("hash-to-group failed to find a curve point")  # pragma: no cover


def _hash_to_curve(domain_tag: bytes, msg: bytes) -> Tuple[int, int]:
    """The map onto the prime-order subgroup: [COFACTOR]P for the first of
    `_curve_points` where that is not the identity."""
    for p in _curve_points(domain_tag, msg):
        cleared = _ladder(p, COFACTOR)
        if cleared is not None:
            return cleared


# Attribute hashes recur across keys and blocks, so their points are cached
# and each hash is marked with the attribute comb.  Message hashes are not
# cached: an entry keyed by a whole plaintext would pin up to 4096 recent
# messages in memory.
_hash_to_point = lru_cache(maxsize=4096)(_hash_to_curve)


def hash_to_g0(domain_tag: bytes, msg: bytes) -> G0Element:
    """Hash bytes into the source group under a domain separation tag."""
    domain_tag = bytes(domain_tag)
    if domain_tag == TAG_MESSAGE:
        return G0Element(_hash_to_curve(domain_tag, bytes(msg)))
    return G0Element(_hash_to_point(domain_tag, bytes(msg)), _COMB_TEETH)


def kdf_mask(k_gt: GTElement, out_len: int) -> bytes:
    """Deterministic keystream of `out_len` bytes derived from a target element."""
    if out_len <= 0:
        raise ValueError("mask length must be positive")
    return hashlib.shake_256(_KDF_PREFIX + k_gt.serialize()).digest(out_len)


_GENERATOR = G0Element(_hash_to_curve(_TAG_GENERATOR, SUITE_ID.encode("ascii"))).fixed_base()


def generator() -> G0Element:
    """The fixed public generator of the source group: always the same
    element, so every exponentiation of it shares one wide comb table."""
    return _GENERATOR


# The verifier's check pair(H(m), v2) = pair(v1, g), without clearing the
# cofactor h.  H(m) = [h]R for the first point R of `_curve_points`, and the
# reduced Tate pairing is bilinear in its second argument over all of
# E(F_q^2) (Galbraith, Paterson and Smart, "Pairings for cryptographers",
# 2008), so with v2 of order ORDER as the Miller point,
# pair(v2, [h]R) = pair(v2, R)^h.  With g = [h]G' for G' = [h^-1 mod ORDER]g,
# the check is the h-th power of pair(v2, R) = pair(v1, G'), and h is prime
# to ORDER, so the two hold together.  They differ only for a message whose
# R has [h]R = O, a chance of 1/ORDER (about 2^-160): `hash_to_g0` moves on
# to the next counter there, while this check pairs with that R.  R lies
# outside the prime-order subgroup, so as the Miller point its loop would
# refuse it; it is unmarked, so `_miller_value` never swaps it there.
# G' is a fixed base never raised: it has kept lines, never a comb table.
_G_PRIME = G0Element(_ladder(_GENERATOR._p, pow(COFACTOR, -1, ORDER))).fixed_base()


def check_message_pairing(msg: bytes, v1: G0Element, v2: G0Element) -> bool:
    """Whether pair(hash_to_g0(TAG_MESSAGE, msg), v2) == pair(v1, generator()),
    up to the 2^-160 case above, with one final exponentiation.  v2 is the
    Miller point of its pairing, whose loop refuses it outside the
    prime-order subgroup, and v1 is only evaluated, against G', so a v1 off
    the curve raises `DecodeError` and any other v1 is judged by its
    order-ORDER part (module docstring)."""
    r = G0Element(next(_curve_points(TAG_MESSAGE, bytes(msg))))
    return _reduced(((v2, r, False), (v1, _G_PRIME, True)), None).is_identity()


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")
