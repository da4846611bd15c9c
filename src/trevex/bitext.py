"""One-bit extractors: parity sampling (XOR), polynomial hashing
(Reed-Solomon followed by a Hadamard inner product), and the expander-walk
construction.

All three share one contract.  ``t_req`` is the subseed length consumed per
output bit; each extractor is its only owner, and the CLI sizes the design
from it.  ``prepare(input)`` parses a BitBuffer once into an immutable
value (XOR and LU: its bytes; RSH: multiples of its packed polynomial
coefficients), and ``extract(prepared, subseed)`` returns one bit, reading
the subseed as an int whose bit j is subseed bit j.  Instances are
immutable after configuration and reentrant.  A constructor raises
InfeasibleParameters for a parameter set that admits no such extractor.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import getitem, xor

from .finfield import find_irreducible
from .params import ExtractorParams, InfeasibleParameters, ceil_log2
from .trevisan import BitBuffer


class XorExtractor:
    """Parity of ell input bits at seed-chosen positions.

    Each position is an idx_width-bit slice of the subseed reduced mod n,
    w = idx_width = ceil(log2 n).  For n a power of two the reduction is
    exact.  Otherwise 2**w < 2n, so positions below 2**w - n are drawn with
    probability 2/2**w and the rest with 1/2**w, half as often: for
    n = 1,025, positions 1,023 and 1,024 are drawn half as often as the
    others.  The bias is accepted, not charged to eps (the seed domain is
    bits, not [n]^ell).
    """

    def __init__(self, n: int, ell: int):
        if ell < 1:
            raise InfeasibleParameters("ell must be >= 1")
        self.n = n
        self.ell = ell
        self.idx_width = ceil_log2(n)
        self.t_req = ell * self.idx_width

    def prepare(self, input: BitBuffer) -> bytes:
        return input.to_bytes()

    def extract(self, prepared: bytes, subseed: int) -> int:
        n = self.n
        w = self.idx_width
        mask = (1 << w) - 1
        bit = 0
        for _ in range(self.ell):
            pos = (subseed & mask) % n
            bit ^= prepared[pos >> 3] >> (pos & 7)
            subseed >>= w
        return bit & 1


# Low and high nibble of every byte, for bytes.translate.
_LOW_NIBBLE = bytes(b & 15 for b in range(256))
_HIGH_NIBBLE = bytes(b >> 4 for b in range(256))


def _times(tables, r: int) -> int:
    """r * alpha mod f, by the nibble tables of alpha from
    RshExtractor._tables."""
    (t0, t1, t2, t3, t4, t5, t6, t7,
     t8, t9, t10, t11, t12, t13, t14, t15) = tables
    return (t0[r & 15] ^ t1[r >> 4 & 15] ^ t2[r >> 8 & 15] ^ t3[r >> 12 & 15]
            ^ t4[r >> 16 & 15] ^ t5[r >> 20 & 15] ^ t6[r >> 24 & 15]
            ^ t7[r >> 28 & 15] ^ t8[r >> 32 & 15] ^ t9[r >> 36 & 15]
            ^ t10[r >> 40 & 15] ^ t11[r >> 44 & 15] ^ t12[r >> 48 & 15]
            ^ t13[r >> 52 & 15] ^ t14[r >> 56 & 15] ^ t15[r >> 60])


class RshExtractor:
    """Reed-Solomon hash of the input blocks followed by a Hadamard step.

    The input is split into s = ceil(n/l) blocks of l bits (last block
    zero-padded), read as GF(2^l) elements with bit j the coefficient of
    x^j.  With alpha the first and beta the second half of the subseed, the
    output is parity(popcount(p(alpha) AND beta)) where
    p(alpha) = sum_i c_i alpha^(s-1-i) = sum_j e_j alpha^j, e_j = c_(s-1-j).

    p is evaluated by baby steps and giant steps (Paterson-Stockmeyer):
    with B = ceil(sqrt(s)) and G = ceil(s/B),
    p(alpha) = sum_g (alpha^B)^g Q_g, Q_g = sum_(r<B) e_(gB+r) alpha^r.
    ``prepare`` packs, for each r < B, the coefficients e_r, e_(B+r), ...
    into one int with slots of W = 8*ceil((2l-1)/8) bits, slot g holding
    e_(gB+r), and keeps its 16 carry-less multiples by the polynomials of
    degree < 4 (Four Russians): B * 16 ints of G*W + 3 bits, 0.3 MB at
    n = 2^16, l = 50.  ``extract`` then takes B - 1 multiplications for
    the powers alpha^r, one XOR of B multiples per nibble of the powers,
    which gives every carry-less sum Q_g at once in its slot, one reduction
    mod f of all slots together, and G Horner steps in alpha^B: at that
    geometry 37 + 36 multiplications in place of 1,311.

    A multiplication by a fixed a takes 16 nibble tables
    T_j[b] = (b * x^(4j)) * a mod f, built from the l products x^k * a
    (Shoup's tables for a fixed multiplier, as in GHASH), and is
    r * a = T_0[r & 15] ^ T_1[r >> 4 & 15] ^ ... ^ T_15[r >> 60].
    """

    def __init__(self, n: int, l: int):
        if not 1 <= l <= 64:
            raise InfeasibleParameters(f"RSH block size l={l} outside [1, 64]")
        self.n = n
        self.l = l
        self.s = s = -(-n // l)
        self.field = find_irreducible(l)
        self.t_req = 2 * l
        self._baby = math.isqrt(s - 1) + 1 if s else 1  # B = ceil(sqrt(s))
        self._giant = -(-s // self._baby)               # G
        self._slot = w = 8 * -(-(2 * l - 1) // 8)       # W
        # x^l = sum of x^e, e in _tail, mod f; _low and _high mask the
        # l low bits and the W - l bits above them of every slot.
        f = self.field.poly
        self._tail = tuple(e for e in range(l) if f >> e & 1)
        slots = range(0, self._giant * w, w)
        self._low = sum(((1 << l) - 1) << g for g in slots)
        self._high = sum(((1 << w - l) - 1) << g for g in slots)

    def coefficients(self, input: BitBuffer) -> tuple[int, ...]:
        """The input's s polynomial coefficients c_0 ... c_(s-1), read from
        its first s*l bits as binary digits, highest first: c_i is the
        i-th group of l digits from the end."""
        l, bits = self.l, self.s * self.l
        v = int.from_bytes(input.to_bytes(), "little") & (1 << bits) - 1
        digits = bin(v | 1 << bits)[3:]  # the 1 keeps leading zeros
        return tuple(int(digits[i - l:i], 2) for i in range(bits, 0, -l))

    def prepare(self, input: BitBuffer) -> tuple[tuple[int, ...], ...]:
        """For each r < B, the 16 carry-less multiples of the packed
        coefficients e_r, e_(B+r), ..., e_(gB+r) (gB+r < s)."""
        baby, width = self._baby, self._slot // 8
        e = self.coefficients(input)[::-1]
        out = []
        for r in range(baby):  # columns past e's end have empty top slots
            packed = int.from_bytes(b"".join(
                [c.to_bytes(width, "little") for c in e[r::baby]]), "little")
            multiples = [0]
            for k in range(4):
                multiples += [m ^ packed << k for m in multiples]
            out.append(tuple(multiples))
        return tuple(out)

    def _tables(self, alpha: int) -> list[tuple[int, ...]]:
        """Sixteen nibble tables of multiplication by alpha; tables past
        ceil(l/4) are (0,), as r has no bits there."""
        l, f = self.l, self.field.poly
        top = 1 << l
        shifted = []  # x^k * alpha mod f, k < l, then zeros to a nibble
        for _ in range(l):
            shifted.append(alpha)
            alpha <<= 1
            if alpha & top:
                alpha ^= f
        shifted += [0] * (-l % 4)
        tables = []
        nibbles = iter(shifted)
        for a, b, c, d in zip(nibbles, nibbles, nibbles, nibbles):
            ab, cd = a ^ b, c ^ d
            tables.append((0, a, b, ab, c, a ^ c, b ^ c, ab ^ c, d, a ^ d,
                           b ^ d, ab ^ d, cd, a ^ cd, b ^ cd, ab ^ cd))
        return tables + [(0,)] * (16 - len(tables))

    def extract(self, prepared: tuple[tuple[int, ...], ...],
                subseed: int) -> int:
        l, w = self.l, self._slot
        mask = (1 << l) - 1
        tables = self._tables(subseed & mask)
        powers = []  # alpha^0 ... alpha^(B-1) as 8 bytes; r ends at alpha^B
        r = 1
        for _ in range(self._baby):
            powers.append(r.to_bytes(8, "little"))
            r = _times(tables, r)
        # Every Q_g at once, unreduced in slot g: the nibble at bit k of
        # alpha^r picks one multiple of packed column r, shifted by k.
        power_bytes = b"".join(powers)
        q = 0
        for k in range(0, l, 8):
            byte = power_bytes[k >> 3::8]
            lows = byte.translate(_LOW_NIBBLE)
            highs = byte.translate(_HIGH_NIBBLE)
            q ^= (reduce(xor, map(getitem, prepared, lows)) << k
                  ^ reduce(xor, map(getitem, prepared, highs)) << k + 4)
        # Reduce every slot mod f at once; each fold lowers the degree
        # of the bits above l.
        high = q >> l & self._high
        while high:
            q &= self._low
            for e in self._tail:
                q ^= high << e
            high = q >> l & self._high
        tables = self._tables(r)
        r = 0
        for g in range((self._giant - 1) * w, -1, -w):  # Horner in alpha^B
            r = _times(tables, r) ^ q >> g & mask
        return (r & subseed >> l).bit_count() & 1


# Neighbor rules of the degree-8 expander on Z_side x Z_side, in fixed edge
# label order (+ before -).  Each is an affine map of Z_side^2; LuExtractor
# walks by composites of them, which it derives from this table.
LU_NEIGHBOR_RULES = (
    lambda x, y, s: ((x + 2 * y) % s, y),
    lambda x, y, s: ((x - 2 * y) % s, y),
    lambda x, y, s: ((x + y + 1) % s, y),
    lambda x, y, s: ((x - y - 1) % s, y),
    lambda x, y, s: (x, (y + 2 * x) % s),
    lambda x, y, s: (x, (y - 2 * x) % s),
    lambda x, y, s: (x, (y + 2 * x + 1) % s),
    lambda x, y, s: (x, (y - 2 * x - 1) % s),
)


def _affine(rule, side: int) -> tuple[int, ...]:
    """(a, b, e, c, d, f) with rule(x, y) = (a*x + b*y + e, c*x + d*y + f)
    mod side, read off the rule's images of (0, 0), (1, 0) and (0, 1)."""
    e, f = rule(0, 0, side)
    (ax, cx), (by, dy) = rule(1, 0, side), rule(0, 1, side)
    return ((ax - e) % side, (by - e) % side, e,
            (cx - f) % side, (dy - f) % side, f)


def _then(m1, m2, side: int) -> tuple[int, ...]:
    """The affine map m2 after m1, mod side."""
    a1, b1, e1, c1, d1, f1 = m1
    a2, b2, e2, c2, d2, f2 = m2
    return ((a2 * a1 + b2 * c1) % side, (a2 * b1 + b2 * d1) % side,
            (a2 * e1 + b2 * f1 + e2) % side,
            (c2 * a1 + d2 * c1) % side, (c2 * b1 + d2 * d1) % side,
            (c2 * e1 + d2 * f1 + f2) % side)


def _walk_table(steps, k: int, side: int) -> tuple[tuple[int, ...], ...]:
    """The 8^k composites of k steps; entry j takes the steps named by j's
    base-8 digits, lowest digit first, as the walk reads its bits."""
    table = [(1, 0, 0, 0, 1, 0)]
    for _ in range(k):
        table = [_then(m, s, side) for s in steps for m in table]
    return tuple(table)


class LuExtractor:
    """Expander-walk extractor: remember ell vertices of a walk, hash the
    corresponding input bits against an ell-bit string.

    The graph lives on Z_side x Z_side with side = ceil(sqrt(n)); vertex
    (x, y) maps to input position x*side + y, and positions >= n read as 0
    (zero-padding keeps linearity and determinism).  Between remembered
    vertices the walk takes c single steps of 3 seed bits each, by the
    rules of LU_NEIGHBOR_RULES.

    Every rule is an affine map of Z_side^2, so k consecutive steps are one
    affine map, selected by their 3k seed bits.  The constructor composes
    the rules into a table of all 8^k such maps, k = min(3, c), and a
    second table of 8^(c mod k) maps for a shorter last run; a walk segment
    of c steps then takes ceil(c/k) lookups.
    """

    def __init__(self, n: int, c: int, ell: int):
        if c < 1 or ell < 1:
            raise InfeasibleParameters("c and ell must be >= 1")
        self.n = n
        self.side = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
        self.n_v = self.side * self.side
        self.c = c
        self.ell = ell
        self.idx_width = ceil_log2(self.n_v)
        self.t_req = self.idx_width + 3 * c * (ell - 1) + ell
        # k = 4 and 5 build 8x and 64x larger tables and walk no faster.
        k = min(3, c)
        steps = [_affine(rule, self.side) for rule in LU_NEIGHBOR_RULES]
        full = _walk_table(steps, k, self.side)
        rest = (_walk_table(steps, c % k, self.side),) if c % k else ()
        # The table of each lookup of a segment, in walk order.
        self._lookups = (full,) * (c // k) + rest
        self._lookup_bits = 3 * k

    def prepare(self, input: BitBuffer) -> bytes:
        return input.to_bytes()

    def extract(self, prepared: bytes, subseed: int) -> int:
        side = self.side
        seg_bits = 3 * self.c
        seg_mask = (1 << seg_bits) - 1
        lookups = self._lookups
        k_bits = self._lookup_bits
        k_mask = (1 << k_bits) - 1
        w = self.idx_width
        x, y = divmod((subseed & ((1 << w) - 1)) % self.n_v, side)
        walk = subseed >> w
        beta = walk >> seg_bits * (self.ell - 1)
        n_bits = 8 * len(prepared)  # bits past the input's end are zero
        # Read each vertex bit whatever its hash bit, so the extractor
        # touches exactly ell input bits for any hash string.
        pos = x * side + y
        bit = beta & prepared[pos >> 3] >> (pos & 7) if pos < n_bits else 0
        for _ in range(self.ell - 1):
            seg = walk & seg_mask
            walk >>= seg_bits
            for table in lookups:
                a, b, e, c, d, f = table[seg & k_mask]
                x, y = (a * x + b * y + e) % side, (c * x + d * y + f) % side
                seg >>= k_bits
            beta >>= 1
            pos = x * side + y
            if pos < n_bits:
                bit ^= beta & prepared[pos >> 3] >> (pos & 7)
        return bit & 1


def from_params(p: ExtractorParams):
    """Build the configured extractor for a derived parameter set."""
    if p.family == "xor":
        return XorExtractor(p.n, p.ell)
    if p.family == "rsh":
        return RshExtractor(p.n, p.ell)
    if p.family == "lu":
        return LuExtractor(p.n, p.c, p.ell)
    raise ValueError(f"unknown family {p.family!r}")
