"""One-bit extractors: parity sampling (XOR), polynomial hashing
(Reed-Solomon followed by a Hadamard inner product), and the expander-walk
construction.

All three share one contract.  ``t_req`` is the subseed length consumed per
output bit; each extractor is its only owner, and the CLI sizes the design
from it.  ``prepare(input)`` parses a BitBuffer once into an immutable
value (XOR and LU: its bytes; RSH: its polynomial coefficients), and
``extract(prepared, subseed)`` returns one bit, reading the subseed as an
int whose bit j is subseed bit j.  Instances are immutable after
configuration and reentrant.  A constructor raises InfeasibleParameters
for a parameter set that admits no such extractor.
"""

from __future__ import annotations

import math

from .finfield import find_irreducible
from .params import ExtractorParams, InfeasibleParameters, ceil_log2
from .trevisan import BitBuffer


class XorExtractor:
    """Parity of ell input bits at seed-chosen positions.

    Each position is an idx_width-bit slice of the subseed reduced mod n;
    for n a power of two the reduction is exact, otherwise the tiny bias is
    accepted (the seed domain is bits, not [n]^ell).
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


class RshExtractor:
    """Reed-Solomon hash of the input blocks followed by a Hadamard step.

    The input is split into s = ceil(n/l) blocks of l bits (last block
    zero-padded), read as GF(2^l) elements with bit j the coefficient of
    x^j.  With alpha the first and beta the second half of the subseed, the
    output is parity(popcount(p_alpha(x) AND beta)) where
    p_alpha(x) = sum_i c_i alpha^(s-i).

    Horner multiplies by the same alpha on every step, so each output bit
    first builds ceil(l/8) byte tables T_j[b] = (b * x^(8j)) * alpha mod f,
    f the field modulus: from the l products x^k * alpha, every entry is
    one XOR, T_j[b] = T_j[b - h] ^ x^(8j + log2 h) * alpha for h the highest
    set bit of b (Shoup's tables for a fixed multiplier, as in GHASH).  A
    Horner step is then r = T_0[r & 255] ^ T_1[r >> 8 & 255] ^ ... ^ c.
    """

    def __init__(self, n: int, l: int):
        if not 1 <= l <= 64:
            raise InfeasibleParameters(f"RSH block size l={l} outside [1, 64]")
        self.n = n
        self.l = l
        self.s = -(-n // l)
        self.field = find_irreducible(l)
        self.t_req = 2 * l

    def prepare(self, input: BitBuffer) -> tuple[int, ...]:
        """The input's s polynomial coefficients."""
        return tuple(input.get_bits(i * self.l, self.l) for i in range(self.s))

    def _tables(self, alpha: int) -> list[list[int]]:
        """Eight byte tables of multiplication by alpha; tables past
        ceil(l/8) are [0], as r has no bits there."""
        l, f = self.l, self.field.poly
        top = 1 << l
        shifted = []  # x^k * alpha mod f, k < l
        for _ in range(l):
            shifted.append(alpha)
            alpha <<= 1
            if alpha & top:
                alpha ^= f
        tables = []
        for j in range(0, l, 8):
            table = [0]
            for v in shifted[j:j + 8]:
                table += [e ^ v for e in table]
            tables.append(table)
        return tables + [[0]] * (8 - len(tables))

    def extract(self, prepared: tuple[int, ...], subseed: int) -> int:
        l = self.l
        t0, t1, t2, t3, t4, t5, t6, t7 = self._tables(subseed & (1 << l) - 1)
        r = 0
        for c in prepared:  # Horner: sum c_i alpha^(s-i)
            r = (t0[r & 255] ^ t1[r >> 8 & 255] ^ t2[r >> 16 & 255]
                 ^ t3[r >> 24 & 255] ^ t4[r >> 32 & 255] ^ t5[r >> 40 & 255]
                 ^ t6[r >> 48 & 255] ^ t7[r >> 56] ^ c)
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
