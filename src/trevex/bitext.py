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
# label order (+ before -).
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


class LuExtractor:
    """Expander-walk extractor: remember ell vertices of a walk, hash the
    corresponding input bits against an ell-bit string.

    The graph lives on Z_side x Z_side with side = ceil(sqrt(n)); vertex
    (x, y) maps to input position x*side + y, and positions >= n read as 0
    (zero-padding keeps linearity and determinism).  Between remembered
    vertices the walk takes c single steps of 3 seed bits each.
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

    def prepare(self, input: BitBuffer) -> bytes:
        return input.to_bytes()

    def extract(self, prepared: bytes, subseed: int) -> int:
        side = self.side
        c = self.c
        w = self.idx_width
        v = (subseed & ((1 << w) - 1)) % self.n_v
        x, y = divmod(v, side)
        walk = subseed >> w
        beta = walk >> 3 * c * (self.ell - 1)
        n_bits = 8 * len(prepared)  # bits past the input's end are zero
        bit = 0
        for i in range(self.ell):
            # Read the vertex bit whatever its hash bit, so the extractor
            # touches exactly ell input bits for any hash string.
            pos = x * side + y
            if pos < n_bits:
                bit ^= beta & prepared[pos >> 3] >> (pos & 7)
            beta >>= 1
            if i < self.ell - 1:
                for _ in range(c):
                    x, y = LU_NEIGHBOR_RULES[walk & 7](x, y, side)
                    walk >>= 3
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
