"""One-bit extractors: parity sampling (XOR), polynomial hashing
(Reed-Solomon followed by a Hadamard inner product), and the expander-walk
construction.

All three share the same contract: ``t_req`` is the subseed length consumed
per output bit, and ``extract(input, subseed)`` returns one bit.  Instances
are immutable after configuration and reentrant.
"""

from __future__ import annotations

import math

from .finfield import find_irreducible
from .params import ExtractorParams, ceil_log2
from .trevisan import BitBuffer


class XorExtractor:
    """Parity of ell input bits at seed-chosen positions.

    Each position is an idx_width-bit slice of the subseed reduced mod n;
    for n a power of two the reduction is exact, otherwise the tiny bias is
    accepted (the seed domain is bits, not [n]^ell).
    """

    def __init__(self, n: int, ell: int):
        if ell < 1:
            raise ValueError("ell must be >= 1")
        self.n = n
        self.ell = ell
        self.idx_width = ceil_log2(n)
        self.t_req = ell * self.idx_width

    def extract(self, input: BitBuffer, subseed: BitBuffer) -> int:
        if len(subseed) < self.t_req:
            raise ValueError(f"subseed shorter than {self.t_req} bits")
        w = self.idx_width
        bit = 0
        for i in range(self.ell):
            pos = subseed.get_bits(i * w, w) % self.n
            bit ^= input.get_bit(pos)
        return bit


class RshExtractor:
    """Reed-Solomon hash of the input blocks followed by a Hadamard step.

    The input is split into s = ceil(n/l) blocks of l bits (last block
    zero-padded), read as GF(2^l) elements with bit j the coefficient of
    x^j.  With alpha the first and beta the second half of the subseed, the
    output is parity(popcount(p_alpha(x) AND beta)) where
    p_alpha(x) = sum_i c_i alpha^(s-i).
    """

    def __init__(self, n: int, l: int):
        if not 1 <= l <= 64:
            raise ValueError(f"block size l={l} outside [1, 64]")
        self.n = n
        self.l = l
        self.s = -(-n // l)
        self.field = find_irreducible(l)
        self.t_req = 2 * l
        self._cache: tuple[BitBuffer, list[int]] | None = None

    def prepare(self, input: BitBuffer) -> list[int]:
        """Parse the input into polynomial coefficients once; reused
        read-only across all output bits of a run."""
        coeffs = [input.get_bits(i * self.l, self.l) for i in range(self.s)]
        self._cache = (input, coeffs)
        return coeffs

    def _coeffs(self, input: BitBuffer) -> list[int]:
        if self._cache is not None and self._cache[0] is input:
            return self._cache[1]
        return self.prepare(input)

    def extract(self, input: BitBuffer, subseed: BitBuffer) -> int:
        if len(subseed) < self.t_req:
            raise ValueError(f"subseed shorter than {self.t_req} bits")
        l = self.l
        alpha = subseed.get_bits(0, l)
        beta = subseed.get_bits(l, l)
        mul = self.field.mul
        r = 0
        for c in self._coeffs(input):  # Horner: sum c_i alpha^(s-i)
            r = mul(r, alpha) ^ c
        return (r & beta).bit_count() & 1


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
            raise ValueError("c and ell must be >= 1")
        self.n = n
        side = math.isqrt(n)
        if side * side < n:
            side += 1
        self.side = side
        self.n_v = side * side
        self.c = c
        self.ell = ell
        self.idx_width = ceil_log2(self.n_v)
        self.t_req = self.idx_width + 3 * c * (ell - 1) + ell

    def _input_bit(self, input: BitBuffer, x: int, y: int) -> int:
        pos = x * self.side + y
        return input.get_bit(pos) if pos < len(input) else 0

    def extract(self, input: BitBuffer, subseed: BitBuffer) -> int:
        if len(subseed) < self.t_req:
            raise ValueError(f"subseed shorter than {self.t_req} bits")
        v = subseed.get_bits(0, self.idx_width) % self.n_v
        x, y = divmod(v, self.side)
        walk_off = self.idx_width
        beta_off = walk_off + 3 * self.c * (self.ell - 1)
        bit = 0
        step = 0
        for i in range(self.ell):
            # Read the vertex bit unconditionally so the extractor touches
            # exactly ell input bits for any hash string.
            sample = self._input_bit(input, x, y)
            bit ^= subseed.get_bits(beta_off + i, 1) & sample
            if i < self.ell - 1:
                for _ in range(self.c):
                    e = subseed.get_bits(walk_off + 3 * step, 3)
                    step += 1
                    x, y = LU_NEIGHBOR_RULES[e](x, y, self.side)
        return bit


def from_params(p: ExtractorParams):
    """Build the configured extractor for a derived parameter set."""
    if p.family == "xor":
        return XorExtractor(p.n, p.ell)
    if p.family == "rsh":
        return RshExtractor(p.n, p.ell)
    if p.family == "lu":
        return LuExtractor(p.n, p.c, p.ell)
    raise ValueError(f"unknown family {p.family!r}")
