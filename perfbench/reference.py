"""Reference computation of trevex output bits, written apart from the package.

Nothing here imports ``trevex``.  The module restates, from the construction
rather than from the package's code, the pieces one output bit depends on:

* the weak-design row {x*t + p_i(x) : x in GF(t)} of the basic polynomial
  design, with p_i the i-th polynomial in base-t digit order, and the block
  design's partition and row order;
* the subseed gather (seed bits at the row positions, LSB-first);
* the xor, rsh and lu one-bit extractors.

Arithmetic uses different algorithms from the package where there is a
choice: trial division instead of Miller-Rabin, Ben-Or instead of Rabin for
irreducibility, and carry-less multiply followed by sparse reduction instead
of interleaved shift-and-reduce in GF(2^l).  Bit order throughout is the
package's file format: bit g is bit g % 8 of byte g // 8.
"""

from __future__ import annotations

import math

TWO_E = 2.0 * math.e


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def bit(data: bytes, g: int) -> int:
    return (data[g >> 3] >> (g & 7)) & 1


# --- weak design ------------------------------------------------------------

class BasicRows:
    """Rows of the basic design over the prime field GF(t), no transposition:
    the pair (x, p(x)) sits at seed position x*t + p(x)."""

    def __init__(self, t: int, m: int):
        if not is_prime(t):
            raise ValueError(f"reference covers prime t only, got {t}")
        self.t = t
        self.degree = 0
        while t ** (self.degree + 1) < m:
            self.degree += 1

    def row(self, i: int) -> list[int]:
        t = self.t
        coeffs = [(i // t ** j) % t for j in range(self.degree + 1)]
        out = []
        for x in range(t):
            y = 0
            for c in reversed(coeffs):
                y = (y * x + c) % t
            out.append(x * t + y)
        return out


def block_sizes(m: int, t: int) -> list[int]:
    """Row counts of the basic designs on the block diagonal (overlap r = 1):
    block i < ell holds ceil(A_i) - ceil(A_{i-1}) rows, with
    A_i = sum_{j<=i} (1 - 1/2e)^j (m/2e - 1); the last block takes the rest."""
    ell = max(1, math.ceil((math.log2(m - TWO_E) - math.log2(t - TWO_E))
                           / (math.log2(TWO_E) - math.log2(TWO_E - 1.0))))
    sizes = []
    acc = 0.0
    for i in range(ell):
        acc += (1.0 - 1.0 / TWO_E) ** i * (m / TWO_E - 1.0)
        sizes.append(math.ceil(acc) - sum(sizes))
    sizes.append(m - sum(sizes))
    return sizes


class Design:
    """Seed length and rows of a gfp weak design, basic or block."""

    def __init__(self, t: int, m: int, block: bool):
        self.t = t
        self.m = m
        if block:
            self.sizes = block_sizes(m, t)
            self.basic = BasicRows(t, max(self.sizes))
            self.order = [(k, j) for j, mj in enumerate(self.sizes)
                          for k in range(mj)]
            self.d = len(self.sizes) * t * t
        else:
            self.sizes = None
            self.basic = BasicRows(t, m)
            self.d = t * t

    def row(self, i: int) -> list[int]:
        if self.sizes is None:
            return self.basic.row(i)
        k, j = self.order[i]
        off = j * self.t * self.t
        return [e + off for e in self.basic.row(k)]


def gather(seed: bytes, positions) -> int:
    out = 0
    for j, g in enumerate(positions):
        out |= bit(seed, g) << j
    return out


# --- GF(2^l) ------------------------------------------------------------------

def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] bitmasks."""
    out = 0
    while b:
        low = b & -b
        out ^= a * low
        b ^= low
    return out


def poly_mod(a: int, f: int) -> int:
    df = f.bit_length()
    while a.bit_length() >= df:
        a ^= f << (a.bit_length() - df)
    return a


def ben_or_irreducible(f: int) -> bool:
    """f irreducible over GF(2) iff gcd(f, x^(2^i) - x) = 1 for i <= deg/2."""
    l = f.bit_length() - 1
    if l < 1:
        return False
    power = 0b10
    for _ in range(l // 2):
        power = poly_mod(clmul(power, power), f)
        a, b = f, power ^ 0b10
        while b:
            a, b = b, poly_mod(a, b)
        if a != 1:
            return False
    return True


def irreducibles(l: int):
    """Irreducible trinomials x^l + x^a + 1 in increasing order, then
    pentanomials x^l + x^c + x^b + x^a + 1 (c > b > a >= 1) in increasing
    order.  trevex fixes the first one as the modulus of GF(2^l)."""
    top = (1 << l) | 1
    for a in range(1, l):
        if ben_or_irreducible(top | (1 << a)):
            yield top | (1 << a)
    for c in range(3, l):
        for b in range(2, c):
            for a in range(1, b):
                cand = top | (1 << c) | (1 << b) | (1 << a)
                if ben_or_irreducible(cand):
                    yield cand


class GF2l:
    """GF(2^l) modulo a sparse polynomial x^l + low."""

    def __init__(self, modulus: int):
        self.l = modulus.bit_length() - 1
        self.low = modulus ^ (1 << self.l)  # sparse tail: x^l = low
        self.mask = (1 << self.l) - 1

    def mul(self, a: int, b: int) -> int:
        x = clmul(a, b)
        l, low, mask = self.l, self.low, self.mask
        while x >> l:
            x = (x & mask) ^ clmul(x >> l, low)
        return x


# --- one-bit extractors -----------------------------------------------------

class Xor:
    """Parity of ell input bits; position j is subseed bits
    [j*w, (j+1)*w) reduced mod n, w = ceil(log2 n)."""

    def __init__(self, n: int, ell: int):
        self.n = n
        self.ell = ell
        self.w = ceil_log2(n)
        self.t_req = ell * self.w

    def bit(self, data: bytes, sub: int) -> int:
        w, mask, out = self.w, (1 << self.w) - 1, 0
        for j in range(self.ell):
            out ^= bit(data, ((sub >> (j * w)) & mask) % self.n)
        return out


class Rsh:
    """Reed-Solomon hash then Hadamard bit: the input's l-bit blocks
    c_1..c_s (last zero-padded) are the coefficients of
    p(a) = sum_i c_i a^(s-i) over GF(2^l); output <p(alpha), beta> mod 2
    with alpha, beta the two l-bit halves of the subseed."""

    def __init__(self, n: int, l: int, modulus: int):
        self.n = n
        self.l = l
        self.s = -(-n // l)
        self.field = GF2l(modulus)
        self.t_req = 2 * l

    def blocks(self, data: bytes) -> list[int]:
        value = int.from_bytes(data, "little") & ((1 << self.n) - 1)
        mask = (1 << self.l) - 1
        return [(value >> (i * self.l)) & mask for i in range(self.s)]

    def bit(self, data: bytes, sub: int) -> int:
        mask = (1 << self.l) - 1
        alpha, beta = sub & mask, (sub >> self.l) & mask
        mul = self.field.mul
        acc = 0
        for c in self.blocks(data):
            acc = mul(acc, alpha) ^ c
        return (acc & beta).bit_count() & 1


# The degree-8 expander on Z_side^2: edge label e (3 seed bits) moves
# (x, y) by one of these maps, all mod side.
LU_STEPS = (
    lambda x, y, s: ((x + 2 * y) % s, y),
    lambda x, y, s: ((x - 2 * y) % s, y),
    lambda x, y, s: ((x + y + 1) % s, y),
    lambda x, y, s: ((x - y - 1) % s, y),
    lambda x, y, s: (x, (y + 2 * x) % s),
    lambda x, y, s: (x, (y - 2 * x) % s),
    lambda x, y, s: (x, (y + 2 * x + 1) % s),
    lambda x, y, s: (x, (y - 2 * x - 1) % s),
)


class Lu:
    """Expander walk: start vertex from the first w subseed bits
    (mod side^2), then ell remembered vertices c steps apart; output is the
    inner product of their input bits (x*side + y, zero past n) with the
    last ell subseed bits."""

    def __init__(self, n: int, ell: int, t_req: int):
        self.n = n
        self.ell = ell
        self.side = math.isqrt(n - 1) + 1
        self.w = ceil_log2(self.side * self.side)
        steps, rest = divmod(t_req - self.w - ell, 3 * (ell - 1))
        if rest or steps < 1:
            raise ValueError(f"t_req={t_req} is not w + 3c(ell-1) + ell")
        self.c = steps
        self.t_req = t_req

    def bit(self, data: bytes, sub: int) -> int:
        side = self.side
        x, y = divmod((sub & ((1 << self.w) - 1)) % (side * side), side)
        beta_off = self.w + 3 * self.c * (self.ell - 1)
        walk = sub >> self.w
        out = 0
        for i in range(self.ell):
            pos = x * side + y
            if pos < self.n and (sub >> (beta_off + i)) & 1:
                out ^= bit(data, pos)
            if i < self.ell - 1:
                for _ in range(self.c):
                    x, y = LU_STEPS[walk & 7](x, y, side)
                    walk >>= 3
        return out


def output_bit(design: Design, extractor, seed: bytes, data: bytes, i: int) -> int:
    """Output bit i: the one-bit extractor on the input and the first t_req
    seed bits that design row i selects."""
    return extractor.bit(data, gather(seed, design.row(i)[:extractor.t_req]))
