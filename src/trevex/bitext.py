"""One-bit extractors: parity sampling (XOR), polynomial hashing
(Reed-Solomon followed by a Hadamard inner product), and the expander-walk
construction.

All three share one contract.  ``t_req`` is the subseed length consumed per
output bit; each extractor is its only owner, and the CLI sizes the design
from it.  ``prepare(input)`` parses a BitBuffer once into an immutable
value (XOR: its bytes; LU: its bytes zero-padded to side^2 bits; RSH:
multiples of its packed polynomial coefficients), and
``extract(prepared, subseeds)`` returns the bits of a run of subseeds as an
int whose bit i is the output bit for subseeds[i], each subseed read as an
int whose bit j is subseed bit j.  XOR and RSH compute a run bit by bit;
LU walks the whole run at once.  Instances are immutable after
configuration and reentrant.  A constructor raises InfeasibleParameters
for a parameter set that admits no such extractor.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import islice
from operator import getitem, itemgetter, xor

from .finfield import find_irreducible
from .params import ExtractorParams, InfeasibleParameters, ceil_log2
from .trevisan import _MOVE_BIT, BitBuffer


def _bits(bit, prepared, subseeds) -> int:
    """A run's bits by a one-bit step: bit i is bit(prepared, subseeds[i])."""
    out = 0
    for i, subseed in enumerate(subseeds):
        out |= bit(prepared, subseed) << i
    return out


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

    def extract(self, prepared: bytes, subseeds) -> int:
        return _bits(self._bit, prepared, subseeds)

    def _bit(self, prepared: bytes, subseed: int) -> int:
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
    p = 0
    for table in tables:
        p ^= table[r & 15]
        r >>= 4
    return p


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

    A multiplication by a fixed a takes ceil(l/4) nibble tables
    T_j[b] = (b * x^(4j)) * a mod f, built from the l products x^k * a
    (Shoup's tables for a fixed multiplier, as in GHASH), and is
    r * a = T_0[r & 15] ^ T_1[r >> 4 & 15] ^ ... over the nibbles of r.
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
        ones = int.from_bytes(b"\1".ljust(w // 8, b"\0") * self._giant,
                              "little")  # 1 at the bottom of every slot
        self._low = ((1 << l) - 1) * ones
        self._high = ((1 << w - l) - 1) * ones

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
        """The ceil(l/4) nibble tables of multiplication by alpha."""
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
        return tables

    def extract(self, prepared: tuple[tuple[int, ...], ...], subseeds) -> int:
        return _bits(self._bit, prepared, subseeds)

    def _bit(self, prepared: tuple[tuple[int, ...], ...], subseed: int) -> int:
        l, w = self.l, self._slot
        mask = (1 << l) - 1
        size = -(-l // 8)
        tables = self._tables(subseed & mask)
        powers = []  # alpha^0 ... alpha^(B-1) in size bytes; r ends at alpha^B
        r = 1
        for _ in range(self._baby):
            powers.append(r.to_bytes(size, "little"))
            r = _times(tables, r)
        # Every Q_g at once, unreduced in slot g: the nibble at bit k of
        # alpha^r picks one multiple of packed column r, shifted by k.
        power_bytes = b"".join(powers)
        q = 0
        for k in range(0, l, 8):
            byte = power_bytes[k >> 3::size]
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


# _ONE_HOT maps a byte to 1 << (its low 3 bits); _DIGITS maps 0 and 0x80
# to "0" and "1".
_ONE_HOT = bytes([1, 2, 4, 8, 16, 32, 64, 128]) * 32
_DIGITS = bytes.maketrans(b"\0\x80", b"01")


class _Lanes:
    """count walks on Z_side side by side, one lane of width bits each:
    lane i of a coordinate int is its bits [i * width, (i + 1) * width).
    Lanes are 16 bits up to side = 2^15, else 32 (up to side = 2^31,
    n = 2^62): a lane then holds every sum below 2 * side, and a sum below
    side + 2^(width-1) has its top bit set iff it is at least side; a
    power-of-two side up to 2^14 (2^30 in 32-bit lanes) leaves the sums
    below 3 * side unreduced and keeps their low bits.  A vertex read
    widens the even lanes and the odd lanes, by a mask and a shift, into
    lanes of twice the width, where x * side + y fits, and lists the even
    lanes' positions first; a run's walks are laid out by ``interleave``,
    so that reads list them in run order."""

    def __init__(self, side: int, count: int):
        self.side, self.count = side, count
        self.width = width = 16 if side <= 1 << 15 else 32
        self.top = top = width - 1
        ones = int.from_bytes((1).to_bytes(width // 8, "little") * count,
                              "little")
        self.ones = ones
        self.lane_max = (1 << width) - 1
        self.half = (1 << top) - 1
        self.bias = ones * ((1 << top) - side)
        # a residue mod a power of two is its low bits, if every unreduced
        # sum (below 3 * side) fits a lane
        self.low = (ones * (side - 1)
                    if side & side - 1 == 0 and 3 * side <= 1 << width else 0)
        pairs = (count + 1) // 2
        self.evens = int.from_bytes(
            self.lane_max.to_bytes(width // 4, "little") * pairs, "little")
        self.odd_shift = 2 * width * pairs
        self.byte_mask = int.from_bytes(
            ((1 << 2 * width - 3) - 1).to_bytes(width // 4, "little") * count,
            "little")
        self.cast = "I" if width == 16 else "Q"
        self.carry = int.from_bytes(b"\x7f" * count, "little")

    def interleave(self, items: list) -> list:
        """The run's items in lane order: lane 2j holds item j and lane
        2j + 1 item h + j, h = ceil(count / 2)."""
        out = list(items)
        h = (self.count + 1) // 2
        out[0::2], out[1::2] = items[:h], items[h:]
        return out

    def pack(self, values) -> int:
        """The lanes holding values, in order."""
        size = self.width // 8
        return int.from_bytes(b"".join([v.to_bytes(size, "little")
                                        for v in values]), "little")

    def step_codes(self, walks: list, lo: int, steps: int):
        """Every walk's codes of steps 0, 1, ..., steps - 1, one lane int
        per step whose lanes hold the codes in bits 0-2; the bits above
        them are not zeroed, and up to 7 more codes may follow.  The code
        of step k is a walk's bits lo + 3k, lo + 3k + 1 and lo + 3k + 2,
        lowest first.  Walks are packed once, 3 bytes per 8 steps, and
        each 8 steps take two 16-bit windows:
        steps 8q to 8q + 4 from byte 3q, shifted by 0, 3, 6, 9 and 12, and
        steps 8q + 5 to 8q + 7 from byte 3q + 1, shifted by 7, 10 and 13."""
        lane = self.width // 8
        size = 3 * -(-steps // 8)
        mask = (1 << 8 * size) - 1
        packed = b"".join([(s >> lo & mask).to_bytes(size, "little")
                           for s in walks])
        buf = bytearray(lane * self.count)
        for q in range(0, size, 3):
            for at, shifts in ((q, (0, 3, 6, 9, 12)), (q + 1, (7, 10, 13))):
                buf[0::lane] = packed[at::size]
                buf[1::lane] = packed[at + 1::size]
                codes = int.from_bytes(buf, "little")
                for shift in shifts:
                    yield codes >> shift

    def walk(self, u: int, v: int, moved_y: int,
             codes) -> tuple[int, int, int]:
        """Every walk's steps by codes, one lane int per step: lane i moves
        by neighbor rule b0 + 2*b1 + 4*b2, lane i of a code, of the degree-8
        expander on Z_side x Z_side, in fixed edge label order (+ before -):
        it moves x (b2 = 0) or y (b2 = 1) by a term in the other coordinate,
        2y or else y + 1 for x, 2x or else 2x + 1 for y (b1), added or else
        subtracted (b0).  verify.LU_NEIGHBOR_RULES states the rules one
        vertex at a time, as the reference.

        A walk is carried as (u, v, moved_y): u is the coordinate its last
        step moved, and moved_y is lane_max in the lanes where that was y,
        else 0 (x, y, 0 before the first step).  A lane's coordinates are
        swapped only where its moving coordinate changes, which leaves
        u ^ v as it was, and (x, y) is u, v swapped where moved_y is set.
        Where side is a power of two and 3 * side fits a lane, u - term
        is (u + (term ^ (2 * side - 1)) + 1) & (side - 1), term unreduced
        (at most 2 * side - 1).  Other sides keep each residue by a
        conditional subtraction: add 2^top - side to every lane, and
        subtract side where the sum has its top bit set."""
        ones, lane_max, side, bias, top, half, low = (
            self.ones, self.lane_max, self.side, self.bias, self.top,
            self.half, self.low)
        wrap = 2 * side - 1
        for code in codes:
            b0, b1, b2 = code & ones, code >> 1 & ones, code >> 2 & ones
            moves_y = b2 * lane_max
            swap = (u ^ v) & (moves_y ^ moved_y)
            u ^= swap  # u moves, by a term in v
            v ^= swap
            moved_y = moves_y
            term = v + (v & ((b1 ^ ones) | b2) * lane_max) + b1
            if low:
                u = u + (term ^ b0 * wrap) + b0 & low
            else:
                term -= (term + bias >> top & ones) * side
                # b0: u - term as u + (side - term), side - term being
                # (half ^ term) - (half - side) for half = 2^top - 1 >= term
                u += (term ^ b0 * half) - b0 * (half - side)
                u -= (u + bias >> top & ones) * side
        return u, v, moved_y

    def read(self, prepared: bytes, x: int, y: int) -> int:
        """Lanes of 8 bits, in run order, whose bit 7 is the input bit at
        each walk's position x * side + y; the bits below it are not
        zeroed.  One itemgetter reads every position's byte, and the
        byte's bit is carried into bit 7 by a one-hot mask of its offset
        and the addition of 0x7f."""
        width, evens, side = self.width, self.evens, self.side
        count = self.count
        pos = ((x & evens) * side + (y & evens)
               | ((x >> width & evens) * side + (y >> width & evens))
               << self.odd_shift)
        size = width // 4 * count
        order = sys.byteorder  # of the ints the cast reads
        # a list, which itemgetter(*index) unpacks faster than a memoryview
        index = memoryview((pos >> 3 & self.byte_mask).to_bytes(
            size, order)).cast(self.cast).tolist()
        got = itemgetter(*index)(prepared)
        data = int.from_bytes(got if count > 1 else (got,), order)
        offsets = pos.to_bytes(size, "little")[::width // 4]
        return (data & int.from_bytes(offsets.translate(_ONE_HOT), "little")
                ) + self.carry


class LuExtractor:
    """Expander-walk extractor: remember ell vertices of a walk, hash the
    corresponding input bits against an ell-bit string.

    The graph lives on Z_side x Z_side with side = ceil(sqrt(n)); vertex
    (x, y) maps to input position x*side + y, and positions >= n read as 0
    (zero-padding keeps linearity and determinism).  Between remembered
    vertices the walk takes c single steps of 3 seed bits each, by the
    neighbor rules of _Lanes.walk.

    ``extract`` walks a run of subseeds at once, one lane per walk
    (_Lanes), with one lane int of step codes per step: one _Lanes.walk
    call takes the c steps between two remembered vertices, and the vertex
    is recovered from the walk state for its read.  The ell hash bits of
    every subseed are packed once, and hash bit j of the whole run is a
    strided byte slice read through a _MOVE_BIT table, as
    trevisan.slice_subseed reads range rows.
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
        """The input's bytes, zero-padded to side^2 bits."""
        return input.to_bytes().ljust(-(-self.n_v // 8), b"\0")

    def extract(self, prepared: bytes, subseeds) -> int:
        if not subseeds:
            return 0
        side, c, ell, w = self.side, self.c, self.ell, self.idx_width
        count = len(subseeds)
        lanes = _Lanes(side, count)
        walk, read = lanes.walk, lanes.read
        walks = lanes.interleave(subseeds)
        starts = [(s & (1 << w) - 1) % self.n_v for s in walks]
        # the walk state of _Lanes.walk, (x, y, 0) before the first step
        u = lanes.pack([p // side for p in starts])
        v = lanes.pack([p % side for p in starts])
        moved_y = 0
        lo, size = w + 3 * c * (ell - 1), -(-ell // 8)
        hashes = b"".join([(s >> lo & (1 << ell) - 1).to_bytes(size, "little")
                           for s in subseeds])
        codes = lanes.step_codes(walks, w, c * (ell - 1))
        # Read each vertex bit whatever its hash bit, so that every walk
        # touches exactly ell input bits for any hash string.
        out = 0
        for j in range(ell):
            if j:
                u, v, moved_y = walk(u, v, moved_y, islice(codes, c))
            swap = (u ^ v) & moved_y
            out ^= read(prepared, u ^ swap, v ^ swap) & int.from_bytes(
                hashes[j >> 3::size].translate(_MOVE_BIT[j & 7][7]), "little")
        return int(out.to_bytes(count, "little").translate(_DIGITS)[::-1], 2)


def from_params(p: ExtractorParams):
    """Build the configured extractor for a derived parameter set."""
    if p.family == "xor":
        return XorExtractor(p.n, p.ell)
    if p.family == "rsh":
        return RshExtractor(p.n, p.ell)
    if p.family == "lu":
        return LuExtractor(p.n, p.c, p.ell)
    raise ValueError(f"unknown family {p.family!r}")
