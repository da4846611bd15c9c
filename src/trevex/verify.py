"""Independent oracles: an exact one-pass overlap check of a whole design,
and a scalar re-implementation of the whole pipeline.

The naive paths deliberately share no code with the fast paths for field
multiplication or parity; they exist to catch bugs in those paths.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import floordiv

from .finfield import BinaryField, PrimeField
from .trevisan import BitBuffer, ExtractionJob
from .weakdesign import BasicDesign, BlockDesign, LoadedBasicDesign

# Rational over-approximation of 2e, so a floating comparison can never turn
# a true bound violation into a pass.
TWO_E_NUM = 543657
TWO_E_DEN = 100000


class BudgetExceededError(Exception):
    pass


@dataclass
class OverlapReport:
    worst_row: int
    worst_sum: int
    bound_num: int   # bound as the exact rational bound_num / bound_den
    bound_den: int
    passed: bool
    error: str | None = None  # why it failed, naming the first bad row


def _runs(design):
    """(lo, hi, block) of the design's rows in order: the rows [lo, hi)
    are read, or, where block is not None, they are block (0 for a basic
    design)'s rows below t of a loaded cache, which stores none of them:
    the construction's ranges {block*t*t + x*t + k : x < t}, k = i - lo."""
    t, m = design.t_act, design.m
    if not isinstance(getattr(design, "basic", None), LoadedBasicDesign):
        return [(0, m, None)]
    sizes = design.m_list if design.variant.is_block else [m]
    runs, lo = [], 0
    for block, size in enumerate(sizes):
        runs.append((lo, lo + min(size, t), block))
        if size > t:  # the stored rows from t on
            runs.append((lo + t, lo + size, None))
        lo += size
    return runs


def overlap_check(design) -> OverlapReport:
    """Checks, in one pass, that each row has t distinct elements in [0, d)
    (the first bad row ends the check), and max_i sum_{j<i} 2^{|S_j cap S_i|}
    against r*m: exactly m for block designs (r = 1), (543657/100000)*m for
    basic designs (r = 2e), in exact integers.

    A loaded cache's rows below t, which it does not store, are the
    construction's ranges, and are not read: within a block they are
    distinct residues mod t, so each meets no earlier row and row i sums
    to i, and an element e of a later stored row of the block meets the
    one of residue e % t.  A stored row must lie within its block.  Other
    stride-t range rows {a + x*t : x < t} are kept as their starts, by
    residue mod t: two meet only in a common residue, in t - |a - b|/t
    elements.  The other rows' elements are indexed: element k of row i
    is at position i*t + k; last[e] is the latest position of element e,
    before[p] the previous position of p's element: 4*d + 4*m*t bytes,
    allocated at the first such row (a design of 2**31 positions or more
    raises OverflowError).
    """
    t, m, d = design.t_act, design.m, design.d
    num, den = ((m, 1) if design.variant.is_block
                else (TWO_E_NUM * m, TWO_E_DEN))
    starts = {}  # a % t -> [(a, i), ...] of the stride-t range rows so far
    last = before = None
    worst_row = worst_sum = 0
    ranges = None  # the first of the unread range rows of this block
    floor, ceil = 0, d  # where the block's rows lie
    for lo, hi, block in _runs(design):
        if block is not None:
            ranges, floor, ceil = lo, block * t * t, (block + 1) * t * t
            if hi - 1 > worst_sum:  # sums lo, ..., hi - 1
                worst_row = worst_sum = hi - 1
            continue
        for i in range(lo, hi):
            row = design.compute_Si(i)
            stride = isinstance(row, range) and row.step == t
            distinct = len(row) if isinstance(row, range) else len(set(row))
            if distinct != t or len(row) != t:
                return OverlapReport(i, worst_sum, num, den, False,
                                     f"row {i} has {distinct} distinct "
                                     f"elements, want {t}")
            ends = (row[0], row[-1]) if isinstance(row, range) else row
            if min(ends) < floor or max(ends) >= ceil:
                return OverlapReport(i, worst_sum, num, den, False,
                                     f"row {i} outside [{floor}, {ceil})")
            shared = Counter()  # earlier row -> elements shared with this one
            if ranges is not None:  # one unread range row per residue
                shared.update([ranges + e % t for e in row])
            elif stride:  # only stride rows of its residue can meet it
                a = row.start
                for b, j in starts.get(a % t, ()):
                    if abs(a - b) < t * t:
                        shared[j] += t - abs(a - b) // t
                starts.setdefault(a % t, []).append((a, i))
            elif starts:  # each element meets the stride rows of its residue
                for e in row:
                    for b, j in starts.get(e % t, ()):
                        if b <= e < b + t * t:
                            shared[j] += 1
            if last is None and not stride:
                last, before = array("i", [-1]) * d, array("i", [0]) * (m * t)
            if last is not None:  # the indexed rows it meets; stride rows stay out
                hits = []
                for pos, e in enumerate(row, i * t):
                    p = last[e]
                    if not stride:
                        before[pos] = p
                        last[e] = pos
                    while p >= 0:
                        hits.append(p)
                        p = before[p]
                shared.update(map(floordiv, hits, repeat(t)))
            total = i - len(shared) + sum(1 << c for c in shared.values())
            if total > worst_sum:
                worst_row, worst_sum = i, total
    passed = worst_sum * den <= num
    return OverlapReport(worst_row, worst_sum, num, den, passed, None if passed
                         else f"row {worst_row} overlap sum {worst_sum} "
                         "exceeds the r*m bound")


# --- naive scalar pipeline -------------------------------------------------

NAIVE_MAX_N = 1 << 16
NAIVE_MAX_M = 1 << 12


def _naive_mulmod(a: int, b: int, p: int) -> int:
    """Double-and-add modular product; no wide multiply."""
    acc = 0
    while b:
        if b & 1:
            acc += a
            if acc >= p:
                acc -= p
        a += a
        if a >= p:
            a -= p
        b >>= 1
    return acc


def _naive_binary_mulmod(a: int, b: int, l: int, poly: int) -> int:
    """Schoolbook carryless product, then reduction from the top."""
    prod = 0
    for i in range(l):
        if (b >> i) & 1:
            prod ^= a << i
    for deg in range(2 * l - 2, l - 1, -1):
        if (prod >> deg) & 1:
            prod ^= poly << (deg - l)
    return prod


def _naive_field_ops(field):
    if isinstance(field, PrimeField):
        p = field.p
        return (lambda a, b: _naive_mulmod(a, b, p),
                lambda a, b: (a + b) % p)
    if isinstance(field, BinaryField):
        l, poly = field.l, field.poly
        return (lambda a, b: _naive_binary_mulmod(a, b, l, poly),
                lambda a, b: a ^ b)
    raise TypeError(f"unsupported field {type(field).__name__}")


def _naive_basic_row(design: BasicDesign, i: int) -> list[int]:
    t = design.t_act
    mul, add = _naive_field_ops(design.field)
    coeffs = []
    v = i
    for _ in range(design.c + 1):
        coeffs.append(v % t)
        v //= t
    out = []
    for x in range(t):
        val = 0
        for j, cf in enumerate(coeffs):  # power sum, no Horner
            term = cf
            for _ in range(j):
                term = mul(term, x)
            val = add(val, term)
        out.append(x * t + val)
    return sorted(out)


def _naive_basic_rows(basic: BasicDesign, n: int) -> list[list[int]]:
    """The first n rows of a basic design: as a loaded cache kept them
    (x*t + i for a row i below t), or as the construction gives them."""
    if isinstance(basic, LoadedBasicDesign):
        t = basic.t_act
        rows = [[x * t + i for x in range(t)] for i in range(min(t, n))]
        return rows + [list(row) for row in basic._stored[:max(n - t, 0)]]
    return [_naive_basic_row(basic, i) for i in range(n)]


def _naive_design_rows(design, m: int) -> list[list[int]]:
    """The first m rows, always as lists: the rows of the design's basic
    design, composed on the block diagonal for a block design."""
    if not isinstance(design, (BasicDesign, BlockDesign)):
        raise TypeError(f"unsupported design {type(design).__name__}")
    basic = design.basic
    rows = _naive_basic_rows(basic, min(basic.m, m))
    if basic is design:
        return rows
    t2 = design.t_act * design.t_act
    return [[e + j * t2 for e in row]  # block-sequential
            for j, mj in enumerate(design.m_list) for row in rows[:mj]][:m]


def _bits_of(buf: BitBuffer) -> list[int]:
    data = buf.to_bytes()
    return [(data[i // 8] >> (i % 8)) & 1 for i in range(len(buf))]


# Neighbor rules of the degree-8 expander on Z_side x Z_side that the lu
# extractor walks, one vertex at a time, indexed by a step's 3-bit code as
# bitext._Lanes.walk reads it in lanes.
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


def _naive_one_bit(extractor, input_bits: list[int], sub_bits: list[int]) -> int:
    name = type(extractor).__name__
    if name == "XorExtractor":
        w = extractor.idx_width
        bit = 0
        for i in range(extractor.ell):
            chunk = sub_bits[i * w:(i + 1) * w]
            pos = sum(b << j for j, b in enumerate(chunk)) % extractor.n
            bit ^= input_bits[pos]
        return bit
    if name == "RshExtractor":
        l = extractor.l
        s = extractor.s
        poly = extractor.field.poly
        padded = input_bits + [0] * (s * l - len(input_bits))
        blocks = [sum(b << j for j, b in enumerate(padded[i * l:(i + 1) * l]))
                  for i in range(s)]
        alpha = sum(b << j for j, b in enumerate(sub_bits[:l]))
        beta = sub_bits[l:2 * l]
        r = 0
        for i, c in enumerate(blocks, start=1):
            term = c
            for _ in range(s - i):
                term = _naive_binary_mulmod(term, alpha, l, poly)
            r ^= term
        bit = 0
        for j in range(l):  # per-bit parity
            bit ^= beta[j] & ((r >> j) & 1)
        return bit
    if name == "LuExtractor":
        side = extractor.side
        w = extractor.idx_width
        v = sum(b << j for j, b in enumerate(sub_bits[:w])) % extractor.n_v
        x, y = v // side, v % side
        walk = sub_bits[w:w + 3 * extractor.c * (extractor.ell - 1)]
        beta = sub_bits[w + 3 * extractor.c * (extractor.ell - 1):]
        bit = 0
        step = 0
        for i in range(extractor.ell):
            pos = x * side + y
            sample = input_bits[pos] if pos < len(input_bits) else 0
            bit ^= beta[i] & sample
            if i < extractor.ell - 1:
                for _ in range(extractor.c):
                    e = walk[3 * step] | (walk[3 * step + 1] << 1) | (walk[3 * step + 2] << 2)
                    step += 1
                    x, y = LU_NEIGHBOR_RULES[e](x, y, side)
        return bit
    raise TypeError(f"unsupported extractor {name}")


def naive_extract(job: ExtractionJob) -> BitBuffer:
    """Scalar re-implementation of the composition, one allocation per bit."""
    if len(job.input) > NAIVE_MAX_N or job.m > NAIVE_MAX_M:
        raise BudgetExceededError("job beyond the naive-oracle budget")
    input_bits = _bits_of(job.input)
    seed_bits = _bits_of(job.seed)
    rows = _naive_design_rows(job.design, job.m)
    t_req = job.extractor.t_req
    value = 0
    for i in range(job.m):
        sub_bits = [seed_bits[idx] for idx in rows[i][:t_req]]
        value |= _naive_one_bit(job.extractor, input_bits, sub_bits) << i
    return BitBuffer(job.m, value)
