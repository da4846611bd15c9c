"""Independent oracles: brute-force overlap sums and a scalar
re-implementation of the whole pipeline.

The naive paths deliberately share no code with the fast paths for field
multiplication or parity; they exist to catch bugs in those paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finfield import BinaryField, PrimeField
from .trevisan import BitBuffer, ExtractionJob
from .weakdesign import BasicDesign, BlockDesign

# Rational over-approximation of 2e, so a floating comparison can never turn
# a true bound violation into a pass.
TWO_E_NUM = 543657
TWO_E_DEN = 100000

OVERLAP_MAX_T = 40
OVERLAP_MAX_M = 4096


class BudgetExceededError(Exception):
    pass


@dataclass
class OverlapReport:
    worst_row: int
    worst_sum: int
    bound_num: int   # bound as the exact rational bound_num / bound_den
    bound_den: int
    passed: bool


def overlap_check(design) -> OverlapReport:
    """Exact pairwise-intersection weight of every design row.

    Checks max_i sum_{j<i} 2^{|S_j cap S_i|} against r*m: exactly m for
    block designs (r = 1), (543657/100000)*m for basic designs (r = 2e).
    All arithmetic is exact integers.
    """
    t = design.t_act
    m = design.m
    if t > OVERLAP_MAX_T or m > OVERLAP_MAX_M:
        raise BudgetExceededError(f"t={t}, m={m} beyond the exact budget")
    masks = []
    for i in range(m):
        row = design.compute_Si(i)
        mask = 0
        for e in row:
            mask |= 1 << e
        if mask.bit_count() != t:
            raise AssertionError(f"row {i} has {mask.bit_count()} != t elements")
        masks.append(mask)
    worst_row = 0
    worst_sum = 0
    for i in range(m):
        mi = masks[i]
        total = 0
        for j in range(i):
            total += 1 << (masks[j] & mi).bit_count()
        if total > worst_sum:
            worst_sum = total
            worst_row = i
    if design.variant.is_block:
        num, den = m, 1
    else:
        num, den = TWO_E_NUM * m, TWO_E_DEN
    return OverlapReport(worst_row=worst_row, worst_sum=worst_sum,
                         bound_num=num, bound_den=den,
                         passed=worst_sum * den <= num)


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
    raise BudgetExceededError(f"unsupported field {type(field).__name__}")


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


def _naive_design_rows(design, m: int) -> list[list[int]]:
    if isinstance(design, BasicDesign):
        return [_naive_basic_row(design, i) for i in range(m)]
    if isinstance(design, BlockDesign):
        t2 = design.t_act * design.t_act
        rows = []
        for j, mj in enumerate(design.partition.m_list):  # block-sequential
            for k in range(mj):
                rows.append([e + j * t2
                             for e in _naive_basic_row(design._basic, k)])
        return rows[:m]
    raise BudgetExceededError(f"unsupported design {type(design).__name__}")


def _bits_of(buf: BitBuffer) -> list[int]:
    data = buf.to_bytes()
    return [(data[i // 8] >> (i % 8)) & 1 for i in range(len(buf))]


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
                    # independently re-stated neighbor rules
                    if e == 0:
                        x = (x + 2 * y) % side
                    elif e == 1:
                        x = (x - 2 * y) % side
                    elif e == 2:
                        x = (x + y + 1) % side
                    elif e == 3:
                        x = (x - y - 1) % side
                    elif e == 4:
                        y = (y + 2 * x) % side
                    elif e == 5:
                        y = (y - 2 * x) % side
                    elif e == 6:
                        y = (y + 2 * x + 1) % side
                    else:
                        y = (y - 2 * x - 1) % side
        return bit
    raise BudgetExceededError(f"unsupported extractor {name}")


def naive_extract(job: ExtractionJob) -> BitBuffer:
    """Scalar re-implementation of the composition, one allocation per bit."""
    if len(job.input) > NAIVE_MAX_N or job.m > NAIVE_MAX_M:
        raise BudgetExceededError("job beyond the naive-oracle budget")
    input_bits = _bits_of(job.input)
    seed_bits = _bits_of(job.seed)
    rows = _naive_design_rows(job.design, job.m)
    t_req = job.extractor.t_req
    out = BitBuffer(job.m)
    for i in range(job.m):
        sub_bits = [seed_bits[idx] for idx in rows[i][:t_req]]
        out.set_bit(i, _naive_one_bit(job.extractor, input_bits, sub_bits))
    return out
