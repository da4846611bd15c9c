"""End-to-end acceptance suite.

Each test covers one numbered criterion; run with -v for one pass/fail
line per criterion.  Where a criterion needs a reference value that the
code under test also computes, the value is restated here rather than
taken from the package: ``_naive_mulmod`` restates field multiplication,
and ``_reference_break_even`` derives criterion 6's break-even input size
from the XOR-code parameter formulas (sample count ell from the XOR
list-decoding bound of De, Portmann, Vidick and Renner, entropy overhead
of the XOR one-bit extractor, seed length next_prime(t)**2 of the gfp
basic design).
"""

import math
import os
import random
import time

import pytest

from trevex.finfield import (BinaryField, PrimeField, find_irreducible,
                             next_prime)
from trevex.bitext import XorExtractor, from_params
from trevex.params import (InfeasibleParameters, RKind, max_output_len,
                           rsh_params, xor_params)
from trevex.trevisan import BitBuffer, ExtractionJob, extract_all
from trevex.verify import TWO_E_DEN, TWO_E_NUM, naive_extract, overlap_check
from trevex.weakdesign import (BasicDesign, BlockDesign, DesignVariant,
                               block_partition, design_d, make_design)

from conftest import FAMILIES, field_pow, rand_buf, rand_job, xor

MERSENNE_61 = (1 << 61) - 1


def _naive_mulmod(a, b, p):
    # restated here so the acceptance check does not lean on verify.py
    acc = 0
    while b:
        if b & 1:
            acc = (acc + a) % p
        a = (a + a) % p
        b >>= 1
    return acc


def test_criterion_01_basic_design_bound():
    """Basic-design overlap sums stay under the fixed rational 2e bound."""
    deadline = time.perf_counter() + 60.0
    m_top = 256
    for t in (2, 3, 4, 5, 7, 8, 11, 13, 16):
        big = BasicDesign(t, m_top)
        # rows are prefix-stable: smaller m only drops trailing rows
        small = BasicDesign(t, 17)
        assert all(big.compute_Si(i) == small.compute_Si(i) for i in range(17))
        masks = []
        worst = 0
        for i in range(m_top):
            mask = 0
            for e in big.compute_Si(i):
                mask |= 1 << e
            total = sum(1 << (mask & prev).bit_count() for prev in masks)
            worst = max(worst, total)
            m = i + 1
            assert worst * TWO_E_DEN <= TWO_E_NUM * m, \
                f"t={t}, m={m}: worst sum {worst} exceeds 2e*m"
            masks.append(mask)
    assert time.perf_counter() < deadline, "criterion 1 exceeded 60 s"


def test_criterion_02_block_design_bound():
    """Block-design overlap sums <= m; partitions always sum to m."""
    deadline = time.perf_counter() + 120.0
    for t in (7, 11, 13):
        for m in range(8, 201):
            rep = overlap_check(BlockDesign(t, m))
            assert rep.passed and rep.worst_sum <= m, \
                f"t={t}, m={m}: worst sum {rep.worst_sum} > {m}"
    rng = random.Random(2)
    for _ in range(10 ** 4):
        t = rng.randrange(7, 300)
        m = rng.randrange(6, 10 ** 5)
        m_list = block_partition(m, t)
        assert sum(m_list) == m
        assert m_list[-1] <= t
    assert time.perf_counter() < deadline, "criterion 2 exceeded 120 s"


def test_criterion_03_coefficient_ordering():
    d = BasicDesign(2, 6)
    seq = [tuple(reversed(d.coefficients(i))) for i in range(6)]
    assert seq == [(0, 0, 0), (0, 0, 1), (0, 1, 0),
                   (0, 1, 1), (1, 0, 0), (1, 0, 1)]


def test_criterion_04_xor_design_sizing():
    t_act, d = design_d(DesignVariant.GFP, 1700)
    assert (t_act, d) == (1709, 2920681)
    assert abs(d / 2.9e6 - 1.0) <= 0.01


def test_criterion_05_rsh_design_sizing():
    n, eps = 1 << 16, 2.0 ** -16
    assert from_params(rsh_params(n, 64, 0.5, eps)).t_req == 100
    assert design_d(DesignVariant.GFP, 100) == (101, 10201)
    assert abs(10201 / (10 * 1024) - 1.0) <= 0.01
    m_max = max_output_len("rsh", n, 0.5, eps, RKind.ONE)
    assert m_max == 32698
    _, d_block = design_d(DesignVariant.BLOCK_GFP, 100, m_max)
    kibit = d_block / 1024
    assert 280 <= kibit <= 320, f"block design is {kibit:.1f} KiBit"
    assert abs(d_block / (300 * 1024) - 1.0) <= 0.10


BREAK_EVEN_ALPHA, BREAK_EVEN_MU, BREAK_EVEN_EPS = 0.8, 0.05, 1e-7


def _xor_break_even(n: int) -> bool:
    """True when the xor pipeline with a gfp design can emit at least as
    many bits as the seed it consumes."""
    try:
        m = max_output_len("xor", n, BREAK_EVEN_ALPHA, BREAK_EVEN_EPS,
                           RKind.TWO_E, mu=BREAK_EVEN_MU)
    except InfeasibleParameters:
        return False
    if m <= 0:
        return False
    p = xor_params(n, m, BREAK_EVEN_ALPHA, BREAK_EVEN_MU, BREAK_EVEN_EPS)
    if not p.feasible:
        return False
    _, d = design_d(DesignVariant.GFP, from_params(p).t_req)
    return m >= d


def _reference_break_even() -> int:
    """Break-even input size restated from the formulas, without calling
    the package:

        ell = ceil(2 ln 2 / h^-1(mu*alpha) * log2((2 + sqrt 2) / eps))
        t   = ell * ceil(log2 n)
        d   = next_prime(t)**2
        m   = floor((alpha*n - mu*alpha*n - 6 log2((1 + sqrt 2) / eps)
                     - log2(4/3)) / 2e)

    On the octave (2^(w-1), 2^w] ceil(log2 n) = w, so d is fixed and
    m >= d solves in closed form for the smallest n; the first octave
    holding a solution gives the answer.
    """
    alpha, mu, eps = BREAK_EVEN_ALPHA, BREAK_EVEN_MU, BREAK_EVEN_EPS

    def h(p):
        return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)

    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if h(mid) < mu * alpha:
            lo = mid
        else:
            hi = mid
    ell = math.ceil(2.0 * math.log(2.0) / hi
                    * math.log2((2.0 + math.sqrt(2.0)) / eps))

    def is_prime(q):
        return q >= 2 and all(q % f for f in range(2, math.isqrt(q) + 1))

    overhead = 6.0 * math.log2((1.0 + math.sqrt(2.0)) / eps) + math.log2(4.0 / 3.0)
    for w in range(1, 60):
        prime = ell * w
        while not is_prime(prime):
            prime += 1
        n = max(math.ceil((overhead + 2.0 * math.e * prime * prime)
                          / (alpha - mu * alpha)),
                (1 << (w - 1)) + 1)
        if n <= 1 << w:
            return n
    raise AssertionError("no reference break-even below 2^59")


def test_criterion_06_break_even_input_size():
    """The smallest n at which the xor pipeline (gfp design, mu=0.05,
    eps=1e-7, alpha=0.8) emits at least as many bits as its seed must
    equal ``_reference_break_even`` (about 7.45e11 bits).

    The pipeline value is found by bisection.  That is valid within one
    octave (2^(e-1), 2^e]: ceil(log2 n) = e there, so t and d are fixed
    while m grows with n, and break-even is monotone in n.  The first
    power of two that breaks even therefore closes the first octave that
    holds a break-even n.
    """
    lo_exp = 20
    hi_exp = next((e for e in range(lo_exp, 60) if _xor_break_even(1 << e)),
                  None)
    assert hi_exp is not None, \
        f"no n = 2^e with {lo_exp} <= e < 60 reaches break-even"
    lo, hi = 1 << (hi_exp - 1), 1 << hi_exp
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _xor_break_even(mid):
            hi = mid
        else:
            lo = mid
    assert _xor_break_even(hi) and not _xor_break_even(hi - 1), \
        f"n = {hi} does not bracket break-even"
    expected = _reference_break_even()
    print(f"measured break-even n = {hi:.3e} bits, derived {expected:.3e}")
    assert hi == expected, \
        f"break-even n = {hi}, derived from the formulas {expected}"


def test_criterion_07_oracle_equivalence():
    rng = random.Random(7)
    for family in FAMILIES:
        for _ in range(50):
            job = rand_job(rng, family, n_max=512, m_max=48)
            assert naive_extract(job) == extract_all(job), \
                f"fast/naive mismatch for {family}"


def test_criterion_08_pipeline_linearity():
    rng = random.Random(8)
    for family in FAMILIES:
        for trial in range(10 ** 3):
            if trial % 50 == 0:
                job = rand_job(rng, family, n_max=256, m_max=16)
                base_out = extract_all(job)
                base_in = job.input
            other = rand_buf(rng, len(base_in))
            job.input = other
            out_other = extract_all(job)
            job.input = xor(base_in, other)
            assert extract_all(job) == xor(base_out, out_other)
            job.input = base_in


def test_criterion_09_worker_count_invariance():
    rng = random.Random(9)
    for i in range(100):
        job = rand_job(rng, FAMILIES[i % 3], n_max=256, m_max=32)
        outs = []
        for workers in (1, 2, 8):
            job.workers = workers
            outs.append(extract_all(job).to_bytes())
        assert outs[0] == outs[1] == outs[2]


def test_criterion_10_field_correctness():
    rng = random.Random(10)
    field = PrimeField(MERSENNE_61)
    for _ in range(10 ** 5):
        a = rng.randrange(MERSENNE_61 - (1 << 32), MERSENNE_61)
        b = rng.randrange(MERSENNE_61 - (1 << 32), MERSENNE_61)
        assert field.mul(a, b) == _naive_mulmod(a, b, MERSENNE_61)
    for l in (3, 8, 16, 50):
        f = find_irreducible(l)
        assert isinstance(f, BinaryField) and f.l == l
        top = 1 << l
        for _ in range(2500):
            a, b, c = (rng.randrange(top) for _ in range(3))
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        for _ in range(20):
            a = rng.randrange(1, top)
            assert field_pow(f, a, top - 1) == 1


def test_criterion_11_throughput():
    rng = random.Random(11)
    ext = XorExtractor(1 << 20, 64)
    m = 1 << 12
    design = make_design(DesignVariant.GFP, ext.t_req, m)
    job = ExtractionJob(input=rand_buf(rng, 1 << 20),
                        seed=rand_buf(rng, design.d),
                        design=design, extractor=ext, m=m, workers=1)
    start = time.perf_counter()
    extract_all(job)
    single = time.perf_counter() - start
    print(f"n=2^20 single-worker wall time: {single:.2f} s")
    assert single < 60.0


@pytest.mark.skipif(os.cpu_count() < 2,
                    reason="parallel speedup not measurable on a single CPU")
def test_criterion_11_parallel_scaling():
    """8 workers take at most 0.7 of the 1-worker time.  The runs go in
    the order 1, 8, 8, 1 workers and each side sums its two runs, so a
    drift in host speed during the test weighs on both sides alike."""
    rng = random.Random(111)
    m = 1 << 12
    ext = XorExtractor(1 << 24, 64)
    design = make_design(DesignVariant.GFP, ext.t_req, m)
    job = ExtractionJob(input=rand_buf(rng, 1 << 24),
                        seed=rand_buf(rng, design.d),
                        design=design, extractor=ext, m=m, workers=1)
    elapsed = {1: 0.0, 8: 0.0}
    outs = []
    for workers in (1, 8, 8, 1):
        job.workers = workers
        start = time.perf_counter()
        outs.append(extract_all(job))
        elapsed[workers] += time.perf_counter() - start
    t1, t8 = elapsed[1], elapsed[8]
    print(f"n=2^24, two runs each: 1 worker {t1:.2f} s, 8 workers {t8:.2f} s")
    assert all(out == outs[0] for out in outs)
    assert t8 <= 0.7 * t1, f"8-worker time {t8:.2f} s > 0.7 * {t1:.2f} s"
