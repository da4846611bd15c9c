import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trevex.bitext import RshExtractor, XorExtractor
from trevex.trevisan import (BitBuffer, ExtractionJob, InsufficientSeedError,
                             extract_all, slice_subseed)
from trevex.verify import monobit, naive_extract
from trevex.weakdesign import DesignVariant, make_design

from conftest import FAMILIES, rand_buf, rand_job


class TestBitBuffer:
    def test_bit_order_convention(self):
        b = BitBuffer.from_bytes(bytes([0b00000001, 0b10000000]))
        assert b.get_bit(0) == 1
        assert b.get_bit(15) == 1
        assert sum(b.get_bit(i) for i in range(16)) == 2

    def test_multibit_reads_lsb_first(self):
        b = BitBuffer.from_bytes(bytes([0xAB, 0xCD]))
        assert b.get_bits(0, 8) == 0xAB
        assert b.get_bits(8, 8) == 0xCD
        assert b.get_bits(4, 8) == 0xDA

    def test_read_past_end_zero_padded(self):
        b = BitBuffer(4, 0b1111)
        assert b.get_bits(2, 8) == 0b11
        assert b.get_bits(100, 8) == 0

    def test_tail_bits_masked(self):
        b = BitBuffer.from_bytes(bytes([0xFF]), 5)
        assert b.to_bytes() == bytes([0b00011111])
        assert b.ones() == 5

    def test_set_and_get(self):
        b = BitBuffer(20)
        b.set_bit(13, 1)
        assert b.get_bit(13) == 1
        assert b.ones() == 1
        b.set_bit(13, 0)
        assert b.ones() == 0

    def test_xor_and_eq(self):
        a = BitBuffer(12, 0b101010101010)
        z = BitBuffer(12)
        assert (a ^ a) == z
        assert (a ^ z) == a
        with pytest.raises(ValueError):
            a ^ BitBuffer(11)

    def test_index_errors(self):
        b = BitBuffer(8)
        with pytest.raises(IndexError):
            b.get_bit(8)
        with pytest.raises(IndexError):
            b.set_bit(-1, 1)
        with pytest.raises(ValueError):
            BitBuffer(-1)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_bytes_round_trip(self, data):
        assert BitBuffer.from_bytes(data).to_bytes() == data


class TestSliceSubseed:
    def test_identity_prefix(self, rng):
        seed = rand_buf(rng, 64)
        sub = slice_subseed(seed, range(16))
        assert all(sub.get_bit(i) == seed.get_bit(i) for i in range(16))

    def test_hand_selection(self):
        seed = BitBuffer(5)
        for i, bit in enumerate([1, 0, 1, 1, 0]):
            seed.set_bit(i, bit)
        sub = slice_subseed(seed, [4, 0, 2])
        assert [sub.get_bit(i) for i in range(3)] == [0, 1, 1]

    def test_length(self, rng):
        seed = rand_buf(rng, 64)
        for k in (0, 1, 7, 64):
            assert len(slice_subseed(seed, range(k))) == k

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            slice_subseed(BitBuffer(4), [5])


class TestExtractAll:
    def test_single_bit_degenerate(self, rng):
        ext = XorExtractor(64, 3)
        design = make_design(DesignVariant.GFP, ext.t_req, 1)
        x, seed = rand_buf(rng, 64), rand_buf(rng, design.d)
        job = ExtractionJob(input=x, seed=seed, design=design,
                            extractor=ext, m=1)
        row = design.compute_Si(0)
        want = ext.extract(x, slice_subseed(seed, row[:ext.t_req]))
        assert extract_all(job).get_bit(0) == want

    def test_worker_count_invariance(self, rng):
        for family in FAMILIES:
            job = rand_job(rng, family)
            outs = []
            for workers in (1, 2, 8):
                job.workers = workers
                outs.append(extract_all(job).to_bytes())
            assert outs[0] == outs[1] == outs[2]

    def test_insufficient_seed(self, rng):
        ext = XorExtractor(64, 3)
        design = make_design(DesignVariant.GFP, ext.t_req, 4)
        job = ExtractionJob(input=rand_buf(rng, 64),
                            seed=rand_buf(rng, design.d - 1),
                            design=design, extractor=ext, m=4)
        with pytest.raises(InsufficientSeedError):
            extract_all(job)

    def test_design_too_small_for_extractor(self, rng):
        ext = XorExtractor(64, 8)  # t_req = 48
        design = make_design(DesignVariant.GFP, 10, 4)
        job = ExtractionJob(input=rand_buf(rng, 64),
                            seed=rand_buf(rng, design.d),
                            design=design, extractor=ext, m=4)
        with pytest.raises(ValueError):
            extract_all(job)

    def test_surplus_design_bits_prefix_rule(self, rng):
        # design grants t_act > t_req; only the prefix feeds the extractor
        ext = XorExtractor(64, 3)          # t_req = 18
        design = make_design(DesignVariant.GFP, ext.t_req, 8)
        assert design.t_act == 19
        x, seed = rand_buf(rng, 64), rand_buf(rng, design.d)
        job = ExtractionJob(input=x, seed=seed, design=design,
                            extractor=ext, m=8)
        out = extract_all(job)
        for i in range(8):
            row = design.compute_Si(i)
            sub = slice_subseed(seed, row[:ext.t_req])
            assert out.get_bit(i) == ext.extract(x, sub)

    def test_unused_seed_bit_is_ignored(self, rng):
        ext = XorExtractor(64, 3)
        design = make_design(DesignVariant.GFP, ext.t_req, 4)
        used = set()
        for i in range(4):
            used.update(design.compute_Si(i)[:ext.t_req])
        free = next(b for b in range(design.d) if b not in used)
        x, seed = rand_buf(rng, 64), rand_buf(rng, design.d)
        job = ExtractionJob(input=x, seed=seed, design=design,
                            extractor=ext, m=4)
        before = extract_all(job).to_bytes()
        seed.set_bit(free, 1 - seed.get_bit(free))
        assert extract_all(job).to_bytes() == before

    def test_pipeline_linearity(self, rng):
        for family in FAMILIES:
            job = rand_job(rng, family)
            x1, x2 = job.input, rand_buf(rng, len(job.input))
            out1 = extract_all(job)
            job.input = x2
            out2 = extract_all(job)
            job.input = x1 ^ x2
            assert extract_all(job) == out1 ^ out2

    @settings(max_examples=24, deadline=None)
    @given(variant=st.sampled_from(list(DesignVariant)),
           l=st.sampled_from([1, 3, 8, 9, 16, 31, 50, 64]),
           n=st.integers(min_value=1, max_value=400),
           m=st.integers(min_value=8, max_value=24),
           data=st.randoms(use_true_random=False))
    def test_rsh_matches_naive_oracle(self, variant, l, n, m, data):
        ext = RshExtractor(n, l)
        design = make_design(variant, max(ext.t_req, 7), m)  # block: t >= 7
        job = ExtractionJob(input=rand_buf(data, n),
                            seed=rand_buf(data, design.d), design=design,
                            extractor=ext, m=m)
        assert extract_all(job) == naive_extract(job)

    def test_monobit_on_uniform_input(self):
        # ones-fraction of the output stays within 5 sigma of 1/2
        rng = random.Random(20240817)
        ext = XorExtractor(1 << 20, 2)
        design = make_design(DesignVariant.GFP, ext.t_req, 10 ** 4)
        bad = 0
        for _ in range(20):
            job = ExtractionJob(input=rand_buf(rng, 1 << 20),
                                seed=rand_buf(rng, design.d),
                                design=design, extractor=ext, m=10 ** 4)
            if abs(monobit(extract_all(job))) >= 5.0:
                bad += 1
        assert bad == 0
