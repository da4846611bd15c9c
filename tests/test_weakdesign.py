import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trevex.finfield import next_prime
from trevex.params import TWO_E, RKind
from trevex.weakdesign import (BasicDesign, BlockDesign, DesignError,
                               DesignFormatError, DesignVariant,
                               block_partition, degree_bound, design_d,
                               design_load, design_save, make_design, round_t)


class TestRounding:
    def test_round_t(self):
        assert round_t(DesignVariant.GFP, 1700) == 1709
        assert round_t(DesignVariant.GF2X, 100) == 128
        assert round_t(DesignVariant.GFP, 100) == 101
        assert round_t(DesignVariant.BLOCK_GFP, 7) == 7

    def test_round_t_too_small(self):
        with pytest.raises(DesignError):
            round_t(DesignVariant.GFP, 1)

    def test_degree_bound(self):
        assert degree_bound(2, 6) == 2
        assert degree_bound(7, 18) == 1
        assert degree_bound(7, 7) == 0
        assert degree_bound(3, 82) == 4


class TestBasicDesign:
    def test_coefficient_counting_order(self):
        d = BasicDesign(2, 6)
        seq = [tuple(reversed(d.coefficients(i))) for i in range(6)]
        assert seq == [(0, 0, 0), (0, 0, 1), (0, 1, 0),
                       (0, 1, 1), (1, 0, 0), (1, 0, 1)]

    def test_zero_polynomial_row(self):
        assert BasicDesign(2, 6).compute_Si(0) == [0, 2]

    def test_affine_row(self):
        # p(x) = x + 1 over GF(2): pairs (0,1), (1,0) -> indices 1 and 2
        assert BasicDesign(2, 6).compute_Si(3) == [1, 2]

    def test_rows_sorted_distinct_in_range(self, rng):
        for t in (2, 5, 8, 9, 11):
            d = BasicDesign(t, 40)
            for i in range(40):
                row = d.compute_Si(i)
                assert row == sorted(row)
                assert len(set(row)) == t
                assert 0 <= row[0] and row[-1] < t * t

    def test_purity(self):
        d = BasicDesign(7, 30)
        for i in (0, 13, 29):
            assert d.compute_Si(i) == d.compute_Si(i)

    def test_index_range(self):
        d = BasicDesign(7, 30)
        with pytest.raises(IndexError):
            d.compute_Si(30)
        with pytest.raises(IndexError):
            d.compute_Si(-1)


class TestBlockPartition:
    def test_reference_partition(self):
        p = block_partition(100, 10)
        assert p.ell == 15
        assert p.m_list[0] == 18
        assert sum(p.m_list) == 100
        assert p.m_list[-1] <= 10
        assert len(p.m_list) == p.ell + 1

    def test_small_t_rejected(self):
        with pytest.raises(DesignError):
            block_partition(100, 6)

    def test_small_m_rejected(self):
        with pytest.raises(DesignError):
            block_partition(5, 11)

    def test_random_partitions(self, rng):
        for _ in range(1000):
            t = rng.randrange(7, 200)
            m = rng.randrange(6, 5000)
            p = block_partition(m, t)
            assert sum(p.m_list) == m
            assert p.m_list[-1] <= t
            assert all(mi >= 0 for mi in p.m_list)


class TestBlockDesign:
    def test_first_block_matches_basic_rows(self):
        bd = BlockDesign(7, 50)
        basic = BasicDesign(7, bd.partition.m_list[0])
        for k in range(bd.partition.m_list[0]):
            assert bd.compute_Si(k) == basic.compute_Si(k)

    def test_block_offsets(self):
        bd = BlockDesign(7, 50)
        t2 = 49
        pos = 0
        for j, mj in enumerate(bd.partition.m_list):
            for k in range(mj):
                row = bd.compute_Si(pos)
                assert row == [e + j * t2 for e in bd._basic.compute_Si(k)]
                pos += 1
        assert pos == 50

    def test_rows_in_range(self):
        bd = BlockDesign(11, 64)
        for i in range(64):
            row = bd.compute_Si(i)
            assert len(set(row)) == 11
            assert max(row) < bd.d

    def test_purity_with_cache(self):
        bd = BlockDesign(7, 20)
        rows = [bd.compute_Si(i) for i in range(20)]
        assert [bd.compute_Si(i) for i in range(19, -1, -1)] == rows[::-1]

    def test_caller_cannot_corrupt_cache(self):
        bd = BlockDesign(7, 20)
        row = bd.compute_Si(0)
        row[0] = 999
        assert bd.compute_Si(0)[0] != 999


class TestDesignD:
    def test_xor_example_sizing(self):
        assert design_d(DesignVariant.GFP, 1700) == (1709, 2920681)

    def test_gf2x_sizing(self):
        assert design_d(DesignVariant.GF2X, 100) == (128, 16384)

    def test_rsh_example_sizing(self):
        assert design_d(DesignVariant.GFP, 100) == (101, 10201)

    def test_block_sizing_matches_partition(self):
        t_act, d = design_d(DesignVariant.BLOCK_GFP, 7, 100)
        assert t_act == 7
        part = block_partition(100, 7)
        assert d == (part.ell + 1) * 49

    def test_block_needs_m(self):
        with pytest.raises(DesignError):
            design_d(DesignVariant.BLOCK_GFP, 7)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            design_d(DesignVariant.GF2X, 1 << 31)


class TestMakeDesign:
    def test_variants(self):
        assert isinstance(make_design(DesignVariant.GFP, 10, 8), BasicDesign)
        assert isinstance(make_design(DesignVariant.BLOCK_GFP, 7, 20),
                          BlockDesign)
        d = make_design(DesignVariant.GF2X, 10, 8)
        assert d.t_act == 16
        b = make_design(DesignVariant.BLOCK_GF2X, 7, 20)
        assert b.t_act == 8

    def test_r_kind(self):
        assert make_design(DesignVariant.GFP, 10, 8).r_kind is RKind.TWO_E
        assert make_design(DesignVariant.BLOCK_GFP, 7, 20).r_kind is RKind.ONE


class TestDiskCache:
    @pytest.mark.parametrize("variant", list(DesignVariant))
    def test_round_trip(self, variant, tmp_path):
        design = make_design(variant, 7, 20)
        path = tmp_path / "design.twd"
        design_save(design, path)
        loaded = design_load(path)
        assert loaded.t_act == design.t_act
        assert loaded.m == design.m
        assert loaded.d == design.d
        assert loaded.r_kind is design.r_kind
        for i in range(20):
            assert loaded.compute_Si(i) == design.compute_Si(i)

    @pytest.mark.parametrize("cls, t, variant", [
        (BasicDesign, 7, DesignVariant.GFP),
        (BasicDesign, 8, DesignVariant.GF2X),
        (BlockDesign, 7, DesignVariant.BLOCK_GFP),
        (BlockDesign, 8, DesignVariant.BLOCK_GF2X),
    ], ids=["basic-7", "basic-8", "block-7", "block-8"])
    def test_direct_design_keeps_its_variant(self, cls, t, variant, tmp_path):
        design = cls(t, 20)
        path = tmp_path / "design.twd"
        design_save(design, path)
        loaded = design_load(path)
        assert loaded.variant is variant
        for i in range(20):
            assert loaded.compute_Si(i) == design.compute_Si(i)

    def test_loaded_round_trip_again(self, tmp_path):
        design = make_design(DesignVariant.BLOCK_GFP, 7, 20)
        p1, p2 = tmp_path / "a.twd", tmp_path / "b.twd"
        design_save(design, p1)
        design_save(design_load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        design = make_design(DesignVariant.GFP, 7, 20)
        path = tmp_path / "design.twd"
        design_save(design, path)
        data = path.read_bytes()
        for cut in (3, 10, len(data) - 5):
            path.write_bytes(data[:cut])
            with pytest.raises(DesignFormatError):
                design_load(path)

    def test_corrupted_byte(self, tmp_path):
        design = make_design(DesignVariant.GFP, 7, 20)
        path = tmp_path / "design.twd"
        design_save(design, path)
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(DesignFormatError):
            design_load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "design.twd"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(DesignFormatError):
            design_load(path)

    def test_block_cache_smaller_than_explicit_dump(self, tmp_path):
        design = make_design(DesignVariant.BLOCK_GFP, 7, 100)
        assert design.partition.ell >= 1
        path = tmp_path / "design.twd"
        design_save(design, path)
        explicit = design.m * design.t_act * 4
        assert path.stat().st_size < explicit


class TestOverlapInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16]),
           st.integers(min_value=1, max_value=96))
    def test_basic_bound_sampled(self, t, m):
        from trevex.verify import overlap_check
        assert overlap_check(BasicDesign(t, m)).passed

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([7, 11, 13]),
           st.integers(min_value=8, max_value=120))
    def test_block_bound_sampled(self, t, m):
        from trevex.verify import overlap_check
        rep = overlap_check(BlockDesign(t, m))
        assert rep.passed
        assert rep.worst_sum <= m
