import hashlib
import math
import os
import random
import struct
import threading
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trevex.bitext import LuExtractor, RshExtractor, XorExtractor
from trevex.finfield import next_prime
from trevex.params import TWO_E, InfeasibleParameters, RKind
from trevex.weakdesign import (BasicDesign, BlockDesign, DesignFormatError, DesignVariant,
                               block_partition, degree_bound, design_d,
                               design_load, design_save, make_design, round_t)
from trevex.trevisan import ExtractionJob, extract_all
from trevex.verify import _naive_basic_row, naive_extract

from conftest import rand_buf


class TestRounding:
    def test_round_t(self):
        assert round_t(DesignVariant.GFP, 1700) == 1709
        assert round_t(DesignVariant.GF2X, 100) == 128
        assert round_t(DesignVariant.GFP, 100) == 101
        assert round_t(DesignVariant.BLOCK_GFP, 7) == 7

    def test_round_t_too_small(self):
        with pytest.raises(InfeasibleParameters):
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
        for t in (2, 5, 8, 11):
            d = BasicDesign(t, 40)
            for i in range(40):
                row = d.compute_Si(i)
                assert row == sorted(row)
                assert len(set(row)) == t
                assert 0 <= row[0] and row[-1] < t * t

    @pytest.mark.parametrize("t", [5, 8], ids=["gfp", "gf2x"])
    @pytest.mark.parametrize("m, c", [(3, 0), (20, 1), (100, 2)])
    def test_rows_match_naive_oracle(self, t, m, c):
        d = BasicDesign(t, m)
        assert d.c == c
        assert ([list(d.compute_Si(i)) for i in range(m)]
                == [_naive_basic_row(d, i) for i in range(m)])

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
        with pytest.raises(InfeasibleParameters):
            block_partition(100, 6)

    def test_small_m_rejected(self):
        with pytest.raises(InfeasibleParameters):
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
        # m_0 = 9 > t basic rows: degree 1, so row 7 (p(x) = x) is a list
        bd = BlockDesign(7, 50)
        row = bd.compute_Si(7)
        row[0] = 999
        assert bd.compute_Si(7)[0] != 999
        # a degree-0 design serves its rows as ranges, which are immutable
        with pytest.raises(TypeError):
            BlockDesign(7, 20).compute_Si(0)[0] = 999


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
        with pytest.raises(InfeasibleParameters):
            design_d(DesignVariant.BLOCK_GFP, 7)

    def test_overflow_guard(self):
        with pytest.raises(InfeasibleParameters):
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
        assert make_design(DesignVariant.GFP, 10, 8).variant.r_kind is RKind.TWO_E
        assert (make_design(DesignVariant.BLOCK_GFP, 7, 20).variant.r_kind
                is RKind.ONE)


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
        assert loaded.variant is design.variant
        for i in range(20):
            assert list(loaded.compute_Si(i)) == list(design.compute_Si(i))

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
            assert list(loaded.compute_Si(i)) == list(design.compute_Si(i))

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

    def test_tampered_block_sizes_rejected(self, tmp_path):
        # The rsh -n 4096 --eps 0.01 -m 64 block design: t = 59, sizes
        # [11, 53].  Swapped sizes still sum to m and keep d, so only the
        # partition check can tell.
        design = make_design(DesignVariant.BLOCK_GFP, 56, 64)
        assert design.partition.m_list == [11, 53]
        path = tmp_path / "design.twd"
        design_save(design, path)
        data = bytearray(path.read_bytes())
        sizes = 4 + 1 + 24 + 8  # magic, variant, (t, m, d), block count
        first, second = data[sizes:sizes + 8], data[sizes + 8:sizes + 16]
        data[sizes:sizes + 16] = second + first
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        with pytest.raises(DesignFormatError):
            design_load(path)

    def test_short_block_row_count_rejected(self, tmp_path):
        # One shared row fewer, with its bytes and the CRC to match: the
        # last row of the largest block would have nothing to read.
        design = make_design(DesignVariant.BLOCK_GFP, 56, 64)
        path = tmp_path / "design.twd"
        design_save(design, path)
        data = path.read_bytes()[:-4]
        at = 4 + 1 + 24 + 8 + 16  # magic, variant, (t, m, d), count, sizes
        out = (data[:at] + struct.pack("<Q", 52)
               + data[at + 8:at + 8 + 4 * 59 * 52])
        path.write_bytes(out + struct.pack("<I", zlib.crc32(out)))
        with pytest.raises(DesignFormatError):
            design_load(path)

    def test_header_without_block_design_rejected(self, tmp_path):
        # t = 5 <= 2e admits no block partition, whatever the sizes say.
        out = bytearray(b"TWD1")
        out += struct.pack("<BQQQ", DesignVariant.BLOCK_GFP.value, 5, 20, 50)
        out += struct.pack("<QQQ", 2, 10, 10)
        out += struct.pack("<Q", 10) + bytes(4 * 5 * 10)
        out += struct.pack("<I", zlib.crc32(bytes(out)))
        path = tmp_path / "design.twd"
        path.write_bytes(bytes(out))
        with pytest.raises(DesignFormatError):
            design_load(path)

    def test_header_past_seed_range_rejected(self, tmp_path):
        # t = 2**62 lies past both the 2**61-bit seed range and the primes
        # a gfp design can round to; the rows are never read.
        out = bytearray(b"TWD1")
        out += struct.pack("<BQQQ", DesignVariant.GFP.value, 1 << 62, 1, 1)
        out += struct.pack("<I", zlib.crc32(bytes(out)))
        path = tmp_path / "design.twd"
        path.write_bytes(bytes(out))
        with pytest.raises(DesignFormatError):
            design_load(path)

    def test_cache_retagged_to_other_field_rejected(self, tmp_path):
        # GF(8) rows under the GFP tag, CRC recomputed: 8 is not prime, so
        # no gfp design has t = 8, though d = t**2 still holds.
        path = tmp_path / "design.twd"
        design_save(make_design(DesignVariant.GF2X, 8, 20), path)
        data = bytearray(path.read_bytes())
        data[4] = DesignVariant.GFP.value
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        with pytest.raises(DesignFormatError):
            design_load(path)

    @pytest.mark.parametrize("variant, digest", [
        (DesignVariant.GFP,
         "2e25ec6dc15a4c4f395b0df51cd48797fa988a7b05895ae60a70069ea8332caf"),
        (DesignVariant.BLOCK_GFP,
         "9b2467ae425edd0661c17d835d489dec4cff07f82951e1a19fdff827af7f3b29"),
    ], ids=["gfp", "block-gfp"])
    def test_saved_bytes_pinned(self, variant, digest, tmp_path):
        path = tmp_path / "design.twd"
        design_save(make_design(variant, 11, 32), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("variant, t_req, m", [
        (DesignVariant.GFP, 1000, 64),
        (DesignVariant.BLOCK_GFP, 1000, 100),
    ], ids=["gfp", "block-gfp"])
    def test_load_holds_the_file_once(self, variant, t_req, m, tmp_path):
        path = tmp_path / "design.twd"
        design_save(make_design(variant, t_req, m), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = design_load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.m == m
        assert peak <= size + 64 * 1024

    def test_degree_zero_cache_is_never_held_whole(self, tmp_path):
        # t = 1009 > m: every row is a progression, kept as a range on
        # load and written one at a time on save.
        path = tmp_path / "design.twd"
        design = make_design(DesignVariant.GFP, 1000, 64)
        tracemalloc.start()
        try:
            design_save(design, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = design_load(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size == 29 + 4 * 1009 * 64 + 4
        assert save_peak < size / 4 and load_peak < size / 4
        assert all(type(loaded.compute_Si(i)) is range for i in range(64))

    def test_save_that_stops_early_leaves_a_rejected_file(self, tmp_path,
                                                          monkeypatch):
        path = tmp_path / "design.twd"
        design = make_design(DesignVariant.GFP, 7, 20)
        compute = BasicDesign.compute_Si

        def fail_at_row_5(self, i):
            if i == 5:
                raise RuntimeError("stopped")
            return compute(self, i)

        monkeypatch.setattr(BasicDesign, "compute_Si", fail_at_row_5)
        with pytest.raises(RuntimeError):
            design_save(design, path)
        assert path.stat().st_size == 29 + 4 * 7 * 5
        with pytest.raises(DesignFormatError):
            design_load(path)

    @staticmethod
    def _load_from_fifo(tmp_path, data: bytes):
        """design_load of a FIFO that a thread fills with data."""
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,),
                                  daemon=True)
        writer.start()
        try:
            return design_load(fifo)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    def test_load_from_pipe(self, tmp_path):
        design = make_design(DesignVariant.BLOCK_GFP, 7, 20)
        path = tmp_path / "design.twd"
        design_save(design, path)
        loaded = self._load_from_fifo(tmp_path, path.read_bytes())
        for i in range(20):
            assert list(loaded.compute_Si(i)) == list(design.compute_Si(i))

    def test_pipe_with_a_flipped_row_byte_rejected(self, tmp_path):
        # The flip lies in row 3; only the CRC, read last, can tell.
        path = tmp_path / "design.twd"
        design_save(make_design(DesignVariant.GFP, 7, 20), path)
        data = bytearray(path.read_bytes())
        data[29 + 4 * 7 * 3 + 2] ^= 0x01  # magic, variant, (t, m, d)
        with pytest.raises(DesignFormatError, match="checksum"):
            self._load_from_fifo(tmp_path, bytes(data))

    @pytest.mark.parametrize("source", ["file", "fifo"])
    def test_header_without_its_rows_reads_no_more(self, source, tmp_path):
        # A valid gfp header, t = 1,000,000,007, m = 1, declares one row of
        # 4 GB that the file does not hold.
        t = 1_000_000_007
        out = b"TWD1" + struct.pack("<BQQQ", DesignVariant.GFP.value, t, 1, t * t)
        out += struct.pack("<I", zlib.crc32(out))
        path = tmp_path / "design.twd"
        path.write_bytes(out)
        tracemalloc.start()
        try:  # a file is measured before its rows are read, a pipe is not
            if source == "file":
                with pytest.raises(DesignFormatError, match="declares"):
                    design_load(path)
            else:
                with pytest.raises(DesignFormatError, match="truncated"):
                    self._load_from_fifo(tmp_path, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 21

    @pytest.mark.parametrize("variant", [DesignVariant.GFP,
                                         DesignVariant.BLOCK_GFP])
    def test_loaded_rows_are_fresh_lists(self, variant, tmp_path):
        # m > t: row 7 is p(x) = x in both (for block-gfp, in block 0)
        path = tmp_path / "design.twd"
        design_save(make_design(variant, 7, 50), path)
        loaded = design_load(path)
        row = loaded.compute_Si(7)
        row[0] = 999
        assert loaded.compute_Si(7)[0] != 999
        # row 0 is the progression {7x}, served as an immutable range
        with pytest.raises(TypeError):
            loaded.compute_Si(0)[0] = 999

    @staticmethod
    def _planted_basic_cache(path, rows: dict[int, list[int]]):
        """A degree-0 gfp cache (t = 11, m = 8) with the given rows
        replaced and its CRC recomputed."""
        design_save(make_design(DesignVariant.GFP, 11, 8), path)
        data = bytearray(path.read_bytes())
        for k, row in rows.items():
            at = 29 + 4 * 11 * k  # magic, variant, (t, m, d)
            data[at:at + 44] = struct.pack("<11I", *row)
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        return design_load(path)

    @pytest.mark.parametrize("family", ["xor", "rsh", "lu"])
    def test_loaded_rows_are_never_replaced(self, family, tmp_path):
        # row 3: p(x) = x + 3, no progression; row 5: the progression {11x + 2};
        # row 1: the progression {11x + 1} but for its middle element, so
        # only the whole-row comparison can tell
        affine = BasicDesign(11, 20).compute_Si(14)
        assert affine != list(range(3, 124, 11))
        near = list(range(1, 122, 11))
        near[5] += 1
        loaded = self._planted_basic_cache(
            tmp_path / "design.twd",
            {1: near, 3: affine, 5: list(range(2, 123, 11))})
        row = loaded.compute_Si(1)
        assert type(row) is list and row == near
        row = loaded.compute_Si(3)
        assert type(row) is list and row == affine
        row = loaded.compute_Si(5)
        assert type(row) is range and row == range(2, 123, 11)
        extractor = {"xor": XorExtractor(64, 1), "rsh": RshExtractor(64, 2),
                     "lu": LuExtractor(64, 1, 2)}[family]
        rng = random.Random(3)
        job = ExtractionJob(input=rand_buf(rng, 64), seed=rand_buf(rng, 121),
                            design=loaded, extractor=extractor, m=8)
        assert extract_all(job) == naive_extract(job)

    def test_row_past_u32_is_no_progression(self, tmp_path):
        # The progression from 2**32 - 50 wraps its last six lanes.
        wrapped = [(2**32 - 50 + 11 * x) % 2**32 for x in range(11)]
        loaded = self._planted_basic_cache(tmp_path / "design.twd",
                                           {6: wrapped})
        row = loaded.compute_Si(6)
        assert type(row) is list and row == wrapped

    def test_block_cache_smaller_than_explicit_dump(self, tmp_path):
        design = make_design(DesignVariant.BLOCK_GFP, 7, 100)
        assert design.partition.ell >= 1
        path = tmp_path / "design.twd"
        design_save(design, path)
        explicit = design.m * design.t_act * 4
        assert path.stat().st_size < explicit


class TestOverlapInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 7, 8, 11, 13, 16]),
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
