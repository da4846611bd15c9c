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
                               LoadedBasicDesign, _header, block_partition,
                               degree_bound, design_d, design_load, design_save,
                               make_design, round_t)
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
        m_list = block_partition(100, 10)
        assert len(m_list) - 1 == 15
        assert m_list[0] == 18
        assert sum(m_list) == 100
        assert m_list[-1] <= 10

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
            m_list = block_partition(m, t)
            assert sum(m_list) == m
            assert m_list[-1] <= t
            assert all(mi >= 0 for mi in m_list)


class TestBlockDesign:
    def test_first_block_matches_basic_rows(self):
        bd = BlockDesign(7, 50)
        basic = BasicDesign(7, bd.m_list[0])
        for k in range(bd.m_list[0]):
            assert bd.compute_Si(k) == basic.compute_Si(k)

    def test_block_offsets(self):
        bd = BlockDesign(7, 50)
        t2 = 49
        pos = 0
        for j, mj in enumerate(bd.m_list):
            for k in range(mj):
                row = bd.compute_Si(pos)
                assert row == [e + j * t2 for e in bd.basic.compute_Si(k)]
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
        m_list = block_partition(100, 7)
        assert d == len(m_list) * 49  # (ell + 1) * t**2

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

    @pytest.mark.parametrize("variant", list(DesignVariant),
                             ids=lambda v: v.name.lower())
    def test_degree_and_basic_design(self, variant, tmp_path):
        # t = 11 or 16: degree 0 at the first m, degree 1 at the second; a
        # block design states the degree of its shared basic design
        path = tmp_path / "design.twd"
        for m, c in (((20, 0), (200, 1)) if variant.is_block
                     else ((8, 0), (40, 1))):
            design = make_design(variant, 11, m)
            design_save(design, path)
            loaded = design_load(path)
            for d in (design, loaded):
                basic = d.basic
                assert d.c == basic.c == c
                assert basic.basic is basic
                assert basic.m == (max(d.m_list) if variant.is_block else m)
            assert type(design.basic) is BasicDesign
            assert type(loaded.basic) is LoadedBasicDesign


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
        # m = 50: 9 shared basic rows of degree 1, of which rows 0, 3 and 7
        # are memoised before the second save
        design = make_design(DesignVariant.BLOCK_GFP, 7, 50)
        p1, p2 = tmp_path / "a.twd", tmp_path / "b.twd"
        design_save(design, p1)
        loaded = design_load(p1)
        for i in (0, 3, 7):
            loaded.compute_Si(i)
        memo = dict(loaded._row_cache)
        assert sorted(memo) == [0, 3, 7]
        design_save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded._row_cache == memo  # the save fills no more of it

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
        assert design.m_list == [11, 53]
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
        out = bytearray(b"TWD2")
        out += struct.pack("<BQQQ", DesignVariant.BLOCK_GFP.value, 5, 20, 50)
        out += struct.pack("<QQQ", 2, 10, 10)
        out += struct.pack("<Q", 10) + bytes(4 * 5 * 5)  # rows 5 to 9
        out += struct.pack("<I", zlib.crc32(bytes(out)))
        path = tmp_path / "design.twd"
        path.write_bytes(bytes(out))
        with pytest.raises(DesignFormatError):
            design_load(path)

    def test_header_past_seed_range_rejected(self, tmp_path):
        # t = 2**62 lies past both the 2**61-bit seed range and the primes
        # a gfp design can round to; the rows are never read.
        out = bytearray(b"TWD2")
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

    @pytest.mark.parametrize("tag, t, d, rows_of, m", [
        # gfp t = 7 rows under a gf2x header: round_t(GF2X, 7) is 8
        (DesignVariant.GF2X, 7, 64, (DesignVariant.GFP, 7), 20),
        # gf2x t = 8 rows under a gfp header that keeps d = 11**2
        (DesignVariant.GFP, 8, 121, (DesignVariant.GF2X, 8), 20),
        # 9 is neither prime nor a power of two; 9 rows of 9
        (DesignVariant.GFP, 9, 121, (DesignVariant.GFP, 11), 9),
        # GF(2) is a prime field, but a basic design of t = 2 is gf2x
        (DesignVariant.GFP, 2, 4, (DesignVariant.GF2X, 2), 4),
    ], ids=["gf2x-t7", "gfp-t8", "gfp-t9", "gfp-t2"])
    def test_header_of_another_design_rejected(self, tag, t, d, rows_of, m,
                                               tmp_path):
        # Whole rows from t on and their CRC under a header whose (tag, t)
        # no design of that tag has: the t read must be the design's own.
        source = make_design(*rows_of, m)
        out = b"TWD2" + struct.pack("<BQQQ", tag.value, t, m, d)
        out += b"".join(struct.pack(f"<{t}I", *source.compute_Si(i)[:t])
                        for i in range(t, m))
        path = tmp_path / "design.twd"
        path.write_bytes(out + struct.pack("<I", zlib.crc32(out)))
        with pytest.raises(DesignFormatError):
            design_load(path)

    def test_cache_holds_the_designs_of_u32_elements(self, tmp_path):
        # Stored rows are basic rows, below t_act**2: a block design of
        # t = 2**16 and d = 2**33 round-trips, a gfp design of t = 65,537
        # that stores rows from t on (m = t + 2, c = 1) is refused before
        # its file is opened.
        design = make_design(DesignVariant.BLOCK_GF2X, 1 << 16, 7)
        assert design.d == 1 << 33
        path = tmp_path / "design.twd"
        design_save(design, path)
        loaded = design_load(path)
        for i in range(7):
            assert list(loaded.compute_Si(i)) == list(design.compute_Si(i))
        path.unlink()
        with pytest.raises(DesignFormatError, match="t_act=65537"):
            design_save(make_design(DesignVariant.GFP, 65_537, 65_539), path)
        assert not path.exists()

    @pytest.mark.parametrize("variant, m", [
        (DesignVariant.GFP, 10), (DesignVariant.BLOCK_GFP, 100)],
        ids=["gfp", "block-gfp"])
    def test_degree_zero_cache_past_u32_round_trips(self, variant, m,
                                                    tmp_path):
        # A degree-0 design stores no row, so its cache is its header and
        # CRC at any t_act, here 65,537 with d past 2**32.
        design = make_design(variant, 65_537, m)
        assert design.t_act == 65_537 and design.d > 1 << 32
        assert design.c == 0
        path = tmp_path / "design.twd"
        design_save(design, path)
        assert path.stat().st_size == len(_header(design)) + 4
        loaded = design_load(path)
        assert (loaded.variant, loaded.t_act, loaded.m, loaded.d) == (
            design.variant, design.t_act, design.m, design.d)
        for i in range(m):
            row = loaded.compute_Si(i)
            assert isinstance(row, range) and row == design.compute_Si(i)
        design_save(loaded, tmp_path / "again.twd")
        assert (tmp_path / "again.twd").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("variant, digest", [
        (DesignVariant.GFP,
         "47f1af12b8786134b87b763dfe2a65c2b15f06512a4f22b8f70a81441cae26be"),
        (DesignVariant.BLOCK_GFP,
         "ce3aa65785993232c7d1915b00292b8fd0c97d25d31e2607e7a16297730b0904"),
    ], ids=["gfp", "block-gfp"])
    def test_saved_bytes_pinned(self, variant, digest, tmp_path):
        path = tmp_path / "design.twd"
        design_save(make_design(variant, 11, 32), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("variant, t_req, m", [
        (DesignVariant.GFP, 100, 400),  # t = 101: rows 101 to 399 stored
        (DesignVariant.BLOCK_GFP, 100, 1000),  # 183 basic rows, 82 stored
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

    @pytest.mark.parametrize("variant, m", [
        (DesignVariant.GFP, 8), (DesignVariant.GFP, 40),
        (DesignVariant.GF2X, 8), (DesignVariant.GF2X, 40),
        (DesignVariant.BLOCK_GFP, 20), (DesignVariant.BLOCK_GFP, 200),
        (DesignVariant.BLOCK_GF2X, 20), (DesignVariant.BLOCK_GF2X, 200),
    ], ids=["gfp-c0", "gfp-c1", "gf2x-c0", "gf2x-c1", "block-gfp-c0",
            "block-gfp-c1", "block-gf2x-c0", "block-gf2x-c1"])
    def test_cache_stores_the_basic_rows_from_t(self, variant, m, tmp_path):
        # t = 11 (gfp) or 16 (gf2x); n basic rows, of which rows t and up
        # are stored, so a degree-0 design (n <= t) stores none.
        design = make_design(variant, 11, m)
        sizes = design.m_list if variant.is_block else [m]
        t, n = design.t_act, design.basic.m
        assert (design.c == 0) == (n <= t) == (m in (8, 20))
        path = tmp_path / "design.twd"
        design_save(design, path)
        assert path.stat().st_size == (len(_header(design))
                                       + 4 * t * max(n - t, 0) + 4)
        loaded = design_load(path)
        i = 0
        for size in sizes:  # basic row k of each block
            for k in range(size):
                row, want = loaded.compute_Si(i), list(design.compute_Si(i))
                assert list(row) == want
                if k < t:
                    assert type(row) is range
                else:
                    assert type(row) is list
                    row[0] = -1
                    assert loaded.compute_Si(i) == want
                i += 1
        again = tmp_path / "again.twd"
        design_save(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_degree_zero_cache_is_never_held_whole(self, tmp_path):
        # t = 1009 > m: every row is below t, so none is stored, and each
        # is built as a range when it is asked for.
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
        assert path.stat().st_size == 29 + 4
        # a quarter of the 4 * t * m bytes the rows would take stored
        assert save_peak < 1009 * 64 and load_peak < 1009 * 64
        assert all(type(loaded.compute_Si(i)) is range for i in range(64))

    def test_save_that_stops_early_leaves_a_rejected_file(self, tmp_path,
                                                          monkeypatch):
        # t = 7, m = 20: rows 7 to 19 are stored, and row 12 stops the save
        path = tmp_path / "design.twd"
        design = make_design(DesignVariant.GFP, 7, 20)
        compute = BasicDesign.compute_Si

        def fail_at_row_12(self, i):
            if i == 12:
                raise RuntimeError("stopped")
            return compute(self, i)

        monkeypatch.setattr(BasicDesign, "compute_Si", fail_at_row_12)
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
        # The flip lies in row 10, the fourth stored; only the CRC, read
        # last, can tell.
        path = tmp_path / "design.twd"
        design_save(make_design(DesignVariant.GFP, 7, 20), path)
        data = bytearray(path.read_bytes())
        data[29 + 4 * 7 * 3 + 2] ^= 0x01  # magic, variant, (t, m, d)
        with pytest.raises(DesignFormatError, match="checksum"):
            self._load_from_fifo(tmp_path, bytes(data))

    @pytest.mark.parametrize("source, variant", [
        ("file", DesignVariant.GFP), ("fifo", DesignVariant.GFP),
        ("file", DesignVariant.BLOCK_GFP), ("fifo", DesignVariant.BLOCK_GFP),
    ], ids=["file", "fifo", "block-file", "block-fifo"])
    def test_header_without_its_rows_reads_no_more(self, source, variant,
                                                   tmp_path):
        # A valid header and its CRC, with none of the rows it declares:
        # gfp t = 65,521 (the largest prime t a cache holds) and m = 2**30,
        # about 281 TB of rows; block-gfp t = 7 and m = 2**40, whose
        # largest block has 202,243,861,593 rows.
        if variant is DesignVariant.GFP:
            t = 65_521
            out = b"TWD2" + struct.pack("<BQQQ", variant.value, t, 1 << 30,
                                        t * t)
        else:
            m_list = block_partition(1 << 40, 7)
            out = b"TWD2" + struct.pack("<BQQQ", variant.value, 7, 1 << 40,
                                        len(m_list) * 49)
            out += struct.pack(f"<Q{len(m_list)}QQ", len(m_list), *m_list,
                               max(m_list))
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
        # row 0 is the constant polynomial 0, served as an immutable range
        with pytest.raises(TypeError):
            loaded.compute_Si(0)[0] = 999

    @staticmethod
    def _planted_basic_cache(path, rows: dict[int, list[int]]):
        """A degree-1 gfp cache (t = 11, m = 20, rows 11 to 19 stored)
        with the given stored rows replaced and its CRC recomputed."""
        design_save(make_design(DesignVariant.GFP, 11, 20), path)
        data = bytearray(path.read_bytes())
        for k, row in rows.items():
            at = 29 + 4 * 11 * (k - 11)  # magic, variant, (t, m, d)
            data[at:at + 44] = struct.pack("<11I", *row)
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        return design_load(path)

    @pytest.mark.parametrize("family", ["xor", "rsh", "lu"])
    def test_loaded_rows_are_never_replaced(self, family, tmp_path):
        # row 12 (p(x) = x + 1) holds row 16's p(x) = x + 5; row 14 holds
        # the progression {11x + 2}, which is row 2; row 18 holds the
        # progression {11x + 1} but for its middle element.  Each is
        # served as stored, never as the row the construction gives.
        computed = BasicDesign(11, 20)
        affine = computed.compute_Si(16)
        near = list(range(1, 122, 11))
        near[5] += 1
        loaded = self._planted_basic_cache(
            tmp_path / "design.twd",
            {12: affine, 14: list(range(2, 123, 11)), 18: near})
        for i, want in [(12, affine), (14, list(range(2, 123, 11))),
                        (18, near)]:
            row = loaded.compute_Si(i)
            assert type(row) is list and row == want != computed.compute_Si(i)
        row = loaded.compute_Si(2)
        assert type(row) is range and row == range(2, 123, 11)
        extractor = {"xor": XorExtractor(64, 1), "rsh": RshExtractor(64, 2),
                     "lu": LuExtractor(64, 1, 2)}[family]
        rng = random.Random(3)
        job = ExtractionJob(input=rand_buf(rng, 64), seed=rand_buf(rng, 121),
                            design=loaded, extractor=extractor, m=20)
        assert extract_all(job) == naive_extract(job)

    @pytest.mark.parametrize("family", ["xor", "rsh", "lu"])
    def test_planted_block_row_is_served_by_every_block(self, family,
                                                        tmp_path):
        # block-gfp, t = 11, m = 200: shared basic row 13, p(x) = x + 2,
        # replaced by basic row 2, the progression {11x + 2}, CRC recomputed
        design = make_design(DesignVariant.BLOCK_GFP, 11, 200)
        planted = list(design.basic.compute_Si(2))
        assert planted != design.basic.compute_Si(13)
        path = tmp_path / "design.twd"
        design_save(design, path)
        data = bytearray(path.read_bytes())
        # magic, variant, (t, m, d), block count, sizes, row count, rows 11-12
        at = 29 + 8 * (len(design.m_list) + 2) + 4 * 11 * 2
        data[at:at + 44] = struct.pack("<11I", *planted)
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        loaded = design_load(path)
        first, served = 0, 0
        for j, mj in enumerate(loaded.m_list):
            if mj > 13:
                row = loaded.compute_Si(first + 13)
                assert row == [e + j * 121 for e in planted]
                served += 1
            first += mj
        assert served == 5
        extractor = {"xor": XorExtractor(64, 1), "rsh": RshExtractor(64, 2),
                     "lu": LuExtractor(64, 1, 2)}[family]
        rng = random.Random(4)
        job = ExtractionJob(input=rand_buf(rng, 64),
                            seed=rand_buf(rng, loaded.d), design=loaded,
                            extractor=extractor, m=200)
        assert extract_all(job) == naive_extract(job)
        again = tmp_path / "again.twd"
        design_save(loaded, again)
        assert again.read_bytes() == bytes(data)

    def test_block_cache_smaller_than_explicit_dump(self, tmp_path):
        design = make_design(DesignVariant.BLOCK_GFP, 7, 100)
        assert len(design.m_list) - 1 >= 1
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
