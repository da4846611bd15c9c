import hashlib
import os
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trevex import trevisan
from trevex.bitext import LuExtractor, RshExtractor, XorExtractor
from trevex.trevisan import (BitBuffer, ExtractionJob, InsufficientSeedError,
                             extract_all, slice_subseed)
from trevex.verify import naive_extract
from trevex.weakdesign import (DesignVariant, design_load, design_save,
                               make_design)

from conftest import (FAMILIES, bit, buf_from_bits, flip, ones, rand_buf,
                      rand_job, value, xor)


def _reference(seed: BitBuffer, indices) -> int:
    """The subseed at the given positions, read bit by bit from the
    seed's bytes."""
    data = seed.to_bytes()
    return sum((data[i >> 3] >> (i & 7) & 1) << j
               for j, i in enumerate(indices))


class TestBitBuffer:
    def test_bit_order_convention(self):
        b = BitBuffer.from_bytes(bytes([0b00000001, 0b10000000]))
        assert bit(b, 0) == 1
        assert bit(b, 15) == 1
        assert sum(bit(b, i) for i in range(16)) == 2

    def test_multibit_reads_lsb_first(self):
        b = BitBuffer.from_bytes(bytes([0xAB, 0xCD]))
        assert b == BitBuffer(16, 0xCDAB)
        assert slice_subseed(b, range(4, 12)) == 0xDA

    def test_read_past_end_zero_padded(self):
        # the value's bits from the length on are dropped, and the last
        # byte's padding reads as zero
        b = BitBuffer(4, 0b1111_1111)
        assert b.to_bytes() == bytes([0b1111])
        assert value(b) == 0b1111

    def test_tail_bits_masked(self):
        b = BitBuffer.from_bytes(bytes([0xFF]), 5)
        assert b.to_bytes() == bytes([0b00011111])
        assert ones(b) == 5
        # longer data is accepted, and only its first 5 bits are read
        assert BitBuffer.from_bytes(bytes([0xFF, 0xFF]), 5) == b

    def test_unhashable(self):
        # A hash taken before the buffer is filled in place would go stale,
        # losing the buffer in any set or dict that holds it.
        with pytest.raises(TypeError):
            hash(BitBuffer(8))

    def test_eq(self):
        a = BitBuffer(12, 0b101010101010)
        assert a == BitBuffer.from_bytes(a.to_bytes(), 12)
        assert a != BitBuffer(12)
        assert a != BitBuffer(13, 0b101010101010)  # same bytes, longer
        assert a != a.to_bytes()

    def test_length_errors(self):
        with pytest.raises(ValueError):
            BitBuffer(-1)
        # data too short for the length is refused, not zero-filled
        for data, bits in ((b"\xff", 64), (b"", 1), (bytes(435), 3481)):
            with pytest.raises(ValueError, match="fewer than"):
                BitBuffer.from_bytes(data, bits)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_bytes_round_trip(self, data):
        assert BitBuffer.from_bytes(data).to_bytes() == data


class TestSliceSubseed:
    """slice_subseed on ranges of positive step, from the packed seed, and
    on any other row, from its SeedDigits view, against the per-bit
    reference read from to_bytes()."""

    def test_identity_prefix(self, rng):
        seed = rand_buf(rng, 64)
        sub = slice_subseed(seed, range(16))
        assert all(sub >> i & 1 == bit(seed, i) for i in range(16))

    def test_hand_selection(self):
        seed = buf_from_bits([1, 0, 1, 1, 0])
        sub = slice_subseed(trevisan.SeedDigits(seed), [4, 0, 2])
        assert [sub >> i & 1 for i in range(3)] == [0, 1, 1]

    def test_length(self):
        seed = BitBuffer(64, (1 << 64) - 1)
        for k in (0, 1, 7, 64):
            assert slice_subseed(seed, range(k)) == (1 << k) - 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            slice_subseed(BitBuffer(4), range(5, 6))
        with pytest.raises(IndexError):
            slice_subseed(trevisan.SeedDigits(BitBuffer(4)), [5])

    def test_matches_per_bit_reference(self, rng):
        seed = rand_buf(rng, 1003)
        view = trevisan.SeedDigits(seed)
        unsorted = [rng.randrange(1003) for _ in range(300)]
        duplicates = [7, 7, 1002, 0, 7, 1002, 0]
        for indices in (unsorted, duplicates):
            assert slice_subseed(view, indices) == _reference(seed, indices)
        for indices in (range(1003), range(5, 1003, 19), range(1002, -1, -7)):
            want = _reference(seed, indices)
            assert slice_subseed(view, indices) == want
            if indices.step > 0:
                assert slice_subseed(seed, indices) == want

    def test_no_indices(self):
        seed = BitBuffer(8, 0xFF)
        assert slice_subseed(seed, range(0)) == 0
        assert slice_subseed(trevisan.SeedDigits(seed), []) == 0

    @pytest.mark.parametrize("indices", [[-1], [0, 3, 5], [0, 8], [1 << 20]],
                             ids=["negative", "padding", "past-buffer",
                                  "far-past-buffer"])
    def test_position_outside_seed(self, indices):
        # bit 5 of a 4-bit seed lies in the padding of its one byte
        seed = BitBuffer(4, 0b1111)
        with pytest.raises(IndexError):
            slice_subseed(trevisan.SeedDigits(seed), indices)
        with pytest.raises(IndexError):
            slice_subseed(seed, range(indices[-1], indices[-1] + 1))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([8, 16, 24, 32, 40]), st.integers(1, 40)),
           st.integers(0, 300), st.integers(0, 40), st.integers(0, 15),
           st.randoms(use_true_random=False))
    def test_range_matches_list_path(self, step, length, start, slack, rnd):
        # slack puts the seed's end anywhere in a byte past the last position
        r = range(start, start + step * length, step)
        bits = (r[-1] if r else start) + 1 + slack
        seed = BitBuffer(bits, rnd.getrandbits(bits))
        view = trevisan.SeedDigits(seed)
        want = _reference(seed, r)
        assert slice_subseed(seed, r) == slice_subseed(view, r) == want
        assert slice_subseed(view, list(r)) == want
        assert (slice_subseed(view, r[::-1])
                == slice_subseed(view, list(r)[::-1])
                == _reference(seed, r[::-1]))

    @pytest.mark.parametrize("step, length, offset, starts", [
        (4703, 4697, 0, [*range(16), 4702]),
        (101, 100, 2 * 101 ** 2, [*range(16), 100])],
        ids=["lu-cached", "rsh-block-last-block"])
    def test_range_at_benchmark_geometries(self, step, length, offset, starts,
                                           rng):
        """The rows of a degree-0 design at the benchmark's geometries: each
        position's slice reads bytes step apart, over the whole seed."""
        bits = offset + step * step
        seed = rand_buf(rng, bits)
        view = trevisan.SeedDigits(seed)
        for start in starts:
            r = range(offset + start, offset + start + step * length, step)
            want = _reference(seed, r)
            assert slice_subseed(seed, r) == slice_subseed(view, r) == want

    def test_bit_tables_match_their_definition(self):
        assert len(trevisan._MOVE_BIT) == 8
        for o, tables in enumerate(trevisan._MOVE_BIT):
            assert len(tables) == 8
            for j, table in enumerate(tables):
                assert table == bytes((b >> o & 1) << j for b in range(256))

    @pytest.mark.parametrize("start, step", [(5, 13), (3, 8), (0, 1), (6, 9)])
    def test_one_set_bit_lands_at_its_place(self, start, step):
        """A seed with one bit set, at each position of a strided row in
        turn, gives the subseed with only that position's bit set: a table
        that moved bit j to bit o would read 0 wherever the two differ."""
        r = range(start, start + 30 * step, step)
        for k, pos in enumerate(r):
            seed = BitBuffer(r[-1] + 1, 1 << pos)
            assert slice_subseed(seed, r) == 1 << k
            assert slice_subseed(trevisan.SeedDigits(seed), r) == 1 << k

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 300), st.integers(0, 40),
           st.integers(1, 16))
    def test_range_past_seed_end_raises(self, step, length, start, short):
        # the last position lies in the seed's padding or past its buffer
        r = range(start, start + step * length, step)
        seed = BitBuffer(max(0, r[-1] + 1 - short))
        with pytest.raises(IndexError):
            slice_subseed(trevisan.SeedDigits(seed), list(r))
        with pytest.raises(IndexError):
            slice_subseed(seed, r)

    @pytest.mark.parametrize("indices", [
        [], [3], [12, 3, 3, 20, 0], range(22, -1, -1), range(20, 4, -3)],
        ids=["empty", "one", "unsorted-repeated", "reversed", "negative-step"])
    def test_other_rows_read_only_from_the_view(self, indices, rng):
        """Only a range of positive step is read from the packed seed:
        any other row over a BitBuffer raises TypeError naming SeedDigits,
        and the same positions over SeedDigits give the reference."""
        seed = rand_buf(rng, 23)
        with pytest.raises(TypeError, match="SeedDigits"):
            slice_subseed(seed, indices)
        want = _reference(seed, indices)
        assert slice_subseed(trevisan.SeedDigits(seed), indices) == want


class TestGatherFromDigits:
    """slice_subseed on the SeedDigits that extract_all makes of a
    BitBuffer, by one itemgetter over its digit view, against the per-bit
    reference read from to_bytes()."""

    @pytest.mark.parametrize("indices", [
        [], [5], [12, 3, 3, 20, 0, 12], [22], list(range(23))[::-1]],
        ids=["empty", "one", "unsorted-repeated", "last-bit", "reversed"])
    def test_list_positions(self, indices, rng):
        seed = rand_buf(rng, 23)  # the last byte holds 7 bits
        assert (slice_subseed(trevisan.SeedDigits(seed), indices)
                == _reference(seed, indices))

    @pytest.mark.parametrize("position", [-1, 23], ids=["minus-one", "len"])
    def test_position_outside_raises_the_same_error(self, position, rng):
        # a list over the view, and a range over either form
        seed = rand_buf(rng, 23)
        view = trevisan.SeedDigits(seed)
        one = range(position, position + 1)
        for form, indices in ((view, [position]), (view, [4, position, 0]),
                              (view, one), (seed, one)):
            with pytest.raises(IndexError) as info:
                slice_subseed(form, indices)
            assert str(info.value) == "subseed position outside [0, 23)"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 80), st.randoms(use_true_random=False))
    def test_view_matches_bits(self, bits, rnd):
        seed = BitBuffer(bits, rnd.getrandbits(bits))
        view = trevisan.SeedDigits(seed)
        assert view.digits == bytes(b"01"[bit(seed, i)] for i in range(bits))
        assert view._buf is seed._buf  # the bytes are shared, not copied
        indices = [rnd.randrange(bits) for _ in range(rnd.randrange(40))]
        assert slice_subseed(view, indices) == _reference(seed, indices)


class TestExtractionJob:
    def _parts(self):
        return BitBuffer(8, 0x5a), BitBuffer(4, 0x3), object(), object()

    def test_default_workers(self):
        x, seed, design, ext = self._parts()
        job = ExtractionJob(x, seed, design, ext, 4)
        assert job.workers == 1
        assert (job.input, job.seed, job.design, job.extractor, job.m) == (
            x, seed, design, ext, 4)

    def test_keyword_construction_and_equality(self):
        x, seed, design, ext = self._parts()
        job = ExtractionJob(input=x, seed=seed, design=design, extractor=ext,
                            m=4, workers=2)
        assert job == ExtractionJob(BitBuffer(8, 0x5a), BitBuffer(4, 0x3),
                                    design, ext, 4, 2)
        assert job != ExtractionJob(x, seed, design, ext, 4)
        assert job != ExtractionJob(x, seed, object(), ext, 4, 2)
        job.workers = 1
        assert job == ExtractionJob(x, seed, design, ext, 4)
        with pytest.raises(TypeError):
            hash(job)  # mutable, so unhashable

    def test_repr_names_the_fields(self):
        job = ExtractionJob(BitBuffer(1), BitBuffer(1), "d", "e", 3)
        assert repr(job).startswith("ExtractionJob(input=<")
        assert repr(job).endswith(" design='d', extractor='e', m=3, workers=1)")


def _extractors(family: str, n: int):
    """Extractors of one family on n input bits, small enough for the
    naive oracle."""
    if family == "xor":
        return st.builds(XorExtractor, st.just(n), st.integers(1, 8))
    if family == "rsh":
        return st.builds(RshExtractor, st.just(n),
                         st.sampled_from([1, 3, 8, 9, 16, 31, 50, 64]))
    return st.builds(LuExtractor, st.just(n), st.integers(1, 3),
                     st.integers(1, 6))


class _FaultyDesign:
    """A design that calls fault(i) before it gives row i."""

    def __init__(self, design, fault):
        self.design, self.fault = design, fault
        self.d, self.t_act = design.d, design.t_act
        self.m, self.variant = design.m, design.variant
        self.c, self.basic = design.c, design.basic

    def compute_Si(self, i):
        self.fault(i)
        return self.design.compute_Si(i)


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="counts fds and processes in /proc")


def _fan_out_state() -> tuple[int, set[int]]:
    """The number of this process's open fds, and the pids of its child
    processes, running or not yet reaped."""
    me = str(os.getpid())
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # the process ended meanwhile
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            children.add(int(entry))
    return len(os.listdir("/proc/self/fd")), children


class TestExtractAll:
    def test_single_bit_degenerate(self, rng):
        ext = XorExtractor(64, 3)
        design = make_design(DesignVariant.GFP, ext.t_req, 1)
        x, seed = rand_buf(rng, 64), rand_buf(rng, design.d)
        job = ExtractionJob(input=x, seed=seed, design=design,
                            extractor=ext, m=1)
        row = design.compute_Si(0)
        want = ext.extract(ext.prepare(x),
                           [slice_subseed(seed, row[:ext.t_req])])
        assert bit(extract_all(job), 0) == want

    def test_worker_count_invariance(self, rng):
        for family in FAMILIES:
            job = rand_job(rng, family)
            outs = []
            for workers in (1, 2, 8):
                job.workers = workers
                outs.append(extract_all(job).to_bytes())
            assert outs[0] == outs[1] == outs[2]

    def test_concurrent_calls_keep_their_own_jobs(self, rng):
        """Defect 5c: two threads that fan out at the same time each get
        the bits of their own job."""
        jobs = [rand_job(rng, "xor"), rand_job(rng, "lu")]
        want = [extract_all(job) for job in jobs]
        for job in jobs:
            job.workers = 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = [None, None]
                start = threading.Barrier(2)

                def run(k):
                    start.wait()
                    got[k] = extract_all(jobs[k])

                threads = [threading.Thread(target=run, args=(k,),
                                            daemon=True) for k in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert got == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity on this platform")
    def test_caller_affinity_unchanged(self, rng):
        """The caller moves itself onto a CPU for its shard, and is allowed
        all of its CPUs again afterwards."""
        job = rand_job(rng, "rsh")
        want = extract_all(job)
        job.workers = 2
        before = os.sched_getaffinity(0)
        assert extract_all(job) == want
        assert os.sched_getaffinity(0) == before

    @needs_proc
    def test_shards_past_the_pipe_buffer_merge(self, rng, monkeypatch):
        """At m = 2^21 + 3 each of 3 shards is 87,382 bytes, more than a
        64 KiB pipe buffer holds, so each child blocks in its write until
        the caller, done with its own shard, reads it."""
        job = rand_job(rng, "xor", workers=3)
        job.m = (1 << 21) + 3
        # a basic design computes no row up front
        job.design = make_design(DesignVariant.GFP, job.extractor.t_req, job.m)
        job.seed = rand_buf(rng, job.design.d)
        chunk = -(-job.m // 3)
        assert (chunk + 7) // 8 > 1 << 16

        def shard(job, prepared, lo, hi):
            return random.Random(lo).getrandbits(hi - lo)

        want = 0
        for lo in range(0, job.m, chunk):
            want |= shard(job, None, lo, min(lo + chunk, job.m)) << lo
        monkeypatch.setattr(trevisan, "_extract_range", shard)
        before = _fan_out_state()
        assert extract_all(job) == BitBuffer(job.m, want)
        assert _fan_out_state() == before

    @needs_proc
    def test_worker_error_reaches_the_caller(self, rng):
        job = rand_job(rng, "xor", workers=2)
        half = -(-job.m // 2)

        def fault(i):
            if i >= half:
                raise ValueError(f"row {i} refused")

        job.design = _FaultyDesign(job.design, fault)
        before = _fan_out_state()
        with pytest.raises(ValueError, match=f"^row {half} refused$") as info:
            extract_all(job)
        assert type(info.value) is ValueError
        assert _fan_out_state() == before

    @needs_proc
    def test_worker_without_result(self, rng):
        job = rand_job(rng, "lu", workers=2)
        half = -(-job.m // 2)

        def fault(i):
            if i >= half:
                os._exit(3)

        job.design = _FaultyDesign(job.design, fault)
        before = _fan_out_state()
        with pytest.raises(RuntimeError, match="ended without a result"):
            extract_all(job)
        assert _fan_out_state() == before

    @needs_proc
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_caller_error_kills_workers(self, rng, error):
        """The caller's shard fails at once while its worker sleeps: the
        worker is killed and reaped before the error propagates."""
        job = rand_job(rng, "rsh", workers=2)
        half = -(-job.m // 2)

        def fault(i):
            if i == 0:
                raise error("caller's row 0")
            if i == half:
                time.sleep(120)

        job.design = _FaultyDesign(job.design, fault)
        before = _fan_out_state()
        affinity = (os.sched_getaffinity(0)
                    if hasattr(os, "sched_getaffinity") else None)
        start = time.perf_counter()
        with pytest.raises(error, match="^caller's row 0$"):
            extract_all(job)
        assert time.perf_counter() - start < 60
        assert _fan_out_state() == before
        if affinity is not None:
            assert os.sched_getaffinity(0) == affinity

    def test_insufficient_seed(self, rng):
        ext = XorExtractor(64, 3)
        design = make_design(DesignVariant.GFP, ext.t_req, 4)
        job = ExtractionJob(input=rand_buf(rng, 64),
                            seed=rand_buf(rng, design.d - 1),
                            design=design, extractor=ext, m=4)
        with pytest.raises(InsufficientSeedError):
            extract_all(job)

    @pytest.mark.parametrize("variant, design_m, m", [
        (DesignVariant.BLOCK_GFP, 256, 64), (DesignVariant.GFP, 64, 65),
    ], ids=["block-built-for-other-m", "basic-with-fewer-rows"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_design_that_does_not_serve_m_is_refused(self, rng, variant,
                                                      design_m, m, workers):
        """A block design serves only the m it was built for, and a basic
        design at most its own m: anything else is refused before any row
        is computed."""
        ext = XorExtractor(64, 3)
        computed = []
        design = _FaultyDesign(make_design(variant, ext.t_req, design_m),
                               computed.append)
        job = ExtractionJob(input=rand_buf(rng, 64),
                            seed=rand_buf(rng, design.d), design=design,
                            extractor=ext, m=m, workers=workers)
        with pytest.raises(ValueError, match=f"m={design_m} rows does not "
                           f"serve m={m}$"):
            extract_all(job)
        assert computed == []
        job.m = design_m  # the m it was built for is served
        assert len(extract_all(job)) == design_m
        assert computed

    def test_design_too_small_for_extractor(self, rng):
        ext = XorExtractor(64, 8)  # t_req = 48
        design = make_design(DesignVariant.GFP, 10, 4)
        job = ExtractionJob(input=rand_buf(rng, 64),
                            seed=rand_buf(rng, design.d),
                            design=design, extractor=ext, m=4)
        with pytest.raises(ValueError):
            extract_all(job)

    @pytest.mark.parametrize("bits", [1000, 1020])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_input_length_must_equal_n(self, rng, family, bits):
        ext = {"xor": XorExtractor(1024, 3), "rsh": RshExtractor(1024, 8),
               "lu": LuExtractor(1024, 2, 3)}[family]
        design = make_design(DesignVariant.GFP, ext.t_req, 8)
        job = ExtractionJob(input=rand_buf(rng, bits),
                            seed=rand_buf(rng, design.d),
                            design=design, extractor=ext, m=8)
        with pytest.raises(ValueError, match="n=1024"):
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
            assert bit(out, i) == ext.extract(ext.prepare(x), [sub])

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
        flip(seed, free)
        assert extract_all(job).to_bytes() == before

    def test_pipeline_linearity(self, rng):
        for family in FAMILIES:
            job = rand_job(rng, family)
            x1, x2 = job.input, rand_buf(rng, len(job.input))
            out1 = extract_all(job)
            job.input = x2
            out2 = extract_all(job)
            job.input = xor(x1, x2)
            assert extract_all(job) == xor(out1, out2)

    @pytest.mark.parametrize("variant", list(DesignVariant),
                             ids=lambda v: v.name.lower())
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=16, deadline=None)
    @given(n=st.integers(min_value=1, max_value=400),
           m=st.integers(min_value=8, max_value=24),
           data=st.data())
    def test_matches_naive_oracle(self, family, variant, n, m, data):
        ext = data.draw(_extractors(family, n))
        rnd = data.draw(st.randoms(use_true_random=False))
        design = make_design(variant, max(ext.t_req, 7), m)  # block: t >= 7
        job = ExtractionJob(input=rand_buf(rnd, n),
                            seed=rand_buf(rnd, design.d), design=design,
                            extractor=ext, m=m)
        assert extract_all(job) == naive_extract(job)

    @pytest.mark.parametrize("n, c, ell, variant", [
        (300, 7, 5, DesignVariant.GFP),
        (1000, 9, 6, DesignVariant.BLOCK_GF2X),
    ])
    def test_long_lu_walk_matches_naive_oracle(self, rng, n, c, ell, variant):
        """The oracle test above draws c <= 3; c = 7 and 9 take longer
        walks between reads."""
        ext = LuExtractor(n, c, ell)
        design = make_design(variant, ext.t_req, 24)
        job = ExtractionJob(input=rand_buf(rng, n),
                            seed=rand_buf(rng, design.d), design=design,
                            extractor=ext, m=24)
        assert extract_all(job) == naive_extract(job)

    def test_monobit_on_uniform_input(self):
        # ones-fraction of the output stays within 5 sigma of 1/2:
        # z = (2*ones - m) / sqrt(m)
        rng = random.Random(20240817)
        ext = XorExtractor(1 << 20, 2)
        design = make_design(DesignVariant.GFP, ext.t_req, 10 ** 4)
        bad = 0
        for _ in range(20):
            job = ExtractionJob(input=rand_buf(rng, 1 << 20),
                                seed=rand_buf(rng, design.d),
                                design=design, extractor=ext, m=10 ** 4)
            out = extract_all(job)
            if abs(2 * ones(out) - len(out)) / len(out) ** 0.5 >= 5.0:
                bad += 1
        assert bad == 0


@pytest.mark.parametrize("c", [1, 2, 3, 4, 9])
@pytest.mark.parametrize("m", [1, 7, 8, 9, 255, 256, 257])
def test_lu_runs_match_naive_oracle(c, m):
    """``extract`` takes runs of up to RUN = 256 walks: runs of 1 bit,
    around a byte and around RUN match the oracle at 1, 2 and 3 workers.
    m = 257 has shards from bits 129, and 86 and 172, off multiples of 8.
    n = 4,099 is not a square (side 65), so walks reach positions >= n,
    which read 0 also from an input of all ones."""
    assert trevisan.RUN == 256
    n = 4099
    ext = LuExtractor(n, c, 3)
    design = make_design(DesignVariant.GFP, ext.t_req, m)
    rng = random.Random(100 * c + m)
    for x in (rand_buf(rng, n), BitBuffer(n, (1 << n) - 1)):
        job = ExtractionJob(input=x, seed=rand_buf(rng, design.d),
                            design=design, extractor=ext, m=m)
        want = naive_extract(job)
        for workers in (1, 2, 3):
            job.workers = workers
            assert extract_all(job) == want, (workers, x == job.input)


@pytest.mark.parametrize("family", FAMILIES)
def test_block_boundaries_inside_runs_match_naive_oracle(family):
    """A block-gfp design of m = 300 rows has block boundaries off
    multiples of 8 inside the runs of every shard at 1, 2 and 3 workers."""
    rng = random.Random(family)
    ext = {"xor": XorExtractor(1000, 3), "rsh": RshExtractor(1000, 9),
           "lu": LuExtractor(1000, 4, 3)}[family]
    design = make_design(DesignVariant.BLOCK_GFP, max(ext.t_req, 7), 300)
    assert any(start % 8 and start not in (100, 150, 200, 256)
               for start in design._starts[1:])
    job = ExtractionJob(input=rand_buf(rng, 1000),
                        seed=rand_buf(rng, design.d), design=design,
                        extractor=ext, m=300)
    want = naive_extract(job)
    for workers in (1, 2, 3):
        job.workers = workers
        assert extract_all(job) == want


def _list_row_design(kind: str, tmp_path):
    """A design whose rows include lists, for an extractor of t_req = 16."""
    if kind == "loaded-gfp-c1":  # ranges below t, stored rows from t on
        path = tmp_path / "design.twd"
        design_save(make_design(DesignVariant.GFP, 16, 100), path)
        design = design_load(path)
        assert isinstance(design.compute_Si(0), range)
        assert isinstance(design.compute_Si(99), list)
        return design
    variant, m = {"gfp-c1": (DesignVariant.GFP, 100),
                  "gfp-c2": (DesignVariant.GFP, 300),
                  "gf2x-c1": (DesignVariant.GF2X, 100),
                  "block-gfp-c1": (DesignVariant.BLOCK_GFP, 300)}[kind]
    return make_design(variant, 16, m)


LIST_ROW_KINDS = ["gfp-c1", "gfp-c2", "gf2x-c1", "block-gfp-c1",
                  "loaded-gfp-c1"]


@pytest.mark.parametrize("kind", LIST_ROW_KINDS)
def test_list_rows_match_naive_oracle_at_every_worker_count(kind, tmp_path):
    design = _list_row_design(kind, tmp_path)
    assert design.basic.c == (2 if kind == "gfp-c2" else 1)
    ext = XorExtractor(256, 2)
    rng = random.Random(kind)
    job = ExtractionJob(input=rand_buf(rng, 256), seed=rand_buf(rng, design.d),
                        design=design, extractor=ext, m=design.m)
    want = naive_extract(job)
    for workers in (1, 2, 3):
        job.workers = workers
        assert extract_all(job) == want
    # a view is made per call: the seed's new bytes are read
    job.seed._buf[:] = bytes(b ^ 0x5A for b in job.seed._buf)
    assert extract_all(job) == naive_extract(job) != want


def _degree_zero_design(shape: str, tmp_path):
    """The design of a small job of the lu-cached shape (a loaded gfp
    cache) or the rsh-block shape (a computed block-gfp design), both with
    every row a range."""
    if shape == "lu-cached":
        path = tmp_path / "design.twd"
        design_save(make_design(DesignVariant.GFP, 154, 40), path)
        return LuExtractor(4099, 9, 6), design_load(path)
    return (RshExtractor(4096, 8),
            make_design(DesignVariant.BLOCK_GFP, 16, 40))


@pytest.mark.parametrize("shape", ["lu-cached", "rsh-block", "xor-gfp"])
def test_one_view_per_call_before_any_fork(shape, tmp_path, monkeypatch):
    """A degree-0 design builds no digit view; a list-row job builds one
    per extract_all call, before it forks its workers."""
    if shape == "xor-gfp":
        ext, design = XorExtractor(256, 2), _list_row_design("gfp-c1", tmp_path)
    else:
        ext, design = _degree_zero_design(shape, tmp_path)
        assert all(isinstance(design.compute_Si(i), range) for i in range(40))
    events = []
    fork = os.fork

    class CountingDigits(trevisan.SeedDigits):
        __slots__ = ()

        def __init__(self, seed):
            events.append("view")
            super().__init__(seed)

    def counting_fork():
        events.append("fork")
        return fork()

    monkeypatch.setattr(trevisan, "SeedDigits", CountingDigits)
    monkeypatch.setattr(os, "fork", counting_fork)
    rng = random.Random(shape)
    job = ExtractionJob(input=rand_buf(rng, ext.n), seed=rand_buf(rng, design.d),
                        design=design, extractor=ext, m=40, workers=3)
    first = extract_all(job)
    assert extract_all(job) == first == naive_extract(job)
    view = ["view"] if shape == "xor-gfp" else []
    assert events == 2 * (view + ["fork", "fork"])


# SHA-256 of the 40 output bits of one fixed job per (family, variant).
# Any change to a design row, the gather or an extractor changes a digest.
PINNED_OUTPUTS = {
    ("xor", "gfp"): "0cc5ca26d3fed2a6c91aef4a4fa1c4660c4af9fa2644da58d68a3609dad96b62",
    ("xor", "gf2x"): "a0b7721ee858a5f419ba037ad76e9d6d3eb731d6da32b916c9110b8254ae2e22",
    ("xor", "block-gfp"): "21d497ac44307fb2c33627bb1064649f95bda2f386e01da310be079de5da8f6b",
    ("xor", "block-gf2x"): "dfa1e4161fbbd5c449ca2fa2880e216129c87f8a688f33a79a971a96588eff8e",
    ("rsh", "gfp"): "7f63a9c75820f6e0c74357a88d5f47b9f5940f869c52b209685f8e13b9a6ec89",
    ("rsh", "gf2x"): "ef08d3bfbbd7d14655c7003e1049e3a47d631edfe66ab7f187f1a7da5bec1530",
    ("rsh", "block-gfp"): "9a9c7ad8c8439ee307ecdc0c15b1ea7fa48de61d74f8154813f03dbb94905a44",
    ("rsh", "block-gf2x"): "0016ee99c208ed6958ba62b6817f3af50cc4070100270a939d7274e3c9bc964f",
    ("lu", "gfp"): "875b6be1bdf488d4540d59bad31b81c355dcf95ea77bbe0ffabc1b6ce6541369",
    ("lu", "gf2x"): "90190b21559c346c0da97d3c9f142f24caea195a3b1f96ff31462e402d3c6b26",
    ("lu", "block-gfp"): "4f5415ebde55e4f826a582faed03d84da54d668b1aef1c7f8b66c069c56a6138",
    ("lu", "block-gf2x"): "6497cef7ea52c349c2682afcd41c99d8c88551ddc90d2fef46d97b271ec187da",
}


@pytest.mark.parametrize("family, variant", list(PINNED_OUTPUTS),
                         ids=lambda v: v)
def test_output_digests_pinned(family, variant):
    ext = {"xor": lambda: XorExtractor(1000, 5),
           "rsh": lambda: RshExtractor(1000, 16),
           "lu": lambda: LuExtractor(1000, 2, 4)}[family]()
    rng = random.Random(f"{family}/{variant}")
    design = make_design(DesignVariant[variant.upper().replace("-", "_")],
                         max(ext.t_req, 7), 40)
    job = ExtractionJob(input=rand_buf(rng, 1000),
                        seed=rand_buf(rng, design.d), design=design,
                        extractor=ext, m=40)
    digest = hashlib.sha256(extract_all(job).to_bytes()).hexdigest()
    assert digest == PINNED_OUTPUTS[family, variant]


def test_degree_two_output_digest_pinned():
    """The pinned jobs above use degree c <= 1; here t = 7 and m = 60 > 7**2
    make every row's polynomial quadratic or less, with c = 2."""
    ext = XorExtractor(64, 1)
    design = make_design(DesignVariant.GFP, ext.t_req, 60)
    assert (ext.t_req, design.t_act, design.c) == (6, 7, 2)
    rng = random.Random("xor/gfp/c2")
    job = ExtractionJob(input=rand_buf(rng, 64),
                        seed=rand_buf(rng, design.d), design=design,
                        extractor=ext, m=60)
    digest = hashlib.sha256(extract_all(job).to_bytes()).hexdigest()
    assert digest == ("e865625adc33a69ccb930d2ba1a024d7"
                      "cd083ade1684d38b8fbb3f938d763dae")


def test_long_lu_walk_output_digest_pinned():
    """The pinned lu jobs above walk c = 2 steps between samples; here
    c = 9 steps take three composed-step lookups, on side 65."""
    ext = LuExtractor(4099, 9, 6)
    design = make_design(DesignVariant.GFP, ext.t_req, 40)
    assert (ext.side, ext.t_req, design.t_act) == (65, 154, 157)
    rng = random.Random("lu/gfp/c9")
    job = ExtractionJob(input=rand_buf(rng, 4099),
                        seed=rand_buf(rng, design.d), design=design,
                        extractor=ext, m=40)
    digest = hashlib.sha256(extract_all(job).to_bytes()).hexdigest()
    assert digest == ("a0b4421d6ee1de4640d7c17b29e66309"
                      "05e2ab83430349370904f5e346c2605e")
