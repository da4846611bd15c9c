import hashlib
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trevex import cli, weakdesign
from trevex.bitext import from_params
from trevex.params import RKind, max_output_len, rsh_params
from trevex.trevisan import BitBuffer
from trevex.weakdesign import (DesignFormatError, DesignVariant, _header,
                               design_load, design_save, make_design)
from trevex.weakdesign import LoadedBasicDesign


def run(argv):
    return cli.main(argv)


def parse_report(capsys):
    out = capsys.readouterr().out
    report = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition("=")
        report[key] = val
    return report


RSH_ARGS = ["--bitext", "rsh", "-n", "4096", "--alpha", "0.9",
            "--eps", "0.01"]

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"


class TestDryRun:
    def test_feasible_report(self, capsys):
        assert run(RSH_ARGS + ["--dry-run"]) == 0
        rep = parse_report(capsys)
        p = rsh_params(4096, int(rep["m"]), 0.9, 0.01)
        assert int(rep["n"]) == 4096
        assert int(rep["t_req"]) == from_params(p).t_req
        assert float(rep["k"]) == pytest.approx(p.k)
        assert rep["feasible"] == "true"
        assert int(rep["seed_surplus"]) == int(rep["m"]) - int(rep["d"])

    def test_default_m_is_maximum(self, capsys):
        assert run(RSH_ARGS + ["--dry-run"]) == 0
        rep = parse_report(capsys)
        want = max_output_len("rsh", 4096, 0.9, 0.01, RKind.TWO_E)
        assert int(rep["m"]) == want

    def test_oversized_m_infeasible(self, capsys):
        want = max_output_len("rsh", 4096, 0.9, 0.01, RKind.TWO_E)
        assert run(RSH_ARGS + ["--dry-run", "-m", str(want + 1)]) == 2
        rep = parse_report(capsys)
        assert rep["feasible"] == "false"

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        before = set(tmp_path.iterdir())
        run(RSH_ARGS + ["--dry-run"])
        assert set(tmp_path.iterdir()) == before

    def test_block_sizing_error_exits_infeasible(self, capsys):
        # m = 3 < 2e admits no block partition: a parameter error, not I/O
        assert run(["--bitext", "rsh", "-n", "64", "--alpha", "0.9",
                    "--eps", "0.5", "--design", "block-gfp", "-m", "3",
                    "--dry-run"]) == 2
        assert "infeasible parameters" in capsys.readouterr().err

    def test_unsolvable_nu_exits_infeasible(self, capsys):
        # 1 - nu rounds to 1.0, so the walk-length equation has no root
        assert run(["--bitext", "lu", "-n", "4096", "--alpha", "0.9",
                    "--nu", "1e-20", "--eps", "0.01", "--dry-run"]) == 2
        assert "infeasible parameters" in capsys.readouterr().err

    def test_seed_past_addressable_range_exits_infeasible(self, capsys):
        # eps = 1e-300 asks for t_req of about 3.5e9, so d > 2**61
        assert run(["--bitext", "xor", "-n", "4096", "--alpha", "0.9",
                    "--mu", "0.0001", "--eps", "1e-300", "--dry-run"]) == 2
        assert "infeasible parameters" in capsys.readouterr().err

    def test_gen_design_refuses_infeasible_m(self, tmp_path, capsys):
        # the dry run reports m = max + 1 infeasible; so must --gen-design
        want = max_output_len("rsh", 4096, 0.9, 0.01, RKind.TWO_E)
        cache = tmp_path / "design.twd"
        assert run(RSH_ARGS + ["-m", str(want + 1), "--gen-design",
                               "--save-design", str(cache)]) == 2
        assert "infeasible parameters" in capsys.readouterr().err
        assert not cache.exists()

    @pytest.mark.parametrize("argv", [
        # delta = (eps/(2+sqrt(2)))**2 underflows to 0
        ["--bitext", "lu", "--nu", "0.45", "-n", "65536", "--alpha", "1.0",
         "--eps", "1e-162"],
        # 2/eps and (2+sqrt(2))/eps overflow to inf, and so does ell
        ["--bitext", "xor", "--mu", "0.03", "-n", "4096", "--alpha", "0.9",
         "--eps", "1e-308"],
        ["--bitext", "rsh", "-n", "4096", "--alpha", "0.9", "--eps", "1e-308"],
        # the walk-length bisection starts at nu*1e-15, which underflows
        ["--bitext", "lu", "--nu", "1e-311", "-n", "4096", "--alpha", "0.9",
         "--eps", "0.01"],
    ], ids=["lu", "xor", "rsh", "lu-nu"])
    def test_float_past_its_range_exits_infeasible(self, argv, capsys):
        assert run(argv + ["--dry-run"]) == 2
        assert "infeasible parameters" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(["xor", "rsh", "lu"]),
           n=st.integers(-5, 10**12),
           alpha=st.floats(0.0, 1.0),
           eps=st.one_of(st.floats(5e-324, 1.0),
                         st.sampled_from([5e-324, 1e-308, 1e-162])),
           free=st.floats(0.0, 1.0),
           design=st.sampled_from(["gfp", "gf2x", "block-gfp", "block-gf2x"]),
           m=st.one_of(st.none(), st.integers(0, 1 << 62),
                       st.sampled_from([0, 1 << 62])))
    def test_any_dry_run_exits_0_or_2(self, family, n, alpha, eps, free,
                                      design, m):
        argv = ["--bitext", family, f"-n={n}", f"--alpha={alpha!r}",
                f"--eps={eps!r}", "--design", design, "--dry-run"]
        if family != "rsh":
            argv.append(f"--{'mu' if family == 'xor' else 'nu'}={free!r}")
        if m is not None:
            argv.append(f"-m={m}")
        assert run(argv) in (0, 2)


class TestRshBlockAbove64:
    """At n = 2^16 and eps = 1e-10 RSH needs blocks of l = 85 bits, past
    the 64-bit fields it supports: no run exists, so every mode exits 2
    and writes nothing."""

    ARGS = ["--bitext", "rsh", "-n", "65536", "--alpha", "0.5",
            "--eps", "1e-10", "-m", "10"]

    def test_dry_run_exits_infeasible(self, capsys):
        assert run(self.ARGS + ["--dry-run"]) == 2
        out, err = capsys.readouterr()
        assert "infeasible parameters" in err
        assert "feasible=true" not in out

    def test_gen_design_exits_infeasible(self, tmp_path, capsys):
        cache = tmp_path / "design.twd"
        assert run(self.ARGS + ["--gen-design", "--save-design",
                                str(cache)]) == 2
        assert "infeasible parameters" in capsys.readouterr().err
        assert not cache.exists()

    def test_extraction_exits_infeasible(self, tmp_path, capsys):
        rng = random.Random(85)
        inp, sd = tmp_path / "input.bin", tmp_path / "seed.bin"
        inp.write_bytes(rng.randbytes(8192))
        sd.write_bytes(rng.randbytes(4096))  # the l = 85 design's d = 29929
        out, cache = tmp_path / "out.bin", tmp_path / "design.twd"
        assert run(self.ARGS + ["--input", str(inp), "--seed", str(sd),
                                "--output", str(out),
                                "--save-design", str(cache)]) == 2
        assert "infeasible parameters" in capsys.readouterr().err
        assert not out.exists() and not cache.exists()


class TestUsageErrors:
    def test_missing_family(self):
        assert run(["--dry-run", "-n", "4096", "--alpha", "0.9",
                    "--eps", "0.01"]) == 1

    def test_missing_mu_for_xor(self):
        assert run(["--bitext", "xor", "-n", "4096", "--alpha", "0.9",
                    "--eps", "0.01", "--dry-run"]) == 1

    def test_missing_nu_for_lu(self):
        assert run(["--bitext", "lu", "-n", "4096", "--alpha", "0.9",
                    "--eps", "0.01", "--dry-run"]) == 1

    def test_unknown_flag(self):
        assert run(["--frobnicate"]) == 1

    def test_missing_files_for_extract(self):
        assert run(RSH_ARGS + ["-m", "64"]) == 1

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        out = tmp_path / "out.bin"
        assert run(RSH_ARGS + ["-m", "64", "--input", str(tmp_path / "in"),
                               "--seed", str(tmp_path / "seed"),
                               "--output", str(out), "--threads",
                               threads]) == 1
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


class TestExtract:
    def _files(self, tmp_path, n_bytes, seed_bytes, seed=1234):
        rng = random.Random(seed)
        inp = tmp_path / "input.bin"
        sd = tmp_path / "seed.bin"
        inp.write_bytes(rng.randbytes(n_bytes))
        sd.write_bytes(rng.randbytes(seed_bytes))
        return inp, sd

    def test_round_trip_and_thread_invariance(self, tmp_path, capsys):
        inp, sd = self._files(tmp_path, 512, 2048)
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"out{threads}.bin"
            code = run(RSH_ARGS + ["-m", "64", "--input", str(inp),
                                   "--seed", str(sd), "--output", str(out),
                                   "--threads", threads])
            assert code == 0
            rep = parse_report(capsys)
            assert int(rep["bits_out"]) == 64
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0]) == 8

    def test_short_seed_exits_3_without_output(self, tmp_path, capsys):
        inp, sd = self._files(tmp_path, 512, 2048)
        # d = 3481 bits -> 436 bytes needed
        sd.write_bytes(sd.read_bytes()[:435])
        out = tmp_path / "out.bin"
        code = run(RSH_ARGS + ["-m", "64", "--input", str(inp),
                               "--seed", str(sd), "--output", str(out)])
        assert code == 3
        assert not out.exists()

    def test_short_input_exits_3(self, tmp_path):
        inp, sd = self._files(tmp_path, 100, 2048)
        out = tmp_path / "out.bin"
        code = run(RSH_ARGS + ["-m", "64", "--input", str(inp),
                               "--seed", str(sd), "--output", str(out)])
        assert code == 3

    def test_missing_input_file_exits_4(self, tmp_path):
        _, sd = self._files(tmp_path, 512, 2048)
        code = run(RSH_ARGS + ["-m", "64", "--input",
                               str(tmp_path / "absent.bin"),
                               "--seed", str(sd),
                               "--output", str(tmp_path / "out.bin")])
        assert code == 4

    def test_save_and_load_design_round_trip(self, tmp_path, capsys):
        inp, sd = self._files(tmp_path, 512, 2048)
        cache = tmp_path / "design.twd"
        out1, out2 = tmp_path / "o1.bin", tmp_path / "o2.bin"
        base = RSH_ARGS + ["-m", "64", "--input", str(inp),
                           "--seed", str(sd)]
        assert run(base + ["--output", str(out1),
                           "--save-design", str(cache)]) == 0
        assert cache.exists()
        assert run(base + ["--output", str(out2),
                           "--load-design", str(cache)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unsavable_design_exits_4_before_extraction(self, tmp_path,
                                                        capsys, monkeypatch):
        # the cache is written before extraction, so a design that no cache
        # holds costs no extraction and leaves no output
        def refuse(design, path):
            raise DesignFormatError("no cache holds this design")

        def extract(job):
            raise AssertionError("extracted before the cache was saved")

        monkeypatch.setattr(weakdesign, "design_save", refuse)
        monkeypatch.setattr(cli, "extract_all", extract)
        inp, sd = self._files(tmp_path, 512, 2048)
        out = tmp_path / "out.bin"
        assert run(RSH_ARGS + ["-m", "64", "--input", str(inp),
                               "--seed", str(sd), "--output", str(out),
                               "--save-design",
                               str(tmp_path / "design.twd")]) == 4
        assert "no cache holds" in capsys.readouterr().err
        assert not out.exists()

    def test_undersized_cached_design_rejected(self, tmp_path):
        inp, sd = self._files(tmp_path, 512, 2048)
        cache = tmp_path / "design.twd"
        design_save(make_design(DesignVariant.GFP, 10, 4), cache)
        code = run(RSH_ARGS + ["-m", "64", "--input", str(inp),
                               "--seed", str(sd),
                               "--output", str(tmp_path / "out.bin"),
                               "--load-design", str(cache)])
        assert code == 4

    @pytest.mark.parametrize("saved, requested",
                             [("gfp", "block-gfp"), ("block-gfp", "gfp")])
    def test_cached_design_of_other_variant_rejected(self, tmp_path, capsys,
                                                     saved, requested):
        inp, sd = self._files(tmp_path, 512, 2048)
        cache = tmp_path / "design.twd"
        out = tmp_path / "out.bin"
        base = RSH_ARGS + ["-m", "64", "--input", str(inp), "--seed", str(sd)]
        assert run(base + ["--design", saved, "--gen-design",
                           "--save-design", str(cache)]) == 0
        capsys.readouterr()
        code = run(base + ["--design", requested, "--output", str(out),
                           "--load-design", str(cache)])
        assert code == 4
        assert "--design" in capsys.readouterr().err
        assert not out.exists()

    def test_cached_block_design_of_other_m_rejected(self, tmp_path, capsys):
        # Block rows depend on m through the block partition, so the first
        # 64 rows of a design built for m = 256 are not the 64-row design.
        inp, sd = self._files(tmp_path, 512, 4096)  # enough seed for m = 256
        cache = tmp_path / "design.twd"
        out = tmp_path / "out.bin"
        base = RSH_ARGS + ["--design", "block-gfp"]
        assert run(base + ["-m", "256", "--gen-design",
                           "--save-design", str(cache)]) == 0
        capsys.readouterr()
        code = run(base + ["-m", "64", "--input", str(inp), "--seed", str(sd),
                           "--output", str(out), "--load-design", str(cache)])
        assert code == 4
        assert "m=256" in capsys.readouterr().err
        assert not out.exists()

    def test_cached_design_of_larger_t_rejected(self, tmp_path, capsys):
        # eps = 1e-4 sizes t_act = 83 (d = 6889); this run's design has
        # t_act = 59 (d = 3481), which is what its dry-run reports.
        inp, sd = self._files(tmp_path, 512, 2048)
        cache = tmp_path / "design.twd"
        out = tmp_path / "out.bin"
        big = ["--bitext", "rsh", "-n", "4096", "--alpha", "0.9",
               "--eps", "0.0001", "-m", "64"]
        assert run(big + ["--gen-design", "--save-design", str(cache)]) == 0
        assert parse_report(capsys)["t_act"] == "83"
        assert run(RSH_ARGS + ["-m", "64", "--dry-run"]) == 0
        assert parse_report(capsys)["t_act"] == "59"
        code = run(RSH_ARGS + ["-m", "64", "--input", str(inp),
                               "--seed", str(sd), "--output", str(out),
                               "--load-design", str(cache)])
        assert code == 4
        err = capsys.readouterr().err
        assert "--design" in err and "m=" in err
        assert not out.exists()

    def test_cached_basic_design_prefix_matches_fresh_design(self, tmp_path):
        # Basic rows do not depend on m: a cache for m = 256 serves -m 64.
        inp, sd = self._files(tmp_path, 512, 2048)
        cache = tmp_path / "design.twd"
        fresh, loaded = tmp_path / "fresh.bin", tmp_path / "loaded.bin"
        assert run(RSH_ARGS + ["-m", "256", "--gen-design",
                               "--save-design", str(cache)]) == 0
        base = RSH_ARGS + ["-m", "64", "--input", str(inp), "--seed", str(sd)]
        assert run(base + ["--output", str(fresh)]) == 0
        assert run(base + ["--output", str(loaded),
                           "--load-design", str(cache)]) == 0
        assert loaded.read_bytes() == fresh.read_bytes()


class TestDesignTools:
    def test_gen_then_verify(self, tmp_path, capsys):
        cache = tmp_path / "design.twd"
        assert run(RSH_ARGS + ["-m", "64", "--gen-design",
                               "--save-design", str(cache)]) == 0
        capsys.readouterr()
        assert run(["--verify-design", str(cache)]) == 0
        rep = parse_report(capsys)
        assert rep["verified"] == "true"
        assert int(rep["m"]) == 64

    def test_gen_design_needs_path(self):
        assert run(RSH_ARGS + ["-m", "64", "--gen-design"]) == 1

    def test_verify_block_design_with_overlap(self, tmp_path, capsys):
        cache = tmp_path / "block.twd"
        design_save(make_design(DesignVariant.BLOCK_GFP, 7, 100), cache)
        assert run(["--verify-design", str(cache)]) == 0
        rep = parse_report(capsys)
        assert "overlap_checked" not in rep
        assert rep["overlap_worst_sum"] == "99"
        assert rep["overlap_bound"] == "100"  # r = 1: the bound is m

    # Every size is checked in full.  t = 41 and m = 4097 lie past the
    # t <= 40, m <= 4096 budget an earlier check needed; the worst sums
    # were computed apart, one mask per row and every pair of rows.
    @pytest.mark.parametrize("t_req, m, worst, bound", [
        (37, 8, 7, "43.49256"), (41, 8, 7, "43.49256"),
        (7, 4097, 10354, "22273.62729"),
    ], ids=["t-within", "t-past", "m-past"])
    def test_verify_reports_whether_overlap_checked(self, t_req, m, worst,
                                                    bound, tmp_path, capsys):
        cache = tmp_path / "design.twd"
        design_save(make_design(DesignVariant.GFP, t_req, m), cache)
        assert run(["--verify-design", str(cache)]) == 0
        rep = parse_report(capsys)
        assert rep["verified"] == "true"
        assert "overlap_checked" not in rep
        assert int(rep["overlap_worst_sum"]) == worst
        assert rep["overlap_bound"] == bound  # 543657*m/100000, exactly

    def test_duplicate_row_past_the_old_budget_exits_5(self, tmp_path, capsys):
        # t = 41: row 45, a copy of row 44 (p(x) = x + 3), shares all 41
        # elements with it; each constant row 0-40 meets it once, and rows
        # 41-43, p(x) = x + 0, 1, 2, are parallel to it and never do.
        good = make_design(DesignVariant.GFP, 41, 64)
        rows = [good.compute_Si(i) for i in range(64)]
        rows[45] = list(rows[44])
        bad = LoadedBasicDesign(good.t_act, 64, rows[good.t_act:])
        cache = tmp_path / "dup.twd"
        design_save(bad, cache)
        assert run(["--verify-design", str(cache)]) == 5
        captured = capsys.readouterr()
        assert "verified" not in captured.out
        assert "row 45 overlap sum" in captured.err
        assert str(2 ** 41 + 41 * 2 + 3) in captured.err

    @pytest.mark.parametrize("variant, m", [
        (DesignVariant.GFP, 12), (DesignVariant.BLOCK_GFP, 80)],
        ids=["gfp", "block-gfp"])
    def test_duplicate_range_row_exits_5(self, variant, m, tmp_path, capsys):
        # t = 11, and basic row 11, the first that a cache stores, planted
        # as a copy of the range row 3 that the check does not read: it
        # shares all 11 elements with row 3 and none with the other ten
        # range rows of its block.  The block design's first block holds
        # 14 rows, basic rows 0 to 13.
        good = make_design(variant, 11, m)
        t = good.t_act
        stored = [good.basic.compute_Si(i) for i in range(t, good.basic.m)]
        stored[0] = list(range(3, 3 + t * t, t))
        loaded = (weakdesign.LoadedBlockDesign if variant.is_block
                  else LoadedBasicDesign)
        cache = tmp_path / "design.twd"
        design_save(loaded(t, m, stored), cache)
        assert run(["--verify-design", str(cache)]) == 5
        captured = capsys.readouterr()
        assert "verified" not in captured.out
        assert (f"row 11 overlap sum {2 ** 11 + 10} exceeds the r*m bound"
                in captured.err)

    def test_verify_of_a_huge_degree_zero_header_is_bounded(self, tmp_path,
                                                            capsys):
        # The 33-byte gfp cache of t = m = 1,000,000,007: its rows are the
        # construction's ranges, which the check sums in closed form (row
        # i: i) without reading one, in a few KiB.
        t = 1_000_000_007
        head = b"TWD2" + struct.pack("<BQQQ", DesignVariant.GFP.value, t, t,
                                     t * t)
        cache = tmp_path / "huge.twd"
        cache.write_bytes(head + struct.pack("<I", zlib.crc32(head)))
        tracemalloc.start()
        try:
            code = run(["--verify-design", str(cache)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 1 << 16, peak
        rep = parse_report(capsys)
        assert rep["verified"] == "true"
        assert rep["overlap_worst_sum"] == str(t - 1)
        assert rep["overlap_bound"] == "5436570038.05599"  # 543657*t/100000

    def test_corrupted_cache_exits_4(self, tmp_path):
        cache = tmp_path / "design.twd"
        design_save(make_design(DesignVariant.GFP, 11, 32), cache)
        data = bytearray(cache.read_bytes())
        data[16] ^= 0x01
        cache.write_bytes(bytes(data))
        # CRC catches the flip before any semantic check
        assert run(["--verify-design", str(cache)]) == 4

    def test_bad_design_exits_5(self, tmp_path, capsys):
        # m > t: degree 1, so every row is a list the test may change, and
        # rows 11 to 19 are stored
        good = make_design(DesignVariant.GFP, 11, 20)
        rows = [good.compute_Si(i) for i in range(20)]
        rows[13][0] = rows[13][1]  # duplicate element: |S_13| < t
        bad = LoadedBasicDesign(good.t_act, 20, rows[good.t_act:])
        with pytest.raises(TypeError):  # degree-0 rows are ranges
            make_design(DesignVariant.GFP, 11, 8).compute_Si(3)[0] = 0
        cache = tmp_path / "bad.twd"
        design_save(bad, cache)
        assert run(["--verify-design", str(cache)]) == 5
        assert "row 13" in capsys.readouterr().err


    def test_cache_of_no_rows_exits_4(self, tmp_path, capsys):
        # A gfp header with t = 7, m = 0 and d = 49, and its CRC: no design
        # has m = 0, so neither command may take it for one.
        head = b"TWD2" + struct.pack("<BQQQ", DesignVariant.GFP.value, 7, 0, 49)
        cache = tmp_path / "empty.twd"
        cache.write_bytes(head + struct.pack("<I", zlib.crc32(head)))
        assert run(["--verify-design", str(cache)]) == 4
        captured = capsys.readouterr()
        assert "verified" not in captured.out and "m=0" in captured.err
        rng = random.Random(5)
        inp, sd = tmp_path / "input.bin", tmp_path / "seed.bin"
        inp.write_bytes(rng.randbytes(512))
        sd.write_bytes(rng.randbytes(2048))
        out = tmp_path / "out.bin"
        assert run(RSH_ARGS + ["-m", "64", "--input", str(inp),
                               "--seed", str(sd), "--output", str(out),
                               "--load-design", str(cache)]) == 4
        assert "m=0" in capsys.readouterr().err
        assert not out.exists()

    def test_header_of_a_huge_degree_zero_design_loads_bounded(self, tmp_path,
                                                              capsys):
        # A 33-byte gfp cache, header and CRC, of t = m = 1,000,000,007
        # (degree 0, d below 2**61): it loads without building a row, and
        # a job that is not its design exits 4 under the same small peak.
        t = 1_000_000_007
        head = b"TWD2" + struct.pack("<BQQQ", DesignVariant.GFP.value, t, t,
                                     t * t)
        cache = tmp_path / "huge.twd"
        cache.write_bytes(head + struct.pack("<I", zlib.crc32(head)))
        rng = random.Random(8)
        inp, sd = tmp_path / "input.bin", tmp_path / "seed.bin"
        inp.write_bytes(rng.randbytes(512))
        sd.write_bytes(rng.randbytes(2048))
        out = tmp_path / "out.bin"
        tracemalloc.start()
        try:
            loaded = design_load(cache)
            load_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            code = run(RSH_ARGS + ["-m", "64", "--input", str(inp),
                                   "--seed", str(sd), "--output", str(out),
                                   "--load-design", str(cache)])
            run_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load_peak < 1 << 16 and run_peak < 1 << 21
        assert (loaded.t_act, loaded.m, loaded.d) == (t, t, t * t)
        assert loaded.compute_Si(t - 1) == range(t - 1, t * t, t)
        assert code == 4
        assert f"t_act={t}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", [4_294_967_311, 1 << 33],
                             ids=["gfp", "gf2x"])
    def test_header_past_the_seed_range_exits_4(self, t, tmp_path, capsys):
        # t >= 2**32: d = t*t passes both the 2**61 seed bound and the u64
        # a header holds it in, so no cache can be of this design.
        variant = DesignVariant.GFP if t % 2 else DesignVariant.GF2X
        head = b"TWD2" + struct.pack("<BQQQ", variant.value, t, t,
                                     (t * t) % (1 << 64))
        cache = tmp_path / "huge.twd"
        cache.write_bytes(head + struct.pack("<I", zlib.crc32(head)))
        with pytest.raises(DesignFormatError, match="exceeds addressable"):
            design_load(cache)
        assert run(["--verify-design", str(cache)]) == 4
        captured = capsys.readouterr()
        assert "verified" not in captured.out
        assert f"d={t * t}" in captured.err
        rng = random.Random(9)
        inp, sd = tmp_path / "input.bin", tmp_path / "seed.bin"
        inp.write_bytes(rng.randbytes(512))
        sd.write_bytes(rng.randbytes(2048))
        out = tmp_path / "out.bin"
        assert run(RSH_ARGS + ["-m", "64", "--input", str(inp),
                               "--seed", str(sd), "--output", str(out),
                               "--load-design", str(cache)]) == 4
        assert "exceeds addressable" in capsys.readouterr().err
        assert not out.exists()

    def test_design_past_u32_elements_exits_4_without_file(self, tmp_path,
                                                          capsys):
        # A feasible gfp design of t_act = 120,163 and m = 130,000 > t_act
        # (c = 1), d = 14,439,146,569: the row elements it would store from
        # t on pass the u32 a cache stores them as.
        cache = tmp_path / "design.twd"
        assert run(["--bitext", "xor", "-n", "1048576", "--alpha", "0.9",
                    "--mu", "0.03", "--eps", "1e-3", "-m", "130000",
                    "--gen-design", "--save-design", str(cache)]) == 4
        assert "t_act=120163" in capsys.readouterr().err
        assert not cache.exists()
        # The degree-0 design of t_act = 72,101 and m = 4 stores no row,
        # so its cache is its header and CRC.
        assert run(["--bitext", "xor", "-n", "4096", "--alpha", "0.9",
                    "--mu", "0.03", "--eps", "1e-3", "-m", "4",
                    "--gen-design", "--save-design", str(cache)]) == 0
        assert "t_act=72101" in capsys.readouterr().out
        assert cache.stat().st_size == 29 + 4

    @pytest.mark.parametrize("tag, t, d", [
        (DesignVariant.GF2X, 7, 64),  # gf2x rounds t = 7 up to 8
        (DesignVariant.GFP, 9, 121),  # no field has order 9
    ], ids=["gf2x-t7", "gfp-t9"])
    def test_header_of_an_unrounded_t_exits_4(self, tag, t, d, tmp_path,
                                              capsys):
        # A header with m = 2t whose t no design of its tag has, over its
        # t stored rows t to 2t - 1 of t elements and their CRC: rows of the
        # gfp t = 7 design, and of the t = 11 design cut to t elements.
        rows = make_design(DesignVariant.GFP, t, 2 * t)
        head = b"TWD2" + struct.pack("<BQQQ", tag.value, t, 2 * t, d)
        body = head + b"".join(struct.pack(f"<{t}I", *rows.compute_Si(i)[:t])
                               for i in range(t, 2 * t))
        cache = tmp_path / "retagged.twd"
        cache.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert run(["--verify-design", str(cache)]) == 4
        captured = capsys.readouterr()
        assert "verified" not in captured.out and f"t_act={t}" in captured.err

    @staticmethod
    def _twd1(design) -> bytes:
        """The design's cache in the earlier TWD1 format: the same header
        under the magic "TWD1", then every basic row, rows below t
        included, then the CRC-32."""
        basic = design.basic
        body = b"TWD1" + _header(design)[4:] + b"".join(
            struct.pack(f"<{design.t_act}I", *basic.compute_Si(k))
            for k in range(basic.m))
        return body + struct.pack("<I", zlib.crc32(body))

    @pytest.mark.parametrize("design", ["gfp", "block-gfp"])
    def test_earlier_format_cache_exits_4(self, design, tmp_path, capsys):
        # _twd1 gives the bytes the TWD1 format pinned for t = 11, m = 32
        for variant, digest in [
                (DesignVariant.GFP, "2e25ec6dc15a4c4f395b0df51cd48797"
                                    "fa988a7b05895ae60a70069ea8332caf"),
                (DesignVariant.BLOCK_GFP, "9b2467ae425edd0661c17d835d489dec"
                                          "4cff07f82951e1a19fdff827af7f3b29")]:
            old = self._twd1(make_design(variant, 11, 32))
            assert hashlib.sha256(old).hexdigest() == digest
        # the TWD1 cache of the very design the run builds and accepts
        base = RSH_ARGS + ["-m", "64", "--design", design]
        cache, old = tmp_path / "design.twd", tmp_path / "old.twd"
        assert run(base + ["--gen-design", "--save-design", str(cache)]) == 0
        old.write_bytes(self._twd1(design_load(cache)))
        capsys.readouterr()
        assert run(["--verify-design", str(old)]) == 4
        captured = capsys.readouterr()
        assert "verified" not in captured.out and "bad magic" in captured.err
        rng = random.Random(6)
        inp, sd = tmp_path / "input.bin", tmp_path / "seed.bin"
        inp.write_bytes(rng.randbytes(512))
        sd.write_bytes(rng.randbytes(2048))
        out = tmp_path / "out.bin"
        extract = base + ["--input", str(inp), "--seed", str(sd),
                          "--output", str(out)]
        assert run(extract + ["--load-design", str(old)]) == 4
        assert "bad magic" in capsys.readouterr().err
        assert not out.exists()
        assert run(extract + ["--load-design", str(cache)]) == 0
        assert out.exists()


class TestProcess:
    """The CLI as users run it, ``python -m trevex.cli`` in a process of
    its own: cli.entry() ends the process by os._exit once main() has
    returned and stdout and stderr are flushed, so whatever the process
    reports must arrive as in-process calls of cli.main report it."""

    @staticmethod
    def _process(argv, launch=("-m", "trevex.cli"), unbuffered=False,
                 **kwargs):
        """argv run by a fresh interpreter.  Its stdout is buffered, as a
        pipe's or a file's is by default, unless unbuffered is set."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        kwargs.setdefault("capture_output", True)
        return subprocess.run([sys.executable, *launch, *argv], text=True,
                              env=env, timeout=120, **kwargs)

    @staticmethod
    def _files(tmp_path, seed_bytes=2048):
        rng = random.Random(31)
        inp, sd = tmp_path / "input.bin", tmp_path / "seed.bin"
        inp.write_bytes(rng.randbytes(512))
        sd.write_bytes(rng.randbytes(seed_bytes))
        return ["--input", str(inp), "--seed", str(sd)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_extraction_report_and_output_match_in_process(
            self, threads, tmp_path, capsys):
        base = RSH_ARGS + ["-m", "64", "--threads", threads]
        base += self._files(tmp_path)
        proc = self._process(base + ["--output", str(tmp_path / "proc.bin")])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert run(base + ["--output", str(tmp_path / "main.bin")]) == 0
        lines = proc.stdout.splitlines()
        assert [line.partition("=")[0] for line in lines] == [
            "bits_in", "bits_out", "d", "wall_time_s"]
        assert lines[:3] == capsys.readouterr().out.splitlines()[:3]
        assert ((tmp_path / "proc.bin").read_bytes()
                == (tmp_path / "main.bin").read_bytes())

    def test_dry_run_report_matches_in_process(self, capsys):
        proc = self._process(RSH_ARGS + ["--dry-run"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert run(RSH_ARGS + ["--dry-run"]) == 0
        assert proc.stdout == capsys.readouterr().out

    def _trigger(self, code, tmp_path):
        """The argv of an in-process test that exits with code, and the
        start of the stderr line it gets."""
        extract = RSH_ARGS + ["-m", "64", "--output", str(tmp_path / "o")]
        if code == 1:
            return ["--frobnicate"], "usage error: "
        if code == 2:
            return (TestRshBlockAbove64.ARGS + ["--dry-run"],
                    "infeasible parameters: ")
        if code == 3:  # d = 3481 bits need 436 bytes
            return extract + self._files(tmp_path, 435), "insufficient data: "
        if code == 4:
            return (extract + ["--input", str(tmp_path / "absent.bin"),
                               "--seed", str(tmp_path / "absent.bin")],
                    "I/O or format error: ")
        good = make_design(DesignVariant.GFP, 11, 20)
        rows = [good.compute_Si(i) for i in range(20)]
        rows[13][0] = rows[13][1]  # as in test_bad_design_exits_5
        cache = tmp_path / "bad.twd"
        design_save(LoadedBasicDesign(good.t_act, 20, rows[good.t_act:]), cache)
        return ["--verify-design", str(cache)], "verification failed: row 13"

    @pytest.mark.parametrize("code", [1, 2, 3, 4, 5])
    def test_exit_code_comes_with_its_stderr_line(self, code, tmp_path,
                                                  capsys):
        argv, start = self._trigger(code, tmp_path)
        proc = self._process(argv)
        assert run(argv) == code
        captured = capsys.readouterr()
        assert proc.returncode == code
        assert proc.stderr.startswith(start) and proc.stderr.count("\n") == 1
        assert (proc.stdout, proc.stderr) == (captured.out, captured.err)

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_stdout_reader_gone_never_exits_0(self, unbuffered):
        # Buffered, the report fails at entry()'s flush and the normal exit
        # reports it (code 120); unbuffered, print fails in main() (code 4).
        r, w = os.pipe()
        os.close(r)
        try:
            proc = self._process(RSH_ARGS + ["--dry-run"],
                                 unbuffered=unbuffered, capture_output=False,
                                 stdout=w, stderr=subprocess.PIPE)
        finally:
            os.close(w)
        assert proc.returncode == (4 if unbuffered else 120)
        assert "Broken pipe" in proc.stderr

    def test_closed_stdout_exits_0(self):
        # Started without fd 1, Python sets sys.stdout to None and print
        # writes nothing; the job still succeeds.
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m trevex.cli "$@" >&-', sys.executable,
             *RSH_ARGS, "--dry-run"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_profiler_prints_its_table(self):
        proc = self._process(RSH_ARGS + ["--dry-run"],
                             launch=("-m", "cProfile", "-m", "trevex.cli"))
        assert proc.returncode == 0
        assert proc.stdout.startswith("n=4096\n")
        assert "function calls" in proc.stdout
        assert "Ordered by" in proc.stdout

    def test_help_exits_the_normal_way(self):
        proc = self._process(["--help"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: trevex")

    @pytest.mark.skipif(
        not Path(f"/proc/self/task/{os.getpid()}/children").is_file(),
        reason="needs /proc with per-task children lists")
    def test_main_leaves_no_file_or_child(self, tmp_path, capsys):
        # What entry() relies on before os._exit: a run that fans out and
        # writes a cache and an output has closed and reaped all of it.
        def held():
            kids = set()
            for task in Path("/proc/self/task").iterdir():
                kids |= set((task / "children").read_text().split())
            return set(os.listdir("/proc/self/fd")), kids

        before = held()
        assert run(RSH_ARGS + ["-m", "64", "--threads", "3",
                               "--save-design", str(tmp_path / "d.twd"),
                               "--output", str(tmp_path / "out.bin")]
                   + self._files(tmp_path)) == 0
        assert held() == before


class TestFootprint:
    def test_seed_read_holds_the_data_once(self, tmp_path):
        bits = 2_000_003
        data = random.Random(7).randbytes((bits + 7) // 8)
        path = tmp_path / "seed.bin"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            buf = cli._read_bits(str(path), bits, "seed")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buf == BitBuffer.from_bytes(data, bits)
        assert peak <= len(data) + 64 * 1024

    def test_import_leaves_out_pool_and_oracles(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, trevex.cli; "
                "print(sorted({'multiprocessing', 'trevex.verify'} "
                "& set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out.strip() == "[]"

    def test_import_path_stays_light(self):
        """Every CLI job pays for its imports before any bit is extracted:
        dataclasses (with inspect, dis and ast), signal, typing and the
        oracles stay off the path.  -S keeps site out, since a .pth file
        may import typing before the package does."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; before = set(sys.modules); import trevex.cli; "
                "print(*sorted(set(sys.modules) - before))")
        out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout
        added = set(out.split())
        assert "trevex.cli" in added
        assert added.isdisjoint({"dataclasses", "inspect", "signal", "typing",
                                 "trevex.verify"}), sorted(added)


class TestReadme:
    def test_library_example_matches_cli(self, tmp_path, monkeypatch):
        block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
        rng = random.Random(1234)
        (tmp_path / "input.bin").write_bytes(rng.randbytes(512))
        (tmp_path / "seed.bin").write_bytes(rng.randbytes(2048))
        monkeypatch.chdir(tmp_path)
        example = compile(block, str(README), "exec")
        exec(example, {})
        assert run(RSH_ARGS + ["-m", "64", "--input", "input.bin",
                               "--seed", "seed.bin", "--output", "cli.bin"]) == 0
        out = (tmp_path / "out.bin").read_bytes()
        assert len(out) == 8
        assert out == (tmp_path / "cli.bin").read_bytes()
        # d = 3,481 bits need 436 bytes; 10 are refused, not zero-filled
        (tmp_path / "seed.bin").write_bytes(rng.randbytes(10))
        with pytest.raises(ValueError, match="10 bytes hold fewer than 3481"):
            exec(example, {})
