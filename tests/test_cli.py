import random

import pytest

from trevex import cli
from trevex.params import RKind, max_output_len, rsh_params
from trevex.weakdesign import (DesignVariant, design_load, design_save,
                               make_design)
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


class TestDryRun:
    def test_feasible_report(self, capsys):
        assert run(RSH_ARGS + ["--dry-run"]) == 0
        rep = parse_report(capsys)
        p = rsh_params(4096, int(rep["m"]), 0.9, 0.01)
        assert int(rep["n"]) == 4096
        assert int(rep["t_req"]) == p.t_req
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

    def test_unsolvable_nu_exits_infeasible(self, capsys):
        # 1 - nu rounds to 1.0, so the walk-length equation has no root
        assert run(["--bitext", "lu", "-n", "4096", "--alpha", "0.9",
                    "--nu", "1e-20", "--eps", "0.01", "--dry-run"]) == 2
        assert "infeasible parameters" in capsys.readouterr().err


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
        assert int(rep["overlap_worst_sum"]) <= 100

    def test_corrupted_cache_exits_4(self, tmp_path):
        cache = tmp_path / "design.twd"
        design_save(make_design(DesignVariant.GFP, 11, 32), cache)
        data = bytearray(cache.read_bytes())
        data[16] ^= 0x01
        cache.write_bytes(bytes(data))
        # CRC catches the flip before any semantic check
        assert run(["--verify-design", str(cache)]) == 4

    def test_bad_design_exits_5(self, tmp_path, capsys):
        good = make_design(DesignVariant.GFP, 11, 8)
        rows = [good.compute_Si(i) for i in range(8)]
        rows[3][0] = rows[3][1]  # duplicate element: |S_3| < t
        bad = LoadedBasicDesign(DesignVariant.GFP, good.t_act, 8, good.d, rows)
        cache = tmp_path / "bad.twd"
        design_save(bad, cache)
        assert run(["--verify-design", str(cache)]) == 5
        assert "row 3" in capsys.readouterr().err
