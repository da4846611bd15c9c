"""The names the benchmark in ``perfbench/`` patches must stay where it
looks for them; a deleted or moved name would otherwise break its traced
run (``--trace 1``) or its self-test without failing any other test."""

import random
import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import reference  # noqa: E402
import selftest  # noqa: E402
from conftest import rand_buf  # noqa: E402

from trevex import bitext, cli, finfield, params, trevisan, weakdesign  # noqa: E402
from trevex.finfield import BinaryField  # noqa: E402
from trevex.trevisan import BitBuffer, ExtractionJob, extract_all  # noqa: E402


def test_trace_targets_are_own_attributes():
    mods = SimpleNamespace(bitext=bitext, cli=cli, finfield=finfield,
                           params=params, trevisan=trevisan,
                           weakdesign=weakdesign)
    for owner, attr, name in layers.targets(mods):
        assert attr in vars(owner), f"{name}: {owner!r} has no own {attr!r}"


def test_patched_modulus_reaches_new_rsh_extractor(monkeypatch):
    assert bitext.RshExtractor(8, 3).field == BinaryField(3, 0b1011)
    monkeypatch.setattr(bitext, "find_irreducible",
                        lambda l: BinaryField(l, 0b1101))
    assert bitext.RshExtractor(8, 3).field == BinaryField(3, 0b1101)


def test_patched_modulus_changes_rsh_output_bit(monkeypatch):
    """The self-test's modulus fault must reach the multiply itself, not
    only the ``field`` attribute: the second irreducible of degree 50 gives
    a different bit for this fixed (input, subseed)."""
    rng = random.Random(50)
    x = BitBuffer.from_bytes(rng.randbytes(8192))
    sub = int.from_bytes(rng.randbytes(13), "little") & ((1 << 100) - 1)
    first = bitext.RshExtractor(len(x), 50)
    second = next(islice(reference.irreducibles(50), 1, None))
    monkeypatch.setattr(bitext, "find_irreducible",
                        lambda l: BinaryField(l, second))
    patched = bitext.RshExtractor(len(x), 50)
    assert patched.field.poly == second != first.field.poly
    assert (patched.extract(patched.prepare(x), sub)
            != first.extract(first.prepare(x), sub))


def test_basic_design_exposes_what_the_row_mutant_reads():
    design = weakdesign.BasicDesign(7, 8)
    coeffs = design.coefficients(5)
    rows = sorted(x * design.t_act + design.field.poly_eval(coeffs, x)
                  for x in range(design.t_act))
    assert rows == design.compute_Si(5)


def _xor_gfp_job() -> ExtractionJob:
    ext = bitext.XorExtractor(1000, 5)
    design = weakdesign.make_design(weakdesign.DesignVariant.GFP, ext.t_req, 40)
    rng = random.Random(1531)
    return ExtractionJob(input=rand_buf(rng, 1000),
                         seed=rand_buf(rng, design.d), design=design,
                         extractor=ext, m=40)


def test_selftest_transposed_rows_reach_xor_gfp_output(monkeypatch):
    """The self-test's "transposed" fault, planted by running its launcher
    with ``cli.main`` stubbed out, must change extraction's output: rows
    are still built by ``BasicDesign.compute_Si`` on the hot path."""
    job = _xor_gfp_job()
    clean = extract_all(job).to_bytes()
    # registers the original for restoring once the test ends
    monkeypatch.setattr(weakdesign.BasicDesign, "compute_Si",
                        weakdesign.BasicDesign.compute_Si)
    monkeypatch.setattr(sys, "argv", ["-c", "transposed"])
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    with pytest.raises(SystemExit):
        exec(selftest.MUTANT, {})
    assert extract_all(job).to_bytes() != clean


def test_one_gather_per_output_bit(monkeypatch):
    """``--trace 1`` times the gather by wrapping ``trevisan.slice_subseed``;
    every output bit must pass through it once."""
    calls = []
    gather = trevisan.slice_subseed

    def counting(seed, indices):
        calls.append(len(indices))
        return gather(seed, indices)

    monkeypatch.setattr(trevisan, "slice_subseed", counting)
    job = _xor_gfp_job()
    extract_all(job)
    assert len(calls) == job.m
