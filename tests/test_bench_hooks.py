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


def test_field_cache_can_be_cleared():
    """The traced run clears ``find_irreducible``'s cache to time a cold
    field construction; the function must stay cached."""
    assert callable(finfield.find_irreducible.cache_clear)


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
    assert (patched.extract(patched.prepare(x), [sub])
            != first.extract(first.prepare(x), [sub]))


def test_basic_design_exposes_what_the_row_mutant_reads():
    design = weakdesign.BasicDesign(7, 8)
    coeffs = design.coefficients(5)
    rows = sorted(x * design.t_act + design.field.poly_eval(coeffs, x)
                  for x in range(design.t_act))
    assert rows == design.compute_Si(5)


def _xor_gfp_job() -> ExtractionJob:
    """A small job of the ``xor-gfp`` shape: a computed gfp design of
    degree 1, whose rows from t on are lists, read through the seed's
    digit view."""
    ext = bitext.XorExtractor(1000, 5)
    design = weakdesign.make_design(weakdesign.DesignVariant.GFP, ext.t_req, 64)
    assert (design.t_act, design.c) == (53, 1)
    assert isinstance(design.compute_Si(63), list)
    rng = random.Random(1531)
    return ExtractionJob(input=rand_buf(rng, 1000),
                         seed=rand_buf(rng, design.d), design=design,
                         extractor=ext, m=64)


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


def _subseeds(job: ExtractionJob) -> list[int]:
    """Every output bit's subseed, in output order."""
    t_req = job.extractor.t_req
    return [trevisan.slice_subseed(job.seed, job.design.compute_Si(i)[:t_req])
            for i in range(job.m)]


def test_one_lu_extract_per_output_bit(monkeypatch):
    """``--trace 1`` times the one-bit extractor by wrapping each
    extractor class's ``extract``, which takes a run of subseeds; every
    output bit's subseed must pass through exactly one such call, in
    output order."""
    runs = []
    extract = bitext.LuExtractor.extract

    def counting(self, prepared, subseeds):
        runs.append(list(subseeds))
        return extract(self, prepared, subseeds)

    monkeypatch.setattr(bitext.LuExtractor, "extract", counting)
    ext = bitext.LuExtractor(4099, 9, 6)
    design = weakdesign.make_design(weakdesign.DesignVariant.GFP, ext.t_req, 40)
    rng = random.Random(509)
    job = ExtractionJob(input=rand_buf(rng, 4099),
                        seed=rand_buf(rng, design.d), design=design,
                        extractor=ext, m=40)
    extract_all(job)
    assert [sub for run in runs for sub in run] == _subseeds(job)


def test_one_rsh_extract_per_output_bit(monkeypatch, tmp_path):
    """``--trace 1`` times the one-bit extractor by wrapping each
    extractor class's ``extract``, and the input's parsing by wrapping
    ``RshExtractor.prepare``; on an ``rsh-block``-shaped job every output
    bit's subseed must pass through exactly one ``extract`` call, in
    output order, after one ``prepare`` per run."""
    calls = {"prepare": 0}
    runs = []
    prepare, extract = bitext.RshExtractor.prepare, bitext.RshExtractor.extract

    def counting_prepare(self, input):
        calls["prepare"] += 1
        return prepare(self, input)

    def counting_extract(self, prepared, subseeds):
        runs.append(list(subseeds))
        return extract(self, prepared, subseeds)

    monkeypatch.setattr(bitext.RshExtractor, "prepare", counting_prepare)
    monkeypatch.setattr(bitext.RshExtractor, "extract", counting_extract)
    job = _degree_zero_job("rsh-block", tmp_path)
    extract_all(job)
    assert calls == {"prepare": 1}
    assert [sub for run in runs for sub in run] == _subseeds(job)


def _degree_zero_job(shape: str, tmp_path) -> ExtractionJob:
    """A small job of the ``lu-cached`` shape (a loaded gfp cache) or the
    ``rsh-block`` shape (a computed block-gfp design), both with m <= t
    basic rows, so every row is a range."""
    rng = random.Random(7)
    if shape == "lu-cached":
        ext = bitext.LuExtractor(4099, 9, 6)
        path = tmp_path / "design.twd"
        weakdesign.design_save(weakdesign.make_design(
            weakdesign.DesignVariant.GFP, ext.t_req, 40), path)
        design = weakdesign.design_load(path)
        assert isinstance(design, weakdesign.LoadedBasicDesign)
    else:
        ext = bitext.RshExtractor(4096, 8)
        design = weakdesign.make_design(weakdesign.DesignVariant.BLOCK_GFP,
                                        ext.t_req, 40)
        assert design.c == 0
    assert all(isinstance(design.compute_Si(i), range) for i in range(40))
    return ExtractionJob(input=rand_buf(rng, ext.n), seed=rand_buf(rng, design.d),
                         design=design, extractor=ext, m=40)


@pytest.mark.parametrize("shape", ["lu-cached", "rsh-block"])
def test_degree_zero_rows_pass_both_hooks(shape, tmp_path):
    """``--trace 1`` wraps every ``compute_Si`` and ``slice_subseed``;
    range rows must still make one call of each per output bit, or
    ``layers.job_layers``, which takes ``min()`` over the row spans, has
    nothing to measure."""
    job = _degree_zero_job(shape, tmp_path)
    mods = SimpleNamespace(bitext=bitext, cli=cli, finfield=finfield,
                           params=params, trevisan=trevisan,
                           weakdesign=weakdesign)
    tracer = layers.Tracer()
    with tracer.patched("job", layers.targets(mods)) as spans:
        out = cli.extract_all(job)
    by_id = spans()
    (run,) = [i for i, s in by_id.items() if s[1] == "trevisan.extract_all"]
    children = [s[1] for s in by_id.values() if s[4] == run]
    assert sum(name.startswith(layers.ROW) for name in children) == job.m
    assert children.count("trevisan.slice_subseed") == job.m
    figures, _ = layers.job_layers(by_id, job.m)
    assert figures["weakdesign.row_us"] > 0
    assert figures["bitext.extract_us"] > 0
    assert out == extract_all(job)
