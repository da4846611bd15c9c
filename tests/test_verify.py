import random
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from trevex.trevisan import extract_all
from trevex.verify import BudgetExceededError, naive_extract, overlap_check
from trevex.params import InfeasibleParameters
from trevex.weakdesign import (BasicDesign, BlockDesign, DesignVariant,
                               design_load, design_save, make_design)

from conftest import FAMILIES, rand_buf, rand_job


class FakeDesign:
    """Minimal design stub for forcing known overlap sums."""

    def __init__(self, rows, variant=DesignVariant.BLOCK_GFP):
        self.rows = rows
        self.t_act = len(rows[0])
        self.m = len(rows)
        self.d = max(max(r) for r in rows) + 1
        self.variant = variant

    def compute_Si(self, i):
        return list(self.rows[i])


class TestOverlapCheck:
    def test_basic_small_pass(self):
        rep = overlap_check(BasicDesign(2, 6))
        assert rep.passed
        assert rep.bound_num == 543657 * 6 and rep.bound_den == 100000

    def test_block_pass(self):
        rep = overlap_check(BlockDesign(7, 100))
        assert rep.passed
        assert rep.worst_sum <= 100
        assert rep.bound_num == 100 and rep.bound_den == 1

    def test_single_row(self):
        rep = overlap_check(BasicDesign(7, 1))
        assert rep.worst_sum == 0 and rep.passed

    def test_known_violation_detected(self):
        # identical rows give sums 2^t * i, far beyond any bound
        rows = [[0, 1, 2]] * 4
        rep = overlap_check(FakeDesign(rows))
        assert not rep.passed
        assert rep.worst_row == 3
        assert rep.worst_sum == 3 * 2 ** 3

    def test_exact_boundary(self):
        # disjoint rows: row i has sum i, bound m; always passes
        rows = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(5)]
        rep = overlap_check(FakeDesign(rows))
        assert rep.passed
        assert rep.worst_sum == 4

    def test_exact_past_the_old_budget(self):
        # t = 41 and m = 5000 were past the t <= 40, m <= 4096 budget the
        # mask pass needed; the one-pass check has none
        rep = overlap_check(BasicDesign(41, 4))
        assert (rep.worst_row, rep.worst_sum, rep.passed) == (3, 3, True)
        rep = overlap_check(FakeDesign([[0, 1]] * 5000))
        assert (rep.worst_row, rep.worst_sum) == (4999, 4 * 4999)
        assert not rep.passed
        assert rep.error == "row 4999 overlap sum 19996 exceeds the r*m bound"

    def test_first_bad_row_ends_the_check(self):
        rows = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(6)]
        rows[4] = [12, 13, 12]
        rep = overlap_check(FakeDesign(rows))
        assert not rep.passed and rep.worst_row == 4
        assert rep.error == "row 4 has 2 distinct elements, want 3"
        rows[4] = [12, 13, -1]
        rep = overlap_check(FakeDesign(rows))
        assert rep.error == "row 4 outside [0, 18)"
        design = FakeDesign([[0, 1, 2]] * 3)
        design.d = 2  # element 2 lies past d
        assert overlap_check(design).error == "row 0 outside [0, 2)"

    def test_range_rows_allocate_nothing_of_size_d(self):
        """Degree-0 rows are stride-t ranges, checked from their starts: the
        check of t = 1,009, m = 64 (d = 1,018,081) holds less than d bytes,
        where an index of 4 bytes per seed position would hold 4*d."""
        design = BasicDesign(1009, 64)
        tracemalloc.start()
        try:
            rep = overlap_check(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.worst_row, rep.worst_sum, rep.passed) == (63, 63, True)
        assert peak < design.d

    def test_xor_gfp_design_pinned(self):
        """The xor-gfp benchmark workload's design (t_req = 1320,
        m = 1531), checked in full."""
        deadline = time.perf_counter() + 30.0
        rep = overlap_check(make_design(DesignVariant.GFP, 1320, 1531))
        assert rep.passed and rep.worst_sum == 2851
        assert (rep.bound_num, rep.bound_den) == (543657 * 1531, 100000)
        assert time.perf_counter() < deadline, "xor-gfp design check exceeded 30 s"


def _mask_overlap(design) -> tuple[int, int]:
    """(worst_row, worst_sum) restated with one mask per row and every pair
    of rows, the way criterion 01 states the overlap sum."""
    masks, worst = [], (0, 0)
    for i in range(design.m):
        mask = 0
        for e in design.compute_Si(i):
            mask |= 1 << e
        total = sum(1 << (mask & prev).bit_count() for prev in masks)
        if total > worst[1]:
            worst = (i, total)
        masks.append(mask)
    return worst


class TestOverlapAgreesWithMasks:
    def test_random_designs_of_every_variant(self, tmp_path):
        # each design computed and loaded from its cache, where rows below
        # t are ranges and the rest lists, block by block for a block design
        deadline = time.perf_counter() + 60.0
        rnd = random.Random(17)
        path = tmp_path / "design.twd"
        for variant in DesignVariant:
            built = 0
            while built < 10:
                t_req = rnd.randrange(7 if variant.is_block else 2, 33)
                try:
                    design = make_design(variant, t_req, rnd.randrange(1, 601))
                except InfeasibleParameters:
                    continue
                assert design.t_act <= 40
                design_save(design, path)
                for form in (design, design_load(path)):
                    rep = overlap_check(form)
                    assert rep.passed
                    assert (rep.worst_row, rep.worst_sum) == _mask_overlap(form)
                built += 1
        assert time.perf_counter() < deadline, "mask agreement exceeded 60 s"

    def test_range_rows_among_list_rows(self):
        # stride-t ranges after list rows, a list row equal to a range, and
        # a range that meets list rows on both sides: row 2 sums 2 + 2**3
        rows = [[0, 4, 8], range(1, 10, 3), [1, 4, 7], range(0, 9, 3),
                [2, 3, 7]]
        design = FakeDesign(rows)
        design.compute_Si = rows.__getitem__
        rep = overlap_check(design)
        assert (rep.worst_row, rep.worst_sum) == _mask_overlap(design) == (2, 10)

    def test_planted_overlaps(self):
        rnd = random.Random(18)
        for _ in range(40):
            t, m = rnd.randrange(1, 12), rnd.randrange(1, 80)
            d = rnd.randrange(t, 4 * t + 8)
            rows = [rnd.sample(range(d), t) for _ in range(m)]
            for _ in range(rnd.randrange(4)):  # copy one row over a later one
                a = rnd.randrange(m)
                b = rnd.randrange(a, m)
                rows[b] = list(rows[a])
            design = FakeDesign(rows, rnd.choice(list(DesignVariant)))
            rep = overlap_check(design)
            assert (rep.worst_row, rep.worst_sum) == _mask_overlap(design)
            assert rep.passed is (rep.worst_sum * rep.bound_den <= rep.bound_num)


class TestNaiveExtract:
    def test_matches_fast_path(self, rng):
        for family in FAMILIES:
            for _ in range(4):
                job = rand_job(rng, family, n_max=512, m_max=48)
                assert naive_extract(job) == extract_all(job)

    def test_budget_guard(self, rng):
        job = rand_job(rng, "xor", n_max=64, m_max=16)
        job.m = (1 << 12) + 1
        with pytest.raises(BudgetExceededError):
            naive_extract(job)

    def test_unsupported_types_raise_type_error(self, rng):
        """A type the oracle does not model is a TypeError, never mistaken
        for a job beyond its budget."""
        job = rand_job(rng, "xor", n_max=64, m_max=16)
        design, extractor = job.design, job.extractor
        job.design = FakeDesign([[0, 1]] * job.m)
        with pytest.raises(TypeError, match="unsupported design"):
            naive_extract(job)
        job.design = BasicDesign(7, 4)
        job.design.field = object()
        with pytest.raises(TypeError, match="unsupported field"):
            naive_extract(job)
        job.design = design
        job.extractor = SimpleNamespace(t_req=extractor.t_req)
        with pytest.raises(TypeError, match="unsupported extractor"):
            naive_extract(job)
