import pytest

from trevex.trevisan import extract_all
from trevex.verify import BudgetExceededError, naive_extract, overlap_check
from trevex.weakdesign import BasicDesign, BlockDesign, DesignVariant

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

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            overlap_check(BasicDesign(41, 4))
        with pytest.raises(BudgetExceededError):
            overlap_check(FakeDesign([[0, 1]] * 5000))


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
