import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trevex import params
from trevex.bitext import from_params
from trevex.params import (ExtractorParams, InfeasibleParameters, RKind,
                           binary_entropy, binary_entropy_inv, ceil_log2,
                           derive_params, lu_params, max_output_len,
                           rsh_params, solve_w, xor_params)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528,
                                                     abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    def test_inverse_endpoints(self):
        assert binary_entropy_inv(1.0) == 0.5
        assert binary_entropy_inv(0.0) == 0.0

    def test_inverse_reference_value(self):
        assert binary_entropy_inv(0.5) == pytest.approx(0.11002786443836,
                                                        abs=1e-11)

    def test_inverse_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy_inv(-0.5)
        with pytest.raises(ValueError):
            binary_entropy_inv(1.5)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.499999))
    def test_inverse_roundtrip(self, p):
        assert abs(binary_entropy_inv(binary_entropy(p)) - p) < 1e-9


class TestSolveW:
    def test_residual(self):
        w = solve_w(0.5)
        q = 1.0 - 0.5 + w
        assert abs(w * math.log2(w) - q * math.log2(q)) < 1e-12

    def test_bracket_containment(self):
        assert 0.0 < solve_w(0.25) < 0.25

    def test_reference_value(self):
        assert solve_w(0.5) == pytest.approx(0.14690768667020776, abs=1e-11)
        assert solve_w(0.3) == pytest.approx(0.07640588856762759, abs=1e-11)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            solve_w(0.0)
        with pytest.raises(ValueError):
            solve_w(0.6)

    def test_residual_sweep(self, rng):
        for _ in range(1000):
            nu = rng.uniform(0.01, 0.5)
            w = solve_w(nu)
            q = 1.0 - nu + w
            assert abs(w * math.log2(w) - q * math.log2(q)) < 1e-12
            assert 0.0 < w < nu


class TestXorParams:
    def test_reference_values(self):
        p = xor_params(1 << 16, 1 << 10, 0.9, 0.05, 1e-3)
        assert p.gamma == pytest.approx(0.045)
        assert p.ell == 3290
        assert from_params(p).t_req == 52640
        assert p.k == pytest.approx(8584.000247710357, rel=1e-12)
        assert p.feasible

    def test_gamma_one_rejected(self):
        with pytest.raises(InfeasibleParameters):
            xor_params(1 << 16, 16, 1.0, 1.0, 1e-3)

    def test_t_req_is_ell_times_index_width(self):
        p = xor_params(1000, 16, 0.9, 0.3, 1e-2)
        assert from_params(p).t_req == p.ell * ceil_log2(1000)

    def test_break_even_config_feasible(self):
        # Near the break-even regime the derivation itself stays feasible;
        # the seed-surplus sweep lives in the acceptance suite.
        p = xor_params(1 << 30, 10 ** 6, 0.8, 0.05, 1e-7)
        assert p.feasible


class TestRshParams:
    def test_small_block_sizing(self):
        p = rsh_params(1 << 16, 64, 0.5, 2.0 ** -16)
        assert p.ell == 50
        assert from_params(p).t_req == 100

    def test_tiny_instance(self):
        p = rsh_params(2, 1, 0.9, 0.5)
        assert p.ell == 5
        assert from_params(p).t_req == 10

    def test_reference_values(self):
        p = rsh_params(10 ** 6, 1000, 0.5, 1e-7)
        assert p.ell == 69
        assert p.k == pytest.approx(5535.577643574937, rel=1e-12)


class TestLuParams:
    def test_reference_values(self):
        p = lu_params(1 << 20, 16, 0.5, 0.3, 1e-4)
        assert p.c == 11
        assert p.ell == 330
        assert from_params(p).t_req == 11207

    def test_walk_steps_grow_as_nu_shrinks(self):
        steps = []
        for nu in (0.5, 0.3, 0.1):
            p = lu_params(1 << 16, 16, 0.9, nu, 1e-3)
            steps.append(p.c * (p.ell - 1))
        assert steps[0] < steps[1] < steps[2]

    def test_tiny_nu_never_silent(self):
        # Either an explicit error or a finite, huge report; never overflow.
        try:
            p = lu_params(1 << 16, 16, 0.9, 1e-9, 1e-3)
        except InfeasibleParameters:
            return
        assert math.isfinite(p.k)
        assert p.ell >= 1

    def test_domain_error(self):
        with pytest.raises(InfeasibleParameters):
            lu_params(1 << 16, 16, 0.9, 0.7, 1e-3)


class TestExtractorParams:
    def test_defaults(self):
        p = ExtractorParams("rsh", 1024, 8, 0.9, RKind.ONE, 53.5, 32)
        assert p.gamma is None and p.c is None
        assert p == ExtractorParams(family="rsh", n=1024, m=8, alpha=0.9,
                                    r_kind=RKind.ONE, k=53.5, ell=32,
                                    gamma=None, c=None)

    def test_feasible(self):
        p = ExtractorParams("rsh", 1024, 8, 0.5, RKind.ONE, 512.0, 32)
        assert p.feasible  # k = alpha*n is within budget
        p.k = 512.5
        assert not p.feasible
        p.k, p.m = 10.0, 0
        assert not p.feasible

    def test_equality(self):
        p = xor_params(1 << 10, 8, 0.9, 0.5, 1e-3)
        q = xor_params(1 << 10, 8, 0.9, 0.5, 1e-3)
        assert p is not q and p == q
        q.c = 3
        assert p != q
        assert lu_params(1 << 10, 8, 0.9, 0.45, 1e-3) != p
        assert p != (p.family, p.n)
        with pytest.raises(TypeError):
            hash(p)  # mutable, so unhashable

    def test_repr(self):
        p = ExtractorParams("xor", 10, 1, 0.5, RKind.TWO_E, 3.0, 4, gamma=0.25)
        assert repr(p) == ("ExtractorParams(family='xor', n=10, m=1, "
                           "alpha=0.5, r_kind=<RKind.TWO_E: 'two_e'>, k=3.0, "
                           "ell=4, gamma=0.25, c=None)")


class TestKMonotonicity:
    def test_k_monotone_in_m_and_r(self):
        for fam, kw in (("xor", {"mu": 0.3}), ("rsh", {}), ("lu", {"nu": 0.4})):
            prev = None
            for m in (1, 10, 100, 1000):
                k_one = derive_params(fam, 1 << 16, m, 0.9, 1e-3,
                                      RKind.ONE, **kw).k
                k_2e = derive_params(fam, 1 << 16, m, 0.9, 1e-3,
                                     RKind.TWO_E, **kw).k
                assert k_2e >= k_one
                if prev is not None:
                    assert k_2e >= prev
                prev = k_2e


class TestMaxOutputLen:
    def test_exactness(self):
        cases = [
            ("xor", 1 << 16, 0.9, 1e-3, RKind.TWO_E, {"mu": 0.05}),
            ("rsh", 1 << 16, 0.5, 2.0 ** -16, RKind.ONE, {}),
            ("rsh", 12345, 0.7, 1e-5, RKind.TWO_E, {}),
            ("lu", 1 << 16, 0.9, 1e-3, RKind.TWO_E, {"nu": 0.2}),
        ]
        for fam, n, alpha, eps, r_kind, kw in cases:
            m = max_output_len(fam, n, alpha, eps, r_kind, **kw)
            assert m >= 1
            assert derive_params(fam, n, m, alpha, eps, r_kind, **kw).feasible
            assert not derive_params(fam, n, m + 1, alpha, eps, r_kind,
                                     **kw).feasible

    def test_rsh_closed_form(self):
        n, alpha, eps = 1 << 16, 0.5, 2.0 ** -16
        m = max_output_len("rsh", n, alpha, eps, RKind.ONE)
        assert m == math.floor(alpha * n - 4 * math.log2(1 / eps) - 6)

    def test_degenerate_returns_zero(self):
        assert max_output_len("xor", 256, 0.1, 1e-7, RKind.TWO_E, mu=0.9) == 0


class TestDispatch:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            derive_params("nope", 256, 16, 0.9, 1e-3)

    def test_missing_free_parameter(self):
        with pytest.raises(InfeasibleParameters):
            derive_params("xor", 256, 16, 0.9, 1e-3)
        with pytest.raises(InfeasibleParameters):
            derive_params("lu", 256, 16, 0.9, 1e-3)

    def test_r_property(self):
        assert RKind.ONE.real == 1.0
        assert RKind.TWO_E.real == pytest.approx(2.0 * math.e)
