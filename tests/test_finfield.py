import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trevex.finfield import (BinaryField, PrimeField, field_for_order,
                             find_irreducible, gf2_irreducible, is_prime,
                             next_prime)
from trevex.weakdesign import BasicDesign

from conftest import field_pow

MERSENNE61 = (1 << 61) - 1

PINNED_MODULI = {
    1: 0x3, 2: 0x7, 3: 0xb, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11b,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201b, 14: 0x4021,
    15: 0x8003, 16: 0x1002b, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001b,
    25: 0x2000009, 26: 0x400001b, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008d,
    33: 0x200000401, 34: 0x400000081, 35: 0x800000005, 36: 0x1000000201,
    37: 0x2000000053, 38: 0x4000000063, 39: 0x8000000011, 40: 0x10000000039,
    41: 0x20000000009, 42: 0x40000000081, 43: 0x80000000059,
    44: 0x100000000021, 45: 0x20000000001b, 46: 0x400000000003,
    47: 0x800000000021, 48: 0x100000000002d, 49: 0x2000000000201,
    50: 0x400000000001d, 51: 0x800000000004b, 52: 0x10000000000009,
    53: 0x20000000000047, 54: 0x40000000000201, 55: 0x80000000000081,
    56: 0x100000000000095, 57: 0x200000000000011, 58: 0x400000000080001,
    59: 0x800000000000095, 60: 0x1000000000000003, 61: 0x2000000000000027,
    62: 0x4000000020000001, 63: 0x8000000000000003, 64: 0x1000000000000001b,
}


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_gf2_irreducible(poly: int) -> bool:
    """Exhaustive factor search, independent of the fast test."""
    l = poly.bit_length() - 1
    for div in range(2, 1 << ((l // 2) + 1)):
        rem = poly
        while rem.bit_length() >= div.bit_length():
            rem ^= div << (rem.bit_length() - div.bit_length())
        if rem == 0:
            return False
    return True


class TestPrimes:
    def test_next_prime_examples(self):
        assert next_prime(2) == 2
        assert next_prime(1700) == 1709
        assert next_prime(100) == 101

    def test_against_trial_division(self):
        for n in range(2, 2000):
            assert is_prime(n) == trial_division_prime(n), n

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            next_prime(MERSENNE61 + 1)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            next_prime(1)


class TestPrimeField:
    def test_not_prime_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(100)

    def test_identity(self, rng):
        f = PrimeField(MERSENNE61)
        for _ in range(100):
            a = rng.randrange(f.p)
            assert f.mul(a, 1) == a

    def test_minus_one_squared(self):
        for p in (5, 101, 1709, MERSENNE61):
            f = PrimeField(p)
            assert f.mul(p - 1, p - 1) == 1

    def test_wide_reference_near_limit(self):
        f = PrimeField(MERSENNE61)
        a, b = (1 << 60) + 1, (1 << 60) + 2
        assert f.mul(a, b) == (a * b) % MERSENNE61

    def test_poly_eval_constant(self, rng):
        f = PrimeField(101)
        for _ in range(20):
            c, x = rng.randrange(101), rng.randrange(101)
            assert f.poly_eval([c], x) == c

    def test_poly_eval_hand(self):
        assert PrimeField(5).poly_eval([1, 1], 3) == 4

    def test_poly_eval_vs_power_sum(self, rng):
        f = PrimeField(1709)
        for _ in range(50):
            coeffs = [rng.randrange(f.p) for _ in range(7)]
            x = rng.randrange(f.p)
            want = sum(c * pow(x, j, f.p) for j, c in enumerate(coeffs)) % f.p
            assert f.poly_eval(coeffs, x) == want

    def test_empty_coeffs(self):
        with pytest.raises(ValueError):
            PrimeField(5).poly_eval([], 1)


class TestFindIrreducible:
    def test_degree_2(self):
        assert find_irreducible(2).poly == 0b111

    def test_degree_3(self):
        assert find_irreducible(3).poly == 0b1011

    def test_degree_8_pentanomial(self):
        # no irreducible degree-8 trinomial exists; cross-check exhaustively
        for a in range(1, 8):
            assert not naive_gf2_irreducible((1 << 8) | (1 << a) | 1)
        poly = find_irreducible(8).poly
        assert bin(poly).count("1") == 5
        assert naive_gf2_irreducible(poly)

    def test_deterministic(self):
        for l in (1, 2, 3, 8, 16, 50, 64):
            assert find_irreducible(l).poly == find_irreducible(l).poly

    def test_independent_irreducibility(self):
        for l in range(1, 17):
            poly = find_irreducible(l).poly
            assert poly.bit_length() == l + 1
            assert naive_gf2_irreducible(poly), bin(poly)

    def test_smallest_trinomial(self):
        for l in (2, 3, 5, 16):
            poly = find_irreducible(l).poly
            for a in range(1, l):
                cand = (1 << l) | (1 << a) | 1
                if cand >= poly:
                    break
                assert not gf2_irreducible(cand)

    def test_pinned_moduli(self):
        # The modulus fixes every RSH output bit; these are the polynomials
        # the search returned when output reproducibility was first pinned.
        got = {l: find_irreducible(l).poly for l in range(1, 65)}
        assert got == PINNED_MODULI

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            find_irreducible(0)
        with pytest.raises(ValueError):
            find_irreducible(65)


class TestBinaryField:
    def test_identity(self, rng):
        f = find_irreducible(16)
        for _ in range(100):
            a = rng.randrange(1 << 16)
            assert f.mul(a, 1) == a

    def test_gf8_hand_product(self):
        f = BinaryField(3, 0b1011)
        assert f.mul(0b110, 0b011) == 0b001

    def test_multiplicative_order(self, rng):
        for l in (3, 8, 16):
            f = find_irreducible(l)
            for _ in range(25):
                a = rng.randrange(1, 1 << l)
                assert field_pow(f, a, (1 << l) - 1) == 1

    def test_axioms(self, rng):
        for l in (3, 8, 16):
            f = find_irreducible(l)
            for _ in range(200):
                a, b, c = (rng.randrange(1 << l) for _ in range(3))
                assert f.mul(a, b) == f.mul(b, a)
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)

    def test_poly_eval_vs_power_sum(self, rng):
        f = find_irreducible(8)
        for _ in range(50):
            coeffs = [rng.randrange(256) for _ in range(5)]
            x = rng.randrange(256)
            want = 0
            for j, c in enumerate(coeffs):
                want ^= f.mul(c, field_pow(f, x, j))
            assert f.poly_eval(coeffs, x) == want

    def test_bad_poly_degree(self):
        with pytest.raises(ValueError):
            BinaryField(3, 0b111)


class TestEvalAll:
    """A design row evaluates its polynomial at every element at once; that
    must equal per-point Horner for degrees 0 to 3."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7, 101, 1709]), data=st.data())
    def test_prime_field_matches_poly_eval(self, p, data):
        f = PrimeField(p)
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                                    max_size=4))
        assert f.eval_all(coeffs) == [f.poly_eval(coeffs, x) for x in range(p)]

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(1, 8), data=st.data())
    def test_binary_field_matches_poly_eval(self, l, data):
        f = find_irreducible(l)
        coeffs = data.draw(st.lists(st.integers(0, f.order - 1), min_size=1,
                                    max_size=4))
        assert f.eval_all(coeffs) == [f.poly_eval(coeffs, x)
                                      for x in range(f.order)]

    def test_empty_coeffs(self):
        for f in (PrimeField(5), find_irreducible(3)):
            with pytest.raises(ValueError):
                f.eval_all([])


class TestFieldForOrder:
    def test_dispatch(self):
        assert isinstance(field_for_order(101), PrimeField)
        assert isinstance(field_for_order(16), BinaryField)

    def test_orders(self):
        for t in (2, 3, 4, 5, 7, 8, 11, 13, 16):
            assert field_for_order(t).order == t

    def test_neither_prime_nor_power_of_two(self):
        for t in (6, 9, 25, 27):
            with pytest.raises(ValueError):
                field_for_order(t)
        with pytest.raises(ValueError):
            BasicDesign(9, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=64))
    def test_small_orders(self, t):
        if trial_division_prime(t) or t & (t - 1) == 0:
            assert field_for_order(t).order == t
        else:
            with pytest.raises(ValueError):
                field_for_order(t)
