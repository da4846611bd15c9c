import pytest

from trevex import bitext, params
from trevex.bitext import (LU_NEIGHBOR_RULES, LuExtractor, RshExtractor,
                           XorExtractor, from_params)
from trevex.finfield import BinaryField, find_irreducible
from trevex.trevisan import BitBuffer, ExtractionJob, extract_all
from trevex.weakdesign import DesignVariant, make_design

from conftest import FAMILIES, rand_bits, rand_buf, rand_extractor


def buf_from_bits(bits):
    out = BitBuffer(len(bits))
    for i, b in enumerate(bits):
        out.set_bit(i, b)
    return out


class CountingBytes(bytes):
    """A prepared input that counts item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestXor:
    def test_all_zero_input(self, rng):
        ext = XorExtractor(64, 5)
        zero = ext.prepare(BitBuffer(64))
        for _ in range(20):
            assert ext.extract(zero, rand_bits(rng, ext.t_req)) == 0

    def test_hand_parity(self):
        ext = XorExtractor(8, 2)
        x = ext.prepare(buf_from_bits([1, 0, 1, 1, 0, 0, 0, 0]))
        # positions 0 and 2, each as a 3-bit index
        assert ext.extract(x, 0 | (2 << 3)) == 0
        # positions 0 and 1 -> 1 xor 0 = 1
        assert ext.extract(x, 0 | (1 << 3)) == 1

    def test_index_reduced_mod_n(self):
        ext = XorExtractor(5, 1)
        x = ext.prepare(buf_from_bits([1, 0, 0, 0, 0]))
        assert ext.extract(x, 5) == 1  # 5 mod 5 = 0

    def test_linearity(self, rng):
        ext = XorExtractor(128, 4)
        for _ in range(200):
            x1, x2 = rand_buf(rng, 128), rand_buf(rng, 128)
            y = rand_bits(rng, ext.t_req)
            assert ext.extract(ext.prepare(x1 ^ x2), y) == (
                ext.extract(ext.prepare(x1), y)
                ^ ext.extract(ext.prepare(x2), y))

    def test_locality(self, rng):
        ext = XorExtractor(256, 7)
        x = CountingBytes(ext.prepare(rand_buf(rng, 256)))
        ext.extract(x, rand_bits(rng, ext.t_req))
        assert x.reads == 7

    def test_t_req(self):
        assert XorExtractor(1000, 3).t_req == 3 * 10
        assert XorExtractor(1024, 3).t_req == 3 * 10


class TestRsh:
    def test_zero_input(self, rng):
        ext = RshExtractor(64, 8)
        zero = ext.prepare(BitBuffer(64))
        for _ in range(20):
            assert ext.extract(zero, rand_bits(rng, 16)) == 0

    def test_gf4_hand_computation(self):
        ext = RshExtractor(4, 2)
        assert ext.field == BinaryField(2, 0b111)
        x = ext.prepare(buf_from_bits([1, 0, 1, 1]))  # c1 = 1, c2 = x+1
        assert ext.extract(x, 1 | (2 << 2)) == 1      # alpha = 1, beta = x

    def test_alpha_zero_collapses_to_last_block(self, rng):
        ext = RshExtractor(32, 8)
        for _ in range(50):
            x = rand_buf(rng, 32)
            beta = rng.randrange(256)
            sub = 0 | (beta << 8)
            c_last = x.get_bits(24, 8)
            want = (c_last & beta).bit_count() & 1
            assert ext.extract(ext.prepare(x), sub) == want

    def test_horner_vs_power_sum(self, rng):
        for l in (2, 8, 16):
            ext = RshExtractor(6 * l, l)
            f = ext.field
            for _ in range(40):
                x = rand_buf(rng, 6 * l)
                sub = rand_bits(rng, 2 * l)
                alpha = sub & ((1 << l) - 1)
                beta = sub >> l
                acc = 0
                for i in range(ext.s):
                    c = x.get_bits(i * l, l)
                    acc ^= f.mul(c, f.pow(alpha, ext.s - 1 - i))
                want = (acc & beta).bit_count() & 1
                assert ext.extract(ext.prepare(x), sub) == want

    def test_last_block_zero_padded(self):
        ext = RshExtractor(10, 8)
        assert ext.s == 2
        x = buf_from_bits([0] * 8 + [1, 1])
        assert ext.prepare(x)[1] == 0b11

    def test_linearity(self, rng):
        ext = RshExtractor(100, 8)
        for _ in range(200):
            x1, x2 = rand_buf(rng, 100), rand_buf(rng, 100)
            y = rand_bits(rng, 16)
            assert ext.extract(ext.prepare(x1 ^ x2), y) == (
                ext.extract(ext.prepare(x1), y)
                ^ ext.extract(ext.prepare(x2), y))

    def test_block_size_guard(self):
        with pytest.raises(ValueError):
            RshExtractor(100, 65)


@pytest.mark.parametrize("family", FAMILIES)
class TestNoHiddenState:
    """Defect 5a: output bits must depend on the input's current contents,
    never on an earlier call's view of the same buffer object."""

    def _job(self, rng, family):
        ext = rand_extractor(rng, family, 640)
        design = make_design(DesignVariant.GFP, ext.t_req, 64)
        return ExtractionJob(input=rand_buf(rng, 640),
                             seed=rand_buf(rng, design.d), design=design,
                             extractor=ext, m=64)

    def test_prepare_returns_immutable_value(self, rng, family):
        ext = rand_extractor(rng, family, 100)
        x = rand_buf(rng, 100)
        prepared = ext.prepare(x)
        if family == "rsh":
            assert isinstance(prepared, tuple)
            assert prepared == tuple(x.get_bits(i * ext.l, ext.l)
                                     for i in range(ext.s))
        else:
            assert isinstance(prepared, bytes)
            assert prepared == x.to_bytes()
        x.set_bit(0, 1 - x.get_bit(0))
        assert ext.prepare(x) != prepared

    def test_input_zeroed_in_place_after_extract_all(self, rng, family):
        job = self._job(rng, family)
        ext = job.extractor
        assert extract_all(job).ones() > 0
        subs = [rand_bits(rng, ext.t_req) for _ in range(64)]
        job.input._buf[:] = bytes(len(job.input._buf))
        assert [ext.extract(ext.prepare(job.input), y)
                for y in subs] == [0] * 64
        assert extract_all(job).ones() == 0

    def test_input_zeroed_in_place_after_prepare(self, rng, family):
        ext = rand_extractor(rng, family, 640)
        x = rand_buf(rng, 640)
        ext.prepare(x)
        subs = [rand_bits(rng, ext.t_req) for _ in range(64)]
        assert any(ext.extract(ext.prepare(x), y) for y in subs)
        for i in range(len(x)):
            x.set_bit(i, 0)
        assert [ext.extract(ext.prepare(x), y) for y in subs] == [0] * 64

    def test_no_attribute_changes(self, rng, family):
        job = self._job(rng, family)
        ext = job.extractor
        before = dict(vars(ext))
        ext.prepare(job.input)
        ext.extract(ext.prepare(job.input), rand_bits(rng, ext.t_req))
        extract_all(job)
        assert vars(ext) == before


def _mul_horner_bits(field, coeffs, alpha):
    """p_alpha = sum c_i alpha^(s-i) by Horner over BinaryField.mul."""
    r = 0
    for c in coeffs:
        r = field.mul(r, alpha) ^ c
    return r


@pytest.mark.parametrize("l", [1, 2, 3, 7, 8, 9, 16, 31, 50, 63, 64])
def test_table_horner_matches_field_mul(rng, l):
    """Every bit of the table-driven Horner value, read out through unit
    beta vectors, equals the Horner value computed with BinaryField.mul."""
    ext = RshExtractor(7 * l + l // 2 + 1, l)
    field = find_irreducible(l)
    alphas = [0, 1, (1 << l) - 1] + [rng.randrange(1 << l) for _ in range(4)]
    for alpha in alphas:
        for x in (rand_buf(rng, ext.n), BitBuffer(ext.n, (1 << ext.n) - 1)):
            coeffs = ext.prepare(x)
            want = _mul_horner_bits(field, coeffs, alpha)
            got = 0
            for j in range(l):
                got |= ext.extract(coeffs, alpha | (1 << (l + j))) << j
            assert got == want, (l, alpha)


class TestLuNeighborRules:
    def test_rule_table_hand_values(self):
        assert LU_NEIGHBOR_RULES[0](1, 1, 3) == (0, 1)   # x + 2y
        assert LU_NEIGHBOR_RULES[2](0, 0, 3) == (1, 0)   # x + (y + 1)
        assert LU_NEIGHBOR_RULES[4](1, 1, 3) == (1, 0)   # y + 2x
        assert LU_NEIGHBOR_RULES[6](0, 0, 3) == (0, 1)   # y + (2x + 1)

    def test_inverse_pairs(self, rng):
        for _ in range(100):
            v = (rng.randrange(5), rng.randrange(5))
            for e in (0, 2, 4, 6):
                assert LU_NEIGHBOR_RULES[e + 1](
                    *LU_NEIGHBOR_RULES[e](*v, 5), 5) == v

    def test_x_rules_fix_y_and_vice_versa(self, rng):
        for _ in range(50):
            x, y, s = rng.randrange(9), rng.randrange(9), 9
            for e in range(4):
                assert LU_NEIGHBOR_RULES[e](x, y, s)[1] == y
            for e in range(4, 8):
                assert LU_NEIGHBOR_RULES[e](x, y, s)[0] == x


class TestLu:
    def test_zero_input(self, rng):
        ext = LuExtractor(81, 2, 4)
        zero = ext.prepare(BitBuffer(81))
        for _ in range(20):
            assert ext.extract(zero, rand_bits(rng, ext.t_req)) == 0

    def test_beta_zero(self, rng):
        ext = LuExtractor(81, 2, 4)
        beta_off = ext.idx_width + 3 * ext.c * (ext.ell - 1)
        for _ in range(20):
            sub = rand_bits(rng, ext.t_req)
            sub &= ~(((1 << ext.ell) - 1) << beta_off)
            assert ext.extract(ext.prepare(rand_buf(rng, 81)), sub) == 0

    def test_hand_traced_walk(self):
        ext = LuExtractor(9, 1, 2)
        assert ext.side == 3 and ext.idx_width == 4 and ext.t_req == 9
        x = BitBuffer(9)
        x.set_bit(4, 1)  # vertex (1,1)
        x.set_bit(1, 1)  # vertex (0,1)
        # start v=4 -> (1,1); one step with e=0 -> (0,1); beta = (1,1)
        sub = 4 | (0 << 4) | (0b11 << 7)
        assert ext.extract(ext.prepare(x), sub) == 0  # 1 xor 1
        x.set_bit(1, 0)
        assert ext.extract(ext.prepare(x), sub) == 1  # 1 xor 0

    def test_locality(self, rng):
        ext = LuExtractor(49, 2, 5)
        x = CountingBytes(ext.prepare(rand_buf(rng, 49)))
        ext.extract(x, rand_bits(rng, ext.t_req))
        assert x.reads == 5

    def test_linearity(self, rng):
        ext = LuExtractor(100, 2, 4)
        for _ in range(200):
            x1, x2 = rand_buf(rng, 100), rand_buf(rng, 100)
            y = rand_bits(rng, ext.t_req)
            assert ext.extract(ext.prepare(x1 ^ x2), y) == (
                ext.extract(ext.prepare(x1), y)
                ^ ext.extract(ext.prepare(x2), y))

    def test_t_req_formula(self):
        ext = LuExtractor(100, 3, 7)
        assert ext.n_v == 100
        assert ext.t_req == 7 + 3 * 3 * 6 + 7


class TestInterface:
    def test_from_params_dispatch(self):
        p = params.rsh_params(1 << 16, 64, 0.5, 2.0 ** -16)
        ext = from_params(p)
        assert isinstance(ext, RshExtractor)
        assert ext.t_req == 100

    def test_xor_from_params(self):
        p = params.xor_params(1 << 10, 16, 0.9, 0.3, 1e-2)
        ext = from_params(p)
        assert isinstance(ext, XorExtractor)
        assert (ext.n, ext.ell) == (p.n, p.ell)

    def test_lu_from_params(self):
        p = params.lu_params(1 << 10, 16, 0.9, 0.45, 1e-2)
        ext = from_params(p)
        assert isinstance(ext, LuExtractor)
        assert (ext.n, ext.c, ext.ell) == (p.n, p.c, p.ell)

    def test_determinism(self, rng):
        for ext in (XorExtractor(128, 4), RshExtractor(128, 8),
                    LuExtractor(128, 2, 4)):
            x = rand_buf(rng, 128)
            y = rand_bits(rng, ext.t_req)
            assert (ext.extract(ext.prepare(x), y)
                    == ext.extract(ext.prepare(x), y))
