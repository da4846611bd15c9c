import math
import time
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trevex import bitext, params
from trevex.bitext import LuExtractor, RshExtractor, XorExtractor, from_params
from trevex.finfield import BinaryField, find_irreducible
from trevex.trevisan import BitBuffer, ExtractionJob, extract_all
from trevex.verify import LU_NEIGHBOR_RULES, naive_extract
from trevex.weakdesign import DesignVariant, make_design

from conftest import (FAMILIES, bit, buf_from_bits, field_pow, flip, ones,
                      rand_bits, rand_buf, rand_extractor, value, xor)


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
            assert ext.extract(zero, [rand_bits(rng, ext.t_req)]) == 0

    def test_hand_parity(self):
        ext = XorExtractor(8, 2)
        x = ext.prepare(buf_from_bits([1, 0, 1, 1, 0, 0, 0, 0]))
        # positions 0 and 2, each as a 3-bit index
        assert ext.extract(x, [0 | (2 << 3)]) == 0
        # positions 0 and 1 -> 1 xor 0 = 1
        assert ext.extract(x, [0 | (1 << 3)]) == 1

    def test_index_reduced_mod_n(self):
        ext = XorExtractor(5, 1)
        x = ext.prepare(buf_from_bits([1, 0, 0, 0, 0]))
        assert ext.extract(x, [5]) == 1  # 5 mod 5 = 0

    def test_linearity(self, rng):
        ext = XorExtractor(128, 4)
        for _ in range(200):
            x1, x2 = rand_buf(rng, 128), rand_buf(rng, 128)
            y = rand_bits(rng, ext.t_req)
            assert ext.extract(ext.prepare(xor(x1, x2)), [y]) == (
                ext.extract(ext.prepare(x1), [y])
                ^ ext.extract(ext.prepare(x2), [y]))

    def test_locality(self, rng):
        ext = XorExtractor(256, 7)
        x = CountingBytes(ext.prepare(rand_buf(rng, 256)))
        ext.extract(x, [rand_bits(rng, ext.t_req)])
        assert x.reads == 7

    def test_t_req(self):
        assert XorExtractor(1000, 3).t_req == 3 * 10
        assert XorExtractor(1024, 3).t_req == 3 * 10


class TestRsh:
    def test_zero_input(self, rng):
        ext = RshExtractor(64, 8)
        zero = ext.prepare(BitBuffer(64))
        for _ in range(20):
            assert ext.extract(zero, [rand_bits(rng, 16)]) == 0

    def test_gf4_hand_computation(self):
        ext = RshExtractor(4, 2)
        assert ext.field == BinaryField(2, 0b111)
        x = ext.prepare(buf_from_bits([1, 0, 1, 1]))  # c1 = 1, c2 = x+1
        assert ext.extract(x, [1 | (2 << 2)]) == 1      # alpha = 1, beta = x

    def test_alpha_zero_collapses_to_last_block(self, rng):
        ext = RshExtractor(32, 8)
        for _ in range(50):
            x = rand_buf(rng, 32)
            beta = rng.randrange(256)
            sub = 0 | (beta << 8)
            c_last = value(x) >> 24
            want = (c_last & beta).bit_count() & 1
            assert ext.extract(ext.prepare(x), [sub]) == want

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
                    c = value(x) >> i * l & (1 << l) - 1
                    acc ^= f.mul(c, field_pow(f, alpha, ext.s - 1 - i))
                want = (acc & beta).bit_count() & 1
                assert ext.extract(ext.prepare(x), [sub]) == want

    def test_last_block_zero_padded(self):
        ext = RshExtractor(10, 8)
        assert ext.s == 2
        x = buf_from_bits([0] * 8 + [1, 1])
        assert ext.coefficients(x)[1] == 0b11
        # bits past the s blocks are not read
        longer = buf_from_bits([0] * 8 + [1, 1] + [0] * 7 + [1])
        assert ext.coefficients(longer) == (0, 0b11)

    def test_linearity(self, rng):
        ext = RshExtractor(100, 8)
        for _ in range(200):
            x1, x2 = rand_buf(rng, 100), rand_buf(rng, 100)
            y = rand_bits(rng, 16)
            assert ext.extract(ext.prepare(xor(x1, x2)), [y]) == (
                ext.extract(ext.prepare(x1), [y])
                ^ ext.extract(ext.prepare(x2), [y]))

    def test_block_size_guard(self):
        with pytest.raises(ValueError):
            RshExtractor(100, 65)

    def test_slot_masks_build_in_linear_time(self):
        # n = 10**11, l = 52: G = 43,853 slots of W = 104 bits, where a
        # sum of G shifted slot masks took about 10 s
        start = time.perf_counter()
        RshExtractor(10**11, 52)
        assert time.perf_counter() - start < 2.0


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
            assert all(isinstance(column, tuple) for column in prepared)
            l = ext.l
            assert ext.coefficients(x) == tuple(value(x) >> i * l & (1 << l) - 1
                                                for i in range(ext.s))
        else:
            assert isinstance(prepared, bytes)
            assert prepared == x.to_bytes()
        flip(x, 0)
        assert ext.prepare(x) != prepared

    def test_input_zeroed_in_place_after_extract_all(self, rng, family):
        job = self._job(rng, family)
        ext = job.extractor
        assert ones(extract_all(job)) > 0
        subs = [rand_bits(rng, ext.t_req) for _ in range(64)]
        job.input._buf[:] = bytes(len(job.input._buf))
        assert [ext.extract(ext.prepare(job.input), [y])
                for y in subs] == [0] * 64
        assert ones(extract_all(job)) == 0

    def test_input_zeroed_in_place_after_prepare(self, rng, family):
        ext = rand_extractor(rng, family, 640)
        x = rand_buf(rng, 640)
        ext.prepare(x)
        subs = [rand_bits(rng, ext.t_req) for _ in range(64)]
        assert any(ext.extract(ext.prepare(x), [y]) for y in subs)
        x._buf[:] = bytes(len(x._buf))
        assert [ext.extract(ext.prepare(x), [y]) for y in subs] == [0] * 64

    def test_no_attribute_changes(self, rng, family):
        job = self._job(rng, family)
        ext = job.extractor
        before = dict(vars(ext))
        ext.prepare(job.input)
        ext.extract(ext.prepare(job.input), [rand_bits(rng, ext.t_req)])
        extract_all(job)
        assert vars(ext) == before


def _mul_horner_bits(field, coeffs, alpha):
    """p_alpha = sum c_i alpha^(s-i) by Horner over BinaryField.mul."""
    r = 0
    for c in coeffs:
        r = field.mul(r, alpha) ^ c
    return r


def _read_out(ext, prepared, alpha):
    """The field value p(alpha) behind ``extract``, read bit by bit through
    unit beta vectors."""
    return sum(ext.extract(prepared, [alpha | 1 << ext.l + j]) << j
               for j in range(ext.l))


def _job_with_subseeds(rng, ext, x, subs) -> ExtractionJob:
    """A job whose output bit i is ext's bit for subseed subs[i]: a degree-0
    gfp design has disjoint rows, so the seed can spell out each subseed."""
    m = len(subs)
    design = make_design(DesignVariant.GFP, max(ext.t_req, m), m)
    rows = [design.compute_Si(i)[:ext.t_req] for i in range(m)]
    assert len({pos for row in rows for pos in row}) == m * ext.t_req
    seed = value(rand_buf(rng, design.d))
    for row, sub in zip(rows, subs):
        for j, pos in enumerate(row):
            seed = seed & ~(1 << pos) | (sub >> j & 1) << pos
    seed = BitBuffer(design.d, seed)
    return ExtractionJob(input=x, seed=seed, design=design, extractor=ext, m=m)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 50, 63, 64])
def test_table_horner_matches_field_mul(rng, l):
    """Every bit of the value ``extract`` evaluates, read out through unit
    beta vectors, equals the Horner value computed with BinaryField.mul,
    and its bit for a random beta equals ``verify.naive_extract``'s.  The
    sizes are s = 8 and s = 0, 1, 2, k^2 - 1, k^2, k^2 + 1, around the
    squares, where B*G - s, the number of the B = ceil(sqrt(s)) packed
    columns whose top slot stays empty, runs from 0 to B - 1."""
    field = find_irreducible(l)
    sizes = [7 * l + l // 2 + 1] + [max(0, s * l - l // 2)
                                    for s in (0, 1, 2, 15, 16, 17, 24, 25, 26)]
    for n in sizes:
        ext = RshExtractor(n, l)
        alphas = [0, 1, (1 << l) - 1] + [rng.randrange(1 << l) for _ in range(4)]
        for x in (rand_buf(rng, n), BitBuffer(n, (1 << n) - 1)):
            prepared, coeffs = ext.prepare(x), ext.coefficients(x)
            subs = []
            for alpha in alphas:
                want = _mul_horner_bits(field, coeffs, alpha)
                assert _read_out(ext, prepared, alpha) == want, (l, n, alpha)
                subs.append(alpha | rng.randrange(1 << l) << l)
            out = naive_extract(_job_with_subseeds(rng, ext, x, subs))
            assert [bit(out, i) for i in range(len(subs))] == [
                ext.extract(prepared, [sub]) for sub in subs], (l, n)


def test_rsh_block_geometry_matches_horner(rng):
    """At the ``rsh-block`` geometry (n = 2^16, l = 50: s = 1,311, B = 37,
    G = 36), 60 random subseeds give the BinaryField.mul Horner's bit,
    and two of them its every bit."""
    ext = RshExtractor(1 << 16, 50)
    assert (ext.s, ext._baby, ext._giant) == (1311, 37, 36)
    x = rand_buf(rng, ext.n)
    prepared, coeffs = ext.prepare(x), ext.coefficients(x)
    for i in range(60):
        sub = rand_bits(rng, ext.t_req)
        want = _mul_horner_bits(ext.field, coeffs, sub & (1 << 50) - 1)
        assert (ext.extract(prepared, [sub])
                == (want & sub >> 50).bit_count() & 1)
        if i < 2:
            assert _read_out(ext, prepared, sub & (1 << 50) - 1) == want


def test_rsh_prepared_input_under_one_mib(rng):
    """The prepared value at n = 2^16, l = 50 (B = 37 columns of 16
    multiples, about 0.3 MB) stays under 1 MiB; 256 multiples per column
    would take 4.9 MB, enough to raise the CLI's peak RSS."""
    ext = RshExtractor(1 << 16, 50)
    x = rand_buf(rng, ext.n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prepared = ext.prepare(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(prepared) == 37
    assert held < 1 << 20, held


class TestLuNeighborRules:
    def test_rule_table_hand_values(self):
        assert LU_NEIGHBOR_RULES[0](1, 1, 3) == (0, 1)   # x + 2y
        assert LU_NEIGHBOR_RULES[2](0, 0, 3) == (1, 0)   # x + (y + 1)
        assert LU_NEIGHBOR_RULES[4](1, 1, 3) == (1, 0)   # y + 2x
        assert LU_NEIGHBOR_RULES[6](0, 0, 3) == (0, 1)   # y + (2x + 1)

    def test_rule_table_off_the_axes(self):
        # At (0, 0) rules 2 and 3 cannot tell x + y + 1 from x + 2y + 1.
        images = [rule(2, 3, 11) for rule in LU_NEIGHBOR_RULES]
        assert images == [(8, 3), (7, 3), (6, 3), (9, 3),
                          (2, 7), (2, 10), (2, 8), (2, 9)]

    @pytest.mark.parametrize("side", [4, 8, 16, 32])
    def test_walk_second_eigenvalue_within_lambda0(self, side, rng):
        """Power iteration of the walk operator A/8 on vectors orthogonal to
        the constants.  A is symmetric (the rules come in inverse pairs), so
        the Rayleigh quotient converges to the eigenvalue of largest modulus
        there; lu_params sizes the walk from the bound LAMBDA0 on it."""
        n = side * side
        perms = [[x * side + y for x, y in (rule(v // side, v % side, side)
                                            for v in range(n))]
                 for rule in LU_NEIGHBOR_RULES]
        f = [rng.random() for _ in range(n)]
        quotients = [2.0]
        for _ in range(2000):
            mean = sum(f) / n
            f = [a - mean for a in f]
            g = [sum(f[p[v]] for p in perms) / 8 for v in range(n)]
            quotients.append(sum(a * b for a, b in zip(f, g))
                             / sum(a * a for a in f))
            if abs(quotients[-1] - quotients[-2]) < 1e-10:
                break
            norm = math.sqrt(sum(b * b for b in g))
            f = [b / norm for b in g]
        assert abs(quotients[-1] - quotients[-2]) < 1e-10, quotients[-3:]
        assert abs(quotients[-1]) <= params.LAMBDA0

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
            assert ext.extract(zero, [rand_bits(rng, ext.t_req)]) == 0

    def test_beta_zero(self, rng):
        ext = LuExtractor(81, 2, 4)
        beta_off = ext.idx_width + 3 * ext.c * (ext.ell - 1)
        for _ in range(20):
            sub = rand_bits(rng, ext.t_req)
            sub &= ~(((1 << ext.ell) - 1) << beta_off)
            assert ext.extract(ext.prepare(rand_buf(rng, 81)), [sub]) == 0

    def test_hand_traced_walk(self):
        ext = LuExtractor(9, 1, 2)
        assert ext.side == 3 and ext.idx_width == 4 and ext.t_req == 9
        x = BitBuffer(9, 1 << 4 | 1 << 1)  # vertices (1,1) and (0,1)
        # start v=4 -> (1,1); one step with e=0 -> (0,1); beta = (1,1)
        sub = 4 | (0 << 4) | (0b11 << 7)
        assert ext.extract(ext.prepare(x), [sub]) == 0  # 1 xor 1
        flip(x, 1)
        assert ext.extract(ext.prepare(x), [sub]) == 1  # 1 xor 0

    def test_locality(self, rng):
        for c in (2, 9):  # c = 9 walks 9 steps between reads
            ext = LuExtractor(49, c, 5)
            x = CountingBytes(ext.prepare(rand_buf(rng, 49)))
            ext.extract(x, [rand_bits(rng, ext.t_req)])
            assert x.reads == 5

    def test_linearity(self, rng):
        ext = LuExtractor(100, 2, 4)
        for _ in range(200):
            x1, x2 = rand_buf(rng, 100), rand_buf(rng, 100)
            y = rand_bits(rng, ext.t_req)
            assert ext.extract(ext.prepare(xor(x1, x2)), [y]) == (
                ext.extract(ext.prepare(x1), [y])
                ^ ext.extract(ext.prepare(x2), [y]))

    def test_t_req_formula(self):
        ext = LuExtractor(100, 3, 7)
        assert ext.n_v == 100
        assert ext.t_req == 7 + 3 * 3 * 6 + 7

    def test_bit_tables_match_their_definition(self):
        """The hash planes' tables: byte b to its bit o moved to bit 7."""
        assert len(bitext._TOP_BIT) == 8
        for o, table in enumerate(bitext._TOP_BIT):
            assert table == bytes((b >> o & 1) << 7 for b in range(256))


def _stepped_walk(x, y, walk, steps, side):
    """(x, y) after the given number of single steps by LU_NEIGHBOR_RULES,
    3 walk bits per step, lowest first."""
    for _ in range(steps):
        x, y = LU_NEIGHBOR_RULES[walk & 7](x, y, side)
        walk >>= 3
    return x, y


class TestLuComposedWalk:
    """The lane walk ends where single steps by LU_NEIGHBOR_RULES end,
    for c from 1 to 10, on sides that are powers of two (n = 1,000) and
    sides that are not, one of them a perfect square (n = 2,401)."""

    @pytest.mark.parametrize("c", range(1, 11))
    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([1000, 4099, 65537, 2401]),
           ell=st.integers(2, 4), data=st.data())
    def test_matches_single_steps(self, c, n, ell, data):
        ext = LuExtractor(n, c, ell)
        side = ext.side
        x = data.draw(st.integers(0, side - 1))
        y = data.draw(st.integers(0, side - 1))
        steps = c * (ell - 1)
        walk = data.draw(st.integers(0, (1 << 3 * steps) - 1))
        end_x, end_y = _stepped_walk(x, y, walk, steps, side)
        end = end_x * side + end_y
        # The hash string selects the last vertex alone, so the output bit
        # is the input bit at the walk's end.
        sub = ((x * side + y) | walk << ext.idx_width
               | 1 << ext.idx_width + 3 * steps + ell - 1)
        only_end = BitBuffer(n, 1 << end)  # zero when end >= n
        all_but_end = BitBuffer(n, (1 << n) - 1 & ~(1 << end))
        assert ext.extract(ext.prepare(only_end), [sub]) == (end < n)
        assert ext.extract(ext.prepare(all_but_end), [sub]) == 0


def _lanes_of(value: int, width: int, count: int) -> list[int]:
    return [value >> width * i & (1 << width) - 1 for i in range(count)]


def _vertices(lanes, u: int, v: int, moved_y: int) -> list[tuple[int, int]]:
    """Each lane's (x, y) from a walk state of _Lanes.walk: u and v are
    swapped in the lanes whose last step moved y."""
    swap = (u ^ v) & moved_y
    return list(zip(_lanes_of(u ^ swap, lanes.width, lanes.count),
                    _lanes_of(v ^ swap, lanes.width, lanes.count)))


class TestLuLanes:
    """The lane walk on its own: one step and runs of steps of many walks
    at once, the lane width, the step codes and the memory of one run."""

    @pytest.mark.parametrize("side", [2, 3, 1001, 1024, 1449, 1 << 15,
                                      (1 << 15) + 1])
    def test_step_matches_rules_for_every_code(self, side, rng):
        """Lane i moves as LU_NEIGHBOR_RULES[code] moves its vertex, for
        every code, at the corners and at random vertices, with the code
        lanes' bits above bit 2 set at random.  Powers of two up to 2^14
        reduce by a mask, other sides by a conditional subtraction;
        side = 2^15 is the widest of 16-bit lanes and 2^15 + 1 takes
        32-bit ones."""
        top = side - 1
        points = [(0, 0), (0, top), (top, 0), (top, top)] + [
            (rng.randrange(side), rng.randrange(side)) for _ in range(12)]
        walks = [(code, x, y) for code in range(8) for x, y in points]
        lanes = bitext._Lanes(side, len(walks))
        width = lanes.width
        assert width == (16 if side <= 1 << 15 else 32)
        assert bool(lanes.low) == (side in (2, 1024))
        junk = [rng.randrange(1 << width - 3) << 3 for _ in walks]
        state = lanes.walk(lanes.pack([x for _, x, _ in walks]),
                           lanes.pack([y for _, _, y in walks]), 0,
                           [lanes.pack([code | j for (code, _, _), j
                                        in zip(walks, junk)])])
        assert _vertices(lanes, *state) == [
            LU_NEIGHBOR_RULES[code](x, y, side) for code, x, y in walks]

    @pytest.mark.parametrize("side", [1024, 1001, (1 << 15) + 1])
    def test_walk_matches_single_steps_lane_by_lane(self, side, rng):
        """Many lanes walk c = 4 steps per call, twice, from the step codes
        of their subseeds, and each lane ends where _stepped_walk ends after
        c and 2c steps.  Lanes switch their moving coordinate from x to y,
        or from y to x, at each step from 1 to 2c - 1, or never, and 30
        others draw their codes at random; the state carries over between
        the calls."""
        c = 4
        steps = 2 * c
        walks = []
        for k in range(steps + 1):
            for y_first in (0, 4):
                b2 = [y_first ^ 4 * (i >= k) for i in range(steps)]
                walks.append(sum((b | rng.randrange(4)) << 3 * i
                                 for i, b in enumerate(b2)))
        walks += [rng.getrandbits(3 * steps) for _ in range(30)]
        starts = [(rng.randrange(side), rng.randrange(side)) for _ in walks]
        lanes = bitext._Lanes(side, len(walks))
        codes = lanes.step_codes(walks, 0, steps)
        state = (lanes.pack([x for x, _ in starts]),
                 lanes.pack([y for _, y in starts]), 0)
        for taken in (c, steps):
            state = lanes.walk(*state, islice(codes, c))
            assert _vertices(lanes, *state) == [
                _stepped_walk(x, y, walk, taken, side)
                for (x, y), walk in zip(starts, walks)], taken

    def test_lane_width_from_side(self):
        widths = [bitext._Lanes(s, 3).width
                  for s in (1, 2, 1 << 15, (1 << 15) + 1, 1 << 31)]
        assert widths == [16, 16, 16, 32, 32]

    @pytest.mark.parametrize("side", [1024, (1 << 15) + 1])
    def test_step_codes_for_every_run_length(self, side, rng):
        """Step k of walk i, bits lo + 3k to lo + 3k + 2 of its subseed, in
        16-bit and 32-bit lanes, for every run of 1 to 17 steps, so that
        the last step falls at each place of the two windows of 8 steps,
        and for a long run of 1,037 steps; the subseeds carry bits past the
        last step."""
        lo = 11
        for steps in [*range(1, 18), 1037]:
            walks = [rng.getrandbits(lo + 3 * steps + 40) for _ in range(5)]
            lanes = bitext._Lanes(side, len(walks))
            codes = list(islice(lanes.step_codes(walks, lo, steps), steps))
            assert len(codes) == steps
            for k, code in enumerate(codes):
                assert [v & 7 for v in _lanes_of(code, lanes.width, 5)] == [
                    s >> lo + 3 * k & 7 for s in walks], (steps, k)

    def test_run_at_the_lu_cached_geometry_under_768_kib(self, rng):
        """One ``extract`` of 256 walks at n = 2^20 (c = 9, ell = 168)
        allocates under 768 KiB at its peak: less than a digit view of the
        input (1 MiB), and near the 141 KiB of the run's packed step codes
        (564 bytes a walk)."""
        ext = LuExtractor(1 << 20, 9, 168)
        prepared = ext.prepare(rand_buf(rng, ext.n))
        subs = [rand_bits(rng, ext.t_req) for _ in range(256)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ext.extract(prepared, subs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 768 << 10, peak


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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_empty_run_is_zero(self, rng, family):
        ext = rand_extractor(rng, family, 64)
        assert ext.extract(ext.prepare(rand_buf(rng, 64)), []) == 0

    def test_determinism(self, rng):
        for ext in (XorExtractor(128, 4), RshExtractor(128, 8),
                    LuExtractor(128, 2, 4)):
            x = rand_buf(rng, 128)
            y = rand_bits(rng, ext.t_req)
            assert (ext.extract(ext.prepare(x), [y])
                    == ext.extract(ext.prepare(x), [y]))
