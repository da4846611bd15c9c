import random

import pytest

from trevex.bitext import LuExtractor, RshExtractor, XorExtractor
from trevex.trevisan import BitBuffer, ExtractionJob
from trevex.weakdesign import DesignVariant, make_design

FAMILIES = ("xor", "rsh", "lu")


def rand_bits(rng: random.Random, bits: int) -> int:
    return (int.from_bytes(rng.randbytes((bits + 7) // 8), "little")
            & ((1 << bits) - 1))


def rand_buf(rng: random.Random, bits: int) -> BitBuffer:
    return BitBuffer(bits, rand_bits(rng, bits))


def value(buf: BitBuffer) -> int:
    """The buffer's bits as an int, LSB-first, read from its bytes."""
    return int.from_bytes(buf.to_bytes(), "little")


def bit(buf: BitBuffer, i: int) -> int:
    """Bit i of the buffer: the per-bit reference, read from its byte."""
    return buf._buf[i >> 3] >> (i & 7) & 1


def xor(a: BitBuffer, b: BitBuffer) -> BitBuffer:
    assert len(a) == len(b)
    return BitBuffer(len(a), value(a) ^ value(b))


def flip(buf: BitBuffer, i: int) -> None:
    """Flip bit i of the buffer in place."""
    buf._buf[i >> 3] ^= 1 << (i & 7)


def buf_from_bits(bits) -> BitBuffer:
    return BitBuffer(len(bits), sum(b << i for i, b in enumerate(bits)))


def ones(buf: BitBuffer) -> int:
    """Number of set bits in the buffer."""
    return value(buf).bit_count()


def field_pow(field, a: int, e: int) -> int:
    """a^e in a BinaryField by square-and-multiply over its mul."""
    res = 1
    while e:
        if e & 1:
            res = field.mul(res, a)
        a = field.mul(a, a)
        e >>= 1
    return res


def rand_extractor(rng: random.Random, family: str, n: int):
    if family == "xor":
        return XorExtractor(n, rng.randrange(1, 8))
    if family == "rsh":
        return RshExtractor(n, rng.choice([2, 4, 8, 16, 32]))
    return LuExtractor(n, rng.randrange(1, 4), rng.randrange(2, 6))


def rand_job(rng: random.Random, family: str, *, n_max: int = 2048,
             m_max: int = 128, workers: int = 1) -> ExtractionJob:
    """Small random extraction job with a compatible design."""
    n = rng.randrange(32, n_max + 1)
    m = rng.randrange(8, m_max + 1)
    extractor = rand_extractor(rng, family, n)
    variant = rng.choice(list(DesignVariant))
    t_req = max(extractor.t_req, 7 if variant.is_block else 2)
    design = make_design(variant, t_req, m)
    return ExtractionJob(input=rand_buf(rng, n), seed=rand_buf(rng, design.d),
                         design=design, extractor=extractor, m=m,
                         workers=workers)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
