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
