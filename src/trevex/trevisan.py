"""Composition driver: one weak-design subseed per output bit.

Output bit i is extractor.extract(prepared, subseed_i), where prepared is
extractor.prepare(input) and subseed_i is the seed restricted to S_i, as an
int.  extract_all parses the input once per call and holds the prepared value
only for the length of the call; the extractor keeps nothing, so a later call
sees the input's current contents.  Bits are sharded contiguously across
worker processes.  Each worker receives the job and the prepared input
through the pool initializer (under fork they are inherited, not pickled)
and owns its design row cache; results land in disjoint bit ranges, so the
output is byte-identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass


class InsufficientSeedError(Exception):
    pass


class BitBuffer:
    """Packed bit string.  Global bit g lives at byte g//8, bit position
    g%8, least-significant-bit first; multi-bit reads assemble LSB-first.
    Byte-backed so single-bit access is O(1) even for multi-megabit data.
    Mutable, and therefore unhashable."""

    __slots__ = ("len_bits", "_buf")

    def __init__(self, len_bits: int, value: int = 0):
        if len_bits < 0:
            raise ValueError("negative length")
        self.len_bits = len_bits
        nbytes = (len_bits + 7) // 8
        value &= (1 << len_bits) - 1
        self._buf = bytearray(value.to_bytes(nbytes, "little"))

    @classmethod
    def from_bytes(cls, data: bytes, len_bits: int | None = None) -> "BitBuffer":
        if len_bits is None:
            len_bits = 8 * len(data)
        out = cls(len_bits)
        nbytes = (len_bits + 7) // 8
        out._buf[:len(data[:nbytes])] = data[:nbytes]
        if len_bits % 8 and nbytes:
            out._buf[-1] &= (1 << (len_bits % 8)) - 1
        return out

    def to_bytes(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return self.len_bits

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitBuffer)
                and self.len_bits == other.len_bits
                and self._buf == other._buf)

    def __xor__(self, other: "BitBuffer") -> "BitBuffer":
        if len(other) != self.len_bits:
            raise ValueError("length mismatch")
        out = BitBuffer(self.len_bits)
        out._buf[:] = (int.from_bytes(self._buf, "little")
                       ^ int.from_bytes(other._buf, "little")
                       ).to_bytes(len(self._buf), "little")
        return out

    def set_bit(self, i: int, bit: int) -> None:
        if not 0 <= i < self.len_bits:
            raise IndexError(f"bit {i} outside [0, {self.len_bits})")
        if bit:
            self._buf[i >> 3] |= 1 << (i & 7)
        else:
            self._buf[i >> 3] &= ~(1 << (i & 7)) & 0xFF

    def get_bits(self, start: int, width: int) -> int:
        """Unsigned value of bits [start, start+width), LSB-first.
        Positions at or past the end read as zero."""
        if start < 0 or width < 0:
            raise IndexError("negative slice")
        chunk = int.from_bytes(self._buf[start >> 3:(start + width + 7) >> 3],
                               "little")
        return (chunk >> (start & 7)) & ((1 << width) - 1)


# Maps the bytes 0 and 1 to the ASCII digits "0" and "1".
_ASCII_BITS = bytes.maketrans(b"\0\1", b"01")


def slice_subseed(seed: BitBuffer, indices) -> int:
    """Bits of the seed at the given positions, in order, LSB-first.

    The bits are read straight from the seed's bytes and packed by int()
    from a string of binary digits, last position first."""
    if not indices:
        return 0
    if min(indices) < 0 or max(indices) >= seed.len_bits:
        raise IndexError(f"subseed position outside [0, {seed.len_bits})")
    buf = seed._buf
    bits = bytes([buf[i >> 3] >> (i & 7) & 1 for i in indices])
    return int(bits[::-1].translate(_ASCII_BITS), 2)


@dataclass
class ExtractionJob:
    input: BitBuffer
    seed: BitBuffer
    design: object
    extractor: object
    m: int
    workers: int = 1


def _extract_range(job: ExtractionJob, prepared, lo: int, hi: int) -> int:
    """Bits [lo, hi) of the output, packed LSB-first into an int."""
    design = job.design
    extractor = job.extractor
    seed = job.seed
    t_req = extractor.t_req
    out = 0
    for i in range(lo, hi):
        indices = design.compute_Si(i)
        # Designs may grant more seed than requested; the extractor
        # consumes the prefix of length t_req.
        sub = slice_subseed(seed, indices[:t_req])
        out |= extractor.extract(prepared, sub) << (i - lo)
    return out


# Set by _init_worker in each pool worker process; never in the caller's.
_worker_job: tuple[ExtractionJob, object] | None = None


def _init_worker(job: ExtractionJob, prepared) -> None:
    global _worker_job
    _worker_job = (job, prepared)


def _worker(bounds: tuple[int, int]) -> tuple[int, int]:
    lo, hi = bounds
    return lo, _extract_range(*_worker_job, lo, hi)


def extract_all(job: ExtractionJob) -> BitBuffer:
    if len(job.seed) < job.design.d:
        raise InsufficientSeedError(
            f"seed has {len(job.seed)} bits, design needs {job.design.d}")
    if job.design.t_act < job.extractor.t_req:
        raise ValueError("design grants fewer seed bits than the extractor needs")
    if len(job.input) != job.extractor.n:
        raise ValueError(f"input has {len(job.input)} bits, extractor "
                         f"takes n={job.extractor.n}")
    prepared = job.extractor.prepare(job.input)
    m = job.m
    workers = max(1, job.workers)
    if workers == 1 or m < 2 * workers:
        return BitBuffer(m, _extract_range(job, prepared, 0, m))
    chunk = -(-m // workers)
    bounds = [(lo, min(lo + chunk, m)) for lo in range(0, m, chunk)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers, initializer=_init_worker,
                  initargs=(job, prepared)) as pool:
        parts = pool.map(_worker, bounds)
    value = 0
    for lo, part in parts:
        value |= part << lo
    return BitBuffer(m, value)
