"""Composition driver: one weak-design subseed per output bit.

Output bit i is extractor.extract(prepared, subseed_i), where prepared is
extractor.prepare(input) and subseed_i is the seed restricted to S_i, as an
int.  extract_all parses the input once per call and holds the prepared value
only for the length of the call; the extractor keeps nothing, so a later call
sees the input's current contents.  Beside the input it prepares the seed,
once per call and before any fork: when the design can yield list rows
(weakdesign.yields_lists, degree c >= 1), it builds the seed's digit view
(SeedDigits), one ASCII digit per seed bit, d bytes in all, and
slice_subseed reads each list row from it with one C-level itemgetter.
Range rows are read from the seed's packed bytes by strided slices, and a
degree-0 design builds no view.  Bits are sharded contiguously across
processes: the caller computes the first shard itself, and each other shard
is computed by a child forked from the caller, which inherits the job, the
prepared input and the digit view (nothing is pickled on the way in) and
writes its packed bits back through a pipe.  Each process first moves itself
onto a CPU of its own, without staying pinned there.  Shards land in
disjoint bit ranges, so the output is byte-identical for any worker count;
no job state lives at module level.
"""

from __future__ import annotations

import io
import os
from operator import itemgetter

from .params import Record
from .weakdesign import serves, yields_lists


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
        if value:  # a zero buffer builds no len_bits-bit int
            value &= (1 << len_bits) - 1
        self._buf = bytearray(value.to_bytes(nbytes, "little") if value else nbytes)

    @classmethod
    def from_bytes(cls, data: bytes, len_bits: int | None = None) -> "BitBuffer":
        if len_bits is None:
            len_bits = 8 * len(data)
        out = cls(len_bits)
        out.readinto(io.BytesIO(data))
        return out

    def readinto(self, fh) -> int:
        """Fill the buffer from the binary file fh, in place, and return the
        number of bytes read: fewer than its size at end of file."""
        got = fh.readinto(self._buf)
        if self.len_bits % 8:
            self._buf[-1] &= (1 << (self.len_bits % 8)) - 1
        return got

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
        return BitBuffer(self.len_bits, int.from_bytes(self._buf, "little")
                         ^ int.from_bytes(other._buf, "little"))

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


# _ASCII_BIT[o] maps a byte to the ASCII digit ("0" or "1") of its bit o:
# over the bytes 0..255, bit o runs in alternating blocks of 2**o.
_ASCII_BIT = [(b"0" * (1 << o) + b"1" * (1 << o)) * (128 >> o) for o in range(8)]


class SeedDigits:
    """A seed as one extract_all call reads it when its design can yield
    list rows: the BitBuffer's bytes, shared and not copied, and its digit
    view, one ASCII digit (b"0" or b"1") per bit, len_bits bytes.  Made
    afresh for each call, since a BitBuffer is mutable."""

    __slots__ = ("len_bits", "_buf", "digits")

    def __init__(self, seed: BitBuffer):
        self.len_bits = seed.len_bits
        buf = self._buf = seed._buf
        digits = bytearray(8 * len(buf))
        # 32 KiB of the seed at a time, so that the view is the only
        # allocation of a size near d
        for at in range(0, len(buf), 1 << 15):
            part = buf[at:at + (1 << 15)]
            for o in range(8):
                digits[8 * at + o:8 * (at + len(part)):8] = part.translate(
                    _ASCII_BIT[o])
        del digits[seed.len_bits:]  # the digits of the last byte's padding
        self.digits = digits


def slice_subseed(seed: BitBuffer | SeedDigits, indices) -> int:
    """Bits of the seed at the given positions, in order, LSB-first; a
    position outside [0, len_bits) raises IndexError.

    The bits are read straight from the seed and packed by int() from a
    string of binary digits, last position first.  A range with a positive
    step is read by strided byte slices: its positions j, j+8, j+16, ...
    share one bit offset and lie step bytes apart.  Other positions are
    gathered by one itemgetter from a SeedDigits' digit view, whose own
    IndexError bounds them above, or bit by bit from a BitBuffer."""
    if not indices:
        return 0
    strided = isinstance(indices, range) and indices.step > 0
    if (indices[0] if strided else min(indices)) < 0:
        raise _outside(seed)
    if isinstance(seed, SeedDigits) and not strided:
        try:
            digits = itemgetter(*indices)(seed.digits)
        except IndexError:
            raise _outside(seed) from None
        # itemgetter of one position gives its digit, not a tuple
        return int(bytes(digits)[::-1], 2) if len(indices) > 1 else digits - 48
    if (indices[-1] if strided else max(indices)) >= seed.len_bits:
        raise _outside(seed)
    buf = seed._buf
    if not strided:
        bits = bytes([buf[i >> 3] >> (i & 7) & 1 for i in indices])
        return int(bits[::-1].translate(_ASCII_BIT[0]), 2)
    n, step = len(indices), indices.step
    digits = bytearray(n)
    for j, pos in enumerate(indices[:8]):
        byte, count = pos >> 3, (n - j + 7) >> 3
        digits[j::8] = buf[byte:byte + count * step:step].translate(
            _ASCII_BIT[pos & 7])
    return int(digits[::-1], 2)


def _outside(seed: BitBuffer | SeedDigits) -> IndexError:
    return IndexError(f"subseed position outside [0, {seed.len_bits})")


class ExtractionJob(Record):
    def __init__(self, input: BitBuffer, seed: BitBuffer, design, extractor,
                 m: int, workers: int = 1):
        self.input = input
        self.seed = seed
        self.design = design
        self.extractor = extractor
        self.m = m
        self.workers = workers


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


def _start_on_cpu(cpus: list[int], k: int) -> None:
    """Move the calling process onto cpus[k % len(cpus)], then allow it all
    of cpus again: a fan-out process starts on a CPU of its own, where the
    scheduler tends to leave it, but is not pinned there."""
    if cpus:
        try:
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        finally:
            os.sched_setaffinity(0, cpus)


def _shard_child(job: ExtractionJob, prepared, lo: int, hi: int, pipe,
                 cpus: list[int], k: int) -> None:
    """Body of forked worker k: write to the pipe a zero byte and bits
    [lo, hi) as (hi-lo+7)//8 little-endian bytes, or a one byte and the
    pickled exception that computing them raised; then exit at once, never
    returning into the caller's stack."""
    status = 1
    try:
        r, w = pipe
        os.close(r)
        _start_on_cpu(cpus, k)
        try:
            part = _extract_range(job, prepared, lo, hi)
            payload = b"\0" + part.to_bytes((hi - lo + 7) // 8, "little")
        except BaseException as exc:
            import pickle
            payload = b"\1" + pickle.dumps(exc)
        with open(w, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _read_shard(reader, pid: int, lo: int, hi: int) -> int:
    """The bits a worker wrote by _shard_child; its exception is raised."""
    nbytes = (hi - lo + 7) // 8
    data = reader.read(1 + nbytes)
    if data[:1] == b"\1":
        import pickle
        raise pickle.loads(data[1:] + reader.read())
    if data[:1] != b"\0" or len(data) != 1 + nbytes:
        raise RuntimeError(f"fan-out worker {pid} for bits [{lo}, {hi}) "
                           f"ended without a result")
    return int.from_bytes(data[1:], "little")


def _fan_out(job: ExtractionJob, prepared, bounds) -> int:
    """Bits of every shard in bounds, merged.  Each shard after the first is
    computed by a forked child and sent back through a pipe; the caller
    computes the first meanwhile.  However the call ends, every child is
    reaped (killed first if still running) and every pipe closed."""
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_setaffinity") else [])
    running = {}  # pid -> (pipe reader, lo, hi) of each child not yet read
    try:
        for k, (lo, hi) in enumerate(bounds[1:], 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _shard_child(job, prepared, lo, hi, (r, w), cpus, k)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            running[pid] = (open(r, "rb"), lo, hi)
        _start_on_cpu(cpus, 0)
        value = _extract_range(job, prepared, *bounds[0])
        for pid, (reader, lo, hi) in list(running.items()):
            with reader:
                part = _read_shard(reader, pid, lo, hi)
            # Read in full, so the child is exiting on its own.
            del running[pid]
            os.waitpid(pid, 0)
            value |= part << lo
        return value
    finally:
        for pid, (reader, _, _) in running.items():
            import signal
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def extract_all(job: ExtractionJob) -> BitBuffer:
    if len(job.seed) < job.design.d:
        raise InsufficientSeedError(
            f"seed has {len(job.seed)} bits, design needs {job.design.d}")
    if job.design.t_act < job.extractor.t_req:
        raise ValueError("design grants fewer seed bits than the extractor needs")
    if not serves(job.design, job.m):
        raise ValueError(f"{job.design.variant.name} design of m="
                         f"{job.design.m} rows does not serve m={job.m}")
    if len(job.input) != job.extractor.n:
        raise ValueError(f"input has {len(job.input)} bits, extractor "
                         f"takes n={job.extractor.n}")
    prepared = job.extractor.prepare(job.input)
    # This call's job reads the seed through its digit view, built before
    # the fan-out so that every worker shares it.
    if yields_lists(job.design):
        job = ExtractionJob(job.input, SeedDigits(job.seed), job.design,
                            job.extractor, job.m, job.workers)
    m = job.m
    workers = max(1, job.workers)
    if workers == 1 or m < 2 * workers:
        return BitBuffer(m, _extract_range(job, prepared, 0, m))
    chunk = -(-m // workers)
    bounds = [(lo, min(lo + chunk, m)) for lo in range(0, m, chunk)]
    return BitBuffer(m, _fan_out(job, prepared, bounds))
