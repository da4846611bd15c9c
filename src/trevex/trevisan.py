"""Composition driver: one weak-design subseed per output bit.

Output bit i is the extractor's bit for subseed_i, the seed restricted to
S_i, as an int.  _extract_range computes the row and the subseed of each
bit, one compute_Si and one slice_subseed call per bit, and hands the
extractor runs of at most RUN subseeds: bit k of
extractor.extract(prepared, subseeds) is the bit of subseeds[k], where
prepared is extractor.prepare(input).  extract_all parses the input once
per call and holds the prepared value only for the length of the call; the
extractor keeps nothing, so a later call sees the input's current contents.
Beside the input it prepares the seed, once per call and before any fork,
as a SeedView.  Range rows are read as packed bits: for each of a row's
first 8 positions j, one strided slice of the seed's bytes, read as an
int, is a column that holds subseed bits j, j+8, ... at one bit offset,
and is shifted and masked into place.  Rows a, ..., a+7 share most of
their columns, so the view keeps the last column read for each j, at most
8 in all, and a run of consecutive rows reads each column about once per
8 rows.  When the design can yield list rows (its degree design.c >= 1),
the view also holds the seed's digit view, one ASCII digit per seed bit,
d bytes in all, and slice_subseed reads each list row from it with one
C-level itemgetter; a degree-0 design, whose rows are all ranges, builds
no digit view.  slice_subseed has these two paths and no third: a list
row over a packed BitBuffer raises TypeError.  Bits are sharded
contiguously across processes: the caller computes the first shard itself,
and each other shard is computed by a child forked from the caller, which
inherits the job, the prepared input and the view (nothing is pickled on
the way in), fills its own copy of the view's columns, and writes its
packed bits back through a pipe.
Each process first moves itself onto a CPU of its own, without staying
pinned there.  Shards land in disjoint bit ranges, so the output is
byte-identical for any worker count; no job state lives at module level.
"""

from __future__ import annotations

import io
import os
from operator import itemgetter

from .params import Record
from .weakdesign import serves


class InsufficientSeedError(Exception):
    pass


class BitBuffer:
    """Packed bit string.  Global bit g lives at byte g//8, bit position
    g%8, least-significant-bit first, as to_bytes() returns them; value,
    in the constructor, is read LSB-first.  Its bytes are filled whole, by
    from_bytes or readinto, and read by slice_subseed and the extractors'
    prepare.  Mutable, and therefore unhashable."""

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
        """The first len_bits bits of data (all of it by default); data
        shorter than len_bits raises ValueError."""
        if len_bits is None:
            len_bits = 8 * len(data)
        out = cls(len_bits)
        if out.readinto(io.BytesIO(data)) < len(out._buf):
            raise ValueError(f"{len(data)} bytes hold fewer than {len_bits} bits")
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


# _ASCII_BIT[o] maps a byte to the ASCII digit ("0" or "1") of its bit o:
# over the bytes 0..255, bit o runs in alternating blocks of 2**o.
_ASCII_BIT = [(b"0" * (1 << o) + b"1" * (1 << o)) * (128 >> o) for o in range(8)]


def _digit_view(seed: BitBuffer) -> bytearray:
    """One ASCII digit (b"0" or b"1") per seed bit, len_bits bytes."""
    buf = seed._buf
    digits = bytearray(8 * len(buf))
    # 32 KiB of the seed at a time, so that the view is the only
    # allocation of a size near d
    for at in range(0, len(buf), 1 << 15):
        part = buf[at:at + (1 << 15)]
        for o in range(8):
            digits[8 * at + o:8 * (at + len(part)):8] = part.translate(
                _ASCII_BIT[o])
    del digits[seed.len_bits:]  # the digits of the last byte's padding
    return digits


def _cursor(step: int, n: int) -> tuple:
    """A cursor of range-row columns, for rows of n positions step apart:
    (step, n, masks, columns).  masks[j], for each j < min(8, n), has bit
    j of each of the (n - j + 7) // 8 bytes of column j set; columns[j]
    is (start byte, column) of the last column read for position j, or
    (-1, 0) before the first."""
    masks = [int.from_bytes(b"\1" * (n - j + 7 >> 3), "little") << j
             for j in range(min(8, n))]
    return step, n, masks, [(-1, 0)] * 8


class SeedView:
    """A seed as one extract_all call reads it: the BitBuffer's bytes,
    shared and not copied; when its design can yield list rows (digits),
    its digit view, one ASCII digit (b"0" or b"1") per bit, len_bits
    bytes, else None; and the cursor of the range rows read last, which
    keeps at most 8 columns.  Made afresh for each call, since a
    BitBuffer is mutable."""

    __slots__ = ("len_bits", "_buf", "digits", "_cursor")

    def __init__(self, seed: BitBuffer, digits: bool = True):
        self.len_bits = seed.len_bits
        self._buf = seed._buf
        self.digits = _digit_view(seed) if digits else None
        self._cursor = _cursor(0, 0)  # no row has step 0

    def cursor(self, step: int, n: int) -> tuple:
        """The cursor of rows of n positions step apart, kept until a row
        of another step or length is read."""
        cursor = self._cursor
        if cursor[0] != step or cursor[1] != n:
            cursor = self._cursor = _cursor(step, n)
        return cursor


def slice_subseed(seed: BitBuffer | SeedView, indices) -> int:
    """Bits of the seed at the given positions, in order, LSB-first; a
    position outside [0, len_bits) raises IndexError.

    A range of positive step, with start a and n positions, is read as
    packed bits, from either form of the seed: its positions j, j+8,
    j+16, ... lie step bytes apart, so for each j < min(8, n) the
    k = (n - j + 7) // 8 bytes from byte b = (a + j*step) >> 3, step bytes
    apart, read little-endian, are a column that holds subseed bits j,
    j+8, ... at bit (a + j*step) & 7 of its bytes.  Each column is
    shifted to bit j and masked, and the columns ORed together are the
    subseed.  Rows a, ..., a+7 mostly read the same columns, so a SeedView
    keeps the last column read for each j, and reuses it for a row of the
    same start byte, step and k; on a BitBuffer every column is read.  Any
    other row is gathered by one itemgetter from a SeedView's digit view,
    whose own IndexError bounds it above, and packed by int() from that
    string of binary digits, last position first; on a BitBuffer, or a
    view made without digits, it raises TypeError."""
    strided = isinstance(indices, range) and indices.step > 0
    view = seed if isinstance(seed, SeedView) else None
    if not strided and (view is None or view.digits is None):
        raise TypeError("a row other than a range of positive step is read "
                        "from the digit view of the seed's SeedView, not a "
                        "BitBuffer")
    if not indices:
        return 0
    if (indices[0] if strided else min(indices)) < 0:
        raise _outside(seed)
    if not strided:
        try:
            digits = itemgetter(*indices)(seed.digits)
        except IndexError:
            raise _outside(seed) from None
        # itemgetter of one position gives its digit, not a tuple
        return int(bytes(digits)[::-1], 2) if len(indices) > 1 else digits - 48
    if indices[-1] >= seed.len_bits:
        raise _outside(seed)
    buf = seed._buf
    pos, step, n = indices.start, indices.step, len(indices)
    _, _, masks, columns = (_cursor if view is None else view.cursor)(step, n)
    out = 0
    for j, mask in enumerate(masks):
        at = pos >> 3
        column = columns[j]
        if column[0] != at:  # the step and k are the cursor's
            k = n - j + 7 >> 3
            column = columns[j] = (at, int.from_bytes(
                buf[at:at + k * step:step], "little"))
        shift = (pos & 7) - j
        out |= (column[1] >> shift if shift >= 0
                else column[1] << -shift) & mask
        pos += step
    return out


def _outside(seed: BitBuffer | SeedView) -> IndexError:
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


# Subseeds per extract call: a constant, so that an extractor's memory per
# call is bounded whatever the shard.
RUN = 256


def _extract_range(job: ExtractionJob, prepared, lo: int, hi: int) -> int:
    """Bits [lo, hi) of the output, packed LSB-first into an int."""
    design = job.design
    extractor = job.extractor
    seed = job.seed
    t_req = extractor.t_req
    out = 0
    for start in range(lo, hi, RUN):
        # Designs may grant more seed than requested; the extractor
        # consumes the prefix of length t_req.
        subs = [slice_subseed(seed, design.compute_Si(i)[:t_req])
                for i in range(start, min(start + RUN, hi))]
        out |= extractor.extract(prepared, subs) << (start - lo)
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
    # This call's job reads the seed through its own view, made before the
    # fan-out so that every worker starts from it; a design of degree
    # c >= 1 yields list rows, which read its digit view.
    job = ExtractionJob(job.input, SeedView(job.seed, digits=job.design.c >= 1),
                        job.design, job.extractor, job.m, job.workers)
    m = job.m
    workers = max(1, job.workers)
    if workers == 1 or m < 2 * workers:
        return BitBuffer(m, _extract_range(job, prepared, 0, m))
    chunk = -(-m // workers)
    bounds = [(lo, min(lo + chunk, m)) for lo in range(0, m, chunk)]
    return BitBuffer(m, _fan_out(job, prepared, bounds))
