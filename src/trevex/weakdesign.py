"""Weak design constructions and their disk cache format.

A weak (m, t, r, d)-design is a family of m size-t subsets of [0, d) whose
pairwise-intersection weight sum_{j<i} 2^{|S_j cap S_i|} stays below r*m.
Two constructions are provided:

* the basic polynomial design over the field of prime or power-of-two
  order t, GF(p) or GF(2**l) (d = t**2, overlap r = 2e), and
* the block design that places several basic designs on a diagonal
  (d = (ell+1) * t**2, overlap r = 1).

The variant owns r (:attr:`DesignVariant.r_kind`).  :func:`design_d` sizes
(t_act, d) from the variant, the extractor's t_req and m before any design
is built; the CLI reports that sizing and ``design_load`` checks a cache
header against it.  Parameters that admit no design raise
``params.InfeasibleParameters``.

The pair-to-index map is (x, p(x)) -> x*t + p(x), fixed for reproducibility.

Every design's ``compute_Si(i)`` returns row i as an ascending sequence of
ints that the caller owns: a ``range`` when the row is the progression
{x*t + a : x < t} (every row of a degree-0 design, c = 0), otherwise a
fresh list.
"""

from __future__ import annotations

import math
import os
import stat
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass
from enum import Enum
from operator import add
from typing import Sequence

from .finfield import BinaryField, field_for_order, next_prime
from .params import TWO_E, InfeasibleParameters, RKind, ceil_log2

MAX_SEED_BITS = 1 << 61


class DesignFormatError(Exception):
    """Corrupt, truncated, or incompatible design cache file."""


class DesignVariant(Enum):
    GFP = 0
    GF2X = 1
    BLOCK_GFP = 2
    BLOCK_GF2X = 3

    @property
    def is_block(self) -> bool:
        return self in (DesignVariant.BLOCK_GFP, DesignVariant.BLOCK_GF2X)

    @property
    def is_gf2x(self) -> bool:
        return self in (DesignVariant.GF2X, DesignVariant.BLOCK_GF2X)

    @property
    def r_kind(self) -> RKind:
        """The overlap r the variant guarantees, which k is charged."""
        return RKind.ONE if self.is_block else RKind.TWO_E


def round_t(variant: DesignVariant, t_req: int) -> int:
    """Smallest t the variant can provide with t >= t_req."""
    if t_req < 2:
        raise InfeasibleParameters(f"t_req={t_req} must be >= 2")
    if variant.is_gf2x:
        return 1 << ceil_log2(t_req)
    return next_prime(t_req)


def degree_bound(t: int, m: int) -> int:
    """Polynomial degree bound c: smallest c >= 0 with t**(c+1) >= m."""
    c = 0
    while t ** (c + 1) < m:
        c += 1
    return c


class BasicDesign:
    """Polynomial weak design: S_i = {x*t + p_i(x)} with p_i the i-th
    polynomial over the order-t field in coefficient counting order."""

    def __init__(self, t: int, m: int):
        if m < 1:
            raise InfeasibleParameters(f"m={m} must be >= 1")
        self.t_act = t
        self.m = m
        self.field = field_for_order(t)
        self.variant = (DesignVariant.GF2X if isinstance(self.field, BinaryField)
                        else DesignVariant.GFP)
        self.c = degree_bound(t, m)
        self.d = t * t

    def coefficients(self, i: int) -> list[int]:
        """Base-t digits of i: coefficient alpha_j of x**j, j = 0..c."""
        t = self.t_act
        return [(i // t ** j) % t for j in range(self.c + 1)]

    def compute_Si(self, i: int) -> Sequence[int]:
        """x*t + p_i(x) for x = 0..t-1, which is already ascending; for
        c = 0, p_i is the constant i and the row is a range."""
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        t = self.t_act
        if self.c == 0:
            return range(i, i + t * t, t)
        return list(map(add, range(0, t * t, t),
                        self.field.eval_all(self.coefficients(i))))


@dataclass
class BlockPartition:
    """Sizes of the basic designs placed on the block diagonal."""

    ell: int
    m_list: list[int]  # length ell + 1


def block_partition(m: int, t: int) -> BlockPartition:
    """Split m output rows across ell+1 basic designs of set size t."""
    rp = TWO_E
    if t <= 6:
        raise InfeasibleParameters(f"t={t} <= 2e admits no block design")
    if m <= rp:
        raise InfeasibleParameters(f"m={m} <= 2e admits no block design")
    ell = max(1, math.ceil((math.log2(m - rp) - math.log2(t - rp))
                           / (math.log2(rp) - math.log2(rp - 1.0))))
    m_list = []
    acc_n = 0.0
    acc_m = 0
    for i in range(ell):
        acc_n += (1.0 - 1.0 / rp) ** i * (m / rp - 1.0)
        mi = math.ceil(acc_n) - acc_m
        m_list.append(mi)
        acc_m += mi
    m_last = m - acc_m
    m_list.append(m_last)
    if any(mi < 0 for mi in m_list):
        raise InfeasibleParameters(f"negative block size for (m={m}, t={t})")
    if m_last > t:
        raise InfeasibleParameters(f"last block {m_last} > t for (m={m}, t={t})")
    return BlockPartition(ell=ell, m_list=m_list)


def _block_order(m_list: list[int]) -> list[tuple[int, int]]:
    """Row order of the block design.  Entry g -> (basic row k, block j).

    Rows are emitted block by block, basic rows in increasing order within
    each block.  The overlap bound r = 1 depends on this order: a row late
    in the enumeration is preceded by almost every other row, so the bound
    only survives because the small final block (disjoint constant rows)
    comes last.  Orders that group rows by basic-row index instead provably
    exceed the bound, so caching is done per basic row, not by reordering.
    """
    order = []
    for j, mj in enumerate(m_list):
        for k in range(mj):
            order.append((k, j))
    return order


class BlockDesign:
    """Basic designs on a block diagonal; overlap r = 1.

    Rows from block j are the basic rows offset by j*t**2.  Every block
    reuses a prefix of the same basic design, so each basic row is computed
    once and memoised (at most max(m_j) cached rows, bounded by 2e*n_0+1).
    """

    def __init__(self, t: int, m: int):
        self.partition = block_partition(m, t)
        self.t_act = t
        self.m = m
        self.d = (self.partition.ell + 1) * t * t
        self._basic = BasicDesign(t, max(self.partition.m_list))
        self.variant = (DesignVariant.BLOCK_GF2X if self._basic.variant.is_gf2x
                        else DesignVariant.BLOCK_GFP)
        self._order = _block_order(self.partition.m_list)
        self._row_cache: dict[int, Sequence[int]] = {}

    def compute_Si(self, i: int) -> Sequence[int]:
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        k, j = self._order[i]
        base = self._row_cache.get(k)
        if base is None:
            base = self._basic.compute_Si(k)
            self._row_cache[k] = base
        return _shifted(base, j * self.t_act * self.t_act)


def _shifted(row: Sequence[int], off: int) -> Sequence[int]:
    """The row with off added to every element, as a new range or list."""
    if isinstance(row, range):
        return range(row.start + off, row.stop + off, row.step)
    return [e + off for e in row]


def design_d(variant: DesignVariant, t_req: int, m: int | None = None) -> tuple[int, int]:
    """Seed length granted by the design: (t_act, d)."""
    if t_req * t_req > MAX_SEED_BITS:  # d >= t_req**2; keeps round_t in range
        raise InfeasibleParameters(f"t_req={t_req} needs a seed past 2**61 bits")
    t_act = round_t(variant, t_req)
    if variant.is_block:
        if m is None:
            raise InfeasibleParameters("block design needs m to size its partition")
        part = block_partition(m, t_act)
        d = (part.ell + 1) * t_act * t_act
    else:
        d = t_act * t_act
    if d > MAX_SEED_BITS:
        raise InfeasibleParameters(f"seed length d={d} exceeds addressable range")
    return t_act, d


def make_design(variant: DesignVariant, t_req: int, m: int):
    t_act, _ = design_d(variant, t_req, m)
    if variant.is_block:
        return BlockDesign(t_act, m)
    return BasicDesign(t_act, m)


def serves(design, m: int) -> bool:
    """Whether the design's first m rows keep its overlap bound: a block
    design's only at its own m, since block rows depend on m, and a basic
    design's at any m up to its own."""
    return design.m == m if design.variant.is_block else design.m >= m


# --- disk cache -----------------------------------------------------------
#
# magic "TWD1" | variant u8 | t_act u64 | m u64 | d u64
#   basic:  m rows x t_act u32 indices
#   block:  block count (ell+1) u64 | m_j u64 each
#           | basic row count u64 | rows x t_act u32 (shared basic design)
# trailing CRC-32 (u32) of everything before it, so that both ends stream
# the rows one at a time.  All integers little-endian.

_MAGIC = b"TWD1"


class LoadedBasicDesign:
    """A basic design's rows as ``design_load`` kept them."""

    def __init__(self, variant, t_act, m, d, rows):
        self.variant = variant
        self.t_act = t_act
        self.m = m
        self.d = d
        self._rows = rows

    def compute_Si(self, i: int) -> Sequence[int]:
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        row = self._rows[i]
        return row if isinstance(row, range) else list(row)


class LoadedBlockDesign:
    """A block design's shared basic rows as ``design_load`` kept them."""

    def __init__(self, variant, t_act, m, d, m_list, basic_rows):
        self.variant = variant
        self.t_act = t_act
        self.m = m
        self.d = d
        self.partition = BlockPartition(ell=len(m_list) - 1, m_list=m_list)
        self._basic_rows = basic_rows
        self._order = _block_order(m_list)

    def compute_Si(self, i: int) -> Sequence[int]:
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        k, j = self._order[i]
        return _shifted(self._basic_rows[k], j * self.t_act * self.t_act)


def design_save(design, path) -> None:
    """Write each part as it is made, then their CRC-32: a write that stops
    early leaves a file too short for ``design_load``."""
    crc = 0
    with open(path, "wb") as fh:
        for part in _cache_parts(design):
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc))


def _cache_parts(design):
    yield _MAGIC + struct.pack("<BQQQ", design.variant.value, design.t_act,
                               design.m, design.d)
    if design.variant.is_block:
        m_list = design.partition.m_list
        n_rows = max(m_list)
        yield struct.pack(f"<Q{len(m_list)}QQ", len(m_list), *m_list, n_rows)
        if isinstance(design, LoadedBlockDesign):
            rows = design._basic_rows
        else:
            rows = map(design._basic.compute_Si, range(n_rows))
    elif isinstance(design, LoadedBasicDesign):
        rows = design._rows
    else:
        rows = map(design.compute_Si, range(design.m))
    for row in rows:  # one at a time; a loaded design saves them as kept
        yield struct.pack(f"<{design.t_act}I", *row)


class _Reader:
    """A cache read front to back under a running CRC-32, in pieces of at
    most 1 MiB: rows that a header declares but the file does not hold
    cost no more memory than the bytes that do arrive."""

    def __init__(self, fh):
        self.fh = fh
        self.pos = self.crc = 0

    def take(self, size: int) -> bytes:
        parts = []
        while size:
            part = self.fh.read(min(size, 1 << 20))
            if not part:
                raise DesignFormatError("truncated design cache file")
            self.crc = zlib.crc32(part, self.crc)
            self.pos += len(part)
            size -= len(part)
            parts.append(part)
        return b"".join(parts)

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def design_load(path):
    """Load a design cache, read once front to back.  Each stored row is
    kept as it arrives: the progression a, a+t, ..., a+(t-1)t as a range,
    any other row as a u32 array, so a degree-0 cache holds few bytes."""
    with open(path, "rb") as fh:
        rd = _Reader(fh)
        if rd.take(len(_MAGIC)) != _MAGIC:
            raise DesignFormatError("bad magic; not a design cache file")
        (variant_tag,) = rd.unpack("<B")
        try:
            variant = DesignVariant(variant_tag)
        except ValueError as exc:
            raise DesignFormatError(f"unknown variant tag {variant_tag}") from exc
        t, m, d = rd.unpack("<QQQ")
        try:
            sizing = design_d(variant, t, m)
        except InfeasibleParameters as exc:
            raise DesignFormatError(f"{variant.name} admits no t_act={t}, {m=}") from exc
        if sizing != (t, d):
            raise DesignFormatError(f"(t_act={t}, {d=}) is not the "
                                    f"{variant.name} design's sizing {sizing}")
        n_rows = m
        if variant.is_block:
            m_list = block_partition(m, t).m_list
            # block count, block sizes and shared row count, as (m, t) give them
            want = [len(m_list), *m_list, max(m_list)]
            if list(rd.unpack(f"<{len(want)}Q")) != want:
                raise DesignFormatError("block header is not the partition of (m, t)")
            n_rows = want[-1]
        size = rd.pos + 4 * n_rows * t + 4
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size != size:  # a pipe has none
            raise DesignFormatError(f"design cache file holds {st.st_size} "
                                    f"bytes, its header declares {size}")
        # As one little-endian int of its u32 lanes, the progression from a
        # is a*ones + ramp, with ramp the progression from 0.  The test is
        # exact once its last element a+(t-1)t fits a lane: no lane carries.
        ones = ramp = None
        if (t - 1) * t < 1 << 32:  # otherwise no progression fits the lanes
            ones = int.from_bytes(b"\1\0\0\0" * t, "little")
            ramp = int.from_bytes(struct.pack(f"<{t}I", *range(0, t * t, t)),
                                  "little")
        rows = []
        for _ in range(n_rows):
            raw = rd.take(4 * t)
            a = int.from_bytes(raw[:4], "little")
            if (ones is not None
                    and int.from_bytes(raw[-4:], "little") == a + (t - 1) * t
                    and int.from_bytes(raw, "little") == a * ones + ramp):
                rows.append(range(a, a + t * t, t))
            else:
                rows.append(array("I", raw))
                if sys.byteorder == "big":  # the rows are stored little-endian
                    rows[-1].byteswap()
        crc = rd.crc
        (stored_crc,) = rd.unpack("<I")
        if fh.read(1):
            raise DesignFormatError("trailing bytes in design cache file")
    if crc != stored_crc:
        raise DesignFormatError("checksum mismatch")
    if variant.is_block:
        return LoadedBlockDesign(variant, t, m, d, m_list, rows)
    return LoadedBasicDesign(variant, t, m, d, rows)
