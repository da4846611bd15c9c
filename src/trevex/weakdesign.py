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
is built; the CLI reports that sizing.  ``design_load`` builds the design
that a cache's header names, an instance of its construction's class,
before it reads a row, and accepts only the header that ``design_save``
writes for that design.  Parameters that admit no design raise
``params.InfeasibleParameters``.

The pair-to-index map is (x, p(x)) -> x*t + p(x), fixed for reproducibility.

Every design states ``c``, its polynomial degree, and ``basic``, the basic
design whose rows it serves: a basic design is its own, and a block design
has one shared by all its blocks, whose degree it states.  Its
``compute_Si(i)`` returns row i as an ascending sequence of ints that the
caller owns.  Basic row i < t is the constant polynomial i,
{x*t + i : x < t}: it is a ``range`` in a degree-0 design (c = 0) and in a
loaded one.  Any other row is a fresh list.
"""

from __future__ import annotations

import math
import os
import stat
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from enum import Enum
from itertools import accumulate
from operator import add

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

    @property
    def basic(self) -> BasicDesign:
        return self

    def coefficients(self, i: int) -> list[int]:
        """Base-t digits of i: coefficient alpha_j of x**j, j = 0..c."""
        t = self.t_act
        return [(i // t ** j) % t for j in range(self.c + 1)]

    def compute_Si(self, i: int) -> range | list[int]:
        """x*t + p_i(x) for x = 0..t-1, which is already ascending; for
        c = 0, p_i is the constant i and the row is a range."""
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        t = self.t_act
        if self.c == 0:
            return range(i, i + t * t, t)
        return list(map(add, range(0, t * t, t),
                        self.field.eval_all(self.coefficients(i))))


def block_partition(m: int, t: int) -> list[int]:
    """Split m output rows across ell+1 basic designs of set size t: the
    list of their sizes, ell+1 long."""
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
    return m_list


class BlockDesign:
    """Basic designs on a block diagonal; overlap r = 1.

    Rows from block j are the basic rows offset by j*t**2.  Every block
    reuses a prefix of the same basic design, so each basic row is computed
    once and memoised (at most max(m_j) cached rows, bounded by 2e*n_0+1).

    Rows are emitted block by block, basic rows in increasing order within
    each block.  The overlap bound r = 1 depends on this order: a row late
    in the enumeration is preceded by almost every other row, so the bound
    only survives because the small final block (disjoint constant rows)
    comes last.  Orders that group rows by basic-row index instead provably
    exceed the bound, so caching is done per basic row, not by reordering.
    """

    def __init__(self, t: int, m: int):
        self.m_list = block_partition(m, t)
        self.t_act = t
        self.m = m
        self.d = len(self.m_list) * t * t
        self.basic = BasicDesign(t, max(self.m_list))
        self.c = self.basic.c
        self.variant = (DesignVariant.BLOCK_GF2X if self.basic.variant.is_gf2x
                        else DesignVariant.BLOCK_GFP)
        # the first row of each block, for a bisect by row index
        self._starts = [0, *accumulate(self.m_list[:-1])]
        self._row_cache: dict[int, range | list[int]] = {}

    def compute_Si(self, i: int) -> range | list[int]:
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        j = bisect_right(self._starts, i) - 1
        k = i - self._starts[j]
        base = self._row_cache.get(k)
        if base is None:
            base = self.basic.compute_Si(k)
            self._row_cache[k] = base
        return _shifted(base, j * self.t_act * self.t_act)


def _shifted(row: range | list[int], off: int) -> range | list[int]:
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
        d = len(block_partition(m, t_act)) * t_act * t_act
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
# magic "TWD2" | variant u8 | t_act u64 | m u64 | d u64
#   block:  block count (ell+1) u64 | m_j u64 each | basic row count u64
# then basic rows t_act, t_act + 1, ... of the basic row count (m for a
# basic design), t_act u32 indices each, and a trailing CRC-32 (u32) of
# everything before it, so that both ends stream the rows one at a time.
# All integers little-endian.  Rows below t_act are the construction's
# ranges and are not stored, so a degree-0 cache is its header and CRC, at
# any t_act.  Stored rows are basic rows, with elements below t_act**2, so
# a cache that stores any has t_act**2 <= 2**32.

_MAGIC = b"TWD2"


def _header(design) -> bytes:
    """The header, up to its rows, that ``design_save`` writes for the
    design; raises ``DesignFormatError`` when a cache cannot hold it."""
    t = design.t_act
    if design.d > MAX_SEED_BITS:  # no run's design; and d fits its u64
        raise DesignFormatError(f"seed length d={design.d} of t_act={t} "
                                f"exceeds addressable range")
    if design.c and t * t > 1 << 32:  # list rows are stored
        raise DesignFormatError(f"t_act={t} has row elements past the u32 "
                                f"range of a design cache")
    head = _MAGIC + struct.pack("<BQQQ", design.variant.value, t, design.m,
                                design.d)
    if not design.variant.is_block:
        return head
    m_list = design.m_list
    return head + struct.pack(f"<Q{len(m_list)}QQ", len(m_list), *m_list,
                              design.basic.m)


class LoadedBasicDesign(BasicDesign):
    """A basic design whose rows from t on are those ``design_load`` read;
    a row below t is the construction's range, built when asked for."""

    def __init__(self, t: int, m: int, stored):
        super().__init__(t, m)
        self._stored = stored  # basic rows t, t + 1, ...

    def compute_Si(self, i: int) -> range | list[int]:
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        t = self.t_act
        if i < t:
            return range(i, i + t * t, t)
        return list(self._stored[i - t])


class LoadedBlockDesign(BlockDesign):
    """A block design over a loaded basic design, so that its row memo
    fills from the basic rows that ``design_load`` read and no basic row
    is computed."""

    def __init__(self, t: int, m: int, stored):
        super().__init__(t, m)
        self.basic = LoadedBasicDesign(t, self.basic.m, stored)

    # an own attribute, since layer tracing wraps each class's own
    compute_Si = BlockDesign.compute_Si


def design_save(design, path) -> None:
    """Write the header, each basic row from t_act on as it is made, then
    their CRC-32: a design that no cache holds leaves no file, and a write
    that stops early leaves a file too short for ``design_load``."""
    header = _header(design)
    t = design.t_act
    rows = map(design.basic.compute_Si, range(t, design.basic.m))
    crc = zlib.crc32(header)
    with open(path, "wb") as fh:
        fh.write(header)
        for row in rows:  # one at a time
            part = struct.pack(f"<{t}I", *row)
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc))


class _Reader:
    """A cache read front to back under a running CRC-32.  No piece is
    longer than a row (256 KiB, since a cache stores rows only when
    t_act**2 <= 2**32), so rows that a
    header declares but the file does not hold cost no more memory than
    the bytes that do arrive."""

    def __init__(self, fh):
        self.fh = fh
        self.pos = self.crc = 0

    def take(self, size: int) -> bytes:
        part = self.fh.read(size)  # buffered: short only at the end
        if len(part) != size:
            raise DesignFormatError("truncated design cache file")
        self.crc = zlib.crc32(part, self.crc)
        self.pos += size
        return part

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def design_load(path):
    """Load a design cache, read once front to back, into the design of
    the variant, t and m that its header names.  Each stored row is kept
    as the u32 array it arrives as; no row below t is built here, so the
    memory a load takes is bounded by the bytes the file holds."""
    with open(path, "rb") as fh:
        rd = _Reader(fh)
        if rd.take(len(_MAGIC)) != _MAGIC:
            raise DesignFormatError("bad magic; not a design cache file")
        (variant_tag,) = rd.unpack("<B")
        try:
            variant = DesignVariant(variant_tag)
        except ValueError as exc:
            raise DesignFormatError(f"unknown variant tag {variant_tag}") from exc
        t, m = rd.unpack("<QQ")
        no_design = f"{variant.name} admits no design of t_act={t}, {m=}"
        stored = []  # the basic rows from t on, once read
        try:  # InfeasibleParameters, or a t that is no field order
            design = (LoadedBlockDesign if variant.is_block
                      else LoadedBasicDesign)(t, m, stored)
        except ValueError as exc:
            raise DesignFormatError(no_design) from exc
        if design.variant is not variant:  # GF(2) is GF(p) and GF(2**l)
            raise DesignFormatError(no_design)
        rest = _header(design)[rd.pos:]  # d, and a block design's sizes
        if rd.take(len(rest)) != rest:  # it begins with the fields just read
            raise DesignFormatError(f"header is not the one saved for "
                                    f"({variant.name}, t_act={t}, {m=})")
        n_rows = design.basic.m
        size = rd.pos + 4 * t * max(n_rows - t, 0) + 4
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size != size:  # a pipe has none
            raise DesignFormatError(f"design cache file holds {st.st_size} "
                                    f"bytes, its header declares {size}")
        stored += (array("I", rd.take(4 * t)) for _ in range(t, n_rows))
        if sys.byteorder == "big":  # the rows are stored little-endian
            for row in stored:
                row.byteswap()
        crc = rd.crc
        (stored_crc,) = rd.unpack("<I")
        if fh.read(1):
            raise DesignFormatError("trailing bytes in design cache file")
    if crc != stored_crc:
        raise DesignFormatError("checksum mismatch")
    return design
