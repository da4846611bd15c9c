"""Weak design constructions and their disk cache format.

A weak (m, t, r, d)-design is a family of m size-t subsets of [0, d) whose
pairwise-intersection weight sum_{j<i} 2^{|S_j cap S_i|} stays below r*m.
Two constructions are provided:

* the basic polynomial design over a field of prime-power order t
  (d = t**2, overlap r = 2e), and
* the block design that places several basic designs on a diagonal
  (d = (ell+1) * t**2, overlap r = 1).

The pair-to-index map is (x, p(x)) -> x*t + p(x), fixed for reproducibility.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from enum import Enum

from .finfield import BinaryField, field_for_order, next_prime
from .params import TWO_E, RKind, ceil_log2

MAX_SEED_BITS = 1 << 61


class DesignError(Exception):
    """Invalid design parameters."""


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


def round_t(variant: DesignVariant, t_req: int) -> int:
    """Smallest t the variant can provide with t >= t_req."""
    if t_req < 2:
        raise DesignError(f"t_req={t_req} must be >= 2")
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

    r_kind = RKind.TWO_E

    def __init__(self, t: int, m: int):
        if m < 1:
            raise DesignError(f"m={m} must be >= 1")
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

    def compute_Si(self, i: int) -> list[int]:
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        t = self.t_act
        coeffs = self.coefficients(i)
        ev = self.field.poly_eval
        return sorted(x * t + ev(coeffs, x) for x in range(t))


@dataclass
class BlockPartition:
    """Sizes of the basic designs placed on the block diagonal."""

    ell: int
    m_list: list[int]  # length ell + 1


def block_partition(m: int, t: int) -> BlockPartition:
    """Split m output rows across ell+1 basic designs of set size t."""
    rp = TWO_E
    if t <= 6:
        raise DesignError(f"t={t} too small for the block design (need t > 2e)")
    if m <= rp:
        raise DesignError(f"m={m} too small for the block design (need m > 2e)")
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
        raise DesignError(f"negative block size in partition of (m={m}, t={t})")
    if m_last > t:
        raise DesignError(f"last block {m_last} > t={t} for (m={m}, t={t})")
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

    r_kind = RKind.ONE

    def __init__(self, t: int, m: int):
        self.partition = block_partition(m, t)
        self.t_act = t
        self.m = m
        self.d = (self.partition.ell + 1) * t * t
        self._basic = BasicDesign(t, max(self.partition.m_list))
        self.variant = (DesignVariant.BLOCK_GF2X if self._basic.variant.is_gf2x
                        else DesignVariant.BLOCK_GFP)
        self._order = _block_order(self.partition.m_list)
        self._row_cache: dict[int, list[int]] = {}

    def compute_Si(self, i: int) -> list[int]:
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        k, j = self._order[i]
        base = self._row_cache.get(k)
        if base is None:
            base = self._basic.compute_Si(k)
            self._row_cache[k] = base
        off = j * self.t_act * self.t_act
        return [e + off for e in base]


def design_d(variant: DesignVariant, t_req: int, m: int | None = None) -> tuple[int, int]:
    """Seed length granted by the design: (t_act, d)."""
    t_act = round_t(variant, t_req)
    if variant.is_block:
        if m is None:
            raise DesignError("block design needs m to size its partition")
        part = block_partition(m, t_act)
        d = (part.ell + 1) * t_act * t_act
    else:
        d = t_act * t_act
    if d > MAX_SEED_BITS:
        raise OverflowError(f"seed length d={d} exceeds addressable range")
    return t_act, d


def make_design(variant: DesignVariant, t_req: int, m: int):
    t_act, _ = design_d(variant, t_req, m)
    if variant.is_block:
        return BlockDesign(t_act, m)
    return BasicDesign(t_act, m)


# --- disk cache -----------------------------------------------------------
#
# magic "TWD1" | variant u8 | t_act u64 | m u64 | d u64
#   basic:  m rows x t_act u32 indices
#   block:  block count (ell+1) u64 | m_j u64 each
#           | basic row count u64 | rows x t_act u32 (shared basic design)
# trailing CRC-32 (u32) of everything before it.  All integers little-endian.

_MAGIC = b"TWD1"


class LoadedBasicDesign:
    r_kind = RKind.TWO_E

    def __init__(self, variant, t_act, m, d, rows):
        self.variant = variant
        self.t_act = t_act
        self.m = m
        self.d = d
        self._rows = rows

    def compute_Si(self, i: int) -> list[int]:
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        return list(self._rows[i])


class LoadedBlockDesign:
    r_kind = RKind.ONE

    def __init__(self, variant, t_act, m, d, m_list, basic_rows):
        self.variant = variant
        self.t_act = t_act
        self.m = m
        self.d = d
        self.partition = BlockPartition(ell=len(m_list) - 1, m_list=m_list)
        self._basic_rows = basic_rows
        self._order = _block_order(m_list)

    def compute_Si(self, i: int) -> list[int]:
        if not 0 <= i < self.m:
            raise IndexError(f"set index {i} outside [0, {self.m})")
        k, j = self._order[i]
        off = j * self.t_act * self.t_act
        return [e + off for e in self._basic_rows[k]]


def design_save(design, path) -> None:
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<B", design.variant.value)
    out += struct.pack("<QQQ", design.t_act, design.m, design.d)
    if design.r_kind is RKind.ONE:
        m_list = design.partition.m_list
        out += struct.pack("<Q", len(m_list))
        out += struct.pack(f"<{len(m_list)}Q", *m_list)
        n_rows = max(m_list)
        out += struct.pack("<Q", n_rows)
        if isinstance(design, LoadedBlockDesign):
            rows = design._basic_rows
        else:
            rows = [design._basic.compute_Si(k) for k in range(n_rows)]
        for row in rows:
            out += struct.pack(f"<{design.t_act}I", *row)
    else:
        for i in range(design.m):
            out += struct.pack(f"<{design.t_act}I", *design.compute_Si(i))
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise DesignFormatError("truncated design cache file")
        vals = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return vals


def design_load(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 1 + 24 + 4:
        raise DesignFormatError("file too short for a design cache")
    if data[:4] != _MAGIC:
        raise DesignFormatError("bad magic; not a design cache file")
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != stored_crc:
        raise DesignFormatError("checksum mismatch")
    rd = _Reader(data[:-4])
    rd.pos = 4
    (variant_tag,) = rd.take("<B")
    try:
        variant = DesignVariant(variant_tag)
    except ValueError as exc:
        raise DesignFormatError(f"unknown variant tag {variant_tag}") from exc
    t_act, m, d = rd.take("<QQQ")
    if variant.is_block:
        (n_blocks,) = rd.take("<Q")
        m_list = list(rd.take(f"<{n_blocks}Q"))
        if sum(m_list) != m:
            raise DesignFormatError("block sizes do not sum to m")
        if d != n_blocks * t_act * t_act:
            raise DesignFormatError("d inconsistent with block count")
        (n_rows,) = rd.take("<Q")
        rows = [list(rd.take(f"<{t_act}I")) for _ in range(n_rows)]
        design = LoadedBlockDesign(variant, t_act, m, d, m_list, rows)
    else:
        if d != t_act * t_act:
            raise DesignFormatError("d inconsistent with t_act")
        rows = [list(rd.take(f"<{t_act}I")) for _ in range(m)]
        design = LoadedBasicDesign(variant, t_act, m, d, rows)
    if rd.pos != len(rd.data):
        raise DesignFormatError("trailing bytes in design cache file")
    return design
