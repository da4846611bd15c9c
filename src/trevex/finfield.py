"""Finite-field contexts used by the weak designs and one-bit extractors.

Two kinds of field are provided, for the two shapes of weak-design order t
(a prime or a power of two):

* :class:`PrimeField` -- GF(p) for prime p below 2**61.
* :class:`BinaryField` -- GF(2**l) for 1 <= l <= 64.  Its modulus is read
  from a pinned table (the smallest irreducible trinomial, else the
  smallest pentanomial), so extraction output is reproducible across
  builds; a test checks the table against an independent search.

All contexts are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

from functools import lru_cache

from .params import Record

MAX_PRIME = (1 << 61) - 1

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(t: int) -> int:
    """Smallest prime >= t; errors out past the 61-bit working range."""
    if t < 2:
        raise ValueError(f"t={t} must be >= 2")
    n = t
    while not is_prime(n):
        n += 1
        if n > MAX_PRIME:
            raise OverflowError(f"no prime in range for t={t}")
    return n


class _Frozen(Record):
    """A field context: assignment raises, and equal contexts hash alike."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class PrimeField(_Frozen):
    """GF(p).  Multiplication of Python ints is exact, so the 61-bit limit
    only mirrors the contract that elements fit machine words downstream.
    ``eval_all`` evaluates a polynomial at every element at once, which is
    how a design row is computed."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if p > MAX_PRIME:
            raise ValueError(f"p={p} exceeds 2**61 - 1")
        vars(self).update(p=p)

    @property
    def order(self) -> int:
        return self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def poly_eval(self, coeffs, x: int) -> int:
        """Horner evaluation of sum(coeffs[j] * x**j) in GF(p)."""
        if not coeffs:
            raise ValueError("coeffs must be non-empty")
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def eval_all(self, coeffs) -> list[int]:
        """[poly_eval(coeffs, x) for x in range(p)], by Horner run across
        the whole row: one list comprehension per coefficient."""
        if not coeffs:
            raise ValueError("coeffs must be non-empty")
        p = self.p
        acc = [coeffs[-1] % p] * p
        for c in reversed(coeffs[:-1]):
            acc = [(a * x + c) % p for x, a in enumerate(acc)]
        return acc


# The modulus of GF(2**l) for l = 1 ... 64, at index l - 1: the smallest
# irreducible trinomial x^l + x^a + 1 by bitmask value, else the smallest
# pentanomial, and x + 1 for l = 1.  It fixes every RSH output bit.
# tests/test_finfield.py regenerates the table with the independent search
# in perfbench/reference.py.
_MODULI = (
    0x3, 0x7, 0xb, 0x13, 0x25, 0x43, 0x83, 0x11b, 0x203, 0x409, 0x805, 0x1009,
    0x201b, 0x4021, 0x8003, 0x1002b, 0x20009, 0x40009, 0x80027, 0x100009,
    0x200005, 0x400003, 0x800021, 0x100001b, 0x2000009, 0x400001b, 0x8000027,
    0x10000003, 0x20000005, 0x40000003, 0x80000009, 0x10000008d, 0x200000401,
    0x400000081, 0x800000005, 0x1000000201, 0x2000000053, 0x4000000063,
    0x8000000011, 0x10000000039, 0x20000000009, 0x40000000081, 0x80000000059,
    0x100000000021, 0x20000000001b, 0x400000000003, 0x800000000021,
    0x100000000002d, 0x2000000000201, 0x400000000001d, 0x800000000004b,
    0x10000000000009, 0x20000000000047, 0x40000000000201, 0x80000000000081,
    0x100000000000095, 0x200000000000011, 0x400000000080001, 0x800000000000095,
    0x1000000000000003, 0x2000000000000027, 0x4000000020000001,
    0x8000000000000003, 0x1000000000000001b,
)


# The cache keeps one BinaryField per l; the benchmark's traced run clears
# it (find_irreducible.cache_clear) to time a cold field construction.
@lru_cache(maxsize=None)
def find_irreducible(l: int) -> "BinaryField":
    """GF(2**l) with the pinned modulus of degree l, 1 <= l <= 64."""
    if not 1 <= l <= len(_MODULI):
        raise ValueError(f"degree l={l} outside [1, {len(_MODULI)}]")
    return BinaryField(l, _MODULI[l - 1])


class BinaryField(_Frozen):
    """GF(2**l) with elements as bitmasks < 2**l; addition is XOR."""

    def __init__(self, l: int, poly: int):
        if poly.bit_length() != l + 1:
            raise ValueError(f"poly degree != {l}")
        vars(self).update(l=l, poly=poly)

    @property
    def order(self) -> int:
        return 1 << self.l

    def mul(self, a: int, b: int) -> int:
        res = 0
        while b:
            if b & 1:
                res ^= a
            b >>= 1
            a <<= 1
            if (a >> self.l) & 1:
                a ^= self.poly
        return res

    def poly_eval(self, coeffs, x: int) -> int:
        if not coeffs:
            raise ValueError("coeffs must be non-empty")
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc

    def eval_all(self, coeffs) -> list[int]:
        """[poly_eval(coeffs, x) for x in range(2**l)]."""
        return [self.poly_eval(coeffs, x) for x in range(self.order)]


def field_for_order(t: int):
    """Field context of order t: GF(2**l) for t = 2**l, GF(p) for prime t."""
    if t >= 2 and t & (t - 1) == 0:
        return find_irreducible(t.bit_length() - 1)
    if is_prime(t):
        return PrimeField(t)
    raise ValueError(f"t={t} is neither a prime nor a power of two")
