"""Finite-field contexts used by the weak designs and one-bit extractors.

Two kinds of field are provided, for the two shapes of weak-design order t
(a prime or a power of two):

* :class:`PrimeField` -- GF(p) for prime p below 2**61.
* :class:`BinaryField` -- GF(2**l) for 1 <= l <= 64, with a deterministic
  irreducible polynomial (smallest trinomial, else smallest pentanomial) so
  that extraction output is reproducible across builds.

All contexts are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class PrimeField:
    """GF(p).  Multiplication of Python ints is exact, so the 61-bit limit
    only mirrors the contract that elements fit machine words downstream.
    ``eval_all`` evaluates a polynomial at every element at once, which is
    how a design row is computed."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.p > MAX_PRIME:
            raise ValueError(f"p={self.p} exceeds 2**61 - 1")

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


# --- GF(2) polynomial helpers (bitmask representation) ---

def _gf2_poly_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _gf2_poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_poly_mod(a, b)
    return a


# (shift, mask) steps that move bit i of a 64-bit value to bit 2i, which
# squares a GF(2) polynomial of degree < 64.
_SPREAD = tuple((k, sum(((1 << k) - 1) << (2 * k * j) for j in range(64 // k)))
                for k in (32, 16, 8, 4, 2, 1))


def gf2_irreducible(poly: int) -> bool:
    """Ben-Or irreducibility test for a GF(2) polynomial bitmask of degree
    1..64: poly of degree l is irreducible iff gcd(poly, x^(2^i) - x) = 1
    for every i <= l/2.  A reducible poly fails at i = the degree of its
    smallest factor, so most candidates are rejected after a few squarings.
    Squaring spreads the bits, then folds x^l = poly - x^l back in, which is
    cheap for the sparse moduli searched here."""
    l = poly.bit_length() - 1
    if l < 1:
        return False
    if l > 64:
        raise ValueError(f"degree {l} above 64")
    mask = (1 << l) - 1
    tail = [e for e in range(l) if poly >> e & 1]
    u = 0b10  # x^(2^i) mod poly
    for _ in range(l // 2):
        for k, spread in _SPREAD:
            u = (u | u << k) & spread
        while u > mask:
            high = u >> l
            u &= mask
            for e in tail:
                u ^= high << e
        if _gf2_poly_gcd(poly, u ^ 0b10) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def find_irreducible(l: int) -> "BinaryField":
    """Deterministic irreducible polynomial of degree l, 1 <= l <= 64.

    Picks the smallest (by bitmask value) irreducible trinomial
    x^l + x^a + 1; if no trinomial of degree l exists, the smallest
    pentanomial.
    """
    if not 1 <= l <= 64:
        raise ValueError(f"degree l={l} outside [1, 64]")
    if l == 1:
        return BinaryField(1, 0b11)  # x + 1; no weight-3 polynomial exists
    top = (1 << l) | 1
    for a in range(1, l):
        cand = top | (1 << a)
        if gf2_irreducible(cand):
            return BinaryField(l, cand)
    for c in range(3, l):
        for b in range(2, c):
            for a in range(1, b):
                cand = top | (1 << c) | (1 << b) | (1 << a)
                if gf2_irreducible(cand):
                    return BinaryField(l, cand)
    raise ValueError(f"no weight-3/5 irreducible of degree {l}")  # unreachable


@dataclass(frozen=True)
class BinaryField:
    """GF(2**l) with elements as bitmasks < 2**l; addition is XOR."""

    l: int
    poly: int

    def __post_init__(self):
        if self.poly.bit_length() != self.l + 1:
            raise ValueError(f"poly degree != {self.l}")

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
