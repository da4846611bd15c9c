"""Finite-field contexts used by the weak designs and one-bit extractors.

Three kinds of field are provided:

* :class:`PrimeField` -- GF(p) for prime p below 2**61.
* :class:`BinaryField` -- GF(2**l) for 1 <= l <= 64, with a deterministic
  irreducible polynomial (smallest trinomial, else smallest pentanomial) so
  that extraction output is reproducible across builds.
* :class:`ExtensionField` -- small GF(p**k) for odd p, needed only so that
  weak designs can be built and verified for every prime-power set size
  (e.g. t = 9).

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
    only mirrors the contract that elements fit machine words downstream."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.p > MAX_PRIME:
            raise ValueError(f"p={self.p} exceeds 2**61 - 1")

    @property
    def order(self) -> int:
        return self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

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


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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

    def add(self, a: int, b: int) -> int:
        return a ^ b

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

    def pow(self, a: int, e: int) -> int:
        res = 1
        while e:
            if e & 1:
                res = self.mul(res, a)
            a = self.mul(a, a)
            e >>= 1
        return res

    def poly_eval(self, coeffs, x: int) -> int:
        if not coeffs:
            raise ValueError("coeffs must be non-empty")
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc


class ExtensionField:
    """GF(p**k) for odd prime p and small k, for prime-power design sizes.

    Elements are integers in [0, p**k) read as base-p digit vectors, i.e.
    coefficient lists of polynomials over GF(p).  Only used at design scale
    (order <= a few dozen), so the schoolbook arithmetic is fine.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"p={p} not prime")
        if k < 2:
            raise ValueError("use PrimeField for k=1")
        self.p = p
        self.k = k
        self._modulus = self._find_irreducible(p, k)

    @staticmethod
    def _poly_mod(poly: list[int], modulus: list[int], p: int) -> list[int]:
        poly = poly[:]
        dm = len(modulus) - 1
        while len(poly) - 1 >= dm and any(poly):
            if poly[-1] == 0:
                poly.pop()
                continue
            shift = len(poly) - 1 - dm
            factor = poly[-1]  # modulus is monic
            for i, c in enumerate(modulus):
                poly[shift + i] = (poly[shift + i] - factor * c) % p
            while len(poly) > 1 and poly[-1] == 0:
                poly.pop()
        return poly

    @classmethod
    def _is_irreducible(cls, modulus: list[int], p: int) -> bool:
        # Trial division by all monic polynomials of degree <= deg/2.
        k = len(modulus) - 1
        for deg in range(1, k // 2 + 1):
            for idx in range(p ** deg):
                div = []
                v = idx
                for _ in range(deg):
                    div.append(v % p)
                    v //= p
                div.append(1)
                if not any(cls._poly_mod(modulus, div, p)):
                    return False
        return True

    @classmethod
    def _find_irreducible(cls, p: int, k: int) -> list[int]:
        for idx in range(p ** k):
            coeffs = []
            v = idx
            for _ in range(k):
                coeffs.append(v % p)
                v //= p
            coeffs.append(1)  # monic
            if cls._is_irreducible(coeffs, p):
                return coeffs
        raise ValueError(f"no irreducible polynomial for GF({p}^{k})")

    @property
    def order(self) -> int:
        return self.p ** self.k

    def _decode(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, coeffs: list[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def add(self, a: int, b: int) -> int:
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def mul(self, a: int, b: int) -> int:
        da, db = self._decode(a), self._decode(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        rem = self._poly_mod(prod, self._modulus, self.p)
        rem += [0] * (self.k - len(rem))
        return self._encode(rem[:self.k])

    def poly_eval(self, coeffs, x: int) -> int:
        if not coeffs:
            raise ValueError("coeffs must be non-empty")
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc


def field_for_order(t: int):
    """Field context of order t for any prime power t."""
    if t < 2:
        raise ValueError(f"t={t} must be >= 2")
    if t & (t - 1) == 0:
        return find_irreducible(t.bit_length() - 1)
    if is_prime(t):
        return PrimeField(t)
    for p in _prime_factors(t):
        k = 0
        n = t
        while n % p == 0:
            n //= p
            k += 1
        if n == 1:
            return ExtensionField(p, k)
    raise ValueError(f"t={t} is not a prime power")
