"""Parameter derivation for the extractor families: the entropy budget k
and the one-bit extractors' free parameters (ell, c).

All entropy quantities are binary64 reals with base-2 logarithms; final bit
counts are rounded with ceilings.  The overlap parameter r of the weak design
is kept symbolic (:class:`RKind`) and expanded to a float only inside
arithmetic.

Each sizing rule has one owner.  This module owns k, ell and c; the
extractor built from them (``bitext.from_params``) owns its subseed length
t_req and its geometry; the design variant owns r
(``weakdesign.DesignVariant.r_kind``) and ``weakdesign.design_d`` owns
(t_act, d).  A parameter set for which no run exists raises
:class:`InfeasibleParameters`, whichever module finds it.
"""

from __future__ import annotations

import math
from enum import Enum

TWO_E = 2.0 * math.e

# Second-to-largest eigenvalue ratio of the degree-8 expander used by the
# walk-based extractor.
LAMBDA0 = 5.0 * math.sqrt(2.0) / 8.0


class InfeasibleParameters(ValueError):
    """Raised when a parameter set admits no extractor or no design."""


class RKind(Enum):
    """Overlap class of the weak design: 1 (block) or 2e (basic)."""

    ONE = "one"
    TWO_E = "two_e"

    @property
    def real(self) -> float:
        return 1.0 if self is RKind.ONE else TWO_E


def ceil_log2(n: int) -> int:
    """Smallest integer w with 2**w >= n, for n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length()


def binary_entropy(p: float) -> float:
    """Binary entropy h(p) = -p*log2(p) - (1-p)*log2(1-p).

    Endpoints return 0 by the limit convention.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binary_entropy_inv(y: float) -> float:
    """Inverse of binary_entropy on [0, 1/2], by bisection.

    h is strictly increasing on [0, 1/2], so the root is unique.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"y={y} outside [0, 1]")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 and abs(binary_entropy(mid) - y) < 1e-12:
            break
    return 0.5 * (lo + hi)


def solve_w(nu: float) -> float:
    """Solve w*log2(w) = (1-nu+w)*log2(1-nu+w) for w in (0, nu).

    The solution minimizes the total number of expander-walk steps.  f(w) =
    LHS - RHS changes sign on (0, nu); bisection drives the residual below
    1e-12; if it cannot, no walk length exists for this nu.
    """
    if not 0.0 < nu <= 0.5:
        raise ValueError(f"nu={nu} outside (0, 0.5]")

    def f(w: float) -> float:
        q = 1.0 - nu + w
        return w * math.log2(w) - q * math.log2(q)

    lo = nu * 1e-15
    hi = nu
    if not (lo > 0.0 and f(lo) > 0.0 > f(hi)):  # lo of a subnormal nu is 0
        raise InfeasibleParameters(f"nu={nu} unusable: no sign change on (0, {nu})")
    w = lo
    for _ in range(200):
        w = 0.5 * (lo + hi)
        fw = f(w)
        if abs(fw) < 1e-13:
            break
        if fw > 0.0:
            lo = w
        else:
            hi = w
    if abs(f(w)) >= 1e-12:
        raise InfeasibleParameters(f"nu={nu} unusable: residual too large")
    return w


class Record:
    """Equality and repr over an instance's attributes, in the order its
    ``__init__`` sets them, as a dataclass gives them; unhashable unless a
    subclass defines ``__hash__``.  Plain classes keep ``dataclasses`` (and
    with it ``inspect``) off the CLI's import path."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class ExtractorParams(Record):
    """A run's entropy budget and what ``bitext.from_params`` needs to
    build its one-bit extractor, which owns t_req."""

    def __init__(self, family: str, n: int, m: int, alpha: float,
                 r_kind: RKind, k: float, ell: int,
                 gamma: float | None = None, c: int | None = None):
        self.family = family    # "xor" | "rsh" | "lu"
        self.n = n              # input length, bits
        self.m = m              # output length, bits
        self.alpha = alpha      # source min-entropy rate, k_src = alpha*n
        self.r_kind = r_kind
        self.k = k              # required source min-entropy, bits
        self.ell = ell          # XOR sample count / hash length / walk length
        self.gamma = gamma      # XOR only: mu*alpha
        self.c = c              # Lu only: walk sub-steps per remembered vertex

    @property
    def feasible(self) -> bool:
        return self.k <= self.alpha * self.n and self.m >= 1


def _log2(x: float) -> float:
    """log2 of a ratio of eps that a tiny eps takes past the floats."""
    if not 0.0 < x < math.inf:
        raise InfeasibleParameters(f"eps too small: a sizing takes log2({x})")
    return math.log2(x)


def _check_common(n: int, m: int, alpha: float, eps: float) -> None:
    if n < 2:
        raise InfeasibleParameters(f"n={n} too small")
    if m < 0:
        raise InfeasibleParameters(f"m={m} negative")
    if not 0.0 < eps < 1.0:
        raise InfeasibleParameters(f"eps={eps} outside (0, 1)")
    if not 0.0 < alpha <= 1.0:
        raise InfeasibleParameters(f"alpha={alpha} outside (0, 1]")


def xor_params(n: int, m: int, alpha: float, mu: float, eps: float,
               r_kind: RKind = RKind.TWO_E) -> ExtractorParams:
    """Parameters of the parity-sampling (XOR) one-bit extractor."""
    _check_common(n, m, alpha, eps)
    gamma = mu * alpha
    if not 0.0 < gamma < 1.0:
        raise InfeasibleParameters(f"gamma=mu*alpha={gamma} outside (0, 1)")
    hinv = binary_entropy_inv(gamma)
    if hinv <= 0.0:
        raise InfeasibleParameters(f"binary_entropy_inv({gamma}) not positive")
    ell = math.ceil(2.0 * math.log(2.0) / hinv
                    * _log2((2.0 + math.sqrt(2.0)) / eps))
    k = (gamma * n + 6.0 * math.log2((1.0 + math.sqrt(2.0)) / eps)
         + math.log2(4.0 / 3.0) + r_kind.real * m)
    return ExtractorParams(
        family="xor", n=n, m=m, alpha=alpha, r_kind=r_kind, k=k, ell=ell,
        gamma=gamma)


def rsh_params(n: int, m: int, alpha: float, eps: float,
               r_kind: RKind = RKind.TWO_E) -> ExtractorParams:
    """Parameters of the polynomial-hashing one-bit extractor."""
    _check_common(n, m, alpha, eps)
    ell = math.ceil(math.log2(n) + 2.0 * _log2(2.0 / eps))
    k = 4.0 * math.log2(1.0 / eps) + 6.0 + r_kind.real * m
    return ExtractorParams(
        family="rsh", n=n, m=m, alpha=alpha, r_kind=r_kind, k=k, ell=ell)


def lu_params(n: int, m: int, alpha: float, nu: float, eps: float,
              r_kind: RKind = RKind.TWO_E) -> ExtractorParams:
    """Parameters of the expander-walk one-bit extractor."""
    _check_common(n, m, alpha, eps)
    if not 0.0 < nu <= 0.5:
        raise InfeasibleParameters(f"nu={nu} outside (0, 0.5]")
    delta = (eps / (2.0 + math.sqrt(2.0))) ** 2
    w = solve_w(nu)
    c = math.ceil(math.log2(w) / (2.0 * math.log2(LAMBDA0)))
    denom = math.log2(1.0 - nu + w)
    if denom >= 0.0:
        raise InfeasibleParameters(
            f"log2(1 - nu + w) = {denom} not negative; nu={nu} unusable")
    ell = math.ceil(4.0 * _log2(delta) / denom)
    k = (binary_entropy(nu) * n
         + 6.0 * math.log2((2.0 + math.sqrt(2.0)) / eps) - 2.0 + r_kind.real * m)
    return ExtractorParams(
        family="lu", n=n, m=m, alpha=alpha, r_kind=r_kind, k=k, ell=ell, c=c)


def max_output_len(family: str, n: int, alpha: float, eps: float,
                   r_kind: RKind = RKind.TWO_E,
                   mu: float | None = None, nu: float | None = None) -> int:
    """Largest m with k(m) <= alpha*n, exactly; 0 if none exists."""
    # k(m) = overhead + r*m, so k(0) is the overhead.
    overhead = derive_params(family, n, 0, alpha, eps, r_kind, mu=mu, nu=nu).k
    budget = alpha * n
    r = r_kind.real
    if overhead + r > budget:
        return 0
    m = int((budget - overhead) / r)
    # Float division can be off by one in either direction; pin it down.
    while m >= 1 and overhead + r * m > budget:
        m -= 1
    while overhead + r * (m + 1) <= budget:
        m += 1
    return max(m, 0)


def derive_params(family: str, n: int, m: int, alpha: float, eps: float,
                  r_kind: RKind = RKind.TWO_E,
                  mu: float | None = None, nu: float | None = None) -> ExtractorParams:
    """Dispatch to the per-family parameter calculator."""
    if family == "xor":
        if mu is None:
            raise InfeasibleParameters("xor needs mu")
        return xor_params(n, m, alpha, mu, eps, r_kind)
    if family == "rsh":
        return rsh_params(n, m, alpha, eps, r_kind)
    if family == "lu":
        if nu is None:
            raise InfeasibleParameters("lu needs nu")
        return lu_params(n, m, alpha, nu, eps, r_kind)
    raise ValueError(f"unknown family {family!r}")
