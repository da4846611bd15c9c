"""Parameter derivation for the extractor families.

All entropy quantities are binary64 reals with base-2 logarithms; final bit
counts are rounded with ceilings.  The overlap parameter r of the weak design
is kept symbolic (:class:`RKind`) and expanded to a float only inside
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

TWO_E = 2.0 * math.e

# Second-to-largest eigenvalue ratio of the degree-8 expander used by the
# walk-based extractor.
LAMBDA0 = 5.0 * math.sqrt(2.0) / 8.0


class InfeasibleParameters(Exception):
    """Raised when a parameter set violates a hard precondition."""


class NoRootError(Exception):
    """Raised when a bracketing root search cannot find a sign change."""


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
    1e-12.
    """
    if not 0.0 < nu <= 0.5:
        raise ValueError(f"nu={nu} outside (0, 0.5]")

    def f(w: float) -> float:
        q = 1.0 - nu + w
        return w * math.log2(w) - q * math.log2(q)

    lo = nu * 1e-15
    hi = nu
    if not (f(lo) > 0.0 > f(hi)):
        raise NoRootError(f"no sign change on (0, {nu})")
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
        raise NoRootError(f"bisection residual too large for nu={nu}")
    return w


@dataclass
class ExtractorParams:
    """User inputs plus all derived extractor quantities.

    ``t_act`` and ``d`` stay None until a weak-design variant has been
    selected (they depend on the design's rounding of ``t_req``).
    """

    family: str                 # "xor" | "rsh" | "lu"
    n: int                      # input length, bits
    m: int                      # output length, bits
    alpha: float                # source min-entropy rate, k_src = alpha*n
    eps: float                  # error per output bit
    r_kind: RKind
    k: float                    # required source min-entropy, bits
    t_req: int                  # one-bit extractor seed length, bits
    ell: int                    # XOR sample count / hash length / walk length
    feasible: bool
    gamma: float | None = None  # XOR only: mu*alpha
    mu: float | None = None     # XOR only
    nu: float | None = None     # Lu only
    c: int | None = None        # Lu only: walk sub-steps per remembered vertex
    s: int | None = None        # RSH only: block count
    t_act: int | None = None
    d: int | None = None

    @property
    def r(self) -> float:
        return self.r_kind.real


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
                    * math.log2((2.0 + math.sqrt(2.0)) / eps))
    t_req = ell * ceil_log2(n)
    k = (gamma * n + 6.0 * math.log2((1.0 + math.sqrt(2.0)) / eps)
         + math.log2(4.0 / 3.0) + r_kind.real * m)
    return ExtractorParams(
        family="xor", n=n, m=m, alpha=alpha, eps=eps, r_kind=r_kind,
        k=k, t_req=t_req, ell=ell, feasible=(k <= alpha * n and m >= 1),
        gamma=gamma, mu=mu)


def rsh_params(n: int, m: int, alpha: float, eps: float,
               r_kind: RKind = RKind.TWO_E) -> ExtractorParams:
    """Parameters of the polynomial-hashing one-bit extractor."""
    _check_common(n, m, alpha, eps)
    ell = math.ceil(math.log2(n) + 2.0 * math.log2(2.0 / eps))
    t_req = 2 * ell
    s = -(-n // ell)
    k = 4.0 * math.log2(1.0 / eps) + 6.0 + r_kind.real * m
    return ExtractorParams(
        family="rsh", n=n, m=m, alpha=alpha, eps=eps, r_kind=r_kind,
        k=k, t_req=t_req, ell=ell, feasible=(k <= alpha * n and m >= 1), s=s)


def lu_params(n: int, m: int, alpha: float, nu: float, eps: float,
              r_kind: RKind = RKind.TWO_E) -> ExtractorParams:
    """Parameters of the expander-walk one-bit extractor."""
    _check_common(n, m, alpha, eps)
    if not 0.0 < nu <= 0.5:
        raise InfeasibleParameters(f"nu={nu} outside (0, 0.5]")
    delta = (eps / (2.0 + math.sqrt(2.0))) ** 2
    try:
        w = solve_w(nu)
    except NoRootError as exc:
        raise InfeasibleParameters(f"nu={nu} unusable: {exc}") from exc
    c = math.ceil(math.log2(w) / (2.0 * math.log2(LAMBDA0)))
    denom = math.log2(1.0 - nu + w)
    if denom >= 0.0:
        raise InfeasibleParameters(
            f"log2(1 - nu + w) = {denom} not negative; nu={nu} unusable")
    ell = math.ceil(4.0 * math.log2(delta) / denom)
    side = math.isqrt(n)
    if side * side < n:
        side += 1
    n_v = side * side
    t_req = ceil_log2(n_v) + 3 * c * (ell - 1) + ell
    k = (binary_entropy(nu) * n
         + 6.0 * math.log2((2.0 + math.sqrt(2.0)) / eps) - 2.0 + r_kind.real * m)
    return ExtractorParams(
        family="lu", n=n, m=m, alpha=alpha, eps=eps, r_kind=r_kind,
        k=k, t_req=t_req, ell=ell, feasible=(k <= alpha * n and m >= 1),
        nu=nu, c=c)


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
