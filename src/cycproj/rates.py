"""Worst-case convergence exponents for projection methods on polynomial sets.

All exponent formulas work in exact integer arithmetic and divide to float
only at the very end, so the min{...} selections can never be corrupted by
rounding.  A chosen term that leaves the 64-bit integer range raises
:class:`ExponentOverflowError` instead of silently degrading; it is a
``ValueError``, since such an (n, d) is an input error.  The other term of a
min or a max may lie past 64 bits: its bit-length estimate decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Union

_INT64_MAX = 2**63 - 1


class ExponentOverflowError(ValueError):
    """An exact integer intermediate exceeded the 64-bit contract range."""


def _past_2_64(log2: float) -> bool:
    """Whether ``log2``, an estimate (1e-12 relative), is past 64 and, below 1e12, not that near an integer."""
    return log2 > 64 and not abs(log2 - round(log2)) <= 1e-12 * log2 < 1.0


def _guard(value, what: str, log2: float = 0.0) -> int:
    """``value``, or what calling it returns, if it fits 64 bits.  Past 2^64 by ``log2`` (see :func:`_past_2_64`)
    it is refused uncomputed as a floor(log2) + 1-bit integer."""
    if _past_2_64(log2):
        raise ExponentOverflowError(f"{what} = a {math.floor(log2) + 1}-bit integer exceeds 64-bit range")
    value = value() if callable(value) else value
    if value > _INT64_MAX:
        try:
            shown = str(value)
        except ValueError:  # past the interpreter's limit on digits converted to text
            shown = f"a {value.bit_length()}-bit integer"
        raise ExponentOverflowError(f"{what} = {shown} exceeds 64-bit range")
    return value


@dataclass(frozen=True)
class Linear:
    """Geometric error decay ``M * r0^k`` (degree-1 case); r0 is not computable
    from (n, d) and is left to empirical fitting."""


@dataclass(frozen=True)
class PowerLaw:
    """Power-law error decay ``M / k^rho``."""

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")


RateClass = Union[Linear, PowerLaw]


def _least(*terms):
    """The index and :func:`_guard`-ed value of the least of ``terms``, ``(weight, value, what, log2)`` each, by
    weight (1 or 2) times value.  A term past 2^64 by its estimate exceeds twice one that fits, so it is left
    uncomputed; when all are, the first is refused."""
    exact = {i: t[1]() for i, t in enumerate(terms) if not _past_2_64(t[3])}
    i = min(exact, key=lambda i: terms[i][0] * exact[i], default=0)
    return i, _guard(exact.get(i, terms[i][1]), *terms[i][2:])


def _log2_central_binomial(s: int) -> float:
    return (math.lgamma(s + 1) - math.lgamma(s // 2 + 1) - math.lgamma(s - s // 2 + 1)) / math.log(2)


def central_binomial(s: int) -> int:
    """C(s, floor(s/2)), with the convention C(0,0) = 1."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return _guard(lambda: math.comb(s, s // 2), f"central_binomial({s})", _log2_central_binomial(s))


def kappa(n: int, d: int) -> int:
    """(d-1)^n + 1, the single-polynomial error-bound exponent denominator."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return _guard(lambda: (d - 1) ** n + 1, f"kappa({n},{d})", n * math.log2(max(d - 1, 1)))


def holder_exponent_tau(n: int, d: int) -> float:
    """Error-bound exponent max{2/kappa(n,2d), 1/(beta(n-1) d^n)}.

    Equals 1 exactly when d = 1, and 1/d when n = 1.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    # 2/k2 >= 1/b  <=>  2b >= k2, decided exactly in integers, k2 on a tie
    i, value = _least(
        (1, lambda: (2 * d - 1) ** n + 1, f"kappa({n},{2 * d})", n * math.log2(2 * d - 1)),
        (2, lambda: math.comb(n - 1, (n - 1) // 2) * d**n, f"beta({n-1})*{d}^{n}",
         _log2_central_binomial(n - 1) + n * math.log2(d)),
    )
    return 2.0 / value if i == 0 else 1.0 / value


def cyclic_rate(n: int, d: int) -> RateClass:
    """Guaranteed decay class of cyclic projections onto degree-<=d sets in R^n.

    Linear for d = 1; otherwise a power law with exponent
    1 / min{(2d-1)^n - 1, 2 beta(n-1) d^n - 2}.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if d == 1:
        return Linear()
    _, least = _least(
        (1, lambda: (2 * d - 1) ** n - 1, f"(2d-1)^n-1 for n={n}, d={d}", n * math.log2(2 * d - 1)),
        (1, lambda: 2 * math.comb(n - 1, (n - 1) // 2) * d**n - 2, f"2*beta(n-1)*d^n-2 for n={n}, d={d}",
         1 + _log2_central_binomial(n - 1) + n * math.log2(d)),
    )
    return PowerLaw(1.0 / least)


def recurrence_bound(beta0: float, p: float, deltas: Sequence[float]) -> List[float]:
    """Upper bounds for sequences obeying ``beta_{k+1} <= beta_k (1 - delta_k beta_k^p)``.

    Returns ``B_k = (beta0^{-p} + p * sum_{i<k} delta_i)^{-1/p}`` for
    k = 1..len(deltas).  With the 1/0 = +inf convention, beta0 = 0 gives all
    zeros.  Computed in the overflow-safe form
    ``beta0 * (1 + beta0^p * p * S_k)^{-1/p}``.
    """
    if p <= 0.0:
        raise ValueError("p must be > 0")
    if beta0 < 0.0:
        raise ValueError("beta0 must be >= 0")
    if any(d < 0.0 for d in deltas):
        raise ValueError("all deltas must be >= 0")
    if beta0 == 0.0:
        return [0.0] * len(deltas)
    bp = beta0**p
    acc = 0.0
    out = []
    for d in deltas:
        acc += p * d
        out.append(beta0 * (1.0 + bp * acc) ** (-1.0 / p))
    return out
