"""Built-in feasibility problems with closed-form oracles.

Each entry packages a problem, a documented starting point, exact knowledge
of limits/rates where available, and scalar recurrences or closed-form
iterate formulas used to cross-validate the numerical projectors against
independent algebra.  Entries are addressable by id strings such as
``"ex5.5"`` or ``"ex5.7:d=4"``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .poly import Polynomial
from .rates import RateClass, cyclic_rate
from .sets import (
    ConvexSetDescriptor,
    FeasibilityProblem,
    Singleton,
    Vector,
    as_vector,
    project,
)

@dataclass(frozen=True)
class CatalogEntry:
    id: str
    problem: FeasibilityProblem  # the oracle's point is the limit, where known
    default_start: Vector
    theory_rate: RateClass
    documented_power: Optional[float] = None  # |exponent| of the documented decay
    closed_form: Optional[Callable[[int], Tuple[Vector, Vector]]] = None
    scalar_start: Optional[Callable[[Vector], float]] = None
    known_gap: Optional[Vector] = None  # b - a at the nearest pair; zero when the sets meet
    curve: Optional[Callable[[float], Vector]] = None

    @property
    def pair(self) -> Tuple[ConvexSetDescriptor, ConvexSetDescriptor]:
        if len(self.problem.sets) != 2:
            raise ValueError(f"{self.id} is not a two-set entry")
        return self.problem.sets[0], self.problem.sets[1]


# ---------------------------------------------------------------------------
# shared building blocks


def _disk(name: str, cx: float, cy: float) -> ConvexSetDescriptor:
    # (x - cx)^2 + (y - cy)^2 - 1, expanded
    g = Polynomial(
        2,
        {
            (2, 0): 1.0,
            (0, 2): 1.0,
            (1, 0): -2.0 * cx,
            (0, 1): -2.0 * cy,
            (0, 0): cx * cx + cy * cy - 1.0,
        },
    )
    return ConvexSetDescriptor(name, [g])


def alpha_step(alpha: float) -> float:
    """One step of the tangent-disks first-coordinate recurrence
    alpha -> 1 - (1 + alpha)/sqrt(1 + 4 alpha); 0 is its fixed point."""
    return 1.0 - (1.0 + alpha) / math.sqrt(1.0 + 4.0 * alpha)


def alpha_after(alpha0: float, steps: int) -> float:
    a = alpha0
    for _ in range(steps):
        a = 1.0 - (1.0 + a) / math.sqrt(1.0 + 4.0 * a)
    return a


def power_chain_step(y: float, d: int) -> float:
    """Solve d t^(2d-1) + t = y for t by bracketed Newton to 1e-14.

    The map t -> d t^(2d-1) + t is strictly increasing, so the root is unique
    and lies in [0, y] for y >= 0 (odd symmetry handles y < 0).
    """
    if d < 2 or d % 2:
        raise ValueError("d must be even and >= 2")
    if y == 0.0:
        return 0.0
    sign = 1.0
    if y < 0.0:
        sign, y = -1.0, -y
    lo, hi = 0.0, y
    t = y / (1.0 + d)
    for _ in range(200):
        f = d * t ** (2 * d - 1) + t - y
        if f > 0.0:
            hi = t
        else:
            lo = t
        if abs(f) <= 1e-14:
            break
        df = d * (2 * d - 1) * t ** (2 * d - 2) + 1.0
        t_new = t - f / df
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        if t_new == t:
            break
        t = t_new
    return sign * t


# ---------------------------------------------------------------------------
# entries


def example_5_1() -> CatalogEntry:
    """Four quadratic sets in the plane meeting only at the origin: two unit
    disks tangent there, the halfplane x + y <= 1, and the parabolic region
    x + (y + 2)^2 <= 4."""
    c1 = _disk("left-disk", -1.0, 0.0)
    c2 = ConvexSetDescriptor(
        "halfplane",
        [Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0})],
    )
    c3 = _disk("right-disk", 1.0, 0.0)
    # x + (y + 2)^2 - 4 = x + y^2 + 4y
    c4 = ConvexSetDescriptor(
        "parabola-region",
        [Polynomial(2, {(1, 0): 1.0, (0, 2): 1.0, (0, 1): 4.0})],
    )
    problem = FeasibilityProblem(2, (c1, c2, c3, c4), Singleton((0.0, 0.0)))
    return CatalogEntry(
        id="ex5.1",
        problem=problem,
        default_start=(1.0, 1.0),
        theory_rate=cyclic_rate(2, 2),
    )


def example_5_3(alpha: float = 0.5) -> CatalogEntry:
    """Unit disk at (-1, 0) against the halfplane {x >= alpha}.

    For alpha = 0 the sets touch at the origin and the iterates decay like
    k^(-1/2); for alpha > 0 the pair is infeasible with gap (alpha, 0) and
    the decay is geometric with ratio 1/(1 + alpha).  ``closed_form`` gives
    the iterates from the documented start b_0 = (alpha, 1), whose second
    coordinate fixes t1, the second coordinate of b_1.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    disk = _disk("left-disk", -1.0, 0.0)
    halfplane = ConvexSetDescriptor(
        "right-halfplane",
        [Polynomial(2, {(1, 0): -1.0, (0, 0): alpha})],
    )
    start = (alpha, 1.0)
    t1 = start[1] / math.sqrt((1.0 + alpha) ** 2 + start[1] ** 2)
    q = (1.0 + alpha) ** 2

    def t_of(k: int) -> float:
        # t1 / sqrt(q^(k-1) + t1^2 sum_{i<k-1} q^i), factored so q^(k-1)
        # cannot overflow for large k
        if k < 1:
            raise ValueError("closed form is defined for k >= 1")
        if q == 1.0:
            return t1 / math.sqrt(1.0 + t1 * t1 * (k - 1))
        inv = 1.0 / q
        geo = 0.0
        term = inv
        for _ in range(k - 1):
            geo += term
            term *= inv
        return t1 * q ** (-(k - 1) / 2.0) / math.sqrt(1.0 + t1 * t1 * geo)

    def closed_form(k: int) -> Tuple[Vector, Vector]:
        """b_k and a_{k+1}."""
        tk = t_of(k)
        tk1 = t_of(k + 1)
        b_k = (alpha, tk)
        a_next = (-1.0 + (1.0 + alpha) / math.sqrt((1.0 + alpha) ** 2 + tk * tk), tk1)
        return b_k, a_next

    oracle = Singleton((0.0, 0.0)) if alpha == 0.0 else None
    feasible = alpha == 0.0
    return CatalogEntry(
        id=f"ex5.3:alpha={alpha:g}",
        problem=FeasibilityProblem(2, (disk, halfplane), oracle),
        default_start=start,
        theory_rate=cyclic_rate(2, 2),
        documented_power=0.5 if feasible else None,
        closed_form=closed_form,
        known_gap=(alpha, 0.0),
    )


def example_5_5() -> CatalogEntry:
    """Two unit disks tangent at the origin, driven by alternating projections.

    Every post-projection iterate sits on one of the two boundaries, where
    the squared distance to the origin equals twice the first-coordinate
    magnitude; that magnitude follows the scalar recurrence
    :func:`alpha_step`.  The per-projection oracle index j corresponds to
    engine step j + 1 (the recurrence starts at the first on-boundary point).
    """
    A = _disk("left-disk", -1.0, 0.0)
    B = _disk("right-disk", 1.0, 0.0)
    problem = FeasibilityProblem(2, (A, B), Singleton((0.0, 0.0)))

    def scalar_start(start) -> float:
        return abs(project(A, as_vector(start))[0])

    return CatalogEntry(
        id="ex5.5",
        problem=problem,
        default_start=(0.0, 2.0),
        theory_rate=cyclic_rate(2, 2),
        documented_power=0.5,
        scalar_start=scalar_start,
        known_gap=(0.0, 0.0),
    )


def example_5_7(d: int = 2) -> CatalogEntry:
    """Left halfplane {x <= 0} against the degree-d power region {y^d <= x}.

    The pair meets only at the origin, tangentially to order d.  The
    b-iterates stay on the curve x = y^d with second coordinates obeying
    d y_{k+1}^(2d-1) + y_{k+1} = y_k (solved by :func:`power_chain_step`);
    the decay is k^(-1/(2d-2)).
    """
    if d < 2 or d % 2:
        raise ValueError("d must be even and >= 2")
    A = ConvexSetDescriptor(
        "left-halfplane",
        [Polynomial(2, {(1, 0): 1.0})],
    )
    B = ConvexSetDescriptor("power-region", [Polynomial(2, {(0, d): 1.0, (1, 0): -1.0})])
    problem = FeasibilityProblem(2, (A, B), Singleton((0.0, 0.0)))
    return CatalogEntry(
        id=f"ex5.7:d={d}",
        problem=problem,
        default_start=(1.0, 1.0),  # on the curve x = y^d
        theory_rate=cyclic_rate(2, d),
        documented_power=1.0 / (2.0 * d - 2.0),
        scalar_start=lambda start: float(start[1]),
        known_gap=(0.0, 0.0),
    )


def _quartic_ball(name: str, n: int, center1: float) -> ConvexSetDescriptor:
    # (x1 - center1)^4 + sum_{i>=2} x_i^4 - 1, expanded in x1
    c = center1
    terms = {
        tuple([4] + [0] * (n - 1)): 1.0,
        tuple([3] + [0] * (n - 1)): -4.0 * c,
        tuple([2] + [0] * (n - 1)): 6.0 * c * c,
        tuple([1] + [0] * (n - 1)): -4.0 * c**3,
        tuple([0] * n): c**4 - 1.0,
    }
    for i in range(1, n):
        e = [0] * n
        e[i] = 4
        terms[tuple(e)] = 1.0
    return ConvexSetDescriptor(name, [Polynomial(n, terms)])


def example_5_8(n: int = 2) -> CatalogEntry:
    """Two unit quartic balls in R^n centered at -e1 and 2 e1.

    The pair is infeasible with dist(A, B) = 1, attained between (0, ..., 0)
    and (1, 0, ..., 0); the gap vector is e1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rate = cyclic_rate(n, 4)  # first: it refuses an n past its range before any set is built
    A = _quartic_ball("left-quartic-ball", n, -1.0)
    B = _quartic_ball("right-quartic-ball", n, 2.0)
    problem = FeasibilityProblem(n, (A, B))
    start = [2.0] + [0.0] * (n - 1)
    if n > 1:
        start[1] = 1.0
    gap = tuple([1.0] + [0.0] * (n - 1))
    return CatalogEntry(
        id=f"ex5.8:n={n}",
        problem=problem,
        default_start=tuple(start),
        theory_rate=rate,
        known_gap=gap,
    )


def example_3_2(n: int = 2, d: int = 2) -> CatalogEntry:
    """Chain system x_1^d <= 0, x_i^d <= x_{i-1} whose solution set is {0}.

    Along the curve x(t) = (t^(d^(n-1)), ..., t) the pooled residual is
    t^(d^n) while the distance to the solution set is ||x(t)|| = O(t), the
    worst case for the error-bound exponent.  This entry exists for the
    probe; its first set has empty interior and projecting onto it raises
    ``ProjectionError``.
    """
    if d < 2 or d % 2:
        raise ValueError("d must be even and >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    rate = cyclic_rate(n, d)  # first: it refuses an (n, d) past its range before any set is built
    sets = []
    e1 = [0] * n
    e1[0] = d
    sets.append(ConvexSetDescriptor("chain-0", [Polynomial(n, {tuple(e1): 1.0})]))
    for i in range(1, n):
        e_hi = [0] * n
        e_hi[i] = d
        e_lo = [0] * n
        e_lo[i - 1] = 1
        sets.append(
            ConvexSetDescriptor(
                f"chain-{i}",
                [Polynomial(n, {tuple(e_hi): 1.0, tuple(e_lo): -1.0})],
            )
        )
    problem = FeasibilityProblem(n, tuple(sets), Singleton((0.0,) * n))

    def curve(t: float) -> Vector:
        return tuple(t ** (d ** (n - 1 - i)) for i in range(n))

    return CatalogEntry(
        id=f"ex3.2:n={n},d={d}",
        problem=problem,
        default_start=(0.0,) * n,
        theory_rate=rate,
        curve=curve,
    )


# ---------------------------------------------------------------------------
# registry


_BUILDERS: Dict[str, Callable[..., CatalogEntry]] = {
    "ex5.1": example_5_1,
    "ex5.3": example_5_3,
    "ex5.5": example_5_5,
    "ex5.7": example_5_7,
    "ex5.8": example_5_8,
    "ex3.2": example_3_2,
}


def default_ids():
    return sorted(_BUILDERS)


def get_entry(entry_id: str) -> CatalogEntry:
    """Build the entry for an id like ``"ex5.5"`` or ``"ex5.7:d=4"``."""
    base, _, suffix = entry_id.partition(":")
    if base not in _BUILDERS:
        raise ValueError(f"unknown catalog id {entry_id!r}; known: {default_ids()}")
    builder = _BUILDERS[base]
    params = inspect.signature(builder).parameters
    kwargs = {}
    if suffix:
        for part in suffix.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if not value:
                raise ValueError(f"malformed parameter {part!r} in {entry_id!r}")
            if key not in params:
                known = ", ".join(params) or "no parameters"
                raise ValueError(f"unknown parameter {key!r} in {entry_id!r}; {base} takes {known}")
            if key in kwargs:
                raise ValueError(f"parameter {key!r} repeated in {entry_id!r}")
            kind = type(params[key].default)  # the builder's default fixes int or float
            try:
                kwargs[key] = kind(value)
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise ValueError(f"parameter {key!r} in {entry_id!r} must be {what}, got {value!r}") from None
    try:
        return builder(**kwargs)
    except OverflowError:  # as (1 + alpha) ** 2 for ex5.3:alpha=1e200
        given = ", ".join(map(repr, kwargs))
        raise ValueError(f"parameter {given} in {entry_id!r} is too large: the entry overflows the float range") from None
