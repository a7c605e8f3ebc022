"""Basic semi-algebraic convex set descriptors and Euclidean projectors.

A set is described by convex polynomial constraints ``g_j(x) <= 0``.  The
projector dispatches, in order:

  (a) feasible input          -> returned unchanged,
  (b) halfspace analytic hint -> closed form,
  (c) ball analytic hint      -> closed form,
  (d) one active constraint   -> damped Newton on the KKT system, seeded
                                 from the better of a first-order step and
                                 an optional warm start, in two kernels
                                 compiled once per constraint: ``kkt_seed``
                                 makes the seeds, ``kkt_newton`` runs the
                                 steps and the polish, and elimination code
                                 compiled once per system size, passed in
                                 as ``_solve_dense``, solves each bordered
                                 KKT system,
  (e) anything else           -> quadratic-penalty continuation with
                                 gradient-descent inner solves, whose
                                 candidate active sets are finished by the
                                 same Newton solve in the list form.

Without a closed form, each constraint is evaluated once at the input point
and once per penalty rung, and the result's membership check reuses the
Newton state's values of the active constraints.  The list form of Newton,
``_newton_list``, does the kernel's float operations over lists of
constraints; it serves the penalty ladder and the rescue, which restores
feasibility when an attempt does not converge (a degenerate constraint).

Every projection meets two fixed module constants: its constraint residual
is at most ``FEASIBILITY_TOL`` and its first-order optimality and
complementarity defects are at most ``OPTIMALITY_TOL``, both 1e-10.

The only analytic hints are the halfspace and the ball, the two shapes with
a closed form; every other set goes through (d)/(e) by its constraints.  All
vectors are plain tuples of floats and every path is deterministic, so
identical inputs -- the point and the optional warm start -- give bitwise
identical projections.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .poly import Polynomial

Vector = Tuple[float, ...]


# ---------------------------------------------------------------------------
# errors


class ProjectionError(RuntimeError):
    """Projection solver failed within its iteration budget.

    Carries the best iterate found and its residuals.
    """

    def __init__(self, message, best=None, feasibility=None, optimality=None):
        super().__init__(message)
        self.best = best
        self.feasibility = feasibility
        self.optimality = optimality


class NumericalError(ProjectionError):
    """A NaN/Inf appeared during the solve."""


class CapabilityError(RuntimeError):
    """The requested check needs an exact intersection oracle that is absent."""


# ---------------------------------------------------------------------------
# small vector helpers (tuples in, tuples out; deterministic accumulation)


def vsub(a: Sequence[float], b: Sequence[float]) -> Vector:
    return tuple(map(operator.sub, a, b))


def vdot(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):  # cheaper than zip(..., strict=True)
        raise ValueError(f"vector lengths {len(a)} and {len(b)} differ")
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def vnorm(a: Sequence[float]) -> float:
    s = 0.0
    for x in a:
        s += x * x
    return math.sqrt(s)


def vdist(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise ValueError(f"vector lengths {len(a)} and {len(b)} differ")
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def as_vector(x: Sequence[float]) -> Vector:
    return tuple(map(float, x))


def finite_vector(x: Sequence[float], what: str) -> Vector:
    x = as_vector(x)
    if not all(map(math.isfinite, x)):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


# ---------------------------------------------------------------------------
# analytic hints


@dataclass(frozen=True)
class Halfspace:
    """{x : <a, x> <= b}"""

    a: Vector
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        object.__setattr__(self, "b", float(self.b))
        if vnorm(self.a) == 0.0:
            raise ValueError("halfspace normal must be nonzero")

    def residual(self, x: Sequence[float]) -> float:
        return max(vdot(self.a, x) - self.b, 0.0)


@dataclass(frozen=True)
class Ball:
    """{x : ||x - center||^2 <= radius^2}"""

    center: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")

    def residual(self, x: Sequence[float]) -> float:
        # squared form, so it matches the polynomial constraint exactly
        d2 = 0.0
        for xi, ci in zip(x, self.center):
            d2 += (xi - ci) * (xi - ci)
        return max(d2 - self.radius * self.radius, 0.0)


AnalyticHint = Union[Halfspace, Ball]


# ---------------------------------------------------------------------------
# tolerances: a projection's constraint residual and its first-order
# optimality/complementarity defect

FEASIBILITY_TOL = 1e-10
OPTIMALITY_TOL = 1e-10

# solver budgets: Newton iterations, top penalty rung, gradient steps per rung
_NEWTON_MAX_ITER = 100
_PENALTY_MU_MAX = 1e12
_PENALTY_INNER_MAX_ITER = 4000

_HINT_CHECK_POINTS = 100
_HINT_CHECK_TOL = 1e-9
_HINT_CHECK_SEED = 20131116


# ---------------------------------------------------------------------------
# descriptors


class ConvexSetDescriptor:
    """One basic semi-algebraic convex set {x : g_j(x) <= 0 for all j}.

    Convexity of the constraint polynomials is trusted from the caller
    (see :func:`cycproj.poly.sample_convexity_check` for an advisory screen).
    When an analytic hint is given, construction verifies at seeded sample
    points that the constraint residual coincides with the hinted form.
    """

    __slots__ = ("name", "constraints", "analytic_hint", "dimension")

    def __init__(
        self,
        name: str,
        constraints: Sequence[Polynomial],
        analytic_hint: Optional[AnalyticHint] = None,
    ):
        constraints = tuple(constraints)
        if not constraints:
            raise ValueError(
                "constraint list must be non-empty (use -1 <= 0 for the whole space)"
            )
        dim = constraints[0].dimension
        for g in constraints:
            if g.dimension != dim:
                raise ValueError("all constraints must share the ambient dimension")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "analytic_hint", analytic_hint)
        object.__setattr__(self, "dimension", dim)
        if analytic_hint is not None:
            self._validate_hint()

    def __setattr__(self, name, value):
        raise AttributeError("ConvexSetDescriptor is immutable")

    def __reduce__(self):
        # rebuilt by the constructor, which re-validates the hint
        return (ConvexSetDescriptor, (self.name, self.constraints, self.analytic_hint))

    def __repr__(self):
        return f"ConvexSetDescriptor({self.name!r}, dim={self.dimension}, m={len(self.constraints)})"

    def _validate_hint(self):
        # sample around the ball's center or the halfspace's point nearest 0
        h = self.analytic_hint
        if isinstance(h, Ball):
            kind, center = "ball", h.center
        else:
            nn = vdot(h.a, h.a)
            kind, center = "halfspace", tuple(h.b * ai / nn for ai in h.a)
        if len(center) != self.dimension:
            raise ValueError(
                f"{kind} hint of {self.name!r} has {len(center)} coordinates, "
                f"set dimension is {self.dimension}"
            )
        rng = np.random.default_rng(_HINT_CHECK_SEED)
        pts = rng.normal(0.0, 1.5, size=(_HINT_CHECK_POINTS, self.dimension))
        for row in pts:
            x = tuple(c + v for c, v in zip(center, row))
            if not abs(self.residual(x) - h.residual(x)) <= _HINT_CHECK_TOL:  # NaN fails too
                raise ValueError(
                    f"analytic hint disagrees with constraints of {self.name!r} at {x}"
                )

    def residual(self, x: Sequence[float]) -> float:
        """max_j [g_j(x)]_+ ; zero exactly when x belongs to the set, NaN
        when a constraint evaluates to NaN.  Raises :class:`NumericalError`
        when evaluation overflows."""
        if len(x) != self.dimension:
            raise ValueError(f"point length {len(x)} != dimension {self.dimension}")
        worst = 0.0
        try:
            for g in self.constraints:
                v = g.evaluate(x)
                if v > worst:
                    worst = v
                elif v != v:
                    return v  # NaN: membership is unknown, never report 0
        except OverflowError as exc:
            raise NumericalError(f"overflow evaluating the constraints of {self.name!r}") from exc
        return worst


# ---------------------------------------------------------------------------
# intersection oracles


@dataclass(frozen=True)
class Singleton:
    point: Vector

    def __post_init__(self):
        object.__setattr__(self, "point", finite_vector(self.point, "oracle point"))

    def distance(self, x: Sequence[float]) -> float:
        return vdist(x, self.point)


class FeasibilityProblem:
    """Ambient dimension, an ordered family of sets, and optional exact
    knowledge of their intersection."""

    __slots__ = ("dimension", "sets", "max_degree", "intersection_oracle")

    def __init__(
        self,
        dimension: int,
        sets: Sequence[ConvexSetDescriptor],
        intersection_oracle: Optional[Singleton] = None,
        max_degree: Optional[int] = None,
    ):
        sets = tuple(sets)
        if not sets:
            raise ValueError("a feasibility problem needs at least one set")
        for s in sets:
            if s.dimension != dimension:
                raise ValueError(f"set {s.name!r} has dimension {s.dimension}, expected {dimension}")
        computed = max(g.degree() for s in sets for g in s.constraints)
        if max_degree is not None and max_degree != computed:
            raise ValueError(f"declared max_degree {max_degree} != computed {computed}")
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "max_degree", computed)
        object.__setattr__(self, "intersection_oracle", intersection_oracle)

    def __setattr__(self, name, value):
        raise AttributeError("FeasibilityProblem is immutable")

    def __reduce__(self):
        return (FeasibilityProblem, (self.dimension, self.sets, self.intersection_oracle))

    def __repr__(self):
        return (
            f"FeasibilityProblem(n={self.dimension}, m={len(self.sets)}, "
            f"d={self.max_degree}, oracle={self.intersection_oracle!r})"
        )


# ---------------------------------------------------------------------------
# projection


def residual(s: ConvexSetDescriptor, x: Sequence[float]) -> float:
    return s.residual(x)


def project(
    s: ConvexSetDescriptor,
    x: Sequence[float],
    start: Optional[Sequence[float]] = None,
) -> Vector:
    """Euclidean projection of ``x`` onto ``s``.

    The result y satisfies residual(s, y) <= FEASIBILITY_TOL and the
    first-order optimality/complementarity conditions within OPTIMALITY_TOL.
    Raises :class:`ProjectionError` (with best iterate attached) if no branch
    converges, :class:`NumericalError` on NaN or overflow during the solve,
    and ``ValueError`` when ``x`` has a NaN or infinite coordinate.

    ``start`` is an optional warm start: a previous projection onto the same
    set, as the drivers pass.  Only the single-active-constraint Newton
    branch uses it, and only when it is a better seed (smaller KKT residual)
    than the cold one; the result meets the same tolerances either way, and
    without ``start`` the cold path is unchanged.
    """
    x = finite_vector(x, "point to project")
    if len(x) != s.dimension:
        raise ValueError(f"point length {len(x)} != dimension {s.dimension}")
    hint = s.analytic_hint
    if hint is not None:  # closed forms
        if s.residual(x) == 0.0:
            return x
        if isinstance(hint, Halfspace):
            v = vdot(hint.a, x) - hint.b
            if v <= 0.0:
                return x
            nn = vdot(hint.a, hint.a)
            return tuple([xi - v * ai / nn for xi, ai in zip(x, hint.a)])
        dx = vsub(x, hint.center)
        nrm = vnorm(dx)
        if nrm <= hint.radius:
            return x
        f = hint.radius / nrm
        return tuple([ci + f * di for ci, di in zip(hint.center, dx)])
    # one pass over the constraints at x serves the feasibility test, the
    # active-set test and the cold Newton seed
    values = []
    try:
        for g in s.constraints:
            values.append(g.evaluate(x))
    except OverflowError as exc:
        # ConvexSetDescriptor.residual stops at a NaN value, so an overflow
        # past one is met while projecting
        nan_seen = any(v != v for v in values)
        where = "while projecting onto" if nan_seen else "evaluating the constraints of"
        raise NumericalError(f"overflow {where} {s.name!r}") from exc
    if _max_violation(values) == 0.0:
        return x
    try:
        active = [j for j, v in enumerate(values) if v > -10.0 * FEASIBILITY_TOL]
        if len(active) == 1:
            y = _kkt_newton(s, active, x, gx=values[active[0]], start=start)
            if y is not None:
                return y
        return _project_penalty(s, x)
    except OverflowError as exc:
        raise NumericalError(f"overflow while projecting onto {s.name!r}") from exc


def _max_violation(values) -> float:
    """max_j [v_j]_+ of the constraint values, as ConvexSetDescriptor.residual
    takes it: zero exactly when every value is <= 0, NaN at the first NaN."""
    worst = 0.0
    for v in values:
        if v > worst:
            worst = v
        elif v != v:
            return v
    return worst


def distance(s: ConvexSetDescriptor, x: Sequence[float]) -> float:
    """||x - P_s(x)||; exactly 0 for feasible x."""
    return vdist(as_vector(x), project(s, x))


# -- branch (d): damped Newton on the active-constraint KKT system ----------


def _compile_solver(n: int):
    """Compile ``solve(A, b)`` for n x n systems: Gaussian elimination with
    partial pivoting, unrolled into straight-line code over one local name
    per entry.  Column by column it searches the pivot (first largest
    ``abs``), returns None on a zero or non-finite pivot, swaps the pivot row
    up, and subtracts ``f * pivot row`` from each row below whose factor
    ``f`` is nonzero; then it back-substitutes from the last row.  Entries
    left of the diagonal are never read again once their column is done, so
    they are neither swapped nor updated."""
    a = [[f"a{r}_{c}" for c in range(n)] for r in range(n)]
    b = [f"b{r}" for r in range(n)]
    lines = [
        "def solve(A, b):",
        "    " + "".join("(" + "".join(f"{v}, " for v in row) + "), " for row in a) + "= A",
        "    " + "".join(f"{v}, " for v in b) + "= b",
    ]
    for col in range(n):
        below = range(col + 1, n)
        lines.append(f"    piv = {col}")
        lines.append(f"    best = abs({a[col][col]})")
        for r in below:
            lines.append(f"    v = abs({a[r][col]})")
            lines += ["    if v > best:", "        best = v", f"        piv = {r}"]
        lines += ["    if best == 0.0 or not isfinite(best):", "        return None"]
        for r in below:
            top = a[col][col:] + [b[col]]
            low = a[r][col:] + [b[r]]
            lines.append(f"    {'if' if r == col + 1 else 'elif'} piv == {r}:")
            lines.append(f"        {', '.join(top + low)} = {', '.join(low + top)}")
        if below:
            lines.append(f"    inv = 1.0 / {a[col][col]}")
        for r in below:
            lines += [f"    f = {a[r][col]} * inv", "    if f != 0.0:"]
            lines += [f"        {a[r][c]} -= f * {a[col][c]}" for c in range(col + 1, n)]
            lines.append(f"        {b[r]} -= f * {b[col]}")
    for r in range(n - 1, -1, -1):
        acc = b[r] + "".join(f" - {a[r][c]} * x{c}" for c in range(r + 1, n))
        lines.append(f"    x{r} = ({acc}) / {a[r][r]}")
    lines.append("    return [" + ", ".join(f"x{r}" for r in range(n)) + "]")
    namespace = {"__builtins__": {}, "abs": abs, "isfinite": math.isfinite}
    exec("\n".join(lines), namespace)
    return namespace["solve"]


_SOLVERS = {}  # compiled solvers by system size


def _solve_dense(A, b):
    """Solve A z = b (lists of rows and of values) by the solver compiled
    for ``len(b)`` on first use (see :func:`_compile_solver`); None if a
    pivot is zero or non-finite.  ``A`` and ``b`` are left unchanged."""
    n = len(b)
    return (_SOLVERS.get(n) or _SOLVERS.setdefault(n, _compile_solver(n)))(A, b)


def _kkt_state(gs, x, y, lams):
    """(stationarity vector, constraint values, gradients, ||F||) at
    (y, lams), where F stacks the stationarity vector and the values."""
    grads = [g.gradient(y) for g in gs]
    stat = _stationarity(x, y, lams, grads)
    vals = [g.evaluate(y) for g in gs]
    return stat, vals, grads, math.sqrt(vdot(stat, stat) + vdot(vals, vals))


def _stationarity(x, y, lams, grads):
    """y - x + sum_j lam_j grad g_j, from the gradients at y."""
    stat = [yi - xi for yi, xi in zip(y, x)]
    for lam, grad in zip(lams, grads):
        for i, gi in enumerate(grad):
            stat[i] += lam * gi
    return stat


def _kkt_direction(gs, y, lams, stat, vals, grads):
    """Newton step (dy, dlams) as one list, from the bordered KKT matrix
    [[I + sum_j lam_j H_j, G], [G^T, 0]] and right-hand side -F; None if the
    matrix is singular."""
    n = len(y)
    A = []
    hessians = [g.hessian_rows(y) for g in gs]
    for i in range(n):
        row = [0.0] * n
        for lam, H in zip(lams, hessians):
            row = [a + lam * h for a, h in zip(row, H[i])]
        row[i] += 1.0
        A.append(row + [grad[i] for grad in grads])
    zeros = [0.0] * len(gs)
    for grad in grads:
        A.append(list(grad) + zeros)
    return _solve_dense(A, [-v for v in stat] + [-v for v in vals])


def _kkt_trial(gs, x, y, lams, step, t):
    """The point (y, lams) + t * step and its state."""
    y_new = [yi + t * si for yi, si in zip(y, step)]
    lam_new = [li + t * si for li, si in zip(lams, step[len(y):])]
    return (y_new, lam_new) + _kkt_state(gs, x, y_new, lam_new)


def _kkt_newton(s, active, x, gx=None, y0=None, lam0=None, start=None):
    """Damped Newton on the KKT system of the active constraints:
    y = x - sum_j lam_j grad g_j(y), g_j(y) = 0.

    With a seed ``y0``, ``lam0`` Newton runs in the list form from it.
    Without one, ``active`` holds a single constraint, whose ``kkt_seed``
    kernel makes a first-order seed from x, which needs ``gx``, the
    constraint's value at x.  ``start``, a previous projection onto the same
    set, adds a warm seed, and Newton starts from whichever of the warm and
    cold seeds has the smaller ||F||; if the warm attempt is abandoned, the
    cold seed is tried next.  Each attempt runs the ``kkt_newton`` kernel,
    and the list form's rescue takes over from its state when it does not
    converge.

    Returns None when every attempt is abandoned (stall, singular Jacobian,
    negative multiplier, or an inactive constraint violated at the would-be
    solution); the caller falls through to / continues the penalty ladder.
    """
    if y0 is not None:
        return _newton_list(s, active, x, y0, lam0)
    if start is not None and len(start) != len(x):
        raise ValueError(f"warm start has length {len(start)}, set dimension is {len(x)}")
    gs = [s.constraints[j] for j in active]
    kernels = gs[0].kkt_kernels()
    for seed in kernels.kkt_seed(x, gx, start) or ():
        # _solve_dense is looked up here, so a replaced solver sees every solve
        state = kernels.kkt_newton(
            x, seed, _solve_dense, _NEWTON_MAX_ITER, FEASIBILITY_TOL, OPTIMALITY_TOL
        )
        if state is None:
            continue
        converged, y, lam, val, grad = state
        if converged:
            y = _accept(s, active, y, [lam], [val])
        else:
            y = _rescue(s, active, gs, x, y, [val], [grad])
        if y is not None:
            return y
    return None


def _newton_list(s, active, x, y, lam):
    """Newton in the list form from (y, lam), in the order of the
    ``kkt_newton`` kernel: at most ``_NEWTON_MAX_ITER`` Armijo-damped steps
    until the state is within tolerance, then up to two full polish steps,
    which converge quadratically here and drive the residual toward machine
    precision, each kept only while ||F|| strictly falls (a step times 1.0 is
    the step itself, bit for bit).  Returns the result as :func:`_accept`
    takes it, or None when abandoned; a loop that runs out hands over to
    :func:`_rescue`."""
    gs = [s.constraints[j] for j in active]
    stat, vals, grads, fnorm = _kkt_state(gs, x, y, lam)
    for _ in range(_NEWTON_MAX_ITER):
        if not math.isfinite(fnorm):
            return None
        if max(map(abs, vals)) <= FEASIBILITY_TOL and vnorm(stat) <= OPTIMALITY_TOL:
            break
        step = _kkt_direction(gs, y, lam, stat, vals, grads)
        if step is None:
            return None
        t = 1.0
        while True:
            new = _kkt_trial(gs, x, y, lam, step, t)
            fn_new = new[-1]
            if math.isfinite(fn_new) and fn_new <= (1.0 - 1e-4 * t) * fnorm:
                break
            t *= 0.5
            if t < 2.0**-40:
                return None
        y, lam, stat, vals, grads, fnorm = new
    else:
        return _rescue(s, active, gs, x, y, vals, grads)
    for _ in range(2):
        if fnorm == 0.0:
            break
        step = _kkt_direction(gs, y, lam, stat, vals, grads)
        if step is None:
            break
        new = _kkt_trial(gs, x, y, lam, step, 1.0)
        fn_new = new[-1]
        if not math.isfinite(fn_new) or fn_new >= fnorm:
            break
        y, lam, stat, vals, grads, fnorm = new
    return _accept(s, active, y, lam, vals)


def _rescue(s, active, gs, x, y, vals, grads):
    """Finish a Newton attempt that did not converge, for degenerate
    constraints (gradients vanishing on the set, hence no finite KKT point):
    restore feasibility by Gauss-Newton steps on the worst constraint alone,
    then pick the least-squares multipliers, which minimize the stationarity
    defect achievable at the restored point.  When that point is within
    tolerance, :func:`_newton_list` polishes it from there."""
    n = len(x)
    p = len(gs)
    target = FEASIBILITY_TOL * 1e-4
    for _ in range(120):
        worst = max(range(p), key=lambda jj: abs(vals[jj]))
        v = vals[worst]
        if abs(v) <= target:
            break
        worst_grad = grads[worst]
        gn2 = vdot(worst_grad, worst_grad)
        if gn2 <= 0.0:
            break
        f = v / gn2
        y = [yi - f * gi for yi, gi in zip(y, worst_grad)]
        vals = [g.evaluate(y) for g in gs]
        grads = [g.gradient(y) for g in gs]
    if max(map(abs, vals)) > FEASIBILITY_TOL:
        return None
    G = [[grads[jj][i] for jj in range(p)] for i in range(n)]
    N = [[sum(G[i][a] * G[i][b] for i in range(n)) for b in range(p)] for a in range(p)]
    r = [-sum(G[i][a] * (y[i] - x[i]) for i in range(n)) for a in range(p)]
    lam = _solve_dense(N, r)
    if lam is None or vnorm(_stationarity(x, y, lam, grads)) > OPTIMALITY_TOL:
        return None
    return _newton_list(s, active, x, y, lam)


def _accept(s, active, y, lams, vals):
    """``tuple(y)``, or None when a multiplier is negative or the point is
    not in the set: the other constraints are evaluated and checked, then
    the active constraints' values, which are the Newton state's."""
    if any(mult < -OPTIMALITY_TOL for mult in lams):
        return None
    result = tuple(y)
    for j, other in enumerate(s.constraints):
        if j not in active and not other.evaluate(result) <= FEASIBILITY_TOL:  # NaN fails too
            return None
    if not _max_violation(vals) <= FEASIBILITY_TOL:
        return None
    return result


# -- branch (e): quadratic-penalty continuation ------------------------------


def _penalty_value_grad(s, x, y, mu):
    n = len(x)
    val = 0.0
    grad = [0.0] * n
    for yi, xi in zip(y, x):
        d = yi - xi
        val += d * d
    for i in range(n):
        grad[i] = 2.0 * (y[i] - x[i])
    for g in s.constraints:
        v = g.evaluate(y)
        if v > 0.0:
            val += mu * v * v
            gg = g.gradient(y)
            f = 2.0 * mu * v
            for i in range(n):
                grad[i] += f * gg[i]
    return val, grad


def _dependent_gradients(s, active, y) -> bool:
    """Whether the gradients of the active constraints at y are linearly
    dependent to 1e-8: their Gram determinant over the product of their
    squared norms, which is 1 for orthogonal gradients."""
    G = np.array([s.constraints[j].gradient(y) for j in active])
    gram = G @ G.T
    return bool(np.linalg.det(gram) <= 1e-8 * np.prod(np.diag(gram)))


def _project_penalty(s, x):
    """Quadratic-penalty continuation with Armijo gradient descent inner loops.

    The penalty ladder alone cannot certify 1e-10 stationarity in double
    precision (the gradient's noise floor grows like mu * eps), so once an
    inner solve has identified a candidate active set, the exact KKT system
    for that active set is polished by Newton and, when it checks out, its
    solution is returned.
    """
    y = list(x)
    mu = 1.0
    best = tuple(y)
    best_feas = s.residual(best)
    best_opt = math.inf
    tried = set()
    feas_history = []
    while mu <= _PENALTY_MU_MAX:
        inner_tol = max(OPTIMALITY_TOL, min(1e-4, 1.0 / mu))
        for _ in range(_PENALTY_INNER_MAX_ITER):
            val, grad = _penalty_value_grad(s, x, y, mu)
            if not math.isfinite(val):
                raise NumericalError(
                    "penalty objective became non-finite",
                    best=tuple(y),
                    feasibility=s.residual(tuple(y)),
                )
            gn = vnorm(grad)
            if gn <= inner_tol:
                break
            t = 1.0
            while True:
                cand = [yi - t * gi for yi, gi in zip(y, grad)]
                cval, _ = _penalty_value_grad(s, x, cand, mu)
                if math.isfinite(cval) and cval <= val - 1e-4 * t * gn * gn:
                    break
                t *= 0.5
                if t < 2.0**-60:
                    cand = y
                    break
            if cand is y:
                break
            y = cand
        yt = tuple(y)
        # one evaluation of each constraint serves the residual, the
        # complementarity term, the active-set test and the multipliers
        values = [g.evaluate(yt) for g in s.constraints]
        feas = _max_violation(values)
        if feas != feas:
            raise NumericalError("constraint residual became NaN", best=yt, feasibility=feas)
        # with lam_j = mu [g_j]_+ the stationarity defect is half the gradient
        _, grad = _penalty_value_grad(s, x, y, mu)
        opt = 0.5 * vnorm(grad)
        comp = max(mu * max(v, 0.0) ** 2 for v in values)
        if feas < best_feas or (feas == best_feas and opt < best_opt):
            best, best_feas, best_opt = yt, feas, opt
        if feas <= FEASIBILITY_TOL and opt <= OPTIMALITY_TOL and comp <= OPTIMALITY_TOL:
            return yt
        if feas <= 1e-3:
            active = [j for j, v in enumerate(values) if v > -10.0 * max(FEASIBILITY_TOL, feas)]
            key = tuple(active)
            if active and key not in tried:
                tried.add(key)
                lam0 = [mu * max(values[j], 0.0) for j in active]
                polished = _kkt_newton(s, active, x, y0=y, lam0=lam0)
                if polished is None and len(active) > 1 and _dependent_gradients(s, active, yt):
                    # dependent gradients (repeated or tangent constraints) make
                    # the KKT system singular; a subset one short may solve it
                    for i in range(len(active)):
                        subset, lams = active[:i] + active[i + 1 :], lam0[:i] + lam0[i + 1 :]
                        polished = _kkt_newton(s, subset, x, y0=y, lam0=lams)
                        if polished is not None:
                            break
                if polished is not None:
                    return polished
        # feasibility of a convergent ladder halves per rung; six doublings
        # with no real progress mean the set is empty or the solver is stuck
        feas_history.append(feas)
        if (
            len(feas_history) >= 6
            and feas > 1000.0 * FEASIBILITY_TOL
            and feas >= 0.9 * feas_history[-6]
        ):
            break
        mu *= 2.0
    raise ProjectionError(
        f"penalty continuation did not converge for set {s.name!r}",
        best=best,
        feasibility=best_feas,
        optimality=best_opt,
    )
