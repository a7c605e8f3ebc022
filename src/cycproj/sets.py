"""Basic semi-algebraic convex set descriptors and Euclidean projectors.

A set is described by convex polynomial constraints ``g_j(x) <= 0``.  The
projector dispatches, in order:

  (a) feasible input          -> returned unchanged,
  (b) one affine constraint   -> closed-form halfspace projection,
  (c) one ball constraint     -> closed-form ball projection,
  (d) one active constraint   -> damped Newton on the KKT system, seeded
                                 from the better of a first-order step and
                                 an optional warm start, both made by the
                                 constraint's ``kkt_seed`` kernel,
  (e) anything else           -> a working set of active constraints, each
                                 W solved by the Newton solve of (d): one
                                 constraint from its cold ``kkt_seed``, two
                                 or more from Gauss-Newton feasibility
                                 seeds; it adds the most violated
                                 constraint or drops one with a negative
                                 multiplier until the solution is feasible;
                                 when it finds no KKT point, as on an empty
                                 set, the projection fails at once with
                                 ``ProjectionError``.

Every Newton solve is :func:`_kkt_newton`, which runs the seed states its
caller builds, one after another, through a kernel compiled by
``poly.newton_kernel``: the constraint's own ``kkt_newton``, or, for two or
more active constraints, one cached on the set by their indices.  The
kernel runs the steps and the polish, and elimination code compiled once
per system size, passed in as ``_solve_dense``, solves each bordered KKT
system.  Without a closed form, each constraint is evaluated once at the
input point, and the result's membership check reuses the Newton state's
values of the active constraints.  When an attempt does not converge (a
degenerate constraint), the rescue restores feasibility and starts Newton
again from the state at its own last point; a seed state is always built
from values and gradients its maker already holds.

Every projection meets two fixed module constants: its constraint residual
is at most ``FEASIBILITY_TOL`` and its first-order optimality and
complementarity defects are at most ``OPTIMALITY_TOL``, both 1e-10.

Branches (b) and (c) take the closed form that :func:`_closed_form` reads
from a set's single constraint when the set is built: an affine constraint
is a halfspace, ``||x||^2 + <l, x> + c`` a ball.  Every other set goes
through (d)/(e) by its constraints.  All vectors are plain tuples of floats
and every path is deterministic, so identical inputs -- the point and the
optional warm start -- give bitwise identical projections.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional, Sequence, Tuple, Union

from .poly import Polynomial, newton_kernel

Vector = Tuple[float, ...]


# ---------------------------------------------------------------------------
# errors


class ProjectionError(RuntimeError):
    """The projector found no KKT point within its budget, as on an empty set
    or where the constraints meet with none.  Carries the least-violating
    point the solver reached (else the input point) and its residual."""

    def __init__(self, message, best=None, feasibility=None):
        super().__init__(message)
        self.best = best
        self.feasibility = feasibility


class NumericalError(ProjectionError):
    """A NaN/Inf appeared during the solve."""


class CapabilityError(RuntimeError):
    """The requested check needs an exact intersection oracle that is absent."""


# ---------------------------------------------------------------------------
# small vector helpers (tuples in, tuples out; deterministic accumulation)


def vsub(a: Sequence[float], b: Sequence[float]) -> Vector:
    if len(a) != len(b):
        raise ValueError(f"vector lengths {len(a)} and {len(b)} differ")
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


def finite_vector(x: Sequence[float], what: str, dimension: Optional[int] = None) -> Vector:
    x = as_vector(x)
    if not all(map(math.isfinite, x)):
        raise ValueError(f"{what} must be finite, got {x}")
    if dimension is not None and len(x) != dimension:
        raise ValueError(f"{what} length {len(x)} != dimension {dimension}")
    return x


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class Halfspace:
    """{x : <a, x> <= b}"""

    a: Vector
    b: float


@dataclass(frozen=True)
class Ball:
    """{x : ||x - center||^2 <= radius^2}"""

    center: Vector
    radius: float


def _closed_form(constraints: Sequence[Polynomial]) -> Optional[Union[Halfspace, Ball]]:
    """The halfspace or ball that a single constraint g <= 0 describes: an
    affine g with a nonzero linear part, or g = ||x||^2 + <l, x> + c (every
    x_i^2 coefficient exactly 1.0, no other term of degree >= 2) with a
    positive finite squared radius; None for anything else."""
    if len(constraints) != 1:
        return None
    g = constraints[0]
    linear = [0.0] * g.dimension
    squares = 0  # count of the x_i^2 terms with coefficient 1.0
    c = 0.0
    for m in g.terms:
        if m.degree == 0:
            c = m.coefficient
        elif m.degree == 1:
            linear[m.exponents.index(1)] = m.coefficient
        elif m.degree == 2 and 2 in m.exponents and m.coefficient == 1.0:
            squares += 1
        else:
            return None
    if squares == 0:
        return Halfspace(tuple(linear), 0.0 - c) if any(linear) else None
    if squares < g.dimension:
        return None
    center = tuple([-0.5 * li + 0.0 for li in linear])
    r2 = vdot(center, center) - c
    return Ball(center, math.sqrt(r2)) if 0.0 < r2 < math.inf else None


# ---------------------------------------------------------------------------
# tolerances: a projection's constraint residual and its first-order
# optimality/complementarity defect

FEASIBILITY_TOL = 1e-10
OPTIMALITY_TOL = 1e-10

# solver budgets: Newton (and Gauss-Newton seed) iterations, working-set
# changes
_NEWTON_MAX_ITER = 100
_WORKING_SET_MAX_CHANGES = 20


# ---------------------------------------------------------------------------
# descriptors


class ConvexSetDescriptor:
    """One basic semi-algebraic convex set {x : g_j(x) <= 0 for all j}.

    Convexity of the constraint polynomials is trusted from the caller; it
    is not checked.
    ``analytic_hint`` is the set's closed form, the :class:`Halfspace` or
    :class:`Ball` that :func:`_closed_form` reads from a single constraint's
    coefficients, or None; the projector dispatches on it.
    """

    __slots__ = ("name", "constraints", "analytic_hint", "dimension", "_newton_kernels")

    def __init__(self, name: str, constraints: Sequence[Polynomial]):
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
        object.__setattr__(self, "analytic_hint", _closed_form(constraints))
        object.__setattr__(self, "dimension", dim)
        # Newton kernels of two or more active constraints, by active indices
        object.__setattr__(self, "_newton_kernels", {})

    def __setattr__(self, name, value):
        raise AttributeError("ConvexSetDescriptor is immutable")

    def __reduce__(self):
        # rebuilt by the constructor, which derives the closed form again;
        # the Newton kernels are not copied but compiled again on first use
        return (ConvexSetDescriptor, (self.name, self.constraints))

    def __repr__(self):
        return f"ConvexSetDescriptor({self.name!r}, dim={self.dimension}, m={len(self.constraints)})"

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
    ):
        sets = tuple(sets)
        if not sets:
            raise ValueError("a feasibility problem needs at least one set")
        for s in sets:
            if s.dimension != dimension:
                raise ValueError(f"set {s.name!r} has dimension {s.dimension}, expected {dimension}")
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "max_degree", max(g.degree() for s in sets for g in s.constraints))
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
    x = finite_vector(x, "point", s.dimension)
    hint = s.analytic_hint
    if hint is not None:  # closed forms
        if isinstance(hint, Halfspace):
            v = vdot(hint.a, x) - hint.b
            if v <= 0.0:
                return x
            nn = vdot(hint.a, hint.a)
            return tuple([xi - v * ai / nn for xi, ai in zip(x, hint.a)])
        dx = vsub(x, hint.center)
        nrm = vnorm(dx)
        if not math.isfinite(nrm):
            raise NumericalError(f"overflow evaluating the constraints of {s.name!r}")
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
            if start is not None and len(start) != len(x):
                raise ValueError(f"warm start has length {len(start)}, set dimension is {len(x)}")
            j = active[0]
            seeds = s.constraints[j].kkt_kernels().kkt_seed(x, values[j], start) or ()
            y = _kkt_newton(s, active, x, seeds)
            if y is not None:
                return y
        return _project_penalty(s, x, values)
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


def _kkt_state(x, y, lams, vals, grads):
    """The flat Newton state at (y, lams), from the values and gradients of
    the active constraints at y: (y..., lams..., stationarity..., vals...,
    each gradient..., ||F||), where F stacks the stationarity vector and the
    values."""
    stat = _stationarity(x, y, lams, grads)
    fnorm = math.sqrt(vdot(stat, stat) + vdot(vals, vals))
    return (*y, *lams, *stat, *vals, *[gi for grad in grads for gi in grad], fnorm)


def _stationarity(x, y, lams, grads):
    """y - x + sum_j lam_j grad g_j, from the gradients at y."""
    stat = [yi - xi for yi, xi in zip(y, x)]
    for lam, grad in zip(lams, grads):
        for i, gi in enumerate(grad):
            stat[i] += lam * gi
    return stat


def _kkt_newton(s, active, x, seeds, rejected=None):
    """Damped Newton on the KKT system of the active constraints:
    y = x - sum_j lam_j grad g_j(y), g_j(y) = 0.

    Each of the ``seeds``, Newton states built by the caller (see
    :func:`_kkt_state`), starts one attempt in turn, until one succeeds.
    Each attempt runs the Newton kernel of the active constraints (one
    constraint's ``kkt_newton``, or the set's cached ``newton_kernel`` of
    several), and :func:`_rescue` takes over from its state when it does not
    converge.

    Returns None when every attempt is abandoned (stall, singular Jacobian,
    negative multiplier, or an inactive constraint violated at the would-be
    solution); the list ``rejected``, when given, receives the point and
    multipliers of each converged attempt that :func:`_accept` turned down.
    The caller goes on to branch (e), or to its next working set.
    """
    gs = [s.constraints[j] for j in active]
    if len(gs) == 1:
        newton = gs[0].kkt_kernels().kkt_newton
    else:
        cache, key = s._newton_kernels, tuple(active)
        newton = cache.get(key) or cache.setdefault(key, newton_kernel(gs))
    for seed in seeds:
        # _solve_dense is looked up here, so a replaced solver sees every solve
        state = newton(x, seed, _solve_dense, _NEWTON_MAX_ITER, FEASIBILITY_TOL, OPTIMALITY_TOL)
        if state is None:
            continue
        converged, y, lams, vals, grads = state
        if converged:
            result = _accept(s, active, y, lams, vals)
            if result is None and rejected is not None:
                rejected.append((y, lams))
        else:
            result = _rescue(s, active, gs, x, y, vals, grads)
        if result is not None:
            return result
    return None


def _rescue(s, active, gs, x, y, vals, grads):
    """Finish a Newton attempt that did not converge, for degenerate
    constraints (gradients vanishing on the set, hence no finite KKT point):
    restore feasibility by Gauss-Newton steps on the worst constraint alone,
    then pick the least-squares multipliers, which minimize the stationarity
    defect achievable at the restored point.  When that point is within
    tolerance, :func:`_kkt_newton` polishes it from there, seeded with the
    state at the point and the multipliers."""
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
    lam = _multipliers(x, y, grads, _gram(grads))
    if lam is None:
        return None
    state = _kkt_state(x, y, lam, vals, grads)
    n = len(x)
    if vnorm(state[n + p : 2 * n + p]) > OPTIMALITY_TOL:  # the stationarity defect
        return None
    return _kkt_newton(s, active, x, (state,))


def _gram(grads):
    """G G^T of the gradients, the rows of G."""
    n = len(grads[0])
    return [[sum(ga[i] * gb[i] for i in range(n)) for gb in grads] for ga in grads]


def _multipliers(x, y, grads, gram):
    """The least-squares multipliers, which minimize the stationarity defect
    ||y - x + sum_j lam_j grad_j|| at y, by the normal equations on ``gram``;
    None when it is singular."""
    n = len(x)
    return _solve_dense(gram, [-sum(grad[i] * (y[i] - x[i]) for i in range(n)) for grad in grads])


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


# -- branch (e): a working set of active constraints


def _project_penalty(s, x, values):
    """Branch (e): a primal working-set loop over the KKT Newton solves of
    (d), in the style of Goldfarb and Idnani (Math. Programming 27, 1983),
    on a set of two or more constraints, whose ``values`` at x are given.

    W starts as the most violated constraint (ordered by its value at x,
    then its index).  One constraint is solved by :func:`_kkt_newton` from
    its cold ``kkt_seed``, two or more from :func:`_feasibility_seed`,
    started at x and then at the last W's point, which is the nearer one
    when {g_j = 0 : j in W} is a curve or has several points.  A solution
    that :func:`_accept` passes is feasible with multipliers >= 0, hence
    exactly the projection for a convex set.  Otherwise the next W is read
    at the solution that :func:`_accept` turned down, or else at the seed:
    drop the constraint with the most negative multiplier, else add the one
    outside W most violated there, else any set of at most n constraints,
    smallest first.  A W whose seed system is singular (dependent
    gradients) counts its multipliers as 0.  A W is never solved twice, and
    at most ``_WORKING_SET_MAX_CHANGES`` are solved.

    When it finds no KKT point (on a single constraint, when branch (d) has
    failed, it tries none), raises :class:`ProjectionError` at once, whose
    ``best`` is the least-violating point a W was read at, or x; raises
    :class:`NumericalError` instead when a constraint is NaN at x.
    """
    order = sorted(range(len(values)), key=lambda j: (-values[j], j))
    subsets = (tuple(sorted(w)) for k in range(1, len(x) + 1) for w in combinations(order, k))
    W = (order[0],) if len(values) > 1 else None
    tried = set()
    reached = [x]
    y0 = x
    while W is not None and len(tried) < _WORKING_SET_MAX_CHANGES:
        tried.add(W)
        rejected = []
        seed = None
        if len(W) == 1:
            j = W[0]
            seeds = s.constraints[j].kkt_kernels().kkt_seed(x, values[j], None) or ()
            y = _kkt_newton(s, W, x, seeds, rejected)
            if y is None and not rejected:
                seed = _feasibility_seed(s, W, x, y0)
        else:
            y = None
            for start in (x,) if y0 is x else (x, y0):
                seed = _feasibility_seed(s, W, x, start)
                if seed is not None:
                    y = _kkt_newton(s, W, x, (seed[2],), rejected)
                    if y is not None:
                        break
        if y is not None:
            return y
        y0, lam0 = rejected[-1] if rejected else seed[:2] if seed else (y0, [0.0] * len(W))
        reached.append(y0)
        drops = sorted(
            (lam, W[:i] + W[i + 1 :]) for i, lam in enumerate(lam0) if lam < -OPTIMALITY_TOL
        )
        adds = sorted(
            (-v, tuple(sorted(W + (j,))))
            for j, v in ((j, g.evaluate(y0)) for j, g in enumerate(s.constraints) if j not in W)
            if v > FEASIBILITY_TOL
        )
        changes = [w for _, w in drops + adds]
        W = next((w for w in chain(changes, subsets) if w and w not in tried), None)
    if any(v != v for v in values):
        raise NumericalError(f"a constraint of {s.name!r} is NaN at the point", best=x)
    # x comes first, with a finite residual, so a NaN residual never wins
    best = tuple(min(reached, key=s.residual))
    feas = s.residual(best)
    raise ProjectionError(f"no KKT point found for set {s.name!r}", best=best, feasibility=feas)


def _feasibility_seed(s, active, x, y):
    """A Newton seed (y, lams, state) for projecting x with the active
    constraints: Gauss-Newton steps from y onto {g_j = 0 : j active}, each
    the least-norm step -G^T (G G^T)^-1 g(y) solved by :func:`_solve_dense`,
    then the least-squares multipliers at the end point, and the Newton
    state there.  Gradients only, no Hessian.  None when G G^T is singular
    (dependent gradients), a value is not finite or overflows, or the steps
    do not reach |g_j| <= FEASIBILITY_TOL."""
    gs = [s.constraints[j] for j in active]
    vals = [g.evaluate(y) for g in gs]
    grads = [g.gradient(y) for g in gs]
    for _ in range(_NEWTON_MAX_ITER):
        if max(map(abs, vals)) <= 1e-4 * FEASIBILITY_TOL:
            break
        z = _solve_dense(_gram(grads), vals)
        if z is None:
            return None
        for zj, grad in zip(z, grads):
            y = [yi - zj * gi for yi, gi in zip(y, grad)]
        try:
            vals = [g.evaluate(y) for g in gs]
            grads = [g.gradient(y) for g in gs]
        except OverflowError:  # a step far off the set, as when G G^T is near singular
            return None
    if not max(map(abs, vals)) <= FEASIBILITY_TOL:  # NaN fails too
        return None
    lam = _multipliers(x, y, grads, _gram(grads))
    return None if lam is None else (y, lam, _kkt_state(x, y, lam, vals, grads))


def _penalty_value_grad(*args):
    # no caller: the perfbench tracer wraps this name, and its count must read 0
    raise AssertionError("the penalty objective has no caller")
