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
caller builds, one after another, through the kernel that
``poly.newton_kernel`` compiles for the active constraints, one or more,
cached on the set by their indices.  The kernel runs the steps and the
polish, and ``poly.solve_kernel``'s elimination code for the system size,
passed in as ``_solve_dense``, solves each bordered KKT system.  Without a
closed form, each constraint is evaluated once at the input point, and the
result's membership check reuses the Newton state's values of the active
constraints; a seed state is always built from values and gradients its
maker already holds.

The projector has one failure rule: it returns a point only when a Newton
solve converged and :func:`_accept` passed the result, and raises
:class:`ProjectionError` otherwise, as where a constraint's gradient vanishes
where the projection lands (the first set {x_1^d <= 0} of the catalog's
ex3.2): there is no KKT multiplier, so Newton does not converge.

Every projection meets two fixed module constants: its constraint residual
is at most ``FEASIBILITY_TOL`` and its first-order optimality and
complementarity defects are at most ``OPTIMALITY_TOL``, both 1e-10.

Branches (b) and (c) take the closed form that :func:`_closed_form` reads
from a set's single constraint when the set is built: an affine constraint
whose normal a has 0 < <a, a> < inf is a halfspace, ``||x||^2 + <l, x> + c``
a ball.  Every other set goes through (d)/(e) by its constraints.  The
closed form and the residual each run in one straight-line kernel per set,
compiled with the set by ``poly.halfspace_kernel``/``poly.ball_kernel`` and
``poly.residual_kernel``.  All vectors are plain tuples of floats and every
path is deterministic, so identical inputs -- the point and the optional
warm start -- give bitwise identical projections.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional, Sequence, Tuple, Union

from .poly import Polynomial, ball_kernel, halfspace_kernel, newton_kernel, residual_kernel, solve_kernel

Vector = Tuple[float, ...]


# ---------------------------------------------------------------------------
# errors


class ProjectionError(RuntimeError):
    """The projector found no KKT point within its budget, as on an empty
    set, where the constraints meet with none or where a gradient vanishes on
    the set.  Carries the least-violating point reached (else x) and its residual."""

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
    affine g whose linear part a has 0 < <a, a> < inf, or
    g = ||x||^2 + <l, x> + c (every x_i^2 coefficient exactly 1.0, no other
    term of degree >= 2) with a positive finite squared radius; None for
    anything else."""
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
        # the kernel divides by <a, a>, which must neither underflow nor overflow
        return Halfspace(tuple(linear), 0.0 - c) if 0.0 < vdot(linear, linear) < math.inf else None
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
_NEWTON_MAX_ITER = 200
_WORKING_SET_MAX_CHANGES = 20


# ---------------------------------------------------------------------------
# descriptors


class ConvexSetDescriptor:
    """One basic semi-algebraic convex set {x : g_j(x) <= 0 for all j}.

    Convexity of the constraint polynomials is trusted from the caller; it
    is not checked.
    ``analytic_hint`` is the set's closed form, the :class:`Halfspace` or
    :class:`Ball` that :func:`_closed_form` reads from a single constraint's
    coefficients, or None; the projector dispatches on it.  The set holds
    every kernel its projection runs: :func:`residual`'s, compiled with it
    from all the constraints, the closed form's, and the Newton kernel of
    each subset of active constraints, compiled on first use; all keep the
    plain loops' arithmetic.
    """

    __slots__ = ("name", "constraints", "analytic_hint", "dimension", "_residual", "_closed", "_newton_kernels")

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
        hint = _closed_form(constraints)
        object.__setattr__(self, "analytic_hint", hint)
        object.__setattr__(self, "dimension", dim)
        closed = None
        if isinstance(hint, Halfspace):
            closed = halfspace_kernel(hint.a, hint.b)
        elif isinstance(hint, Ball):
            closed = ball_kernel(hint.center, hint.radius)
        object.__setattr__(self, "_residual", residual_kernel(constraints))
        object.__setattr__(self, "_closed", closed)
        # Newton kernels by the tuple of active constraint indices, compiled on first use
        object.__setattr__(self, "_newton_kernels", {})

    def __setattr__(self, name, value):
        raise AttributeError("ConvexSetDescriptor is immutable")

    def __reduce__(self):
        # rebuilt by the constructor, which derives the closed form and
        # compiles the kernels again; the Newton kernels on first use
        return (ConvexSetDescriptor, (self.name, self.constraints))

    def __repr__(self):
        return f"ConvexSetDescriptor({self.name!r}, dim={self.dimension}, m={len(self.constraints)})"


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
    """max_j [g_j(x)]_+ ; zero exactly when x belongs to the set, NaN when a
    constraint evaluates to NaN.  Raises :class:`NumericalError` when
    evaluation overflows."""
    if len(x) != s.dimension:
        raise ValueError(f"point length {len(x)} != dimension {s.dimension}")
    kernel = s._residual
    try:
        return kernel(x)
    except OverflowError as exc:
        raise NumericalError(f"overflow evaluating the constraints of {s.name!r}") from exc


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
    closed = s._closed
    if closed is not None:  # closed forms; only the ball's returns None, on overflow
        y = closed(x)
        if y is None:
            raise NumericalError(f"overflow evaluating the constraints of {s.name!r}")
        return y
    # one pass over the constraints at x serves the feasibility test, the
    # active-set test and the cold Newton seed
    values = []
    try:
        for g in s.constraints:
            values.append(g.evaluate(x))
    except OverflowError as exc:
        # residual stops at a NaN value, so an overflow past one is met
        # while projecting
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
    """max_j [v_j]_+ of the constraint values, as :func:`residual` takes it:
    zero exactly when every value is <= 0, NaN at the first NaN."""
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


def _solve_dense(A, b):
    """Solve A z = b (lists of rows and of values) by ``poly.solve_kernel``
    of ``len(b)``; None if a pivot is zero or non-finite.  ``A`` and ``b``
    are left unchanged."""
    return solve_kernel(len(b))(A, b)


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
    Each attempt runs the Newton kernel of the active constraints, cached on
    the set by their indices; an attempt succeeds when the kernel converges
    and :func:`_accept` passes its point.

    Returns None when every attempt is abandoned (stall, singular Jacobian,
    out of iterations, as where a gradient vanishes on the set, negative
    multiplier, or an inactive constraint violated at the would-be
    solution); the list ``rejected``, when given, receives the point and
    multipliers of each converged attempt that :func:`_accept` turned down.
    The caller goes on to branch (e), or to its next working set.
    """
    cache, key = s._newton_kernels, tuple(active)
    newton = cache.get(key) or cache.setdefault(key, newton_kernel([s.constraints[j] for j in active]))
    for seed in seeds:
        # _solve_dense is looked up here, so a replaced solver sees every solve
        state = newton(x, seed, _solve_dense, _NEWTON_MAX_ITER, FEASIBILITY_TOL, OPTIMALITY_TOL)
        if state is None:
            continue
        y, lams, vals, _ = state
        result = _accept(s, active, y, lams, vals)
        if result is not None:
            return result
        if rejected is not None:
            rejected.append((y, lams))
    return None


def _gram(grads):
    """G G^T of the gradients, the rows of G."""
    n = len(grads[0])
    return [[sum(ga[i] * gb[i] for i in range(n)) for gb in grads] for ga in grads]


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
    best = tuple(min(reached, key=lambda y: residual(s, y)))
    feas = residual(s, best)
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
    # the least-squares multipliers minimize ||y - x + sum_j lam_j grad_j||
    rhs = [-sum(grad[i] * (y[i] - x[i]) for i in range(len(x))) for grad in grads]
    lam = _solve_dense(_gram(grads), rhs)
    return None if lam is None else (y, lam, _kkt_state(x, y, lam, vals, grads))


def _penalty_value_grad(*args):
    # no caller: the perfbench tracer wraps this name, and its count must read 0
    raise AssertionError("the penalty objective has no caller")
