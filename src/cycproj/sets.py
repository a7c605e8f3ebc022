"""Basic semi-algebraic convex set descriptors and Euclidean projectors.

A set is described by convex polynomial constraints ``g_j(x) <= 0``.  The
projector dispatches, in order:

  (a) feasible input          -> returned unchanged,
  (b) one affine constraint   -> closed-form halfspace projection,
  (c) one ball constraint     -> closed-form ball projection,
  (d) anything else           -> one working-set loop, which fails at once
                                 with ``ProjectionError`` when it finds no
                                 KKT point, as on an empty set.

:func:`_closed_form` reads a constraint's closed form from its coefficients
when the set is built: an affine g whose normal a has 0 < <a, a> < inf is a
:class:`Halfspace`, ``||x||^2 + <l, x> + c`` a :class:`Ball`.  Each shape's
``compile`` gives its straight-line kernel (``poly.halfspace_kernel`` or
``poly.ball_kernel``) and |grad g|, |a| or 2r; the set's table holds that
pair or None for each constraint.  Branches (b) and (c) run the single
constraint's kernel, before (a) (a kernel returns a point of its set as it
is), and :func:`_closed_solve` that of a W of one constraint in the loop.

The loop holds a working set W of constraints as equalities.  The first W
is the constraint most violated at x.  A W of one ball or halfspace
constraint j with g_j(x) > 0, first or later, takes j's closed form y, the
one KKT point of W, with multiplier |x - y| / |grad g_j|.  Another W of one
constraint runs Newton from its ``kkt_seed`` kernel's first-order step and,
when it is the first W and its constraint the only active one, from the warm
start if that is better; two or more run it from Gauss-Newton feasibility
seeds.  A set of one constraint fails with its first W.  Otherwise, when a W
fails, :func:`_project_penalty` chooses the next: it drops a constraint with
a negative multiplier, else adds the most violated one, else takes the next
subset.  A solution that :func:`_accept` passes is feasible with
multipliers >= 0, hence exactly the projection for a convex set.

Every Newton solve is :func:`_kkt_newton`, on the kernel that
``poly.newton_kernel`` compiles for the active constraints, cached on the
set by their indices.  Outside (b) and (c), each constraint is evaluated
once at the input point.  The projector returns a point only when a solve
converged and :func:`_accept` passed it, and raises :class:`ProjectionError`
otherwise, as where a constraint's gradient vanishes where the projection
lands (ex3.2's first set {x_1^d <= 0}): there is no KKT multiplier.

The package has one scale rule, :func:`_small`: a value v of g at y is small
when ``v <= tol * max(1, sum_alpha |c_alpha| |y^alpha|)``, by the term size
``g.term_size(y)`` whose rounding v carries, so sets of scale 1e3 and more
project where absolute tests refused.  The Newton kernel's convergence test,
the Gauss-Newton seed (by |v|) and :func:`feasible`, the one membership
test, apply it.  A projection passes :func:`feasible` (``tol =
FEASIBILITY_TOL = 1e-10``), and its stationarity defect is at most
``OPTIMALITY_TOL = 1e-10`` or its rounding floor 4 eps * (1 + sum |x_i| +
sum |y_i|).  :func:`feasible` checks each solution in :func:`_accept`, each
step of ``engine._run_steps`` and the error-bound probe's center;
:func:`residual`, compiled by ``poly.residual_kernel``, returns the raw
``max_j [g_j]_+``.  All vectors are plain tuples of floats and every path
is deterministic, so identical inputs -- the point and the optional warm
start -- give bitwise identical projections.

Errors come in two kinds.  Bad input raises ``ValueError``, and
:class:`CapabilityError`, a check that needs an absent oracle, is one;
:class:`ProjectionError` and its :class:`NumericalError` are solver failures.
:func:`project` turns any ``OverflowError`` after its input checks, the ball
kernel's on a non-finite |x - c| among them, into one :class:`NumericalError`,
"overflow evaluating the constraints of" the set, as :func:`residual` does.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional, Sequence, Tuple, Union

from .poly import (Polynomial, ball_kernel, distance_kernel, halfspace_kernel, newton_kernel, residual_kernel,
                   solve_kernel)

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


class CapabilityError(ValueError):
    """The requested check needs an exact intersection oracle that is absent: an input error."""


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
    return distance_kernel(len(a))(a, b)


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

    def compile(self):
        """The compiled projection onto the halfspace and |grad g| = |a|."""
        return halfspace_kernel(self.a, self.b), vnorm(self.a)


@dataclass(frozen=True)
class Ball:
    """{x : ||x - center||^2 <= radius^2}"""

    center: Vector
    radius: float

    def compile(self):
        """The compiled projection onto the ball and |grad g| = 2r, on the sphere."""
        return ball_kernel(self.center, self.radius), 2.0 * self.radius


def _closed_form(g: Polynomial) -> Optional[Union[Halfspace, Ball]]:
    """The halfspace or ball that the constraint g <= 0 describes: an
    affine g whose linear part a has 0 < <a, a> < inf, or
    g = ||x||^2 + <l, x> + c (every x_i^2 coefficient exactly 1.0, no other
    term of degree >= 2) with a positive finite squared radius; None for
    anything else."""
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
    from all the constraints; ``_closed_forms``, one entry per constraint,
    the ``compile()`` of its closed form or None; and the Newton kernel of
    each subset of active constraints, compiled on first use.  All keep the
    plain loops' arithmetic.
    """

    __slots__ = ("name", "constraints", "analytic_hint", "dimension", "_residual", "_closed_forms", "_newton_kernels")

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
        hints = [_closed_form(g) for g in constraints]
        object.__setattr__(self, "analytic_hint", hints[0] if len(hints) == 1 else None)
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "_residual", residual_kernel(constraints))
        object.__setattr__(self, "_closed_forms", tuple(h.compile() if h else None for h in hints))
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
        if intersection_oracle is not None and not isinstance(intersection_oracle, Singleton):
            raise TypeError(f"intersection_oracle must be a Singleton or None, not {type(intersection_oracle).__name__}")
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


def _small(gs, y, values, tol=FEASIBILITY_TOL) -> bool:
    """The scale rule: whether each of ``values`` is v <= tol * max(1, g.term_size(y)) for its g of ``gs``,
    the size summed only where v > tol; NaN and infinity fail."""
    return all((v <= tol or v <= tol * g.term_size(y)) and v < math.inf for g, v in zip(gs, values))


def feasible(s: ConvexSetDescriptor, y: Sequence[float]) -> bool:
    """Whether every g_j(y) of ``s`` is :func:`_small`, the residual kernel deciding first when all are <=
    FEASIBILITY_TOL.  Raises :class:`NumericalError` when evaluation overflows."""
    return residual(s, y) <= FEASIBILITY_TOL or _small(s.constraints, y, [g.evaluate(y) for g in s.constraints])


def project(
    s: ConvexSetDescriptor,
    x: Sequence[float],
    start: Optional[Sequence[float]] = None,
) -> Vector:
    """Euclidean projection of ``x`` onto ``s``.

    The result y passes :func:`feasible` and meets the first-order
    optimality/complementarity conditions within OPTIMALITY_TOL, or within
    their rounding floor at a large scale (see the module docstring).  ``x`` is
    returned as it is only when every g_j(x) <= 0 exactly; a point that
    passes :func:`feasible` only by its tolerance is projected.
    Raises :class:`ProjectionError` (with best iterate attached) if no
    working set converges, :class:`NumericalError` on NaN or overflow during
    the solve, and ``ValueError`` when ``x`` has a NaN or infinite coordinate
    or ``start`` has the wrong length, which is checked on every path.

    ``start`` is an optional warm start: a previous projection onto the same
    set, as the drivers pass.  Only the first working set uses it, when its
    constraint is the only active one at x (value above -10 FEASIBILITY_TOL)
    and has no closed form, and ``start`` is the better seed (smaller KKT
    residual) than the cold one; the result meets the same tolerances either
    way, and without ``start`` the cold path is unchanged.
    """
    x = finite_vector(x, "point", s.dimension)
    if start is not None and len(start) != s.dimension:
        raise ValueError(f"warm start has length {len(start)}, set dimension is {s.dimension}")
    try:
        if s.analytic_hint is not None:  # branches (b) and (c)
            return s._closed_forms[0][0](x)
        # one pass over the constraints at x serves the feasibility test, the
        # active-set test and the cold Newton seed
        values = [g.evaluate(x) for g in s.constraints]
        if all(v <= 0.0 for v in values):  # NaN fails too
            return x
        # the first working set is the most violated constraint, warm started
        # when it is the only active one; a lone constraint NaN at x has none
        active = [j for j, v in enumerate(values) if v > -10.0 * FEASIBILITY_TOL]
        if len(active) == 1:
            W, warm = (active[0],), start
        else:
            W, warm = ((_by_violation(values)[0],) if len(values) > 1 else None), None
        tried = reached = None  # from the first failure on: the W's tried, the points read
        while W is not None:
            rejected, seed = [], None
            if len(W) == 1 and values[W[0]] > 0.0 and s._closed_forms[W[0]]:
                solution = _closed_solve(s, W[0], x)
                y = _accept(s, *solution)
                if y is None:
                    rejected.append(solution)
            elif len(W) == 1:
                seeds = s.constraints[W[0]].kkt_kernels().kkt_seed(x, values[W[0]], warm) or ()
                y = _kkt_newton(s, W, x, seeds, rejected)
            else:  # seeds from x, then from the last point read, the nearer one on a curve
                y = None
                for y0 in (x,) if reached[-1] is x else (x, reached[-1]):
                    seed = _feasibility_seed(s, W, x, y0)
                    if seed is not None:
                        y = _kkt_newton(s, W, x, ((*seed[0], *seed[1]),), rejected)
                        if y is not None:
                            break
            if y is not None:
                return y
            if tried is None:
                tried, reached, warm = {W}, [x], None
            W = _project_penalty(s, x, values, W, rejected, seed, tried, reached) if len(values) > 1 else None
        if any(v != v for v in values):
            raise NumericalError(f"a constraint of {s.name!r} is NaN at the point", best=x)
        # x comes first, with a finite residual, so a NaN residual never wins
        best = tuple(min(reached, key=lambda y: residual(s, y)))
        raise ProjectionError(f"no KKT point found for set {s.name!r}", best=best, feasibility=residual(s, best))
    except OverflowError as exc:
        raise NumericalError(f"overflow evaluating the constraints of {s.name!r}") from exc


def distance(s: ConvexSetDescriptor, x: Sequence[float]) -> float:
    """||x - P_s(x)||; exactly 0 for feasible x."""
    return vdist(as_vector(x), project(s, x))


# -- damped Newton on the KKT system of a working set ----------------------


def _solve_dense(A, b):
    """Solve A z = b (lists of rows and of values) by ``poly.solve_kernel``
    of ``len(b)``; None if a pivot is zero or non-finite.  ``A`` and ``b``
    are left unchanged."""
    return solve_kernel(len(b))(A, b)


def _kkt_newton(s, active, x, seeds, rejected):
    """Damped Newton on the KKT system of the active constraints:
    y = x - sum_j lam_j grad g_j(y), g_j(y) = 0.

    Each of the ``seeds``, a Newton state as ``kkt_seed`` returns it or a
    point and its multipliers ``(y..., lams...)`` (see ``poly``), starts one
    attempt in turn, until one succeeds.
    Each attempt runs the Newton kernel of the active constraints, cached on
    the set by their indices; an attempt succeeds when the kernel converges
    and :func:`_accept` passes its point.

    Returns None when every attempt is abandoned (stall, singular Jacobian,
    out of iterations, as where a gradient vanishes on the set, negative
    multiplier, or an inactive constraint violated at the would-be
    solution); the list ``rejected`` receives the point and multipliers of
    each converged attempt that :func:`_accept` turned down, where the
    caller reads its next working set.
    """
    cache, key = s._newton_kernels, tuple(active)
    newton = cache.get(key) or cache.setdefault(key, newton_kernel([s.constraints[j] for j in active]))
    for seed in seeds:
        # _solve_dense is looked up here, so a replaced solver sees every solve
        state = newton(x, seed, _solve_dense, _NEWTON_MAX_ITER, FEASIBILITY_TOL, OPTIMALITY_TOL)
        if state is None:
            continue
        result = _accept(s, *state[:2])
        if result is not None:
            return result
        rejected.append(state[:2])
    return None


def _closed_solve(s, j, x):
    """The KKT point (y, (lam,)) of W = (j,) for x outside {g_j <= 0}, a ball or a halfspace: y from the
    kernel of the constraint's ``compile``, lam = |x - y| / |grad g_j|; ``OverflowError`` where the ball's
    kernel overflows, as in branches (b) and (c)."""
    kernel, grad_norm = s._closed_forms[j]
    y = kernel(x)
    return y, (vdist(x, y) / grad_norm,)


def _gram(grads):
    """G G^T of the gradients, the rows of G."""
    n = len(grads[0])
    return [[sum(ga[i] * gb[i] for i in range(n)) for gb in grads] for ga in grads]


def _accept(s, y, lams):
    """``tuple(y)``, or None when a multiplier is negative or the point
    fails :func:`feasible`."""
    if any(mult < -OPTIMALITY_TOL for mult in lams):
        return None
    result = tuple(y)
    return result if feasible(s, result) else None


# -- the next working set


def _by_violation(values):
    """The constraint indices, most violated at x first (by value, then index)."""
    return sorted(range(len(values)), key=lambda j: (-values[j], j))


# the perfbench tracer labels a projection that calls this name "penalty"
def _project_penalty(s, x, values, W, rejected, seed, tried, reached):
    """The working set after W failed, in a primal working-set loop in the
    style of Goldfarb and Idnani (Math. Programming 27, 1983) on a set of two
    or more constraints, whose ``values`` at x are given; None when no W is
    left or ``_WORKING_SET_MAX_CHANGES`` have been tried.

    It is read at the last solution of W that :func:`_accept` turned down,
    else at W's seed (for one constraint, the :func:`_feasibility_seed` from
    the last point read), else at that point with multipliers 0: drop the
    constraint with the most negative multiplier, else add the one outside W
    most violated there, else take the first untried set of at most n
    constraints, smallest first, each ordered by violation at x.  The point
    read is appended to ``reached`` and the W returned added to ``tried``.
    """
    y0 = reached[-1]
    if len(W) == 1 and not rejected:
        seed = _feasibility_seed(s, W, x, y0)
    y0, lam0 = rejected[-1] if rejected else seed or (y0, [0.0] * len(W))
    reached.append(y0)
    drops = sorted(
        (lam, W[:i] + W[i + 1 :]) for i, lam in enumerate(lam0) if lam < -OPTIMALITY_TOL
    )
    adds = sorted(
        (-v, tuple(sorted(W + (j,))))
        for j, v in ((j, g.evaluate(y0)) for j, g in enumerate(s.constraints) if j not in W)
        if v > FEASIBILITY_TOL
    )
    if len(tried) >= _WORKING_SET_MAX_CHANGES:
        return None
    changes = [w for _, w in drops + adds]
    subsets = (tuple(sorted(w)) for k in range(1, len(x) + 1) for w in combinations(_by_violation(values), k))
    W = next((w for w in chain(changes, subsets) if w and w not in tried), None)
    tried.add(W)
    return W


def _feasibility_seed(s, active, x, y):
    """A Newton seed (y, lams) for projecting x with the active constraints:
    Gauss-Newton steps from y onto {g_j = 0 : j active}, each the least-norm
    step -G^T (G G^T)^-1 g(y) solved by :func:`_solve_dense`, then the
    least-squares multipliers at the end point.  Gradients only, no Hessian.
    None when G G^T is singular (dependent gradients), a value is not finite
    or overflows, or the steps, which stop once every |g_j| is :func:`_small`
    by 1e-4 * FEASIBILITY_TOL, end with one not small by FEASIBILITY_TOL."""
    gs = [s.constraints[j] for j in active]
    vals = [g.evaluate(y) for g in gs]
    grads = [g.gradient(y) for g in gs]
    for _ in range(_NEWTON_MAX_ITER):
        if _small(gs, y, map(abs, vals), 1e-4 * FEASIBILITY_TOL):
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
    if not _small(gs, y, map(abs, vals)):
        return None
    # the least-squares multipliers minimize ||y - x + sum_j lam_j grad_j||
    rhs = [-sum(grad[i] * (y[i] - x[i]) for i in range(len(x))) for grad in grads]
    lam = _solve_dense(_gram(grads), rhs)
    return None if lam is None else (y, lam)


def _penalty_value_grad(*args):
    # no caller: the perfbench tracer wraps this name, and its count must read 0
    raise AssertionError("the penalty objective has no caller")
