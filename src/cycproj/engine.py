"""Cyclic and two-set alternating projection drivers, plus trace diagnostics.

Both drivers are one loop, ``_run_steps``, that sweeps P_1, ..., P_m in order
and asks a stop rule at each sweep end; alternating projection is the case
m = 2 with a stop rule on the pair (a_k, b_k).

A run produces a :class:`Trace` holding every recorded projection step: the
post-step iterate, the index of the set projected onto, the residual of that
set at the pre-step point, and the step norm.  Long runs switch to thinned
recording (dense head, geometrically spaced checkpoints, the final sweep).
Runs are strictly sequential and deterministic; traces are immutable once returned.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from .sets import (
    FEASIBILITY_TOL,
    CapabilityError,
    ConvexSetDescriptor,
    FeasibilityProblem,
    ProjectionError,
    Vector,
    distance,
    finite_vector,
    project,
    residual,
    vdist,
    vnorm,
    vsub,
)

RECORD_CAP_DEFAULT = 10**6
_DENSE_HEAD = 10**4
_THIN_GROWTH = 1.05


class ProjectionStepError(RuntimeError):
    """A projection solve failed mid-run; carries the step context and the
    partial trace accumulated so far."""

    def __init__(self, message, step_index, set_index, partial_trace, cause):
        super().__init__(message)
        self.step_index = step_index
        self.set_index = set_index
        self.partial_trace = partial_trace
        self.cause = cause


@dataclass(frozen=True)
class LimitEstimate:
    point: Vector
    radius: float
    certified: bool


@dataclass
class Trace:
    """Recorded history of one projection run.

    ``ks`` are the recorded step indices (k >= 1, strictly increasing); the
    parallel lists hold the iterate reached at step k, the set projected
    onto, the residual of that set before the step, and the step norm.
    ``x0`` is the starting point (step 0).
    """

    problem: FeasibilityProblem
    x0: Vector
    ks: List[int]
    iterates: List[Vector]
    set_indices: List[int]
    residuals_before: List[float]
    step_norms: List[float]
    sets_per_sweep: int
    total_steps: int
    thinned: bool

    def last_iterate(self) -> Vector:
        return self.iterates[-1] if self.iterates else self.x0

    def sweep_points(self):
        """Recorded iterates at sweep boundaries (k multiple of m), start included."""
        m = self.sets_per_sweep
        out = [(0, self.x0)]
        for k, x in zip(self.ks, self.iterates):
            if k % m == 0:
                out.append((k, x))
        return out


def _checkpoints(max_steps: int) -> set:
    """The step indices a thinned run records: the first 10^4, then
    checkpoints at rounded powers of 1.05."""
    keep = set(range(1, _DENSE_HEAD + 1))
    level = math.log(_DENSE_HEAD + 1) / math.log(_THIN_GROWTH)
    k = _DENSE_HEAD + 1
    while k <= max_steps:
        keep.add(k)
        level += 1.0
        k = max(k + 1, round(_THIN_GROWTH**level))
    return keep


def _run_steps(
    problem: FeasibilityProblem,
    x0: Vector,
    max_sweeps: int,
    record_cap: int,
    stop: Optional[Callable[..., bool]],
):
    """Shared driver: step k+1 projects the current point onto
    problem.sets[k % m], warm-started from the last projection onto that set.

    The run is a sequence of sweeps over the m sets.  At each sweep end
    ``stop(moved, before, after)`` decides whether the run ends there:
    ``moved`` is the sweep's summed step norm, and ``before``/``after`` hold
    the last projection onto each set at the previous sweep end and at this
    one (``before`` holds None before the first sweep end).  With ``stop``
    None the run takes all ``max_sweeps`` sweeps.  Returns the trace and
    ``after`` at the final sweep end; ``after[-1]`` is the final point.

    A run of at most ``record_cap`` steps records them all; a longer one
    records its first 10^4 steps, checkpoints at rounded powers of 1.05 and
    its final sweep, or only the final sweep for a cap of 0.
    """
    m = len(problem.sets)
    max_steps = max_sweeps * m
    dense = max_steps <= record_cap
    keep = _checkpoints(max_steps) if record_cap and not dense else set()
    final_sweep = deque(maxlen=m)  # a thinned run's last m steps
    x = x0
    last: List[Optional[Vector]] = [None] * m
    before = after = (None,) * m
    ks: List[int] = []
    iterates: List[Vector] = []
    set_indices: List[int] = []
    residuals_before: List[float] = []
    step_norms: List[float] = []
    columns = (ks, iterates, set_indices, residuals_before, step_norms)

    def make_trace(total):
        # the final sweep replaces the recorded steps it holds
        while final_sweep and ks and ks[-1] > total - m:
            for column in columns:
                column.pop()
        for step in final_sweep:
            for column, value in zip(columns, step):
                column.append(value)
        return Trace(
            problem=problem,
            x0=x0,
            ks=ks,
            iterates=iterates,
            set_indices=set_indices,
            residuals_before=residuals_before,
            step_norms=step_norms,
            sets_per_sweep=m,
            total_steps=total,
            thinned=not dense,
        )

    def step_error(message, cause):
        return ProjectionStepError(
            message,
            step_index=k + 1,
            set_index=idx,
            partial_trace=make_trace(k),
            cause=cause,
        )

    sets = problem.sets
    add_k, add_iterate, add_set, add_residual, add_step = (column.append for column in columns)
    k = 0
    moved = 0.0
    while k < max_steps:
        idx = k % m
        s = sets[idx]
        try:
            rb = residual(s, x)
            y = project(s, x, start=last[idx])
        except ProjectionError as exc:
            raise step_error(
                f"projection onto set {idx} ({s.name!r}) failed at step {k + 1}: {exc}", exc
            ) from exc
        if not residual(s, y) <= FEASIBILITY_TOL:  # NaN fails too
            raise step_error(
                f"post-projection iterate violates set {idx} ({s.name!r}) "
                f"beyond tolerance at step {k + 1}",
                None,
            )
        last[idx] = y
        sn = vdist(y, x)
        k += 1
        if dense or k in keep:
            add_k(k)
            add_iterate(y)
            add_set(idx)
            add_residual(rb)
            add_step(sn)
        if not dense:
            final_sweep.append((k, y, idx, rb, sn))
        x = y
        moved += sn
        if idx == m - 1:
            after = tuple(last)
            if stop is not None and stop(moved, before, after):
                break
            before = after
            moved = 0.0
    return make_trace(k), after


def cyclic_project(
    problem: FeasibilityProblem,
    x0: Sequence[float],
    max_sweeps: int,
    stop_tol: float,
    record_cap: int = RECORD_CAP_DEFAULT,
) -> Trace:
    """Run cyclic projections P_1, P_2, ..., P_m, P_1, ... from ``x0``.

    Stops when a full sweep moves less than ``stop_tol`` in total, or after
    ``max_sweeps`` sweeps.  The intersection is assumed non-empty (oracle
    set, or asserted by the caller).
    """
    if not stop_tol > 0.0:
        raise ValueError("stop_tol must be positive")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    x0 = finite_vector(x0, "x0")
    if len(x0) != problem.dimension:
        raise ValueError(f"x0 length {len(x0)} != dimension {problem.dimension}")
    trace, _ = _run_steps(
        problem, x0, max_sweeps, record_cap, lambda moved, before, after: moved < stop_tol
    )
    return trace


@dataclass
class AlternatingResult:
    """Paired output of the two-set alternating driver.

    ``a_trace``/``b_trace`` are views of the combined run restricted to the
    A-iterates (odd combined steps) and B-iterates (even combined steps);
    ``combined`` is the full per-projection trace.  ``gap_vector`` is
    b_K - a_K at the final recorded pair, an estimate of the translation
    between the two limits (its norm estimates dist(A, B), which is attained
    for these sets).
    """

    a_trace: Trace
    b_trace: Trace
    combined: Trace
    gap_vector: Vector
    limits: Tuple[Vector, Vector]

    @property
    def gap_norm(self) -> float:
        return vnorm(self.gap_vector)


def _subtrace(combined: Trace, parity: int) -> Trace:
    sel = [i for i, k in enumerate(combined.ks) if k % 2 == parity]
    return replace(
        combined,
        ks=[combined.ks[i] for i in sel],
        iterates=[combined.iterates[i] for i in sel],
        set_indices=[combined.set_indices[i] for i in sel],
        residuals_before=[combined.residuals_before[i] for i in sel],
        step_norms=[combined.step_norms[i] for i in sel],
    )


def alternating_project(
    A: ConvexSetDescriptor,
    B: ConvexSetDescriptor,
    b0: Sequence[float],
    max_iters: int,
    stop_tol: float,
    record_cap: int = RECORD_CAP_DEFAULT,
    oracle=None,
) -> AlternatingResult:
    """Alternate a_{k+1} = P_A(b_k), b_{k+1} = P_B(a_{k+1}) from ``b0``.

    A and B may have empty intersection.  Stops when
    ||a_{k+1} - a_k|| + ||b_{k+1} - b_k|| < stop_tol, or after ``max_iters``
    pairs.  An exact oracle for A `intersect` B, when known, is attached to
    the traces so downstream error sequences use true distances.
    """
    if not stop_tol > 0.0:
        raise ValueError("stop_tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    b0 = finite_vector(b0, "b0")
    problem = FeasibilityProblem(A.dimension, (A, B), intersection_oracle=oracle)

    def pair_settled(moved, before, after):
        return (
            before[0] is not None
            and vdist(after[0], before[0]) + vdist(after[1], before[1]) < stop_tol
        )

    combined, (a_last, b_last) = _run_steps(problem, b0, max_iters, record_cap, pair_settled)
    return AlternatingResult(
        a_trace=_subtrace(combined, 1),
        b_trace=_subtrace(combined, 0),
        combined=combined,
        gap_vector=vsub(b_last, a_last),
        limits=(a_last, b_last),
    )


def estimate_limit(
    trace: Trace,
    problem: FeasibilityProblem,
    refine_sweeps: int,
) -> LimitEstimate:
    """Estimate the run's limit point with a radius bound.

    With a singleton oracle the answer is exact.  Otherwise the last iterate
    is refined by ``refine_sweeps`` extra sweeps, and the radius is twice
    the sum of its distances to the sets, flagged as uncertified.
    """
    oracle = problem.intersection_oracle
    if oracle is not None:
        return LimitEstimate(point=oracle.point, radius=0.0, certified=True)
    x = trace.last_iterate()
    if refine_sweeps > 0:
        # only the final point is used, so only the final sweep is recorded
        _, after = _run_steps(problem, x, refine_sweeps, record_cap=0, stop=None)
        x = after[-1]
    surrogate = 0.0
    for s in problem.sets:
        surrogate += distance(s, x)
    return LimitEstimate(point=x, radius=2.0 * surrogate, certified=False)


@dataclass(frozen=True)
class FejerReport:
    violations: List[Tuple[int, int]]  # (step index k, witness index)
    pairs_checked: int


_WITNESS_FEAS_TOL = 1e-8
_FEJER_SLACK = 1e-9


def check_fejer(trace: Trace, witnesses: Sequence[Sequence[float]]) -> FejerReport:
    """Verify distance monotonicity to each witness at recorded sweep ends.

    Every witness must be feasible for all of the trace's sets (residual
    <= 1e-8).  A pair (k, w) is reported when the distance to witness w
    increased by more than 1e-9 between consecutive recorded sweep ends.
    """
    ws = [finite_vector(w, f"witness {i}") for i, w in enumerate(witnesses)]
    for i, w in enumerate(ws):
        for s in trace.problem.sets:
            if not residual(s, w) <= _WITNESS_FEAS_TOL:
                raise ValueError(f"witness {i} is infeasible for set {s.name!r}")
    points = trace.sweep_points()
    violations = []
    pairs = 0
    for (k_prev, x_prev), (k_next, x_next) in zip(points, points[1:]):
        for i, w in enumerate(ws):
            pairs += 1
            if vdist(x_next, w) > vdist(x_prev, w) + _FEJER_SLACK:
                violations.append((k_next, i))
    return FejerReport(violations=violations, pairs_checked=pairs)


@dataclass(frozen=True)
class DescentReport:
    min_slack: float
    violations: List[Tuple[int, float]]
    steps_checked: int


_DESCENT_SLACK = -1e-8


def check_descent_inequality(trace: Trace, problem: FeasibilityProblem) -> DescentReport:
    """Check dist^2(x_k, C) - dist^2(x_{k+1}, C) >= ||x_{k+1} - x_k||^2 on the
    recorded consecutive steps, using the problem's exact intersection oracle.
    """
    oracle = problem.intersection_oracle
    if oracle is None:
        raise CapabilityError("descent check needs an intersection oracle")
    pairs = []
    if trace.ks and trace.ks[0] == 1:
        pairs.append((trace.x0, trace.iterates[0], trace.step_norms[0], 1))
    for i in range(len(trace.ks) - 1):
        if trace.ks[i + 1] == trace.ks[i] + 1:
            pairs.append(
                (trace.iterates[i], trace.iterates[i + 1], trace.step_norms[i + 1], trace.ks[i + 1])
            )
    min_slack = math.inf
    violations = []
    for x_prev, x_next, sn, k in pairs:
        d_prev = oracle.distance(x_prev)
        d_next = oracle.distance(x_next)
        slack = (d_prev * d_prev - d_next * d_next) - sn * sn
        if slack < min_slack:
            min_slack = slack
        if slack < _DESCENT_SLACK:
            violations.append((k, slack))
    if not pairs:
        min_slack = 0.0
    return DescentReport(min_slack=min_slack, violations=violations, steps_checked=len(pairs))
