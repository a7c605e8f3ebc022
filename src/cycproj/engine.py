"""Cyclic and two-set alternating projection drivers, plus trace diagnostics.

Both drivers are one loop, ``_run_steps``, that sweeps P_1, ..., P_m in order
and asks a stop rule at each sweep end; alternating projection is the case
m = 2 with a stop rule on the pair (a_k, b_k).

A run produces a :class:`Trace` holding every recorded projection step: the
post-step iterate, the index of the set projected onto, the residual of that
set at the pre-step point, and the step norm.  The trace is columnar: every
numeric column is an ``array`` (``'q'`` for the step and set indices, ``'d'``
for the residuals and step norms), and the iterates are one flat
``array('d')`` read through the :class:`Points` view, so a recorded step of
an n-dimensional run holds 8(n + 4) bytes.  Long runs switch to thinned
recording (dense head, geometrically spaced checkpoints, the final sweep).
Runs are strictly sequential and deterministic; traces are immutable once
returned.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from itertools import chain, compress
from typing import Callable, List, Optional, Sequence, Tuple

from .poly import distance_kernel
from .sets import (
    CapabilityError,
    ConvexSetDescriptor,
    FeasibilityProblem,
    ProjectionError,
    Vector,
    feasible,
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

    def __init__(self, message, step_index, set_index, partial_trace):
        super().__init__(message)
        self.step_index = step_index
        self.set_index = set_index
        self.partial_trace = partial_trace


class Points(SequenceABC):
    """Read-only sequence of the points stored row by row in one flat
    ``array('d')``: item i is the tuple ``flat[i*n:(i+1)*n]``.

    A slice is a list of tuples, iteration yields tuples, and the view
    compares equal to a list of the same tuples.
    """

    __slots__ = ("dimension", "flat")

    def __init__(self, dimension: int, flat: Optional[array] = None):
        self.dimension = dimension
        self.flat = array("d") if flat is None else flat

    @classmethod
    def of(cls, dimension: int, points) -> "Points":
        """The view of ``points`` (a Points or any iterable of n-vectors)."""
        if isinstance(points, Points):
            return points
        points = list(points)
        flat = array("d", chain.from_iterable(points))
        if len(flat) != dimension * len(points):
            raise ValueError(f"every point must have {dimension} coordinates")
        return cls(dimension, flat)

    def __len__(self) -> int:
        return len(self.flat) // self.dimension

    def __iter__(self):
        coords = iter(self.flat)
        return zip(*[coords] * self.dimension)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        size = len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("point index out of range")
        n = self.dimension
        return tuple(self.flat[i * n : i * n + n])

    def __eq__(self, other):
        if isinstance(other, Points):
            return self.dimension == other.dimension and self.flat == other.flat
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Points({self.dimension}, {list(self)!r})"


@dataclass
class Trace:
    """Recorded history of one projection run.

    ``ks`` are the recorded step indices (k >= 1, strictly increasing); the
    parallel columns hold the iterate reached at step k, the set projected
    onto, the residual of that set before the step, and the step norm.
    Every numeric column is an ``array``: ``ks`` and ``set_indices`` are
    ``array('q')``, ``residuals_before`` and ``step_norms`` are
    ``array('d')``, and ``iterates`` is a :class:`Points` view of one flat
    ``array('d')``; plain lists are converted on construction.  ``x0`` is the
    start (step 0).
    """

    problem: FeasibilityProblem
    x0: Vector
    ks: array
    iterates: Points
    set_indices: array
    residuals_before: array
    step_norms: array
    sets_per_sweep: int
    total_steps: int
    thinned: bool

    def __post_init__(self):
        self.iterates = Points.of(self.problem.dimension, self.iterates)
        for name, typecode in (("ks", "q"), ("set_indices", "q"), ("residuals_before", "d"), ("step_norms", "d")):
            column = getattr(self, name)
            if not isinstance(column, array):
                setattr(self, name, array(typecode, column))

    def last_iterate(self) -> Vector:
        return self.iterates[-1] if self.iterates else self.x0


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
    ``stop(moved, last)`` decides whether the run ends there: ``moved`` is
    the sweep's summed step norm, and ``last`` is the driver's own list of
    the last projection onto each set, which the driver keeps updating, so a
    rule that compares sweeps copies what it needs.  With ``stop`` None the
    run takes all ``max_sweeps`` sweeps.  Returns the trace and the last
    projection onto each set at the final sweep end, as a tuple whose last
    item is the final point.

    A run of at most ``record_cap`` steps records them all; a longer one
    records its first 10^4 steps, checkpoints at rounded powers of 1.05 and
    its final sweep, or nothing for a cap of 0.  Only a recorded step's
    pre-step residual is computed, a final sweep's when the trace is built.
    """
    m = len(problem.sets)
    max_steps = max_sweeps * m
    dense = max_steps <= record_cap
    keep = _checkpoints(max_steps) if record_cap and not dense else set()
    final_sweep = deque(maxlen=m if record_cap else 0)  # a thinned run's last m steps, each with its pre-step point
    x = x0
    last: List[Optional[Vector]] = [None] * m
    n = problem.dimension
    trace = Trace(problem, x0, array("q"), Points(n), array("q"), array("d"), array("d"), m, 0, not dense)
    ks, set_indices, flat = trace.ks, trace.set_indices, trace.iterates.flat
    add_k, add_iterate, add_set = ks.append, flat.extend, set_indices.append
    add_residual, add_step = trace.residuals_before.append, trace.step_norms.append

    def make_trace(total):
        # the final sweep replaces the recorded steps it holds
        while final_sweep and ks and ks[-1] > total - m:
            del flat[-n:]
            for column in (ks, set_indices, trace.residuals_before, trace.step_norms):
                column.pop()
        for k, y, idx, x, sn in final_sweep:
            add_k(k)
            add_iterate(y)
            add_set(idx)
            add_residual(residual(sets[idx], x))
            add_step(sn)
        trace.total_steps = total
        return trace

    def step_error(message):
        return ProjectionStepError(
            message,
            step_index=k + 1,
            set_index=idx,
            partial_trace=make_trace(k),
        )

    sets = problem.sets
    dist = distance_kernel(n)
    k = 0
    moved = 0.0
    while k < max_steps:
        idx = k % m
        s = sets[idx]
        record = dense or k + 1 in keep
        try:
            rb = residual(s, x) if record else None
            y = project(s, x, start=last[idx])
        except ProjectionError as exc:
            raise step_error(
                f"projection onto set {idx} ({s.name!r}) failed at step {k + 1}: {exc}"
            ) from exc
        if not feasible(s, y):
            raise step_error(
                f"post-projection iterate violates set {idx} ({s.name!r}) "
                f"beyond tolerance at step {k + 1}"
            )
        last[idx] = y
        sn = dist(y, x)
        k += 1
        if record:
            add_k(k)
            add_iterate(y)
            add_set(idx)
            add_residual(rb)
            add_step(sn)
        if not dense:
            final_sweep.append((k, y, idx, x, sn))
        x = y
        moved += sn
        if idx == m - 1:
            if stop is not None and stop(moved, last):
                break
            moved = 0.0
    return make_trace(k), tuple(last)


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
    x0 = finite_vector(x0, "x0", problem.dimension)
    trace, _ = _run_steps(problem, x0, max_sweeps, record_cap, lambda moved, last: moved < stop_tol)
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
    keep = [k % 2 == parity for k in combined.ks]
    flat = array("d", chain.from_iterable(compress(combined.iterates, keep)))
    columns = {name: getattr(combined, name) for name in ("ks", "set_indices", "residuals_before", "step_norms")}
    return replace(
        combined,
        iterates=Points(combined.problem.dimension, flat),
        **{name: array(column.typecode, compress(column, keep)) for name, column in columns.items()},
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
    b0 = finite_vector(b0, "b0", A.dimension)
    problem = FeasibilityProblem(A.dimension, (A, B), intersection_oracle=oracle)

    before = [None, None]  # the pair at the previous sweep end

    def pair_settled(moved, last):
        settled = before[0] is not None and vdist(last[0], before[0]) + vdist(last[1], before[1]) < stop_tol
        before[:] = last
        return settled

    combined, (a_last, b_last) = _run_steps(problem, b0, max_iters, record_cap, pair_settled)
    return AlternatingResult(
        a_trace=_subtrace(combined, 1),
        b_trace=_subtrace(combined, 0),
        combined=combined,
        gap_vector=vsub(b_last, a_last),
        limits=(a_last, b_last),
    )


@dataclass(frozen=True)
class DescentReport:
    min_slack: float
    violations: List[Tuple[int, float]]


_DESCENT_SLACK = -1e-8


def check_descent_inequality(trace: Trace, problem: FeasibilityProblem) -> DescentReport:
    """Check dist^2(x_k, C) - dist^2(x_{k+1}, C) >= ||x_{k+1} - x_k||^2 on the
    recorded consecutive steps, using the problem's exact intersection oracle.
    """
    oracle = problem.intersection_oracle
    if oracle is None:
        raise CapabilityError("descent check needs an intersection oracle")
    min_slack = math.inf
    violations = []
    paired = False
    prev_k, x_prev = 0, trace.x0
    for k, x, sn in zip(trace.ks, trace.iterates, trace.step_norms):
        if k == prev_k + 1:
            d_prev = oracle.distance(x_prev)
            d_next = oracle.distance(x)
            slack = (d_prev * d_prev - d_next * d_next) - sn * sn
            paired = True
            if slack < min_slack:
                min_slack = slack
            if slack < _DESCENT_SLACK:
                violations.append((k, slack))
        prev_k, x_prev = k, x
    if not paired:
        min_slack = 0.0
    return DescentReport(min_slack=min_slack, violations=violations)
