"""Shared test utilities: brute-force oracles kept independent of the solvers."""

import math
import sys

import numpy as np


def brute_force_distances(s, queries, box, step=1e-3, chunk_rows=60):
    """Grid-search distances from each query to the set.

    Scans an axis-aligned grid of the given step over ``box`` in row chunks,
    keeps grid points satisfying every constraint, and returns the minimum
    Euclidean distance per query.  Deliberately ignorant of projections.
    """
    (xlo, xhi), (ylo, yhi) = box
    xs = np.arange(xlo, xhi + 0.5 * step, step)
    ys = np.arange(ylo, yhi + 0.5 * step, step)
    qs = np.asarray(queries, dtype=float)
    best = np.full(len(qs), np.inf)
    for i0 in range(0, len(xs), chunk_rows):
        xc = xs[i0 : i0 + chunk_rows]
        X, Y = np.meshgrid(xc, ys, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        mask = np.ones(len(pts), dtype=bool)
        for g in s.constraints:
            mask &= reference_many(g, pts) <= 0.0
        feas = pts[mask]
        if len(feas) == 0:
            continue
        for qi, q in enumerate(qs):
            d2 = (feas[:, 0] - q[0]) ** 2 + (feas[:, 1] - q[1]) ** 2
            m = float(np.sqrt(d2.min()))
            if m < best[qi]:
                best[qi] = m
    return best


def reference_many(p, points):
    """The polynomial ``p`` at each row of the ``(N, n)`` array ``points``: the
    graded-lex ordered terms summed from zeros, each its coefficient times
    ``x_i ** e_i`` for the variables it uses, in index order."""
    total = np.zeros(points.shape[0])
    for mono in p.terms:
        t = np.full(points.shape[0], mono.coefficient)
        for i, e in enumerate(mono.exponents):
            if e:
                t = t * points[:, i] ** e
        total += t
    return total


def poly_multiply(p, q):
    """Exponent-map convolution product, independent of the library's algebra."""
    from cycproj.poly import Polynomial

    out = {}
    for mp in p.terms:
        for mq in q.terms:
            e = tuple(a + b for a, b in zip(mp.exponents, mq.exponents))
            out[e] = out.get(e, 0.0) + mp.coefficient * mq.coefficient
    return Polynomial(p.dimension, out)


def reference_solve_dense(A, b):
    """Gaussian elimination with partial pivoting as a plain loop, reducing
    the lists ``A`` and ``b`` in place; None on a zero or non-finite pivot.
    The compiled ``cycproj.sets._solve_dense`` must match it bit for bit."""
    n = len(b)
    for col in range(n):
        piv = col
        best = abs(A[col][col])
        for r in range(col + 1, n):
            v = abs(A[r][col])
            if v > best:
                best = v
                piv = r
        if best == 0.0 or not math.isfinite(best):
            return None
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            b[col], b[piv] = b[piv], b[col]
        prow = A[col]
        bcol = b[col]
        inv = 1.0 / prow[col]
        for r in range(col + 1, n):
            f = A[r][col] * inv
            if f != 0.0:
                row = A[r]
                for c in range(col, n):
                    row[c] -= f * prow[c]
                b[r] -= f * bcol
    out = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        row = A[r]
        for c in range(r + 1, n):
            acc -= row[c] * out[c]
        out[r] = acc / row[r]
    return out


def reference_kkt_state(gs, x, y, lams):
    """The KKT Newton state of the constraints ``gs`` as composed from the
    polynomials' own kernels: (stationarity vector, values, gradients,
    ||F||), with stationarity ``(y_i - x_i) + lam_1 * g_1i + lam_2 * g_2i
    + ...`` and ``||F||`` the root of the stationarity squares summed in
    index order from 0.0 plus the value squares summed the same way.  The
    compiled Newton kernels must match it bit for bit."""
    grads = [g.gradient(y) for g in gs]
    stat = []
    for i, (yi, xi) in enumerate(zip(y, x)):
        si = yi - xi
        for lam, grad in zip(lams, grads):
            si += lam * grad[i]
        stat.append(si)
    vals = [g.evaluate(y) for g in gs]
    return stat, vals, grads, math.sqrt(_dot(stat, stat) + _dot(vals, vals))


def reference_kkt_system(gs, y, lams, stat, vals, grads):
    """The bordered KKT matrix [[I + sum_j lam_j H_j, G], [G^T, 0]], with
    the gradients as the columns of G and entries ``0.0 + lam_1 * h_1 +
    lam_2 * h_2 + ...`` plus 1.0 on the diagonal, and the right-hand side
    ``-F``, built row by row from ``Polynomial.hessian_rows``.  The compiled
    Newton kernels must match it bit for bit."""
    hessians = [g.hessian_rows(y) for g in gs]
    A = []
    for i in range(len(y)):
        row = [0.0] * len(y)
        for lam, H in zip(lams, hessians):
            row = [a + lam * h for a, h in zip(row, H[i])]
        row[i] += 1.0
        A.append(row + [grad[i] for grad in grads])
    for grad in grads:
        A.append([*grad] + [0.0] * len(gs))
    return A, [-si for si in stat] + [-v for v in vals]


def _dot(a, b):
    s = 0.0
    for u, v in zip(a, b):
        s += u * v
    return s


def _flat_state(y, lams, state):
    stat, vals, grads, fnorm = state
    return (*y, *lams, *stat, *vals, *[gi for grad in grads for gi in grad], fnorm)


def reference_seeds1(g, x, gx, start):
    """The one-constraint KKT Newton seeds as a plain composition, each
    flattened to (y..., lam, stat..., g(y), grad..., ||F||) like the compiled
    ``Polynomial.kkt_kernels().kkt_seed``, which must match it bit for bit.
    The cold seed is the first-order step y = x - lam grad g(x) with
    lam = gx / |grad g(x)|^2; the warm seed sits at ``start`` with the
    least-squares multiplier of x - start = lam grad g(start), clipped at 0,
    and goes first when its ||F|| is smaller.  None when grad g(x) is 0."""
    grad = g.gradient(x)
    gn2 = _dot(grad, grad)
    if gn2 <= 0.0:
        return None
    lam = gx / gn2
    y = [xi - lam * gi for xi, gi in zip(x, grad)]
    cold = _flat_state(y, [lam], reference_kkt_state([g], x, y, [lam]))
    if start is None:
        return (cold,)
    y = list(start)
    grad = g.gradient(y)
    gn2 = _dot(grad, grad)
    if gn2 <= 0.0:
        return (cold,)
    lam = max(0.0, _dot([xi - yi for xi, yi in zip(x, y)], grad) / gn2)
    warm = _flat_state(y, [lam], reference_kkt_state([g], x, y, [lam]))
    return (warm, cold) if warm[-1] < cold[-1] else (cold,)


def reference_newton(gs, x, seed, max_iter, feas_tol, opt_tol, events=None):
    """Damped KKT Newton on the constraints ``gs`` as a plain loop over
    ``reference_kkt_state``, ``reference_kkt_system`` and
    ``reference_solve_dense``, from a flattened ``seed`` state (y...,
    lam..., stat..., values..., each gradient..., ||F||).  The compiled
    Newton kernel ``poly.newton_kernel`` of any number of constraints, which
    a set caches per active subset, must match it bit for bit.

    Newton steps, each damped by Armijo halving down to t = 2^-40, run until
    every |g_j(y)| <= feas_tol and |stat| <= opt_tol, for at most
    ``max_iter`` steps; then one full polish step, and a second only while
    ||F|| is above the rounding floor ``4 eps * rounding_scale(x, y, lams,
    grads)``, each kept only while ||F|| strictly falls.  Returns None when
    abandoned (non-finite ||F||, a singular system, the backtracking floor
    or ``max_iter`` steps without converging), else (y, lams, values,
    gradients).  ``events``, when given, collects "floor", "not converged",
    "polish rejected" (a polish step that does not lower ||F||) and "polish
    at floor" (the second polish step skipped at the rounding floor) as they
    happen."""
    events = [] if events is None else events
    n, p = len(x), len(gs)
    y, lams = list(seed[:n]), list(seed[n : n + p])
    stat, vals = list(seed[n + p : 2 * n + p]), list(seed[2 * n + p : 2 * n + 2 * p])
    grads = [seed[2 * n + 2 * p + k * n : 2 * n + 2 * p + (k + 1) * n] for k in range(p)]
    fnorm = seed[-1]

    def direction():
        return reference_solve_dense(*reference_kkt_system(gs, y, lams, stat, vals, grads))

    def trial(step, t):
        y_new = [yi + t * si for yi, si in zip(y, step)]
        lams_new = [li + t * si for li, si in zip(lams, step[n:])]
        return (y_new, lams_new) + reference_kkt_state(gs, x, y_new, lams_new)

    for _ in range(max_iter):
        if not math.isfinite(fnorm):
            return None
        if all(abs(v) <= feas_tol for v in vals) and math.sqrt(_dot(stat, stat)) <= opt_tol:
            break
        step = direction()
        if step is None:
            return None
        t = 1.0
        while True:
            new = trial(step, t)
            if math.isfinite(new[-1]) and new[-1] <= (1.0 - 1e-4 * t) * fnorm:
                break
            t *= 0.5
            if t < 2.0**-40:
                events.append("floor")
                return None
        y, lams, stat, vals, grads, fnorm = new
    else:
        events.append("not converged")
        return None
    for polish in range(2):
        if fnorm == 0.0:
            break
        if polish and fnorm <= 4.0 * sys.float_info.epsilon * rounding_scale(x, y, lams, grads):
            events.append("polish at floor")
            break
        step = direction()
        if step is None:
            break
        new = trial(step, 1.0)
        if not math.isfinite(new[-1]) or new[-1] >= fnorm:
            events.append("polish rejected")
            break
        y, lams, stat, vals, grads, fnorm = new
    return tuple(y), tuple(lams), tuple(vals), tuple(map(tuple, grads))


def rounding_scale(x, y, lams, grads):
    """1 + sum |x_i| + sum |y_i| + sum_j |lam_j| * sum_i |grad_j_i|, each sum
    taken in index order: ||F|| at y is known only to about eps times this."""
    total = 1.0
    for v in (*x, *y):
        total += abs(v)
    for lam, grad in zip(lams, grads):
        size = 0.0
        for gi in grad:
            size += abs(gi)
        total += abs(lam) * size
    return total


def reference_residual(s, x):
    """max_j [g_j(x)]_+ as a plain loop over ``Polynomial.evaluate``,
    returning at the first NaN value without evaluating the constraints
    after it; an overflow propagates as ``OverflowError``.  The compiled
    ``ConvexSetDescriptor.residual`` must match it bit for bit."""
    worst = 0.0
    for g in s.constraints:
        v = g.evaluate(x)
        if v > worst:
            worst = v
        elif v != v:
            return v
    return worst


def reference_halfspace(hint, x):
    """Projection onto the ``Halfspace`` {<a, x> <= b} by the vector
    helpers: x when ``vdot(a, x) - b <= 0``, else ``x_i - v * a_i / nn``."""
    from cycproj.sets import vdot

    v = vdot(hint.a, x) - hint.b
    if v <= 0.0:
        return x
    nn = vdot(hint.a, hint.a)
    return tuple([xi - v * ai / nn for xi, ai in zip(x, hint.a)])


def reference_ball(hint, x):
    """Projection onto the ``Ball`` by the vector helpers: x when
    ``vnorm(x - center) <= radius``, else ``center + (radius / nrm) * (x -
    center)``; None when the norm is not finite."""
    from cycproj.sets import vnorm, vsub

    dx = vsub(x, hint.center)
    nrm = vnorm(dx)
    if not math.isfinite(nrm):
        return None
    if nrm <= hint.radius:
        return x
    f = hint.radius / nrm
    return tuple([ci + f * di for ci, di in zip(hint.center, dx)])
