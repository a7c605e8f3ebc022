"""Shared test utilities: brute-force oracles kept independent of the solvers."""

import math

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
            mask &= g.evaluate_many(pts) <= 0.0
        feas = pts[mask]
        if len(feas) == 0:
            continue
        for qi, q in enumerate(qs):
            d2 = (feas[:, 0] - q[0]) ** 2 + (feas[:, 1] - q[1]) ** 2
            m = float(np.sqrt(d2.min()))
            if m < best[qi]:
                best[qi] = m
    return best


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


def reference_kkt_state(g, x, y, lam):
    """The one-constraint KKT Newton state as composed from the polynomial's
    own kernels: (stationarity vector, g(y), grad g(y), ||F||), with
    stationarity ``(y_i - x_i) + lam * g_i`` and ``||F||`` summed in index
    order from 0.0, the value's square last.  The compiled
    ``Polynomial.kkt_kernels()`` kernels must match it bit for bit."""
    grad = g.gradient(y)
    stat = [yi - xi + lam * gi for yi, xi, gi in zip(y, x, grad)]
    v = g.evaluate(y)
    s = 0.0
    for si in stat:
        s += si * si
    return stat, v, grad, math.sqrt(s + v * v)


def reference_kkt_system(g, y, lam, stat, v, grad):
    """The bordered KKT matrix [[I + lam H, grad], [grad^T, 0]], entries
    ``0.0 + lam * h`` plus 1.0 on the diagonal, and the right-hand side
    ``-F``, built row by row from ``Polynomial.hessian_rows``.  The compiled
    ``Polynomial.kkt_kernels()`` kernels must match it bit for bit."""
    A = []
    for i, (hrow, gi) in enumerate(zip(g.hessian_rows(y), grad)):
        row = [0.0 + lam * h for h in hrow]
        row[i] += 1.0
        row.append(gi)
        A.append(row)
    A.append([*grad, 0.0])
    b = [-si for si in stat]
    b.append(-v)
    return A, b


def _dot(a, b):
    s = 0.0
    for u, v in zip(a, b):
        s += u * v
    return s


def _flat_state(y, lam, state):
    stat, v, grad, fnorm = state
    return (*y, lam, *stat, v, *grad, fnorm)


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
    cold = _flat_state(y, lam, reference_kkt_state(g, x, y, lam))
    if start is None:
        return (cold,)
    y = list(start)
    grad = g.gradient(y)
    gn2 = _dot(grad, grad)
    if gn2 <= 0.0:
        return (cold,)
    lam = max(0.0, _dot([xi - yi for xi, yi in zip(x, y)], grad) / gn2)
    warm = _flat_state(y, lam, reference_kkt_state(g, x, y, lam))
    return (warm, cold) if warm[-1] < cold[-1] else (cold,)


def reference_newton1(g, x, seed, max_iter, feas_tol, opt_tol, events=None):
    """One-constraint damped KKT Newton as a plain loop over
    ``reference_kkt_state``, ``reference_kkt_system`` and
    ``reference_solve_dense``, from a flattened ``seed`` state.  The compiled
    ``Polynomial.kkt_kernels().kkt_newton`` must match it bit for bit.

    Newton steps, each damped by Armijo halving down to t = 2^-40, run until
    |g(y)| <= feas_tol and |stat| <= opt_tol, for at most ``max_iter``
    steps; then up to two full polish steps, each kept only while ||F||
    strictly falls.  Returns None when abandoned (non-finite ||F||, a
    singular system or the backtracking floor), else (converged, y, lam,
    g(y), grad g(y)).  ``events``, when given, collects "floor",
    "not converged" and "polish rejected" as they happen."""
    events = [] if events is None else events
    n = g.dimension
    y, lam = list(seed[:n]), seed[n]
    stat, v, grad, fnorm = list(seed[n + 1 : 2 * n + 1]), seed[2 * n + 1], seed[2 * n + 2 : -1], seed[-1]

    def direction():
        return reference_solve_dense(*reference_kkt_system(g, y, lam, stat, v, grad))

    def trial(step, t):
        y_new = [yi + t * si for yi, si in zip(y, step)]
        lam_new = lam + t * step[n]
        return (y_new, lam_new) + reference_kkt_state(g, x, y_new, lam_new)

    for _ in range(max_iter):
        if not math.isfinite(fnorm):
            return None
        if abs(v) <= feas_tol and math.sqrt(_dot(stat, stat)) <= opt_tol:
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
        y, lam, stat, v, grad, fnorm = new
    else:
        events.append("not converged")
        return False, tuple(y), lam, v, tuple(grad)
    for _ in range(2):
        if fnorm == 0.0:
            break
        step = direction()
        if step is None:
            break
        new = trial(step, 1.0)
        if not math.isfinite(new[-1]) or new[-1] >= fnorm:
            events.append("polish rejected")
            break
        y, lam, stat, v, grad, fnorm = new
    return True, tuple(y), lam, v, tuple(grad)
