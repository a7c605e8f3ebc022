"""Projections onto generated convex sets against a KKT certificate.

For convex constraints g_j, a feasible y with x - y = sum_j lam_j grad g_j(y),
lam_j >= 0 and lam_j g_j(y) = 0 is exactly the projection of x.  The test
recomputes the certificate from ``Polynomial.gradient`` and least-squares
multipliers over the constraints active at y, or a subset of them,
independently of the solver's own Newton state.  Every generated set holds a
neighborhood of the origin, so the intersections are never empty.  A set in
R^n has up to n constraints, so the projector's working set, which adds and
drops constraints, holds up to three of them.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cycproj.poly import Polynomial
from cycproj.sets import ConvexSetDescriptor, project

small = st.floats(-0.5, 0.5, allow_nan=False)


def _unit(n, i, e):
    exps = [0] * n
    exps[i] = e
    return tuple(exps)


@st.composite
def disks(draw, n):
    """||y - c||^2 - r^2 with ||c|| < r"""
    c = draw(st.lists(small, min_size=n, max_size=n))
    r = draw(st.floats(1.0, 2.0))
    terms = {(0,) * n: sum(ci * ci for ci in c) - r * r}
    for i, ci in enumerate(c):
        terms[_unit(n, i, 2)] = 1.0
        terms[_unit(n, i, 1)] = -2.0 * ci
    return Polynomial(n, terms)


@st.composite
def halfspaces(draw, n):
    """<a, y> - b with b > 0"""
    a = draw(st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=n, max_size=n))
    a[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1.0, 1.0]))  # a != 0
    terms = {(0,) * n: -draw(st.floats(0.1, 1.0))}
    for i, ai in enumerate(a):
        if ai != 0.0:
            terms[_unit(n, i, 1)] = ai
    return Polynomial(n, terms)


@st.composite
def quartic_balls(draw, n):
    """sum_i (y_i - c_i)^4 - r^4 with sum_i c_i^4 < r^4"""
    c = draw(st.lists(small, min_size=n, max_size=n))
    r = draw(st.floats(1.0, 2.0))
    terms = {(0,) * n: sum(ci**4 for ci in c) - r**4}
    for i, ci in enumerate(c):
        for e, coeff in ((4, 1.0), (3, -4.0 * ci), (2, 6.0 * ci**2), (1, -4.0 * ci**3)):
            terms[_unit(n, i, e)] = coeff
    return Polynomial(n, terms)


@st.composite
def cases(draw):
    n = draw(st.sampled_from([2, 3]))
    shapes = st.one_of(disks(n), halfspaces(n), quartic_balls(n))
    constraints = draw(st.lists(shapes, min_size=1, max_size=n))
    x = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=n, max_size=n))
    return ConvexSetDescriptor("generated", constraints), tuple(x)


def _certifies(stat, grads, tol):
    """Whether least-squares multipliers over ``grads`` are >= -tol and
    leave a stationarity residual ||stat + sum_j lam_j grad_j|| <= tol."""
    if not grads:
        return np.linalg.norm(stat) <= tol
    G = np.array(grads).T
    lam = np.linalg.lstsq(G, -stat, rcond=None)[0]
    return lam.min() >= -tol and np.linalg.norm(stat + G @ lam) <= tol


@settings(max_examples=60, deadline=None)
@given(cases())
def test_projection_meets_the_kkt_certificate(case):
    s, x = case
    y = project(s, x)
    tol = 1e-7 * max(1.0, float(np.linalg.norm(np.subtract(x, y))))
    values = [g.evaluate(y) for g in s.constraints]
    assert max(values) <= 1e-10
    grads = [g.gradient(y) for g, v in zip(s.constraints, values) if v >= -1e-7]
    # x - y lies in the cone of the active gradients exactly when it lies in
    # the cone of a linearly independent subset of them (Caratheodory); near
    # parallel gradients make the multipliers over all of them ill-posed
    stat = np.subtract(y, x)
    assert any(
        _certifies(stat, list(subset), tol)
        for size in range(len(grads), -1, -1)
        for subset in combinations(grads, size)
    )
