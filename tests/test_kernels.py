"""Compiled polynomial kernels against an interpreted reference sum.

The reference below is the plain loop over the graded-lex ordered terms:
coefficient first, then ``x_i ** e_i`` for each variable with a non-zero
exponent in index order, summed from 0.0.  The compiled kernels must match it
bit for bit, so results are compared through ``float.hex`` (the sign of zero
counts).  ``term_size`` must match ``helpers.reference_term_size``, the same
loop over absolute values.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycproj.poly import Polynomial, distance_kernel
from cycproj.sets import vdist
from helpers import reference_distance, reference_term_size


def reference_value(p, x):
    total = 0.0
    for mono in p.terms:
        t = mono.coefficient
        for xi, e in zip(x, mono.exponents):
            if e:
                t *= xi**e
        total += t
    return total


def reference_gradient(p, x):
    return tuple(reference_value(p.partial(i), x) for i in range(p.dimension))


def reference_hessian_rows(p, x):
    n = p.dimension
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        gi = p.partial(i)
        for j in range(i, n):
            rows[i][j] = rows[j][i] = reference_value(gi.partial(j), x)
    return rows


def bits(v):
    if isinstance(v, (list, tuple)):
        return [bits(u) for u in v]
    return float(v).hex()


coefficients = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-4, 4).map(float),
    st.floats(-1e-6, 1e-6, allow_nan=False),
)
coordinates = st.one_of(
    st.floats(-50.0, 50.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e-8, 1e-8, allow_nan=False),
)


@st.composite
def polynomial_and_point(draw):
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 4)] * n)
    terms = draw(st.dictionaries(exponents, coefficients, max_size=12))
    point = tuple(draw(st.lists(coordinates, min_size=n, max_size=n)))
    return Polynomial(n, terms), point


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(polynomial_and_point())
def test_kernels_match_reference_bit_for_bit(case):
    p, x = case
    assert bits(p.evaluate(x)) == bits(reference_value(p, x))
    assert bits(p.gradient(x)) == bits(reference_gradient(p, x))
    assert bits(p.hessian_rows(x)) == bits(reference_hessian_rows(p, x))
    assert bits(p.term_size(x)) == bits(reference_term_size(p, x))


def test_zero_polynomial_kernels():
    p = Polynomial(3)
    x = (1.5, -2.0, -0.0)
    assert bits(p.evaluate(x)) == bits(0.0) == bits(p.term_size(x))
    assert bits(p.gradient(x)) == bits((0.0, 0.0, 0.0))
    assert bits(p.hessian_rows(x)) == bits([[0.0] * 3] * 3)


def test_kernels_compile_for_thousands_of_terms():
    # every monomial of degree <= 21 in three variables: 2024 terms
    terms = {
        e: (-1.0) ** sum(e) / (1 + e[0] + 2 * e[1] + 3 * e[2])
        for e in itertools.product(range(22), repeat=3)
        if sum(e) <= 21
    }
    p = Polynomial(3, terms)
    assert len(p.terms) == 2024
    x = (0.3, -0.45, 0.6)
    assert bits(p.evaluate(x)) == bits(reference_value(p, x))
    assert bits(p.gradient(x)) == bits(reference_gradient(p, x))
    assert bits(p.hessian_rows(x)) == bits(reference_hessian_rows(p, x))


def test_wrong_length_point_rejected_before_and_after_compiling():
    p = Polynomial(2, {(2, 0): 1.0, (0, 1): -1.0})
    for x in [(1.0,), (1.0, 2.0, 3.0)]:
        for kernel in (p.evaluate, p.gradient, p.hessian_rows):
            with pytest.raises(ValueError, match="polynomial dimension is 2"):
                kernel(x)
    p.evaluate((1.0, 2.0))
    p.hessian_rows((1.0, 2.0))
    for x in [(1.0,), (1.0, 2.0, 3.0)]:
        for kernel in (p.evaluate, p.gradient, p.hessian_rows):
            with pytest.raises(ValueError, match="polynomial dimension is 2"):
                kernel(x)


def test_kernels_compile_lazily_per_kind():
    p = Polynomial(2, {(4, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    kernels = p._kernels
    assert (kernels.value, kernels.gradient, kernels.hessian_rows) == (None, None, None)
    p.evaluate((0.5, 0.5))
    assert kernels.value is not None
    assert kernels.gradient is None and kernels.hessian_rows is None
    p.gradient((0.5, 0.5))
    assert kernels.gradient is not None and kernels.hessian_rows is not None


def test_equality_and_hash_ignore_compiled_kernels():
    terms = {(2, 0): 1.0, (1, 1): -0.5, (0, 0): 0.25}
    p, q = Polynomial(2, terms), Polynomial(2, terms)
    before = hash(p)
    p.evaluate((1.0, 2.0))
    p.gradient((1.0, 2.0))
    assert p == q and q == p
    assert hash(p) == before == hash(q)
    assert len({p, q}) == 1
    assert p != Polynomial(2, {(2, 0): 1.0})


# -- the distance kernel and sets.vdist against a plain loop --------------------

distance_coordinates = st.one_of(
    coordinates,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e200, -1e200, math.inf, math.nan]),
    st.floats(-1e-310, 1e-310),  # subnormal
    st.floats(),
)


@st.composite
def vector_pair(draw):
    n = draw(st.integers(1, 4))
    vector = st.lists(distance_coordinates, min_size=n, max_size=n).map(tuple)
    return draw(vector), draw(vector)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(vector_pair())
def test_distance_kernel_matches_vdist_bit_for_bit(case):
    a, b = case
    assert bits(distance_kernel(len(a))(a, b)) == bits(vdist(a, b)) == bits(reference_distance(a, b))


def test_distance_kernel_keeps_signed_zeros_and_subnormals():
    for a, b in [((-0.0,), (0.0,)), ((-0.0, -0.0), (-0.0, -0.0)), ((5e-324, 0.0, -5e-324), (0.0, -5e-324, 5e-324)),
                 ((1e-160, 3e-162, 0.0, -1e-170), (-0.0, 0.0, 1e-320, 1e-170))]:
        assert bits(distance_kernel(len(a))(a, b)) == bits(reference_distance(a, b))
    assert bits(distance_kernel(1)((-0.0,), (0.0,))) == bits(0.0)


def test_distance_kernel_is_compiled_once_per_dimension():
    assert distance_kernel(3) is distance_kernel(3)
    assert distance_kernel(2) is not distance_kernel(3)
    with pytest.raises(ValueError):
        distance_kernel(2)((1.0, 2.0, 3.0), (0.0, 0.0))
