"""The compiled dense solve against the plain elimination loop.

``reference_solve_dense`` in ``helpers`` is Gaussian elimination with partial
pivoting written as loops.  ``cycproj.sets._solve_dense`` runs straight-line
code compiled per system size and must return the same solution bit for bit
(compared through ``float.hex``, so the sign of zero counts) and None exactly
when the loop does.
"""

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cycproj import poly, sets
from helpers import reference_solve_dense

entries = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.integers(-3, 3).map(float),  # exact zeros, ties between pivots
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e300]),
)
non_finite = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])
settings_ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def bits(z):
    return None if z is None else [v.hex() for v in z]


def both(A, b):
    """(reference, compiled) on separate copies; the compiled solve must
    leave its arguments unchanged."""
    A0, b0 = copy.deepcopy(A), list(b)
    ref = reference_solve_dense(copy.deepcopy(A), list(b))
    got = sets._solve_dense(A, b)
    assert bits(b) == bits(b0) and [bits(r) for r in A] == [bits(r) for r in A0]
    return ref, got


@st.composite
def systems(draw, entry=entries, min_size=1):
    n = draw(st.integers(min_size, 6))
    flat = draw(st.lists(entry, min_size=n * n + n, max_size=n * n + n))
    return [flat[r * n : (r + 1) * n] for r in range(n)], flat[n * n :]


@st.composite
def permuted_dominant_systems(draw):
    """Rows of a strictly diagonally dominant matrix, rotated, so partial
    pivoting has to swap rows to find the large entries."""
    A, b = draw(systems(entry=st.floats(-1e3, 1e3, allow_nan=False), min_size=2))
    n = len(b)
    shift = draw(st.integers(1, n - 1))
    for col in range(n):
        A[(col + shift) % n][col] = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e4, 1e6))
    return A, b


@st.composite
def singular_systems(draw):
    """A zero column, or two equal rows."""
    A, b = draw(systems())
    n = len(b)
    if draw(st.booleans()) or n == 1:
        col = draw(st.integers(0, n - 1))
        for row in A:
            row[col] = draw(st.sampled_from([0.0, -0.0]))
    else:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        A[j] = list(A[i])
    return A, b


@st.composite
def systems_with_non_finite_first_column(draw):
    A, b = draw(systems())
    A[draw(st.integers(0, len(b) - 1))][0] = draw(non_finite)
    return A, b


@settings_
@given(systems())
def test_compiled_solve_matches_loop(system):
    ref, got = both(*system)
    assert bits(got) == bits(ref)


@settings_
@given(permuted_dominant_systems())
def test_compiled_solve_matches_loop_through_row_swaps(system):
    ref, got = both(*system)
    assert ref is not None and bits(got) == bits(ref)


@settings_
@given(singular_systems())
def test_compiled_solve_matches_loop_on_singular_matrices(system):
    A, b = system
    zero_column = any(all(row[c] == 0.0 for row in A) for c in range(len(b)))
    ref, got = both(A, b)
    assert bits(got) == bits(ref)
    if zero_column:
        assert got is None


@settings_
@given(systems(entry=st.one_of(entries, non_finite)))
def test_compiled_solve_matches_loop_with_non_finite_entries(system):
    ref, got = both(*system)
    assert bits(got) == bits(ref)


@settings_
@given(systems_with_non_finite_first_column())
def test_non_finite_first_column_is_singular_for_both(system):
    # a NaN or inf in the first column is either the pivot or spreads NaN
    # through its row, which later becomes a NaN pivot
    ref, got = both(*system)
    assert ref is None and got is None


def test_one_solver_compiled_per_size():
    assert sets._solve_dense([[2.0]], [1.0]) == [0.5]
    solver = poly.solve_kernel(1)
    assert sets._solve_dense([[4.0]], [1.0]) == [0.25]
    assert poly.solve_kernel(1) is solver
