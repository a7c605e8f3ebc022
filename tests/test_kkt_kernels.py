"""The compiled one-constraint KKT Newton kernels against their composition.

``Polynomial.kkt_kernels()`` carries ``kkt_state`` and ``kkt_system``,
straight-line code that fuses the value, gradient and Hessian sums with the
stationarity vector, ||F||, the bordered KKT matrix and its right-hand side.
``reference_kkt_state`` and ``reference_kkt_system`` in ``helpers`` compose
the same quantities from ``evaluate``, ``gradient`` and ``hessian_rows`` with
list code.  Results are compared through ``float.hex``, so the sign of zero
counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cycproj import sets
from cycproj.catalog import get_entry
from cycproj.poly import Polynomial
from cycproj.sets import ConvexSetDescriptor, project
from helpers import reference_kkt_state, reference_kkt_system


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
multipliers = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def kkt_cases(draw):
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 4)] * n)
    terms = draw(st.dictionaries(exponents, coefficients, max_size=12))
    point = st.lists(coordinates, min_size=n, max_size=n)
    return Polynomial(n, terms), tuple(draw(point)), draw(point), draw(multipliers)


def assert_kernels_match(g, x, y, lam):
    k = g.kkt_kernels()
    state = reference_kkt_state(g, x, y, lam)
    assert bits(k.kkt_state(x, y, lam)) == bits(state)
    stat, v, grad, _ = state
    assert bits(k.kkt_system(y, lam, stat, v, grad)) == bits(
        reference_kkt_system(g, y, lam, stat, v, grad)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kkt_cases())
def test_kkt_kernels_match_composition_bit_for_bit(case):
    assert_kernels_match(*case)


def test_kkt_kernels_of_zero_and_constant_polynomials():
    for g in (Polynomial(3), Polynomial(3, {(0, 0, 0): -2.5})):
        for lam in (0.0, -0.0, 1.5):
            assert_kernels_match(g, (1.0, -0.0, 2.0), [0.5, 0.0, -0.0], lam)


def test_kkt_kernels_compile_once_per_polynomial():
    g = Polynomial(2, {(4, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    k = g.kkt_kernels()
    assert k is g._kernels and k.kkt_state is not None and k.kkt_system is not None
    state = k.kkt_state
    assert g.kkt_kernels().kkt_state is state


def _count_evaluations(monkeypatch):
    calls = [0]
    evaluate = Polynomial.evaluate

    def counting(self, x):
        calls[0] += 1
        return evaluate(self, x)

    monkeypatch.setattr(Polynomial, "evaluate", counting)
    return calls


def _count_newton(monkeypatch):
    results = []
    kkt_newton = sets._kkt_newton

    def recording(*args, **kwargs):
        results.append(kkt_newton(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(sets, "_kkt_newton", recording)
    return results


def test_newton_projection_evaluates_each_constraint_once(monkeypatch):
    # an unhinted quartic ball: the value at x serves the feasibility test,
    # the active-set test and the cold seed, and the Newton state's value at
    # the result serves the membership check
    s = get_entry("ex5.8:n=2").problem.sets[0]
    assert s.analytic_hint is None and len(s.constraints) == 1
    cold = project(s, (2.0, 1.0))
    calls = _count_evaluations(monkeypatch)
    newton = _count_newton(monkeypatch)
    for x, start in [((2.0, 1.0), None), ((1.5, -0.5), cold), ((0.3, 1.2), cold)]:
        calls[0] = 0
        newton.clear()
        y = project(s, x, start=start)
        assert newton == [y] and y != x
        assert calls[0] <= len(s.constraints)


def test_newton_projection_onto_two_constraints_evaluates_each_at_x_once(monkeypatch):
    # one active constraint of two: x is evaluated once per constraint, and
    # the membership check evaluates only the inactive one at the result
    ball = get_entry("ex5.8:n=2").problem.sets[0].constraints[0]
    far = Polynomial(2, {(1, 0): 1.0, (0, 0): -10.0})  # x_1 <= 10, inactive
    s = ConvexSetDescriptor("ball-and-halfplane", [ball, far])
    calls = _count_evaluations(monkeypatch)
    newton = _count_newton(monkeypatch)
    y = project(s, (2.0, 1.0))
    assert newton == [y]
    assert calls[0] <= len(s.constraints) + 1
