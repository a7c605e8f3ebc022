"""The compiled KKT Newton kernels against plain loops.

``Polynomial.kkt_kernels()`` carries ``kkt_seed``, and
``poly.newton_kernel`` compiles the Newton kernel of any number of
constraints: straight-line code that fuses the value, gradient and Hessian
sums with the Newton seeds, the bordered KKT systems, the damped steps and
the polish.  ``reference_seeds1`` and ``reference_newton`` in ``helpers``
compute the same from ``evaluate``, ``gradient`` and ``hessian_rows`` with
list code and ``reference_solve_dense``.  Results are compared through
``float.hex``, so the sign of zero counts.
"""

import copy
import pickle

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cycproj import poly, sets
from cycproj.catalog import get_entry
from cycproj.poly import Polynomial
from cycproj.sets import FEASIBILITY_TOL, OPTIMALITY_TOL, ConvexSetDescriptor, ProjectionError, project
from helpers import reference_kkt_state, reference_newton, reference_seeds1


def bits(v):
    if isinstance(v, (list, tuple)):
        return [bits(u) for u in v]
    if v is None or isinstance(v, bool):
        return v
    return float(v).hex()


def outcome(f, *args):
    """bits of f(*args), or "OverflowError" when a power overflows"""
    try:
        return bits(f(*args))
    except OverflowError:
        return "OverflowError"


coefficients = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-4, 4).map(float),
    st.floats(-1e-6, 1e-6, allow_nan=False),
    # gradients whose squares overflow, and products that underflow
    st.sampled_from([1e200, -1e200, 1e-200]),
)
coordinates = st.one_of(
    st.floats(-50.0, 50.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e-8, 1e-8, allow_nan=False),
)
multipliers = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def kkt_cases(draw):
    """(g, x, y, lam, start): one polynomial with a multiplier and an
    optional warm start, or a tuple of two or three with one multiplier
    each and no start"""
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 4)] * n)
    gs = tuple(Polynomial(n, draw(st.dictionaries(exponents, coefficients, max_size=12)))
               for _ in range(draw(st.integers(1, 3))))
    point = st.lists(coordinates, min_size=n, max_size=n)
    x, y, lams = tuple(draw(point)), draw(point), tuple(draw(multipliers) for _ in gs)
    if len(gs) > 1:
        return gs, x, y, lams, None
    return gs[0], x, y, lams[0], draw(st.one_of(st.none(), point.map(tuple)))


def newton(g, x, seed, events=None):
    """The Newton kernel's outcome from ``seed``, which must equal the
    reference loop's: the ``newton_kernel`` of one polynomial or of a tuple
    of them."""
    gs = [g] if isinstance(g, Polynomial) else list(g)
    kernel = poly.newton_kernel(gs)
    limits = (100, FEASIBILITY_TOL, OPTIMALITY_TOL)
    got = outcome(kernel, x, seed, sets._solve_dense, *limits)
    assert got == outcome(reference_newton, gs, x, seed, *limits, events)
    return got


def state_at(g, x, y, lam):
    """the flat state at (y, lam) of one polynomial, or of a tuple of them
    with a tuple of multipliers"""
    gs, lams = ([g], [lam]) if isinstance(g, Polynomial) else (g, lam)
    stat, vals, grads, fnorm = reference_kkt_state(gs, x, y, lams)
    return (*y, *lams, *stat, *vals, *[gi for grad in grads for gi in grad], fnorm)


def assert_kernels_match(g, x, y, lam, start=None):
    """The seed kernel from x (and start), then the Newton kernel from each
    of its seeds and from the state at (y, lam); for a tuple of
    polynomials, the Newton kernel from the state at (y, lam) alone."""
    try:
        seed = state_at(g, x, y, lam)
        gx = g.evaluate(x) if isinstance(g, Polynomial) else None
    except OverflowError:
        assume(False)
    if not isinstance(g, Polynomial):
        newton(g, x, seed)
        return
    k = g.kkt_kernels()
    seeds = outcome(k.kkt_seed, x, gx, start)
    assert seeds == outcome(reference_seeds1, g, x, gx, start)
    if seeds != "OverflowError":
        for s in (k.kkt_seed(x, gx, start) or ()) + (seed,):
            newton(g, x, s)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kkt_cases())
# a warm multiplier of -0.0 (|grad|^2 overflows) is clipped to 0.0
@example(
    (
        Polynomial(2, {(4, 3): -74366.85411703389, (1, 2): -845316.1503185369,
                       (2, 0): -115121.31276638433, (1, 1): -1e200}),
        (1.0, -7.198781527773939e-09), [1.0, 0.0], 0.0, (-10.732342932569303, -0.0),
    )
)
# a Newton step whose KKT matrix has entries 0.0 + (-0.0)
@example(
    (
        Polynomial(2, {(2, 4): -3.0, (1, 1): 1e-200, (0, 1): -3.0,
                       (2, 0): -148888.39398211753, (3, 0): -5.1073801683050086e-08}),
        (-0.0, -2.3799381505380146e-09), [-0.0, 0.0], -0.0, None,
    )
)
# Armijo accepts a step at t = 2^-40, the backtracking floor itself
@example(
    (
        Polynomial(1, {(1,): -4.0, (0,): -376091.46507410205, (3,): -4.62833132778385e-07,
                       (4,): -5.31140429366064e-07}),
        (-0.0,), [37.441208385026215], -0.0, None,
    )
)
def test_kkt_kernels_match_composition_bit_for_bit(case):
    assert_kernels_match(*case)


def test_kkt_kernels_of_zero_and_constant_polynomials():
    # grad g = 0: no seed, and the singular KKT system abandons Newton
    x, y = (1.0, -0.0, 2.0), [0.5, 0.0, -0.0]
    for g in (Polynomial(3), Polynomial(3, {(0, 0, 0): -2.5})):
        assert g.kkt_kernels().kkt_seed(x, 1.0, None) is None
        for lam in (0.0, -0.0, 1.5):
            assert_kernels_match(g, x, y, lam, (0.5, 0.0, 1.0))
            assert newton(g, x, state_at(g, x, y, lam)) is None


def _newton_events(g, x, start=None):
    """(events, kernel outcome) of each seed's Newton attempt from x"""
    seeds = g.kkt_kernels().kkt_seed(x, g.evaluate(x), start)
    runs = []
    for seed in seeds:
        events = []
        runs.append((events, newton(g, x, seed, events)))
    return runs


def test_newton_kernel_backtracking_floor():
    # on the quartic ball of radius 1e4 the value carries rounding of about
    # eps * 2e16 = 4, and ||s|| stalls at 2.4e-10, above opt_tol and above its
    # rounding floor 2^-50 * (1 + sum |p_i| + sum |y_i|) = 4e-11, so no step
    # lowers ||F|| and Armijo halves down to the floor
    g = Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0, (0, 0): -1e16})
    assert _newton_events(g, (-28000.0, -4000.0)) == [(["floor"], None)]


def _quartic_ball(scale=1.0):
    """ex5.8:n=2's left quartic ball, its coefficients times ``scale``"""
    g = get_entry("ex5.8:n=2").problem.sets[0].constraints[0]
    return Polynomial(2, {m.exponents: scale * m.coefficient for m in g.terms})


def test_newton_kernel_rejected_polish_step():
    # on the ball scaled by 1e9 the second polish step runs above the
    # rounding floor, and there it does not lower ||F||
    [(events, result)] = _newton_events(_quartic_ball(1e9), (3.0, 0.2))
    assert events == ["polish rejected"] and result is not None


def test_newton_kernel_polish_at_the_rounding_floor():
    # after the first polish step ||F|| is at the rounding floor, so the
    # second is not tried
    [(events, result)] = _newton_events(_quartic_ball(), (0.9095578363365777, 1.732340106813079))
    assert events == ["polish at floor"] and result is not None


def _polish_solves(g, x):
    """The dense solves of the Newton kernel from x's cold seed that follow
    its last Newton step, which are the polish steps it tries, and whether it
    returned a point; the kernel must match the reference loop.  The Newton
    steps number m when ``max_iter`` = m + 1 is the least that converges."""
    [seed] = g.kkt_kernels().kkt_seed(x, g.evaluate(x), None)
    solves = []

    def solve(A, b):
        solves.append(b)
        return sets._solve_dense(A, b)

    kernel = poly.newton_kernel([g])
    result = kernel(x, seed, solve, 200, FEASIBILITY_TOL, OPTIMALITY_TOL)
    assert bits(result) == bits(reference_newton([g], x, seed, 200, FEASIBILITY_TOL, OPTIMALITY_TOL))
    steps = next(m for m in range(200)
                 if kernel(x, seed, sets._solve_dense, m + 1, FEASIBILITY_TOL, OPTIMALITY_TOL) is not None)
    return len(solves) - steps, result is not None


def test_second_polish_step_only_above_the_rounding_floor():
    # on ex5.8:n=2's quartic ball ||F|| reaches the rounding floor of y, x and
    # lam * grad g after one polish step, so the second is skipped; scaled by
    # 1e6, the value g(y) carries rounding of 1e6 * eps, above that floor,
    # and both steps are tried, unless the start is so far that the floor,
    # which grows with |x|, covers it
    g, scaled = _quartic_ball(), _quartic_ball(1e6)
    assert _polish_solves(g, (3.0, 0.2)) == (1, True)
    assert _polish_solves(scaled, (3.0, 0.2)) == (2, True)
    assert _polish_solves(scaled, (1e10, 1.0)) == (1, True)


def test_newton_kernel_abandons_a_degenerate_set():
    # {x_1^2 <= 0} has a zero gradient on the set, so there is no KKT
    # multiplier: Newton runs out of iterations, the kernel abandons the
    # attempt and the projection is refused
    s = get_entry("ex3.2:n=2,d=2").problem.sets[0]
    [(events, result)] = _newton_events(s.constraints[0], (0.3, 0.2))
    assert events == ["not converged"] and result is None
    with pytest.raises(ProjectionError, match="'chain-0'"):
        project(s, (0.3, 0.2))


def test_newton_kernel_from_a_warm_seed():
    g = get_entry("ex5.8:n=2").problem.sets[0].constraints[0]
    cold = project(ConvexSetDescriptor("ball", [g]), (2.0, 1.0))
    seeds = g.kkt_kernels().kkt_seed((1.9, 1.1), g.evaluate((1.9, 1.1)), cold)
    assert len(seeds) == 2 and seeds[0][:2] == cold  # the warm seed goes first
    assert_kernels_match(g, (1.9, 1.1), list(cold), -0.0, cold)


def test_kkt_kernels_compile_once_per_polynomial():
    g = Polynomial(2, {(4, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    k = g.kkt_kernels()
    assert k is g._kernels and k.kkt_seed is not None
    seed_kernel = k.kkt_seed
    assert g.kkt_kernels().kkt_seed is seed_kernel


def test_kernel_code_is_shared_by_polynomials_of_one_structure():
    p = Polynomial(2, {(4, 0): 1.0, (1, 1): 2.0, (0, 0): -1.0})
    q = Polynomial(2, {(4, 0): 3.0, (1, 1): -0.5, (0, 0): 2.0})
    x = (1.5, -0.5)
    assert p.evaluate(x) == 1.5**4 - 1.5 - 1.0 and q.evaluate(x) == 3.0 * 1.5**4 + 0.375 + 2.0
    assert p.gradient(x) != q.gradient(x)
    kp, kq = p.kkt_kernels(), q.kkt_kernels()
    pairs = [(getattr(kp, name), getattr(kq, name)) for name in ("value", "gradient", "hessian_rows", "kkt_seed")]
    for fp, fq in pairs + [(poly.newton_kernel([p]), poly.newton_kernel([q]))]:
        # one factory: the same code and the same globals, its own coefficients
        assert fp is not fq and fp.__code__ is fq.__code__ and fp.__globals__ is fq.__globals__
    assert bits(kp.kkt_seed(x, p.evaluate(x), None)) == bits(reference_seeds1(p, x, p.evaluate(x), None))
    assert bits(kq.kkt_seed(x, q.evaluate(x), None)) == bits(reference_seeds1(q, x, q.evaluate(x), None))
    # copies are rebuilt from the terms and compile their own kernels
    for c in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert c == p and c._kernels.value is None and c._kernels.kkt_seed is None
        assert c.evaluate(x) == p.evaluate(x) and c._kernels.value is not p._kernels.value
        assert c.kkt_kernels().kkt_seed.__code__ is kp.kkt_seed.__code__
    assert poly._factory.cache_info().currsize <= poly._factory.cache_info().maxsize


def test_a_known_structure_compiles_from_its_cells_bit_for_bit(monkeypatch):
    # the Hessian cell of 0.1 * x^6 is (0.1 * 6) * 5 = 3.0000000000000004, as
    # partial twice rounds it, not 0.1 * 30 = 3.0
    def make(c, b=-0.7, d=-1.0):
        return Polynomial(2, {(6, 0): c, (1, 1): b, (0, 2): 1.0, (0, 0): d})

    x, start = (1.5, 1.0), (1.0, 1.0)

    def outputs(g):
        limits = (sets._solve_dense, 200, FEASIBILITY_TOL, OPTIMALITY_TOL)
        [seed] = g.kkt_kernels().kkt_seed(x, g.evaluate(x), None)
        pair = (make(1.0, 0.1, -2.0), g)
        return bits([g.evaluate(x), g.gradient(x), g.hessian_rows(x), g.hessian_rows((1.0, 0.0)),
                     g.kkt_kernels().kkt_seed(x, g.evaluate(x), start), seed,
                     poly.newton_kernel([g])(x, seed, *limits),
                     poly.newton_kernel(list(pair))(x, state_at(pair, x, start, (0.5, 0.5)), *limits)])

    outputs(make(2.0))  # the structure is now known
    sums = []
    build = poly._sum

    def counting(*args):
        sums.append(args)
        return build(*args)

    monkeypatch.setattr(poly, "_sum", counting)
    cached = outputs(make(0.1))
    assert sums == []  # no source was built
    assert cached[3][0][0] == bits((0.1 * 6) * 5) != bits(0.1 * 30)
    poly._generated.cache_clear()
    assert outputs(make(0.1)) == cached and sums


@pytest.mark.parametrize("known", [False, True])
def test_an_overflowed_derivative_coefficient_is_refused(known):
    # 4 * 1e308 overflows, so partial cannot differentiate the constraint
    if known:
        g = Polynomial(2, {(4, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        project(ConvexSetDescriptor("small", [g]), (0.0, 2.0))
        g.gradient((0.5, 0.5))
    else:
        poly._generated.cache_clear()
    g = Polynomial(2, {(4, 0): 1e308, (0, 2): 1.0, (0, 0): -1.0})
    with pytest.raises(ValueError, match="^non-finite coefficient inf$"):
        project(ConvexSetDescriptor("big", [g]), (0.0, 2.0))
    with pytest.raises(ValueError, match="^non-finite coefficient inf$"):
        g.gradient((0.5, 0.5))
    # the first overflow partial meets names its sign: d/dx before d/dy
    h = Polynomial(2, {(4, 0): -1e308, (0, 4): 1e308})
    with pytest.raises(ValueError, match="^non-finite coefficient -inf$"):
        h.hessian_rows((0.5, 0.5))


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
