import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycproj.catalog import get_entry
from cycproj.poly import Polynomial
from cycproj.sets import (
    FEASIBILITY_TOL,
    Ball,
    ConvexSetDescriptor,
    FeasibilityProblem,
    Halfspace,
    NumericalError,
    ProjectionError,
    Singleton,
    distance,
    feasible,
    project,
    residual,
    vdist,
    vsub,
)
from helpers import brute_force_distances, reference_ball, reference_halfspace, reference_residual

LEFT_DISK_POLY = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 2.0})


def left_disk():
    return ConvexSetDescriptor("left-disk", [LEFT_DISK_POLY])


def halfplane_x():
    return ConvexSetDescriptor(
        "x<=0", [Polynomial(2, {(1, 0): 1.0})]
    )


def parabola_region():
    return ConvexSetDescriptor("y^2<=x", [Polynomial(2, {(0, 2): 1.0, (1, 0): -1.0})])


# -- residual ---------------------------------------------------------------


def test_residual_interior_point_is_zero():
    assert residual(halfplane_x(), (-1.0, 5.0)) == 0.0


def test_residual_boundary_point_of_disk():
    assert residual(left_disk(), (0.0, 0.0)) == 0.0


def test_residual_of_parabola_region():
    assert residual(parabola_region(), (0.0, 1.0)) == 1.0


def test_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        residual(left_disk(), (1.0,))


def test_residual_propagates_nan():
    # at a NaN coordinate, v > 0 is False for every constraint value v, so a
    # plain running maximum would report the point as feasible
    for s in get_entry("ex5.1").problem.sets:
        assert math.isnan(residual(s, (math.nan, 0.0)))
    two = ConvexSetDescriptor(
        "two", [Polynomial(2, {(0, 1): 1.0, (0, 0): -1.0}), Polynomial(2, {(1, 0): 1.0})]
    )
    assert math.isnan(residual(two, (math.nan, 5.0)))


def test_overflow_is_a_numerical_error():
    quartic, _ = get_entry("ex5.8:n=2").pair
    with pytest.raises(NumericalError):
        residual(quartic, (1e100, 0.0))  # x^4 overflows in the residual
    with pytest.raises(ProjectionError) as exc_info:
        project(quartic, (1e20, 1.0))  # finite residual, Newton stalls with finite values
    assert type(exc_info.value) is ProjectionError
    disk = ConvexSetDescriptor("unit disk", [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})])
    assert disk.analytic_hint == Ball((0.0, 0.0), 1.0)
    with pytest.raises(NumericalError):
        project(disk, (1e200, 0.0))  # |x - center| overflows in the closed form
    sextic = Polynomial(2, {(6, 0): 1.0, (0, 0): -1.0})
    # y = 1 is a finite violation, then x^6 overflows
    s = ConvexSetDescriptor("halfplane-and-sextic", [Polynomial(2, {(0, 1): 1.0}), sextic])
    with pytest.raises(NumericalError, match="^overflow evaluating the constraints of 'halfplane-and-sextic'$"):
        project(s, (1e60, 1.0))
    # the first value is inf - inf = NaN, which the residual would have returned, then x^6 overflows
    s = ConvexSetDescriptor("nan-and-sextic", [Polynomial(2, {(2, 0): 1e200, (0, 2): -1e200}), sextic])
    with pytest.raises(NumericalError, match="^overflow evaluating the constraints of 'nan-and-sextic'$"):
        project(s, (1e60, 1e60))
    # both disk values are +inf without raising, so W = (0,) takes the ball's kernel, whose |x - center| overflows
    lens = ConvexSetDescriptor("lens", [Polynomial(2, {(2, 0): 1.0, (1, 0): c, (0, 2): 1.0, (0, 0): -0.75})
                                        for c in (1.0, -1.0)])
    for f in (project, distance):
        with pytest.raises(NumericalError, match="^overflow evaluating the constraints of 'lens'$"):
            f(lens, (1e154, 1e154))


def test_projection_never_returns_a_point_of_unknown_membership():
    # at the input point and at the would-be solution (0, 1e5, 1e5) the
    # second constraint evaluates inf - inf = NaN, which passes a `> tol` test
    s = ConvexSetDescriptor(
        "nan-at-solution",
        [
            Polynomial(3, {(1, 0, 0): 1.0}),
            Polynomial(
                3, {(0, 2, 0): 1e300, (0, 1, 1): -2e300, (0, 0, 2): 1e300, (0, 0, 0): -1.0}
            ),
        ],
    )
    with pytest.raises(NumericalError):
        project(s, (1.0, 1e5, 1e5))
    with pytest.raises(NumericalError):
        distance(s, (1.0, 1e5, 1e5))


def test_vector_length_mismatch_is_an_error():
    with pytest.raises(ValueError):
        Singleton((0.0, 0.0)).distance((1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        vdist((1.0, 1.0), (1.0,))


def test_vsub_rejects_vectors_of_different_lengths():
    # map() would stop at the shorter vector and return (0.0, 0.0)
    with pytest.raises(ValueError, match="vector lengths 2 and 3 differ"):
        vsub((1.0, 2.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        vsub((1.0, 2.0, 3.0), (1.0, 2.0))
    assert vsub((3.0, 2.0), (1.0, 2.0)) == (2.0, 0.0)


# -- descriptor validation ---------------------------------------------------


def test_empty_constraint_list_rejected():
    with pytest.raises(ValueError):
        ConvexSetDescriptor("empty", [])


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        ConvexSetDescriptor(
            "mixed", [Polynomial(2, {(1, 0): 1.0}), Polynomial(1, {(1,): 1.0})]
        )


def test_removed_hint_and_max_degree_inputs_are_type_errors():
    g = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    with pytest.raises(TypeError):
        ConvexSetDescriptor("d", [g], Ball((0.0, 0.0), 1.0))
    with pytest.raises(TypeError):
        FeasibilityProblem(2, [left_disk()], max_degree=2)


# the closed forms the catalog once passed by hand, set by set; ex5.3's b was
# -alpha, which is -0.0 for alpha = 0 and equals the derived 0.0
_HAND_WRITTEN_SHAPES = {
    "ex5.1": [Ball((-1.0, 0.0), 1.0), Halfspace((1.0, 1.0), 1.0), Ball((1.0, 0.0), 1.0), None],
    "ex5.3:alpha=0": [Ball((-1.0, 0.0), 1.0), Halfspace((-1.0, 0.0), -0.0)],
    "ex5.3:alpha=0.25": [Ball((-1.0, 0.0), 1.0), Halfspace((-1.0, 0.0), -0.25)],
    "ex5.3:alpha=0.5": [Ball((-1.0, 0.0), 1.0), Halfspace((-1.0, 0.0), -0.5)],
    "ex5.5": [Ball((-1.0, 0.0), 1.0), Ball((1.0, 0.0), 1.0)],
    "ex5.7:d=2": [Halfspace((1.0, 0.0), 0.0), None],
    "ex5.7:d=4": [Halfspace((1.0, 0.0), 0.0), None],
    "ex5.8:n=1": [None, None],
    "ex5.8:n=2": [None, None],
    "ex5.8:n=3": [None, None],
    "ex3.2:n=1,d=2": [None],
    "ex3.2:n=2,d=2": [None, None],
    "ex3.2:n=3,d=4": [None, None, None],
}


@pytest.mark.parametrize("entry_id", sorted(_HAND_WRITTEN_SHAPES))
def test_catalog_closed_forms_are_read_from_the_constraints(entry_id):
    shapes = [s.analytic_hint for s in get_entry(entry_id).problem.sets]
    assert shapes == _HAND_WRITTEN_SHAPES[entry_id]
    for shape in shapes:
        if isinstance(shape, Ball):
            # a zero center coordinate is +0.0, as the hand-written ones were
            assert all(math.copysign(1.0, c) == 1.0 for c in shape.center if c == 0.0)


def test_closed_form_of_single_constraints():
    def shape(terms, n=2):
        return ConvexSetDescriptor("s", [Polynomial(n, terms)]).analytic_hint

    assert shape({(1, 0): 2.0, (0, 1): -1.0, (0, 0): 3.0}) == Halfspace((2.0, -1.0), -3.0)
    assert shape({(0, 1): 1.0}) == Halfspace((0.0, 1.0), 0.0)
    assert shape({(2, 0): 1.0, (0, 2): 1.0, (1, 0): -4.0, (0, 0): -5.0}) == Ball((2.0, 0.0), 3.0)
    assert shape({(2,): 1.0, (1,): 2.0}, n=1) == Ball((-1.0,), 1.0)
    ball = shape({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    assert ball == Ball((0.0, 0.0), 1.0)
    assert [math.copysign(1.0, c) for c in ball.center] == [1.0, 1.0]  # +0.0, not -0.0


@pytest.mark.parametrize(
    "constraints",
    [
        [Polynomial(2, {(2, 0): 1.0, (0, 2): 2.0, (0, 0): -1.0})],  # an ellipse
        [Polynomial(2, {(2, 0): 1.0, (1, 1): 1.0, (0, 2): 1.0, (0, 0): -1.0})],  # a cross term
        [Polynomial(2, {(2, 0): 4.0, (0, 2): 4.0, (0, 0): -4.0})],  # a scaled disk
        [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0})],  # empty
        [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})],  # the single point 0
        [Polynomial(2, {(0, 0): -1.0})],  # a constant
        [Polynomial(2, {(2, 0): 1.0, (0, 0): -1.0})],  # a slab, x_1^2 only
        [Polynomial(2, {(4, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})],  # quartic
        # a ball too large for floats: r^2 = ||l/2||^2 overflows to inf
        [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 1e200})],
        [  # a two-constraint lens
            Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 1.0, (0, 0): -0.75}),
            Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -1.0, (0, 0): -0.75}),
        ],
        [Polynomial(2, {(1, 0): 1.0}), Polynomial(2, {(0, 1): 1.0})],  # two halfplanes
    ],
)
def test_closed_form_is_none_for_other_sets(constraints):
    assert ConvexSetDescriptor("s", constraints).analytic_hint is None


def test_problem_max_degree_and_validation():
    prob = FeasibilityProblem(2, [left_disk(), halfplane_x()])
    assert prob.max_degree == 2
    with pytest.raises(ValueError):
        FeasibilityProblem(2, [])
    with pytest.raises(ValueError):
        FeasibilityProblem(3, [left_disk()])


# -- projection dispatch -----------------------------------------------------


def test_project_feasible_point_unchanged():
    s = left_disk()
    x = (-1.2, 0.3)
    assert project(s, x) == x


def test_project_ball_closed_form():
    # projection of (1, 0) onto the unit disk centered at (-1, 0)
    assert project(left_disk(), (1.0, 0.0)) == (0.0, 0.0)
    y = project(left_disk(), (-1.0, 3.0))
    assert vdist(y, (-1.0, 1.0)) <= 1e-15


def test_project_halfspace_closed_form():
    s = ConvexSetDescriptor(
        "plane", [Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0})]
    )
    y = project(s, (2.0, 2.0))
    assert vdist(y, (0.5, 0.5)) <= 1e-15


def test_project_single_constraint_kkt_parabola():
    s = parabola_region()
    for y0 in (0.5, 1.0, 2.0):
        y = project(s, (0.0, y0))
        # stationarity of the boundary minimization: 2 t^3 + t = y0
        t = y[1]
        assert abs(2.0 * t**3 + t - y0) <= 1e-9
        assert abs(y[0] - t * t) <= 1e-9


def test_project_penalty_polyhedral_corner():
    corner = ConvexSetDescriptor(
        "corner", [Polynomial(2, {(1, 0): 1.0}), Polynomial(2, {(0, 1): 1.0})]
    )
    y = project(corner, (1.0, 1.0))
    assert vdist(y, (0.0, 0.0)) <= 1e-9


def test_project_penalty_disk_cap_corner():
    cap = ConvexSetDescriptor(
        "cap",
        [
            Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}),
            Polynomial(2, {(1, 0): 1.0, (0, 1): -1.0}),
        ],
    )
    y = project(cap, (2.0, 0.0))
    corner_pt = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    assert vdist(y, corner_pt) <= 1e-9
    # smooth part of the same set goes through the single-constraint branch
    y = project(cap, (-2.0, 0.5))
    nrm = math.hypot(2.0, 0.5)
    assert vdist(y, (-2.0 / nrm, 0.5 / nrm)) <= 1e-9


def test_project_penalty_dependent_active_gradients():
    # both constraints are active at the projection with parallel gradients,
    # so the KKT system of the pair is singular
    unit = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    # the disk of radius 1.5 about (0.5, 0) touches the unit disk at (-1, 0)
    outer = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -1.0, (0, 0): -2.0})
    for constraints in ([unit, unit], [unit, outer]):
        y = project(ConvexSetDescriptor("dependent", constraints), (-3.0, 0.0))
        assert vdist(y, (-1.0, 0.0)) <= 1e-9


def test_project_three_active_constraint_corners(monkeypatch):
    # corners in R^3 where all three constraints are active at the projection
    from cycproj import sets

    active_sizes = []
    kkt_newton = sets._kkt_newton

    def recording(s, active, *args, **kwargs):
        active_sizes.append(len(active))
        return kkt_newton(s, active, *args, **kwargs)

    monkeypatch.setattr(sets, "_kkt_newton", recording)
    x_le_0 = Polynomial(3, {(1, 0, 0): 1.0})
    y_le_0 = Polynomial(3, {(0, 1, 0): 1.0})
    octant = [x_le_0, y_le_0, Polynomial(3, {(0, 0, 1): 1.0, (0, 0, 0): -1.0})]
    ball = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -4.0})
    for constraints, x, expected in [
        (octant, (1.0, 2.0, 3.0), (0.0, 0.0, 1.0)),
        ([ball, x_le_0, y_le_0], (1.0, 1.0, 5.0), (0.0, 0.0, 2.0)),
        ([ball, x_le_0, y_le_0], (0.5, 0.25, -3.0), (0.0, 0.0, -2.0)),
    ]:
        active_sizes.clear()
        assert project(ConvexSetDescriptor("corner", constraints), x) == expected
        assert active_sizes[-1] == 3


def test_corners_take_a_pinned_number_of_working_set_changes(monkeypatch):
    # the working-set loop finds the active constraints of the corners above
    # and of the lens tips: a corner whose first working set, the most
    # violated constraint, is not the active set asks _project_penalty for
    # the next one, at most twice here, and each result passes feasible.  A
    # working set of one halfspace or ball constraint violated at x takes its
    # closed form, so only the others call _kkt_newton
    from cycproj import sets

    calls = {"_project_penalty": 0, "_kkt_newton": 0}

    def counting(name):
        original = getattr(sets, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(sets, name, counting(name))
    unit = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    outer = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -1.0, (0, 0): -2.0})
    x_le_0 = Polynomial(3, {(1, 0, 0): 1.0})
    y_le_0 = Polynomial(3, {(0, 1, 0): 1.0})
    octant = [x_le_0, y_le_0, Polynomial(3, {(0, 0, 1): 1.0, (0, 0, 0): -1.0})]
    ball = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -4.0})
    # the disks of radius 1 about (-0.5, 0) and (0.5, 0), with tips (0, +-sqrt(0.75))
    lens = [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): c, (0, 0): -0.75}) for c in (1.0, -1.0)]
    for constraints, x, penalty, newton in [
        ([Polynomial(2, {(1, 0): 1.0}), Polynomial(2, {(0, 1): 1.0})], (1.0, 1.0), 1, 1),
        ([unit, Polynomial(2, {(1, 0): 1.0, (0, 1): -1.0})], (2.0, 0.0), 1, 1),
        ([unit, unit], (-3.0, 0.0), 0, 0),
        ([unit, outer], (-3.0, 0.0), 0, 0),
        (octant, (1.0, 2.0, 3.0), 2, 3),
        ([ball, x_le_0, y_le_0], (1.0, 1.0, 5.0), 2, 3),
        ([ball, x_le_0, y_le_0], (0.5, 0.25, -3.0), 2, 3),
        (lens, (0.25, 2.0), 1, 1),
        (lens, (0.0, 2.0), 1, 1),
    ]:
        for name in calls:
            calls[name] = 0
        s = ConvexSetDescriptor("corner", constraints)
        assert feasible(s, project(s, x)), x
        assert calls == {"_project_penalty": penalty, "_kkt_newton": newton}, x


@pytest.mark.parametrize("r", [100.0, 1000.0, 1e4, 1e6])
def test_lens_tip_is_found_at_scale(r):
    # the disks of radius r about (-r/2, 0) and (r/2, 0) meet at the tips
    # (0, +-r sqrt(0.75)); the point above the upper tip projects onto it.
    # The disks' terms are about r^2, so the Gauss-Newton seed of the pair
    # stops by the term-size rule, where an absolute test failed from r = 1e3
    lens = ConvexSetDescriptor("lens", [
        Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): c * r, (0, 0): -0.75 * r * r}) for c in (1.0, -1.0)
    ])
    y = project(lens, (0.25 * r, 2.0 * r))
    assert feasible(lens, y)
    assert vdist(y, (0.0, r * math.sqrt(0.75))) <= 1e-12 * r


def _scaled_sets(r):
    """Three sets of scale r without a closed form: the lens of the disks of
    radius r about (-r/2, 0) and (r/2, 0), the ellipse 2x^2 + y^2 <= r^2 and
    the quartic ball x^4 + y^4 <= r^4."""
    return [
        ConvexSetDescriptor("lens", [
            Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): c * r, (0, 0): -0.75 * r * r}) for c in (1.0, -1.0)
        ]),
        ConvexSetDescriptor("ellipse", [Polynomial(2, {(2, 0): 2.0, (0, 2): 1.0, (0, 0): -r * r})]),
        ConvexSetDescriptor("quartic-ball", [Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0, (0, 0): -(r**4)})]),
    ]


def test_projections_at_scale():
    # 300 points r * z, z uniform in [-3, 3]^2, onto each set of scale r.  A
    # constraint's value carries the rounding of its terms, about eps * r^d,
    # so absolute tests refused most of these from r = 1e3 (the quartic ball
    # from r = 1e2).  No projection fails up to r = 1e3, and at most 1% of the
    # points outside the sets do at r = 1e4 to 1e8
    unit = _scaled_sets(1.0)
    for r in (1.0, 1e2, 1e3, 1e4, 1e6, 1e8):
        rng = random.Random(7)
        zs = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(300)]
        outside = failed = 0
        for s, s1 in zip(_scaled_sets(r), unit):
            for z in zs:
                x = (r * z[0], r * z[1])
                outside += residual(s, x) > 0.0
                try:
                    y = project(s, x)
                except ProjectionError:
                    failed += 1
                    continue
                assert feasible(s, y), (r, s.name, x)
                y1 = project(s1, z)
                assert vdist(y, (r * y1[0], r * y1[1])) <= 1e-12 * r, (r, s.name, x)
        assert outside > 750 and failed <= (0 if r <= 1e3 else 0.01 * outside), (r, failed, outside)


# five sets C without a closed form, each a list of {exponents: coefficient}
# maps: a lens, an ellipse, two quartic balls and the region {y^4 <= x, x <= 2}
SCALING_FAMILIES = {
    "lens": [{(2, 0): 1.0, (0, 2): 1.0, (1, 0): c, (0, 0): -0.75} for c in (1.0, -1.0)],
    "ellipse": [{(2, 0): 2.0, (0, 2): 1.0, (0, 0): -1.0}],
    "quartic-ball": [{(4, 0): 1.0, (0, 4): 1.0, (0, 0): -1.0}],
    # (x + 1)^4 + y^4 <= 1
    "quartic-ball-left": [{(4, 0): 1.0, (3, 0): 4.0, (2, 0): 6.0, (1, 0): 4.0, (0, 4): 1.0}],
    "quartic-cup": [{(0, 4): 1.0, (1, 0): -1.0}, {(1, 0): 1.0, (0, 0): -2.0}],
}


@pytest.mark.parametrize("name", sorted(SCALING_FAMILIES))
def test_projection_commutes_with_scaling(name):
    # sigma C = {sigma x : x in C} has the coefficients c_alpha sigma^-|alpha|,
    # exact in binary for sigma = 2^k, and its constraints take at sigma x the
    # values of C's at x; so P_{sigma C}(sigma x) = sigma P_C(x), however large
    # or small the terms of sigma C are
    family = SCALING_FAMILIES[name]
    rng = random.Random(11)
    xs = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(40)]
    base = ConvexSetDescriptor(name, [Polynomial(2, g) for g in family])
    ys = [project(base, x) for x in xs]
    for k in range(-20, 41, 4):
        sigma = 2.0**k
        scaled = ConvexSetDescriptor(name, [
            Polynomial(2, {e: c * sigma ** -sum(e) for e, c in g.items()}) for g in family
        ])
        for x, y in zip(xs, ys):
            got = project(scaled, (sigma * x[0], sigma * x[1]))
            assert vdist(got, (sigma * y[0], sigma * y[1])) <= 1e-12 * sigma * (1.0 + math.hypot(*y)), (k, x)


def test_seeded_newton_solves_evaluate_no_gradient_twice(monkeypatch):
    # a seed state is built from the values and gradients its maker already
    # holds, so no gradient is evaluated again at the seed's point
    calls = []
    gradient = Polynomial.gradient

    def counting(self, x):
        calls.append(x)
        return gradient(self, x)

    monkeypatch.setattr(Polynomial, "gradient", counting)
    x_le_0 = Polynomial(3, {(1, 0, 0): 1.0})
    y_le_0 = Polynomial(3, {(0, 1, 0): 1.0})
    octant = [x_le_0, y_le_0, Polynomial(3, {(0, 0, 1): 1.0, (0, 0, 0): -1.0})]
    ball = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -4.0})
    lens = [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): c, (0, 0): -0.75}) for c in (1.0, -1.0)]
    for constraints, x, expected, most in [
        (lens, (0.25, 2.0), (-1.040834085591133e-17, 0.8660254037844386), 14),
        (octant, (1.0, 2.0, 3.0), (0.0, 0.0, 1.0), 14),
        ([ball, x_le_0, y_le_0], (1.0, 1.0, 5.0), (0.0, 0.0, 2.0), 45),
    ]:
        calls.clear()
        assert project(ConvexSetDescriptor("corner", constraints), x) == expected
        assert len(calls) <= most, x


def test_project_past_a_diverging_feasibility_seed():
    # at x both gradients point along the x axis up to y^3 ~ 1e-114, so the
    # Gauss-Newton seed of the pair steps far enough for y^4 to overflow;
    # the working set skips the pair and solves the halfplane alone
    cut = ConvexSetDescriptor(
        "cut",
        [Polynomial(2, {(1, 0): 1.0, (0, 0): -1.0}),
         Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0, (0, 0): -16.0})],
    )
    y = project(cut, (2.906951341432304, 1.175494351e-38))
    assert vdist(y, (1.0, 1.175494351e-38)) <= 1e-12


def test_project_empty_two_constraint_set_raises_with_best_iterate():
    # the disjoint disks ||x -+ (2, 0)||^2 <= 1: no working set is feasible,
    # so the projection fails at once
    disks = [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): s, (0, 0): 3.0}) for s in (-4.0, 4.0)]
    with pytest.raises(ProjectionError) as exc_info:
        project(ConvexSetDescriptor("disjoint", disks), (0.5, 1.0))
    assert exc_info.value.best is not None
    assert exc_info.value.feasibility > 0.9  # the disks are 2 apart


@pytest.mark.parametrize("x", [(0.0, -2.0), (0.3, 0.5)])
def test_project_fails_fast_where_the_constraints_meet_with_no_kkt_point(x):
    # the unit disks about (-1, 0) and (1, 0) as one set meet only at 0, where
    # their gradients are antiparallel, so x - 0 is in no cone of them
    tangent = ConvexSetDescriptor(
        "tangent", [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): c}) for c in (2.0, -2.0)]
    )
    t0 = time.perf_counter()
    with pytest.raises(ProjectionError) as exc_info:
        project(tangent, x)
    assert time.perf_counter() - t0 < 0.5
    assert exc_info.value.feasibility <= residual(tangent, x)


def test_project_solves_each_working_set_once(monkeypatch):
    # the tangent disks of the test above, from a point where only the right
    # disk is active: its working set is solved once, by its closed form, then
    # the pair from two Gauss-Newton seeds, then the left disk, inactive at x
    from cycproj import sets

    working_sets = []
    kkt_newton = sets._kkt_newton

    def recording(s, active, *args):
        working_sets.append(tuple(active))
        return kkt_newton(s, active, *args)

    monkeypatch.setattr(sets, "_kkt_newton", recording)
    tangent = ConvexSetDescriptor(
        "tangent-disks", [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): c}) for c in (2.0, -2.0)]
    )
    with pytest.raises(ProjectionError, match="^no KKT point found for set 'tangent-disks'$") as exc_info:
        project(tangent, (-0.5, 0.5))
    assert working_sets == [(0, 1), (0, 1), (0,)]
    assert exc_info.value.best == (float.fromhex("0x1p-55"), float.fromhex("0x1.4ceb0b9adc784p-24"))
    assert exc_info.value.feasibility == float.fromhex("0x1.b4f27de7faaf5p-48")


def _sets_with_closed_form_constraints(r):
    """The lens of the disks of radius r about (-r/2, 0) and (r/2, 0), the
    disk of radius r cut by x + y <= r/2, and the ball of radius 2r in R^3
    cut by x <= 0 and y <= 0: every constraint a ball or a halfspace."""
    def ball(center, radius):
        terms = {(0,) * len(center): sum(c * c for c in center) - radius * radius}
        for i, c in enumerate(center):
            terms[tuple(2 if k == i else 0 for k in range(len(center)))] = 1.0
            terms[tuple(1 if k == i else 0 for k in range(len(center)))] = -2.0 * c
        return Polynomial(len(center), terms)

    return [
        ConvexSetDescriptor("lens", [ball((-0.5 * r, 0.0), r), ball((0.5 * r, 0.0), r)]),
        ConvexSetDescriptor("disk-halfplane", [ball((0.0, 0.0), r), Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0,
                                                                                    (0, 0): -0.5 * r})]),
        ConvexSetDescriptor("ball-quadrant", [ball((0.0, 0.0, 0.0), 2.0 * r), Polynomial(3, {(1, 0, 0): 1.0}),
                                              Polynomial(3, {(0, 1, 0): 1.0})]),
    ]


def _newton_solution(g, x):
    """The KKT point (y, lams) of the working set {g = 0} that the Newton
    kernel reaches from g's cold seeds, as ``sets._kkt_newton`` runs it."""
    from cycproj import poly, sets

    kernel = poly.newton_kernel([g])
    for seed in g.kkt_kernels().kkt_seed(x, g.evaluate(x), None) or ():
        state = kernel(x, seed, sets._solve_dense, sets._NEWTON_MAX_ITER, FEASIBILITY_TOL, sets.OPTIMALITY_TOL)
        if state is not None:
            return state[:2]
    return None


@pytest.mark.parametrize("r, tol", [(1.0, 1e-15), (1e3, 1e-12)])
def test_closed_form_working_set_is_the_newton_solution(r, tol):
    # a working set of one ball or halfspace constraint violated at x is
    # solved by the constraint's closed form; it is the KKT point Newton
    # reaches, with the multiplier |x - y| / |grad g| > 0
    from cycproj.sets import _closed_solve

    rng = random.Random(3)
    checked = 0
    for s in _sets_with_closed_form_constraints(r):
        for _ in range(100):
            x = tuple(r * rng.uniform(-3.0, 3.0) for _ in range(s.dimension))
            for j, g in enumerate(s.constraints):
                if not g.evaluate(x) > 0.0:
                    continue
                y, (lam,) = _closed_solve(s, j, x)
                y_newton, (lam_newton,) = _newton_solution(g, x)
                assert vdist(y, y_newton) <= tol * max(1.0, math.hypot(*y_newton)), (s.name, j, x)
                assert lam > 0.0 and abs(lam - lam_newton) <= 1e-12 * lam_newton, (s.name, j, x)
                checked += 1
    assert checked > 300


def test_project_far_start_onto_quartic_ball():
    quartic, _ = get_entry("ex5.8:n=2").pair
    x = (1e10, 1.0)
    y = project(quartic, x)
    assert residual(quartic, y) <= 1e-10
    # y - x is a nonnegative multiple of the outward normal at y
    grad = quartic.constraints[0].gradient(y)
    d = vsub(x, y)
    cross = d[0] * grad[1] - d[1] * grad[0]
    assert abs(cross) <= 1e-10 * math.hypot(*d) * math.hypot(*grad)
    assert d[0] * grad[0] + d[1] * grad[1] > 0.0


def test_project_degenerate_thin_set():
    # {x_1^2 <= 0} is the line x_1 = 0, where the gradient vanishes: no KKT point
    thin = ConvexSetDescriptor("thin", [Polynomial(2, {(2, 0): 1.0})])
    with pytest.raises(ProjectionError, match="'thin'") as exc_info:
        project(thin, (0.3, 0.7))
    assert exc_info.value.best == (0.3, 0.7)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_distance_to_degenerate_chain_set_is_exact(d):
    # {x_1^d <= 0} is the line x_1 = 0, where the gradient vanishes, so the
    # projection has no KKT multiplier and is refused rather than inexact
    s = get_entry(f"ex3.2:n=2,d={d}").problem.sets[0]
    x = (1e-3, 0.3)
    with pytest.raises(ProjectionError, match="'chain-0'") as exc_info:
        distance(s, x)
    assert exc_info.value.best == x


def test_project_empty_set_raises_with_best_iterate():
    empty = ConvexSetDescriptor("empty", [Polynomial(1, {(2,): 1.0, (0,): 1.0})])
    with pytest.raises(ProjectionError) as exc_info:
        project(empty, (2.0,))
    assert exc_info.value.best is not None
    assert exc_info.value.feasibility > 0.9  # x^2 + 1 >= 1 everywhere


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project(left_disk(), (1.0, 2.0, 3.0))


@pytest.mark.parametrize("s, x", [
    (left_disk(), (math.nan, 0.0)),
    (left_disk(), (math.inf, 0.0)),
    # the constraint x <= 0 ignores y, so this point used to pass as feasible
    (halfplane_x(), (-1.0, math.inf)),
])
def test_project_rejects_non_finite_points(s, x):
    with pytest.raises(ValueError, match="must be finite"):
        project(s, x)
    with pytest.raises(ValueError, match="must be finite"):
        distance(s, x)


def test_projection_is_deterministic():
    s = parabola_region()
    assert project(s, (-0.3, 1.7)) == project(s, (-0.3, 1.7))


def test_project_bad_warm_start_gives_cold_result():
    quartic, _ = get_entry("ex5.8:n=2").pair
    x = (2.0, 1.0)
    cold = project(quartic, x)
    # a boundary point on the far side of the set is a worse seed than the
    # cold one, so the solve must be the cold solve, bit for bit
    assert project(quartic, x, start=(-2.0, 0.0)) == cold
    assert vdist(project(quartic, x, start=cold), cold) <= 1e-12


def test_project_rejects_a_warm_start_of_the_wrong_length():
    quartic, _ = get_entry("ex5.8:n=2").pair
    with pytest.raises(ValueError, match="warm start has length 3, set dimension is 2"):
        project(quartic, (2.0, 1.0), start=(1.0, 0.0, 0.0))


@pytest.mark.parametrize("s, x", [
    (get_entry("ex5.5").problem.sets[0], (0.5, 1.0)),
    (get_entry("ex5.8:n=2").problem.sets[0], (-1.0, 0.0)),
    (get_entry("ex5.8:n=2").problem.sets[0], (2.0, 1.0)),
    (ConvexSetDescriptor("lens", [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): c, (0, 0): -0.75})
                                  for c in (1.0, -1.0)]), (0.0, 2.0)),
], ids=["closed-form", "feasible", "one-active", "two-active"])
def test_project_checks_the_warm_start_length_on_every_path(s, x):
    with pytest.raises(ValueError, match="^warm start has length 3, set dimension is 2$"):
        project(s, x, start=(1.0, 2.0, 3.0))


# -- distance -----------------------------------------------------------------


def test_distance_feasible_point():
    assert distance(left_disk(), (-1.0, 0.0)) == 0.0


def test_distance_halfspace():
    assert distance(halfplane_x(), (3.0, 4.0)) == 3.0


def test_distance_quartic_ball_on_axis():
    n = 2
    terms = {
        (4, 0): 1.0,
        (3, 0): 4.0,
        (2, 0): 6.0,
        (1, 0): 4.0,
        (0, 4): 1.0,
    }
    quartic = ConvexSetDescriptor("quartic", [Polynomial(n, terms)])
    assert abs(distance(quartic, (2.0, 0.0)) - 2.0) <= 1e-9


# -- operator properties (small scale; the full suite runs in acceptance) ----


def _sample_sets():
    return [left_disk(), halfplane_x(), parabola_region()]


def test_projection_idempotent_small():
    rng = np.random.default_rng(5)
    for s in _sample_sets():
        for _ in range(50):
            x = tuple(rng.uniform(-2.5, 2.5, size=2))
            y = project(s, x)
            assert vdist(project(s, y), y) <= 1e-8


def test_projection_nonexpansive_small():
    rng = np.random.default_rng(6)
    for s in _sample_sets():
        for _ in range(50):
            x = tuple(rng.uniform(-2.5, 2.5, size=2))
            y = tuple(rng.uniform(-2.5, 2.5, size=2))
            assert vdist(project(s, x), project(s, y)) <= vdist(x, y) + 1e-8


def test_variational_inequality_small():
    rng = np.random.default_rng(8)
    for s in _sample_sets():
        feas = []
        while len(feas) < 20:
            c = project(s, tuple(rng.uniform(-2.5, 2.5, size=2)))
            if residual(s, c) <= 1e-8:
                feas.append(c)
        for _ in range(30):
            x = tuple(rng.uniform(-2.5, 2.5, size=2))
            px = project(s, x)
            for c in feas:
                inner = sum((a - b) * (cc - b) for a, b, cc in zip(x, px, c))
                assert inner <= 1e-8


def test_distance_matches_brute_force_grid_small():
    rng = np.random.default_rng(9)
    s = left_disk()
    queries = [tuple(rng.uniform(-1.5, 1.5, size=2)) for _ in range(5)]
    brute = brute_force_distances(s, queries, box=((-2.2, 0.3), (-1.2, 1.2)))
    for q, b in zip(queries, brute):
        assert abs(distance(s, q) - b) <= 2e-3


# -- oracles ------------------------------------------------------------------


def test_singleton_and_segment_distance():
    assert Singleton((1.0, 2.0)).distance((1.0, 2.0)) == 0.0
    assert Singleton((1.0, 2.0)).distance((4.0, 6.0)) == 5.0


def test_oracles_reject_non_finite_points():
    with pytest.raises(ValueError):
        Singleton((0.0, math.nan))


class _DuckOracle:
    point = (0.0, 0.0)

    def distance(self, x):
        return vdist(x, self.point)


@pytest.mark.parametrize("oracle", [(0.0, 0.0), _DuckOracle()], ids=["tuple", "duck"])
def test_problem_refuses_an_oracle_that_is_not_a_singleton(oracle):
    disk = ConvexSetDescriptor("disk", [LEFT_DISK_POLY])
    with pytest.raises(TypeError, match="must be a Singleton or None"):
        FeasibilityProblem(2, (disk,), oracle)
    assert FeasibilityProblem(2, (disk,), None).intersection_oracle is None


# -- copying and pickling ------------------------------------------------------------


def _assert_same_problem(a, b, points):
    assert a is not b
    assert (a.dimension, a.max_degree, a.intersection_oracle) == (
        b.dimension, b.max_degree, b.intersection_oracle
    )
    assert len(a.sets) == len(b.sets)
    for sa, sb in zip(a.sets, b.sets):
        assert sa is not sb
        assert (sa.name, sa.constraints, sa.analytic_hint, sa.dimension) == (
            sb.name, sb.constraints, sb.analytic_hint, sb.dimension
        )
        for ga, gb in zip(sa.constraints, sb.constraints):
            assert ga is not gb and ga == gb
            for x in points:
                assert ga.evaluate(x).hex() == gb.evaluate(x).hex()
                assert [v.hex() for v in ga.gradient(x)] == [v.hex() for v in gb.gradient(x)]


@pytest.mark.parametrize("entry_id", ["ex5.1", "ex5.7:d=4"])
def test_problem_copy_deepcopy_and_pickle_round_trip(entry_id):
    import copy
    import pickle

    problem = get_entry(entry_id).problem
    rng = np.random.default_rng(5)
    points = [tuple(rng.uniform(-2.0, 2.0, size=problem.dimension)) for _ in range(20)]
    for s in problem.sets:  # compile every kernel of the original first
        for g in s.constraints:
            g.evaluate(points[0])
            g.gradient(points[0])
    for clone in (copy.deepcopy(problem), pickle.loads(pickle.dumps(problem))):
        # kernels are not copied; derivative kernels compile on first use
        cloned = [g for s in clone.sets for g in s.constraints]
        assert all(g._kernels.gradient is None for g in cloned)
        _assert_same_problem(problem, clone, points)
        assert all(g._kernels.value is not None for g in cloned)
        assert all(g._kernels.hessian_rows is not None for g in cloned)
    shallow = copy.copy(problem)
    assert shallow is not problem and shallow.sets == problem.sets
    for s in problem.sets:
        for clone in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert clone is not s
            assert (clone.name, clone.constraints, clone.analytic_hint) == (
                s.name, s.constraints, s.analytic_hint
            )


def test_polynomial_pickle_recompiles_lazily():
    import pickle

    p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): -0.5, (0, 0): -1.0})
    p.hessian_rows((0.3, 0.4))
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)
    assert (q._kernels.value, q._kernels.gradient, q._kernels.hessian_rows) == (None, None, None)
    assert q.evaluate((0.3, 0.4)) == p.evaluate((0.3, 0.4))
    assert q._kernels.value is not None and q._kernels.gradient is None
    assert q.hessian_rows((0.3, 0.4)) == p.hessian_rows((0.3, 0.4))


# -- the compiled residual and closed-form kernels against the plain loops ----


def _hex(v):
    return None if v is None else [u.hex() for u in v] if isinstance(v, tuple) else v.hex()


@st.composite
def _set_and_point(draw):
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 4)] * n)
    coefficients = st.one_of(st.floats(-1e3, 1e3), st.integers(-3, 3).map(float))
    constraints = [
        Polynomial(n, draw(st.dictionaries(exponents, coefficients, max_size=6)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    coordinates = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
    return ConvexSetDescriptor("generated", constraints), tuple(draw(st.lists(coordinates, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_set_and_point())
def test_compiled_residual_matches_the_loop_bit_for_bit(case):
    s, x = case
    assert residual(s, x).hex() == reference_residual(s, x).hex()


def test_compiled_residual_keeps_the_loop_order_at_nan_and_overflow():
    x = (1e200, 1e200, 1e200)
    zero = Polynomial(3)
    nan = Polynomial(3, {(1, 1, 0): 1.0, (1, 0, 1): -1.0})  # inf - inf at x
    overflow = Polynomial(3, {(2, 0, 0): 1.0})  # 1e200 ** 2 raises OverflowError
    # the NaN comes first: returned without evaluating the overflowing constraint
    s = ConvexSetDescriptor("nan-first", [zero, nan, overflow])
    assert math.isnan(residual(s, x)) and math.isnan(reference_residual(s, x))
    assert residual(s, (1.0, 2.0, 3.0)).hex() == reference_residual(s, (1.0, 2.0, 3.0)).hex()
    s = ConvexSetDescriptor("overflow-first", [zero, overflow, nan])
    with pytest.raises(OverflowError):
        reference_residual(s, x)
    with pytest.raises(NumericalError, match="overflow evaluating the constraints of 'overflow-first'"):
        residual(s, x)
    with pytest.raises(ValueError, match="point length 2 != dimension 3"):
        residual(s, (1.0, 2.0))
    assert residual(ConvexSetDescriptor("zero", [zero]), x).hex() == (0.0).hex()


@pytest.mark.parametrize(
    "terms, points",
    [
        # x0 + 2 x1 <= 3, with a zero coefficient's term kept in the sums: 0 * x2
        ({(1, 0, 0): 1.0, (0, 1, 0): 2.0, (0, 0, 0): -3.0},
         [(1.0, 1.0, 7.0), (0.0, 0.0, -0.0), (3.0, 1.5, 1e300), (-1e300, 1e300, 0.5), (0.1, 0.2, 0.3)]),
        # the disk of radius 2 about (1, -0.5)
        ({(2, 0): 1.0, (1, 0): -2.0, (0, 2): 1.0, (0, 1): 1.0, (0, 0): -2.75},
         [(3.0, -0.5), (1.0, 1.5), (1.0, -0.5), (0.3, 0.7), (4.0, 4.0), (-7.5, 0.25), (1e200, 0.0)]),
        # the unit disk
        ({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0},
         [(1.0, 0.0), (0.6, 0.8), (0.0, -0.0), (2.0, -2.0), (1e-300, 1.0), (1e200, 0.0)]),
    ],
)
def test_closed_form_kernels_match_the_vector_helpers_bit_for_bit(terms, points):
    s = ConvexSetDescriptor("closed", [Polynomial(len(next(iter(terms))), terms)])
    hint = s.analytic_hint
    reference = reference_halfspace if isinstance(hint, Halfspace) else reference_ball
    for x in points:
        try:
            expected = reference(hint, x)
        except OverflowError:
            with pytest.raises(NumericalError, match="overflow evaluating the constraints of 'closed'"):
                project(s, x)
        else:
            assert _hex(project(s, x)) == _hex(expected)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
    st.floats(-5.0, 5.0),
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
)
def test_generated_closed_forms_match_the_vector_helpers_bit_for_bit(linear, c, x):
    def outcome(f, *args):
        # the error's type where one is raised: a halfspace whose |a|^2
        # underflows to 0 divides by zero in both
        try:
            return _hex(f(*args))
        except ZeroDivisionError as exc:
            return type(exc)

    x = tuple(x)
    for terms in ({(1, 0): linear[0], (0, 1): linear[1], (0, 0): c},
                  {(2, 0): 1.0, (0, 2): 1.0, (1, 0): linear[0], (0, 1): linear[1], (0, 0): -abs(c) - 1.0}):
        s = ConvexSetDescriptor("generated", [Polynomial(2, terms)])
        hint = s.analytic_hint
        if hint is not None:
            reference = reference_halfspace if isinstance(hint, Halfspace) else reference_ball
            assert outcome(project, s, x) == outcome(reference, hint, x)


def test_feasibility_is_judged_against_the_size_of_the_terms():
    # projections onto a ball of radius 1e4 are exact to rounding, yet the
    # expanded x^2 + y^2 - 1e8 there reads up to about 1e-8: the absolute test
    # fails on some, and the rule relative to the terms' size, 1e-10 * 2e8,
    # passes all; a point 1e-3 outside, a value of 20, fails it
    rng = np.random.default_rng(0)
    s = ConvexSetDescriptor("big-ball", [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1e8})])
    ys = [project(s, tuple(x)) for x in rng.uniform(-3e4, 3e4, size=(200, 2))]
    assert any(residual(s, y) > FEASIBILITY_TOL for y in ys)
    assert all(feasible(s, y) for y in ys)
    assert not feasible(s, (1e4 + 1e-3, 0.0)) and not feasible(s, (math.nan, 0.0))
    # a set of scale 1 keeps the absolute test
    unit = ConvexSetDescriptor("unit", [Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})])
    assert feasible(unit, (1.0, 0.0)) and not feasible(unit, (1.0 + 1e-9, 0.0))
    # a value that overflows to inf fails, though its size is inf too
    huge = ConvexSetDescriptor("huge", [Polynomial(1, {(2,): 1e300, (0,): -1.0})])
    assert residual(huge, (1e5,)) == math.inf and not feasible(huge, (1e5,))
