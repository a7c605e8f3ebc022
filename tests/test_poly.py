import numpy as np
import pytest

from cycproj.poly import Monomial, Polynomial
from helpers import poly_multiply

# (x+1)^2 + y^2 - 1 expanded
LEFT_DISK = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 2.0})


def test_evaluate_zero_polynomial():
    p = Polynomial(2)
    assert p.evaluate((3.7, -1.0)) == 0.0
    assert p.degree() == 0
    assert not p.terms


def test_evaluate_boundary_point_of_disk():
    assert LEFT_DISK.evaluate((0.0, 0.0)) == 0.0


def test_evaluate_matches_independent_accumulation():
    p = Polynomial(2, {(0, 2): 1.0, (1, 0): -1.0})  # y^2 - x
    x = (0.25, 0.5)
    assert p.evaluate(x) == 0.0
    # independent per-term product accumulation
    total = 0.0
    for mono in p.terms:
        t = mono.coefficient
        for xi, e in zip(x, mono.exponents):
            for _ in range(e):
                t *= xi
        total += t
    assert p.evaluate(x) == total


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        LEFT_DISK.evaluate((1.0,))
    with pytest.raises(ValueError):
        LEFT_DISK.gradient((1.0, 2.0, 3.0))


def test_evaluation_independent_of_construction_order():
    terms = [((2, 0), 1.0), ((0, 2), 1.0), ((1, 0), 2.0), ((1, 1), -0.3), ((0, 0), 0.7)]
    p1 = Polynomial(2, dict(terms))
    p2 = Polynomial(2, dict(reversed(terms)))
    x = (0.123456, -0.9876)
    assert p1.evaluate(x) == p2.evaluate(x)  # canonical term order, bitwise


def test_terms_must_be_a_mapping():
    for terms in ([Monomial((1,), 2.0)], [((1,), 2.0)], ((1,), 2.0)):
        with pytest.raises(TypeError):
            Polynomial(1, terms)
    assert not Polynomial(1, None).terms


def test_invalid_terms_rejected():
    with pytest.raises(ValueError):
        Monomial((1, -1), 1.0)
    with pytest.raises(ValueError):
        Monomial((1,), float("nan"))
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1.0})  # wrong exponent length


def test_non_integral_exponent_rejected():
    # int() would truncate 1.5 to 1 and make 2 x^1.5 the polynomial 2 x
    with pytest.raises(ValueError, match="non-integral exponent"):
        Polynomial(1, {(1.5,): 2.0})
    with pytest.raises(ValueError, match="non-integral exponent"):
        Monomial((2, 0.5), 1.0)
    # an integral float is that integer
    p = Polynomial(2, {(2.0, 1): 3.0})
    assert [m.exponents for m in p.terms] == [(2, 1)]
    assert p.evaluate((2.0, 5.0)) == 60.0


def test_gradient_constant_and_quadratic():
    const = Polynomial(2, {(0, 0): 5.0})
    assert const.gradient((4.0, -7.0)) == (0.0, 0.0)
    assert LEFT_DISK.gradient((0.0, 0.0)) == (2.0, 0.0)


def test_gradient_univariate_quartic():
    p = Polynomial(1, {(4,): 1.0})
    assert p.gradient((2.0,)) == (32.0,)


def _random_poly(rng, n, max_deg):
    terms = {}
    for _ in range(rng.integers(2, 7)):
        exps = tuple(int(v) for v in rng.integers(0, max_deg + 1, size=n))
        if sum(exps) > max_deg:
            continue
        terms[exps] = float(rng.integers(-3, 4)) or 1.0
    terms[(0,) * n] = 1.0
    return Polynomial(n, terms)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = _random_poly(rng, n, 6)
        x = rng.uniform(-2.0, 2.0, size=n)
        grad = p.gradient(tuple(x))
        for i in range(n):
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (p.evaluate(tuple(xp)) - p.evaluate(tuple(xm))) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(grad[i]))


def test_hessian_examples():
    lin = Polynomial(2, {(1, 0): 3.0, (0, 1): -2.0, (0, 0): 1.0})
    assert lin.hessian_rows((0.3, 0.4)) == [[0.0, 0.0], [0.0, 0.0]]
    quad = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    assert quad.hessian_rows((11.0, -4.0)) == [[2.0, 0.0], [0.0, 2.0]]
    quartic = Polynomial(1, {(4,): 1.0})
    assert quartic.hessian_rows((1.0,)) == [[12.0]]


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        p = _random_poly(rng, n, 5)
        H = p.hessian_rows(tuple(rng.uniform(-2, 2, size=n)))
        for i in range(n):
            for j in range(n):
                assert H[i][j] == H[j][i]  # bitwise, by construction


def test_degree_of_products_is_additive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = _random_poly(rng, n, 4)
        q = _random_poly(rng, n, 4)
        assert poly_multiply(p, q).degree() == p.degree() + q.degree()


def test_partial_derivative_index_check():
    with pytest.raises(ValueError):
        LEFT_DISK.partial(2)
