import math
import time

import numpy as np
import pytest

from cycproj.rates import (
    ExponentOverflowError,
    Linear,
    PowerLaw,
    central_binomial,
    cyclic_rate,
    holder_exponent_tau,
    kappa,
    recurrence_bound,
)


def test_central_binomial_values():
    assert central_binomial(0) == 1
    assert central_binomial(1) == 1
    assert central_binomial(4) == 6
    # independent factorial oracle
    for s in range(13):
        k = s // 2
        expected = math.factorial(s) // (math.factorial(k) * math.factorial(s - k))
        assert central_binomial(s) == expected


def test_central_binomial_overflow_and_domain():
    with pytest.raises(ExponentOverflowError):
        central_binomial(100)
    with pytest.raises(ValueError):
        central_binomial(-1)


def test_kappa_values():
    assert kappa(2, 2) == 2
    assert kappa(3, 1) == 1
    assert kappa(2, 4) == 10
    with pytest.raises(ExponentOverflowError):
        kappa(64, 3)
    with pytest.raises(ValueError):
        kappa(0, 2)


@pytest.mark.parametrize(
    "call",
    [lambda: cyclic_rate(6000, 4), lambda: holder_exponent_tau(6000, 4), lambda: central_binomial(20000)],
    ids=["cyclic_rate(6000,4)", "holder_exponent_tau(6000,4)", "central_binomial(20000)"],
)
def test_overflow_past_the_digit_limit_names_the_bit_length(call):
    # these values have more than the 4300 decimal digits CPython converts to text
    with pytest.raises(ExponentOverflowError, match=r" = a \d+-bit integer exceeds 64-bit range$"):
        call()


@pytest.mark.parametrize(
    "call",
    [lambda: cyclic_rate(3 * 10**6, 4), lambda: kappa(3 * 10**6, 8),
     lambda: holder_exponent_tau(3 * 10**6, 4), lambda: central_binomial(3 * 10**6)],
    ids=["cyclic_rate", "kappa", "holder_exponent_tau", "central_binomial"],
)
def test_a_refusal_far_past_64_bits_computes_no_integer(call):
    # a bit-length estimate refuses these before the integer is computed,
    # which took 0.84 s for (2d-1)^n and 73 s for C(s, s/2) at this size
    start = time.perf_counter()
    with pytest.raises(ExponentOverflowError, match=r" = a \d+-bit integer exceeds 64-bit range$"):
        call()
    assert time.perf_counter() - start < 0.05


def test_an_estimated_bit_length_is_the_exact_one():
    for n in (41, 64, 100, 1000, 6000):
        with pytest.raises(ExponentOverflowError, match=f" = a {(7**n - 1).bit_length()}-bit integer"):
            cyclic_rate(n, 4)
        with pytest.raises(ExponentOverflowError, match=f" = a {(7**n + 1).bit_length()}-bit integer"):
            kappa(n, 8)
    for s in (70, 71, 500, 20000):
        with pytest.raises(ExponentOverflowError, match=f" = a {math.comb(s, s // 2).bit_length()}-bit integer"):
            central_binomial(s)
    # at 2^64 + 1 the estimate 64.0 decides nothing, so the value is computed and printed
    with pytest.raises(ExponentOverflowError, match=r"^kappa\(64,3\) = 18446744073709551617 exceeds"):
        kappa(64, 3)


def test_tau_degree_one_is_lipschitz():
    for n in range(1, 9):
        assert holder_exponent_tau(n, 1) == 1.0


def test_tau_univariate_is_one_over_d():
    for d in range(1, 11):
        assert holder_exponent_tau(1, d) == 1.0 / d


def test_tau_two_two():
    # max{2/kappa(2,4), 1/(beta(1)*2^2)} = max{0.2, 0.25}
    assert holder_exponent_tau(2, 2) == 0.25


def test_tau_bounds_and_degree_one_characterization():
    for n in range(1, 9):
        for d in range(1, 9):
            tau = holder_exponent_tau(n, d)
            assert tau <= 1.0
            assert (tau == 1.0) == (d == 1)


def test_cyclic_rate_values():
    assert cyclic_rate(2, 2) == PowerLaw(1.0 / 6.0)
    assert cyclic_rate(3, 1) == Linear()
    assert cyclic_rate(2, 4) == PowerLaw(1.0 / 30.0)  # min{48, 30}


def test_cyclic_rate_monotone_in_n_and_d():
    for n in range(1, 9):
        for d in range(2, 9):
            rho = cyclic_rate(n, d).rho
            if d < 8:
                assert cyclic_rate(n, d + 1).rho <= rho
            if n < 8:
                assert cyclic_rate(n + 1, d).rho <= rho


def test_cyclic_rate_matches_tau_identity():
    # rho = 1 / (2/tau - 2) whenever the class is a power law
    for n in range(1, 7):
        for d in range(2, 7):
            rate = cyclic_rate(n, d)
            tau = holder_exponent_tau(n, d)
            assert rate.rho == pytest.approx(1.0 / (2.0 / tau - 2.0), rel=1e-12)


def test_cyclic_rate_overflow():
    with pytest.raises(ExponentOverflowError):
        cyclic_rate(40, 10)


def test_power_law_validation():
    with pytest.raises(ValueError):
        PowerLaw(0.0)
    with pytest.raises(ValueError):
        PowerLaw(1.5)


def test_recurrence_bound_zero_start():
    assert recurrence_bound(0.0, 2.0, [0.5, 1.0, 0.0]) == [0.0, 0.0, 0.0]


def test_recurrence_bound_harmonic_closed_form():
    out = recurrence_bound(1.0, 1.0, [1.0] * 10)
    for k, b in enumerate(out, start=1):
        assert b == pytest.approx(1.0 / (1.0 + k), rel=1e-14)


def test_recurrence_bound_zero_deltas():
    assert recurrence_bound(1.0, 2.0, [0.0, 0.0, 0.0]) == [1.0, 1.0, 1.0]


def test_recurrence_bound_input_validation():
    with pytest.raises(ValueError):
        recurrence_bound(1.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        recurrence_bound(-1.0, 1.0, [1.0])
    with pytest.raises(ValueError):
        recurrence_bound(1.0, 1.0, [-0.1])


def test_recurrence_bound_dominates_admissible_sequences():
    # smaller-scale version of the acceptance property: sequences actually
    # satisfying beta_{k+1} <= beta_k (1 - delta_k beta_k^p) stay below the bound
    rng = np.random.default_rng(123)
    for _ in range(200):
        p = float(rng.uniform(0.2, 3.0))
        beta0 = float(rng.uniform(0.0, 2.0))
        n_steps = int(rng.integers(1, 40))
        betas = [beta0]
        deltas = []
        for _ in range(n_steps):
            b = betas[-1]
            cap = b**p if b > 0 else 0.0
            # keep 1 - delta*b^p >= 0 so the sequence stays admissible
            delta = float(rng.uniform(0.0, 1.0 / cap)) if cap > 0 else float(rng.uniform(0.0, 2.0))
            shrink = float(rng.uniform(0.0, 1.0))
            betas.append(max(b * (1.0 - delta * cap) * shrink, 0.0))
            deltas.append(delta)
        bound = recurrence_bound(beta0, p, deltas)
        for k in range(1, len(betas)):
            assert betas[k] <= bound[k - 1] + 1e-12
