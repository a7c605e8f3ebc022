"""A min or a max of two exponent terms fails only when the chosen term is
past 64 bits: the other term may lie past it, judged by its bit length."""

import math

from cycproj.rates import ExponentOverflowError, PowerLaw, cyclic_rate, holder_exponent_tau


def test_cyclic_rate_takes_the_least_term_when_the_other_is_past_64_bits():
    # 2 beta(32) 2^33 - 2 is a 64-bit integer past the range, 3^33 - 1 fits
    assert cyclic_rate(33, 2) == PowerLaw(1 / (3**33 - 1))
    assert 2 * math.comb(32, 16) * 2**33 - 2 > 2**63 - 1


def test_tau_takes_the_greatest_term_when_the_other_is_past_64_bits():
    # kappa(34, 4) = 3^34 + 1 fits and beta(33) 2^34 does not; for d = 1,
    # kappa(n, 2) = 2 and tau = 1 whatever the size of beta(n - 1)
    assert holder_exponent_tau(34, 2) == 2 / (3**34 + 1)
    assert holder_exponent_tau(100, 1) == 1.0


def _exact_or_none(call):
    try:
        return call()
    except ExponentOverflowError:
        return None


def test_a_min_or_max_matches_the_exact_integers():
    # the choice made on the exact integers, which fails only when the chosen one is past 64 bits
    fits = 2**63 - 1
    for n in range(1, 90):
        c = math.comb(n - 1, (n - 1) // 2)
        for d in range(1, 9):
            k2, b = (2 * d - 1) ** n + 1, c * d**n
            tau = (2.0 / k2 if k2 <= fits else None) if 2 * b >= k2 else (1.0 / b if b <= fits else None)
            assert _exact_or_none(lambda: holder_exponent_tau(n, d)) == tau, (n, d)
            if d > 1:
                least = min((2 * d - 1) ** n - 1, 2 * b - 2)
                rate = PowerLaw(1.0 / least) if least <= fits else None
                assert _exact_or_none(lambda: cyclic_rate(n, d)) == rate, (n, d)
    assert holder_exponent_tau(10**6, 1) == 1.0
