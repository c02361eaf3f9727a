"""Modular arithmetic utilities: exact values against wide-integer references."""

import math
import random

import pytest

from shiftlab.errors import GuardError
from shiftlab.group_arith import (
    N_CAP,
    VAL_INF,
    Modulus,
    ceil_div,
    ceil_log2,
    mul_mod,
    two_adic_valuation,
)


def test_modulus_classifies_pow2():
    m = Modulus(16)
    assert m.N == 16 and m.n == 4 and m.is_pow2 and not m.is_odd


def test_modulus_classifies_odd():
    m = Modulus(15)
    assert m.is_odd and not m.is_pow2
    assert m.n == 4  # bit length of N-1


def test_modulus_rejects_degenerate():
    with pytest.raises(GuardError):
        Modulus(1)
    with pytest.raises(GuardError):
        Modulus(0)


def test_modulus_rejects_oversized():
    with pytest.raises(GuardError):
        Modulus(N_CAP * 2)


def test_mul_mod_small():
    assert mul_mod(3, 5, Modulus(7)) == 1


def test_mul_mod_zero_absorbs():
    m = Modulus(12345)
    for x in (0, 1, 777, 12344):
        assert mul_mod(0, x, m) == 0
        assert mul_mod(x, 0, m) == 0


def test_mul_mod_wide():
    # 2^31 * 2^31 = 2^62 = 2*(2^61 - 1) + 2
    m = Modulus(2**61 - 1)
    assert mul_mod(2**31, 2**31, m) == 2


def test_mul_mod_random_against_bignum():
    rng = random.Random(101)
    for _ in range(10**5):
        N = rng.randrange(2, 2**61)
        a = rng.randrange(N)
        b = rng.randrange(N)
        assert mul_mod(a, b, Modulus(N)) == a * b % N


def test_ceil_div_matches_float_ceiling():
    for a in range(-20, 21):
        for b in range(1, 9):
            assert ceil_div(a, b) == math.ceil(a / b)
    assert ceil_div(2**70 + 1, 2**10) == 2**60 + 1


def test_ceil_log2_is_bit_width_of_range():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    for x in range(1, 2000):
        assert ceil_log2(x) == math.ceil(math.log2(x))
    assert ceil_log2(2**63 - 1) == 63


def test_two_adic_valuation():
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(96) == 5
    assert two_adic_valuation(0) == VAL_INF
    assert math.isinf(two_adic_valuation(0))
