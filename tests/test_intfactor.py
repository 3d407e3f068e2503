"""Integer utilities: factorization, squares, squarefree kernels."""
from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from oracles import factor_by_trial_division
from tracelattice import _intfactor
from tracelattice._intfactor import (
    divisors,
    factor,
    is_probable_prime,
    is_square,
    squarefree_kernel,
)


def test_small_primes():
    primes = [p for p in range(2, 60) if is_probable_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_carmichael_numbers_rejected():
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_probable_prime(n)


def test_factor_known():
    assert factor(1) == {}
    assert factor(2 ** 10) == {2: 10}
    assert factor(169) == {13: 2}
    assert factor(43 * 43 * 4) == {2: 2, 43: 2}
    assert factor(1000003) == {1000003: 1}


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=10 ** 9))
def test_factor_reconstructs(n):
    f = factor(n)
    prod = 1
    for p, e in f.items():
        assert is_probable_prime(p)
        prod *= p ** e
    assert prod == n


def test_factor_splits_a_square_once(monkeypatch):
    # a discriminant delta^2 costs one factorization of delta, not two
    calls = []
    rho = _intfactor._pollard_rho

    def counting(n):
        calls.append(n)
        return rho(n)

    monkeypatch.setattr(_intfactor, "_pollard_rho", counting)
    p, q = 1000003, 1000033
    assert factor((p * q) ** 2) == {p: 2, q: 2}
    assert factor((p * q) ** 4 * 3) == {3: 1, p: 4, q: 4}
    assert calls == [p * q, p * q]


#: primes past the trial-division table, so that factor needs the rho step
RHO_PRIMES = [p for p in range(101, 40_000) if is_probable_prime(p)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RHO_PRIMES), st.sampled_from(RHO_PRIMES), st.integers(1, 2))
def test_factor_matches_trial_division_on_semiprimes(p, q, k):
    n = p * q * k
    assert factor(n) == factor_by_trial_division(n)
    if p != q:
        assert _intfactor._pollard_rho(p * q) in (p, q)


def test_pollard_rho_splits_larger_semiprimes():
    # factors of 10 to 19 digits take thousands of batched steps
    for p, q in ((2**31 - 1, 2**61 - 1), (1000003, 999999000001), (10**9 + 7, 10**9 + 9)):
        assert _intfactor._pollard_rho(p * q) in (p, q)
        assert factor(p * q) == {min(p, q): 1, max(p, q): 1}


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


@settings(max_examples=80)
@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6))
def test_is_square_matches_isqrt(n):
    expected = n >= 0 and math.isqrt(n) ** 2 == n
    assert is_square(n) == expected


def test_squarefree_kernel():
    assert squarefree_kernel(1) == 1
    assert squarefree_kernel(4) == 1
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(169) == 1
    assert squarefree_kernel(-18) == -2
    assert squarefree_kernel(229) == 229


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_squarefree_kernel_is_squarefree_and_divides(n):
    k = squarefree_kernel(n)
    assert n % k == 0
    assert is_square(n // k)
    for p in factor(k):
        assert k % (p * p) != 0
