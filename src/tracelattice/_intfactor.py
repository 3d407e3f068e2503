"""Integer primality, factorization, and square-class helpers.

Used for discriminant factoring (maximal orders), rational-root tests, and
the square-class obstruction predicate. Deterministic for |n| < 3.3e24 via
the known Miller-Rabin base set; larger inputs fall back to the same bases
(probabilistically safe far beyond this library's desk scale).
"""
from __future__ import annotations

from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: how many x - y factors Brent's rho multiplies together between gcds
_RHO_BATCH = 128


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent, BIT 20, 1980).

    The walk y -> y^2 + c mod n is compared against x, its value at the
    last power of two, which finds the cycle with one squaring per step
    where Floyd's needs three.  The x - y are multiplied mod n and one
    gcd is taken per batch of _RHO_BATCH steps; a batch whose product
    shares all of n backtracks from its start one gcd per step, and a walk
    that still meets only n retries with the next c."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                start = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                start = (start * start + c) % n
                g = gcd(x - start, n)
        if g != n:
            return g


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; factor(0) is an error."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # (cofactor, multiplicity): a perfect square is split into its root
    # once, with the multiplicity doubled, not into two roots to factor
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, k = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + k
            continue
        root = isqrt(m)
        if root * root == m:
            stack.append((root, 2 * k))
            continue
        d = _pollard_rho(m)
        stack.extend(((d, k), (m // d, k)))
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of |n|, sorted."""
    out = [1]
    for p, e in factor(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def squarefree_kernel(n: int) -> int:
    """The squarefree part of n (same square class), preserving sign."""
    if n == 0:
        raise ValueError("0 has no square class")
    sign = -1 if n < 0 else 1
    k = 1
    for p, e in factor(n).items():
        if e % 2 == 1:
            k *= p
    return sign * k


def an_exclusion(d_f: int, disc_order: int) -> str:
    """Square-class obstruction: a root lattice of discriminant disc_order
    inside a field of discriminant d_f needs the two to agree up to squares."""
    if d_f == 0:
        raise ValueError("field discriminant must be nonzero")
    if disc_order == 0:
        raise ValueError("0 has no square class")
    # nonzero a and b share a square class iff a*b is a square: no factoring
    if not is_square(d_f * disc_order):
        return "excluded"
    return "not excluded by this criterion"
