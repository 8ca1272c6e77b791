"""Independent brute-force oracles shared by the unit and acceptance tests.

The brute-force oracles call nothing in the library; their divisor walks are
plain trial division, so disagreements point at the library, never at a
shared bug.  ``a_decompose_walk`` is the one reference built on library
parts (see its docstring).  ``spectral_factors_gauss`` and
``beta_gamma_norms_alt`` are library-free too: Gaussian integers here are
plain ``(re, im)`` pairs, combined by ``gauss_add`` and ``gauss_mul``.
"""

from itertools import combinations_with_replacement
from math import isqrt

from c4x4det.classifier import OddA
from c4x4det.numtheory import (
    _TRIAL_BOUND,
    _TRIAL_PRIMES,
    _brent_rho,
    factorize,
    is_prime,
    signed_divisors_1mod8,
)


def positive_divisors(n: int) -> list:
    """Sorted positive divisors of |n|, by paired trial division."""
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def two_squares_all(n: int) -> list:
    """All (u, v) with u, v >= 0 and u^2 + v^2 == n, by walking v up to isqrt(n)."""
    out = []
    for v in range(isqrt(n) + 1):
        rest = n - v * v
        u = isqrt(rest)
        if u * u == rest:
            out.append((u, v))
    return out


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round: is odd n > 2 a strong probable prime to base a?"""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def factor_unsigned_loop(n: int) -> dict:
    """Reference for ``numtheory._factor_unsigned``: trial division by every table prime.

    This is the loop the gcd screen replaced, with the same early break and
    the same primality test and rho for the survivor, so it fixes the dict,
    insertion order included, that the screened version must return.
    """
    out: dict = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    if n == 1:
        return out
    if n < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(n):
        out[n] = out.get(n, 0) + 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def is_prime_extended_bases(n: int) -> bool:
    """Miller-Rabin on the fixed bases 2..53 that once served above ~3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    if n < 2 or n in bases:
        return n in bases
    if any(n % p == 0 for p in bases):
        return False
    return all(strong_probable_prime(n, a) for a in bases)


def brute_set_a_member(n: int) -> bool:
    """Does n factor as (8j+1)(8k-3)*p1*p2*p3 with the parity constraint?

    Enumerates all ordered factor 5-tuples with the residue constraints,
    every factor bounded by |n|: signed 1-mod-8 divisors for the first slot,
    signed 5-mod-8 divisors for the second, and positive 5-mod-8 prime
    divisors for the last three.
    """
    divs = positive_divisors(n)
    signed = sorted(d * s for d in divs for s in (1, -1))
    first = [d for d in signed if d % 8 == 1]
    second = [d for d in signed if d % 8 == 5]
    p_primes = [d for d in divs if d % 8 == 5 and is_prime_trial(d)]
    for d1 in first:
        if n % d1 != 0:
            continue
        j = (d1 - 1) // 8
        rest1 = n // d1
        for d2 in second:
            if rest1 % d2 != 0:
                continue
            k = (d2 + 3) // 8
            rest2 = rest1 // d2
            for p1 in p_primes:
                if rest2 % p1 != 0:
                    continue
                rest3 = rest2 // p1
                for p2 in p_primes:
                    if rest3 % p2 != 0:
                        continue
                    p3 = rest3 // p2
                    if p3 < 1 or p3 not in p_primes:
                        continue
                    l, m, nn = (p1 + 3) // 8, (p2 + 3) // 8, (p3 + 3) // 8
                    if (j - k - l - m - nn) % 2 != 0:
                        return True
    return False


def a_decompose_walk(n: int):
    """Reference set-A search: walk every signed 1-mod-8 divisor per triple.

    This is the divisor walk the closed form in ``classifier.a_decompose``
    replaced.  For each triple it tries the divisors d of the cofactor
    ascending and returns the first (j, k) that meets the parity constraint,
    so it fixes the certificate the closed form must reproduce.  It takes
    the library's factorization and divisor list, which carry their own
    oracle tests, so it checks the closed form and not the factoring.
    """
    fac = factorize(n, envelope=None)
    mult = {p: e for p, e in fac.factors if p % 8 == 5}
    if sum(mult.values()) < 3:
        return None
    for triple in combinations_with_replacement(sorted(mult), 3):
        if any(triple.count(p) > mult[p] for p in set(triple)):
            continue
        p1, p2, p3 = triple
        c = n // (p1 * p2 * p3)
        l, m, nn = (p1 + 3) // 8, (p2 + 3) // 8, (p3 + 3) // 8
        for d in signed_divisors_1mod8(c, envelope=None):
            j = (d - 1) // 8
            k = (c // d + 3) // 8
            if (j - k - l - m - nn) % 2 != 0:
                return OddA(j, k, p1, p2, p3)
    return None


def gauss_add(x, y, sign=1) -> tuple:
    """x + sign*y for Gaussian integers held as (re, im) pairs."""
    return (x[0] + sign * y[0], x[1] + sign * y[1])


def gauss_mul(x, y) -> tuple:
    """x * y for Gaussian integers held as (re, im) pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def spectral_factors_gauss(a) -> tuple:
    """Reference character blocks, as (re, im) pairs.

    Block k is the det4 closed form on ``z_j = sum_s i^{k s} a[j + 4 s]``,
    summed one term at a time by the power ``i^{k s}`` and multiplied out
    with ``gauss_add`` / ``gauss_mul``.  The library's ``spectral_factors``
    computes the same blocks in its own fused closed form.
    """
    factors = []
    for k in range(4):
        z = []
        for j in range(4):
            re = im = 0
            for s in range(4):
                v = a[j + 4 * s]
                ks = (k * s) & 3
                if ks == 0:
                    re += v
                elif ks == 1:
                    im += v
                elif ks == 2:
                    re -= v
                else:
                    im -= v
            z.append((re, im))
        z0, z1, z2, z3 = z
        s, t = gauss_add(z0, z2), gauss_add(z1, z3)
        u, v = gauss_add(z0, z2, -1), gauss_add(z1, z3, -1)
        first = gauss_add(gauss_mul(s, s), gauss_mul(t, t), -1)
        second = gauss_add(gauss_mul(u, u), gauss_mul(v, v))
        factors.append(gauss_mul(first, second))
    return tuple(factors)


def beta_gamma_norms_alt(d) -> tuple:
    """Reference ``(beta_norm, gamma_norm)`` via the square-difference form.

    ``gdet.beta_gamma_norms`` writes each norm as a product of two sums of
    two squares; this writes it as a difference of two squares, so the two
    must agree on every input.
    """
    d0, d1, d2, d3, d4, d5, d6, d7 = d
    beta = ((d0 + d2) ** 2 + (d4 + d6) ** 2 + (d1 + d3) ** 2 + (d5 + d7) ** 2) ** 2 - 4 * (
        (d0 + d2) * (d1 + d3) + (d4 + d6) * (d5 + d7)
    ) ** 2
    gamma = ((d0 - d2) ** 2 + (d4 - d6) ** 2 + (d1 - d3) ** 2 + (d5 - d7) ** 2) ** 2 - 4 * (
        (d0 - d2) * (d5 - d7) - (d4 - d6) * (d1 - d3)
    ) ** 2
    return beta, gamma
