"""Independent brute-force oracles shared by the unit and acceptance tests.

The brute-force oracles call nothing in the library; their divisor walks are
plain trial division, so disagreements point at the library, never at a
shared bug.  ``a_decompose_walk`` is the one reference built on library
parts (see its docstring); ``spectral_factors_gauss`` uses only the
``GaussInt`` arithmetic class.
"""

from itertools import combinations_with_replacement
from math import isqrt

from c4x4det.classifier import OddA
from c4x4det.core import GaussInt
from c4x4det.numtheory import factorize, signed_divisors_1mod8


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


def spectral_factors_gauss(a) -> tuple:
    """Reference character blocks, computed with ``GaussInt`` objects.

    Block k is the det4 closed form on ``z_j = sum_s i^{k s} a[j + 4 s]``,
    summed one term at a time by the power ``i^{k s}``.  The library's
    ``spectral_factors`` computes the same blocks on plain (re, im) pairs.
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
            z.append(GaussInt(re, im))
        z0, z1, z2, z3 = z
        factors.append(((z0 + z2) ** 2 - (z1 + z3) ** 2) * ((z0 - z2) ** 2 + (z1 - z3) ** 2))
    return tuple(factors)
