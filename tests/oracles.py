"""Independent brute-force oracles shared by the unit and acceptance tests.

The brute-force oracles call nothing in the library; their divisor walks are
plain trial division, so disagreements point at the library, never at a
shared bug.  ``expanded_divisors`` is library-free too: it lists the
divisors of a factorization by product expansion.  ``a_decompose_walk`` is
the one reference built on library parts: it takes the library's
factorization, but lists divisors with ``expanded_divisors``, not through
``numtheory.signed_divisors_1mod8`` (see its docstring).  ``spectral_factors_gauss``,
``det4_gauss``, ``det2``, ``det4``, ``beta_gamma_norms`` and
``beta_gamma_norms_alt`` are library-free as well: Gaussian integers here
are plain ``(re, im)`` pairs, combined by ``gauss_add`` and ``gauss_mul``.
``det4`` and ``beta_gamma_norms`` are the closed forms whose products
``gdet.factored_pieces`` splits into its ten integer pieces.
``group_matrix`` spells out ``g*h^-1`` itself, so the literal-matrix
referee shares no index table with ``gdet.det16_direct``.  ``Poly`` runs
integer code on free variables, so a formula can be checked as a polynomial
identity.
"""

from itertools import combinations_with_replacement
from math import isqrt
from typing import NamedTuple

from c4x4det.classifier import OddA
from c4x4det.numtheory import (
    _TRIAL_BOUND,
    _TRIAL_PRIMES,
    _brent_rho,
    factorize,
    is_prime,
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


def expanded_divisors(factors) -> list:
    """All positive divisors of prod(p**e) from (p, e) pairs, unsorted.

    The product expansion: each prime's powers multiply every divisor built
    so far.  ``numtheory.signed_divisors_1mod8`` makes the same expansion
    but shares no code with it; an exhaustive enumeration referees that one.
    """
    out = [1]
    for p, e in factors:
        powers = [p**k for k in range(1, e + 1)]
        out = [d * q for d in out for q in [1] + powers]
    return out


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
    """Reference for ``numtheory._prime_powers``: trial division by every table prime.

    It tries every prime in turn, where ``_prime_powers`` divides only by
    the primes each chunk's gcd names.  It keeps the same early break and the
    same primality test and rho for the survivor, whose primes it inserts
    sorted, so its items fix the pairs, in order, that ``_prime_powers``
    must yield.
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
    rest: dict = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            rest[m] = rest.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    out.update(sorted(rest.items()))
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

    This is the search that ``classifier.a_decompose`` replaces by two
    closed forms: the three smallest 5-mod-8 primes, and the least divisor
    of the cofactor in one class mod 8, read off its least prime factor per
    class.  For each triple it tries the divisors d of the cofactor
    ascending and returns the first (j, k) that meets the parity constraint,
    so it fixes the certificate the closed forms must reproduce.  It takes
    the library's factorization, which carries its own oracle tests, and
    expands the divisors itself, so it checks the closed forms, not the
    factoring.
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
        cofactor = factorize(abs(c), envelope=None).factors
        for d in sorted(s for e in expanded_divisors(cofactor) for s in (e, -e) if s % 8 == 1):
            j = (d - 1) // 8
            k = (c // d + 3) // 8
            if (j - k - l - m - nn) % 2 != 0:
                return OddA(j, k, p1, p2, p3)
    return None


def group_matrix(a) -> list:
    """The 16x16 matrix M[g][h] = a[g*h^-1] of C4 x C4, element (r, s) at r + 4*s.

    g*h^-1 is componentwise subtraction mod 4.
    """
    if len(a) != 16:
        raise ValueError(f"expected 16 coefficients, got {len(a)}")
    return [[a[(g - h) % 4 + 4 * ((g // 4 - h // 4) % 4)] for h in range(16)] for g in range(16)]


def gauss_add(x, y, sign=1) -> tuple:
    """x + sign*y for Gaussian integers held as (re, im) pairs."""
    return (x[0] + sign * y[0], x[1] + sign * y[1])


def gauss_mul(x, y) -> tuple:
    """x * y for Gaussian integers held as (re, im) pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def det2(x0, x1):
    """Determinant of the 2x2 circulant: x0**2 - x1**2."""
    return x0 * x0 - x1 * x1


def det4(x0, x1, x2, x3):
    """Determinant of the 4x4 circulant.

    Closed form {(x0+x2)^2 - (x1+x3)^2} * {(x0-x2)^2 + (x1-x3)^2}; rotating
    the arguments left by one position negates the value.
    """
    s, t, u, v = x0 + x2, x1 + x3, x0 - x2, x1 - x3
    return (s * s - t * t) * (u * u + v * v)


def det4_gauss(z0, z1, z2, z3) -> tuple:
    """The det4 closed form on Gaussian (re, im) pairs, by ``gauss_add`` / ``gauss_mul``.

    {(z0+z2)^2 - (z1+z3)^2} * {(z0-z2)^2 + (z1-z3)^2}, the same form as
    ``det4`` on integers.
    """
    s, t = gauss_add(z0, z2), gauss_add(z1, z3)
    u, v = gauss_add(z0, z2, -1), gauss_add(z1, z3, -1)
    first = gauss_add(gauss_mul(s, s), gauss_mul(t, t), -1)
    second = gauss_add(gauss_mul(u, u), gauss_mul(v, v))
    return gauss_mul(first, second)


def character_sums(a, k) -> tuple:
    """The arguments ``z_j = sum_s i^{k s} a[j + 4 s]`` of block k, j = 0..3, as pairs.

    Summed one term at a time by the power ``i^{k s}``.
    """
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
    return tuple(z)


def spectral_factors_gauss(a) -> tuple:
    """Reference character blocks, as (re, im) pairs.

    Block k is ``det4_gauss`` on ``character_sums(a, k)``.  The library's
    ``spectral_factors`` computes the same blocks in its own fused closed
    form.
    """
    return tuple(det4_gauss(*character_sums(a, k)) for k in range(4))


class BetaGammaNorms(NamedTuple):
    """The two nonnegative norm factors of the Gaussian character blocks.

    Each is a product of two sums of two squares, hence >= 0.
    """

    beta_norm: int
    gamma_norm: int


def beta_gamma_norms(d) -> BetaGammaNorms:
    """Norms computed as products of two sums of two squares over d[0..7]."""
    d0, d1, d2, d3, d4, d5, d6, d7 = d
    beta = ((d0 + d2 + d1 + d3) ** 2 + (d4 + d6 + d5 + d7) ** 2) * (
        (d0 + d2 - d1 - d3) ** 2 + (d4 + d6 - d5 - d7) ** 2
    )
    gamma = ((d0 - d2 - d5 + d7) ** 2 + (d4 - d6 + d1 - d3) ** 2) * (
        (d0 - d2 + d5 - d7) ** 2 + (d4 - d6 - d1 + d3) ** 2
    )
    return BetaGammaNorms(beta, gamma)


def beta_gamma_norms_alt(d) -> tuple:
    """Reference ``(beta_norm, gamma_norm)`` via the square-difference form.

    ``beta_gamma_norms`` writes each norm as a product of two sums of two
    squares; this writes it as a difference of two squares, so the two must
    agree on every input.
    """
    d0, d1, d2, d3, d4, d5, d6, d7 = d
    beta = ((d0 + d2) ** 2 + (d4 + d6) ** 2 + (d1 + d3) ** 2 + (d5 + d7) ** 2) ** 2 - 4 * (
        (d0 + d2) * (d1 + d3) + (d4 + d6) * (d5 + d7)
    ) ** 2
    gamma = ((d0 - d2) ** 2 + (d4 - d6) ** 2 + (d1 - d3) ** 2 + (d5 - d7) ** 2) ** 2 - 4 * (
        (d0 - d2) * (d5 - d7) - (d4 - d6) * (d1 - d3)
    ) ** 2
    return beta, gamma


class Poly:
    """Polynomial with integer coefficients, held as ``{monomial: coefficient}``.

    A monomial packs each variable's exponent into 8 bits of an int, so the
    product of two monomials is the sum of their keys and the constant
    monomial is 0 (exponents must stay below 256).  Only ``+``, ``-``, ``*``,
    ``**`` by a small non-negative int and ``==`` / ``!=`` are defined, with
    ints on either side: enough to run code written for integers on free
    variables and compare the expansions.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def variables(cls, count) -> list:
        return [cls({1 << (8 * i): 1}) for i in range(count)]

    @staticmethod
    def _terms(x):
        if isinstance(x, Poly):
            return x.terms
        if type(x) is int:
            return {0: x}
        return None

    def __add__(self, other):
        terms = Poly._terms(other)
        if terms is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = Poly._terms(other)
        if terms is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in terms.items():
                out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if type(exponent) is not int or exponent < 0:
            return NotImplemented
        out = Poly({0: 1})
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        terms = Poly._terms(other)
        if terms is None:
            return NotImplemented
        return self.terms == {m: c for m, c in terms.items() if c}

    def __repr__(self):
        return f"Poly({self.terms})"
