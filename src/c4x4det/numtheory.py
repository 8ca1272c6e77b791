"""Integer factorization, primality, and constrained two-square representations.

Everything here is deterministic: repeated calls on the same input give the
same output, byte for byte.  The public factorization entry points support
|n| <= 10**12; ``envelope=None`` lifts the cap (scans lift it through
``classify``), and the algorithms keep working well beyond it.  The prime
powers come from one lazy generator in ascending order, so a caller that has
what it needs stops reading, and the larger primes are never searched for.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod
from typing import NamedTuple, Optional

from .core import _Record
from .errors import (
    EnvelopeExceededError,
    FactorizationError,
    InternalMismatchError,
    PreconditionError,
)

ENVELOPE = 10**12

# Trial-division table.  11000^2 > any cofactor that can survive the loop for
# envelope-sized inputs with at most two large prime factors, and it covers
# every prime that can appear in a coefficient-bound-9 group determinant.
_TRIAL_BOUND = 11000


def _sieve(limit: int) -> tuple:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(compress(range(limit + 1), flags))


_TRIAL_PRIMES = _sieve(_TRIAL_BOUND)

# The table in chunks of 64 primes, each with its product.  One gcd with a
# chunk's product names the primes of the chunk that divide n, so trial
# division skips a chunk that holds none and divides only by those it names.
_TRIAL_CHUNKS = tuple(
    (_TRIAL_PRIMES[i : i + 64], prod(_TRIAL_PRIMES[i : i + 64]))
    for i in range(0, len(_TRIAL_PRIMES), 64)
)

# n shares a factor with this product exactly when a prime up to 37 divides it.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)

# Deterministic Miller-Rabin witness sets, keyed by the bound below which
# they are exhaustive (the last one is proven up to ~3.3e24, Sorenson and
# Webster 2017).  At and above the last bound is_prime runs BPSW instead: a
# base-2 strong test plus a strong Lucas test (Baillie and Wagstaff 1980),
# which has no known counterexample, where a fixed base list has constructible
# ones (Arnault 1995).
_MR_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 2.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D)/4.  Writing n + 1 = d * 2**s with d odd, n passes
    when U_d = 0 or V_{d*2**r} = 0 (mod n) for some 0 <= r < s.
    """
    if isqrt(n) ** 2 == n:  # no D with (D/n) = -1 exists
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    u, v, qk = 1, 1, Q  # U_k, V_k, Q**k at k = 1 (P = 1)
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n  # k -> 2k
        if bit == "1":  # k -> k + 1: U = (U + V)/2, V = (D*U + V)/2
            u, v = (u + v) % n, (D * u + v) % n
            u = (u + n) // 2 if u % 2 else u // 2
            v = (v + n) // 2 if v % 2 else v // 2
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality of n (negatives are not prime).

    Proven Miller-Rabin base sets below ~3.3e24; BPSW at and above.  Raises
    TypeError unless n is an int (not a bool).
    """
    check_envelope(n, None)
    if n < 2:
        return False
    if gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for bound, bases in _MR_TIERS:
        if n < bound:
            witnesses = bases
            break
    else:
        witnesses = (2,)  # the base-2 half of BPSW; the Lucas half follows
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_TIERS[-1][0] or _strong_lucas_probable_prime(n)


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n, found deterministically.

    Brent's cycle variant of Pollard's rho with the fixed parameter sequence
    c = 1, 2, 3, ...; the polynomial x^2 + c mod n is iterated from y = 2.
    """
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise FactorizationError(f"rho failed to split {n}")  # unreachable in practice


class Factorization(_Record):
    """sign * prod(p**e) == the factored integer, with primes strictly increasing."""

    __slots__ = ("sign", "factors")
    sign: int
    factors: tuple  # ordered tuple of (prime, exponent)


def _prime_powers(n: int):
    """The prime powers of n >= 1 as (p, e) pairs, p ascending, found lazily.

    Trial division yields each table prime as its chunk's gcd names it; what
    survives it is split by rho where composite, and its primes follow, sorted.
    A caller that stops reading skips the chunks and the rho work not yet done.
    """
    for chunk, product in _TRIAL_CHUNKS:
        square = chunk[0] * chunk[0]
        if square > n:
            break
        # g is the product of the chunk's primes that divide n.  Where the
        # plain loop over every prime would stop inside the chunk, what is
        # left of n is a prime of the chunk or beyond it, so dividing it out
        # here or keeping it as the survivor gives the same pairs.
        g = gcd(n, product)
        if g == 1:
            continue
        # two primes of the chunk multiply to more than square: below it, g is one
        for p in (g,) if g < square else chunk:
            if g % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                yield p, e
                g //= p
                if g == 1:
                    break
    if n == 1:
        return
    rest: dict = {}
    stack = [n]
    while stack:
        m = stack.pop()
        # trial division leaves no composite piece below the bound squared
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            rest[m] = rest.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    yield from sorted(rest.items())


def check_envelope(n: int, envelope: Optional[int] = ENVELOPE) -> None:
    """Raise TypeError unless n is an int (not a bool), and
    :class:`EnvelopeExceededError` when |n| exceeds ``envelope`` (None: no cap)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"expected an exact integer, got {n!r}")
    if envelope is not None and abs(n) > envelope:
        raise EnvelopeExceededError(f"|{n}| exceeds the supported envelope {envelope}")


def factorize(n: int, envelope: Optional[int] = ENVELOPE) -> Factorization:
    """Complete signed prime factorization of n.

    Raises :class:`EnvelopeExceededError` when |n| exceeds the envelope
    (pass ``envelope=None`` to lift the cap).  n == 0 factors as sign 0 with
    no prime factors.
    """
    check_envelope(n, envelope)
    if n == 0:
        return Factorization(0, ())
    return Factorization(1 if n > 0 else -1, tuple(_prime_powers(abs(n))))


def is_in_P(p: int) -> bool:
    """True iff p is a positive prime congruent to 5 mod 8."""
    return is_prime(p) and p % 8 == 5


def signed_divisors_1mod8(c: int, envelope: Optional[int] = ENVELOPE) -> list:
    """All integers d (of either sign) with d | c and d == 1 (mod 8), ascending.

    c must be nonzero.
    """
    check_envelope(c, envelope)
    if c == 0:
        raise PreconditionError("zero has no divisor set here")
    divisors = [1]
    for p, e in factorize(abs(c), envelope=None).factors:
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return sorted([s for d in divisors for s in (d, -d) if s % 8 == 1])


class TwoSquaresRep(NamedTuple):
    """x**2 + y**2 == target, with residue constraints on x and y mod 8."""

    x: int
    y: int
    target: int


def _sqrt_minus_one_mod(p: int) -> int:
    # p prime, p % 8 == 5: 2 is a non-residue (second supplement), so 2^((p-1)/4).
    return pow(2, (p - 1) // 4, p)


def _rep_for_prime(p: int) -> tuple:
    """The unique (u, v), u odd > 0, v even >= 0, with u^2 + v^2 = p prime = 5 mod 8.

    Brillhart's Euclidean descent (1972) from the root r of -1 mod p that
    ``pow`` returns: either root gives the same first remainder at or below
    sqrt(p), as the remainders of (p, r) and (p, p - r) meet at
    (p - r, r mod (p - r)).  Both constrained representations start here.
    """
    a, b = p, _sqrt_minus_one_mod(p)
    limit = isqrt(p)
    while b > limit:
        a, b = b, a % b
    v2 = p - b * b
    v = isqrt(v2)
    if v * v != v2:
        raise InternalMismatchError(f"descent for {p} ended at {b}; {p} - {b}^2 is no square")
    u, v = (b, v) if b % 2 == 1 else (v, b)
    return (u, v)


def _fix_sign(value: int, residue: int) -> int:
    """Pick the sign of value so the result is congruent to residue mod 8."""
    if value % 8 == residue:
        return value
    if -value % 8 == residue:
        return -value
    raise PreconditionError(f"neither sign of {value} is {residue} mod 8")


# Both constrained representations are memoised per prime, 1024 entries each.
# lru_cache keeps no exception, so a pair is cached only once its checks have
# passed.  typed=True keys on the type too: a float or an int subclass equal
# to a cached prime gets its own call (a float still raises TypeError).
@lru_cache(maxsize=1024, typed=True)
def two_squares_prime_5mod8(p: int) -> TwoSquaresRep:
    """Write p = x^2 + y^2 with y == 2 (mod 8) and x == 1 or 3 (mod 8).

    x lands in 1 mod 8 when p == 5 (mod 16) and in 3 mod 8 when
    p == 13 (mod 16); signs of x and y are chosen to hit those classes
    (y first, then x), which pins the output uniquely.
    """
    if not is_in_P(p):
        raise PreconditionError(f"{p} is not a prime congruent to 5 mod 8")
    u, v = _rep_for_prime(p)  # u odd, v even, both >= 0
    y = _fix_sign(v, 2)
    x = _fix_sign(u, 1 if p % 16 == 5 else 3)
    if x * x + y * y != p:
        raise InternalMismatchError(f"{x}^2 + {y}^2 != {p}")
    return TwoSquaresRep(x, y, p)


@lru_cache(maxsize=1024, typed=True)
def two_squares_2p(p: int) -> TwoSquaresRep:
    """Write 2*p = x^2 + y^2 with x == 3 (mod 8) and y == 1 (mod 8).

    Derived from the representation of p itself: if p = u^2 + v^2 then
    2p = (u+v)^2 + (u-v)^2; exactly one of the two odd components can be
    steered to 3 mod 8, the other to 1 mod 8.
    """
    if not is_in_P(p):
        raise PreconditionError(f"{p} is not a prime congruent to 5 mod 8")
    u, v = _rep_for_prime(p)
    s, t = u + v, abs(u - v)
    if s * s % 16 != 9:
        s, t = t, s
    x, y = _fix_sign(s, 3), _fix_sign(t, 1)
    if x * x + y * y != 2 * p:
        raise InternalMismatchError(f"{x}^2 + {y}^2 != 2*{p}")
    return TwoSquaresRep(x, y, 2 * p)
