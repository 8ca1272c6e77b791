"""Integer factorization, primality, and constrained two-square representations.

Everything here is deterministic: repeated calls on the same input give the
same output, byte for byte.  The supported envelope for the public
factorization entry points is |n| <= 10**12; internal callers (the scan
harness) may lift the cap, and the algorithms keep working well beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import NamedTuple, Optional

from .errors import EnvelopeExceededError, InternalMismatchError, PreconditionError

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
    return tuple(i for i, f in enumerate(flags) if f)


_TRIAL_PRIMES = _sieve(_TRIAL_BOUND)

# Deterministic Miller-Rabin witness sets, keyed by the bound below which
# they are exhaustive.  The last set is proven up to ~3.3e24; beyond that we
# append a few more primes as a pragmatic margin (no counterexample to the
# extended set is known anywhere near the sizes this package can produce).
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
_MR_EXTENDED = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def is_prime(n: int) -> bool:
    """Deterministic primality test for nonnegative n (negatives are not prime)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for bound, bases in _MR_TIERS:
        if n < bound:
            witnesses = bases
            break
    else:
        witnesses = _MR_EXTENDED
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
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n, found deterministically.

    Brent's cycle variant of Pollard's rho with the fixed parameter sequence
    c = 1, 2, 3, ...; the polynomial x^2 + c mod n is iterated from y = 2.
    """
    if n % 2 == 0:
        return 2
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
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable in practice


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p**e) == the factored integer, with primes strictly increasing."""

    sign: int
    factors: tuple  # ordered tuple of (prime, exponent)

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out


def _factor_unsigned(n: int) -> dict:
    """Complete factorization of n >= 1 as a prime -> exponent dict."""
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
        # no factor below the trial bound, so a small survivor is prime
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


def check_envelope(n: int, envelope: Optional[int] = ENVELOPE) -> None:
    """Raise :class:`EnvelopeExceededError` when |n| exceeds ``envelope`` (None: no cap)."""
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
    sign = 1 if n > 0 else -1
    fac = _factor_unsigned(abs(n))
    return Factorization(sign, tuple(sorted(fac.items())))


def divisors(fac: Factorization) -> list:
    """All positive divisors of |n| from its factorization, unsorted."""
    out = [1]
    for p, e in fac.factors:
        powers = [p**k for k in range(1, e + 1)]
        out = [d * q for d in out for q in [1] + powers]
    return out


def is_in_P(p: int) -> bool:
    """True iff p is a positive prime congruent to 5 mod 8."""
    return p > 0 and p % 8 == 5 and is_prime(p)


def signed_divisors_1mod8(c: int, envelope: Optional[int] = ENVELOPE) -> list:
    """All integers d (of either sign) with d | c and d == 1 (mod 8), ascending.

    c must be nonzero.
    """
    if c == 0:
        raise PreconditionError("zero has no divisor set here")
    check_envelope(c, envelope)
    fac = factorize(abs(c), envelope=None)
    out = []
    for d in divisors(fac):
        if d % 8 == 1:
            out.append(d)
        if -d % 8 == 1:
            out.append(-d)
    out.sort()
    return out


class TwoSquaresRep(NamedTuple):
    """x**2 + y**2 == target, with residue constraints on x and y mod 8."""

    x: int
    y: int
    target: int


def _sqrt_minus_one_mod(p: int) -> int:
    # p prime, p % 4 == 1: a^((p-1)/4) for the least quadratic non-residue a.
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)
    raise ArithmeticError(f"no quadratic non-residue found for {p}")


def _rep_for_prime(p: int) -> tuple:
    """The unique (u, v), u odd > 0, v even >= 0, with u^2 + v^2 = p prime = 1 mod 4.

    Cornacchia via Euclidean descent from a square root of -1 mod p; both
    constrained representations below start from this pair.
    """
    r = _sqrt_minus_one_mod(p)
    if r > p // 2:
        r = p - r
    a, b = p, r
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
    if s * s % 16 == 9:
        x, y = _fix_sign(s, 3), _fix_sign(t, 1)
    else:
        x, y = _fix_sign(t, 3), _fix_sign(s, 1)
    if x * x + y * y != 2 * p:
        raise InternalMismatchError(f"{x}^2 + {y}^2 != 2*{p}")
    return TwoSquaresRep(x, y, 2 * p)
