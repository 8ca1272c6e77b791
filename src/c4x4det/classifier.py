"""Decide which integers arise as an order-16 group determinant.

The attainable values are exactly

* ``16*m + 1``                      (odd, 1 mod 16),
* members of set A                  (odd, 9 mod 16; see :func:`a_decompose`),
* ``2**15 * p * (2*m + 1)``         (p a prime that is 5 mod 8),
* ``2**16 * m``                     (including 0).

:func:`classify` returns a certificate for members (enough named parameters
to reconstruct the value) and a reason for everything else.  Certificates
are deterministic: the same input always yields the same certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import prod
from typing import Optional, Union

from .errors import InternalMismatchError, PreconditionError
from .numtheory import ENVELOPE, check_envelope, factorize, is_in_P
# Not used here: the benchmark's trace wraps classifier.signed_divisors_1mod8 by name.
from .numtheory import signed_divisors_1mod8  # noqa: F401


class Reason(enum.Enum):
    """Why a value is not attainable."""

    ODD_BAD_RESIDUE = "odd_bad_residue"
    ODD_A_NO_DECOMPOSITION = "odd_a_no_decomposition"
    EVEN_BAD_VALUATION = "even_bad_valuation"
    EVEN15_NO_PRIME_IN_P = "even15_no_prime_in_p"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class OddOne:
    """value == 16*m + 1"""

    m: int


@dataclass(frozen=True)
class OddA:
    """value == (8j+1) * (8k-3) * p1 * p2 * p3 with p1 <= p2 <= p3 primes 5 mod 8.

    The parities satisfy j != k + l + m + n (mod 2) for l = (p1+3)/8,
    m = (p2+3)/8, n = (p3+3)/8.
    """

    j: int
    k: int
    p1: int
    p2: int
    p3: int


@dataclass(frozen=True)
class Even15:
    """value == 2**15 * p * odd_cofactor with p the smallest 5-mod-8 prime factor."""

    p: int
    odd_cofactor: int


@dataclass(frozen=True)
class Even16:
    """value == 2**16 * m (m may be 0 or negative)."""

    m: int


@dataclass(frozen=True)
class NotInS:
    reason: Reason


SClassification = Union[OddOne, OddA, Even15, Even16, NotInS]


def v2(n: int) -> int:
    """2-adic valuation of n != 0."""
    if n == 0:
        raise PreconditionError("v2(0) is undefined")
    return (n & -n).bit_length() - 1


def validate_certificate(cls: SClassification, n: int) -> None:
    """Check that a certificate reconstructs n and satisfies its invariants.

    Raises :class:`InternalMismatchError` on any violation; runs on every
    classifier output, so a bad certificate can never escape silently.
    """
    if isinstance(cls, OddOne):
        if 16 * cls.m + 1 != n:
            raise InternalMismatchError(f"16*{cls.m}+1 != {n}")
    elif isinstance(cls, OddA):
        primes = (cls.p1, cls.p2, cls.p3)
        if not (cls.p1 <= cls.p2 <= cls.p3):
            raise InternalMismatchError(f"primes out of order in {cls}")
        for p in primes:
            if not is_in_P(p):
                raise InternalMismatchError(f"{p} is not a prime 5 mod 8")
        value = (8 * cls.j + 1) * (8 * cls.k - 3)
        for p in primes:
            value *= p
        if value != n:
            raise InternalMismatchError(f"{cls} reconstructs {value}, not {n}")
        l, m, nn = ((p + 3) // 8 for p in primes)
        if (cls.j - cls.k - l - m - nn) % 2 == 0:
            raise InternalMismatchError(f"parity constraint fails in {cls}")
    elif isinstance(cls, Even15):
        if v2(n) != 15:
            raise InternalMismatchError(f"{n} does not have 2-adic valuation 15")
        if not is_in_P(cls.p):
            raise InternalMismatchError(f"{cls.p} is not a prime 5 mod 8")
        if 2**15 * cls.p * cls.odd_cofactor != n or cls.odd_cofactor % 2 == 0:
            raise InternalMismatchError(f"{cls} does not reconstruct {n}")
    elif isinstance(cls, Even16):
        if 2**16 * cls.m != n:
            raise InternalMismatchError(f"2**16*{cls.m} != {n}")
    else:
        raise InternalMismatchError(f"cannot validate {cls!r}")


def _least_divisor_mod8(factors, residue: int) -> Optional[int]:
    """Smallest positive divisor e == residue (mod 8) of prod(p**a), or None.

    ``factors`` holds (prime, exponent) pairs with the primes ascending.  Only
    divisors up to a bound are enumerated, and the bound grows 8x per round
    until a match appears or it covers the whole number, so the cost follows
    the size of the answer, not the full divisor count.
    """
    total = prod(p**a for p, a in factors)
    bound = 8
    while True:
        divs = [1]
        for p, a in factors:
            if p > bound:
                break
            grown = []
            for d in divs:
                for _ in range(a):
                    d *= p
                    if d > bound:
                        break
                    grown.append(d)
            divs += grown
        hits = [d for d in divs if d % 8 == residue]
        if hits:
            return min(hits)
        if bound >= total:
            return None
        bound *= 8


def a_decompose(n: int, envelope: Optional[int] = ENVELOPE) -> Optional[OddA]:
    """Find the set-A certificate of n (odd, n == 9 mod 16), or None.

    Set A holds n = (8j+1)(8k-3) p1 p2 p3 with p1 <= p2 <= p3 primes 5 mod 8
    and j != k + l + m + n (mod 2), where l, m, n = (p1+3)/8, (p2+3)/8,
    (p3+3)/8.  Nondecreasing triples of 5-mod-8 prime factors of n are tried
    lexicographically, each at most as often as it divides n; the cofactor
    c = n/(p1 p2 p3) is then 5 mod 8, and every 1-mod-8 divisor d of c gives
    j = (d-1)/8 and k = (c/d+3)/8.

    Parity lemma: whether a triple passes does not depend on d.  Moving d
    between 1 and 9 mod 16 flips the parity of j; and since c/d == c+8
    (mod 16) when d == 9 (mod 16), it flips the parity of k too.  So each
    triple costs one test at d = 1 (j = 0, k = (c+3)/8).

    The certificate takes the first passing triple and the smallest signed
    1-mod-8 divisor d of c.  That is d = -|c|/e for the smallest positive
    divisor e of |c| with e == 7|c| (mod 8), or d = 1 when |c| has no such
    divisor.  The fixed order makes the certificate reproducible.
    """
    if n % 2 == 0 or n % 16 != 9:
        raise PreconditionError(f"{n} is not an odd value congruent to 9 mod 16")
    fac = factorize(n, envelope=envelope)
    mult = {p: e for p, e in fac.factors if p % 8 == 5}
    if sum(mult.values()) < 3:
        return None
    for triple in combinations_with_replacement(sorted(mult), 3):
        if any(triple.count(p) > mult[p] for p in set(triple)):
            continue
        p1, p2, p3 = triple
        c = n // (p1 * p2 * p3)
        if ((c + 3) // 8 + (p1 + 3) // 8 + (p2 + 3) // 8 + (p3 + 3) // 8) % 2 == 0:
            continue
        rest = [(p, a - triple.count(p)) for p, a in fac.factors if a > triple.count(p)]
        e = _least_divisor_mod8(rest, 7 * abs(c) % 8)
        d = 1 if e is None else -(abs(c) // e)
        return OddA((d - 1) // 8, (c // d + 3) // 8, p1, p2, p3)
    return None


@lru_cache(maxsize=1 << 16)
def _classify_unbounded(n: int) -> SClassification:
    if n % 2 == 1:
        r = n % 16
        if r == 1:
            return OddOne((n - 1) // 16)
        if r == 9:
            cert = a_decompose(n, envelope=None)
            if cert is None:
                return NotInS(Reason.ODD_A_NO_DECOMPOSITION)
            return cert
        return NotInS(Reason.ODD_BAD_RESIDUE)
    if n == 0:
        return Even16(0)
    v = v2(n)
    if v < 15:
        return NotInS(Reason.EVEN_BAD_VALUATION)
    if v >= 16:
        return Even16(n // 2**16)
    odd = n >> 15
    best = None
    for p, _e in factorize(abs(odd), envelope=None).factors:
        if p % 8 == 5:
            best = p
            break
    if best is None:
        return NotInS(Reason.EVEN15_NO_PRIME_IN_P)
    return Even15(best, odd // best)


def classify(n: int, envelope: Optional[int] = ENVELOPE) -> SClassification:
    """Classify n against the attainable-value families.

    Returns a certificate whose invariants have been re-checked, or a
    :class:`NotInS` carrying the rejection reason.  Raises
    :class:`EnvelopeExceededError` when |n| exceeds ``envelope``; pass
    ``envelope=None`` to classify arbitrarily large integers.
    """
    check_envelope(n, envelope)
    cls = _classify_unbounded(n)
    if not isinstance(cls, NotInS):
        validate_certificate(cls, n)
    return cls
