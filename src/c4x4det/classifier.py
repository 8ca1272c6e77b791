"""Decide which integers arise as an order-16 group determinant.

The attainable values are exactly

* ``16*m + 1``                      (odd, 1 mod 16),
* members of set A                  (odd, 9 mod 16; see :func:`a_decompose`),
* ``2**15 * p * (2*m + 1)``         (p a prime that is 5 mod 8),
* ``2**16 * m``                     (including 0).

:func:`classify` returns a certificate for members (enough named parameters
to reconstruct the value) and a reason for everything else.  Certificates
are deterministic: the same input always yields the same certificate.  It
reads the prime factors of a value in ascending order and stops once the
certificate is fixed, so a member need not be factored to the end.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import prod
from typing import Iterable, Optional, Union

from .core import _Record
from .errors import InternalMismatchError, PreconditionError
from .numtheory import ENVELOPE, _prime_powers, check_envelope, is_in_P, is_prime
# Not used here: the benchmark's trace wraps these two in classifier by name.
from .numtheory import factorize, signed_divisors_1mod8  # noqa: F401


class Reason(enum.Enum):
    """Why a value is not attainable."""

    ODD_BAD_RESIDUE = "odd_bad_residue"
    ODD_A_NO_DECOMPOSITION = "odd_a_no_decomposition"
    EVEN_BAD_VALUATION = "even_bad_valuation"
    EVEN15_NO_PRIME_IN_P = "even15_no_prime_in_p"

    def __str__(self):
        return self.value


class OddOne(_Record):
    """value == 16*m + 1"""

    __slots__ = ("m",)
    m: int


class OddA(_Record):
    """value == (8j+1) * (8k-3) * p1 * p2 * p3 with p1 <= p2 <= p3 primes 5 mod 8.

    The parities satisfy j != k + l + m + n (mod 2) for l = (p1+3)/8,
    m = (p2+3)/8, n = (p3+3)/8.
    """

    __slots__ = ("j", "k", "p1", "p2", "p3")
    j: int
    k: int
    p1: int
    p2: int
    p3: int


class Even15(_Record):
    """value == 2**15 * p * odd_cofactor with p the smallest 5-mod-8 prime factor."""

    __slots__ = ("p", "odd_cofactor")
    p: int
    odd_cofactor: int


class Even16(_Record):
    """value == 2**16 * m (m may be 0 or negative)."""

    __slots__ = ("m",)
    m: int


class NotInS(_Record):
    __slots__ = ("reason",)
    reason: Reason


SClassification = Union[OddOne, OddA, Even15, Even16, NotInS]


def v2(n: int) -> int:
    """2-adic valuation of n != 0."""
    if n == 0:
        raise PreconditionError("v2(0) is undefined")
    return (n & -n).bit_length() - 1


def validate_certificate(cls: SClassification, n: int) -> None:
    """Check that a certificate reconstructs n and satisfies its invariants.

    Raises :class:`InternalMismatchError` on any violation.  The classifier
    runs it once per distinct value, before the certificate is cached, so a
    bad certificate can never escape silently.
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
        # v2(n) == 15 and p odd, so a product equal to n has an odd cofactor
        if 2**15 * cls.p * cls.odd_cofactor != n:
            raise InternalMismatchError(f"{cls} does not reconstruct {n}")
    elif isinstance(cls, Even16):
        if 2**16 * cls.m != n:
            raise InternalMismatchError(f"2**16*{cls.m} != {n}")
    else:
        raise InternalMismatchError(f"cannot validate {cls!r}")


def a_decompose(n: int, envelope: Optional[int] = ENVELOPE) -> Optional[OddA]:
    """Find the set-A certificate of n (odd, n == 9 mod 16), or None.

    Set A holds n = (8j+1)(8k-3) p1 p2 p3 with p1 <= p2 <= p3 primes 5 mod 8
    and j != k + l + m + n (mod 2), where l, m, n = (p1+3)/8, (p2+3)/8,
    (p3+3)/8.  For any triple of 5-mod-8 prime factors of n the cofactor
    c = n/(p1 p2 p3) is 5 mod 8, and every 1-mod-8 divisor d of c gives
    j = (d-1)/8 and k = (c/d+3)/8.

    Every triple passes, at every d.  For x == 5 (mod 8), (x+3)/8 is odd
    exactly when x == 5 (mod 16).  Each of c, p1, p2, p3 is 5 or 13 mod 16,
    and 5*5 == 13*13 == 9, 5*13 == 1 (mod 16), so at d = 1 (j = 0) the test
    holds exactly when c p1 p2 p3 == n == 9 (mod 16).  Moving d between 1
    and 9 mod 16 flips the parities of both j and k (c/d == c+8 mod 16).
    Hence n is in set A iff it has at least three prime factors 5 mod 8,
    counted with multiplicity.

    The certificate takes the three smallest such primes and the smallest
    signed 1-mod-8 divisor d of c.  That is d = -|c|/e for the smallest
    positive divisor e of |c| with e == 7|c| (mod 8), or d = 1 when |c| has
    no such divisor.  e needs no search over the divisors of |c|: the classes
    mod 8 of odd numbers form (Z/8)^x = {1, 3, 5, 7}, where each class is its
    own inverse and the product of two of 3, 5, 7 is the third.  A divisor
    lies in the class r = 7|c| mod 8 (3 or 5) only if it has a prime factor
    in r, or prime factors in both other classes of 3, 5, 7.  So e is the
    smaller of the least prime factor of |c| in r and the product of the
    least prime factors in the other two classes, whichever exist.  Once
    the triple and the least prime of |c| in r are known, no larger prime
    can change e, so :func:`classify` stops factoring there.  The fixed
    order makes the certificate reproducible.  n is checked as an integer
    within the envelope before its residue, so a float or a bool raises
    TypeError.  The answer comes from :func:`classify`'s validated cache.
    """
    check_envelope(n, envelope)
    if n % 16 != 9:
        raise PreconditionError(f"{n} is not an odd value congruent to 9 mod 16")
    cls = _classify_unbounded(n)
    return cls if isinstance(cls, OddA) else None


# r -> the two classes of 3, 5, 7 other than r, whose product is r (mod 8)
_OTHER_CLASSES = {3: (5, 7), 5: (3, 7)}


def _a_certificate(n: int, powers: Iterable, read: list) -> Optional[OddA]:
    # The set-A certificate from n's ascending prime powers, read in one pass
    # and each appended to ``read``: the triple takes the first three primes
    # 5 mod 8 with multiplicity, and what it leaves of each prime goes to |c|.
    # Reading stops once the triple is complete and the least prime of |c| in
    # r = 7|c| mod 8 is known: every unread prime is larger, so neither it nor
    # a product that contains it can give a smaller e.  So a None comes only
    # after every pair is read.
    triple: list = []
    least: dict = {}  # class mod 8 -> least prime factor of |c| in it
    r = 0
    for p, a in powers:
        read.append((p, a))
        if p % 8 == 5 and len(triple) < 3:
            taken = min(a, 3 - len(triple))
            triple += (p,) * taken
            a -= taken
            if len(triple) == 3:
                p1, p2, p3 = triple
                c = n // (p1 * p2 * p3)
                r = 7 * abs(c) % 8
        if a:
            least.setdefault(p % 8, p)
        if r in least:
            break
    if not r:
        return None
    q, s = _OTHER_CLASSES[r]
    # the least prime in r and the least pair across q and s; None or 0 where missing
    e = min(filter(None, (least.get(r), least.get(q, 0) * least.get(s, 0))), default=None)
    d = 1 if e is None else -(abs(c) // e)
    return OddA((d - 1) // 8, (c // d + 3) // 8, p1, p2, p3)


def _check_rejection(m: int, pairs, most: int) -> None:
    """Re-check the factorization a rejection rests on.

    ``pairs`` must be the (prime, exponent) pairs of a complete factorization
    of ``m`` with at most ``most`` primes 5 mod 8, counted with multiplicity.
    Raises :class:`InternalMismatchError` otherwise, so a splitting defect
    cannot turn an attainable value into a silent "not attainable".
    """
    if prod(p**e for p, e in pairs) != abs(m):
        raise InternalMismatchError(f"{pairs} does not multiply back to |{m}|")
    for p, _e in pairs:
        if not is_prime(p):
            raise InternalMismatchError(f"factor {p} of {m} is not prime")
    if sum(e for p, e in pairs if p % 8 == 5) > most:
        raise InternalMismatchError(f"{m} has more than {most} prime factors 5 mod 8")


def _decide(n: int) -> SClassification:
    # The cold decision: a certificate, not yet validated, or a rejection
    # whose factorization has been re-checked.  Both factoring branches read
    # the prime powers lazily and stop once the certificate is fixed; a
    # rejection follows only an exhausted reading, which is then complete.
    if n % 2 == 1:
        r = n % 16
        if r == 1:
            return OddOne((n - 1) // 16)
        if r == 9:
            read: list = []
            cert = _a_certificate(n, _prime_powers(abs(n)), read)
            if cert is None:
                _check_rejection(n, read, 2)
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
    read = []
    # the first prime 5 mod 8 is the least, so reading stops there
    for p, e in _prime_powers(abs(odd)):
        if p % 8 == 5:
            return Even15(p, odd // p)
        read.append((p, e))
    _check_rejection(odd, read, 0)
    return NotInS(Reason.EVEN15_NO_PRIME_IN_P)


@lru_cache(maxsize=1 << 16)
def _classify_unbounded(n: int) -> SClassification:
    # Validation runs before the result is cached, so each distinct value is
    # validated once; lru_cache keeps no exception, so a certificate that
    # fails raises again on every call.  _decide re-checks the factorization
    # behind a rejection itself, so that is cached only once checked too.
    cls = _decide(n)
    if not isinstance(cls, NotInS):
        validate_certificate(cls, n)
    return cls


def classify(n: int, envelope: Optional[int] = ENVELOPE) -> SClassification:
    """Classify n against the attainable-value families.

    Returns a certificate whose invariants have been re-checked, or a
    :class:`NotInS` carrying the rejection reason; a rejection that rests on
    a factorization is returned only once that factorization is re-checked.
    Raises TypeError unless n is an ``int`` (a ``bool`` or ``17.0`` is not
    one), and :class:`EnvelopeExceededError` when |n| exceeds ``envelope``;
    pass ``envelope=None`` to classify arbitrarily large integers.
    """
    check_envelope(n, envelope)
    return _classify_unbounded(n)
