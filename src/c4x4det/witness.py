"""Synthesize coefficient vectors realizing a classified determinant value.

Each certificate family has an explicit construction:

* ``16m+1``              one tuple family (all entries m except a_0 = m+1);
* ``2**16 * m``          three tuple families, split by m mod 4;
* ``2**15 * p * odd``    two tuple families driven by 2p = x^2 + y^2, split
                         by the odd cofactor mod 4;
* set A                  four parameterized coefficient tables, keyed by the
                         parities of j and k, with a shared flag e telling
                         whether the paired primes are 13 or 5 mod 16.

Every emitted vector is re-checked against the direct determinant before it
is returned, so a transcription slip in any table is a loud failure, never a
wrong witness.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from .classifier import (
    Even15,
    Even16,
    NotInS,
    OddA,
    OddOne,
    SClassification,
    classify,
)
from .core import CoeffVec16, _Record
from .errors import InternalMismatchError, NotAttainableError, PreconditionError
from .gdet import det16_direct
from .numtheory import ENVELOPE, two_squares_2p, two_squares_prime_5mod8


class WitnessCase(enum.Enum):
    """Which construction family a plan uses."""

    ODD_16M_PLUS_1 = "odd_16m_plus_1"
    POW2_16_4M_PLUS_1 = "pow2_16_4m_plus_1"
    POW2_16_4M_MINUS_1 = "pow2_16_4m_minus_1"
    POW2_16_EVEN = "pow2_16_even"
    POW2_15_4M_PLUS_1 = "pow2_15_4m_plus_1"
    POW2_15_4M_MINUS_1 = "pow2_15_4m_minus_1"
    A_EVEN_EVEN_PAIR13 = "a_even_even_pair13"
    A_EVEN_EVEN_PAIR5 = "a_even_even_pair5"
    A_EVEN_ODD_PAIR13 = "a_even_odd_pair13"
    A_EVEN_ODD_PAIR5 = "a_even_odd_pair5"
    A_ODD_EVEN_PAIR13 = "a_odd_even_pair13"
    A_ODD_EVEN_PAIR5 = "a_odd_even_pair5"
    A_ODD_ODD_PAIR13 = "a_odd_odd_pair13"
    A_ODD_ODD_PAIR5 = "a_odd_odd_pair5"


_A_CASES = {
    # (j parity, k parity, e) -> case
    (0, 0, 1): WitnessCase.A_EVEN_EVEN_PAIR13,
    (0, 0, 0): WitnessCase.A_EVEN_EVEN_PAIR5,
    (0, 1, 1): WitnessCase.A_EVEN_ODD_PAIR13,
    (0, 1, 0): WitnessCase.A_EVEN_ODD_PAIR5,
    (1, 0, 1): WitnessCase.A_ODD_EVEN_PAIR13,
    (1, 0, 0): WitnessCase.A_ODD_EVEN_PAIR5,
    (1, 1, 1): WitnessCase.A_ODD_ODD_PAIR13,
    (1, 1, 0): WitnessCase.A_ODD_ODD_PAIR5,
}


class WitnessPlan(_Record):
    """A construction case plus every parameter its coefficient table needs."""

    __slots__ = ("case", "params")
    case: WitnessCase
    params: Mapping

    def __getitem__(self, name: str) -> int:
        return self.params[name]


def _make_plan(case: WitnessCase, **params: int) -> WitnessPlan:
    return WitnessPlan(case, MappingProxyType(dict(params)))


def _pair_split(primes: Tuple[int, int, int], slot_residue: int):
    """Pick the single-slot prime and the shared pair from a sorted triple.

    The slot prime must be congruent to slot_residue mod 16; when all three
    primes share that residue the smallest takes the slot.  The remaining two
    must share a residue class (guaranteed by the certificate parity).
    """
    matching = [p for p in primes if p % 16 == slot_residue]
    if len(matching) == 1:
        slot = matching[0]
        rest = list(primes)
        rest.remove(slot)
    elif len(matching) == 3:
        slot, rest = primes[0], list(primes[1:])
    else:
        raise InternalMismatchError(
            f"prime residues {[p % 16 for p in primes]} do not fit slot {slot_residue}"
        )
    if rest[0] % 16 != rest[1] % 16:
        raise InternalMismatchError(f"paired primes {rest} disagree mod 16")
    return slot, (rest[0], rest[1])


def _constrained_params(p: int, x_residue: int):
    """(high, low) with p = (8*high + x_residue)^2 + (8*low + 2)^2."""
    rep = two_squares_prime_5mod8(p)
    if rep.x % 8 != x_residue or rep.y % 8 != 2:
        raise InternalMismatchError(f"{rep} misses residues ({x_residue}, 2) mod 8")
    return (rep.x - x_residue) // 8, (rep.y - 2) // 8


def plan(cls: SClassification) -> WitnessPlan:
    """Turn a membership certificate into a fully-parameterized construction."""
    if isinstance(cls, NotInS):
        raise PreconditionError(f"cannot plan a witness for {cls}")
    if isinstance(cls, OddOne):
        return _make_plan(WitnessCase.ODD_16M_PLUS_1, m=cls.m)
    if isinstance(cls, Even16):
        m = cls.m
        if m % 4 == 1:
            return _make_plan(WitnessCase.POW2_16_4M_PLUS_1, m=(m - 1) // 4)
        if m % 4 == 3:
            return _make_plan(WitnessCase.POW2_16_4M_MINUS_1, m=(m + 1) // 4)
        return _make_plan(WitnessCase.POW2_16_EVEN, m=m // 2)
    if isinstance(cls, Even15):
        rep = two_squares_2p(cls.p)
        r, s = (rep.x - 3) // 8, (rep.y - 1) // 8
        if cls.odd_cofactor % 4 == 1:
            return _make_plan(
                WitnessCase.POW2_15_4M_PLUS_1, m=(cls.odd_cofactor - 1) // 4, r=r, s=s
            )
        return _make_plan(
            WitnessCase.POW2_15_4M_MINUS_1, m=(cls.odd_cofactor + 1) // 4, r=r, s=s
        )
    if isinstance(cls, OddA):
        jp, kp = cls.j % 2, cls.k % 2
        big_j = cls.j // 2 if jp == 0 else (cls.j + 1) // 2
        big_k = cls.k // 2 if kp == 0 else (cls.k - 1) // 2
        slot_residue = 5 if jp == kp else 13
        slot_prime, pair = _pair_split((cls.p1, cls.p2, cls.p3), slot_residue)
        e = 1 if pair[0] % 16 == 13 else 0
        r, s = _constrained_params(slot_prime, 1 if slot_residue == 5 else 3)
        t, u = _constrained_params(pair[0], 2 * e + 1)
        v, w = _constrained_params(pair[1], 2 * e + 1)
        case = _A_CASES[(jp, kp, e)]
        return _make_plan(case, J=big_j, K=big_k, r=r, s=s, t=t, u=u, v=v, w=w, e=e)
    raise PreconditionError(f"unrecognized certificate {cls!r}")


# --- coefficient tables -----------------------------------------------------


def _tuple_16m_plus_1(m):
    return (m + 1,) + (m,) * 15


def _tuple_pow2_16_4m_plus_1(m):
    return (m + 2, m, m, m, m, m, m + 1, m, m + 1, m, m, m, m, m, m, m)


def _tuple_pow2_16_4m_minus_1(m):
    return (m + 1, m, m, m - 1, m, m - 1, m, m, m, m, m, m - 1, m, m - 1, m - 1, m)


def _tuple_pow2_16_even(m):
    return (m + 1, m, m, m, m, m, m, m, m + 1, m - 1, m, m, m, m - 1, m, m)


def _tuple_pow2_15_plus(m, r, s):
    return (
        m + r + 1, m + r + 1, m + r + 1, m + r,
        m + s, m + s, m + s + 1, m + s,
        m - r + 1, m - r, m - r, m - r - 1,
        m - s, m - s, m - s, m - s,
    )


def _tuple_pow2_15_minus(m, r, s):
    return (
        m + r, m + r, m + r + 1, m + r,
        m + s, m + s, m + s, m + s - 1,
        m - r, m - r - 1, m - r, m - r - 1,
        m - s, m - s, m - s - 1, m - s - 1,
    )


def _table_a_even_even(J, K, r, s, t, u, v, w, e):
    return (
        J + K - r + t - v,
        J + K - s + t + w,
        J + K + r + t + v + e,
        J + K + s + t - w,
        J - K + r + u + w + 1,
        J - K + s + u + v + 1,
        J - K - r + u - w,
        J - K - s + u - v,
        J + K - r - t + v,
        J + K - s - t - w - 1,
        J + K + r - t - v - e,
        J + K + s - t + w,
        J - K + r - u - w,
        J - K + s - u - v,
        J - K - r - u + w,
        J - K - s - u + v,
    )


def _table_a_even_odd(J, K, r, s, t, u, v, w, e):
    return (
        J + K + r + t - v + 1,
        J + K + s + t + w + 1,
        J + K - r + t + v + e,
        J + K - s + t - w,
        J - K - r + u + w,
        J - K - s + u + v,
        J - K + r + u - w,
        J - K + s + u - v,
        J + K + r - t + v + 1,
        J + K + s - t - w,
        J + K - r - t - v - e,
        J + K - s - t + w,
        J - K - r - u - w - 1,
        J - K - s - u - v - 1,
        J - K + r - u + w,
        J - K + s - u + v,
    )


def _table_a_odd_even(J, K, r, s, t, u, v, w, e):
    return (
        J + K + r + t - v,
        J + K + s + t + w,
        J + K - r + t + v + e - 1,
        J + K - s + t - w - 1,
        J - K - r + u + w,
        J - K - s + u + v,
        J - K + r + u - w,
        J - K + s + u - v,
        J + K + r - t + v,
        J + K + s - t - w - 1,
        J + K - r - t - v - e - 1,
        J + K - s - t + w - 1,
        J - K - r - u - w - 1,
        J - K - s - u - v - 1,
        J - K + r - u + w,
        J - K + s - u + v,
    )


def _table_a_odd_odd(J, K, r, s, t, u, v, w, e):
    return (
        J + K - r + t - v,
        J + K - s + t + w,
        J + K + r + t + v + e,
        J + K + s + t - w,
        J - K + r + u + w,
        J - K + s + u + v,
        J - K - r + u - w - 1,
        J - K - s + u - v - 1,
        J + K - r - t + v,
        J + K - s - t - w - 1,
        J + K + r - t - v - e,
        J + K + s - t + w,
        J - K + r - u - w - 1,
        J - K + s - u - v - 1,
        J - K - r - u + w - 1,
        J - K - s - u + v - 1,
    )


_TABLES = {
    WitnessCase.ODD_16M_PLUS_1: _tuple_16m_plus_1,
    WitnessCase.POW2_16_4M_PLUS_1: _tuple_pow2_16_4m_plus_1,
    WitnessCase.POW2_16_4M_MINUS_1: _tuple_pow2_16_4m_minus_1,
    WitnessCase.POW2_16_EVEN: _tuple_pow2_16_even,
    WitnessCase.POW2_15_4M_PLUS_1: _tuple_pow2_15_plus,
    WitnessCase.POW2_15_4M_MINUS_1: _tuple_pow2_15_minus,
    WitnessCase.A_EVEN_EVEN_PAIR13: _table_a_even_even,
    WitnessCase.A_EVEN_EVEN_PAIR5: _table_a_even_even,
    WitnessCase.A_EVEN_ODD_PAIR13: _table_a_even_odd,
    WitnessCase.A_EVEN_ODD_PAIR5: _table_a_even_odd,
    WitnessCase.A_ODD_EVEN_PAIR13: _table_a_odd_even,
    WitnessCase.A_ODD_EVEN_PAIR5: _table_a_odd_even,
    WitnessCase.A_ODD_ODD_PAIR13: _table_a_odd_odd,
    WitnessCase.A_ODD_ODD_PAIR5: _table_a_odd_odd,
}


def emit(p: WitnessPlan) -> CoeffVec16:
    """Emit the coefficient vector for a plan: its case's table on its parameters."""
    table = _TABLES.get(p.case)
    if table is None:
        raise PreconditionError(f"unrecognized case {p.case!r}")
    return CoeffVec16(table(**p.params))


def witness(n: int, envelope: Optional[int] = ENVELOPE):
    """A coefficient vector whose group determinant is exactly n.

    Returns ``(coefficients, certificate)``.  Raises
    :class:`EnvelopeExceededError` when |n| exceeds ``envelope`` (pass
    ``envelope=None`` to lift the cap), :class:`NotAttainableError` when n is
    not an attainable value, and :class:`InternalMismatchError` if the
    emitted vector fails the direct determinant re-check (which would be a
    defect, not bad input).
    """
    cls = classify(n, envelope=envelope)
    if isinstance(cls, NotInS):
        raise NotAttainableError(cls.reason)
    vec = emit(plan(cls))
    got = det16_direct(vec)
    if got != n:
        raise InternalMismatchError(
            f"witness for {n} evaluates to {got} (certificate {cls})"
        )
    return vec, cls
