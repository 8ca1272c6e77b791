"""Synthesize coefficient vectors realizing a classified determinant value.

Each certificate family has one linear form in its plan parameters, and each
construction case adds its own constant correction row to that form:

* ``16m+1``, ``2**16 * m``   m in every entry; one case, and three split by
                             m mod 4;
* ``2**15 * p * odd``        m+r, m+s, m-r, m-s, each four times, with
                             2p = x^2 + y^2; two cases split by the odd
                             cofactor mod 4;
* set A                      one form in J, K, r, s, t, u, v, w, e (r and s
                             negated when j and k share a parity); four rows
                             keyed by the parities of j and k, where e tells
                             whether the paired primes are 13 or 5 mod 16.

Every emitted vector is re-checked against the direct determinant before it
is returned, so a slip in a form or a row is a loud failure, never a wrong
witness.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

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
    """A construction case plus every parameter its linear form needs.

    ``params`` is a tuple of ``(name, value)`` pairs in the form's argument
    order; ``plan["m"]`` reads one value by name.
    """

    __slots__ = ("case", "params")
    case: WitnessCase
    params: Tuple[Tuple[str, int], ...]

    def __getitem__(self, name: str) -> int:
        return dict(self.params)[name]


def _pair_split(primes: Tuple[int, int, int], slot_residue: int):
    """Pick the single-slot prime and the shared pair from a sorted triple.

    The slot prime is the first one congruent to slot_residue mod 16; one or
    all three must be.  The remaining two must share a residue class
    (guaranteed by the certificate parity).
    """
    residues = [p % 16 for p in primes]
    if residues.count(slot_residue) not in (1, 3):
        raise InternalMismatchError(f"prime residues {residues} do not fit slot {slot_residue}")
    i = residues.index(slot_residue)
    rest = primes[:i] + primes[i + 1:]
    if rest[0] % 16 != rest[1] % 16:
        raise InternalMismatchError(f"paired primes {list(rest)} disagree mod 16")
    return primes[i], rest


def _constrained_params(p: int):
    """(high, low) with p = (8*high + x)^2 + (8*low + 2)^2, x = 1 or 3 as p = 5 or 13 mod 16."""
    x_residue = 1 if p % 16 == 5 else 3
    rep = two_squares_prime_5mod8(p)
    if rep.x % 8 != x_residue or rep.y % 8 != 2:
        raise InternalMismatchError(f"{rep} misses residues ({x_residue}, 2) mod 8")
    return (rep.x - x_residue) // 8, (rep.y - 2) // 8


def plan(cls: SClassification) -> WitnessPlan:
    """Turn a membership certificate into a fully-parameterized construction."""
    if isinstance(cls, NotInS):
        raise PreconditionError(f"cannot plan a witness for {cls}")
    if isinstance(cls, OddOne):
        return WitnessPlan(WitnessCase.ODD_16M_PLUS_1, (("m", cls.m),))
    if isinstance(cls, Even16):
        m = cls.m
        if m % 4 == 1:
            return WitnessPlan(WitnessCase.POW2_16_4M_PLUS_1, (("m", (m - 1) // 4),))
        if m % 4 == 3:
            return WitnessPlan(WitnessCase.POW2_16_4M_MINUS_1, (("m", (m + 1) // 4),))
        return WitnessPlan(WitnessCase.POW2_16_EVEN, (("m", m // 2),))
    if isinstance(cls, Even15):
        rep = two_squares_2p(cls.p)
        r, s = (rep.x - 3) // 8, (rep.y - 1) // 8
        if cls.odd_cofactor % 4 == 1:
            case, m = WitnessCase.POW2_15_4M_PLUS_1, (cls.odd_cofactor - 1) // 4
        else:
            case, m = WitnessCase.POW2_15_4M_MINUS_1, (cls.odd_cofactor + 1) // 4
        return WitnessPlan(case, (("m", m), ("r", r), ("s", s)))
    if isinstance(cls, OddA):
        jp, kp = cls.j % 2, cls.k % 2
        slot_prime, pair = _pair_split((cls.p1, cls.p2, cls.p3), 5 if jp == kp else 13)
        e = 1 if pair[0] % 16 == 13 else 0
        r, s = _constrained_params(slot_prime)
        t, u = _constrained_params(pair[0])
        v, w = _constrained_params(pair[1])
        params = (("J", (cls.j + 1) // 2), ("K", cls.k // 2), ("r", r), ("s", s),
                  ("t", t), ("u", u), ("v", v), ("w", w), ("e", e))
        return WitnessPlan(_A_CASES[(jp, kp, e)], params)
    raise PreconditionError(f"unrecognized certificate {cls!r}")


# --- linear forms and correction rows ---------------------------------------


def _form_m(c, sign, m):
    return (
        m + c[0], m + c[1], m + c[2], m + c[3], m + c[4], m + c[5], m + c[6], m + c[7],
        m + c[8], m + c[9], m + c[10], m + c[11], m + c[12], m + c[13], m + c[14], m + c[15],
    )


def _form_pow2_15(c, sign, m, r, s):
    a, b, x, y = m + r, m + s, m - r, m - s
    return (
        a + c[0], a + c[1], a + c[2], a + c[3], b + c[4], b + c[5], b + c[6], b + c[7],
        x + c[8], x + c[9], x + c[10], x + c[11], y + c[12], y + c[13], y + c[14], y + c[15],
    )


def _form_a(c, sign, J, K, r, s, t, u, v, w, e):
    # sign is -1 when j and k share a parity, which negates r and s
    p, q, r, s = J + K, J - K, sign * r, sign * s
    return (
        p + r + t - v + c[0], p + s + t + w + c[1],
        p - r + t + v + e + c[2], p - s + t - w + c[3],
        q - r + u + w + c[4], q - s + u + v + c[5],
        q + r + u - w + c[6], q + s + u - v + c[7],
        p + r - t + v + c[8], p + s - t - w + c[9],
        p - r - t - v - e + c[10], p - s - t + w + c[11],
        q - r - u - w + c[12], q - s - u - v + c[13],
        q + r - u + w + c[14], q + s - u + v + c[15],
    )


# (j parity, k parity) -> set-A correction row; e is a parameter, so the
# PAIR13 and PAIR5 cases of one parity pair share a row
_A_ROWS = {
    (0, 0): (0, 0, 0, 0, 1, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0),
    (0, 1): (1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, -1, -1, 0, 0),
    (1, 0): (0, 0, -1, -1, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, 0, 0),
    (1, 1): (0, 0, 0, 0, 0, 0, -1, -1, 0, -1, 0, 0, -1, -1, -1, -1),
}

# case -> (form, sign, correction row)
_TABLES = {
    WitnessCase.ODD_16M_PLUS_1: (_form_m, 1, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    WitnessCase.POW2_16_4M_PLUS_1: (
        _form_m, 1, (2, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0)),
    WitnessCase.POW2_16_4M_MINUS_1: (
        _form_m, 1, (1, 0, 0, -1, 0, -1, 0, 0, 0, 0, 0, -1, 0, -1, -1, 0)),
    WitnessCase.POW2_16_EVEN: (_form_m, 1, (1, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, -1, 0, 0)),
    WitnessCase.POW2_15_4M_PLUS_1: (
        _form_pow2_15, 1, (1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, -1, 0, 0, 0, 0)),
    WitnessCase.POW2_15_4M_MINUS_1: (
        _form_pow2_15, 1, (0, 0, 1, 0, 0, 0, 0, -1, 0, -1, 0, -1, 0, 0, -1, -1)),
    **{
        case: (_form_a, -1 if jp == kp else 1, _A_ROWS[jp, kp])
        for (jp, kp, _), case in _A_CASES.items()
    },
}


def emit(p: WitnessPlan) -> CoeffVec16:
    """Emit the coefficient vector for a plan.

    The vector is the linear form of the plan's family (``16m+1`` and
    ``2**16 * m``; ``2**15 * p * odd``; set A) evaluated on the plan's
    parameters, plus the constant correction row of the plan's case.  The
    parameter values are passed in order; their names only label them.
    """
    entry = _TABLES.get(p.case)
    if entry is None:
        raise PreconditionError(f"unrecognized case {p.case!r}")
    form, sign, row = entry
    return CoeffVec16(form(row, sign, *[value for _, value in p.params]))


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
