"""Coefficient vectors on the rank-two order-16 bicyclic group, and their spectra.

A group element is a pair (r, s) with r, s taken mod 4, stored at flat index
j = r + 4*s.  A :class:`CoeffVec16` assigns one integer to each of the 16
elements.  :func:`derive` splits such a vector into the half-sum / half-difference
vectors ``b``, ``c`` and ``d`` that drive the determinant factorization in
:mod:`c4x4det.gdet`; the Gaussian-integer vector ``alpha`` is computed from
``d`` when it is read:

    b[i] = (a[i] + a[i+8]) + (a[i+4] + a[i+12])      0 <= i <= 3
    c[i] = (a[i] + a[i+8]) - (a[i+4] + a[i+12])      0 <= i <= 3
    d[i] = a[i] - a[i+8]                             0 <= i <= 7
    alpha[i] = d[i] + i*d[i+4]                       0 <= i <= 3

All arithmetic is exact: entries are plain Python integers, so there is no
width to overflow and no rounding anywhere.
"""

from __future__ import annotations

from typing import NamedTuple


class GaussInt:
    """An exact Gaussian integer ``re + im*i``: a value, not an arithmetic type.

    Instances are immutable and hashable, and two are equal exactly when both
    components are.  Gaussian arithmetic runs on plain ``(re, im)`` integer
    pairs where it is needed (see :mod:`c4x4det.gdet`).
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        if not isinstance(re, int) or not isinstance(im, int):
            raise TypeError("GaussInt components must be exact integers")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussInt is immutable")

    def __eq__(self, other):
        if not isinstance(other, GaussInt):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussInt({self.re}, {self.im})"


class CoeffVec16(tuple):
    """Sixteen integer coefficients a_0..a_15, one per group element.

    Index j encodes the element (r, s) via j = r + 4*s, so inputs written as
    flat 16-tuples line up with the (r, s) grid row by row.
    """

    def __new__(cls, entries):
        t = tuple(entries)
        if len(t) != 16:
            raise ValueError(f"expected 16 coefficients, got {len(t)}")
        for x in t:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"coefficients must be exact integers, got {x!r}")
        return super().__new__(cls, t)

    def __repr__(self):
        return f"CoeffVec16({tuple(self)})"


class DerivedSpectra(NamedTuple):
    """The vectors b, c (length 4) and d (length 8); alpha is computed from d."""

    b: tuple
    c: tuple
    d: tuple

    @property
    def alpha(self) -> tuple:
        """The Gaussian vector alpha[i] = d[i] + i*d[i+4], 0 <= i <= 3."""
        d = self.d
        return tuple(GaussInt(d[i], d[i + 4]) for i in range(4))


def derive(a) -> DerivedSpectra:
    """Split a 16-coefficient vector into its derived spectra.

    Accepts any length-16 integer sequence.  The result satisfies, for
    0 <= i <= 3:

    * ``b[i] == c[i] == d[i] + d[i+4]  (mod 2)``
    * ``b[i] + c[i] == 2*d[i]          (mod 4)``
    * ``b[i] - c[i] == 2*d[i+4]        (mod 4)``
    * ``alpha[i] == GaussInt(d[i], d[i+4])`` (``alpha`` is built when read)

    and derive is linear in ``a`` componentwise.
    """
    if len(a) != 16:
        raise ValueError(f"expected 16 coefficients, got {len(a)}")
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    e0, e1, e2, e3 = a0 + a8, a1 + a9, a2 + a10, a3 + a11
    o0, o1, o2, o3 = a4 + a12, a5 + a13, a6 + a14, a7 + a15
    d0, d1, d2, d3 = a0 - a8, a1 - a9, a2 - a10, a3 - a11
    d4, d5, d6, d7 = a4 - a12, a5 - a13, a6 - a14, a7 - a15
    return DerivedSpectra(
        (e0 + o0, e1 + o1, e2 + o2, e3 + o3),
        (e0 - o0, e1 - o1, e2 - o2, e3 - o3),
        (d0, d1, d2, d3, d4, d5, d6, d7),
    )
