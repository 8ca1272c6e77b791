"""Coefficient vectors on the rank-two order-16 bicyclic group, and their spectra.

A group element is a pair (r, s) with r, s taken mod 4, stored at flat index
j = r + 4*s.  A :class:`CoeffVec16` assigns one integer to each of the 16
elements.  :func:`derive` splits such a vector into the half-sum / half-difference
vectors ``b``, ``c``, ``d`` and the Gaussian-integer vector ``alpha`` that drive
the determinant factorization in :mod:`c4x4det.gdet`:

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
    """An exact Gaussian integer ``re + im*i``.

    Supports +, -, * (with other GaussInt or plain int), conjugation and the
    norm ``re**2 + im**2``.  Instances are immutable and hashable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        if not isinstance(re, int) or not isinstance(im, int):
            raise TypeError("GaussInt components must be exact integers")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussInt is immutable")

    @staticmethod
    def _coerce(other) -> "GaussInt | None":
        if isinstance(other, GaussInt):
            return other
        if isinstance(other, int):
            return GaussInt(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussInt(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussInt(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussInt(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussInt(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = GaussInt(1)
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        """|z|^2 = re^2 + im^2, always a nonnegative integer."""
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussInt({self.re}, {self.im})"

    def __bool__(self):
        return bool(self.re or self.im)


I = GaussInt(0, 1)


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
    """The vectors b, c (length 4), d (length 8) and alpha (length 4, Gaussian)."""

    b: tuple
    c: tuple
    d: tuple
    alpha: tuple


def derive(a) -> DerivedSpectra:
    """Split a 16-coefficient vector into its derived spectra.

    Accepts any length-16 integer sequence.  The result satisfies, for
    0 <= i <= 3:

    * ``b[i] == c[i] == d[i] + d[i+4]  (mod 2)``
    * ``b[i] + c[i] == 2*d[i]          (mod 4)``
    * ``b[i] - c[i] == 2*d[i+4]        (mod 4)``
    * ``alpha[i] == GaussInt(d[i], d[i+4])``

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
        (GaussInt(d0, d4), GaussInt(d1, d5), GaussInt(d2, d6), GaussInt(d3, d7)),
    )
