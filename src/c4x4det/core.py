"""Coefficient vectors on the rank-two order-16 bicyclic group, and their spectra.

A group element is a pair (r, s) with r, s taken mod 4, stored at flat index
j = r + 4*s.  A :class:`CoeffVec16` assigns one integer to each of the 16
elements.  :func:`derive` splits such a vector into the half-sum / half-difference
vectors ``b``, ``c`` and ``d`` that drive the determinant factorization in
:mod:`c4x4det.gdet`:

    b[i] = (a[i] + a[i+8]) + (a[i+4] + a[i+12])      0 <= i <= 3
    c[i] = (a[i] + a[i+8]) - (a[i+4] + a[i+12])      0 <= i <= 3
    d[i] = a[i] - a[i+8]                             0 <= i <= 7

The paper's Gaussian vector alpha[i] = d[i] + i*d[i+4] is the pair
``(d[i], d[i+4])``: Gaussian integers are plain ``(re, im)`` integer pairs
throughout the package.

All arithmetic is exact: entries are plain Python integers, so there is no
width to overflow and no rounding anywhere.
"""

from __future__ import annotations

from typing import NamedTuple


class _Record:
    """Base of the package's immutable records; a subclass names its fields in ``__slots__``.

    Construction takes the fields positionally or by keyword.  Two records
    are equal only when they are of the same class and their field tuples
    are equal, and a record hashes as its field tuple.  Fields cannot be
    assigned or deleted; pickling and copying rebuild through the
    constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # slot descriptors write past the __setattr__ that freezes instances
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        fields = cls.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, got {len(args)}")
        values = list(args)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
            values.append(kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated fields {sorted(kwargs)}")
        return tuple(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"


def check_coefficients(entries) -> None:
    """Raise TypeError unless every entry is an ``int`` (a ``bool`` is not one)."""
    if set(map(type, entries)) == {int}:
        return
    # an int subclass other than bool passes; the first bad entry is named
    for x in entries:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"coefficients must be exact integers, got {x!r}")


class CoeffVec16(tuple):
    """Sixteen integer coefficients a_0..a_15, one per group element.

    Index j encodes the element (r, s) via j = r + 4*s, so inputs written as
    flat 16-tuples line up with the (r, s) grid row by row.

    The one gate for coefficient vectors: each public route of
    :mod:`c4x4det.gdet` applies it first.  It reads any iterable once,
    raises ``TypeError`` at the first entry that is not an ``int`` (a
    ``bool``, ``2.5`` or ``"1"`` is not one), then ``ValueError`` unless
    there are 16.  A ``CoeffVec16`` comes back unchanged.
    """

    def __new__(cls, entries):
        if type(entries) is cls:
            return entries
        t = tuple(entries)
        check_coefficients(t)
        if len(t) != 16:
            raise ValueError(f"expected 16 coefficients, got {len(t)}")
        return super().__new__(cls, t)

    def __repr__(self):
        return f"CoeffVec16({tuple(self)})"


class DerivedSpectra(NamedTuple):
    """The vectors b, c (length 4) and d (length 8)."""

    b: tuple
    c: tuple
    d: tuple


def derive(a) -> DerivedSpectra:
    """Split a 16-coefficient vector into its derived spectra.

    Accepts any length-16 integer sequence.  The result satisfies, for
    0 <= i <= 3:

    * ``b[i] == c[i] == d[i] + d[i+4]  (mod 2)``
    * ``b[i] + c[i] == 2*d[i]          (mod 4)``
    * ``b[i] - c[i] == 2*d[i+4]        (mod 4)``

    and derive is linear in ``a`` componentwise.  The pairs
    ``(d[i], d[i+4])`` are the arguments of spectral block 1 (see
    :func:`c4x4det.gdet.spectral_factors`).  The entries are not checked:
    derive only adds and subtracts them, so it runs on polynomials too.
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
