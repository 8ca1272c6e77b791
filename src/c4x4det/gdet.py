"""The order-16 group determinant, computed three independent ways.

* :func:`det16_direct` builds the literal 16x16 matrix ``M[g][h] = a[g*h^-1]``
  from a group index table and eliminates it fraction-free, two steps per
  pass (two-step Bareiss), staying in exact integers.  Where a 2x2 pivot
  minor vanishes it hands the trailing block to one-step elimination with
  row swaps.  The elimination is generic: it uses nothing of the group
  structure.  This is the oracle every other route is checked against.
* :func:`det16_factored` uses the closed form
  ``det4(b) * det4(c) * beta_norm * gamma_norm`` over the derived spectra.
* :func:`det16_spectral` multiplies the four character-block determinants
  ``det4_gauss(sum_s i^{k s} a[j+4s], ...)`` for k = 0..3 and checks that the
  product has no imaginary part.  It computes on plain ``(re, im)`` integer
  pairs and calls neither :func:`derive` nor :func:`det4`; ``GaussInt``
  appears only at the :func:`spectral_factors` and :func:`det4_gauss`
  boundary.

All three agree exactly on every input; the test suite enforces this both on
fixed examples and on randomized sweeps, and checks :func:`beta_gamma_norms`
against an independent square-difference form of the two norms.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import GaussInt, derive
from .errors import InternalMismatchError

__all__ = [
    "BetaGammaNorms",
    "det2",
    "det4",
    "det4_gauss",
    "det16_direct",
    "det16_factored",
    "det16_spectral",
    "spectral_factors",
    "beta_gamma_norms",
]


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


def _det4_pairs(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i):
    # The det4 closed form on Gaussian integers held as (re, im) int pairs.
    sr, si, tr, ti = x0r + x2r, x0i + x2i, x1r + x3r, x1i + x3i
    ur, ui, vr, vi = x0r - x2r, x0i - x2i, x1r - x3r, x1i - x3i
    pr, pi = sr * sr - si * si - tr * tr + ti * ti, 2 * (sr * si - tr * ti)
    qr, qi = ur * ur - ui * ui + vr * vr - vi * vi, 2 * (ur * ui + vr * vi)
    return pr * qr - pi * qi, pr * qi + pi * qr


def det4_gauss(x0, x1, x2, x3) -> GaussInt:
    """Same closed form as :func:`det4`, evaluated in exact Gaussian integers."""
    x0, x1, x2, x3 = (z if isinstance(z, GaussInt) else GaussInt(z)
                      for z in (x0, x1, x2, x3))
    return GaussInt(*_det4_pairs(x0.re, x0.im, x1.re, x1.im,
                                 x2.re, x2.im, x3.re, x3.im))


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


# _GROUP_INDEX[g][h] is the flat index of g*h^-1: componentwise subtraction mod 4.
_GROUP_INDEX = tuple(
    tuple((((g & 3) - (h & 3)) & 3) + 4 * (((g >> 2) - (h >> 2)) & 3) for h in range(16))
    for g in range(16)
)


def group_matrix(a):
    """The 16x16 matrix M[g][h] = a[g*h^-1] with elements (r, s) at r + 4*s.

    g*h^-1 is componentwise subtraction mod 4.  This is the one place the
    convention is spelled out; tests reuse this builder.
    """
    if len(a) != 16:
        raise ValueError(f"expected 16 coefficients, got {len(a)}")
    return [[a[t] for t in row] for row in _GROUP_INDEX]


def _det_bareiss_one_step(m, start: int, prev: int) -> int:
    # Fraction-free elimination from step start on, with running divisor prev;
    # every interior division is exact.  Rows with a zero in the pivot
    # column still pick up the pivot scaling, which is the same update with
    # f == 0.  This is the one place that swaps rows.
    n = len(m)
    sign = 1
    for k in range(start, n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k]
        piv = pk[k]
        cols = range(k + 1, n)
        for ri in m[k + 1:]:
            f = ri[k]
            for j in cols:
                ri[j] = (ri[j] * piv - f * pk[j]) // prev
        prev = piv
    return sign * m[n - 1][n - 1]


def _det_bareiss(m) -> int:
    # Two-step fraction-free elimination (Bareiss 1968).  Steps k and k+1
    # run as one pass whose pivot is the 2x2 minor c0 of rows and columns
    # k, k+1; each lower row gets the two cofactors c1, c2 of its entries in
    # those columns.  Every division by prev is exact by Sylvester's
    # identity, and a_kk alone is never a divisor, so only c0 must be
    # nonzero.  When c0 == 0 the trailing block and the running divisor go
    # to the one-step loop, which resumes the same elimination there.
    n = len(m)
    prev = 1
    for k in range(0, n - 1, 2):
        pk, pk1 = m[k], m[k + 1]
        a, b, c, d = pk[k], pk[k + 1], pk1[k], pk1[k + 1]
        c0 = (a * d - b * c) // prev
        if c0 == 0:
            return _det_bareiss_one_step(m, k, prev)
        cols = range(k + 2, n)
        for ri in m[k + 2:]:
            x0, x1 = ri[k], ri[k + 1]
            c1 = (c * x1 - d * x0) // prev
            c2 = (b * x0 - a * x1) // prev
            for j in cols:
                ri[j] = (ri[j] * c0 + pk[j] * c1 + pk1[j] * c2) // prev
        prev = c0
    # n even: the last pivot c0 is the whole determinant; n odd: the last
    # row holds it.
    return prev if n % 2 == 0 else m[n - 1][n - 1]


def det16_direct(a) -> int:
    """Exact determinant of the full 16x16 group matrix.

    The reference oracle: independent of the factored and spectral routes.
    It eliminates two steps per pass (two-step Bareiss), handing off to
    one-step elimination with row swaps where a 2x2 pivot minor vanishes.
    The elimination is generic: it reads the matrix, not the group.
    """
    return _det_bareiss(group_matrix(a))


def det16_factored(a) -> int:
    """det4(b) * det4(c) * beta_norm * gamma_norm over the derived spectra."""
    b, c, d = derive(a)
    norms = beta_gamma_norms(d)
    return det4(*b) * det4(*c) * norms.beta_norm * norms.gamma_norm


def _spectral_pairs(a) -> tuple:
    # Block k evaluates the det4 closed form on z_j = sum_s i^{k s} a[j + 4 s]
    # as (re, im) int pairs.  With e_j/o_j the sums and r_j/w_j the
    # differences of the s-even and s-odd coefficients, z_j is (e+o, 0),
    # (r, w), (e-o, 0) and (r, -w) for k = 0..3.
    if len(a) != 16:
        raise ValueError(f"expected 16 coefficients, got {len(a)}")
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    e0, e1, e2, e3 = a0 + a8, a1 + a9, a2 + a10, a3 + a11
    o0, o1, o2, o3 = a4 + a12, a5 + a13, a6 + a14, a7 + a15
    r0, r1, r2, r3 = a0 - a8, a1 - a9, a2 - a10, a3 - a11
    w0, w1, w2, w3 = a4 - a12, a5 - a13, a6 - a14, a7 - a15
    return (
        _det4_pairs(e0 + o0, 0, e1 + o1, 0, e2 + o2, 0, e3 + o3, 0),
        _det4_pairs(r0, w0, r1, w1, r2, w2, r3, w3),
        _det4_pairs(e0 - o0, 0, e1 - o1, 0, e2 - o2, 0, e3 - o3, 0),
        _det4_pairs(r0, -w0, r1, -w1, r2, -w2, r3, -w3),
    )


def spectral_factors(a) -> tuple:
    """The four Gaussian character-block determinants, k = 0..3.

    Block k evaluates det4_gauss on the arguments
    ``z_j = sum_s i^{k s} * a[j + 4 s]``.  Block 0 sees the b vector, block 2
    the c vector, and blocks 1 and 3 are complex conjugates of one another.
    """
    return tuple(GaussInt(re, im) for re, im in _spectral_pairs(a))


def det16_spectral(a) -> int:
    """Product of the four character-block determinants.

    The product of the four Gaussian factors must be purely real; a nonzero
    imaginary part can only come from an index-convention bug, so it is a
    hard failure rather than something to discard.
    """
    (re, im), (r1, i1), (r2, i2), (r3, i3) = _spectral_pairs(a)
    re, im = re * r1 - im * i1, re * i1 + im * r1
    re, im = re * r2 - im * i2, re * i2 + im * r2
    re, im = re * r3 - im * i3, re * i3 + im * r3
    if im != 0:
        raise InternalMismatchError(
            f"spectral product has nonzero imaginary part: {GaussInt(re, im)!r}"
        )
    return re
