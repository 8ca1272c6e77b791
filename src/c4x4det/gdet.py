"""The order-16 group determinant, computed three independent ways.

* :func:`det16_direct` works on the literal 16x16 matrix ``M[g][h] = a[g*h^-1]``
  of a group index table.  Over the cosets of ``K = {e, z}``, ``z = (2, 0)``,
  it splits ``M`` into two 8x8 blocks: ``Q``, the group matrix of ``G/K`` on
  the coset sums, and ``T``, the part of ``M`` on which ``z`` acts as -1,
  so ``det M = sum(a) * det Q' * det T`` with ``Q'`` the 7x7 matrix of row
  differences of ``Q``.  It gathers ``Q'`` and ``T`` straight from ``a`` and
  eliminates each fraction-free, two steps per pass (two-step Bareiss), in
  exact integers, with one update for every lower row, swapping in
  independent rows where a 2x2 pivot minor vanishes.  The group facts it
  uses are that every row of the index table is a permutation of
  ``range(16)`` and that ``z`` has order 2; it uses no closed form, and
  splits over ``(2, 0)`` where :func:`derive` splits over ``(0, 2)``.
  ``det Q' * det T`` is memoised on the differences ``a - a[0]`` (at most
  256 entries), so a witness family's repeated shape is eliminated once.
  This is the oracle every other route is checked against.
* :func:`det16_factored` is the product of the ten integers of
  :func:`factored_pieces`, which split the closed form
  ``det4(b) * det4(c) * beta_norm * gamma_norm`` over the derived spectra;
  ``det4(x0, x1, x2, x3) = {(x0+x2)^2 - (x1+x3)^2} * {(x0-x2)^2 + (x1-x3)^2}``
  is the determinant of the 4x4 circulant.
* :func:`det16_spectral` multiplies the four character-block determinants
  of :func:`spectral_factors` (the det4 closed form on the Gaussian
  arguments ``sum_s i^{k s} a[j+4s]``, k = 0..3) and checks that the
  product has no imaginary part.  Gaussian integers are plain ``(re, im)``
  integer pairs throughout; the route calls neither :func:`derive` nor
  :func:`factored_pieces`.

All three agree exactly on every input; the test suite enforces this both on
fixed examples and on randomized sweeps, and proves the pieces against
reference copies of det4 and the two norms as polynomial identities.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import prod
from operator import add, itemgetter, sub

from .core import check_coefficients
# Not used here: the benchmark's trace wraps gdet.derive by name.
from .core import derive  # noqa: F401
from .errors import InternalMismatchError

__all__ = [
    "det16_direct",
    "det16_factored",
    "det16_spectral",
    "factored_pieces",
    "spectral_factors",
]


def _det4_pairs(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i):
    # The det4 closed form on Gaussian integers held as (re, im) int pairs.
    sr, si, tr, ti = x0r + x2r, x0i + x2i, x1r + x3r, x1i + x3i
    ur, ui, vr, vi = x0r - x2r, x0i - x2i, x1r - x3r, x1i - x3i
    pr, pi = sr * sr - si * si - tr * tr + ti * ti, 2 * (sr * si - tr * ti)
    qr, qi = ur * ur - ui * ui + vr * vr - vi * vi, 2 * (ur * ui + vr * vi)
    return pr * qr - pi * qi, pr * qi + pi * qr


# _GROUP_INDEX[g][h] is the flat index of g*h^-1: componentwise subtraction mod 4.
_GROUP_INDEX = tuple(
    tuple((((g & 3) - (h & 3)) & 3) + 4 * (((g >> 2) - (h >> 2)) & 3) for h in range(16))
    for g in range(16)
)
# z = (2, 0) has order 2.  _COSET_REPS holds the smaller element of each
# coset {g, g*z} of K = {e, z}: the eight (r, s) with r in {0, 1}.
_Z = 2
_COSET_REPS = tuple(g for g in range(16) if g < _GROUP_INDEX[g][_Z])
# _TIMES_Z(a)[g] is a[g*z], as z is its own inverse; gathered in C.
_TIMES_Z = itemgetter(*(row[_Z] for row in _GROUP_INDEX))
# With R = _COSET_REPS, _T_ROWS[i](v) is (v[R_i R_j^-1] for j = 0..7) and
# _Q_ROWS[i](v) the same without column 0.
_T_ROWS = tuple(itemgetter(*(_GROUP_INDEX[r][h] for h in _COSET_REPS)) for r in _COSET_REPS)
_Q_ROWS = tuple(itemgetter(*(_GROUP_INDEX[r][h] for h in _COSET_REPS[1:])) for r in _COSET_REPS)
# Distinct difference vectors whose det M / S is kept: enough for the witness
# families' repeated shapes, small enough to leave the memory footprint flat.
_DET_N_CACHE_SIZE = 256


def group_matrix(a):
    """The 16x16 matrix M[g][h] = a[g*h^-1] with elements (r, s) at r + 4*s.

    g*h^-1 is componentwise subtraction mod 4, spelled out once in
    ``_GROUP_INDEX``; :func:`det16_direct` gathers from the same table, and
    the demo and the tests use this builder.
    """
    if len(a) != 16:
        raise ValueError(f"expected 16 coefficients, got {len(a)}")
    return [[a[t] for t in row] for row in _GROUP_INDEX]


def _det_bareiss(m) -> int:
    # Two-step fraction-free elimination (Bareiss 1968); reorders the rows
    # of m in place.  Each pass eliminates columns k, k+1 with the 2x2 pivot
    # minor c0 of rows k, k+1, and each lower row gets the two cofactors
    # c1, c2 of its entries there.  Every division by prev is exact by
    # Sylvester's identity, in any row order.  Every lower row gets the same
    # update, one that is 0 in columns k, k+1 too.  When c0 == 0, the first
    # row i >= k with a nonzero pair in columns k, k+1 and the first row
    # j > i with a pair independent of it are swapped into k and k+1 (so
    # j > k + 1); without both, those columns are dependent and the
    # determinant is 0.
    n = len(m)
    prev = sign = 1
    for k in range(0, n - 1, 2):
        pk, pk1 = m[k], m[k + 1]
        a, b, c, d = pk[k], pk[k + 1], pk1[k], pk1[k + 1]
        c0 = (a * d - b * c) // prev
        if c0 == 0:
            for i in range(k, n):
                a, b = m[i][k], m[i][k + 1]
                if a or b:
                    break
            else:
                return 0
            for j in range(i + 1, n):
                c, d = m[j][k], m[j][k + 1]
                if a * d - b * c:
                    break
            else:
                return 0
            if i != k:
                m[k], m[i] = m[i], m[k]
                sign = -sign
            m[k + 1], m[j] = m[j], m[k + 1]
            sign = -sign
            pk, pk1 = m[k], m[k + 1]
            c0 = (a * d - b * c) // prev
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
    return sign * (prev if n % 2 == 0 else m[n - 1][n - 1])


@lru_cache(maxsize=_DET_N_CACHE_SIZE)
def _det_n(d) -> int:
    # det M / S = det Q' * det T from the differences d = a - a[0]: both
    # blocks depend on a only through them, so the cache is exact, and each
    # distinct d is still eliminated.  Q is read off the coset sums u and T
    # off the coset differences v; T is skipped when det Q' is 0.
    zd = _TIMES_Z(d)
    u = tuple(map(add, d, zd))
    q0 = _Q_ROWS[0](u)
    det_q = _det_bareiss([list(map(sub, g(u), q0)) for g in _Q_ROWS[1:]])
    if det_q == 0:
        return 0
    v = tuple(map(sub, d, zd))
    return det_q * _det_bareiss([list(g(v)) for g in _T_ROWS])


def det16_direct(a) -> int:
    """Exact determinant of the full 16x16 group matrix.

    The reference oracle: independent of the factored and spectral routes.
    It splits ``M`` over the cosets ``{g, g*z}`` of ``K = {e, z}``, where
    ``z = (2, 0)`` has order 2 and ``R`` are the eight representatives
    ``(r, s)`` with ``r`` in ``{0, 1}``.  Three unimodular steps change
    ``M``: add column ``h*z`` into column ``h`` and subtract row ``g`` from
    row ``g*z`` for each representative ``h``, ``g``, then put the
    representatives first, rows and columns alike.  That leaves
    ``[[Q, X], [0, T]]`` with ``Q[i][j] = a(R_i R_j^-1) + a(R_i R_j^-1 z)``
    and ``T[i][j] = a(R_i R_j^-1) - a(R_i R_j^-1 z)`` for ``0 <= i, j < 8``.
    ``Q`` is the group matrix of ``G/K`` on the coset sums, and ``T`` is the
    part of ``M`` on which ``z`` acts as -1.  Every row of ``Q`` is a
    permutation of the coset sums, so it sums to ``S = sum(a)``; as for any
    group matrix, ``det Q = S * det Q'`` with ``Q'[i][j] = Q[i][j] - Q[0][j]``
    for ``1 <= i, j <= 7``.  So ``det M = S * det Q' * det T``; ``S == 0``
    makes ``M`` singular, and ``det Q' == 0`` returns 0 without building
    ``T``.  ``Q'`` and ``T`` hold differences of entries, so an offset common
    to every entry cancels in both: ``det Q' * det T`` is a function of the
    differences ``d = a - a[0]`` alone.  It is memoised on ``d`` in a
    least-recently-used cache of 256 entries.  That is exact: every
    distinct ``d`` is still eliminated in integers, and ``S`` is recomputed
    on every call.  The witnesses of one family (``16m+1``, say) share one
    ``d``, so re-checking all of them costs one elimination of each block.
    ``M`` itself is never built: each row of both blocks is gathered from
    the coset sums or differences of ``d`` by one ``itemgetter`` over the
    index table.  Each block is eliminated two steps per pass (two-step
    Bareiss) in one loop, with one update for every lower row.  Where a
    2x2 pivot minor vanishes it swaps in two rows whose entries in the pivot
    columns are independent, or returns 0 if there are none.  Its exact
    divisions floor on anything but integers, so an entry
    that is not an ``int`` (a ``bool`` or ``2.5`` is not one) raises
    ``TypeError`` first, as :class:`CoeffVec16` does, and then a length
    other than 16 raises ``ValueError``.
    """
    # any iterable, a CoeffVec16 too, becomes a plain tuple
    a = tuple(a)
    check_coefficients(a)
    if len(a) != 16:
        raise ValueError(f"expected 16 coefficients, got {len(a)}")
    s = sum(a)
    if s == 0:
        return 0
    return s * _det_n(tuple(map(sub, a, repeat(a[0]))))


def factored_pieces(a) -> tuple:
    """The ten integer factors of the factored route, in a fixed order.

    With ``b, c, d = derive(a)`` and ``s, t, u, v`` the sums ``x0+x2``,
    ``x1+x3`` and differences ``x0-x2``, ``x1-x3`` of a circulant's entries:

    * 0-2: ``s-t``, ``s+t`` and ``u^2+v^2`` of b, so their product is det4(b);
    * 3-5: the same three of c, whose product is det4(c);
    * 6-7: the two sums of two squares whose product is the beta norm of d;
    * 8-9: the two sums of two squares whose product is the gamma norm of d.

    One frame on the unpacked integers: the spectra of :func:`derive` are
    inlined.
    """
    if len(a) != 16:
        raise ValueError(f"expected 16 coefficients, got {len(a)}")
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    # b = e + o and c = e - o; det4 reads only the sums and differences of
    # entries 0, 2 and of entries 1, 3.
    e0, e1, e2, e3 = a0 + a8, a1 + a9, a2 + a10, a3 + a11
    o0, o1, o2, o3 = a4 + a12, a5 + a13, a6 + a14, a7 + a15
    es, et, eu, ev = e0 + e2, e1 + e3, e0 - e2, e1 - e3
    fs, ft, fu, fv = o0 + o2, o1 + o3, o0 - o2, o1 - o3
    bs, bt, bu, bv = es + fs, et + ft, eu + fu, ev + fv
    cs, ct, cu, cv = es - fs, et - ft, eu - fu, ev - fv
    # beta and gamma over d, through the sums and differences of d_i, d_{i+2}
    d0, d1, d2, d3 = a0 - a8, a1 - a9, a2 - a10, a3 - a11
    d4, d5, d6, d7 = a4 - a12, a5 - a13, a6 - a14, a7 - a15
    x, y, p, q = d0 + d2, d4 + d6, d1 + d3, d5 + d7
    s, t, u, v = x + p, y + q, x - p, y - q
    x, y, p, q = d0 - d2, d4 - d6, d1 - d3, d5 - d7
    g, h, m, n = x - q, y + p, x + q, y - p
    return (
        bs - bt, bs + bt, bu * bu + bv * bv,
        cs - ct, cs + ct, cu * cu + cv * cv,
        s * s + t * t, u * u + v * v,
        g * g + h * h, m * m + n * n,
    )


def det16_factored(a) -> int:
    """det4(b) * det4(c) * beta_norm * gamma_norm: the product of :func:`factored_pieces`."""
    return prod(factored_pieces(a))


def spectral_factors(a) -> tuple:
    """The four Gaussian character-block determinants, k = 0..3, as (re, im) pairs.

    Block k evaluates the det4 closed form, in Gaussian integers, on
    the arguments ``z_j = sum_s i^{k s} * a[j + 4 s]``.  Block 0 sees the b
    vector and block 2 the c vector of :func:`derive`; block 1 sees the
    pairs ``(d[j], d[j+4])``, and blocks 1 and 3 are complex conjugates of
    one another.
    """
    # With e_j/o_j the sums and r_j/w_j the differences of the s-even and
    # s-odd coefficients, z_j is (e+o, 0), (r, w), (e-o, 0) and (r, -w) for
    # k = 0..3.
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


def det16_spectral(a) -> int:
    """Product of the four character-block determinants.

    The product of the four Gaussian factors must be purely real; a nonzero
    imaginary part can only come from an index-convention bug, so it is a
    hard failure rather than something to discard.
    """
    (re, im), (r1, i1), (r2, i2), (r3, i3) = spectral_factors(a)
    re, im = re * r1 - im * i1, re * i1 + im * r1
    re, im = re * r2 - im * i2, re * i2 + im * r2
    re, im = re * r3 - im * i3, re * i3 + im * r3
    if im != 0:
        raise InternalMismatchError(
            f"spectral product has nonzero imaginary part: {re}{im:+d}i"
        )
    return re
