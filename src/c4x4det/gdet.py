"""The order-16 group determinant, computed three independent ways.

* :func:`det16_direct` works on the literal 16x16 matrix ``M[g][h] = a[g*h^-1]``
  of a group index table.  Over the cosets of the Klein subgroup
  ``V = {e, z, w, z*w}``, ``z = (2, 0)``, ``w = (0, 2)``, it splits ``M``
  into four 4x4 blocks: ``P``, the group matrix of ``G/V`` on the coset
  sums, and ``B+-``, ``B-+``, ``B--``, the parts of ``M`` on which ``w``,
  ``z`` or both act as -1, so ``det M = sum(a) * det P' * det B+- *
  det B-+ * det B--`` with ``P'`` the 3x3 matrix of row differences of
  ``P``.  It reads the differences ``d = a - a[0]`` once, coset by coset;
  two butterflies, over ``z`` and then over ``w``, give the four signed
  sums over ``V`` at the four coset representatives, and each block is
  gathered from the four values of one of them and their negatives.  It
  expands each block determinant by cofactors, in exact integers, with no
  division and no pivot search.  The group facts it uses are that every
  row of the index table is a permutation of ``range(16)`` and that ``z``
  and ``w`` have order 2; it uses no closed form, and it splits over ``V``
  into literal matrix determinants, not over characters.  The product of
  the four block determinants is memoised on ``d`` (at most 256 entries),
  so a witness family's repeated shape is evaluated once.
  This is the oracle every other route is checked against.
* :func:`det16_factored` evaluates the closed form
  ``det4(b) * det4(c) * beta_norm * gamma_norm`` over the derived spectra;
  ``det4(x0, x1, x2, x3) = {(x0+x2)^2 - (x1+x3)^2} * {(x0-x2)^2 + (x1-x3)^2}``
  is the determinant of the 4x4 circulant.  :func:`factored_pieces` splits
  it into ten integers, four linear forms and six sums of two squares,
  formed from the spectra of :func:`derive`.  The route is one inlined
  frame, not a call of :func:`factored_pieces`: it forms the four linear
  pieces first and returns 0 at once when their product is 0, before the
  sums of two squares.  The tests pin it to the product of the pieces,
  value for value.
* :func:`det16_spectral` multiplies the four character-block determinants
  of :func:`spectral_factors` (the det4 closed form on the arguments
  ``sum_s i^{k s} a[j+4s]``, k = 0..3: real for k = 0, 2 and Gaussian for
  k = 1, 3) and checks that the product has no imaginary part.  Gaussian
  integers are plain ``(re, im)`` integer pairs throughout; the route calls
  neither :func:`derive` nor :func:`factored_pieces`.

Each public route applies the gate ``CoeffVec16(a)``, which states the
input rule, then its kernel.  The scans of :mod:`c4x4det.verification`
build their tuples of ints and call the kernels ``_direct``, ``_factored``
and ``_spectral``, which check nothing; ``_direct`` reads ``a`` itself,
returns 0 at once when ``sum(a)`` is 0, and evaluates the blocks
unmemoised, as random tuples rarely repeat their differences.
:func:`factored_pieces` and :func:`spectral_factors` check nothing either:
they only add, subtract and multiply.

All three agree exactly on every input; the test suite enforces this both on
fixed examples and on randomized sweeps.  It proves the pieces against
reference copies of det4 and the two norms, and the block identity and
both cofactor expansions of :func:`det16_direct`, as polynomial
identities.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import itemgetter, sub

from .core import CoeffVec16, derive
from .errors import InternalMismatchError

__all__ = [
    "det16_direct",
    "det16_factored",
    "det16_spectral",
    "factored_pieces",
    "spectral_factors",
]

# No assignment in this module binds more than three names from new values:
# for four or more, CPython builds a throwaway tuple and unpacks it again
# (BUILD_TUPLE, UNPACK_SEQUENCE), for two or three it stores them directly.
# So four-wide lines are written as two pairs; tests/test_gdet.py checks
# the bytecode.


# _GROUP_INDEX[g][h] is the flat index of g*h^-1: componentwise subtraction mod 4.
_GROUP_INDEX = tuple(
    tuple((((g & 3) - (h & 3)) & 3) + 4 * (((g >> 2) - (h >> 2)) & 3) for h in range(16))
    for g in range(16)
)
# z = (2, 0) and w = (0, 2) have order 2 and generate the Klein subgroup
# V = {e, z, w, z*w}.  _REPS holds the smallest element of each coset of V:
# the four (r, s) with r, s in {0, 1}.
_Z, _W = 2, 8
_REPS = tuple(g for g in range(16) if g < _GROUP_INDEX[g][_Z] and g < _GROUP_INDEX[g][_W])
# _COSETS lists the coset of each representative r as r, r*z, r*w, r*z*w
# (z and w are their own inverses); _READ(d) reads d in that order.
_COSETS = tuple(
    h for r in _REPS for g in (r, _GROUP_INDEX[r][_W]) for h in (g, _GROUP_INDEX[g][_Z])
)
_READ = itemgetter(*_COSETS)


def _gather(cells, char_z=1, char_w=1):
    # The entries (i, j) in cells of the block x[R_i R_j^-1], where x is a
    # signed sum over V on which z acts as char_z and w as char_w, as an
    # itemgetter over (x_0..x_3, -x_0..-x_3), x_k its value at R_k: with
    # R_i R_j^-1 = R_k * v, v in V, entry (i, j) reads k, plus 4 where the
    # character is -1 on v.
    index = []
    for i, j in cells:
        k, v = divmod(_COSETS.index(_GROUP_INDEX[_REPS[i]][_REPS[j]]), 4)
        index.append(k + 4 * (char_z ** (v & 1) * char_w ** (v >> 1) < 0))
    return itemgetter(*index)


# From (p_0..p_3), _P_BODY gathers rows 1..3 of P and _P_HEAD its row 0
# three times over, both without column 0, so P' is their difference;
# _B_PM, _B_MP and _B_MM each gather a whole 4x4 block, row by row.
_P_BODY = _gather((i, j) for i in (1, 2, 3) for j in (1, 2, 3))
_P_HEAD = _gather((0, j) for i in (1, 2, 3) for j in (1, 2, 3))
_B_PM, _B_MP, _B_MM = (
    _gather([(i, j) for i in range(4) for j in range(4)], *char)
    for char in ((1, -1), (-1, 1), (-1, -1))
)
# Distinct difference vectors whose det M / S is kept: enough for the witness
# families' repeated shapes, small enough to leave the memory footprint flat.
_DET_N_CACHE_SIZE = 256


def _det3(m) -> int:
    # Cofactor expansion of the 3x3 matrix m, row by row, along row 0.
    a, b, c, d, e, f, g, h, i = m
    return a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)


def _det4(m) -> int:
    # Laplace expansion of the 4x4 matrix m, row by row, along rows 0 and 1:
    # s_k and c_k are the 2x2 minors of rows 0, 1 and of rows 2, 3 on the
    # column pairs (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), so c_5-k
    # is the complement of s_k.
    x00, x01, x02, x03, x10, x11, x12, x13, x20, x21, x22, x23, x30, x31, x32, x33 = m
    s0, s1, s2 = x00 * x11 - x01 * x10, x00 * x12 - x02 * x10, x00 * x13 - x03 * x10
    s3, s4, s5 = x01 * x12 - x02 * x11, x01 * x13 - x03 * x11, x02 * x13 - x03 * x12
    c0, c1, c2 = x20 * x31 - x21 * x30, x20 * x32 - x22 * x30, x20 * x33 - x23 * x30
    c3, c4, c5 = x21 * x32 - x22 * x31, x21 * x33 - x23 * x31, x22 * x33 - x23 * x32
    return s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0


def _blocks(a) -> int:
    # det M / S = det P' * det B+- * det B-+ * det B-- for the group matrix
    # M of a.  Every block holds only differences of entries, so a plus an
    # offset common to every entry, a - a[0] say, gives the same product.
    # a is read coset by coset; a butterfly over z, then one over w, gives
    # the four signed sums over V at each representative R_k: p (P),
    # x (B+-), y (B-+) and t (B--).  The 4x4 blocks are skipped when det P'
    # is 0.
    e0, z0, w0, zw0, e1, z1, w1, zw1, e2, z2, w2, zw2, e3, z3, w3, zw3 = _READ(a)
    u0, u1 = e0 + z0, e1 + z1
    u2, u3 = e2 + z2, e3 + z3
    uw0, uw1 = w0 + zw0, w1 + zw1
    uw2, uw3 = w2 + zw2, w3 + zw3
    p = (u0 + uw0, u1 + uw1, u2 + uw2, u3 + uw3)
    det_p = _det3(tuple(map(sub, _P_BODY(p), _P_HEAD(p))))
    if det_p == 0:
        return 0
    v0, v1 = e0 - z0, e1 - z1
    v2, v3 = e2 - z2, e3 - z3
    vw0, vw1 = w0 - zw0, w1 - zw1
    vw2, vw3 = w2 - zw2, w3 - zw3
    x0, x1 = u0 - uw0, u1 - uw1
    x2, x3 = u2 - uw2, u3 - uw3
    y0, y1 = v0 + vw0, v1 + vw1
    y2, y3 = v2 + vw2, v3 + vw3
    t0, t1 = v0 - vw0, v1 - vw1
    t2, t3 = v2 - vw2, v3 - vw3
    return (det_p * _det4(_B_PM((x0, x1, x2, x3, -x0, -x1, -x2, -x3)))
            * _det4(_B_MP((y0, y1, y2, y3, -y0, -y1, -y2, -y3)))
            * _det4(_B_MM((t0, t1, t2, t3, -t0, -t1, -t2, -t3))))


# det16_direct's memo, keyed on the differences d = a - a[0], so every
# witness of one family hits the entry of its first.
_det_n = lru_cache(maxsize=_DET_N_CACHE_SIZE)(_blocks)


def _direct(a) -> int:
    # det16_direct's kernel for the scans: a is a 16-tuple of ints, which is
    # not checked, and the blocks read a itself, unmemoised, since random
    # tuples rarely repeat their differences.
    s = sum(a)
    if s == 0:
        return 0
    return s * _blocks(a)


def det16_direct(a) -> int:
    """Exact determinant of the full 16x16 group matrix.

    The reference oracle: independent of the factored and spectral routes.
    It splits ``M`` twice, each time over an element of order 2.  First
    over ``z = (2, 0)``: for each representative ``h``, ``g`` of a coset
    ``{g, g*z}``, add column ``h*z`` into column ``h`` and subtract row
    ``g`` from row ``g*z``, then put the representatives first, rows and
    columns alike.  These unimodular steps leave ``[[Q, X], [0, T]]``, where
    ``Q`` and ``T`` take the coset sums ``u = a + a*z`` and differences
    ``v = a - a*z`` at ``R_i R_j^-1``.  Then over ``w = (0, 2)``: with the
    representatives ordered ``R, R*w``, where ``R`` are the four ``(r, s)``
    with ``r, s`` in ``{0, 1}``, ``Q`` and ``T`` both have the shape
    ``[[A, B], [B, A]]``, and the same step turns each into
    ``[[A + B, B], [0, A - B]]``.  So ``det M`` is the product of the four
    4x4 determinants of ``x[R_i R_j^-1]`` for the signed sums ``x`` over the
    Klein subgroup ``V = {e, z, w, z*w}``: ``u + u*w`` gives ``P``,
    ``u - u*w`` gives ``B+-``, ``v + v*w`` gives ``B-+`` and ``v - v*w``
    gives ``B--``.  ``P`` is the group matrix of ``G/V`` on the coset sums
    of ``V``.  Every row of it is a permutation of them, so it sums to
    ``S = sum(a)``; as for any group matrix, ``det P = S * det P'`` with
    ``P'[i][j] = P[i][j] - P[0][j]`` for ``1 <= i, j <= 3``.  So
    ``det M = S * det P' * det B+- * det B-+ * det B--``; ``det P' == 0``
    returns 0 without building the other three blocks, and ``S == 0`` takes
    no exit (on the witness re-check it is 0 only for ``n == 0``).  ``P'``
    and the ``B`` blocks hold differences of entries, so an offset common to
    every entry cancels in all four: their product is a function of the
    differences ``d = a - a[0]`` alone.  It is memoised on ``d`` in a
    least-recently-used cache of 256 entries.  That is exact: every distinct
    ``d`` is still evaluated in integers, and ``S`` is recomputed on every
    call.  The witnesses of one family (``16m+1``, say) share one ``d``, so
    re-checking all of them costs one evaluation of the blocks.  ``M``
    itself is never built.  A signed sum
    ``x`` over ``V`` only changes sign under ``V``, so it has one value
    ``x_k`` per coset, at the representative ``R_k``: ``d`` is read once,
    coset by coset, and a butterfly over ``z`` and one over ``w`` give all
    four sums at each ``R_k`` in 32 additions.  With
    ``R_i R_j^-1 = R_k * v``, ``v`` in ``V``, entry ``(i, j)`` of a block
    is ``x_k`` or ``-x_k`` by the block's sign on ``v``, so each 4x4 block
    is one ``itemgetter``, derived from the index table at import, over
    ``(x_0..x_3, -x_0..-x_3)``.  ``det P'`` is expanded by cofactors along
    a row and each ``det B`` over the 2x2 minors of its first two rows,
    with no division and no pivot search; the tests prove the block
    identity and both expansions on free variables.  Gate: :class:`CoeffVec16`.
    """
    a = CoeffVec16(a)
    return sum(a) * _det_n(tuple(map(sub, a, repeat(a[0]))))


def factored_pieces(a) -> tuple:
    """The ten integer factors of the factored route, in a fixed order.

    With ``b, c, d = derive(a)`` and ``s, t, u, v`` the sums ``x0+x2``,
    ``x1+x3`` and differences ``x0-x2``, ``x1-x3`` of a circulant's entries:

    * 0-2: ``s-t``, ``s+t`` and ``u^2+v^2`` of b, so their product is det4(b);
    * 3-5: the same three of c, whose product is det4(c);
    * 6-7: the two sums of two squares whose product is the beta norm of d;
    * 8-9: the two sums of two squares whose product is the gamma norm of d.

    The entries are not checked: the pieces are sums, differences and
    products of them, so the tests expand them on polynomials.
    """
    b, c, d = derive(a)
    pieces = ()
    for x0, x1, x2, x3 in (b, c):
        s, t = x0 + x2, x1 + x3
        u, v = x0 - x2, x1 - x3
        pieces += (s - t, s + t, u * u + v * v)
    # beta and gamma over d, through the sums and differences of d_i, d_{i+2}
    d0, d1, d2, d3, d4, d5, d6, d7 = d
    x, y = d0 + d2, d4 + d6
    p, q = d1 + d3, d5 + d7
    s, t = x + p, y + q
    u, v = x - p, y - q
    x, y = d0 - d2, d4 - d6
    p, q = d1 - d3, d5 - d7
    g, h = x - q, y + p
    m, n = x + q, y - p
    return (*pieces, s * s + t * t, u * u + v * v,
            g * g + h * h, m * m + n * n)


def _factored(a) -> int:
    # det16_factored's kernel for the scans: a is not checked.
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    e0, e1 = a0 + a8, a1 + a9
    e2, e3 = a2 + a10, a3 + a11
    o0, o1 = a4 + a12, a5 + a13
    o2, o3 = a6 + a14, a7 + a15
    es, et = e0 + e2, e1 + e3
    fs, ft = o0 + o2, o1 + o3
    bs, bt = es + fs, et + ft
    cs, ct = es - fs, et - ft
    lin = (bs - bt) * (bs + bt) * (cs - ct) * (cs + ct)
    if not lin:
        return 0
    eu, ev = e0 - e2, e1 - e3
    fu, fv = o0 - o2, o1 - o3
    bu, bv = eu + fu, ev + fv
    cu, cv = eu - fu, ev - fv
    d0, d1 = a0 - a8, a1 - a9
    d2, d3 = a2 - a10, a3 - a11
    d4, d5 = a4 - a12, a5 - a13
    d6, d7 = a6 - a14, a7 - a15
    x, y = d0 + d2, d4 + d6
    p, q = d1 + d3, d5 + d7
    s, t = x + p, y + q
    u, v = x - p, y - q
    x, y = d0 - d2, d4 - d6
    p, q = d1 - d3, d5 - d7
    g, h = x - q, y + p
    m, n = x + q, y - p
    return (lin * (bu * bu + bv * bv) * (cu * cu + cv * cv) * (s * s + t * t)
            * (u * u + v * v) * (g * g + h * h) * (m * m + n * n))


def det16_factored(a) -> int:
    """det4(b) * det4(c) * beta_norm * gamma_norm, the product of :func:`factored_pieces`.

    One frame of its own, with the same linear forms as
    :func:`factored_pieces`: it multiplies the four real linear pieces
    ``s-t`` and ``s+t`` of b and of c (``s+t`` of b is ``sum(a)``) into
    ``lin`` and returns the ``int`` 0 when ``lin`` is 0, without forming
    the six sums of two squares; otherwise it returns ``lin`` times them.
    On {-1, 0, 1} entries about a third of all tuples take that exit.  The
    tests pin this frame to ``prod(factored_pieces(a))`` and to
    :func:`det16_spectral`.  Gate: :class:`CoeffVec16`.
    """
    return _factored(CoeffVec16(a))


def spectral_factors(a) -> tuple:
    """The four character-block determinants, k = 0..3, as (re, im) pairs.

    Block k evaluates the det4 closed form on the arguments
    ``z_j = sum_s i^{k s} * a[j + 4 s]``, all four blocks in this one frame.
    Block 0 sees the b vector and block 2 the c vector of :func:`derive`;
    both are real, so they take the real closed form, with imaginary part
    the int 0.  Block 1 sees the pairs ``(d[j], d[j+4])`` and block 3 their
    conjugates; each is evaluated in Gaussian integers from its own
    arguments, not as the other's conjugate, so a sign slip in block 3
    shows as an imaginary part in :func:`det16_spectral`.  The entries are
    not checked: the blocks are sums, differences and products of them, so
    the tests expand them on polynomials.
    """
    # With e_j/o_j the sums and r_j/w_j the differences of the s-even and
    # s-odd coefficients, z_j is (e+o, 0), (r, w), (e-o, 0) and (r, -w) for
    # k = 0..3; det4 is (s^2 - t^2) * (u^2 + v^2) on the sums s, t and the
    # differences u, v of the z_j, with im parts kept apart in blocks 1, 3.
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    e0, e1 = a0 + a8, a1 + a9
    e2, e3 = a2 + a10, a3 + a11
    o0, o1 = a4 + a12, a5 + a13
    o2, o3 = a6 + a14, a7 + a15
    r0, r1 = a0 - a8, a1 - a9
    r2, r3 = a2 - a10, a3 - a11
    w0, w1 = a4 - a12, a5 - a13
    w2, w3 = a6 - a14, a7 - a15
    b0, b1 = e0 + o0, e1 + o1
    b2, b3 = e2 + o2, e3 + o3
    c0, c1 = e0 - o0, e1 - o1
    c2, c3 = e2 - o2, e3 - o3
    bs, bt = b0 + b2, b1 + b3
    bu, bv = b0 - b2, b1 - b3
    cs, ct = c0 + c2, c1 + c3
    cu, cv = c0 - c2, c1 - c3
    sr, tr = r0 + r2, r1 + r3
    ur, vr = r0 - r2, r1 - r3
    si, ti = w0 + w2, w1 + w3
    ui, vi = w0 - w2, w1 - w3
    pr, pi = sr * sr - si * si - tr * tr + ti * ti, 2 * (sr * si - tr * ti)
    qr, qi = ur * ur - ui * ui + vr * vr - vi * vi, 2 * (ur * ui + vr * vi)
    block1 = pr * qr - pi * qi, pr * qi + pi * qr
    si, ti = -w0 - w2, -w1 - w3
    ui, vi = w2 - w0, w3 - w1
    pr, pi = sr * sr - si * si - tr * tr + ti * ti, 2 * (sr * si - tr * ti)
    qr, qi = ur * ur - ui * ui + vr * vr - vi * vi, 2 * (ur * ui + vr * vi)
    return (
        ((bs * bs - bt * bt) * (bu * bu + bv * bv), 0),
        block1,
        ((cs * cs - ct * ct) * (cu * cu + cv * cv), 0),
        (pr * qr - pi * qi, pr * qi + pi * qr),
    )


def _spectral(a) -> int:
    # det16_spectral's kernel for the scans: the entries are not checked.
    (re, im), (r1, i1), (r2, i2), (r3, i3) = spectral_factors(a)
    re, im = re * r1 - im * i1, re * i1 + im * r1
    re, im = re * r2 - im * i2, re * i2 + im * r2
    re, im = re * r3 - im * i3, re * i3 + im * r3
    if im != 0:
        raise InternalMismatchError(
            f"spectral product has nonzero imaginary part: {re}{im:+d}i"
        )
    return re


def det16_spectral(a) -> int:
    """Product of the four character-block determinants.

    The product of the four Gaussian factors must be purely real; a nonzero
    imaginary part can only come from an index-convention bug, so it is a
    hard failure rather than something to discard.  Gate: :class:`CoeffVec16`.
    """
    return _spectral(CoeffVec16(a))
