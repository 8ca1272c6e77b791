import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4x4det import gdet
from c4x4det.core import GaussInt, derive
from c4x4det.errors import InternalMismatchError
from c4x4det.gdet import (
    beta_gamma_norms,
    det2,
    det4,
    det4_gauss,
    det16_direct,
    det16_factored,
    det16_spectral,
    group_matrix,
    spectral_factors,
)
from c4x4det.witness import WitnessCase, plan, witness
from oracles import beta_gamma_norms_alt, gauss_add, gauss_mul, spectral_factors_gauss

coeffs = st.tuples(*[st.integers(-9, 9)] * 16)
d_vecs = st.tuples(*[st.integers(-50, 50)] * 8)
quads = st.tuples(*[st.integers(-50, 50)] * 4)
big_coeffs = st.tuples(*[st.integers(-10**12, 10**12)] * 16)


@st.composite
def degenerate_matrices(draw):
    """n x n integer matrices, n = 1..9, often with repeated rows or zero columns."""
    n = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] = list(rows[j])
    zero_cols = draw(st.integers(0, n))
    for row in rows:
        row[:zero_cols] = [0] * zero_cols
    if draw(st.booleans()):  # a nonzero entry low in column 0 forces swaps
        rows[-1][0] = draw(st.integers(1, 20))
    return rows


def det_gauss_slow(mat):
    """Independent referee: exact rational Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    sign = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    out = Fraction(sign)
    for k in range(n):
        out *= m[k][k]
    assert out.denominator == 1
    return out.numerator


class TestSmallCirculants:
    def test_det2(self):
        assert det2(1, 0) == 1
        assert det2(1, 1) == 0
        assert det2(9, 8) == 17

    def test_det4_values(self):
        assert det4(1, 0, 0, 0) == 1
        assert det4(5, 4, 4, 4) == 17
        assert det4(2, 1, 0, -1) == 32

    @given(quads)
    def test_det4_rotation_antisymmetry(self, x):
        assert det4(*x) == -det4(x[1], x[2], x[3], x[0])

    def test_det4_gauss_values(self):
        i = GaussInt(0, 1)
        assert det4_gauss(1, 0, i, 0) == GaussInt(4, 0)
        assert det4_gauss(1, 0, 0, 0) == GaussInt(1, 0)
        assert det4_gauss(0, GaussInt(1, 1), 0, 0) == GaussInt(4, 0)

    @given(quads)
    def test_det4_gauss_matches_det4_on_integers(self, x):
        assert det4_gauss(*x) == GaussInt(det4(*x), 0)


class TestBetaGammaNorms:
    def test_unit_vector(self):
        assert beta_gamma_norms((1, 0, 0, 0, 0, 0, 0, 0)) == (1, 1)

    def test_five_five(self):
        assert beta_gamma_norms((0, 1, 0, 0, 1, 1, 0, 0)) == (5, 5)

    def test_symmetric_cancellation(self):
        bn, gn = beta_gamma_norms((1,) * 8)
        assert bn == 0 and gn == 0

    def test_zero_vector(self):
        assert beta_gamma_norms_alt((0,) * 8) == (0, 0)
        assert beta_gamma_norms_alt((1, 0, 0, 0, 0, 0, 0, 0)) == (1, 1)

    @given(d_vecs)
    def test_formulas_agree(self, d):
        assert beta_gamma_norms(d) == beta_gamma_norms_alt(d)

    @given(d_vecs)
    def test_nonnegative(self, d):
        bn, gn = beta_gamma_norms(d)
        assert bn >= 0 and gn >= 0

    @given(d_vecs)
    def test_half_swap_invariance(self, d):
        assert beta_gamma_norms(d) == beta_gamma_norms(d[4:] + d[:4])

    @given(d_vecs)
    def test_norms_are_gaussian_block_norms(self, d):
        # the two norms are exactly |det4_gauss(alpha)| split into its factors
        alpha = tuple((d[i], d[i + 4]) for i in range(4))
        s, t = gauss_add(alpha[0], alpha[2]), gauss_add(alpha[1], alpha[3])
        u, v = gauss_add(alpha[0], alpha[2], -1), gauss_add(alpha[1], alpha[3], -1)
        beta = gauss_add(gauss_mul(s, s), gauss_mul(t, t), -1)
        gamma = gauss_add(gauss_mul(u, u), gauss_mul(v, v))
        bn, gn = beta_gamma_norms(d)
        assert gauss_mul(beta, (beta[0], -beta[1])) == (bn, 0)
        assert gauss_mul(gamma, (gamma[0], -gamma[1])) == (gn, 0)


class TestDet16:
    def test_identity_vector(self):
        a = (1,) + (0,) * 15
        assert det16_direct(a) == det16_factored(a) == det16_spectral(a) == 1

    def test_all_ones(self):
        a = (1,) * 16
        assert det16_direct(a) == det16_factored(a) == det16_spectral(a) == 0

    def test_near_constant(self):
        a = (2,) + (1,) * 15
        assert det16_direct(a) == 17

    def test_known_product_value(self):
        a = (3, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1)
        assert det16_spectral(a) == 327680 == 2**16 * 5

    def test_spectral_block_structure(self):
        a = tuple(range(16))
        spectra = derive(a)
        b, c, alpha = spectra.b, spectra.c, spectra.alpha
        f0, f1, f2, f3 = spectral_factors(a)
        assert f0 == det4_gauss(*b)
        assert f2 == det4_gauss(*c)
        assert f1 == det4_gauss(*alpha)
        assert (f3.re, f3.im) == (f1.re, -f1.im)

    def test_group_matrix_first_row_is_reindexed_coefficients(self):
        a = tuple(range(16))
        m = group_matrix(a)
        assert m[0] == [a[((0 - rh) % 4) + 4 * ((0 - sh) % 4)]
                        for sh in range(4) for rh in range(4)]
        # diagonal carries the identity coefficient
        assert all(m[g][g] == a[0] for g in range(16))

    @given(coeffs)
    @settings(max_examples=150)
    def test_three_routes_agree(self, a):
        assert det16_direct(a) == det16_factored(a) == det16_spectral(a)

    def test_direct_against_rational_elimination(self):
        rng = random.Random(12345)
        vectors = [tuple(rng.randint(-9, 9) for _ in range(16)) for _ in range(25)]
        # zero pivots and singular matrices: all-zero, all-equal, a swap at
        # step 0, and {0,1} vectors (many of them singular)
        vectors += [(0,) * 16, (7,) * 16, (0,) * 15 + (1,)]
        vectors += [tuple(rng.randint(0, 1) for _ in range(16)) for _ in range(200)]
        for a in vectors:
            assert det16_direct(a) == det_gauss_slow(group_matrix(a)), a

    @given(degenerate_matrices())
    @settings(max_examples=300)
    def test_bareiss_against_rational_elimination(self, rows):
        expected = det_gauss_slow(rows)
        assert gdet._det_bareiss([list(r) for r in rows]) == expected

    @given(big_coeffs)
    @settings(max_examples=200)
    def test_spectral_matches_gaussint_reference(self, a):
        reference = spectral_factors_gauss(a)
        assert tuple((f.re, f.im) for f in spectral_factors(a)) == reference
        f0, f1, f2, f3 = reference
        assert (det16_spectral(a), 0) == gauss_mul(gauss_mul(f0, f1), gauss_mul(f2, f3))

    def test_spectral_imaginary_part_is_a_hard_failure(self, monkeypatch):
        # must raise under python -O too, so it cannot be an assert
        monkeypatch.setattr(gdet, "_spectral_pairs",
                            lambda a: ((1, 0), (0, 1), (1, 0), (1, 0)))
        with pytest.raises(InternalMismatchError, match="nonzero imaginary part"):
            det16_spectral((1,) + (0,) * 15)

    @given(coeffs)
    @settings(max_examples=100)
    def test_parity_alignment(self, a):
        b, c, d = derive(a)
        bn, gn = beta_gamma_norms(d)
        parities = {det16_factored(a) % 2, det4(*b) % 2, det4(*c) % 2, bn % 2, gn % 2}
        assert len(parities) == 1

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            det16_direct((1, 2, 3))
        with pytest.raises(ValueError):
            det16_spectral((1, 2, 3))


# One value near the envelope per witness case, so the re-checked vectors
# have large entries.
CASE_VALUES = (
    -999999999999, -999999999719, -999999999687, 999999999625, -999999999575,
    -999999999271, -999999998855, -999999997399, 999999996905, 999999995904,
    -999999995904, 999999930368, 999999897600, -999999897600,
)


def zero_diagonal_matrix(n, rng):
    """A random n x n matrix L * B whose eliminations meet a_kk == 0 at every even k.

    B is block upper triangular with 2x2 diagonal blocks [[0, x], [y, z]]
    (x, y nonzero; a trailing 1x1 block is nonzero) and L is block lower
    unitriangular.  Every leading minor of even order is then a product of
    block determinants, so nonzero, and every one of odd order below n is
    zero.
    """
    b = [[rng.randint(-9, 9) if j // 2 > i // 2 else 0 for j in range(n)]
         for i in range(n)]
    for k in range(0, n - 1, 2):
        b[k][k + 1] = rng.choice((-1, 1)) * rng.randint(1, 9)
        b[k + 1][k] = rng.choice((-1, 1)) * rng.randint(1, 9)
        b[k + 1][k + 1] = rng.randint(-9, 9)
    if n % 2:
        b[n - 1][n - 1] = rng.randint(1, 9)
    low = [[1 if i == j else rng.randint(-9, 9) if i // 2 > j // 2 else 0
            for j in range(n)] for i in range(n)]
    return [[sum(low[i][t] * b[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def leading_minor(mat, size):
    return det_gauss_slow([row[:size] for row in mat[:size]])


@pytest.fixture
def hand_offs(monkeypatch):
    """The start step of every call into the one-step loop."""
    starts = []
    one_step = gdet._det_bareiss_one_step

    def recording(m, start, prev):
        starts.append(start)
        return one_step(m, start, prev)

    monkeypatch.setattr(gdet, "_det_bareiss_one_step", recording)
    return starts


class TestTwoStepBareiss:
    def test_zero_diagonal_needs_no_one_by_one_pivot(self, hand_offs):
        rng = random.Random(2024)
        for n in range(2, 10):
            for _ in range(20):
                mat = zero_diagonal_matrix(n, rng)
                assert mat[0][0] == 0
                assert all(leading_minor(mat, k + 1) == 0 for k in range(0, n - 1, 2))
                assert gdet._det_bareiss([list(r) for r in mat]) == det_gauss_slow(mat)
        assert hand_offs == []

    def test_group_matrices_with_nonzero_pivot_minors_stay_two_step(self, hand_offs):
        rng = random.Random(77)
        checked = 0
        while checked < 30:
            a = tuple(rng.randint(-9, 9) for _ in range(16))
            mat = group_matrix(a)
            if all(leading_minor(mat, k + 2) for k in range(0, 16, 2)):
                assert det16_direct(a) == det_gauss_slow(mat)
                checked += 1
        assert hand_offs == []

    @pytest.mark.parametrize("k", range(0, 16, 2))
    @pytest.mark.parametrize("shape", ["repeated", "zero"])
    def test_hand_off_at_each_pair(self, k, shape, hand_offs):
        # "repeated": rows k and k+1 agree on columns 0..k+1, so the 2x2
        # pivot minor at k is zero; "zero": both rows vanish there, so the
        # one-step loop must also swap a lower row into place.
        rng = random.Random(1000 + k)
        for _ in range(5):
            mat = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]
            if shape == "repeated":
                mat[k + 1][:k + 2] = mat[k][:k + 2]
            else:
                mat[k][:k + 2] = mat[k + 1][:k + 2] = [0] * (k + 2)
            hand_offs.clear()
            assert gdet._det_bareiss([list(r) for r in mat]) == det_gauss_slow(mat)
            assert hand_offs == [k]

    @pytest.mark.parametrize("low, high", [(-9, 9), (0, 1), (-1, 1), (-10**9, 10**9)])
    def test_three_routes_agree_on_seeded_tuples(self, low, high):
        rng = random.Random(f"routes {low} {high}")
        for _ in range(3000):
            a = tuple(rng.randint(low, high) for _ in range(16))
            assert det16_direct(a) == det16_factored(a) == det16_spectral(a), a

    def test_three_routes_agree_on_every_witness_case(self):
        cases = set()
        for n in CASE_VALUES:
            vec, cls = witness(n)
            cases.add(plan(cls).case)
            assert det16_direct(vec) == det16_factored(vec) == det16_spectral(vec) == n
        assert cases == set(WitnessCase)
