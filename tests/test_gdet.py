import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4x4det import gdet
from c4x4det.core import CoeffVec16, derive
from c4x4det.errors import InternalMismatchError
from c4x4det.gdet import (
    det16_direct,
    det16_factored,
    det16_spectral,
    factored_pieces,
    group_matrix,
    spectral_factors,
)
from c4x4det.verification import scan_exhaustive
from c4x4det.witness import WitnessCase, plan, witness
from oracles import (
    Poly,
    beta_gamma_norms,
    beta_gamma_norms_alt,
    det2,
    det4,
    det4_gauss,
    gauss_add,
    gauss_mul,
    spectral_factors_gauss,
)

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


@pytest.fixture
def fresh_det_n():
    """_det_n with an empty cache, emptied again after the test.

    A test that spies on _det_bareiss or the gathers sees every
    elimination only from an empty cache, and no value a spy returned
    outlives it.
    """
    det_n = gdet._det_n
    det_n.cache_clear()
    yield det_n
    det_n.cache_clear()


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
        zero, one, i = (0, 0), (1, 0), (0, 1)
        assert det4_gauss(one, zero, i, zero) == (4, 0)
        assert det4_gauss(one, zero, zero, zero) == (1, 0)
        assert det4_gauss(zero, (1, 1), zero, zero) == (4, 0)

    @given(quads)
    def test_det4_gauss_matches_det4_on_integers(self, x):
        assert det4_gauss(*((v, 0) for v in x)) == (det4(*x), 0)


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
        b, c, d = derive(a)
        alpha = tuple((d[i], d[i + 4]) for i in range(4))
        f0, f1, f2, f3 = spectral_factors(a)
        assert f0 == det4_gauss(*((x, 0) for x in b))
        assert f2 == det4_gauss(*((x, 0) for x in c))
        assert f1 == det4_gauss(*alpha)
        assert f3 == (f1[0], -f1[1])

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
        assert spectral_factors(a) == reference
        f0, f1, f2, f3 = reference
        assert (det16_spectral(a), 0) == gauss_mul(gauss_mul(f0, f1), gauss_mul(f2, f3))

    def test_spectral_imaginary_part_is_a_hard_failure(self, monkeypatch):
        # must raise under python -O too, so it cannot be an assert
        monkeypatch.setattr(gdet, "spectral_factors",
                            lambda a: ((1, 0), (0, 1), (1, 0), (1, 0)))
        with pytest.raises(InternalMismatchError, match=r"nonzero imaginary part: 0\+1i$"):
            det16_spectral((1,) + (0,) * 15)

    @given(coeffs)
    @settings(max_examples=100)
    def test_parity_alignment(self, a):
        b, c, d = derive(a)
        bn, gn = beta_gamma_norms(d)
        parities = {det16_factored(a) % 2, det4(*b) % 2, det4(*c) % 2, bn % 2, gn % 2}
        assert len(parities) == 1

    def test_wrong_length_rejected(self):
        # (0,) * 15 and () sum to 0: the length check comes before that exit;
        # 17 entries would gather without complaint
        for a in ((1, 2, 3), (0,) * 15, (), (1,) * 17, (0,) * 17):
            with pytest.raises(ValueError, match=f"^expected 16 coefficients, got {len(a)}$"):
                det16_direct(a)
        for a in ((1, 2, 3), (1,) * 17):
            with pytest.raises(ValueError):
                det16_spectral(a)
            with pytest.raises(ValueError, match=f"^expected 16 coefficients, got {len(a)}$"):
                det16_factored(a)
            with pytest.raises(ValueError, match=f"^expected 16 coefficients, got {len(a)}$"):
                factored_pieces(a)
        # the entry check comes before the length check
        with pytest.raises(TypeError, match="must be exact integers"):
            det16_direct((2.5,) * 17)

    def test_group_index_is_a_latin_square(self):
        # det16_direct relies on every row being a permutation of range(16):
        # then every row of the coset-sum block Q sums to sum(a), which it
        # factors out.
        for line in (*gdet._GROUP_INDEX, *zip(*gdet._GROUP_INDEX)):
            assert sorted(line) == list(range(16))

    def test_direct_on_offset_vectors(self):
        # witness vectors are one large offset plus small corrections; the
        # elimination sees only the corrections' differences
        rng = random.Random("offset vectors")
        offsets = [2**40, -2**40, 2**40 - 1, 1 - 2**40, 62499999999, -62499999999, 1, -1]
        offsets += [rng.choice((-1, 1)) * rng.randint(1, 2**40) for _ in range(8)]
        for m in offsets:
            a = tuple(m + rng.randint(-9, 9) for _ in range(16))
            assert det16_direct(a) == det_gauss_slow(group_matrix(a)), a

    def test_direct_on_zero_sum_vectors(self):
        rng = random.Random("zero sums")
        vectors = [(1, -1) + (0,) * 14, (5,) * 8 + (-5,) * 8]
        for bound in (1, 9, 2**40):
            for _ in range(6):
                a = [rng.randint(-bound, bound) for _ in range(15)]
                vectors.append((*a, -sum(a)))
        for a in vectors:
            assert any(a) and sum(a) == 0
            assert det16_direct(a) == det_gauss_slow(group_matrix(a)) == 0, a

    def test_coeffvec16_and_plain_tuple_agree(self, monkeypatch, fresh_det_n):
        # witness.emit hands det16_direct a CoeffVec16, and any iterable is
        # accepted; every gather reads a plain tuple of differences or of
        # their coset sums or differences
        seen = Counter()

        def spy(gather):
            return lambda a: seen.update([type(a)]) or gather(a)

        monkeypatch.setattr(gdet, "_TIMES_Z", spy(gdet._TIMES_Z))
        monkeypatch.setattr(gdet, "_Q_ROWS", tuple(map(spy, gdet._Q_ROWS)))
        monkeypatch.setattr(gdet, "_T_ROWS", tuple(map(spy, gdet._T_ROWS)))
        rng = random.Random("coeffvec16")
        for _ in range(20):
            a = tuple(rng.randint(-10**6, 10**6) for _ in range(16))
            assert (det16_direct(CoeffVec16(a)) == det16_direct(iter(a))
                    == det16_direct(a) == det16_factored(a))
        # 20 misses, each with one z-gather and 8 + 8 row gathers
        assert seen == Counter({tuple: 20 * 17})

    def test_gathered_blocks_are_the_coset_blocks_of_the_group_matrix(
            self, monkeypatch, fresh_det_n):
        # on free variables, so every entry names the coefficients it adds
        # and subtracts; a Poly is unhashable, so _det_n runs uncached
        x = Poly.variables(16)
        m = coset_split(x)
        assert all(e == 0 for row in m[8:] for e in row[:8])
        a = tuple(random.Random("split").randint(-9, 9) for _ in range(16))
        assert det_gauss_slow(coset_split(a)) == det_gauss_slow(group_matrix(a))
        seen = []
        monkeypatch.setattr(gdet, "check_coefficients", lambda a: None)
        monkeypatch.setattr(gdet, "_det_n", gdet._det_n.__wrapped__)
        monkeypatch.setattr(gdet, "_det_bareiss", lambda n: seen.append(n) or 1)
        assert det16_direct(x) == sum(x)
        assert seen == list(coset_blocks(x))

    def test_a_singular_quotient_block_skips_t(self, monkeypatch, fresh_det_n):
        # every coset {g, g*z} of (1, 1, 0, 0) * 4 sums to 1, so every entry
        # of Q is 1 and Q' is 0 while S = 8
        a = (1, 1, 0, 0) * 4
        q, _ = coset_blocks(a)
        assert sum(a) == 8 and not any(map(any, q))

        def refuse(v):
            raise AssertionError("T was gathered")

        monkeypatch.setattr(gdet, "_T_ROWS", (refuse,) * 8)
        assert det16_direct(a) == det_gauss_slow(group_matrix(a)) == 0

    @pytest.mark.parametrize("entry", [2.5, 2.0, True, Fraction(5, 2)], ids=repr)
    def test_direct_rejects_entries_that_are_not_ints(self, entry):
        # Bareiss's exact divisions floor on floats: (2.5, 1, ..., 1) gave 1053.0
        a = (entry,) + (1,) * 15
        with pytest.raises(TypeError, match="must be exact integers"):
            det16_direct(a)


class TestDirectMemo:
    """det N is memoised on the differences a - a[0]."""

    @staticmethod
    def count_eliminations(monkeypatch):
        calls = []
        bareiss = gdet._det_bareiss
        monkeypatch.setattr(gdet, "_det_bareiss", lambda m: calls.append(len(m)) or bareiss(m))
        return calls

    def test_a_one_parameter_family_is_eliminated_once(self, monkeypatch, fresh_det_n):
        # m * (1, ..., 1) plus one correction row: every witness has one d
        calls = self.count_eliminations(monkeypatch)
        for m in range(-500, 501):
            _, cls = witness(16 * m + 1)
            assert plan(cls).case is WitnessCase.ODD_16M_PLUS_1
        assert fresh_det_n.cache_info().misses == 1
        assert calls == [7, 8]

    def test_each_pow2_16_case_is_eliminated_once(self, monkeypatch, fresh_det_n):
        calls = self.count_eliminations(monkeypatch)
        cases = {plan(witness(65536 * m)[1]).case for m in range(-60, 61) if m}
        assert cases == {WitnessCase.POW2_16_4M_PLUS_1, WitnessCase.POW2_16_4M_MINUS_1,
                         WitnessCase.POW2_16_EVEN}
        assert fresh_det_n.cache_info().misses == 3
        assert calls == [7, 8] * 3

    @given(coeffs, st.integers(-10**12, 10**12))
    def test_a_common_offset_moves_only_the_sum(self, a, c):
        # det M = sum(a) * det Q' * det T, and neither block sees the offset
        shifted = tuple(x + c for x in a)
        assert det16_direct(shifted) * sum(a) == det16_direct(a) * (sum(a) + 16 * c)

    @pytest.mark.parametrize("a, error", [
        ((2.5,) + (1,) * 15, TypeError),
        ((True,) * 16, TypeError),
        ((1,) * 15, ValueError),
        ((1,) * 17, ValueError),
        ((), ValueError),
    ], ids=["float", "bool", "15", "17", "empty"])
    def test_bad_input_raises_every_time_and_caches_nothing(self, a, error, fresh_det_n):
        assert det16_direct((2,) + (1,) * 15) == 17
        for _ in range(3):
            with pytest.raises(error):
                det16_direct(a)
        assert fresh_det_n.cache_info().currsize == 1

    def test_the_cache_is_bounded(self, fresh_det_n):
        size = fresh_det_n.cache_info().maxsize
        assert size == gdet._DET_N_CACHE_SIZE > 0
        for k in range(size + 8):
            a = (1, k) + (0,) * 14
            assert det16_direct(a) == det16_factored(a)
        assert fresh_det_n.cache_info().currsize == size


def factored_reference(a):
    """det4(b) * det4(c) * beta * gamma through derive and beta_gamma_norms."""
    b, c, d = derive(a)
    beta, gamma = beta_gamma_norms(d)
    return det4(*b) * det4(*c) * beta * gamma


class TestFactoredKernel:
    @pytest.mark.parametrize("bound", [9, 10**9])
    def test_matches_reference_on_seeded_tuples(self, bound):
        rng = random.Random(f"factored {bound}")
        for _ in range(3000):
            a = tuple(rng.randint(-bound, bound) for _ in range(16))
            assert det16_factored(a) == factored_reference(a), a

    def test_matches_reference_on_the_unit_prefix(self):
        for a in islice(product((-1, 0, 1), repeat=16), 4096):
            assert det16_factored(a) == factored_reference(a), a

    def test_pieces_are_the_reference_closed_forms_on_free_variables(self):
        a = Poly.variables(16)
        b, c, d = derive(a)
        p = factored_pieces(a)
        assert len(p) == 10
        assert p[0] * p[1] * p[2] == det4(*b)
        assert p[3] * p[4] * p[5] == det4(*c)
        assert (p[6] * p[7], p[8] * p[9]) == beta_gamma_norms(d) == beta_gamma_norms_alt(d)

    def test_scan_sees_the_reference_values(self):
        tuples = islice(product((-1, 0, 1), repeat=16), 20000)
        report = scan_exhaustive((-1, 0, 1), limit=20000)
        assert report.ok and report.tuples_checked == 20000
        assert report.seen_values == {factored_reference(a) for a in tuples}


# The elements (r, s) of C4 x C4 in the flat order r + 4*s of group_matrix.
ELEMENTS = [(r, s) for s in range(4) for r in range(4)]
I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))
CHARACTERS = [(k, l) for k in range(4) for l in range(4)]


def character(k, l, x):
    """chi_(k,l)(r, s) = i^(kr + ls), a Gaussian integer (re, im).

    The group law is componentwise addition mod 4, and i^4 = 1, so every
    chi_(k,l) is a homomorphism to the fourth roots of unity; it reads no
    table of gdet.
    """
    r, s = x
    return I_POWERS[(k * r + l * s) % 4]


def conjugate(z):
    return (z[0], -z[1])


def gauss_sum(terms):
    return reduce(gauss_add, terms)


def gauss_prod(terms):
    return reduce(gauss_mul, terms)


def eigenvalues(a):
    """lambda_(k,l) = sum_x a_x * conj chi_(k,l)(x), keyed by (k, l)."""
    return {c: gauss_sum(gauss_mul((x, 0), conjugate(character(*c, g)))
                         for x, g in zip(a, ELEMENTS))
            for c in CHARACTERS}


class TestCharacterFactorization:
    """The three routes compute one polynomial: det M = prod of the eigenvalues.

    Every character vector is an eigenvector of group_matrix(a), and the
    character table is invertible, so det M is the product of the 16
    eigenvalues.  The spectral blocks and the factored pieces then regroup
    that product.  All of it is checked on free variables, so it holds for
    every input.
    """

    def test_each_character_is_an_eigenvector_of_the_group_matrix(self):
        a = Poly.variables(16)
        lam, m = eigenvalues(a), group_matrix(a)
        for c in CHARACTERS:
            v = [character(*c, g) for g in ELEMENTS]
            for row, vg in zip(m, v):
                image = gauss_sum(gauss_mul((e, 0), vh) for e, vh in zip(row, v))
                assert image == gauss_mul(lam[c], vg), c

    def test_the_character_table_is_orthogonal(self):
        # each chi is a character of the group law, and V V* = 16 I, so V is
        # invertible and det M = prod(lambda)
        for c in CHARACTERS:
            for (r, s), (t, u) in product(ELEMENTS, repeat=2):
                assert character(*c, ((r + t) % 4, (s + u) % 4)) == gauss_mul(
                    character(*c, (r, s)), character(*c, (t, u)))
            for d in CHARACTERS:
                entry = gauss_sum(gauss_mul(character(*c, g), conjugate(character(*d, g)))
                                  for g in ELEMENTS)
                assert entry == (16 if c == d else 0, 0), (c, d)

    def test_spectral_blocks_are_products_of_eigenvalues(self):
        # block k is det4 of z_j = sum_s i^(ks) a[j + 4s], the product over
        # k' of sum_x a_x i^(k'r + ks) = lambda_(-k', -k)
        a = Poly.variables(16)
        lam = eigenvalues(a)
        for block, l in zip(spectral_factors(a), (0, 3, 2, 1)):
            assert block == gauss_prod(lam[k, l] for k in range(4)), l

    def test_factored_pieces_regroup_the_spectral_blocks(self):
        a = Poly.variables(16)
        f0, f1, f2, f3 = spectral_factors(a)
        p = factored_pieces(a)
        assert f0 == (p[0] * p[1] * p[2], 0)
        assert f2 == (p[3] * p[4] * p[5], 0)
        assert gauss_mul(f1, f3) == (p[6] * p[7] * p[8] * p[9], 0)


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


# z = (2, 0) is flat 2, and g*z = (r + 2, s); one element of each coset
# {g, g*z} has r in {0, 1}.
COSET_REPS = [g for g in range(16) if g % 4 < 2]
TIMES_Z = [(g + 2) % 4 + 4 * (g // 4) for g in range(16)]


def coset_split(a):
    """group_matrix(a) split over the cosets of {e, z}: [[Q, X], [0, T]].

    For each representative h (and g), column h*z is added into column h
    and row g is subtracted from row g*z; then the representatives go
    first, rows and columns alike.  The steps are unimodular, so the
    determinant is unchanged.
    """
    m = group_matrix(a)
    for h in COSET_REPS:
        for row in m:
            row[h] = row[h] + row[TIMES_Z[h]]
    for g in COSET_REPS:
        m[TIMES_Z[g]] = [x - y for x, y in zip(m[TIMES_Z[g]], m[g])]
    order = COSET_REPS + [TIMES_Z[g] for g in COSET_REPS]
    return [[m[i][j] for j in order] for i in order]


def coset_blocks(a):
    """Q' and T of coset_split(a): Q'[i][j] = Q[i][j] - Q[0][j], 1 <= i, j <= 7."""
    m = coset_split(a)
    q0 = m[0][1:8]
    return ([[x - y for x, y in zip(row[1:8], q0)] for row in m[1:8]],
            [row[8:] for row in m[8:]])


def leading_minor(mat, size):
    return det_gauss_slow([row[:size] for row in mat[:size]])


def eliminate(mat):
    """_det_bareiss on a copy of mat: the determinant and the final row order.

    _det_bareiss reorders its list of rows in place, so order[p] is the input
    index of the row left at position p; list(range(n)) means no pivot search
    moved a row.
    """
    rows = [list(r) for r in mat]
    ids = [id(r) for r in rows]
    det = gdet._det_bareiss(rows)
    return det, [ids.index(id(r)) for r in rows]


# Final row orders of the 7x7 Q' and the 8x8 T of CASE_VALUES witnesses
# whose elimination meets a zero pivot minor; the other witnesses keep
# list(range(7)) and list(range(8)).
WITNESS_ROW_ORDERS = {
    -999999999719: ([1, 3, 0, 5, 4, 2, 6], list(range(8))),
    -999999999687: ([0, 1, 2, 4, 3, 5, 6], list(range(8))),
    999999999625: ([1, 3, 0, 5, 4, 2, 6], [2, 3, 4, 5, 0, 1, 6, 7]),
    -999999999575: ([1, 3, 0, 5, 4, 2, 6], list(range(8))),
    -999999998855: ([1, 3, 0, 5, 4, 2, 6], list(range(8))),
    999999930368: ([0, 1, 2, 4, 3, 5, 6], list(range(8))),
}


def check_hand_off(n, k, shape, rng):
    """Random n x n matrices whose 2x2 pivot minor at pair k is zero.

    "repeated": rows k and k+1 agree on columns 0..k+1, so a lower row moves
    into k+1; "zero": both rows vanish there, so a lower row also moves into
    k.  That takes one row below k+1 ("repeated") or two ("zero"); without
    them the matrix is singular and no row moves (k = 14 at n = 16, and
    "zero" at k = 12 for n = 15).  A draw whose pivot minor vanishes at an
    earlier pair is drawn again, so the rows above k keep their places.
    """
    moves = k + (3 if shape == "repeated" else 4) <= n
    for _ in range(5):
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        while not all(leading_minor(mat, j) for j in range(2, k + 1, 2)):
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if shape == "repeated":
            mat[k + 1][:k + 2] = mat[k][:k + 2]
        else:
            mat[k][:k + 2] = mat[k + 1][:k + 2] = [0] * (k + 2)
        det, order = eliminate(mat)
        assert det == det_gauss_slow(mat)
        assert order[:k] == list(range(k))
        if moves:
            assert order[k:k + 2] != [k, k + 1]
            assert shape == "repeated" or order[k] > k + 1
        else:
            assert (det, order) == (0, list(range(n)))


class TestTwoStepBareiss:
    def test_zero_diagonal_needs_no_one_by_one_pivot(self):
        rng = random.Random(2024)
        for n in range(2, 10):
            for _ in range(20):
                mat = zero_diagonal_matrix(n, rng)
                assert mat[0][0] == 0
                assert all(leading_minor(mat, k + 1) == 0 for k in range(0, n - 1, 2))
                assert eliminate(mat) == (det_gauss_slow(mat), list(range(n)))

    def test_group_matrices_with_nonzero_pivot_minors_stay_two_step(self):
        rng = random.Random(77)
        checked = 0
        while checked < 30:
            a = tuple(rng.randint(-9, 9) for _ in range(16))
            mat = group_matrix(a)
            if all(leading_minor(mat, k + 2) for k in range(0, 16, 2)):
                assert det16_direct(a) == det_gauss_slow(mat)
                assert eliminate(mat) == (det16_direct(a), list(range(16)))
                checked += 1

    @pytest.mark.parametrize("k", range(0, 16, 2))
    @pytest.mark.parametrize("shape", ["repeated", "zero"])
    def test_hand_off_at_each_pair(self, k, shape):
        check_hand_off(16, k, shape, random.Random(1000 + k))

    @pytest.mark.parametrize("k", range(0, 14, 2))
    @pytest.mark.parametrize("shape", ["repeated", "zero"])
    def test_hand_off_at_each_pair_15x15(self, k, shape):
        # an odd order, whose last row holds the determinant
        check_hand_off(15, k, shape, random.Random(f"hand-off 15 {k}"))

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("shape", ["repeated", "zero"])
    def test_hand_off_at_each_pair_of_the_coset_blocks(self, n, shape):
        # det16_direct eliminates the 7x7 Q' and the 8x8 T
        for k in range(0, n - 1, 2):
            check_hand_off(n, k, shape, random.Random(f"hand-off {n} {k}"))

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("shape", ["zero", "rank one"])
    def test_dependent_pivot_columns_give_zero(self, n, shape):
        # "zero": rows k.. vanish on columns 0..k+1, so no row at or below k
        # has a nonzero pair; "rank one": column k+1 is twice column k, so
        # every pair is a multiple of the first nonzero one.  Either way the
        # search returns 0 before it moves a row.
        rng = random.Random(f"dependent {n} {shape}")
        for k in range(0, n - 1, 2):
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            for i, row in enumerate(mat):
                if shape == "zero" and i >= k:
                    row[:k + 2] = [0] * (k + 2)
                elif shape == "rank one":
                    row[k + 1] = 2 * row[k]
            assert det_gauss_slow(mat) == 0
            assert eliminate(mat) == (0, list(range(n)))

    def test_lower_row_becomes_the_pivot(self):
        # Row 0 has a zero pair, so row 1 moves into 0 and row 2, the first
        # independent of it, into 1.
        mat = [[0, 0, 1, 2], [1, 2, 3, 4], [2, 5, 1, 1], [3, 1, 4, 1]]
        assert eliminate(mat) == (det_gauss_slow(mat), [1, 2, 0, 3])

    @pytest.mark.parametrize("low, high", [(-9, 9), (0, 1), (-1, 1), (-10**9, 10**9)])
    def test_three_routes_agree_on_seeded_tuples(self, low, high):
        rng = random.Random(f"routes {low} {high}")
        for _ in range(3000):
            a = tuple(rng.randint(low, high) for _ in range(16))
            assert det16_direct(a) == det16_factored(a) == det16_spectral(a), a

    def test_rows_with_a_zero_pair_are_rescaled_or_left_alone(self):
        # Block upper triangular with 2x2 diagonal blocks of determinant
        # 3, 1, 5, 2: every row below a pass is zero in its pivot columns,
        # so both its cofactors are 0 and the update scales it by c0 / prev.
        # The pivot minors c0 are the leading minors 3, 3, 15: pass 0
        # rescales six rows (c0 != prev = 1), pass 2 leaves four as they
        # are (c0 == prev) and pass 4 rescales two.
        rng = random.Random("zero pairs")
        blocks = ([[2, 1], [1, 2]], [[2, 1], [1, 1]], [[3, 1], [1, 2]], [[1, 1], [-1, 1]])
        mat = [[rng.randint(-9, 9) if j // 2 > i // 2 else 0 for j in range(8)]
               for i in range(8)]
        for t, block in enumerate(blocks):
            for i in range(2):
                mat[2 * t + i][2 * t:2 * t + 2] = block[i]
        assert det_gauss_slow(mat) == 30
        assert eliminate(mat) == (30, list(range(8)))

    def test_zero_pair_at_a_pass_with_unit_pivot_minor_is_left_alone(self):
        # pass 0: c0 == prev == 1, and row 3 is zero in columns 0 and 1
        rng = random.Random("unit pivot")
        mat = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        mat[0][:2], mat[1][:2], mat[3][:2] = [2, 1], [1, 1], [0, 0]
        assert eliminate(mat) == (det_gauss_slow(mat), list(range(6)))

    @pytest.mark.parametrize("pair", [(0, 5), (4, 0)])
    def test_row_with_one_zero_in_the_pair_gets_the_full_update(self, pair):
        rng = random.Random(f"one zero {pair}")
        mat = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(7)]
        mat[0][:2], mat[1][:2], mat[4][:2] = [3, 1], [1, 2], list(pair)
        assert eliminate(mat) == (det_gauss_slow(mat), list(range(7)))

    def test_small_witnesses_skip_or_rescale_their_updates(self):
        # 17: Q' and T are identities, so every update leaves its row as it
        # is; 65536: one update of Q' and two of T meet a zero pair, so they
        # only rescale their rows
        for n in (17, 65536):
            vec, _ = witness(n)
            q, t = coset_blocks(vec)
            (det_q, q_order), (det_t, t_order) = eliminate(q), eliminate(t)
            assert (q_order, t_order) == (list(range(7)), list(range(8)))
            assert (det_q, det_t) == (det_gauss_slow(q), det_gauss_slow(t))
            assert sum(vec) * det_q * det_t == n

    def test_three_routes_agree_on_every_witness_case(self):
        cases = set()
        for n in CASE_VALUES:
            vec, cls = witness(n)
            cases.add(plan(cls).case)
            assert det16_direct(vec) == det16_factored(vec) == det16_spectral(vec) == n
            # the 7x7 Q' and the 8x8 T that det16_direct eliminates
            q, t = coset_blocks(vec)
            (det_q, q_order), (det_t, t_order) = eliminate(q), eliminate(t)
            assert (det_q, det_t) == (det_gauss_slow(q), det_gauss_slow(t))
            assert sum(vec) * det_q * det_t == n
            assert (q_order, t_order) == WITNESS_ROW_ORDERS.get(
                n, (list(range(7)), list(range(8)))), n
        assert cases == set(WitnessCase)
