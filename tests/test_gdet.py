import dis
import random
import re
import types
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice, permutations, product
from math import prod

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
    group_matrix,
    spectral_factors_gauss,
)

coeffs = st.tuples(*[st.integers(-9, 9)] * 16)
d_vecs = st.tuples(*[st.integers(-50, 50)] * 8)
quads = st.tuples(*[st.integers(-50, 50)] * 4)
big_coeffs = st.tuples(*[st.integers(-10**12, 10**12)] * 16)


@st.composite
def degenerate_matrices(draw, low, high):
    """n x n integer matrices, n = low..high, often singular: a repeated row or zero columns."""
    n = draw(st.integers(low, high))
    rows = draw(st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] = list(rows[j])
    zero_cols = draw(st.integers(0, n))
    for row in rows:
        row[:zero_cols] = [0] * zero_cols
    if draw(st.booleans()):  # a nonzero entry low in column 0 makes the referee swap rows
        rows[-1][0] = draw(st.integers(1, 20))
    return rows


@pytest.fixture
def fresh_det_n():
    """_det_n with an empty cache, emptied again after the test.

    A test that spies on _det3, _det4 or the gathers sees every
    evaluation only from an empty cache, and no value a spy returned
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

    def test_group_index_is_g_times_h_inverse(self):
        # det16_direct's gathers are built from _GROUP_INDEX; the table of
        # g*h (columns h and h^-1 swapped, an even permutation) gives the
        # same determinants, so no determinant test pins the table
        assert [list(row) for row in gdet._GROUP_INDEX] == group_matrix(range(16))

    @given(coeffs)
    @settings(max_examples=150)
    def test_three_routes_agree(self, a):
        assert det16_direct(a) == det16_factored(a) == det16_spectral(a)

    def test_direct_against_rational_elimination(self):
        rng = random.Random(12345)
        vectors = [tuple(rng.randint(-9, 9) for _ in range(16)) for _ in range(25)]
        # the S == 0 exit (all-zero), the det P' == 0 exit (all-equal), a
        # referee row swap at step 0 (a[0] == 0), and {0,1} vectors (many of
        # them singular)
        vectors += [(0,) * 16, (7,) * 16, (0,) * 15 + (1,)]
        vectors += [tuple(rng.randint(0, 1) for _ in range(16)) for _ in range(200)]
        for a in vectors:
            assert det16_direct(a) == det_gauss_slow(group_matrix(a)), a

    def test_direct_against_the_unsplit_group_matrix(self):
        # inputs the other referee tests leave out: entries up to 2**40,
        # {-1,0,1} vectors (where det P' == 0 is common), and a witness of
        # every case moved by a 36-bit offset
        rng = random.Random(77)
        vectors = [tuple(rng.randint(-2**40, 2**40) for _ in range(16)) for _ in range(11)]
        ternary = [tuple(rng.randint(-1, 1) for _ in range(16)) for _ in range(11)]
        assert any(det_gauss_slow(klein_blocks(a)[0]) == 0 for a in ternary)
        cases = {}
        for n in CASE_VALUES:
            vec, cls = witness(n)
            offset = rng.choice((-1, 1)) * rng.randint(2**35, 2**36)
            cases[plan(cls).case] = tuple(x + offset for x in vec)
        assert set(cases) == set(WitnessCase)
        vectors += ternary + list(cases.values())
        assert len(vectors) == 36
        for a in vectors:
            assert det16_direct(a) == det_gauss_slow(group_matrix(a)), a

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
            # the 3x3 P' and the three 4x4 blocks that det16_direct expands
            p_diff, *b = klein_blocks(vec)
            dets = [det_gauss_slow(p_diff), *map(det_gauss_slow, b)]
            assert dets == [gdet._det3(flat(p_diff)), *(gdet._det4(flat(x)) for x in b)]
            assert sum(vec) * prod(dets) == n
        assert cases == set(WitnessCase)

    @given(degenerate_matrices(3, 4))
    @settings(max_examples=300)
    def test_cofactor_expansions_against_rational_elimination(self, rows):
        expand = gdet._det3 if len(rows) == 3 else gdet._det4
        assert expand(flat(rows)) == det_gauss_slow(rows)

    @pytest.mark.parametrize("n", [3, 4])
    def test_cofactor_expansions_are_the_leibniz_formula(self, n):
        # on n*n free variables, so the expansion holds for every matrix
        x = Poly.variables(n * n)
        rows = [x[i:i + n] for i in range(0, n * n, n)]
        expand = gdet._det3 if n == 3 else gdet._det4
        assert expand(tuple(x)) == leibniz(rows)

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
        # then every row of the quotient block P sums to sum(a), which it
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
        # accepted; every gather reads a plain tuple: of the differences, or
        # of one signed sum over V at the coset representatives
        seen = Counter()
        for name in ("_READ", "_P_BODY", "_P_HEAD", "_B_PM", "_B_MP", "_B_MM"):
            gather = getattr(gdet, name)
            monkeypatch.setattr(gdet, name,
                                lambda a, gather=gather: seen.update([type(a)]) or gather(a))
        rng = random.Random("coeffvec16")
        for _ in range(20):
            a = tuple(rng.randint(-10**6, 10**6) for _ in range(16))
            assert (det16_direct(CoeffVec16(a)) == det16_direct(iter(a))
                    == det16_direct(a) == det16_factored(a))
        # 20 misses, each with one read of the differences, two gathers for
        # P' and one for each 4x4 block
        assert seen == Counter({tuple: 20 * 6})

    def test_gathered_blocks_are_the_coset_blocks_of_the_group_matrix(self, monkeypatch):
        # on free variables, so every entry names the coefficients it adds
        # and subtracts: through the kernel, which checks no entry and
        # gathers from the entries themselves
        x = Poly.variables(16)
        splits = klein_split(x)
        for m in splits:
            n = len(m) // 2
            assert all(e == 0 for row in m[n:] for e in row[:n])
        # the quotient block P is a group matrix: every row sums to S
        p = [row[:4] for row in splits[1][:4]]
        assert all(sum(row) == sum(x) for row in p)
        a = tuple(random.Random("split").randint(-9, 9) for _ in range(16))
        p_diff, *b = klein_blocks(a)
        assert (sum(a) * det_gauss_slow(p_diff) * prod(map(det_gauss_slow, b))
                == det_gauss_slow(group_matrix(a)))
        seen = []
        monkeypatch.setattr(gdet, "_det3", lambda m: seen.append(m) or 1)
        monkeypatch.setattr(gdet, "_det4", lambda m: seen.append(m) or 1)
        assert gdet._direct(x) == sum(x)
        assert seen == list(map(flat, klein_blocks(x)))

    def test_a_singular_quotient_block_skips_t(self, monkeypatch, fresh_det_n):
        # every coset of V in (1, 1, 0, 0) * 4 sums to 2, so every entry of
        # P is 2 and P' is 0 while S = 8: no 4x4 block is gathered
        a = (1, 1, 0, 0) * 4
        p_diff, *_ = klein_blocks(a)
        assert sum(a) == 8 and not any(map(any, p_diff))

        def refuse(v):
            raise AssertionError("a 4x4 block was gathered")

        for name in ("_B_PM", "_B_MP", "_B_MM"):
            monkeypatch.setattr(gdet, name, refuse)
        assert det16_direct(a) == det_gauss_slow(group_matrix(a)) == 0

    @pytest.mark.parametrize("entry", [2.5, 2.0, True, Fraction(5, 2)], ids=repr)
    def test_direct_rejects_entries_that_are_not_ints(self, entry):
        # the route is exact only on ints: unchecked, (2.5, 1, ..., 1) would
        # give a float
        a = (entry,) + (1,) * 15
        with pytest.raises(TypeError, match="must be exact integers"):
            det16_direct(a)


ROUTES = (det16_direct, det16_factored, det16_spectral)


class TestKernels:
    """Each public route gates its argument through CoeffVec16, then runs its kernel."""

    @pytest.mark.parametrize("bound", [1, 9, 1000])
    def test_the_direct_kernel_is_det16_direct(self, bound):
        # the kernel reads a itself, unmemoised; det16_direct reads the
        # differences a - a[0] through the memo.  Bound 1 often sums to 0.
        rng = random.Random(f"direct kernel {bound}")
        for _ in range(1000):
            a = tuple(rng.randint(-bound, bound) for _ in range(16))
            m = rng.choice((-1, 1)) * rng.randint(1, 2**40)
            shifted = tuple(x + m for x in a)
            assert gdet._direct(a) == det16_direct(a), a
            assert gdet._direct(shifted) == det16_direct(shifted), (a, m)

    @pytest.mark.parametrize("route", [*ROUTES, CoeffVec16], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("entry", [0.5, True, "1"], ids=repr)
    def test_a_public_route_refuses_an_entry_that_is_not_an_int(self, route, entry):
        # unchecked, (0.5, 0, ..., 0) gives 2**-16 through the factored and
        # spectral routes, a bool counts as 1 and a str fails in an addition;
        # the entries are checked before the length
        message = f"^coefficients must be exact integers, got {re.escape(repr(entry))}$"
        for a in ((entry,) + (0,) * 15, (entry,) * 17):
            with pytest.raises(TypeError, match=message):
                route(a)

    @pytest.mark.parametrize("route", ROUTES, ids=lambda f: f.__name__)
    def test_a_public_route_reads_a_one_shot_iterator(self, route):
        rng = random.Random(f"iterator {route.__name__}")
        for bound in (1, 9, 10**6):
            a = tuple(rng.randint(-bound, bound) for _ in range(16))
            assert route(iter(a)) == route(a) == route(CoeffVec16(a)), a


class TestDirectMemo:
    """det M / S is memoised on the differences a - a[0]."""

    @staticmethod
    def count_expansions(monkeypatch):
        # the order of each block whose determinant is expanded
        calls = []
        for name, order in (("_det3", 3), ("_det4", 4)):
            expand = getattr(gdet, name)
            monkeypatch.setattr(gdet, name, lambda m, expand=expand, order=order:
                                calls.append(order) or expand(m))
        return calls

    def test_a_one_parameter_family_is_evaluated_once(self, monkeypatch, fresh_det_n):
        # m * (1, ..., 1) plus one correction row: every witness has one d
        calls = self.count_expansions(monkeypatch)
        for m in range(-500, 501):
            _, cls = witness(16 * m + 1)
            assert plan(cls).case is WitnessCase.ODD_16M_PLUS_1
        assert fresh_det_n.cache_info().misses == 1
        assert calls == [3, 4, 4, 4]

    def test_each_pow2_16_case_is_evaluated_once(self, monkeypatch, fresh_det_n):
        calls = self.count_expansions(monkeypatch)
        cases = {plan(witness(65536 * m)[1]).case for m in range(-60, 61) if m}
        assert cases == {WitnessCase.POW2_16_4M_PLUS_1, WitnessCase.POW2_16_4M_MINUS_1,
                         WitnessCase.POW2_16_EVEN}
        assert fresh_det_n.cache_info().misses == 3
        assert calls == [3, 4, 4, 4] * 3

    @given(coeffs, st.integers(-10**12, 10**12))
    def test_a_common_offset_moves_only_the_sum(self, a, c):
        # det M = sum(a) * det P' * det B+- * det B-+ * det B--, and no block
        # sees the offset
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

    # One tuple per piece i of factored_pieces that makes piece i, and no
    # other, 0, and one tuple with no zero piece (key None); none has a
    # piece of +-1, so a factor left out of the product changes it.  Found
    # by a seeded search over entries -2..3; the test checks the pattern.
    ONE_ZERO_PIECE = {
        None: (3, 3, -1, -1, 3, -1, 1, 0, -2, 0, 1, -1, -1, 0, -2, 0),
        0: (-2, -1, 1, 0, -1, 3, 0, 0, 1, 2, 1, 2, 3, 2, 3, -2),
        1: (-1, 1, -2, 1, -2, 3, -1, 3, -2, 1, 1, -2, -2, 0, 1, 1),
        2: (1, 2, 3, -1, -1, -1, 2, -1, 3, 2, 0, 2, 2, -1, 0, 2),
        3: (-2, 3, -2, 1, 0, -1, -1, 3, 2, -1, 3, 1, -2, -1, 1, 0),
        4: (-1, -2, 1, 0, -1, 1, 2, -1, 2, 1, 1, 3, 3, 0, 1, 0),
        5: (-1, 3, -2, 3, 1, 0, 2, 1, -1, 1, -1, -2, 0, 2, -2, -2),
        6: (1, -2, -1, 0, -1, 0, -1, 1, -2, 0, -1, 1, 1, -1, 0, -1),
        7: (3, -2, -2, 2, 2, 1, -2, -1, 3, 2, 0, 0, 1, 3, 1, -1),
        8: (-1, 0, 3, -1, -1, -1, -2, 2, 2, 2, 3, 3, 2, 1, -1, 1),
        9: (3, 2, 0, 0, 0, 1, -1, 0, 0, -2, 1, -1, -1, 3, 1, -2),
    }

    @staticmethod
    def check_frames(a):
        # the zero exit too must return the int 0, not False or 0.0
        value = det16_factored(a)
        assert type(value) is int
        assert value == prod(factored_pieces(a)) == det16_spectral(a), a

    def test_the_frame_is_the_product_of_the_pieces_on_hand_built_tuples(self):
        # pieces 0, 1, 3 and 4 are the linear pieces that take the zero exit;
        # 2, 5 and 6-9 are the sums of two squares, reached past it
        for zero, a in self.ONE_ZERO_PIECE.items():
            pieces = factored_pieces(a)
            assert [i for i, x in enumerate(pieces) if x == 0] == ([] if zero is None else [zero])
            assert all(abs(x) != 1 for x in pieces)
            self.check_frames(a)

    @given(st.one_of(coeffs, st.tuples(*[st.integers(-1, 1)] * 16)))
    def test_the_frame_is_the_product_of_the_pieces_on_bounded_ints(self, a):
        self.check_frames(a)

    def test_the_frame_is_the_product_of_the_pieces_at_large_entries(self):
        """Seeded tuples with entries in [-2^40, 2^40] pin the non-exit path.

        Past the exit, det16_factored returns a polynomial F in the 16
        entries and prod(factored_pieces) another, G, of total degree 16.
        Expanding them is out of reach, but if F != G and F too has degree
        at most 16, then F - G is a nonzero polynomial of degree at most 16,
        and by the Schwartz-Zippel
        lemma a tuple drawn uniformly from S^16, |S| = 2^41 + 1, is a root
        of it with probability at most 16 / |S| < 2^-37.  The exit itself
        is taken with probability at most 4 / |S|, since lin has degree 4.
        So each sample alone would show a wrong frame, bar odds below
        2^-36, and all 300 fail to show it with probability below 2^-10800.
        """
        rng = random.Random("factored frames at 2^40")
        for _ in range(300):
            self.check_frames(tuple(rng.randint(-2**40, 2**40) for _ in range(16)))

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


def packed_assignments(code):
    """Where code, or code nested in it, builds a tuple only to unpack it.

    CPython compiles an assignment of four or more new values to as many
    names into BUILD_TUPLE followed at once by UNPACK_SEQUENCE; two or three
    names compile to plain stores.  Returns (function name, offset) pairs.
    """
    ops = list(dis.get_instructions(code))
    found = [(code.co_name, op.offset) for op, after in zip(ops, ops[1:])
             if op.opname == "BUILD_TUPLE" and after.opname == "UNPACK_SEQUENCE"]
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            found += packed_assignments(const)
    return found


class TestNoTuplePacking:
    """No function in gdet builds a throwaway tuple to bind four names at once."""

    @staticmethod
    def functions():
        # _det_n, the lru_cache wrapper of _blocks, is not a function
        return [f for f in vars(gdet).values()
                if isinstance(f, types.FunctionType) and f.__module__ == gdet.__name__]

    def test_no_function_in_gdet_packs_a_tuple_to_unpack_it(self):
        functions = self.functions()
        assert {f.__name__ for f in functions} >= {
            "_blocks", "_direct", "_factored", "_spectral", "det16_direct",
            "det16_factored", "det16_spectral", "factored_pieces", "spectral_factors"}
        assert [hit for f in functions for hit in packed_assignments(f.__code__)] == []

    def test_a_four_name_assignment_is_flagged(self):
        def four(a, b):
            w, x, y, z = a + b, a - b, b - a, a * b
            return w * x * y * z

        def pairs(a, b):
            w, x = a + b, a - b
            y, z = b - a, a * b
            return w * x * y * z

        assert len(packed_assignments(four.__code__)) == 1
        assert packed_assignments(pairs.__code__) == []


# One value near the envelope per witness case, so the re-checked vectors
# have large entries.
CASE_VALUES = (
    -999999999999, -999999999719, -999999999687, 999999999625, -999999999575,
    -999999999271, -999999998855, -999999997399, 999999996905, 999999995904,
    -999999995904, 999999930368, 999999897600, -999999897600,
)


# z = (2, 0) is flat 2 and w = (0, 2) is flat 8: g*z = (r + 2, s) and
# g*w = (r, s + 2).
TIMES_Z = [(g + 2) % 4 + 4 * (g // 4) for g in range(16)]
TIMES_W = [g % 4 + 4 * ((g // 4 + 2) % 4) for g in range(16)]


def coset_split(m, labels, times):
    """m split over an element t of order 2, and the representatives used.

    The rows and columns of m are labelled by the group elements in
    labels, and times[g] is g*t.  For each representative h (and g), the
    smaller of each coset {g, g*t}, column h*t is added into column h and
    row g is subtracted from row g*t; then the representatives go first,
    rows and columns alike.  The steps are unimodular, so the determinant
    is unchanged.
    """
    pos = {g: i for i, g in enumerate(labels)}
    reps = [g for g in labels if g < times[g]]
    m = [list(row) for row in m]
    for h in reps:
        for row in m:
            row[pos[h]] = row[pos[h]] + row[pos[times[h]]]
    for g in reps:
        m[pos[times[g]]] = [x - y for x, y in zip(m[pos[times[g]]], m[pos[g]])]
    order = [pos[g] for g in reps] + [pos[times[g]] for g in reps]
    return [[m[i][j] for j in order] for i in order], reps


def klein_split(a):
    """group_matrix(a) split over z into [[Q, X], [0, T]], then Q and T over w.

    Q and T are labelled by the representatives of {e, z}, and each splits
    into [[A + B, B], [0, A - B]]: the quotient block P and B+- from Q,
    B-+ and B-- from T.
    """
    m, reps = coset_split(group_matrix(a), range(16), TIMES_Z)
    q, t = [row[:8] for row in m[:8]], [row[8:] for row in m[8:]]
    return [m] + [coset_split(half, reps, TIMES_W)[0] for half in (q, t)]


def klein_blocks(a):
    """P', B+-, B-+ and B-- of klein_split(a): P'[i][j] = P[i][j] - P[0][j], 1 <= i, j <= 3."""
    _, q, t = klein_split(a)
    p, b_pm = [row[:4] for row in q[:4]], [row[4:] for row in q[4:]]
    b_mp, b_mm = [row[:4] for row in t[:4]], [row[4:] for row in t[4:]]
    p_diff = [[x - y for x, y in zip(row[1:], p[0][1:])] for row in p[1:]]
    return p_diff, b_pm, b_mp, b_mm


def flat(rows):
    """A matrix row by row as one tuple, as _det3 and _det4 take it."""
    return tuple(e for row in rows for e in row)


def leibniz(rows):
    """The determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total = total + (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total
