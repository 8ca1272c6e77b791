import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import a_decompose_walk, brute_set_a_member

from c4x4det.classifier import (
    Even15,
    Even16,
    NotInS,
    OddA,
    OddOne,
    Reason,
    a_decompose,
    classify,
    v2,
    validate_certificate,
)
from c4x4det.errors import EnvelopeExceededError, InternalMismatchError, PreconditionError
from c4x4det.gdet import det16_direct
from c4x4det.numtheory import is_in_P, signed_divisors_1mod8
from c4x4det.verification import scan_random


class TestValuation:
    def test_values(self):
        assert v2(1) == 0
        assert v2(-48) == 4
        assert v2(2**15) == 15

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            v2(0)


class TestClassify:
    def test_odd_one(self):
        assert classify(17) == OddOne(1)
        assert classify(1) == OddOne(0)
        assert classify(-15) == OddOne(-1)

    def test_odd_a_members(self):
        assert classify(-375) == OddA(0, 0, 5, 5, 5)
        assert classify(1625) == OddA(0, 2, 5, 5, 5)

    def test_odd_rejections(self):
        assert classify(9) == NotInS(Reason.ODD_A_NO_DECOMPOSITION)
        assert classify(-7) == NotInS(Reason.ODD_A_NO_DECOMPOSITION)
        assert classify(3) == NotInS(Reason.ODD_BAD_RESIDUE)
        assert classify(-1) == NotInS(Reason.ODD_BAD_RESIDUE)

    def test_even_families(self):
        assert classify(2**15 * 5) == Even15(5, 1)
        assert classify(-(2**15) * 5 * 21) == Even15(5, -21)
        assert classify(2**16) == Even16(1)
        assert classify(0) == Even16(0)
        assert classify(-(2**20)) == Even16(-16)

    def test_even_rejections(self):
        assert classify(2**14) == NotInS(Reason.EVEN_BAD_VALUATION)
        assert classify(2) == NotInS(Reason.EVEN_BAD_VALUATION)
        assert classify(2**15 * 3) == NotInS(Reason.EVEN15_NO_PRIME_IN_P)
        assert classify(2**15 * 49) == NotInS(Reason.EVEN15_NO_PRIME_IN_P)

    def test_even15_picks_smallest_prime(self):
        assert classify(2**15 * 13 * 5) == Even15(5, 13)

    def test_envelope(self):
        big = 10**12 + 1  # 1 mod 16: attainable, one past the envelope
        with pytest.raises(EnvelopeExceededError):
            classify(big)
        assert classify(big, envelope=None) == OddOne(62500000000)
        with pytest.raises(EnvelopeExceededError):
            classify(10**13)

    def test_attainable_beyond_envelope_raises(self):
        n = 2**16 * 10**8  # attainable, but |n| > 10**12: not a rejection
        for value in (n, -n):
            with pytest.raises(EnvelopeExceededError):
                classify(value)
        assert classify(n, envelope=None) == Even16(10**8)

    def test_all_bad_odd_residues_below_1000(self):
        for n in range(-999, 1000, 2):
            cls = classify(n)
            if n % 16 in (1, 9):
                continue
            assert cls == NotInS(Reason.ODD_BAD_RESIDUE), n

    def test_envelope_scale_members(self):
        # near the top of the supported range in each family
        assert isinstance(classify(16 * (10**10) + 1), OddOne)
        assert isinstance(classify(2**15 * 5 * 999999), Even15)
        assert isinstance(classify(2**16 * 10**7), Even16)


class TestADecompose:
    def test_examples(self):
        assert a_decompose(5625) == OddA(-2, 0, 5, 5, 5)
        assert a_decompose(1625) == OddA(0, 2, 5, 5, 5)
        assert a_decompose(425) is None  # only two 5-mod-8 prime factors

    def test_certificates_reconstruct(self):
        for n in (-375, 1625, 5625, 9625, -4375):
            cert = a_decompose(n)
            if cert is not None:
                validate_certificate(cert, n)

    def test_wrong_residue_rejected(self):
        with pytest.raises(PreconditionError):
            a_decompose(17)
        with pytest.raises(PreconditionError):
            a_decompose(8)

    def test_deterministic(self):
        for n in (1625, 5625, 15625):
            assert a_decompose(n) == a_decompose(n)

    def test_matches_brute_force_small_window(self):
        for n in range(-4000, 4001):
            if n % 16 != 9:
                continue
            assert (a_decompose(n) is not None) == brute_set_a_member(n), n

    def test_matches_divisor_walk_window(self):
        for n in range(-300_000, 300_001):
            if n % 16 == 9:
                assert a_decompose(n) == a_decompose_walk(n), n

    def test_matches_divisor_walk_scan_values(self):
        values = set()
        for seed in range(20):
            values |= {v for v in scan_random(32, 9, seed).seen_values if v % 16 == 9}
        assert len(values) > 100
        for n in sorted(values):
            expected = a_decompose_walk(n)
            assert a_decompose(n, envelope=None) == expected, n
            cls = classify(n, envelope=None)
            assert cls == (expected or NotInS(Reason.ODD_A_NO_DECOMPOSITION)), n

    @given(
        st.lists(st.sampled_from([p for p in range(5, 400, 8) if is_in_P(p)]),
                 min_size=3, max_size=3),
        st.lists(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]), max_size=10),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=300)
    def test_parity_lemma(self, triple, cofactor_primes, sign):
        # c must be 5 mod 8 for k = (c/d + 3)/8 to be an integer
        c = sign
        for q in cofactor_primes:
            c *= q
        c *= {1: 5, 3: 7, 5: 1, 7: 3}[c % 8]
        l, m, nn = ((p + 3) // 8 for p in triple)
        verdicts = {
            ((d - 1) // 8 - (c // d + 3) // 8 - l - m - nn) % 2
            for d in signed_divisors_1mod8(c, envelope=None)
        }
        assert len(verdicts) == 1, (triple, c)


class TestValidator:
    def test_rejects_wrong_value(self):
        with pytest.raises(InternalMismatchError):
            validate_certificate(OddOne(1), 18)

    def test_rejects_bad_parity(self):
        # (8*1+1)*(8*0-3)*5*5*5 = -3375, but 1 == 0+1+1+1 (mod 2)
        with pytest.raises(InternalMismatchError):
            validate_certificate(OddA(1, 0, 5, 5, 5), -3375)

    def test_rejects_non_p_prime(self):
        with pytest.raises(InternalMismatchError):
            validate_certificate(OddA(0, 0, 3, 5, 5), (1) * (-3) * 75)

    def test_rejects_wrong_valuation(self):
        with pytest.raises(InternalMismatchError):
            validate_certificate(Even15(5, 1), 2**16 * 5)


class TestConsistencyWithDeterminants:
    def test_random_determinants_always_classify(self):
        rng = random.Random(2024)
        for _ in range(400):
            a = tuple(rng.randint(-9, 9) for _ in range(16))
            value = det16_direct(a)
            cls = classify(value, envelope=None)
            assert not isinstance(cls, NotInS), (a, value, cls)
