import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import a_decompose_walk, brute_set_a_member

from c4x4det import classifier
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

    @pytest.mark.parametrize("value", [17.0, -375.0, True, False])
    def test_rejects_non_integers(self, value):
        # a float or a bool used to get a certificate (17.0 -> OddOne(m=1.0))
        with pytest.raises(TypeError):
            classify(value)
        with pytest.raises(TypeError):
            classify(value, envelope=None)

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

    def test_float_rejected(self):
        # -375.0 passes the residue check; factorize then refuses it
        with pytest.raises(TypeError):
            a_decompose(-375.0)

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

    @given(
        st.lists(st.sampled_from([p for p in range(5, 400, 8) if is_in_P(p)]),
                 min_size=3, max_size=3),
        st.integers(-(10**9), 10**9).map(lambda x: 8 * x + 5),
    )
    @settings(max_examples=300)
    def test_triple_passes_iff_9_mod_16(self, triple, c):
        # the lemma behind a_decompose: at d = 1 (j = 0, k = (c+3)/8) the
        # parity test passes exactly when c*p1*p2*p3 == 9 (mod 16)
        l, m, nn = ((p + 3) // 8 for p in triple)
        passes = (0 - (c + 3) // 8 - l - m - nn) % 2 != 0
        assert passes == (c * triple[0] * triple[1] * triple[2] % 16 == 9), (triple, c)


class TestValidator:
    def test_rejects_wrong_value(self):
        with pytest.raises(InternalMismatchError, match=r"^16\*1\+1 != 18$"):
            validate_certificate(OddOne(1), 18)

    def test_rejects_bad_parity(self):
        # (8*1+1)*(8*0-3)*5*5*5 = -3375, but 1 == 0+1+1+1 (mod 2)
        with pytest.raises(InternalMismatchError, match="^parity constraint fails in "):
            validate_certificate(OddA(1, 0, 5, 5, 5), -3375)

    def test_rejects_non_p_prime(self):
        with pytest.raises(InternalMismatchError, match="^3 is not a prime 5 mod 8$"):
            validate_certificate(OddA(0, 0, 3, 5, 5), (1) * (-3) * 75)

    def test_rejects_wrong_valuation(self):
        with pytest.raises(InternalMismatchError, match="^327680 does not have 2-adic valuation 15$"):
            validate_certificate(Even15(5, 1), 2**16 * 5)

    @pytest.mark.parametrize(
        "cert, n, message",
        [
            # the certificate of 10985 = 5 * 13**3 is OddA(0, 2, 5, 13, 13)
            (OddA(0, 2, 13, 5, 13), 10985, "^primes out of order in "),
            (OddA(0, 0, 5, 5, 5), 375, " reconstructs -375, not 375$"),
            (Even15(3, 5), 2**15 * 15, "^3 is not a prime 5 mod 8$"),
            (Even15(5, 5), 2**15 * 15, " does not reconstruct 491520$"),
            # an even cofactor puts a 16th factor 2 into the product
            (Even15(5, 2), 2**15 * 5, " does not reconstruct 163840$"),
            (Even16(2), 2**16 * 3, r"^2\*\*16\*2 != 196608$"),
            (NotInS(Reason.ODD_BAD_RESIDUE), 3, "^cannot validate NotInS"),
        ],
        ids=["odd-a-order", "odd-a-value", "even15-prime", "even15-value",
             "even15-even-cofactor", "even16-value", "not-in-s"],
    )
    def test_rejects_each_bad_certificate(self, cert, n, message):
        with pytest.raises(InternalMismatchError, match=message):
            validate_certificate(cert, n)


class TestValidateOnce:
    def test_failing_certificate_raises_on_every_call_and_is_not_cached(self, monkeypatch):
        # 33 == 16*2 + 1, but the cold decision claims m == 1
        monkeypatch.setattr(classifier, "_decide", lambda n: OddOne(1))
        classifier._classify_unbounded.cache_clear()
        for _ in range(2):
            with pytest.raises(InternalMismatchError):
                classify(33)
            assert classifier._classify_unbounded.cache_info().currsize == 0

    def test_each_distinct_value_is_validated_once(self, monkeypatch):
        calls = []
        real = classifier.validate_certificate

        def counted(cls, n):
            calls.append(n)
            return real(cls, n)

        monkeypatch.setattr(classifier, "validate_certificate", counted)
        classifier._classify_unbounded.cache_clear()
        first = classify(-375)
        assert first == OddA(0, 0, 5, 5, 5)
        assert all(classify(-375) is first for _ in range(50))
        assert all(classify(-375, envelope=None) is first for _ in range(50))
        assert calls == [-375]


class TestConsistencyWithDeterminants:
    def test_random_determinants_always_classify(self):
        rng = random.Random(2024)
        for _ in range(400):
            a = tuple(rng.randint(-9, 9) for _ in range(16))
            value = det16_direct(a)
            cls = classify(value, envelope=None)
            assert not isinstance(cls, NotInS), (a, value, cls)
