import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import a_decompose_walk, brute_set_a_member

from c4x4det import classifier, numtheory
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
from c4x4det.numtheory import factorize, is_in_P, is_prime, signed_divisors_1mod8
from c4x4det.verification import scan_random

PRIMES_MOD_8 = {r: [p for p in range(3, 200) if p % 8 == r and is_prime(p)] for r in (1, 3, 5, 7)}


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

    def test_int_subclass(self):
        # an int subclass passes the type check and classifies as its value
        class N(int):
            pass

        assert classify(N(17), envelope=None) == classify(17)
        with pytest.raises(EnvelopeExceededError):
            classify(N(10**13))

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
        # the least divisor e == 7|c| (mod 8) of the cofactor is composite:
        # e = 989 = 23 * 43 here, and e = 1253 = 7 * 179 below
        assert a_decompose(-809264000935) == OddA(-9096, 124, 5, 13, 173)
        assert a_decompose(-984503745575) == OddA(-1, 157, 5, 5, 4489813)

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
        # the type is checked before the residue: 17.0 and True are not 9 mod 16
        for value in (-375.0, 17.0, True):
            with pytest.raises(TypeError):
                a_decompose(value)

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

    @pytest.mark.parametrize(
        "n, e",
        [
            # e a single prime, below the pair where there is one: e == 3 (mod 8)
            # when c > 0, and e == 5 (mod 8) when c < 0, a prime beyond the triple
            (5**3 * (3 * 5 * 5 * 7), 3),
            (5**3 * -(3 * 3 * 5 * 31), 5),
            (5**3 * (3 * 31), 3),
            (-7057735655, 613),  # c = -(271 * 613), triple 5, 29, 293
            # e the pair, below every single prime of its class, or with none
            (5**3 * (5 * 5 * 7 * 67), 5 * 7),
            (5**3 * -(3 * 3 * 7 * 29), 3 * 7),
            (5**3 * (5 * 7 * 31), 5 * 7),
            (-809264000935, 23 * 43),  # c = -(23 * 43 * 72767)
            (-984503745575, 7 * 179),  # c = -(7 * 7 * 179)
            # no e, so d == 1
            (5**3 * 13, None),
            (5**3 * -3, None),
            (-7078317303, None),  # c = -3, triple 29, 4933, 16493
        ],
        ids=["single-c>0", "single-c<0-fourth-p", "single-alone", "single-613",
             "pair-c>0", "pair-c<0", "pair-alone", "pair-23*43", "pair-7*179",
             "none-c>0", "none-c<0", "none-7078317303"],
    )
    def test_closed_form_divisor(self, n, e):
        # the certificate's d is -|c|/e for the least divisor e == 7|c| (mod 8)
        # of |c|, or 1 when there is none
        cert = a_decompose(n)
        assert cert == a_decompose_walk(n)
        # classify stops reading primes once e is fixed, or reads them all
        classifier._classify_unbounded.cache_clear()
        assert classify(n) == cert
        c = n // (cert.p1 * cert.p2 * cert.p3)
        assert 8 * cert.j + 1 == (1 if e is None else -(abs(c) // e))

    @given(
        st.lists(st.sampled_from(PRIMES_MOD_8[5]), min_size=3, max_size=5),
        st.lists(st.sampled_from(PRIMES_MOD_8[1]), max_size=2),
        st.lists(st.sampled_from(PRIMES_MOD_8[3]), max_size=3),
        st.lists(st.sampled_from(PRIMES_MOD_8[7]), max_size=3),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=300)
    def test_closed_form_matches_the_walk(self, fives, ones, threes, sevens, sign):
        n = sign * prod(fives + ones + threes + sevens)
        # one more factor of 1, 3, 5, 7, 11, 13, 15 or 9 mod 16 makes n 9 mod 16
        n *= next(q for q in (1, 3, 5, 7, 11, 13, 31, 41) if n * q % 16 == 9)
        assert a_decompose(n, envelope=None) == a_decompose_walk(n), n

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

    @pytest.mark.parametrize("cert, n", [(OddA(0, 0, 5.0, 5, 5), -375), (Even15(5.0, 1), 163840)],
                             ids=["odd-a", "even15"])
    def test_rejects_a_float_prime(self, cert, n):
        # both used to pass: 5.0 reconstructs n and passed as a prime 5 mod 8
        with pytest.raises(TypeError, match="^expected an exact integer, got 5.0$"):
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
        assert a_decompose(-375) is first
        assert calls == [-375]

    def test_a_decompose_returns_only_a_validated_certificate(self, monkeypatch):
        # -375 is OddA(0, 0, 5, 5, 5); the patched certificate rebuilds -975
        wrong = OddA(0, 0, 5, 5, 13)
        monkeypatch.setattr(classifier, "_a_certificate", lambda n, powers, read: wrong)
        classifier._classify_unbounded.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(InternalMismatchError, match="reconstructs -975, not -375$"):
                    a_decompose(-375)
        finally:
            classifier._classify_unbounded.cache_clear()


@pytest.fixture
def merged_primes(monkeypatch):
    """Factor as if 11069 * 11093 (both 5 mod 8) were one prime (1 mod 8)."""
    real = classifier._prime_powers

    def merged(n):
        exps = dict(real(n))
        if exps.get(11069) == exps.get(11093) == 1:
            del exps[11069], exps[11093]
            exps[11069 * 11093] = 1
        yield from sorted(exps.items())

    monkeypatch.setattr(classifier, "_prime_powers", merged)
    classifier._classify_unbounded.cache_clear()
    yield
    classifier._classify_unbounded.cache_clear()


class TestRejectionCheck:
    @pytest.mark.parametrize("n, right", [
        (3069710425, OddA(0, 1387, 5, 5, 11069)),  # 5**2 * 11069 * 11093
        (2**15 * 11069 * 11093, Even15(11069, 11093)),
    ], ids=["odd-a", "even15"])
    def test_merged_primes_raise(self, n, right, merged_primes, monkeypatch):
        # the merged factorization leaves too few primes 5 mod 8, so the cold
        # decision rejects; the check finds the composite "prime" instead
        for _ in range(2):
            with pytest.raises(InternalMismatchError, match="not prime"):
                classify(n, envelope=None)
            assert classifier._classify_unbounded.cache_info().currsize == 0
        monkeypatch.undo()
        assert classify(n, envelope=None) == right

    def test_a_decompose_re_checks_its_rejection(self, merged_primes):
        # a_decompose reads classify's cache, so its None is checked too
        with pytest.raises(InternalMismatchError, match="not prime"):
            a_decompose(3069710425, envelope=None)

    def test_each_condition(self):
        n = 3069710425
        whole = [(5, 2), (11069, 1), (11093, 1)]
        classifier._check_rejection(n, whole, 4)
        classifier._check_rejection(-n, whole, 4)
        cases = [
            ([(5, 2), (11069, 1)], 4, "multiply back"),
            ([(5, 2), (11069 * 11093, 1)], 4, "not prime"),
            (whole, 3, "more than 3"),
        ]
        for pairs, most, message in cases:
            with pytest.raises(InternalMismatchError, match=message):
                classifier._check_rejection(n, pairs, most)


def classify_on_the_whole_factorization(n: int):
    """What classify must return for n, read off the complete factorization."""
    if n % 16 == 9:
        cert = classifier._a_certificate(n, factorize(n, envelope=None).factors, [])
        return cert or NotInS(Reason.ODD_A_NO_DECOMPOSITION)
    if n % 2:
        return OddOne((n - 1) // 16) if n % 16 == 1 else NotInS(Reason.ODD_BAD_RESIDUE)
    if n == 0 or v2(n) >= 16:
        return Even16(n // 2**16)
    if v2(n) < 15:
        return NotInS(Reason.EVEN_BAD_VALUATION)
    odd = n >> 15
    p = next((p for p, _e in factorize(odd, envelope=None).factors if p % 8 == 5), None)
    return NotInS(Reason.EVEN15_NO_PRIME_IN_P) if p is None else Even15(p, odd // p)


P_BELOW_2000 = [p for p in range(5, 2000, 8) if is_prime(p)]
P_BELOW_30000 = [p for p in range(5, 30000, 8) if is_prime(p)]


def stop_rule_values(source: str, rng) -> list:
    """Seeded determinants at one coefficient bound, or values drawn as in one
    witness_mix stratum of the benchmark (set A and 2^15 with small primes 5 mod 8)."""
    if source.startswith("bound-"):
        bound = int(source[len("bound-"):])
        return [det16_direct([rng.randint(-bound, bound) for _ in range(16)]) for _ in range(400)]
    values = []
    for _ in range(400):
        if source == "odd_16m_plus_1":
            n = 16 * rng.randint(-(10**12 // 16), 10**12 // 16) + 1
        elif source == "set_a":
            p1, p2, p3 = (rng.choice(P_BELOW_2000) for _ in range(3))
            n = (8 * rng.randint(-500, 500) + 1) * (8 * rng.randint(-500, 500) - 3) * p1 * p2 * p3
            n = n if n % 16 == 9 else 9 * n  # 9 * (8j+1) is 8j'+1 with the other parity
        elif source == "pow2_15":
            n = 2**15 * rng.choice(P_BELOW_30000) * (2 * rng.randint(-500, 500) + 1)
        elif source == "pow2_16":
            n = 2**16 * rng.randint(-(10**12 >> 16), 10**12 >> 16)
        else:
            n = rng.randint(-(10**12), 10**12)
        values.append(n)
    return values


# primes above 2**40: a cofactor holding two of them is out of reach of trial
# division, so its split needs rho
BIG_P = (1099511627791, 1099511627803, 1099511627831, 1099511627873)


class TestStopRule:
    """classify reads the ascending primes only until the certificate is fixed."""

    @pytest.mark.parametrize(
        "source",
        ["bound-9", "bound-1000", "odd_16m_plus_1", "set_a", "pow2_15", "pow2_16", "uniform"],
    )
    def test_classify_matches_the_whole_factorization(self, source):
        rng = random.Random(source)
        values = stop_rule_values(source, rng)
        classifier._classify_unbounded.cache_clear()
        for n in values:
            assert classify(n, envelope=None) == classify_on_the_whole_factorization(n), n

    @pytest.fixture
    def no_rho(self, monkeypatch):
        def refused(n):
            raise AssertionError(f"rho asked to split {n}")

        monkeypatch.setattr(numtheory, "_brent_rho", refused)
        classifier._classify_unbounded.cache_clear()
        yield
        classifier._classify_unbounded.cache_clear()

    @pytest.mark.parametrize(
        "small, big, e",
        [
            (3 * 5 * 13 * 29, (BIG_P[0], BIG_P[3]), 3),  # r = 3, read before the triple
            (-(5 * 13 * 29 * 37), (BIG_P[2], BIG_P[3]), 37),  # r = 5, a fourth prime
            (-(3 * 7 * 5 * 13 * 29 * 37), (BIG_P[1], BIG_P[3]), 3 * 7),  # the pair, below 37
        ],
        ids=["single-3", "fourth-p-37", "pair-3*7"],
    )
    def test_set_a_needs_no_rho_past_the_class_r_prime(self, small, big, e, no_rho):
        n = small * big[0] * big[1]
        assert n % 16 == 9 and all(is_prime(p) for p in big)
        c = n // (5 * 13 * 29)
        d = -(abs(c) // e)
        assert classify(n, envelope=None) == OddA((d - 1) // 8, (c // d + 3) // 8, 5, 13, 29)

    @pytest.mark.parametrize(
        "small, p",
        [(5, 5), (3 * 5, 5), (-7 * 13, 13)],
        ids=["5", "3*5", "-7*13"],
    )
    def test_even15_needs_no_rho_past_the_first_prime_5_mod_8(self, small, p, no_rho):
        odd = small * BIG_P[0] * BIG_P[1]
        assert classify(2**15 * odd, envelope=None) == Even15(p, odd // p)


class TestConsistencyWithDeterminants:
    def test_random_determinants_always_classify(self):
        rng = random.Random(2024)
        for _ in range(400):
            a = tuple(rng.randint(-9, 9) for _ in range(16))
            value = det16_direct(a)
            cls = classify(value, envelope=None)
            assert not isinstance(cls, NotInS), (a, value, cls)
