import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4x4det import numtheory
from c4x4det.errors import EnvelopeExceededError, InternalMismatchError, PreconditionError
from c4x4det.numtheory import (
    ENVELOPE,
    Factorization,
    factorize,
    is_in_P,
    is_prime,
    signed_divisors_1mod8,
    two_squares_2p,
    two_squares_all,
    two_squares_prime_5mod8,
)


def primes_in_P_below(limit):
    return [p for p in range(5, limit, 8) if is_prime(p)]


class TestPrimality:
    def test_small_values(self):
        expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        assert {n for n in range(50) if is_prime(n)} == expected

    def test_negative_and_trivial(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not is_prime(n)

    def test_large_prime_pair(self):
        # 10^12 +- a twin prime pair around the envelope
        assert is_prime(999999999989)
        assert not is_prime(999999999989 * 999999999989)


class TestFactorize:
    def test_examples(self):
        assert factorize(5625) == Factorization(1, ((3, 2), (5, 4)))
        assert factorize(-375) == Factorization(-1, ((3, 1), (5, 3)))
        assert factorize(2**15 * 13) == Factorization(1, ((2, 15), (13, 1)))

    def test_zero_and_units(self):
        assert factorize(0) == Factorization(0, ())
        assert factorize(1) == Factorization(1, ())
        assert factorize(-1) == Factorization(-1, ())

    def test_envelope(self):
        with pytest.raises(EnvelopeExceededError):
            factorize(ENVELOPE + 1)
        factorize(ENVELOPE + 1, envelope=None)  # lifted cap succeeds

    def test_semiprime_beyond_trial_bound(self):
        p, q = 1000003, 999999000001
        assert q == factorize(q).factors[0][0]  # q is prime
        fac = factorize(p * q, envelope=None)
        assert fac.factors == ((p, 1), (q, 1))

    @given(st.integers(-(10**9), 10**9))
    @settings(max_examples=300)
    def test_roundtrip(self, n):
        fac = factorize(n)
        assert fac.value() == n
        primes = [p for p, _ in fac.factors]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        assert all(is_prime(p) for p in primes)

    def test_roundtrip_bulk_random(self):
        rng = random.Random(99)
        for _ in range(100_000):
            n = rng.randint(-(10**12), 10**12)
            assert factorize(n).value() == n


class TestMembershipInP:
    def test_examples(self):
        assert is_in_P(5)
        assert is_in_P(13)
        assert not is_in_P(3)
        assert not is_in_P(25)
        assert not is_in_P(-5)
        assert not is_in_P(17)  # prime but 1 mod 8

    def test_matches_direct_definition_below_1000(self):
        for p in range(1000):
            assert is_in_P(p) == (is_prime(p) and p % 8 == 5)


class TestSignedDivisors:
    def test_examples(self):
        assert signed_divisors_1mod8(13) == [1]
        assert signed_divisors_1mod8(-3) == [1]
        assert signed_divisors_1mod8(9) == [1, 9]
        assert signed_divisors_1mod8(45) == [-15, 1, 9]

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            signed_divisors_1mod8(0)

    @given(st.integers(-50_000, 50_000).filter(lambda c: c != 0))
    @settings(max_examples=200)
    def test_against_exhaustive_enumeration(self, c):
        expected = sorted(
            d
            for d in range(-abs(c), abs(c) + 1)
            if d != 0 and c % d == 0 and d % 8 == 1
        )
        assert signed_divisors_1mod8(c) == expected


class TestTwoSquares:
    def test_constrained_prime_examples(self):
        assert tuple(two_squares_prime_5mod8(5))[:2] == (1, 2)
        assert tuple(two_squares_prime_5mod8(13))[:2] == (3, 2)
        assert tuple(two_squares_prime_5mod8(29))[:2] == (-5, 2)
        assert tuple(two_squares_prime_5mod8(37))[:2] == (1, -6)

    def test_doubled_prime_examples(self):
        assert tuple(two_squares_2p(5))[:2] == (3, 1)
        assert tuple(two_squares_2p(13))[:2] == (-5, 1)
        assert tuple(two_squares_2p(29))[:2] == (3, -7)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            two_squares_prime_5mod8(7)
        with pytest.raises(PreconditionError):
            two_squares_2p(25)

    def test_residues_for_all_small_primes(self):
        for p in primes_in_P_below(100_000):
            x, y, target = two_squares_prime_5mod8(p)
            assert x * x + y * y == target == p
            assert y % 8 == 2
            assert x % 8 == (1 if p % 16 == 5 else 3)
            x2, y2, target2 = two_squares_2p(p)
            assert x2 * x2 + y2 * y2 == target2 == 2 * p
            assert x2 % 8 == 3 and y2 % 8 == 1

    def test_fast_path_agrees_with_brute_force(self):
        # primes large enough to take the descent path instead of brute force
        rng = random.Random(5)
        checked = 0
        while checked < 20:
            p = rng.randint(10**6, 10**8) | 1
            if not is_in_P(p):
                continue
            x, y, _ = two_squares_prime_5mod8(p)
            unordered = {(abs(x), abs(y)), (abs(y), abs(x))}
            brute = set(two_squares_all(p))
            assert brute & unordered
            checked += 1

    def test_two_square_cofactor_exists(self):
        # any sum of two squares that is 5 mod 8 splits off a 5-mod-8 prime
        # with odd multiplicity, leaving a 1-mod-8 cofactor
        rng = random.Random(17)
        for _ in range(10_000):
            a = 2 * rng.randint(-300, 300) + 1
            b = 4 * rng.randint(-150, 150) + 2
            n = a * a + b * b
            assert n % 8 == 5
            fac = factorize(n, envelope=None)
            odd_p = [p for p, e in fac.factors if p % 8 == 5 and e % 2 == 1]
            assert odd_p, (a, b, n, fac)
            p = odd_p[0]
            cofactor = n // p
            assert cofactor % 8 == 1


class TestRepresentationChecks:
    """A bad pair from a representation helper raises, also under ``python -O``."""

    def test_descent_rejects_bad_root(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_sqrt_minus_one_mod", lambda p: 1)
        with pytest.raises(InternalMismatchError):
            numtheory._two_squares_prime(13)

    def test_prime_rep_rejects_bad_pair(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_rep_for_prime", lambda p: (5, 2))
        with pytest.raises(InternalMismatchError):
            two_squares_prime_5mod8(13)

    def test_doubled_rep_rejects_bad_pair(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_rep_for_prime", lambda p: (3, 2))
        with pytest.raises(InternalMismatchError):
            two_squares_2p(5)
