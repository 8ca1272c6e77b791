import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4x4det import classifier, numtheory
from c4x4det.errors import EnvelopeExceededError, InternalMismatchError, PreconditionError
from c4x4det.numtheory import (
    ENVELOPE,
    Factorization,
    factorize,
    is_in_P,
    is_prime,
    signed_divisors_1mod8,
    two_squares_2p,
    two_squares_prime_5mod8,
)
from c4x4det.verification import scan_random
from oracles import (
    factor_unsigned_loop,
    is_prime_extended_bases,
    is_prime_trial,
    strong_probable_prime,
    two_squares_all,
)


def factored_value(fac) -> int:
    """sign * prod(p**e): the integer a Factorization stands for."""
    return fac.sign * prod(p**e for p, e in fac.factors)


# the least n that no proven Miller-Rabin base set covers; is_prime runs BPSW from here
BPSW_FROM = 3_317_044_064_679_887_385_961_981

# psi_1..psi_13 of OEIS A014233, with psi_7 == psi_8 and psi_9 == psi_10 == psi_11
PSI = [
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    BPSW_FROM,
]


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

    @pytest.mark.parametrize("value", [13.0, 5.0, 41.0, True])
    def test_rejects_non_integers(self, value):
        # is_prime(13.0) and is_in_P(5.0) used to return True, and is_prime(41.0)
        # failed inside the Miller-Rabin step
        with pytest.raises(TypeError, match="^expected an exact integer, got "):
            is_prime(value)
        with pytest.raises(TypeError, match="^expected an exact integer, got "):
            is_in_P(value)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not is_prime(n)

    def test_rejects_the_pseudoprimes_behind_each_base_tier(self):
        # psi_k of OEIS A014233 (Jaeschke 1993): the least odd composite that
        # is a strong pseudoprime to each of the first k prime bases.  Each
        # tier bound is one of them, and each lands in the next tier, so a
        # tier that drops a base it needs lets its psi_k through.
        assert [bound for bound, _bases in numtheory._MR_TIERS] == PSI
        for n in PSI:
            assert not is_prime(n), n

    def test_each_tier_bound_is_a_strong_pseudoprime_to_every_base_of_its_tier(self):
        # so a base changed to one the bound fails (37 -> 38) shows; a base
        # that fails a round proves the bound composite
        for bound, bases in numtheory._MR_TIERS:
            assert all(strong_probable_prime(bound, a) for a in bases), bound
            assert not all(strong_probable_prime(bound, a) for a in range(2, 100)), bound

    def test_the_small_prime_screen_runs_no_miller_rabin_round(self, monkeypatch):
        # one gcd decides every n with a prime factor up to 37: n is prime
        # exactly when it is that prime
        rounds = []
        monkeypatch.setattr(
            numtheory, "pow", lambda *args: rounds.append(args) or pow(*args), raising=False
        )
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            assert is_prime(p)
            for k in (p, 41, 999999999989, BPSW_FROM):
                assert not is_prime(p * k)
        assert rounds == []
        assert is_prime(41) and rounds  # the spy sees the rounds that do run

    def test_large_prime_pair(self):
        # 10^12 +- a twin prime pair around the envelope
        assert is_prime(999999999989)
        assert not is_prime(999999999989 * 999999999989)


class TestBPSW:
    def test_strong_lucas_passes_exactly_its_pseudoprimes(self):
        # OEIS A217255: the odd composites below 20000 that pass the strong
        # Lucas test with Selfridge's parameters
        pseudoprimes = [5459, 5777, 10877, 16109, 18971]
        passing = [n for n in range(3, 20000, 2) if numtheory._strong_lucas_probable_prime(n)]
        assert [n for n in passing if not is_prime_trial(n)] == pseudoprimes
        assert [n for n in passing if is_prime_trial(n)] == [
            n for n in range(3, 20000, 2) if is_prime_trial(n)
        ]
        # BPSW calls each of them composite: none is a base-2 strong probable prime
        for n in pseudoprimes:
            assert not strong_probable_prime(n, 2)

    @pytest.mark.parametrize("p", [61, 89, 107, 127, 521])
    def test_strong_lucas_on_mersenne_primes(self, p):
        assert numtheory._strong_lucas_probable_prime(2**p - 1)

    @pytest.mark.parametrize("p", [83, 97, 101, 103, 109, 113, 131])
    def test_composite_mersenne_fools_base_2_only(self, p):
        # every composite 2^p - 1 (p prime) is a base-2 strong pseudoprime
        n = 2**p - 1
        assert n >= BPSW_FROM
        assert strong_probable_prime(n, 2)
        assert not numtheory._strong_lucas_probable_prime(n)
        assert not is_prime(n)

    def test_lucas_runs_only_from_the_last_proven_bound(self, monkeypatch):
        calls = []
        real = numtheory._strong_lucas_probable_prime

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(numtheory, "_strong_lucas_probable_prime", counted)
        below = next(n for n in range(BPSW_FROM - 2, 0, -2) if is_prime(n))
        assert calls == [] and below < BPSW_FROM
        above = next(n for n in range(BPSW_FROM, 2 * BPSW_FROM, 2) if is_prime(n))
        assert calls[-1] == above

    def test_agrees_with_extended_bases_above_the_bound(self):
        rng = random.Random(20221)

        def random_prime(lo, hi):
            while True:
                n = rng.randrange(lo, hi) | 1
                if is_prime_extended_bases(n):
                    return n

        primes = [random_prime(BPSW_FROM, 4 * BPSW_FROM) for _ in range(20)]
        primes += [random_prime(2**120, 2**121) for _ in range(5)]
        semiprimes = [
            random_prime(2**41, 2**42) * random_prime(2**41, 2**42) for _ in range(20)
        ]
        spsp2 = [
            n for n in range(3, 100_000, 2)
            if strong_probable_prime(n, 2) and not is_prime_trial(n)
        ]
        assert spsp2[:4] == [2047, 3277, 4033, 4681]
        spsp_times_prime = [
            n * random_prime(BPSW_FROM // n + 1, 2 * BPSW_FROM // n) for n in spsp2
        ]
        for n in primes + semiprimes + spsp_times_prime:
            assert n >= BPSW_FROM
            assert is_prime(n) == is_prime_extended_bases(n), n
        assert all(is_prime(n) for n in primes)
        assert not any(is_prime(n) for n in semiprimes + spsp_times_prime)


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

    @pytest.mark.parametrize("value", [12.0, 0.0, True])
    def test_rejects_non_integers(self, value):
        # 12.0 used to factor as ((2, 2), (3.0, 1))
        with pytest.raises(TypeError):
            factorize(value)
        with pytest.raises(TypeError):
            factorize(value, envelope=None)
        with pytest.raises(TypeError):
            signed_divisors_1mod8(value)

    def test_semiprime_beyond_trial_bound(self):
        p, q = 1000003, 999999000001
        assert q == factorize(q).factors[0][0]  # q is prime
        fac = factorize(p * q, envelope=None)
        assert fac.factors == ((p, 1), (q, 1))

    @given(st.integers(-(10**9), 10**9))
    @settings(max_examples=300)
    def test_roundtrip(self, n):
        fac = factorize(n)
        assert factored_value(fac) == n
        primes = [p for p, _ in fac.factors]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        assert all(is_prime(p) for p in primes)

    def test_roundtrip_bulk_random(self):
        rng = random.Random(99)
        for _ in range(100_000):
            n = rng.randint(-(10**12), 10**12)
            assert factored_value(factorize(n)) == n


class TestTrialTable:
    """The sieved table behind trial division, which ``oracles.factor_unsigned_loop`` shares."""

    def test_primes_are_every_prime_up_to_the_bound(self):
        # trial division by the primes found so far, independent of the sieve
        expected = []
        for n in range(2, numtheory._TRIAL_BOUND + 1):
            for p in expected:
                if p * p > n:
                    expected.append(n)
                    break
                if n % p == 0:
                    break
            else:
                expected.append(n)
        assert numtheory._TRIAL_PRIMES == tuple(expected)

    def test_chunks_split_the_table_and_carry_their_products(self):
        chunks = numtheory._TRIAL_CHUNKS
        assert tuple(p for chunk, _ in chunks for p in chunk) == numtheory._TRIAL_PRIMES
        assert all(len(chunk) == 64 for chunk, _ in chunks[:-1])
        for chunk, product in chunks:
            assert product == prod(chunk)


class TestTrialScreen:
    """The gcd-screened trial division yields what the plain loop returns."""

    @staticmethod
    def assert_same(n):
        got = list(numtheory._prime_powers(n))
        assert got == list(factor_unsigned_loop(n).items()), n

    def test_seeded_values_below_1e12(self):
        rng = random.Random(31337)
        for _ in range(20_000):
            self.assert_same(rng.randint(1, 10**12))

    def test_constructed_values(self):
        # one value for each path a chunk can take: no prime of the chunk
        # divides n, one does (its gcd is that prime), or two or more do
        # (the walk); each also times a survivor above the trial bound
        values = [317 * 349]
        for chunk, _product in numtheory._TRIAL_CHUNKS:
            first, last = chunk[0], chunk[-1]
            values += [first**e for e in (1, 2, 3)] + [last**e for e in (1, 2, 3)]
            values += [first * last, first * chunk[1], chunk[1] * chunk[2] * chunk[-2]]
            values += [first**2 * last, first * last**2]
        values += [n * s for n in values for s in (11003, 1000003, 999999000001)]
        primes = numtheory._TRIAL_PRIMES
        values += [p * p for p in primes] + [p**3 for p in primes[-40:]]
        values += [primes[i] * primes[-1 - i] for i in range(0, len(primes), 7)]
        values += [p * 1000003 for p in primes[::11]] + [p * 999999000001 for p in primes[::97]]
        values += [2**40, 3**25, 2**20 * 10007, 10007 * 10009, 10007 * 10009 * 10037]
        values += [1000003 * 999999000001, 1, 2, 997, 10**12]
        # rho pieces below and above the trial bound squared
        values += [11003 * 11027 * 11047, 11003**2 * 1000003, 11027 * 1000003 * 999999000001]
        for n in values:
            self.assert_same(n)

    def test_the_walk_stops_at_the_last_prime_the_gcd_names(self, monkeypatch):
        walked = []

        class Walked(tuple):
            def __iter__(self):
                for p in tuple.__iter__(self):
                    walked.append(p)
                    yield p

        chunks = tuple((Walked(chunk), product) for chunk, product in numtheory._TRIAL_CHUNKS)
        monkeypatch.setattr(numtheory, "_TRIAL_CHUNKS", chunks)
        chunk = numtheory._TRIAL_PRIMES[64:128]
        assert chunk[:2] == (313, 317)
        for i, j in ((0, 1), (0, 63), (5, 9), (62, 63)):
            walked.clear()
            n = chunk[i] * chunk[j] ** 2
            assert list(numtheory._prime_powers(n)) == [(chunk[i], 1), (chunk[j], 2)]
            assert walked == list(chunk[: j + 1]), (i, j)
        # a gcd that is one prime is divided out without a walk
        walked.clear()
        assert list(numtheory._prime_powers(317**3 * 1000003)) == [(317, 3), (1000003, 1)]
        assert walked == []

    def test_values_the_scans_factorize(self, monkeypatch):
        seen = []
        screened = classifier._prime_powers

        def recording(n):
            seen.append(n)
            return screened(n)

        monkeypatch.setattr(classifier, "_prime_powers", recording)
        classifier._classify_unbounded.cache_clear()
        for seed in range(10):
            scan_random(32, 9, seed=seed)
        assert len(seen) > 50
        monkeypatch.undo()
        for n in seen:
            self.assert_same(n)


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

    def test_a_sign_fix_that_no_sign_satisfies_is_refused(self):
        # 2 and -2 are 2 and 6 mod 8
        with pytest.raises(PreconditionError, match="^neither sign of 2 is 1 mod 8$"):
            numtheory._fix_sign(2, 1)

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

    def test_agrees_with_brute_force_below_200k(self):
        # the descent picks the pair the brute-force walk finds first, and
        # both constrained representations are among the walk's pairs
        for p in primes_in_P_below(200_000):
            reps = two_squares_all(p)
            assert numtheory._rep_for_prime(p) == next((u, v) for u, v in reps if u % 2)
            x, y, _ = two_squares_prime_5mod8(p)
            assert (abs(x), abs(y)) in reps
            x2, y2, _ = two_squares_2p(p)
            assert (abs(x2), abs(y2)) in two_squares_all(2 * p)

    def test_the_descent_gives_one_pair_from_either_root(self, monkeypatch):
        # the remainders of (p, r) and (p, p - r) meet, so the descent needs
        # no fold of the root that pow returns into the lower half
        expected = {p: numtheory._rep_for_prime(p) for p in primes_in_P_below(100_000)}
        root = numtheory._sqrt_minus_one_mod
        monkeypatch.setattr(numtheory, "_sqrt_minus_one_mod", lambda p: p - root(p))
        for p, rep in expected.items():
            assert numtheory._rep_for_prime(p) == rep, p

    def test_fast_path_agrees_with_brute_force(self):
        # random primes in P between 10^6 and 10^8, above the exhaustive check
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


class TestTwoSquaresMemo:
    """Each prime's constrained pair is derived once; the memo changes no answer."""

    pytestmark = pytest.mark.parametrize(
        "rep", [two_squares_prime_5mod8, two_squares_2p], ids=lambda f: f.__name__
    )

    def test_cached_pairs_are_the_derived_pairs(self, rep):
        for p in primes_in_P_below(30_000):
            assert rep(p) == rep.__wrapped__(p)
            assert rep(p) == rep.__wrapped__(p), "on a cache hit"

    def test_a_float_equal_to_a_cached_prime_still_raises(self, rep):
        class Int(int):
            pass

        # an untyped cache would answer 5.0 with the pair it keeps for Int(5)
        for cached in (5, Int(5)):
            assert rep(cached) == rep.__wrapped__(5)
            with pytest.raises(TypeError):
                rep(5.0)

    def test_bad_values_raise_on_every_call(self, rep):
        for _ in range(3):
            for bad in (7, 25):
                with pytest.raises(PreconditionError):
                    rep(bad)

    def test_the_memo_is_bounded_and_typed(self, rep):
        assert rep.cache_parameters() == {"maxsize": 1024, "typed": True}


class TestRepresentationChecks:
    """A bad pair from a representation helper raises, also under ``python -O``."""

    @pytest.fixture(autouse=True)
    def fresh_memos(self):
        # a pair cached by an earlier test would answer without the patched helper
        two_squares_prime_5mod8.cache_clear()
        two_squares_2p.cache_clear()

    def test_descent_rejects_bad_root(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_sqrt_minus_one_mod", lambda p: 1)
        with pytest.raises(InternalMismatchError):
            numtheory._rep_for_prime(13)

    def test_prime_rep_rejects_bad_pair(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_rep_for_prime", lambda p: (5, 2))
        with pytest.raises(InternalMismatchError):
            two_squares_prime_5mod8(13)

    def test_doubled_rep_rejects_bad_pair(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_rep_for_prime", lambda p: (3, 2))
        with pytest.raises(InternalMismatchError):
            two_squares_2p(5)
