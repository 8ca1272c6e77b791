import importlib
import random

import pytest

from c4x4det.classifier import Even15, Even16, NotInS, OddA, OddOne, Reason, classify
from c4x4det.errors import (
    EnvelopeExceededError,
    InternalMismatchError,
    NotAttainableError,
    PreconditionError,
)
from c4x4det.gdet import det16_direct
from c4x4det.numtheory import TwoSquaresRep, is_in_P, two_squares_prime_5mod8
from c4x4det.witness import WitnessCase, WitnessPlan, emit, plan, witness

# the package re-exports the function witness under the submodule's name
witness_module = importlib.import_module("c4x4det.witness")


class TestPlan:
    def test_odd_one(self):
        p = plan(OddOne(1))
        assert p.case is WitnessCase.ODD_16M_PLUS_1
        assert p["m"] == 1

    def test_pow2_16_split_by_residue(self):
        assert plan(Even16(5)).case is WitnessCase.POW2_16_4M_PLUS_1
        assert plan(Even16(5))["m"] == 1
        assert plan(Even16(3)).case is WitnessCase.POW2_16_4M_MINUS_1
        assert plan(Even16(3))["m"] == 1
        assert plan(Even16(-6)).case is WitnessCase.POW2_16_EVEN
        assert plan(Even16(-6))["m"] == -3
        assert plan(Even16(-3)).case is WitnessCase.POW2_16_4M_PLUS_1
        assert plan(Even16(-3))["m"] == -1

    def test_pow2_15(self):
        p = plan(Even15(5, 1))
        assert p.case is WitnessCase.POW2_15_4M_PLUS_1
        assert (p["m"], p["r"], p["s"]) == (0, 0, 0)
        p = plan(Even15(5, -1))
        assert p.case is WitnessCase.POW2_15_4M_MINUS_1
        assert p["m"] == 0

    def test_set_a_all_fives(self):
        p = plan(OddA(0, 0, 5, 5, 5))
        assert p.case is WitnessCase.A_EVEN_EVEN_PAIR5
        assert p["J"] == 0 and p["K"] == 0 and p["e"] == 0
        assert (p["r"], p["s"], p["t"], p["u"], p["v"], p["w"]) == (0,) * 6

    def test_set_a_odd_parities_and_parameter_equations(self):
        # j and k both odd: slot prime is the unique 5-mod-16 one, pair shares e=1
        cert = OddA(1, 1, 5, 13, 29)
        p = plan(cert)
        assert p.case is WitnessCase.A_ODD_ODD_PAIR13
        assert p["J"] == 1 and p["K"] == 0 and p["e"] == 1
        assert (8 * p["r"] + 1) ** 2 + (8 * p["s"] + 2) ** 2 == 5
        assert (8 * p["t"] + 3) ** 2 + (8 * p["u"] + 2) ** 2 == 13
        assert (8 * p["v"] + 3) ** 2 + (8 * p["w"] + 2) ** 2 == 29
        assert det16_direct(emit(p)) == 9 * 5 * (5 * 13 * 29)

    def test_rejects_non_membership(self):
        with pytest.raises(PreconditionError):
            plan(NotInS(Reason.ODD_BAD_RESIDUE))


class TestEmit:
    def test_odd_one_table(self):
        vec = emit(plan(OddOne(1)))
        assert tuple(vec) == (2,) + (1,) * 15

    def test_pow2_16_table(self):
        vec = emit(plan(Even16(5)))
        assert tuple(vec) == (3, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1)

    def test_pow2_15_table(self):
        vec = emit(plan(Even15(5, 1)))
        assert tuple(vec) == (1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, -1, 0, 0, 0, 0)
        assert det16_direct(vec) == 2**15 * 5

    def test_set_a_minimal_table(self):
        vec = emit(plan(OddA(0, 0, 5, 5, 5)))
        assert det16_direct(vec) == -375

    def test_unknown_case_rejected(self):
        with pytest.raises(PreconditionError, match="unrecognized case"):
            emit(WitnessPlan("odd_16m_plus_1", {"m": 1}))


def window_values():
    values = [16 * m + 1 for m in range(-60, 61)]
    values += [2**16 * m for m in range(-20, 21)]
    values += [2**15 * p * c for p in (5, 13, 29) for c in (-5, -1, 1, 3, 7)]
    values += [n for n in range(-6000, 6001)
               if n % 16 == 9 and not isinstance(classify(n), NotInS)]
    return values


class TestWitnessRoundTrip:
    def test_windows(self):
        for n in window_values():
            vec, cert = witness(n)
            assert det16_direct(vec) == n
            assert not isinstance(cert, NotInS)

    def test_not_attainable(self):
        with pytest.raises(NotAttainableError):
            witness(7)
        with pytest.raises(NotAttainableError):
            witness(2**14)

    def test_beyond_envelope_is_not_called_unattainable(self):
        n = 2**16 * 10**8  # attainable, but |n| > 10**12
        with pytest.raises(EnvelopeExceededError):
            witness(n)
        with pytest.raises(EnvelopeExceededError):
            witness(-n)
        vec, cert = witness(n, envelope=None)
        assert cert == Even16(10**8)
        assert det16_direct(vec) == n

    def test_zero(self):
        vec, cert = witness(0)
        assert det16_direct(vec) == 0
        assert cert == Even16(0)

    def test_deterministic(self):
        assert witness(1625)[0] == witness(1625)[0]


class TestCaseDispatchTotality:
    def test_every_certificate_in_window_maps_to_one_case(self):
        seen_cases = set()
        for n in range(-50000, 50001):
            if n % 16 != 9:
                continue
            cert = classify(n)
            if isinstance(cert, NotInS):
                continue
            p = plan(cert)  # raises if no or several cases match
            seen_cases.add(p.case)
            vec = emit(p)
            assert det16_direct(vec) == n
        assert seen_cases  # at least some set-A traffic in the window

    def test_all_eight_set_a_tables_hit(self):
        # hand-built certificates touching all (j parity, k parity, e) combos;
        # products checked by the emitted determinant
        fives = (5, 37, 53)     # 5 mod 16
        thirteens = (13, 29, 61)  # 13 mod 16
        combos = []
        for j in (0, 1, -2, 3):
            for k in (0, 1, -2, 3):
                for primes in (fives, thirteens, (5, 13, 29), (13, 5, 37)):
                    p1, p2, p3 = sorted(primes)
                    l, m, nn = ((q + 3) // 8 for q in (p1, p2, p3))
                    if (j - k - l - m - nn) % 2 == 0:
                        continue
                    combos.append(OddA(j, k, p1, p2, p3))
        seen = set()
        for cert in combos:
            n = (8 * cert.j + 1) * (8 * cert.k - 3) * cert.p1 * cert.p2 * cert.p3
            wp = plan(cert)
            seen.add(wp.case)
            assert det16_direct(emit(wp)) == n, (cert, n)
        a_cases = {c for c in WitnessCase if c.name.startswith("A_")}
        assert seen == a_cases


class TestConstructionTables:
    def test_set_a_tables_against_certificate_product(self):
        # random valid certificates spanning signs and mixed residues
        rng = random.Random(31415)
        fives = [p for p in range(5, 2000, 16) if is_in_P(p)]
        thirteens = [p for p in range(13, 2000, 16) if is_in_P(p)]
        built = 0
        while built < 200:
            j = rng.randint(-6, 6)
            k = rng.randint(-6, 6)
            shape = rng.choice(("FFF", "TTT", "FTT", "TFF"))
            pick = {
                "FFF": lambda: [rng.choice(fives) for _ in range(3)],
                "TTT": lambda: [rng.choice(thirteens) for _ in range(3)],
                "FTT": lambda: [rng.choice(fives)] + [rng.choice(thirteens)] * 2,
                "TFF": lambda: [rng.choice(thirteens)] + [rng.choice(fives)] * 2,
            }[shape]
            p1, p2, p3 = sorted(pick())
            l, m, nn = ((q + 3) // 8 for q in (p1, p2, p3))
            if (j - k - l - m - nn) % 2 == 0:
                continue
            cert = OddA(j, k, p1, p2, p3)
            n = (8 * j + 1) * (8 * k - 3) * p1 * p2 * p3
            assert det16_direct(emit(plan(cert))) == n, cert
            built += 1

    def test_two_squares_parameters_satisfy_their_equations(self):
        for p in (5, 13, 29, 37, 53, 61, 101, 109):
            x, y, _ = two_squares_prime_5mod8(p)
            e = 0 if p % 16 == 5 else 1
            t = (x - 2 * e - 1) // 8
            u = (y - 2) // 8
            assert (8 * t + 2 * e + 1) ** 2 + (8 * u + 2) ** 2 == p

    def test_bad_representation_residue_raises(self, monkeypatch):
        # holds under ``python -O`` too: the check is not an assert
        monkeypatch.setattr(witness_module, "two_squares_prime_5mod8",
                            lambda p: TwoSquaresRep(3, 2, p))
        with pytest.raises(InternalMismatchError):
            witness_module._constrained_params(13, 1)
