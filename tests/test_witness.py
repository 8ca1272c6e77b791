import importlib
import random
from itertools import product

import pytest
from oracles import Poly

from c4x4det import gdet
from c4x4det.classifier import Even15, Even16, NotInS, OddA, OddOne, Reason, classify
from c4x4det.core import CoeffVec16
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

    def test_pair_split_takes_the_first_prime_of_the_slot_class(self):
        # slot 5: one match, then all three matching; slot 13 the same
        assert witness_module._pair_split((13, 29, 37), 5) == (37, (13, 29))
        assert witness_module._pair_split((5, 37, 53), 5) == (5, (37, 53))
        assert witness_module._pair_split((13, 37, 61), 5) == (37, (13, 61))
        assert witness_module._pair_split((5, 13, 37), 13) == (13, (5, 37))
        assert witness_module._pair_split((13, 29, 61), 13) == (13, (29, 61))
        # two matches, no match, or a pair that disagrees mod 16 raise
        for primes, slot in (((5, 13, 37), 5), ((13, 29, 61), 5), ((5, 7, 13), 7)):
            with pytest.raises(InternalMismatchError):
                witness_module._pair_split(primes, slot)

    def test_bad_representation_residue_raises(self, monkeypatch):
        # holds under ``python -O`` too: the check is not an assert
        monkeypatch.setattr(witness_module, "two_squares_prime_5mod8",
                            lambda p: TwoSquaresRep(3, 2, p))
        with pytest.raises(InternalMismatchError):
            witness_module._constrained_params(5)


# One certificate per WitnessCase whose plan parameters are nonzero and
# pairwise distinct (e aside: 1 for PAIR13, 0 for PAIR5), with the vector the
# construction emitted when these were recorded.  A change that permutes or
# re-signs entries can keep every determinant and still fail here; the set-A
# vectors have sixteen distinct entries, so any permutation of them shows.
PINNED = [
    (OddOne(-123457), WitnessCase.ODD_16M_PLUS_1, (-123456,) + (-123457,) * 15),
    (Even16(12005), WitnessCase.POW2_16_4M_PLUS_1,
     (3003, 3001, 3001, 3001, 3001, 3001, 3002, 3001, 3002, 3001, 3001, 3001, 3001, 3001, 3001,
      3001)),
    (Even16(-11997), WitnessCase.POW2_16_4M_MINUS_1,
     (-2998, -2999, -2999, -3000, -2999, -3000, -2999, -2999, -2999, -2999, -2999, -3000, -2999,
      -3000, -3000, -2999)),
    (Even16(-8642), WitnessCase.POW2_16_EVEN,
     (-4320, -4321, -4321, -4321, -4321, -4321, -4321, -4321, -4320, -4322, -4321, -4321, -4321,
      -4322, -4321, -4321)),
    (Even15(1021, 309), WitnessCase.POW2_15_4M_PLUS_1,
     (80, 80, 80, 79, 82, 82, 83, 82, 76, 75, 75, 74, 72, 72, 72, 72)),
    (Even15(1021, -221), WitnessCase.POW2_15_4M_MINUS_1,
     (-53, -53, -52, -53, -50, -50, -50, -51, -57, -58, -57, -58, -60, -60, -61, -61)),
    (OddA(6, -10, 1061, 1549, 5981), WitnessCase.A_EVEN_EVEN_PAIR13,
     (-1, 7, 6, -3, 13, 19, 8, 2, 5, -14, -18, 1, -4, 0, 16, 12)),
    (OddA(6, -10, 1061, 1381, 4597), WitnessCase.A_EVEN_EVEN_PAIR5,
     (-5, -12, -3, 4, 2, 19, 23, 6, 9, 5, -9, -6, 7, 0, 1, 8)),
    (OddA(-8, 7, 1181, 1693, 5821), WitnessCase.A_EVEN_ODD_PAIR13,
     (-15, -3, 5, -8, -6, 0, -4, -10, 13, 10, -5, -2, -7, -23, -12, 4)),
    (OddA(-8, 7, 1181, 1621, 5653), WitnessCase.A_EVEN_ODD_PAIR5,
     (-15, 1, 4, -12, -3, -1, -9, -11, 13, 6, -4, 2, -10, -22, -7, 5)),
    (OddA(9, -14, 1021, 1117, 3389), WitnessCase.A_ODD_EVEN_PAIR13,
     (-3, -2, -7, -9, 21, 18, 9, 12, 1, -11, -1, 11, 0, 13, 17, 4)),
    (OddA(9, -14, 1021, 1109, 5381), WitnessCase.A_ODD_EVEN_PAIR5,
     (-6, 1, 7, 0, 12, 21, 6, -3, 4, -14, -15, 2, 9, 10, 20, 19)),
    (OddA(-11, 13, 1061, 1117, 5501), WitnessCase.A_ODD_ODD_PAIR13,
     (3, 6, -6, -10, -3, -8, -14, -9, 7, -7, 0, 14, -28, -13, -2, -17)),
    (OddA(-11, 13, 1061, 1109, 3061), WitnessCase.A_ODD_ODD_PAIR5,
     (15, 2, -7, 6, -19, -20, -10, -9, -5, -3, 1, -2, -12, -1, -6, -17)),
]


class TestPinnedVectors:
    def test_one_pin_per_case(self):
        assert sorted(c.name for _, c, _ in PINNED) == sorted(c.name for c in WitnessCase)

    @pytest.mark.parametrize("cert, case, expected", PINNED, ids=[c.name for _, c, _ in PINNED])
    def test_emitted_vector_at_generic_parameters(self, cert, case, expected):
        p = plan(cert)
        assert p.case is case
        params = dict(p.params)
        if case.name.startswith("A_"):
            assert params.pop("e") == case.name.endswith("PAIR13")
            assert len(set(expected)) == 16
        values = list(params.values())
        assert 0 not in values and len(set(values)) == len(values)
        assert tuple(emit(p)) == expected


def _prime_5mod8(h, low, x):
    """(8h + x)^2 + (8 low + 2)^2: a prime 5 mod 8 as a sum of two squares."""
    return (8 * h + x) * (8 * h + x) + (8 * low + 2) * (8 * low + 2)


def _family_polynomials() -> dict:
    """case -> (plan parameters as free variables, value polynomial).

    The values are the paper's families in the plan's parameters: ``16m+1``,
    ``2^16 * m`` by ``m mod 4``, ``2^15 * p * odd`` with ``2p = (8r+3)^2 +
    (8s+1)^2``, and set A: ``(8j+1)(8k-3) p1 p2 p3``, where ``j = 2J`` or
    ``2J-1`` and ``k = 2K`` or ``2K+1`` by parity, the slot prime is 5 mod 16
    (x = 1) when j and k share a parity and 13 mod 16 (x = 3) otherwise, and
    the paired primes take x = 2e+1.
    """
    (m,) = Poly.variables(1)
    cases = {
        WitnessCase.ODD_16M_PLUS_1: ((m,), 16 * m + 1),
        WitnessCase.POW2_16_4M_PLUS_1: ((m,), 2**16 * (4 * m + 1)),
        WitnessCase.POW2_16_4M_MINUS_1: ((m,), 2**16 * (4 * m - 1)),
        WitnessCase.POW2_16_EVEN: ((m,), 2**16 * (2 * m)),
    }
    m, r, s = Poly.variables(3)
    two_p = (8 * r + 3) * (8 * r + 3) + (8 * s + 1) * (8 * s + 1)
    cases[WitnessCase.POW2_15_4M_PLUS_1] = ((m, r, s), 2**14 * two_p * (4 * m + 1))
    cases[WitnessCase.POW2_15_4M_MINUS_1] = ((m, r, s), 2**14 * two_p * (4 * m - 1))
    J, K, r, s, t, u, v, w = Poly.variables(8)
    parities = (("EVEN", 0), ("ODD", 1))
    for (jname, jp), (kname, kp), e in product(parities, parities, (1, 0)):
        case = WitnessCase[f"A_{jname}_{kname}_PAIR{13 if e else 5}"]
        j = 2 * J - jp
        k = 2 * K + kp
        slot = _prime_5mod8(r, s, 1 if jp == kp else 3)
        pair = _prime_5mod8(t, u, 2 * e + 1) * _prime_5mod8(v, w, 2 * e + 1)
        cases[case] = ((J, K, r, s, t, u, v, w, e), (8 * j + 1) * (8 * k - 3) * slot * pair)
    return cases


class TestFormsArePolynomialIdentities:
    """Each case's form and row, on free parameters, has the family's value.

    The forms see only ``+``, ``-`` and ``*``, so they run unchanged on
    polynomials, and so do the kernels of the three routes, which check no
    entry (the public routes refuse a polynomial).  An identity holds for
    every parameter value, which leaves ``plan`` and the two-squares
    routines to the runtime re-check.
    """

    FAMILIES = _family_polynomials()

    def test_every_case(self):
        assert set(self.FAMILIES) == set(WitnessCase)

    @pytest.mark.parametrize("case", list(WitnessCase), ids=lambda c: c.name)
    def test_both_routes_expand_to_the_family(self, case):
        params, value = self.FAMILIES[case]
        form, sign, row = witness_module._TABLES[case]
        vec = form(row, sign, *params)
        assert gdet._factored(vec) == value
        assert gdet._spectral(vec) == value

    @pytest.mark.parametrize("case", list(WitnessCase), ids=lambda c: c.name)
    def test_the_direct_kernel_expands_to_the_family(self, case):
        # the route that re-checks every witness
        params, value = self.FAMILIES[case]
        form, sign, row = witness_module._TABLES[case]
        assert gdet._direct(form(row, sign, *params)) == value


# One value per WitnessCase: the first fourteen values of the golden suite.
CASE_VALUES = (
    17, 65536, 196608, 131072, 163840, 491520,
    -375, 10985, 12025, 81289, 6825, 46137, 9625, 65065,
)


class TestRecheck:
    def test_case_values_cover_every_case_once(self):
        cases = {plan(classify(n)).case for n in CASE_VALUES}
        assert len(cases) == len(CASE_VALUES) == len(WitnessCase)

    @pytest.mark.parametrize("n", CASE_VALUES)
    def test_every_unit_perturbation_is_rejected(self, n, monkeypatch):
        # holds under ``python -O`` too: the re-check is not an assert
        real_emit = witness_module.emit
        for index in range(16):
            for step in (1, -1):
                def perturbed(p):
                    vec = list(real_emit(p))
                    vec[index] += step
                    return CoeffVec16(vec)

                monkeypatch.setattr(witness_module, "emit", perturbed)
                with pytest.raises(InternalMismatchError, match=f"^witness for {n} evaluates to "):
                    witness(n)
