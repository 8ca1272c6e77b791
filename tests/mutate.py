"""Mutation sweep: each fixed mutant of ``src/`` must fail its target tests.

Run from anywhere, with the standard library and pytest installed::

    python tests/mutate.py

Each entry of ``MUTANTS`` names a module under ``src/c4x4det``, a text that
occurs in it exactly once, the text that replaces it, and the pytest target
(a test file or one test in it) that should fail on the mutant.  The sweep
copies ``src/``, ``tests/``, ``demos/``, ``README.md`` and ``pyproject.toml``
into a temporary directory, never editing the checkout.  There it first
checks that every mutant's text occurs exactly once in its module; if one
does not, it names each such text and exits with status 1 before running
anything.  Next it runs each distinct target once on the unmutated code: a
target that fails without a mutation would count every mutant aimed at it
as killed, so the sweep stops with exit status 1.  Then it runs
``pytest -x`` on each mutant.  A mutant is *killed* when pytest reports a
failing test (exit 1) or runs past ``TIMEOUT_S``, and *survived* when the
target passes.  A mutant that leaves its module unable to import (a broken
group index table stops ``gdet`` at its import-time tables) makes pytest
end in a collection or usage error instead; as every target passed
unmutated, that error is the mutant's, so it counts as killed once a fresh
interpreter confirms the mutated module fails to import.  A mutant
declared equivalent changes no answer any test can see; it is run and
reported, but its survival is expected.  The exit status is 1 when a mutant
that is not declared equivalent survives, or when pytest ends in any other
way (a collection or usage error); otherwise 0.

The file is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
PIECES_TEST = (
    "tests/test_gdet.py::TestFactoredKernel"
    "::test_pieces_are_the_reference_closed_forms_on_free_variables"
)
BLOCKS_TEST = (
    "tests/test_gdet.py::TestDet16"
    "::test_gathered_blocks_are_the_coset_blocks_of_the_group_matrix"
)
LEIBNIZ_TEST = (
    "tests/test_gdet.py::TestDet16"
    "::test_cofactor_expansions_are_the_leibniz_formula"
)
SPECTRAL_TEST = (
    "tests/test_gdet.py::TestCharacterFactorization"
    "::test_spectral_blocks_are_products_of_eigenvalues"
)
FRAMES_TEST = (
    "tests/test_gdet.py::TestFactoredKernel"
    "::test_the_frame_is_the_product_of_the_pieces_on_hand_built_tuples"
)
BOUNDARY_TEST = (
    "tests/test_verification.py::TestScanExhaustive::test_block_boundary_matches_brute_force"
)
CLOSED_FORM_TEST = "tests/test_classifier.py::TestADecompose::test_closed_form_divisor"
PACKING_TEST = (
    "tests/test_gdet.py::TestNoTuplePacking"
    "::test_no_function_in_gdet_packs_a_tuple_to_unpack_it"
)
TRIAL_TEST = "tests/test_numtheory.py::TestTrialScreen::test_constructed_values"
WALK_TEST = (
    "tests/test_numtheory.py::TestTrialScreen"
    "::test_the_walk_stops_at_the_last_prime_the_gcd_names"
)
SCREEN_TEST = (
    "tests/test_numtheory.py::TestPrimality"
    "::test_the_small_prime_screen_runs_no_miller_rabin_round"
)
MEMO_TEST = (
    "tests/test_numtheory.py::TestTwoSquaresMemo"
    "::test_a_float_equal_to_a_cached_prime_still_raises"
)
STOP_TEST = "tests/test_classifier.py::TestStopRule"
STREAM_TEST = "tests/test_verification.py::TestScanRandom::test_draws_the_randint_stream"
DISAGREE_TEST = (
    "tests/test_verification.py::TestRouteDisagreement::test_violations_interleave_in_tuple_order"
)
ORDER_TEST = (
    "tests/test_verification.py::TestScanFindsClassifierRegressions"
    "::test_violations_match_brute_force_in_order"
)
GROUP_INDEX_TEST = "tests/test_gdet.py::TestDet16::test_group_index_is_g_times_h_inverse"
ENTRY_TEST = (
    "tests/test_gdet.py::TestKernels::test_a_public_route_refuses_an_entry_that_is_not_an_int"
)
SUPPORT_TEST = (
    "tests/test_verification.py::TestScansCallTheKernels"
    "::test_a_support_entry_that_is_not_an_int_raises_before_any_block"
)
SCAN_ARGUMENT_TEST = (
    "tests/test_verification.py::TestScansCallTheKernels"
    "::test_a_scan_argument_that_is_not_an_int_raises_before_any_block"
)
GATE_TEST = "tests/test_core.py::TestCoeffVec16"

# det16_factored's two pairs of even sums, written as the one four-name line
# they replace: CPython builds and unpacks a tuple for it
FACTORED_SUMS = "    es, et = e0 + e2, e1 + e3\n    fs, ft = o0 + o2, o1 + o3\n"

# (module, old text, new text, pytest target, reason if declared equivalent)
MUTANTS = (
    # factored_pieces: the det4 pieces of b and c, then beta and gamma over d
    ("gdet.py", "pieces += (s - t, s + t,", "pieces += (s - t, s - t,", PIECES_TEST, None),
    ("gdet.py", "s + t, u * u + v * v)\n", "s + t, u * u - v * v)\n", PIECES_TEST, None),
    ("gdet.py", "return (*pieces, s * s + t * t,", "return (*pieces, s * s - t * t,",
     PIECES_TEST, None),
    ("gdet.py", "g * g + h * h, m * m + n * n)", "g * g + h * h, m * m - n * n)",
     PIECES_TEST, None),
    # det16_factored's own frame: its zero exit and its product
    ("gdet.py", "if not lin:", "if lin:", FRAMES_TEST, None),
    ("gdet.py", "lin = (bs - bt) * (bs + bt) * (cs - ct) * (cs + ct)",
     "lin = (bs - bt) * (bs + bt) * (cs - ct)", FRAMES_TEST, None),
    ("gdet.py", "(g * g + h * h)", "(g * g - h * h)", FRAMES_TEST, None),
    ("gdet.py", "if not lin:\n        return 0\n", "if not lin:\n        return False\n",
     FRAMES_TEST, None),
    ("gdet.py", FACTORED_SUMS,
     "    es, et, fs, ft = e0 + e2, e1 + e3, o0 + o2, o1 + o3\n", PACKING_TEST, None),
    # spectral_factors: the imaginary part of block 1 and of block 3, block
    # 3 built without negating w, and a real block with s^2 + t^2
    ("gdet.py", "block1 = pr * qr - pi * qi, pr * qi + pi * qr",
     "block1 = pr * qr - pi * qi, pr * qi - pi * qr", SPECTRAL_TEST, None),
    ("gdet.py", "(pr * qr - pi * qi, pr * qi + pi * qr),", "(pr * qr - pi * qi, pr * qi - pi * qr),",
     SPECTRAL_TEST, None),
    ("gdet.py", "si, ti = -w0 - w2, -w1 - w3\n    ui, vi = w2 - w0, w3 - w1\n",
     "si, ti = w0 + w2, w1 + w3\n    ui, vi = w0 - w2, w1 - w3\n", SPECTRAL_TEST, None),
    ("gdet.py", "(bs * bs - bt * bt)", "(bs * bs + bt * bt)", SPECTRAL_TEST, None),
    ("gdet.py", "* (cu * cu + cv * cv), 0)", "* (cu * cu - cv * cv), 0)", SPECTRAL_TEST, None),
    ("gdet.py", "+ 4 * (((g >> 2)", "+ 2 * (((g >> 2)", GROUP_INDEX_TEST, None),
    # The index table with g and h swapped in one coordinate, or in both
    # (its transpose): det16_direct's coset tables, built from it at
    # import, cannot be built, so gdet no longer imports.
    ("gdet.py", "(((g & 3) - (h & 3)) & 3)", "(((h & 3) - (g & 3)) & 3)",
     GROUP_INDEX_TEST, None),
    ("gdet.py", "(((g & 3) - (h & 3)) & 3) + 4 * (((g >> 2) - (h >> 2)) & 3)",
     "(((h & 3) - (g & 3)) & 3) + 4 * (((h >> 2) - (g >> 2)) & 3)", GROUP_INDEX_TEST, None),
    # the table of g*h: gdet imports and every determinant is unchanged, as
    # M has its columns h and h^-1 swapped, an even permutation; the test
    # that pins the table and the one that reads the gathered blocks see it
    ("gdet.py", "(((g & 3) - (h & 3)) & 3) + 4 * (((g >> 2) - (h >> 2)) & 3)",
     "(((g & 3) + (h & 3)) & 3) + 4 * (((g >> 2) + (h >> 2)) & 3)", GROUP_INDEX_TEST, None),
    # the gate of each public route: det16_direct converts without checking
    # or takes its argument as given, and the other two skip the gate
    ("gdet.py", "    a = CoeffVec16(a)\n", "    a = tuple(a)\n", "tests/test_gdet.py", None),
    ("gdet.py", "    a = CoeffVec16(a)\n", "", "tests/test_gdet.py", None),
    ("gdet.py", "return _factored(CoeffVec16(a))", "return _factored(a)", ENTRY_TEST, None),
    ("gdet.py", "return _spectral(CoeffVec16(a))", "return _spectral(a)", ENTRY_TEST, None),
    ("gdet.py", "return sum(a) * _det_n(", "return _det_n(", "tests/test_gdet.py", None),
    ("gdet.py", "return sum(a) * _det_n(", "return sum(a[1:]) * _det_n(", "tests/test_gdet.py",
     None),
    # the scans' direct kernel without the factor sum(a)
    ("gdet.py", "return s * _blocks(a)", "return _blocks(a)",
     "tests/test_gdet.py::TestKernels::test_the_direct_kernel_is_det16_direct", None),
    ("gdet.py", "- s1 * c4", "+ s1 * c4", LEIBNIZ_TEST, None),
    ("gdet.py", "b * (f * g - d * i)", "b * (d * i - f * g)", LEIBNIZ_TEST, None),
    # each difference of P' against the wrong column of row 0
    ("gdet.py", "_gather((0, j) for i", "_gather((0, j - 1) for i", "tests/test_gdet.py", None),
    # one sign of the butterfly over z, and one of the butterfly over w
    ("gdet.py", "u0, u1 = e0 + z0,", "u0, u1 = e0 - z0,",
     "tests/test_gdet.py", None),
    ("gdet.py", "y0, y1 = v0 + vw0,", "y0, y1 = v0 - vw0,",
     "tests/test_gdet.py", None),
    # B+- gathered as if w acted on it as +1
    ("gdet.py", "for char in ((1, -1),", "for char in ((1, 1),", "tests/test_gdet.py", None),
    # (1, 0) and (0, 1) have order 4: the coset tables cannot be built
    ("gdet.py", "_Z, _W = 2, 8\n", "_Z, _W = 1, 8\n", "tests/test_gdet.py", None),
    ("gdet.py", "_Z, _W = 2, 8\n", "_Z, _W = 2, 4\n", "tests/test_gdet.py", None),
    # same answers, as they negate a 4x4 block (or two) and (-1)**4 == 1:
    # only the test that reads the gathered blocks sees them
    ("gdet.py", "_B_PM((x0, x1, x2, x3, -x0, -x1, -x2, -x3))",
     "_B_PM((-x0, -x1, -x2, -x3, x0, x1, x2, x3))", BLOCKS_TEST, None),
    ("gdet.py", "v0, v1 = e0 - z0, e1 - z1\n    v2, v3 = e2 - z2, e3 - z3\n",
     "v0, v1 = z0 - e0, z1 - e1\n    v2, v3 = z2 - e2, z3 - e3\n", BLOCKS_TEST, None),
    # same answers, as S * 0 * det B+- * det B-+ * det B-- == 0: only the
    # test that refuses to gather the 4x4 blocks sees it
    ("gdet.py", "    if det_p == 0:\n        return 0\n", "",
     "tests/test_gdet.py::TestDet16::test_a_singular_quotient_block_skips_t", None),
    # same answers, one evaluation per vector: only the tests that count
    # evaluations of the blocks see it
    ("gdet.py", "_det_n(tuple(map(sub, a, repeat(a[0]))))", "_det_n(a)",
     "tests/test_gdet.py::TestDirectMemo", None),
    ("gdet.py", "lru_cache(maxsize=_DET_N_CACHE_SIZE)(_blocks)",
     "lru_cache(maxsize=None)(_blocks)",
     "tests/test_gdet.py::TestDirectMemo", None),
    ("gdet.py", "repeat(a[0])", "repeat(a[1])", "tests/test_gdet.py",
     "P' and the 4x4 blocks are offset-invariant: a - a[1] gives the same blocks and "
     "the same cache hits"),
    # the gate: the length checked before the entries, no entry check, and a
    # plain tuple passed through unchecked
    ("core.py", "        check_coefficients(t)\n        if len(t) != 16:\n"
     "            raise ValueError(f\"expected 16 coefficients, got {len(t)}\")\n",
     "        if len(t) != 16:\n"
     "            raise ValueError(f\"expected 16 coefficients, got {len(t)}\")\n"
     "        check_coefficients(t)\n", GATE_TEST, None),
    ("core.py", "        check_coefficients(t)\n", "", GATE_TEST, None),
    ("core.py", "if type(entries) is cls:", "if isinstance(entries, tuple):", GATE_TEST, None),
    # trial division: the walk over the primes a chunk's gcd names, and the
    # shortcut for a gcd that is one prime
    ("numtheory.py", "                g //= p\n", "", WALK_TEST, None),
    ("numtheory.py", "if g < square else", "if g < chunk[-1] * chunk[-1] else", TRIAL_TEST, None),
    # is_prime's screen: 37 would reach Miller-Rabin, which answers alike
    ("numtheory.py", "prod(_SMALL_PRIMES)", "prod(_SMALL_PRIMES[:-1])", SCREEN_TEST, None),
    # an untyped memo answers a float equal to a cached int subclass
    ("numtheory.py", "@lru_cache(maxsize=1024, typed=True)\ndef two_squares_2p",
     "@lru_cache(maxsize=1024, typed=False)\ndef two_squares_2p", MEMO_TEST, None),
    # the doubled representation with the 3 and the 1 mod 8 components swapped
    ("numtheory.py", "if s * s % 16 != 9:", "if s * s % 16 == 9:", "tests/test_numtheory.py",
     None),
    ("numtheory.py", "m < _TRIAL_BOUND * _TRIAL_BOUND", "m < _TRIAL_BOUND ** 3",
     "tests/test_classifier.py", None),
    # base 37 of the last tier read as 38, to which its bound is no strong
    # pseudoprime
    ("numtheory.py", "31, 37, 41))", "31, 38, 41))",
     "tests/test_numtheory.py::TestPrimality"
     "::test_each_tier_bound_is_a_strong_pseudoprime_to_every_base_of_its_tier", None),
    ("numtheory.py", "(341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17))",
     "(341_550_071_728_321, (2, 3, 5, 7, 11, 13))", "tests/test_numtheory.py", None),
    # the expansion drops each prime's top power; then only positive divisors
    ("numtheory.py", "for k in range(e + 1)]", "for k in range(e)]",
     "tests/test_numtheory.py::TestSignedDivisors", None),
    ("numtheory.py", "for s in (d, -d) if", "for s in (d,) if",
     "tests/test_numtheory.py::TestSignedDivisors", None),
    ("classifier.py", ") > most:", ") > most + 1:", "tests/test_classifier.py", None),
    # classify without its argument check; a_decompose on the unvalidated decision
    ("classifier.py", "    check_envelope(n, envelope)\n    return _classify_unbounded(n)",
     "    return _classify_unbounded(n)", "tests/test_classifier.py::TestClassify", None),
    ("classifier.py", "cls = _classify_unbounded(n)", "cls = _decide(n)",
     "tests/test_classifier.py::TestValidateOnce", None),
    # the set-A cofactor divisor e in closed form
    ("classifier.py", "(least.get(r), least.get(q, 0) * least.get(s, 0))", "(least.get(r),)",
     CLOSED_FORM_TEST, None),
    ("classifier.py", "least.setdefault(p % 8, p)", "least[p % 8] = p", CLOSED_FORM_TEST, None),
    ("classifier.py", "5: (3, 7)}", "5: (5, 7)}", CLOSED_FORM_TEST, None),
    # the triple takes one prime too few
    ("classifier.py", "3 - len(triple)", "2 - len(triple)", CLOSED_FORM_TEST, None),
    ("classifier.py", "e = min(filter(", "e = max(filter(", CLOSED_FORM_TEST, None),
    # the stop rule: reading stops at the complete triple whatever the class;
    # the 2^15 branch takes the first prime of any class; a set-A rejection
    # re-checks the pairs read so far minus the last
    ("classifier.py", "        if r in least:\n", "        if r:\n", STOP_TEST, None),
    ("classifier.py", "        if p % 8 == 5:\n            return Even15(",
     "        if True:\n            return Even15(", STOP_TEST, None),
    ("classifier.py", "_check_rejection(n, read, 2)", "_check_rejection(n, read[:-1], 2)",
     STOP_TEST, None),
    ("witness.py", "ODD_16M_PLUS_1: (_form_m, 1, (1, 0,", "ODD_16M_PLUS_1: (_form_m, 1, (2, 0,",
     "tests/test_witness.py", None),
    ("witness.py", "p + r + t - v + c[0], p + s + t + w + c[1],",
     "p + s + t + w + c[1], p + r + t - v + c[0],", "tests/test_witness.py", None),
    ("witness.py", "(1, 1): (0, 0, 0, 0, 0, 0, -1, -1, 0, -1, 0, 0, -1, -1, -1, -1),",
     "(1, 1): (0, 0, 0, 0, 0, 0, -1, -1, 0, -1, 0, 0, -1, -1, -1, 0),",
     "tests/test_witness.py", None),
    # the set-A plan: J and K on the other side of j / 2 and k / 2, the slot
    # taken by the last matching prime (only a triple of one class has more
    # than one candidate), and the x residues of 5 and 13 mod 16 swapped
    ("witness.py", '("J", (cls.j + 1) // 2)', '("J", cls.j // 2)', "tests/test_witness.py",
     None),
    ("witness.py", '("K", cls.k // 2)', '("K", (cls.k - 1) // 2)', "tests/test_witness.py",
     None),
    ("witness.py", "i = residues.index(slot_residue)",
     "i = 2 - residues[::-1].index(slot_residue)",
     "tests/test_witness.py::TestPinnedVectors::test_emitted_vector_at_generic_parameters",
     None),
    ("witness.py", "x_residue = 1 if p % 16 == 5 else 3", "x_residue = 3 if p % 16 == 5 else 1",
     "tests/test_witness.py", None),
    ("verification.py", "violations.extend(v)", "violations[:0] = v", ORDER_TEST, None),
    # a scan that drops every violation; one that drops the rejections from
    # its filter, or from its filter and its clean-block test; a block whose
    # only faults are route messages passing; a random scan that ignores the
    # spectral route, in its whole-block test or per tuple; one that also
    # classifies the tuples whose routes disagree
    ("verification.py", "    if _FLAGGED.isdisjoint(map(type, details)):\n", "    if True:\n",
     "tests/test_verification.py::TestScanFindsClassifierRegressions", None),
    ("verification.py", "if type(detail) in _FLAGGED", "if type(detail) is str",
     DISAGREE_TEST, None),
    ("verification.py", "_FLAGGED = frozenset((NotInS, str))", "_FLAGGED = frozenset((str,))",
     DISAGREE_TEST, None),
    ("verification.py", "_FLAGGED = frozenset((NotInS, str))", "_FLAGGED = frozenset((NotInS,))",
     "tests/test_verification.py::TestRouteDisagreement::test_a_lone_disagreement_fails_the_scan",
     None),
    ("verification.py", "if values == directs == spectrals:", "if values == directs:",
     DISAGREE_TEST + "[det16_spectral]", None),
    ("verification.py", "if direct == value == spectral", "if direct == value",
     DISAGREE_TEST + "[det16_spectral]", None),
    ("verification.py", 'else f"determinant routes disagree',
     'else classify(value) and f"determinant routes disagree', DISAGREE_TEST, None),
    ("verification.py", "factors = [(x,) for x in prefix] + [support] * (16 - len(prefix))",
     "factors = [support] * (16 - len(prefix)) + [(x,) for x in prefix]", BOUNDARY_TEST, None),
    ("verification.py", "tuples = islice(product(*factors), count)",
     "tuples = islice(product(*factors), 1, count + 1)", ORDER_TEST, None),
    ("verification.py", "seen |= s", "seen = s", BOUNDARY_TEST, None),
    # a non-integer support, seed or limit reaches the blocks
    ("verification.py", "    check_coefficients(entries)\n", "", SUPPORT_TEST, None),
    ("verification.py", "(count, coeff_bound, seed, jobs)", "(count, coeff_bound, jobs)",
     SCAN_ARGUMENT_TEST, None),
    ("verification.py", "else (limit, jobs)", "else (jobs,)", SCAN_ARGUMENT_TEST, None),
    ("verification.py", "min(size, total - lo)", "size",
     "tests/test_verification.py::TestScanExhaustive::test_binary_support_small_limit", None),
    # the sample stream of scan_random: only its golden outputs pin it, and
    # seed 0 draws the same stream either way
    ("verification.py", "seed * (1 << 32) + block", "seed + block",
     "tests/test_golden.py::test_output_matches_golden[scan-random-seed1]", None),
    # the bulk draw against randint's rejection loop (not (n - 1).bit_length():
    # n is odd, so that mutant is equivalent)
    ("verification.py", "n.__gt__", "n.__ge__", STREAM_TEST, None),
    ("verification.py", "k = n.bit_length()\n", "k = n.bit_length() + 1\n", STREAM_TEST,
     None),
    # the byte path: a word's top byte, the delete rule, and the switch (k = 9
    # shifts by -1)
    ("verification.py", "[3::4]", "[2::4]", STREAM_TEST, None),
    ("verification.py", '"little"', '"big"', STREAM_TEST, None),
    ("verification.py", "shift >= n", "shift > n", STREAM_TEST, None),
    ("verification.py", "if k <= 8:", "if k <= 9:", STREAM_TEST, None),
    # the option floors: seed -1 passes the command line (scan_random then
    # raises), and --seed is named before --samples
    ("cli.py", '"samples": 1, "seed": 0}', '"samples": 1, "seed": -1}', "tests/test_golden.py",
     None),
    ("cli.py", '"samples": 1, "seed": 0}', '"seed": 0, "samples": 1}', "tests/test_golden.py",
     None),
    # the text renderer: only the text-mode goldens pin its bytes
    ("cli.py", 'print("verified: true")', 'print("verified: yes")', "tests/test_golden.py",
     None),
    ("cli.py", "print(f\"not_in_S {doc['reason']}\")", "print(f\"not_in_S {doc['value']}\")",
     "tests/test_golden.py", None),
    ("cli.py", '" ".join(f"{k}={v}"', '", ".join(f"{k}={v}"', "tests/test_golden.py", None),
    # the set-A document names j's value k and k's value j
    ("cli.py", '("j", "k", "p1", "p2", "p3")', '("k", "j", "p1", "p2", "p3")',
     "tests/test_golden.py", None),
    # an unwritable stdout read as "not in S"
    ("cli.py", "        code = EXIT_USAGE\n", "        code = EXIT_NEGATIVE\n",
     "tests/test_cli.py::TestUnwritableOutput", None),
    # seed -1 would draw the sample of seed 1
    ("verification.py", "if seed < 0:", "if seed < -1:",
     "tests/test_verification.py::TestScanRandom::test_a_negative_seed_is_refused", None),
    # two jobs on one CPU would start a pool of two
    ("verification.py", "    if jobs > 1:", "    if jobs > 2:",
     "tests/test_verification.py::TestPool::test_two_jobs_on_one_cpu_start_no_pool", None),
    # jobs 0 would run serially and pass
    ("verification.py", "if jobs < 1:", "if jobs < 0:",
     "tests/test_verification.py::TestInvalidSizes", None),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "demos"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _environment(work: Path) -> dict:
    path = [str(work / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    # no bytecode cache: a restored module the size of its mutant, written in
    # the same second, would otherwise load the mutant's stale .pyc
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    loaded = subprocess.run(
        [sys.executable, "-c", "import c4x4det; print(c4x4det.__file__)"],
        capture_output=True, text=True, env=env, cwd=work, check=True,
    ).stdout.strip()
    if not Path(loaded).resolve().is_relative_to(work.resolve()):
        raise SystemExit(f"the sweep would test {loaded}, not the mutated copy in {work}")
    return env


def _pytest(work: Path, env: dict, target: str) -> int | None:
    """pytest's exit status on ``target``, or None when it runs past ``TIMEOUT_S``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", target]
    try:
        return subprocess.run(
            command, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def _imports(work: Path, env: dict, module: str) -> bool:
    """Does the mutated ``module`` import in a fresh interpreter?"""
    name = "c4x4det." + module.removesuffix(".py")
    return subprocess.run(
        [sys.executable, "-c", f"import {name}"], cwd=work, env=env, capture_output=True
    ).returncode == 0


def _baseline(work: Path, env: dict) -> bool:
    """Does every distinct target pass on the unmutated copy?"""
    ok = True
    for target in dict.fromkeys(mutant[3] for mutant in MUTANTS):
        start = time.perf_counter()
        code = _pytest(work, env, target)
        outcome = {0: "passed", None: "timed out"}.get(code, f"FAILED (pytest exit {code})")
        ok = ok and code == 0
        print(f"{outcome:9} {time.perf_counter() - start:5.1f}s  unmutated  [{target}]", flush=True)
    return ok


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="c4x4det-mutate-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        stale = [(module, old) for module, old, *_ in MUTANTS
                 if (work / "src" / "c4x4det" / module).read_text().count(old) != 1]
        for module, old in stale:
            print(f"{module}: {old!r} must occur exactly once")
        if stale:
            return 1
        env = _environment(work)
        if not _baseline(work, env):
            print("a target fails without a mutation; no mutant was run")
            return 1
        for module, old, new, target, equivalent in MUTANTS:
            path = work / "src" / "c4x4det" / module
            original = path.read_text()
            path.write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                code = _pytest(work, env, target)
                if code not in (None, 0, 1) and not _imports(work, env, module):
                    code = "import"
            finally:
                path.write_text(original)
            outcome = {None: "killed", 0: "survived", 1: "killed",
                       "import": "killed (fails to import)"}.get(
                code, f"error (pytest exit {code})")
            if outcome == "survived" and equivalent:
                outcome = f"declared-equivalent ({equivalent})"
            elif not outcome.startswith("killed"):
                bad += 1
            print(f"{outcome:9} {time.perf_counter() - start:5.1f}s  {module}: "
                  f"{old!r} -> {new!r}  [{target}]", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} survived or errored")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
