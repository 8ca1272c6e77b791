import concurrent.futures
import importlib
import json
import os
import random
import re
from itertools import islice, product

import identities
import pytest
from oracles import Poly

from c4x4det import cli, gdet, verification
from c4x4det.classifier import NotInS, Reason, classify
from c4x4det.errors import InternalMismatchError
from c4x4det.gdet import det16_direct, det16_factored, det16_spectral
from c4x4det.verification import scan_exhaustive, scan_random, window_roundtrip

witness_module = importlib.import_module("c4x4det.witness")

# Bounds at the edges of randint's rejection loop, n = 2 * bound + 1 values
# drawn k = n.bit_length() bits at a time: n = 1 and 3; n = 17, which keeps
# 17 of 32 draws; n = 19; n = 31, which keeps 31 of 32; n = 127 and 255, the
# widest draws (k = 7 and 8) that _draw reads from a word's top byte; n = 257
# (k = 9), the narrowest it filters; k = 32, one word a draw; k = 33, two
# words a draw; and two wide multi-word bounds.
STREAM_BOUNDS = [0, 1, 8, 9, 15, 63, 127, 128, 2**31 - 1, 2**31, 10**9, 10**30]
ROUTES = ("det16_factored", "det16_direct", "det16_spectral")


def drawn_tuples(count, bound, seed):
    """The tuples scan_random(count, bound, seed) checks, drawn by randint, in order."""
    tuples = []
    for block, lo in enumerate(range(0, count, 4096)):
        rng = random.Random(seed * (1 << 32) + block)
        tuples += [tuple(rng.randint(-bound, bound) for _ in range(16))
                   for _ in range(min(4096, count - lo))]
    return tuples


class TestScanExhaustive:
    def test_single_tuple_support(self):
        report = scan_exhaustive({0})
        assert report.tuples_checked == 1
        assert report.distinct_values == 1
        assert report.seen_values == {0}
        assert report.ok

    def test_binary_support_small_limit(self):
        report = scan_exhaustive((0, 1), limit=5000)
        assert report.tuples_checked == 5000
        assert report.ok

    def test_ternary_support_limited(self):
        report = scan_exhaustive((-1, 0, 1), limit=30000)
        assert report.tuples_checked == 30000
        assert report.ok

    def test_limit_beyond_total_caps_at_total(self):
        report = scan_exhaustive({0, 1}, limit=10**9)
        assert report.tuples_checked == 2**16

    def test_jobs_partition_matches_serial(self):
        serial = scan_exhaustive((0, 1), limit=4000, jobs=1)
        parallel = scan_exhaustive((0, 1), limit=4000, jobs=2)
        assert serial.tuples_checked == parallel.tuples_checked
        assert serial.seen_values == parallel.seen_values
        assert serial.violations == parallel.violations

    def test_summary_and_json(self):
        report = scan_exhaustive((0, 1), limit=100)
        assert "PASS" in report.summary()
        assert list(report.json_lines()) == []

    def test_block_boundary_matches_brute_force(self):
        # blocks of 1000 over range(10): the limit ends 234 tuples into the
        # second block, whose prefix differs from the first in its last entry
        tuples = list(islice(product(range(10), repeat=16), 1234))
        report = scan_exhaustive(range(10), limit=1234)
        assert report.tuples_checked == len(tuples) == 1234
        assert report.seen_values == set(map(det16_spectral, tuples))

    def test_support_wider_than_a_block(self, monkeypatch):
        # 5000 > 4096 entries: a block still runs the last entry over the support
        report = scan_exhaustive(range(5000), limit=3)
        assert report.tuples_checked == 3
        assert report.seen_values == {0, 1, 2**16}  # last entry 0, 1, 2
        assert report.ok
        blocks = []
        monkeypatch.setattr(verification, "_run_blocks", lambda fn, bl, jobs: blocks.extend(bl))
        scan_exhaustive(range(5000), limit=7000)
        wide = tuple(range(5000))
        assert blocks == [(wide, (0,) * 15, 5000), (wide, (0,) * 14 + (1,), 2000)]

    def test_single_entry_support_is_one_block(self, monkeypatch):
        blocks = []
        monkeypatch.setattr(verification, "_run_blocks", lambda fn, bl, jobs: blocks.extend(bl))
        scan_exhaustive({5})
        assert blocks == [((5,), (), 1)]


class TestScansCallTheKernels:
    """The scans give the reports of the public routes and ``classify``.

    They call the unchecked route kernels and the unbounded classify cache
    on tuples they built of ints; a reference loop over the checked public
    routes and ``classify(v, envelope=None)`` must give the same report.
    """

    @staticmethod
    def reference(tuples):
        violations, seen = [], set()
        for a in tuples:
            value = det16_factored(a)
            assert det16_direct(a) == value == det16_spectral(a), a
            seen.add(value)
            cls = classify(value, envelope=None)
            if isinstance(cls, NotInS):
                violations.append((a, value, cls))
        return len(tuples), violations, seen

    @staticmethod
    def outcome(report):
        return report.tuples_checked, list(report.violations), set(report.seen_values)

    @pytest.mark.parametrize("support, limit", [
        ((-1, 0, 1), 5000), ((0, 1, 2), 3000), (range(-3, 4), 2500),
    ], ids=["-1..1", "0..2", "-3..3"])
    def test_exhaustive_scan(self, support, limit):
        # each limit ends inside the second block or later
        tuples = list(islice(product(sorted(support), repeat=16), limit))
        assert self.outcome(scan_exhaustive(support, limit=limit)) == self.reference(tuples)

    @pytest.mark.parametrize("count, bound, seed", [
        (4096 + 300, 9, 3), (500, 1, 0), (300, 1000, 7),
    ])
    def test_random_scan(self, count, bound, seed):
        tuples = drawn_tuples(count, bound, seed)
        assert self.outcome(scan_random(count, bound, seed)) == self.reference(tuples)

    @pytest.mark.parametrize("support, bad", [
        ([0.5, 1], 0.5), ([1, True], True), (["1"], "1"), ([0, "a", 1.5], "a"),
    ], ids=["float", "bool-beside-its-int", "str", "first-in-input-order"])
    def test_a_support_entry_that_is_not_an_int_raises_before_any_block(
            self, monkeypatch, support, bad):
        # the entries are checked as given: a set would fold True into 1
        def refuse(args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(verification, "_exhaustive_block", refuse)
        message = f"^coefficients must be exact integers, got {re.escape(repr(bad))}$"
        with pytest.raises(TypeError, match=message):
            scan_exhaustive(support, limit=10)

    @pytest.mark.parametrize("scan, args, kwargs, bad", [
        # a float seed draws a stream that no int seed draws
        (scan_random, (10, 9, 0.5), {}, 0.5),
        (scan_random, (10, True, 0), {}, True),
        (scan_random, (10, 9.5, 0), {}, 9.5),
        (scan_random, (10.0, 9, 0), {}, 10.0),
        (scan_random, (10, 9, 0), {"jobs": 2.0}, 2.0),
        (scan_exhaustive, ((0, 1),), {"limit": True}, True),
        (scan_exhaustive, ((0, 1),), {"limit": 2.5}, 2.5),
        (scan_exhaustive, ((0, 1),), {"limit": 10, "jobs": 1.0}, 1.0),
    ], ids=["seed", "bound-bool", "bound", "count", "random-jobs", "limit-bool", "limit",
            "exhaustive-jobs"])
    def test_a_scan_argument_that_is_not_an_int_raises_before_any_block(
            self, monkeypatch, scan, args, kwargs, bad):
        def refuse(args):
            raise AssertionError("a block ran")

        for block in ("_random_block", "_exhaustive_block"):
            monkeypatch.setattr(verification, block, refuse)
        with pytest.raises(TypeError, match=f"^expected an exact integer, got {bad!r}$"):
            scan(*args, **kwargs)


class _Future:
    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args = pool, fn, args

    def result(self):
        self.pool.pending -= 1
        return self.fn(self.args)


class FakeExecutor:
    """Stands in for ProcessPoolExecutor in-process; starts no process.

    It records ``max_workers``, every submitted block in order, the peak
    number of submitted but unread blocks, and whether ``__exit__`` ran.
    """

    instances: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = []
        self.pending = self.peak_pending = 0
        self.exited = False
        FakeExecutor.instances.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.exited = True
        return False

    def submit(self, fn, args):
        self.submitted.append(args)
        self.pending += 1
        self.peak_pending = max(self.peak_pending, self.pending)
        return _Future(self, fn, args)

    def map(self, fn, items):
        raise AssertionError("Executor.map submits every block eagerly")


@pytest.fixture
def fake_pool(monkeypatch):
    FakeExecutor.instances = []
    # _run_blocks imports the executor when it makes a pool, so patch its home
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return FakeExecutor.instances


def _count_block(args):
    # stands in for _exhaustive_block: counts the block without scanning it
    _, prefix, count = args
    return count, [], {prefix}


class TestPool:
    def test_jobs_clamped_to_cpu_count(self, fake_pool):
        report = scan_exhaustive((0, 1), limit=100, jobs=64)
        assert [p.max_workers for p in fake_pool] == [4]
        assert report.tuples_checked == 100 and report.ok

    def test_a_serial_scan_never_asks_for_the_cpu_count(self, monkeypatch):
        def refused():
            raise AssertionError("os.cpu_count() called")

        monkeypatch.setattr(os, "cpu_count", refused)
        assert scan_random(10, 3, seed=0).ok
        assert scan_exhaustive((0, 1), limit=100).ok

    def test_two_jobs_on_one_cpu_start_no_pool(self, fake_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert scan_random(10, 3, seed=0, jobs=2).ok
        assert fake_pool == []

    def test_jobs_within_cpu_count_kept(self, fake_pool):
        scan_random(10, 3, seed=0, jobs=3)
        assert [p.max_workers for p in fake_pool] == [3]

    def test_pool_exits_when_a_block_raises(self, fake_pool):
        def boom(args):
            raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            verification._run_blocks(boom, [(0,), (1,)], jobs=2)
        assert fake_pool[0].exited

    @pytest.mark.parametrize("blocks", [3, 40])
    def test_pending_blocks_bounded(self, fake_pool, monkeypatch, blocks):
        # ten entries: each block fixes 13 entries and runs the last 3 (1000 tuples)
        monkeypatch.setattr(verification, "_exhaustive_block", _count_block)
        report = scan_exhaustive(range(10), limit=blocks * 1000 - 1, jobs=2)
        pool = fake_pool[0]
        assert pool.peak_pending <= 2 * 2
        # every block submitted once, in order, and merged in that order
        prefixes = list(islice(product(range(10), repeat=13), blocks))
        assert [prefix for _, prefix, _ in pool.submitted] == prefixes
        assert [count for _, _, count in pool.submitted] == [1000] * (blocks - 1) + [999]
        assert report.tuples_checked == blocks * 1000 - 1
        assert report.seen_values == set(prefixes)

    def test_unlimited_scan_yields_blocks_lazily(self, monkeypatch):
        # 10**16 tuples: a list of block descriptors would never fit in memory
        first = []

        def take_first(block_fn, blocks, jobs):
            first.append(next(iter(blocks)))
            return None

        monkeypatch.setattr(verification, "_run_blocks", take_first)
        scan_exhaustive(range(10))
        assert first == [(tuple(range(10)), (0,) * 13, 1000)]


class TestScanRandom:
    def test_deterministic_under_seed(self):
        r1 = scan_random(500, 9, seed=42)
        r2 = scan_random(500, 9, seed=42)
        assert r1.seen_values == r2.seen_values
        assert r1.ok and r2.ok

    def test_jobs_do_not_change_the_sample(self):
        serial = scan_random(600, 5, seed=7, jobs=1)
        parallel = scan_random(600, 5, seed=7, jobs=3)
        assert serial.seen_values == parallel.seen_values

    @pytest.mark.parametrize("bound", STREAM_BOUNDS)
    def test_draws_the_randint_stream(self, monkeypatch, bound):
        # each block's generator, seeded by (seed, block), deals out 16 randint
        # draws per tuple; the second block of 4096 + 37 tuples is short
        drawn = []
        monkeypatch.setattr(verification, "det16_factored", lambda a: drawn.append(a) or 0)
        for route in ("det16_direct", "det16_spectral"):
            monkeypatch.setattr(verification, route, lambda a: 0)
        count, seed = 4096 + 37, 5
        assert scan_random(count, bound, seed).tuples_checked == count
        expected = []
        for block, size in enumerate((4096, 37)):
            rng = random.Random(seed * (1 << 32) + block)
            expected += [tuple(rng.randint(-bound, bound) for _ in range(16)) for _ in range(size)]
        assert drawn == expected

    @pytest.mark.parametrize("count", [1, 16, 17, 65536])
    @pytest.mark.parametrize("bound", STREAM_BOUNDS)
    def test_bulk_draw_is_randrange_call_for_call(self, bound, count):
        # equal states afterwards: the bulk draw consumed exactly the
        # getrandbits calls that randrange makes
        bulk, single = random.Random(bound + count), random.Random(bound + count)
        assert verification._draw(bulk, bound, count) == [
            single.randrange(-bound, bound + 1) for _ in range(count)
        ]
        assert bulk.getstate() == single.getstate()

    def test_getrandbits_is_the_words_the_byte_path_reads(self):
        # _draw's byte path rests on two facts of CPython's getrandbits, each
        # checked here on twin generators: getrandbits(k <= 32) is one 32-bit
        # word shifted right by 32 - k, and getrandbits(32 * w) packs w
        # successive words, the first least significant
        for k in range(1, 33):
            shifted, whole = random.Random(k), random.Random(k)
            assert shifted.getrandbits(k) == whole.getrandbits(32) >> (32 - k)
            assert shifted.getstate() == whole.getstate()
        for w in (1, 2, 3, 512):
            packed, single = random.Random(w), random.Random(w)
            words = [single.getrandbits(32) for _ in range(w)]
            assert packed.getrandbits(32 * w) == sum(x << (32 * i) for i, x in enumerate(words))
            assert packed.getstate() == single.getstate()

    def test_a_negative_seed_is_refused(self):
        # random.Random(-s) seeds as Random(s) does, so seed -s would repeat
        # the sample of seed s
        with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
            scan_random(5, 9, seed=-1)

    def test_zero_bound(self):
        report = scan_random(1, 0, seed=0)
        assert report.seen_values == {0}
        assert report.ok

    def test_wider_bound(self):
        assert scan_random(1500, 50, seed=7).ok


class TestWindowRoundtrip:
    def test_odd_window(self):
        window = range(-4001, 4002, 2)
        report = window_roundtrip(window)
        assert report.ok
        # every 1-mod-16 value in the window must have been witnessed
        assert report.distinct_values >= len([n for n in window if n % 16 == 1])

    def test_pow2_16_window(self):
        values = [2**16 * m for m in range(-100, 101)]
        report = window_roundtrip(values)
        assert report.ok and report.distinct_values == len(values)

    def test_pow2_15_window(self):
        values = [2**15 * 5 * (2 * m + 1) for m in range(-20, 21)]
        report = window_roundtrip(values)
        assert report.ok and report.distinct_values == len(values)

    def test_counts_witnessed_values(self):
        window = range(-50, 51)
        report = window_roundtrip(window)
        accepted = {n for n in window if not isinstance(classify(n), NotInS)}
        assert len(accepted) == 8
        assert report.seen_values == accepted
        assert report.tuples_checked == report.distinct_values == 8
        assert report.summary().startswith("PASS: 8 tuples, 8 distinct values,")

    def test_all_rejected_window_passes(self):
        report = window_roundtrip(n for n in (3, 5, 7, -3))
        assert report.ok and report.tuples_checked == 0 and not report.seen_values

    def test_classifies_each_value_once(self, monkeypatch):
        calls = []

        def counted(n, envelope=None):
            calls.append(n)
            return classify(n, envelope=envelope)

        monkeypatch.setattr(verification, "classify", counted)
        monkeypatch.setattr(witness_module, "classify", counted)
        report = window_roundtrip(range(-20, 21))
        assert report.ok
        assert sorted(calls) == list(range(-20, 21))


@pytest.fixture
def broken_norms(monkeypatch):
    """Corrupt the beta norm the identities read: bn + 4."""
    real = identities.beta_gamma_norms

    def broken(d):
        bn, gn = real(d)
        return bn + 4, gn

    monkeypatch.setattr(identities, "beta_gamma_norms", broken)


NORM_AGREEMENT = identities.IDENTITIES.index(identities.norm_formula_agreement)


class TestLemmaSuites:
    """The sampled lemma identities of ``tests/identities.py``."""

    def test_all_pass(self):
        for index, identity in enumerate(identities.IDENTITIES):
            assert identities.failures(index, 400, seed=11) == [], identity.__name__

    def test_deterministic(self, broken_norms):
        # a failure replays from (identity, seed): same messages, same inputs
        first = identities.failures(NORM_AGREEMENT, 50, seed=3)
        assert first and first == identities.failures(NORM_AGREEMENT, 50, seed=3)
        assert first != identities.failures(NORM_AGREEMENT, 50, seed=4)

    def test_covers_every_suite(self):
        names = {identity.__name__ for identity in identities.IDENTITIES}
        assert len(names) == len(identities.IDENTITIES) == 12
        assert names == {
            "rotation_antisymmetry",
            "derived_congruences",
            "half_swap_invariance",
            "parity_alignment",
            "norm_formula_agreement",
            "sum_square_difference",
            "cross_term_congruences",
            "odd_pattern_mod16",
            "valuation_classes",
            "odd_product_mod16",
            "norm_difference_mod16",
            "constrained_norm_product",
        }

    def test_broken_norms_fail_norm_agreement(self, broken_norms):
        # negative control: the identity must catch a corrupted norm formula
        found = identities.failures(NORM_AGREEMENT, 100, seed=0)
        assert len(found) == 100
        assert all(msg.startswith("norm formulas disagree") for msg in found)


class _FreeVariables:
    """Stands in for ``random.Random``: each ``randint`` draws a new free variable."""

    def __init__(self):
        self.drawn = 0
        self._variables = iter(Poly.variables(8))

    def randint(self, low, high):
        self.drawn += 1
        return next(self._variables)


class TestLemmaIdentitiesSymbolically:
    """The four suites that are polynomial identities, proven on free variables.

    Each suite runs unmodified on ``oracles.Poly`` variables, so it compares
    the exact expansions of both sides: the identity holds for every input,
    not only for the sampled ones.
    """

    @pytest.mark.parametrize("identity, variables", [
        (identities.rotation_antisymmetry, 4),
        (identities.half_swap_invariance, 8),
        (identities.norm_formula_agreement, 8),
        (identities.sum_square_difference, 8),
    ], ids=lambda x: getattr(x, "__name__", str(x)))
    def test_holds_on_free_variables(self, identity, variables):
        draws = _FreeVariables()
        assert identity(draws) is None
        assert draws.drawn == variables

    def test_broken_norms_fail_symbolically(self, broken_norms):
        assert identities.norm_formula_agreement(_FreeVariables()).startswith(
            "norm formulas disagree")

    def test_broken_det4_fails_symbolically(self, monkeypatch):
        real = identities.det4
        monkeypatch.setattr(identities, "det4", lambda x0, x1, x2, x3: real(x0, x1, x2, x3) + x0)
        assert identities.rotation_antisymmetry(_FreeVariables()).startswith(
            "rotation antisymmetry fails")


class TestInvalidSizes:
    @pytest.mark.parametrize("call", [
        lambda: scan_random(0, 9, 0),
        lambda: scan_random(-5, 1, 0),
        lambda: scan_random(5, -1, 0),
        lambda: scan_exhaustive((0, 1), limit=0),
        lambda: scan_exhaustive((0, 1), limit=-3),
        lambda: scan_exhaustive(()),
        lambda: window_roundtrip([]),
        lambda: window_roundtrip(n for n in ()),
        lambda: scan_random(10, 9, 0, jobs=-3),
        lambda: scan_exhaustive((0, 1), limit=5, jobs=0),
    ], ids=["count-0", "count-neg", "bound-neg", "limit-0", "limit-neg", "empty-support",
            "empty-window", "empty-window-generator", "random-jobs-neg", "exhaustive-jobs-0"])
    def test_raises_value_error(self, call):
        with pytest.raises(ValueError, match="must be"):
            call()


def _reject_odd(n, envelope=None):
    if n % 2 == 1:
        return NotInS(Reason.ODD_BAD_RESIDUE)
    return classify(n, envelope=envelope)


class TestScanFindsClassifierRegressions:
    def test_violation_is_reported_not_raised(self, monkeypatch):
        # a scan over a corrupted classifier must report, not crash
        monkeypatch.setattr(verification, "classify", _reject_odd)
        report = verification.scan_exhaustive((0, 1), limit=300)
        assert not report.ok
        assert all(json.loads(line)["detail"] for line in report.json_lines())

    def test_violations_match_brute_force_in_order(self, monkeypatch):
        # a block over {0, 1} fixes the first 4 entries and runs the last 12:
        # 300 tuples stay in the first block, 2 * 4096 + 300 reach a third,
        # so the order across blocks shows too
        monkeypatch.setattr(verification, "classify", _reject_odd)
        for limit, blocks in ((300, 1), (2 * 4096 + 300, 3)):
            expected = []
            for a in islice(product((0, 1), repeat=16), limit):
                value = det16_spectral(a)
                cls = _reject_odd(value)
                if isinstance(cls, NotInS):
                    expected.append((a, value, cls))
            assert len({a[:4] for a, _, _ in expected}) == blocks
            assert list(scan_exhaustive((0, 1), limit=limit).violations) == expected

    @staticmethod
    def drawn_violations(count, bound, seed):
        """(a, value, reason) for each drawn tuple that ``_reject_odd`` refuses, in draw order."""
        expected = []
        for a in drawn_tuples(count, bound, seed):
            value = det16_spectral(a)
            cls = _reject_odd(value)
            if isinstance(cls, NotInS):
                expected.append((a, value, cls))
        return expected

    def test_random_violations_are_the_drawn_tuples_in_order(self, monkeypatch):
        # 4096 + 50 tuples: the second block's violations follow the first's
        monkeypatch.setattr(verification, "classify", _reject_odd)
        expected = self.drawn_violations(4096 + 50, 9, 2)
        first = self.drawn_violations(4096, 9, 2)
        assert first and len(expected) > len(first)
        report = scan_random(4096 + 50, 9, 2)
        assert not report.ok
        assert list(report.violations) == expected

    def test_random_scan_prints_each_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "classify", _reject_odd)
        expected = self.drawn_violations(40, 9, 0)
        assert expected
        assert cli.main(["scan", "--random", "40"]) == 1
        summary, *lines = capsys.readouterr().out.splitlines()
        assert summary.startswith("FAIL: 40 tuples, ")
        assert f", {len(expected)} violations, " in summary
        assert [json.loads(line) for line in lines] == [
            {"coefficients": list(a), "value": str(value), "detail": str(cls)}
            for a, value, cls in expected
        ]


class TestRouteDisagreement:
    """A random scan in which one route is wrong on chosen tuples.

    ``classify`` is ``_reject_odd``, so route violations and rejections
    both occur; the report must equal a reference loop over the drawn
    tuples, and a tuple whose routes disagree must never be classified.
    """

    # 4096 + 50 tuples: the first block disagrees at its first two tuples,
    # one inner tuple and its last; the second block has no disagreement
    COUNT, BOUND, SEED = 4096 + 50, 9, 4
    WRONG_AT = (0, 1, 1500, 4095)

    @staticmethod
    def reference(tuples, wrong, route):
        violations, classified, seen = [], [], set()
        for a in tuples:
            value = det16_factored(a)
            got = {r: value + (r == route and a in wrong) for r in ROUTES}
            seen.add(got["det16_factored"])
            if a in wrong:
                violations.append((
                    a,
                    got["det16_factored"],
                    f"determinant routes disagree: direct={got['det16_direct']} "
                    f"factored={got['det16_factored']} spectral={got['det16_spectral']}",
                ))
                continue
            classified.append(value)
            cls = _reject_odd(value)
            if isinstance(cls, NotInS):
                violations.append((a, value, cls))
        return violations, classified, seen

    @pytest.mark.parametrize("route", ROUTES)
    def test_violations_interleave_in_tuple_order(self, monkeypatch, route):
        tuples = drawn_tuples(self.COUNT, self.BOUND, self.SEED)
        wrong = {tuples[i] for i in self.WRONG_AT}
        kernel = getattr(verification, route)
        monkeypatch.setattr(verification, route, lambda a: kernel(a) + (a in wrong))
        classified = []
        monkeypatch.setattr(verification, "classify",
                            lambda n: classified.append(n) or _reject_odd(n))
        report = scan_random(self.COUNT, self.BOUND, self.SEED)
        expected, expected_classified, seen = self.reference(tuples, wrong, route)
        # route violations (str details) first, then rejections, then both
        kinds = [isinstance(detail, str) for _, _, detail in expected]
        assert kinds[:3] == [True, True, False] and True in kinds[3:]
        assert list(report.violations) == expected
        assert classified == expected_classified
        assert (report.tuples_checked, report.seen_values) == (self.COUNT, seen)

    def test_a_lone_disagreement_fails_the_scan(self, monkeypatch):
        # the true classifier accepts every value: the one violation is a route's
        bad = drawn_tuples(40, self.BOUND, self.SEED)[7]
        kernel = verification.det16_direct
        monkeypatch.setattr(verification, "det16_direct", lambda a: kernel(a) + (a == bad))
        value = det16_factored(bad)
        message = (f"determinant routes disagree: direct={value + 1} "
                   f"factored={value} spectral={value}")
        assert list(scan_random(40, self.BOUND, self.SEED).violations) == [(bad, value, message)]

    @pytest.mark.parametrize("route", ROUTES)
    def test_a_kernel_that_raises_mid_block_raises_the_same(self, monkeypatch, route):
        tuples = drawn_tuples(self.COUNT, self.BOUND, self.SEED)
        bad = tuples[4096 + 20]
        kernel = getattr(verification, route)

        def raising(a):
            if a == bad:
                raise InternalMismatchError(f"{route} failed on {list(a)}")
            return kernel(a)

        monkeypatch.setattr(verification, route, raising)
        with pytest.raises(InternalMismatchError) as info:
            scan_random(self.COUNT, self.BOUND, self.SEED)
        assert str(info.value) == f"{route} failed on {list(bad)}"

    def test_a_spectral_imaginary_part_mid_block_raises_its_own_message(self, monkeypatch):
        # block 3 replaced by block 1 on one tuple: the spectral kernel's own
        # check fails there, with the message the public route gives
        tuples = drawn_tuples(self.COUNT, self.BOUND, self.SEED)
        bad = tuples[2000]
        blocks = gdet.spectral_factors

        def corrupt(a):
            f0, f1, f2, f3 = blocks(a)
            return (f0, f1, f2, f1) if a == bad else (f0, f1, f2, f3)

        monkeypatch.setattr(gdet, "spectral_factors", corrupt)
        with pytest.raises(InternalMismatchError, match="nonzero imaginary part") as expected:
            det16_spectral(bad)
        with pytest.raises(InternalMismatchError) as info:
            scan_random(self.COUNT, self.BOUND, self.SEED)
        assert str(info.value) == str(expected.value)
