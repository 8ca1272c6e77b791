import concurrent.futures
import json
import os

import pytest

from c4x4det import verification
from c4x4det.classifier import NotInS, classify
from c4x4det.verification import (
    lemma_suites,
    scan_exhaustive,
    scan_random,
    window_roundtrip,
)


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
    _, lo, hi = args
    return hi - lo, [], {lo}


class TestPool:
    def test_jobs_clamped_to_cpu_count(self, fake_pool):
        report = scan_exhaustive((0, 1), limit=100, jobs=64)
        assert [p.max_workers for p in fake_pool] == [4]
        assert report.tuples_checked == 100 and report.ok

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
        monkeypatch.setattr(verification, "_exhaustive_block", _count_block)
        report = scan_exhaustive(range(10), limit=blocks * 16384, jobs=2)
        pool = fake_pool[0]
        assert pool.peak_pending <= 2 * 2
        # every block submitted once, in order, and merged in that order
        assert [lo for _, lo, _ in pool.submitted] == [16384 * i for i in range(blocks)]
        assert report.tuples_checked == blocks * 16384
        assert report.seen_values == {16384 * i for i in range(blocks)}

    def test_unlimited_scan_yields_blocks_lazily(self, monkeypatch):
        # 10**16 tuples: a list of block descriptors would never fit in memory
        first = []

        def take_first(block_fn, blocks, jobs):
            first.append(next(iter(blocks)))
            return None

        monkeypatch.setattr(verification, "_run_blocks", take_first)
        scan_exhaustive(range(10))
        assert first == [(tuple(range(10)), 0, 16384)]


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

    def test_observed_cross_check_flags_rejected_values(self):
        report = window_roundtrip([7], observed={7})
        assert not report.ok
        line = json.loads(next(report.json_lines()))
        assert line["value"] == "7"

    def test_observed_cross_check_passes_when_disjoint(self):
        assert window_roundtrip([7], observed={9}).ok


class TestLemmaSuites:
    def test_all_pass(self):
        report = lemma_suites(400, seed=11)
        assert report.ok
        assert all(samples == 400 for _, samples, _ in report.results)
        assert "PASS" in report.summary()
        assert list(report.json_lines()) == []

    def test_deterministic(self):
        assert lemma_suites(50, seed=3).results == lemma_suites(50, seed=3).results

    def test_covers_every_suite(self):
        names = {name for name, _, _ in lemma_suites(1, seed=0).results}
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


class TestScanFindsClassifierRegressions:
    def test_violation_is_reported_not_raised(self, monkeypatch):
        # a scan over a corrupted classifier must report, not crash
        import c4x4det.verification as verification
        from c4x4det.classifier import Reason

        real = classify

        def reject_odd(n, envelope=None):
            if n % 2 == 1:
                return NotInS(Reason.ODD_BAD_RESIDUE)
            return real(n, envelope=envelope)

        monkeypatch.setattr(verification, "classify", reject_odd)
        report = verification.scan_exhaustive((0, 1), limit=300)
        assert not report.ok
        assert all(json.loads(line)["detail"] for line in report.json_lines())
