"""In-memory spans around the calls the benchmark makes into c4x4det.

The tracer replaces module attributes (the names each c4x4det module looks up
at call time) with thin wrappers, so calls between modules are recorded too.
Nothing under ``src/`` is edited: :meth:`Tracer.patch` swaps attributes in
the traced process only.

A span is recorded only while an operation span is open (see :meth:`op`), so
the benchmark's own checking calls are never counted as program work.  Every
span feeds exact per-name aggregates (calls, inclusive and self time); the
first ``raw_cap`` spans are also kept verbatim and written out by
:meth:`dump`.
"""

from __future__ import annotations

import json
import time
from collections import Counter

_NS = time.perf_counter_ns


class Tracer:
    def __init__(self, raw_cap: int = 50_000):
        self.stack = []  # open spans: [span_id, name, child_ns]
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()  # named tallies that notes add to
        self.raw = []  # (span_id, parent_id, op_index, name, start_ns, end_ns)
        self.raw_cap = raw_cap
        self.dropped = 0
        self.op_index = -1
        self._next_id = 0

    def _close(self, frame, start, end, name):
        dur = end - start
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.raw) < self.raw_cap:
            self.raw.append(
                (frame[0], parent[0] if parent else None, self.op_index, name, start, end)
            )
        else:
            self.dropped += 1

    def _run(self, name, fn, note, args, kwargs):
        frame = [self._next_id, name, 0]
        self._next_id += 1
        self.stack.append(frame)
        start = _NS()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = _NS()
            self.stack.pop()
            self._close(frame, start, end, name)
            raise
        end = _NS()
        self.stack.pop()
        if note is not None:
            name = note(self, args, result) or name
            frame[1] = name
        self._close(frame, start, end, name)
        return result

    def wrap(self, name, fn, note=None):
        """fn wrapped in a span; ``note(tracer, args, result)`` may rename it."""

        def traced(*args, **kwargs):
            if not self.stack:  # outside an operation: not program work
                return fn(*args, **kwargs)
            return self._run(name, fn, note, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def op(self, name, fn, *args, **kwargs):
        """Run one closed-loop operation as a root span; returns fn's result."""
        self.op_index += 1
        return self._run(name, fn, None, args, kwargs)

    def patch(self, module, attr, name, note=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), note))

    def summary(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_ms": self.total_ns[name] / 1e6,
                "self_ms": self.self_ns[name] / 1e6,
            }
            for name in sorted(self.calls)
        }

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["aggregates"] = self.summary()
        doc["counts"] = dict(self.counts)
        doc["spans_fields"] = ["id", "parent", "op", "name", "start_ns", "end_ns"]
        doc["spans"] = self.raw
        doc["spans_dropped"] = self.dropped
        with open(path, "w") as fh:
            json.dump(doc, fh)


# --- per-layer metrics from span aggregates -----------------------------------

FAMILIES = ("odd_16m_plus_1", "set_a", "pow2_15", "pow2_16", "not_in_s")


def merge(summaries) -> dict:
    """Sum several :meth:`Tracer.summary` dicts (one per traced process)."""
    out = {}
    for summary in summaries:
        for name, agg in summary.items():
            acc = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            for key in acc:
                acc[key] += agg[key]
    return out


def layer_metrics(agg: dict, counts: dict, root: str) -> dict:
    """Per-layer numbers, keyed by module, from merged aggregates.

    Times are inclusive means per call; a layer the workload never calls
    reads 0.  Shares are fractions of the operations' (root spans') time.
    """
    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def total_ms(name):
        return agg.get(name, {}).get("total_ms", 0.0)

    def mean_us(name):
        return total_ms(name) * 1e3 / calls(name) if calls(name) else 0.0

    def prefixed(prefix):
        return [name for name in agg if name.startswith(prefix)]

    root_ms = total_ms(root) or 1.0
    routes = ("gdet.det16_direct", "gdet.det16_spectral", "gdet.det16_factored")
    classify = prefixed("classifier.")
    classify_calls = sum(calls(name) for name in classify)
    scan = root.startswith("verification.")
    m = {
        "core.derive_us": mean_us("core.derive"),
        "gdet.det16_direct_us": mean_us("gdet.det16_direct"),
        "gdet.det16_spectral_us": mean_us("gdet.det16_spectral"),
        "gdet.det16_factored_us": mean_us("gdet.det16_factored"),
        "gdet.share": sum(total_ms(name) for name in routes) / root_ms,
        "numtheory.factorize_us": mean_us("numtheory.factorize"),
        "numtheory.signed_divisors_us": mean_us("numtheory.signed_divisors"),
        "numtheory.divisor_count": (
            counts.get("numtheory.divisors_returned", 0) / calls("numtheory.signed_divisors")
            if calls("numtheory.signed_divisors") else 0.0
        ),
        "numtheory.two_squares_us": mean_us("numtheory.two_squares"),
    }
    for family in FAMILIES:
        m[f"classifier.{family}_us"] = mean_us(f"classifier.cold.{family}")
    m["classifier.repeat_ratio"] = (
        calls("classifier.hit") / classify_calls if classify_calls else 0.0
    )
    m["classifier.share"] = sum(total_ms(name) for name in classify) / root_ms
    m["witness.plan_us"] = mean_us("witness.plan")
    m["witness.emit_us"] = mean_us("witness.emit")
    m["witness.recheck_us"] = mean_us("witness.recheck")
    m["witness.cases_covered"] = sum(1 for key in counts if key.startswith("witness.case."))
    m["verification.harness_share"] = (
        agg[root]["self_ms"] / root_ms if scan and root in agg else 0.0
    )
    m["cli.main_ms"] = mean_us("cli.main") / 1e3
    return m
