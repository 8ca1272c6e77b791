"""One benchmark phase in a fresh interpreter; prints one JSON line.

Run from the repository root with ``PYTHONPATH=src`` (``run.py`` does this):

    python3 bench/worker.py run WORKLOAD SEED --seconds S       # untraced, timed
    python3 bench/worker.py run WORKLOAD SEED --requests N --trace-out PATH
    python3 bench/worker.py cli-probe ARG...                     # one traced cli.main

A timed phase runs ``calibrate.measure`` after every ``calibrate.CHUNK_S`` of
request time and reports each request's time twice: as measured
(``durations``) and scaled to the reference speed (``scaled``).

A fresh interpreter per phase matters: ``classify`` keeps a process-wide LRU
cache, so a second phase in the same process would see warm results that a
user running one scan never sees.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from array import array
from pathlib import Path

_t0 = time.perf_counter()
import c4x4det  # noqa: E402  (timed: this is the program's set-up)

IMPORT_S = time.perf_counter() - _t0

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _call(fn, args, tracer, root):
    if tracer is None:
        return fn(*args)
    return tracer.op(root, fn, *args)


def run_phase(name, seed, seconds, requests, trace_out, corrupt) -> dict:
    cls = workloads.IN_PROCESS[name]
    wl = cls(seed, corrupt=True) if corrupt else cls(seed)
    tracer = None
    if trace_out:
        tracer = tracing.Tracer()
        workloads.install(tracer)
    durations, fingerprint, errors = array("d"), hashlib.sha256(), []
    scaled, calibrations = array("d"), [calibrate.measure()]
    chunk_start, chunk_s = 0, 0.0

    def close_chunk():
        calibrations.append(calibrate.measure())
        f = calibrate.factor(calibrations[-2], calibrations[-1])
        scaled.extend(d * f for d in durations[chunk_start:])

    attempted = failed = accepted = mismatches = 0
    peak_rss_mb = None
    start = time.perf_counter()
    i = 0
    while (i < requests) if requests is not None else (time.perf_counter() - start < seconds):
        fn, args = wl.request(i)
        t = time.perf_counter()
        try:
            result = _call(fn, args, tracer, wl.root_span)
        except Exception as exc:  # a defect in the program: count it, keep measuring
            durations.append(time.perf_counter() - t)
            out = workloads.Outcome(wl.ops_per_request, wl.ops_per_request, repr(exc), repr(exc))
        else:
            durations.append(time.perf_counter() - t)
            out = wl.check(i, result)
        attempted += out.ops
        failed += out.failed
        accepted += out.accepted
        mismatches += out.route_mismatches
        fingerprint.update(out.record.encode() + b"\n")
        if out.error and len(errors) < 5:
            errors.append(out.error)
        i += 1
        if i == wl.rss_requests:
            peak_rss_mb = _peak_rss_mb()
        chunk_s += durations[-1]
        if chunk_s >= calibrate.CHUNK_S:
            close_chunk()
            chunk_start, chunk_s = i, 0.0
    if chunk_start < i:
        close_chunk()
    rss_complete = peak_rss_mb is not None
    if not rss_complete:
        peak_rss_mb = _peak_rss_mb()
    doc = {
        "durations": durations.tolist(),
        "scaled": scaled.tolist(),
        "calibrations": calibrations,
        "requests": i,
        "ops_per_request": wl.ops_per_request,
        "attempted": attempted,
        "failed": failed,
        "accepted": accepted,
        "route_mismatches": mismatches,
        "errors": errors,
        "fingerprint": fingerprint.hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "rss_requests": wl.rss_requests if rss_complete else i,
    }
    if tracer is not None:
        doc["aggregates"] = tracer.summary()
        doc["counts"] = dict(tracer.counts)
        tracer.dump(trace_out, {"workload": name, "seed": seed, "requests": i})
    return doc


def cli_probe(argv) -> dict:
    from c4x4det import cli

    tracer = tracing.Tracer()
    workloads.install(tracer)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = tracer.op("cli.main", cli.main, argv)
    return {
        "import_s": IMPORT_S,
        "stdout": buf.getvalue(),
        "code": code,
        "aggregates": tracer.summary(),
        "counts": dict(tracer.counts),
    }


def main() -> int:
    src = (Path.cwd() / "src").resolve()
    if src not in Path(c4x4det.__file__).resolve().parents:
        print(f"c4x4det was imported from {c4x4det.__file__}, not {src}", file=sys.stderr)
        return 2
    if len(sys.argv) > 1 and sys.argv[1] == "cli-probe":
        doc = cli_probe(sys.argv[2:])
    else:
        parser = argparse.ArgumentParser()
        parser.add_argument("mode", choices=["run"])
        parser.add_argument("workload", choices=sorted(workloads.IN_PROCESS))
        parser.add_argument("seed", type=int)
        parser.add_argument("--seconds", type=float, default=10.0)
        parser.add_argument("--requests", type=int, default=None)
        parser.add_argument("--trace-out", default=None)
        parser.add_argument("--corrupt", action="store_true")
        args = parser.parse_args()
        doc = run_phase(
            args.workload, args.seed, args.seconds, args.requests, args.trace_out, args.corrupt
        )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
