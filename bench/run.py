"""The c4x4det benchmark: four closed-loop workloads, checked outputs, one JSON line.

Run from the repository root:

    python3 bench/run.py                                   # every workload
    python3 bench/run.py --workload oracle_scan --seed 3 --seconds 20 --trace 0

Workloads (one client, closed loop, ``jobs=1``, at most two processes at once):

* ``oracle_scan``      scan_random requests of 32 bound-9 tuples: three routes + classify
* ``exhaustive_scan``  scan_exhaustive requests over the first 4096 {-1,0,1} tuples
* ``witness_mix``      witness(n) on values drawn evenly from five strata
* ``cli_oneshot``      one ``python -m c4x4det classify|witness`` process per request

Each in-process workload runs in a fresh interpreter (``worker.py``).
Every timed figure is scaled to a reference CPU speed by a calibration run
alongside the requests (``calibrate.py``); the measured figures are printed
too.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the same
requests with spans around every cross-module call and reports per-layer
metrics, the tracing overhead, and whether the traced run made the calls and
produced the outcomes the untraced run did.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when any
output check failed and 2 when the program cannot be found or started.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("oracle_scan", "exhaustive_scan", "witness_mix", "cli_oneshot")
WINDOW_S = 0.5  # throughput is the median over windows of this much busy time
SETUP_PROBES = 9
INTERPRETER_PROBES = 9
PHASE_TIMEOUT_S = 150


class ProgramMissing(Exception):
    """The checkout has no c4x4det to run, or it cannot be started."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def _spawn(argv, timeout=PHASE_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout
    )


def _json_child(argv) -> dict:
    proc = _spawn(argv)
    if proc.returncode != 0:
        error = ProgramMissing if proc.returncode == 2 else RuntimeError
        raise error(proc.stderr.decode(errors="replace").strip()[-2000:])
    return json.loads(proc.stdout.decode().splitlines()[-1])


# --- statistics ---------------------------------------------------------------


def windowed_rate(durations, ops_per_request) -> tuple:
    """(median ops/s over windows of WINDOW_S busy seconds, window count)."""
    rates, busy, ops = [], 0.0, 0
    for d in durations:
        busy += d
        ops += ops_per_request
        if busy >= WINDOW_S:
            rates.append(ops / busy)
            busy, ops = 0.0, 0
    if not rates:
        return len(durations) * ops_per_request / sum(durations), 1
    return statistics.median(rates), len(rates)


def end_to_end(phase: dict, setup: list) -> tuple:
    """(gated metrics with units, reported-only figures) of an untraced phase."""
    lat = phase["scaled"]
    rate, windows = windowed_rate(lat, phase["ops_per_request"])
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    raw = phase["durations"]
    return {
        "ops_per_s": (rate, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
    }, {
        "latency_p90_ms": cuts[89] * 1e3,
        "latency_p99_ms": cuts[98] * 1e3,
        "latency_samples": len(lat),
        "rss_requests": phase["rss_requests"],
        "throughput_windows": windows,
        "measured_ops_per_s": windowed_rate(raw, phase["ops_per_request"])[0],
        "measured_latency_p50_ms": statistics.median(raw) * 1e3,
        "calibration_ms": statistics.median(phase["calibrations"]) * 1e3,
        "calibrations": len(phase["calibrations"]),
        "reference_ms": phase.get("reference_s", calibrate.REFERENCE_S) * 1e3,
        "failed_ratio": phase["failed"] / max(phase["attempted"], 1),
    }


# --- set-up probes and the run stamp ------------------------------------------

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {bench!r}); import calibrate; "
    "before = calibrate.measure(); t = time.perf_counter(); import c4x4det; "
    "dt = time.perf_counter() - t; "
    "sys.stdout.write(repr(dt * calibrate.factor(before, calibrate.measure())))"
)


def setup_times(count: int) -> list:
    """Scaled ``import c4x4det`` time in ``count`` fresh interpreters (after one warm-up).

    Each probe calibrates just before and just after its import.
    """
    probe = _IMPORT_PROBE.format(bench=str(BENCH))
    out = []
    for _ in range(count + 1):
        proc = _spawn([sys.executable, "-c", probe], timeout=60)
        if proc.returncode != 0:
            raise ProgramMissing(proc.stderr.decode(errors="replace").strip()[-2000:])
        out.append(float(proc.stdout))
    return out[1:]  # the warm-up may compile bytecode


def interpreter_start() -> float:
    """Wall time of one ``python -c pass``: the floor of a CLI process."""
    t = time.perf_counter()
    _spawn([sys.executable, "-c", "pass"], timeout=60)
    return time.perf_counter() - t


def interpreter_times(count: int) -> list:
    """Scaled ``python -c pass`` wall times, calibrated between spawns."""
    out, before = [], calibrate.measure()
    for _ in range(count):
        dt = interpreter_start()
        after = calibrate.measure()
        out.append(dt * calibrate.factor(before, after))
        before = after
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src/c4x4det").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], env=env, capture_output=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "none"


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "optimize": sys.flags.optimize,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


# --- the cli_oneshot workload (spawned from here, so only two processes run) ---


def cli_cases(seed: int):
    """The golden CLI cases in a seeded order, reshuffled on every pass."""
    cases = json.loads((BENCH / "goldens.json").read_text())["cli"]
    rng = random.Random(seed)
    while True:
        order = list(cases)
        rng.shuffle(order)
        yield from order


def _run_cli_once(argv) -> tuple:
    """(stdout bytes, exit code, peak RSS in MB, seconds) of one CLI process."""
    t = time.perf_counter()
    proc = subprocess.Popen(argv, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(PHASE_TIMEOUT_S, proc.kill)  # a hung CLI fails its check
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss / 1024, time.perf_counter() - t


def cli_phase(seed, seconds=None, requests=None, probe=False, corrupt=False) -> dict:
    """Sequential CLI processes; with ``probe`` each is a traced ``worker.py cli-probe``.

    A bare interpreter start is timed between the spawns; each process's time
    is scaled by the starts just before and just after it.
    """
    durations, errors, summaries, counts, imports = [], [], [], {}, []
    scaled, calibrations = [], [interpreter_start()]
    fingerprint = hashlib.sha256()
    failed = 0
    peak = 0.0
    cases = cli_cases(seed)
    start = time.perf_counter()
    i = 0
    while (i < requests) if requests is not None else (time.perf_counter() - start < seconds):
        case = next(cases)
        if probe:
            t = time.perf_counter()
            doc = _json_child([sys.executable, str(BENCH / "worker.py"), "cli-probe", *case["argv"]])
            durations.append(time.perf_counter() - t)
            out, code = doc["stdout"].encode(), doc["code"]
            summaries.append(doc["aggregates"])
            imports.append(doc["import_s"])
            for key, value in doc["counts"].items():
                counts[key] = counts.get(key, 0) + value
        else:
            out, code, rss, dt = _run_cli_once([sys.executable, "-m", "c4x4det", *case["argv"]])
            durations.append(dt)
            peak = max(peak, rss)
            if corrupt and i == 0:
                out += b"x"
        calibrations.append(interpreter_start())
        f = calibrate.factor(*calibrations[-2:], calibrate.REFERENCE_SPAWN_S)
        scaled.append(durations[-1] * f)
        fingerprint.update(f"{case['argv']}:{code}:{out!r}\n".encode())
        if out != case["stdout"].encode() or code != case["code"]:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{' '.join(case['argv'])}: exit {code}, stdout {out!r}")
        i += 1
    doc = {
        "durations": durations,
        "scaled": scaled,
        "calibrations": calibrations,
        "reference_s": calibrate.REFERENCE_SPAWN_S,
        "requests": i,
        "ops_per_request": 1,
        "attempted": i,
        "failed": failed,
        "accepted": i,
        "route_mismatches": 0,
        "errors": errors,
        "fingerprint": fingerprint.hexdigest(),
        "peak_rss_mb": peak,
        "rss_requests": i,
    }
    if probe:
        from tracing import merge

        doc["aggregates"] = merge(summaries)
        doc["counts"] = counts
        doc["import_s"] = imports
    return doc


# --- one workload ---------------------------------------------------------------


def in_process_phase(workload, seed, seconds=None, requests=None, trace_out=None, corrupt=False):
    argv = [sys.executable, str(BENCH / "worker.py"), "run", workload, str(seed)]
    if requests is None:
        argv += ["--seconds", str(seconds)]
    else:
        argv += ["--requests", str(requests)]
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    if corrupt:
        argv.append("--corrupt")
    return _json_child(argv)


ROOT_SPAN = {
    "oracle_scan": "verification.scan_random",
    "exhaustive_scan": "verification.scan_exhaustive",
    "witness_mix": "witness.witness",
    "cli_oneshot": "cli.main",
}


def expected_calls(workload, phase) -> dict:
    """Span call counts the traced run must show, from the untraced run's results."""
    ops, requests, accepted = phase["attempted"], phase["requests"], phase["accepted"]
    if workload == "oracle_scan":
        routes = {f"gdet.{r}": ops for r in ("det16_direct", "det16_spectral", "det16_factored")}
        return {"classifier.*": ops, **routes}
    if workload == "exhaustive_scan":
        return {"classifier.*": ops, "gdet.det16_factored": ops, "gdet.det16_direct": 0}
    if workload == "witness_mix":
        return {
            "witness.witness": requests,
            "classifier.*": requests,
            "witness.plan": accepted,
            "witness.recheck": accepted,
        }
    return {"cli.main": requests}


def count_mismatches(workload, untraced, traced) -> list:
    agg = traced["aggregates"]
    problems = []
    for name, want in expected_calls(workload, untraced).items():
        if name.endswith("*"):
            got = sum(a["calls"] for n, a in agg.items() if n.startswith(name[:-1]))
        else:
            got = agg.get(name, {}).get("calls", 0)
        if got != want:
            problems.append(f"traced {name} calls {got} != {want} from the untraced run")
    if traced["fingerprint"] != untraced["fingerprint"]:
        problems.append("traced run produced different outcomes than the untraced run")
    return problems


def run_workload(workload, args, trace_dir) -> dict:
    setup = setup_times(SETUP_PROBES)
    corrupt = args.corrupt == workload
    if workload == "cli_oneshot":
        untraced = cli_phase(args.seed, seconds=args.seconds, corrupt=corrupt)
    else:
        untraced = in_process_phase(workload, args.seed, seconds=args.seconds, corrupt=corrupt)
    metrics, extra = end_to_end(untraced, setup)
    result = {
        "workload": workload,
        "requests": untraced["requests"],
        "ops_per_request": untraced["ops_per_request"],
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "errors": untraced["errors"],
        "end_to_end": metrics,
        "extra": extra,
    }
    if args.trace:
        from tracing import layer_metrics

        n = untraced["requests"]
        if workload == "cli_oneshot":
            traced = cli_phase(args.seed, requests=n, probe=True)
        else:
            trace_out = trace_dir / f"{workload}-seed{args.seed}.json"
            traced = in_process_phase(workload, args.seed, requests=n, trace_out=trace_out)
        # span times are measured; scale them by the traced phase's overall factor
        speed = sum(traced["scaled"]) / sum(traced["durations"])
        if workload == "cli_oneshot":
            import_ms = statistics.median(traced["import_s"]) * 1e3 * speed
        else:
            import_ms = statistics.median(setup) * 1e3
        layers = layer_metrics(traced["aggregates"], traced["counts"], ROOT_SPAN[workload])
        for name in layers:
            if name.endswith(("_us", "_ms")):
                layers[name] *= speed
        layers["gdet.route_mismatches"] = traced["route_mismatches"]
        layers["cli.import_ms"] = import_ms
        layers["cli.interpreter_ms"] = statistics.median(interpreter_times(INTERPRETER_PROBES)) * 1e3
        layers["trace.overhead_ratio"] = sum(traced["scaled"]) / sum(untraced["scaled"]) - 1
        problems = count_mismatches(workload, untraced, traced)
        result["per_layer"] = layers
        result["trace_problems"] = problems
        result["failed"] += traced["failed"]
        result["attempted"] += traced["attempted"]
        result["errors"] += traced["errors"] + problems
    return result


# --- reporting ----------------------------------------------------------------


def report(result, run_stamp, per_layer_units) -> None:
    w = result["workload"]
    ex = result["extra"]
    sizes = {"workload": w, "requests": result["requests"],
             "ops_per_request": result["ops_per_request"]}
    print("stamp: " + json.dumps({**run_stamp, **sizes}, sort_keys=True))
    for name, (value, unit) in result["end_to_end"].items():
        print(f"{w} {name} = {value:.6g} {unit}")
    for q, need in (("p90", 100), ("p99", 1000)):
        note = "" if ex["latency_samples"] >= need else f" (fewer than {need} samples: not valid)"
        print(f"{w} latency_{q}_ms = {ex[f'latency_{q}_ms']:.6g} ms{note}")
    print(f"{w} measured, before scaling: ops_per_s = {ex['measured_ops_per_s']:.6g} 1/s, "
          f"latency_p50_ms = {ex['measured_latency_p50_ms']:.6g} ms; calibration median "
          f"{ex['calibration_ms']:.4g} ms over {ex['calibrations']} calls "
          f"(reference {ex['reference_ms']:g} ms)")
    print(f"{w} failed_ratio = {ex['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    print(f"{w} samples: {ex['latency_samples']} requests behind each latency percentile, "
          f"{ex['throughput_windows']} windows of {WINDOW_S} s behind ops_per_s, "
          f"peak_rss_mb read after {ex['rss_requests']} requests")
    for name, value in result.get("per_layer", {}).items():
        print(f"{w} {name} = {value:.6g} {per_layer_units[name]}")
    for problem in result["errors"]:
        print(f"{w} FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("witness_mix", "cli_oneshot"), default=None,
                        help="negative control: corrupt the first output of this workload "
                        "before it is checked; the run must then fail")
    args = parser.parse_args()

    if not Path("src/c4x4det/__init__.py").is_file():
        print("error: run from a checkout that holds src/c4x4det", file=sys.stderr)
        return 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    trace_dir = Path(".bench_traces")
    if args.trace:
        trace_dir.mkdir(exist_ok=True)

    run_stamp = stamp(args)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in chosen:
            result = run_workload(workload, args, trace_dir)
            report(result, run_stamp, per_layer_units)
            results.append(result)
    except ProgramMissing as exc:
        print(f"error: c4x4det could not be run: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r.get("trace_problems") for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        if args.trace:
            for name, value in r["per_layer"].items():
                metrics[prefix + name] = {"value": value, "unit": per_layer_units[name]}
        else:
            for name, (value, unit) in r["end_to_end"].items():
                metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
