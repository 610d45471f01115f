"""One workload in one fresh interpreter: warm up, then the timed closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR [--probe]

`run.py` starts this process with the BLAS thread count pinned to 1 and
`src` on PYTHONPATH. After importing metrocommute and finishing one untimed
warm-up request the worker prints `ready`; with `--probe` it exits there,
which is how set-up time is measured. Otherwise it runs the workload's
request cycles in turn, always finishing the cycle it started, until at
least S seconds of request time and at least MIN_REQUESTS requests have
passed, checks every output outside the timed interval, and prints one JSON
line with the results.
"""

import argparse
import ctypes
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

MIN_REQUESTS = 100  # req_ms_p90 needs ten samples beyond it
WALL_LIMIT_S = 140.0  # stop early rather than overrun the 180 s run limit
MAX_FAILURE_MESSAGES = 5


def percentile(values, q):
    """Nearest-rank percentile; refuses when fewer than ten samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        raise ValueError(f"p{q:g} of {n} samples has {n - rank} beyond it; at least 10 are needed")
    return sorted(values)[rank - 1]


def peak_rss_mib():
    """Peak resident set of this process (VmHWM, which exec resets)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_record():
    """BLAS library name and the thread count it actually runs with."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        paths = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
        if threads is not None:
            break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{info.get('name')} {info.get('version')}",
        "blas_threads": threads,
    }


def closed_loop(workload, seconds, recorder=None):
    """Repeat whole cycles; time each request; check each output untimed."""
    latencies_ms = []
    cycles = []  # (completed ops, request seconds)
    attempted = failed = 0
    failures = []
    timed = 0.0
    wall_start = time.perf_counter()
    while True:
        cycle_ok, cycle_s = 0, 0.0
        for req in workload.cycles[len(cycles) % len(workload.cycles)]:
            n = workload.ops(req)
            if recorder is not None:
                recorder.tag = workload.tag(req)
            start = time.perf_counter()
            try:
                out = workload.run(req)
                error = None
            except Exception as err:  # a failed op, counted and reported
                out, error = None, f"{type(err).__name__}: {err}"
            elapsed = time.perf_counter() - start
            if recorder is not None:
                recorder.tag = None
                recorder.enabled = False
            try:
                bad = [error] * n if error else workload.check(req, out)
            except Exception as err:  # output the check could not even read
                bad = [f"check raised {type(err).__name__}: {err}"] * n
            if recorder is not None:
                recorder.enabled = True
            attempted += n
            failed += min(n, len(bad))
            failures += bad[: MAX_FAILURE_MESSAGES - len(failures)]
            latencies_ms.append(math.inf if bad else elapsed * 1e3)
            cycle_ok += n - min(n, len(bad))
            cycle_s += elapsed
            if time.perf_counter() - wall_start > WALL_LIMIT_S:
                break
        cycles.append((cycle_ok, cycle_s))
        timed += cycle_s
        if timed >= seconds and len(latencies_ms) >= MIN_REQUESTS:
            break
        if time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
    return {
        "latencies_ms": latencies_ms,
        "cycles": cycles,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "timed_s": timed,
    }


def end_to_end(loop):
    """ops_per_s, req_ms_p50 and req_ms_p90 of one closed loop."""
    lat = loop["latencies_ms"]
    return {
        "ops_per_s": statistics.median(ok / s for ok, s in loop["cycles"] if s > 0),
        "req_ms_p50": percentile(lat, 50),
        "req_ms_p90": percentile(lat, 90),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    warm = workload.run(workload.warmup)
    print("ready", flush=True)
    if args.probe:
        return 0
    workload.prepare()
    warm_failures = workload.check(workload.warmup, warm)
    if warm_failures:
        print(f"warm-up request failed: {warm_failures[0]}", file=sys.stderr)
        return 1

    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        recorder.install()
    try:
        loop = closed_loop(workload, args.seconds, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    if len(loop["latencies_ms"]) < MIN_REQUESTS:
        print(
            f"only {len(loop['latencies_ms'])} requests in {WALL_LIMIT_S:g} s; "
            f"req_ms_p90 needs {MIN_REQUESTS}",
            file=sys.stderr,
        )
        return 1

    result = {
        "end_to_end": end_to_end(loop),
        "peak_rss_mb": peak_rss_mib(),
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "failures": loop["failures"],
        "requests": len(loop["latencies_ms"]),
        "cycles": len(loop["cycles"]),
        "timed_s": loop["timed_s"],
        "env": blas_record(),
    }
    if recorder is not None:
        traced_ns = loop["timed_s"] * 1e9
        result["per_layer"] = recorder.metrics(loop["attempted"], traced_ns)
        trace_file = Path(args.workdir) / f"spans-seed{args.seed}.json"
        trace_file.write_text(json.dumps(recorder.dump()))
        result["spans_file"] = str(trace_file)
        result["tagged_ms"] = {
            tag: {name: statistics.median(d) for name, d in by_name.items()}
            for tag, by_name in recorder.dump()["tagged_ms"].items()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
