"""metrocommute benchmark: one closed-loop workload, end to end or traced.

    python3 perfbench/run.py --workload {sweep-small,classify-large,routes} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; metrocommute is imported from its `src`.
Inputs are generated from the seed under `.perfbench_work/<workload>/`.
Set-up time is the median of SETUP_PROBES fresh interpreters, each importing
metrocommute and finishing one warm-up request. The timed phase runs in one
more fresh interpreter (`worker.py`) with the BLAS thread count pinned to 1.

Prints an `env` line, an `info` line (sample counts, error rate, failures)
and, last, the result: {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy is first imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-small", "classify-large", "routes")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "req_ms_p50": "ms",
    "req_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 20.0
WORKER_TIMEOUT_S = 160.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env.pop("METROCOMMUTE_JOBS", None)  # half the sweeps rely on the default of 1
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def worker_argv(args, workdir):
    return [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]


def probe_setup(argv, env):
    """Seconds from process start to the end of the warm-up request."""
    start = time.perf_counter()
    with subprocess.Popen(argv + ["--probe"], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        try:
            if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                raise subprocess.TimeoutExpired(argv, PROBE_TIMEOUT_S)
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("set-up probe did not finish")
    if line.strip() != b"ready" or proc.returncode != 0:
        fail(f"set-up probe failed with exit code {proc.returncode}")
    return ready


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    """sha256 over metrocommute's sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "metrocommute").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "metrocommute" / "__init__.py").is_file():
        fail(f"no metrocommute sources under {SRC}; run from a checkout of the repository")

    sys.path[:0] = [str(HERE), str(SRC)]
    import metrocommute
    import workloads

    if Path(metrocommute.__file__).resolve().parent != (SRC / "metrocommute").resolve():
        fail(f"imported metrocommute from {metrocommute.__file__}, not from {SRC}")

    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workloads.WORKLOADS[args.workload](args.seed, workdir).write_files()

    env = child_env()
    argv_w = worker_argv(args, workdir)
    setup = [probe_setup(argv_w, env) for _ in range(SETUP_PROBES)]
    try:
        proc = subprocess.run(
            argv_w, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {WORKER_TIMEOUT_S:g} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    e2e = dict(res["end_to_end"])
    e2e["peak_rss_mb"] = res["peak_rss_mb"]
    e2e["setup_s"] = statistics.median(setup)
    env_record = dict(
        res["env"],
        blas_env=BLAS_ENV,
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        git_sha=git_sha(),
        source_sha256=source_digest(),
        seed=args.seed,
        workload=args.workload,
    )
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "timed_s": res["timed_s"],
        "samples": {
            "req_ms": res["requests"],
            "ops_per_s_cycles": res["cycles"],
            "setup_s": len(setup),
        },
        "setup_s_samples": setup,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "error_rate": res["failed"] / res["attempted"],
        "failures": res["failures"],
    }
    if args.trace:
        # end-to-end figures of the traced run, for the tracing overhead
        info["traced_end_to_end"] = e2e
        info["spans_file"] = res["spans_file"]
        info["tagged_ms"] = res["tagged_ms"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"env": env_record}))
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
