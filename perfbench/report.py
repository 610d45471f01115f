"""Every workload, untraced and traced, summarised in one report.

    python3 perfbench/report.py [--seed 1] [--seconds 10] [--workload W ...]

Runs `run.py` with --trace 0, --trace 1 and --trace 0 again per workload and
prints: the end-to-end metrics with units and sample counts, the error rate,
the tracing overhead (traced against untraced end-to-end figures), the traced
calls_per_op next to the values the code had when the benchmark was defined,
and the traced span medians for the ROADMAP item 1 shapes next to the
ROADMAP re-anchor figures.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END_UNITS, WORKLOAD_NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
SAMPLES = {
    "setup_s": "setup_s",
    "ops_per_s": "ops_per_s_cycles",
    "req_ms_p50": "req_ms",
    "req_ms_p90": "req_ms",
    "peak_rss_mb": None,
}

DOUBLED_SPACE = (
    "conditions.weak_decomposed",
    "conditions.weak_series_truncation",
    "conditions.weak_rank_two",
)
# (workload, function, low, high, note): calls_per_op when the benchmark was
# defined. A later change that removes duplicated work moves these on purpose.
SEED_CALLS = [
    ("sweep-small", "encoding.encode", 2.0, 2.5, "2 per point on the CLI path; EX9's resolve adds one"),
    ("sweep-small", "sld.sld_rotated", 2.0, 2.5, "2 per point on the CLI path; EX9's resolve adds one"),
    ("classify-large", "encoding.encode", 2.0, 2.0, "classify + report payload"),
    ("classify-large", "sld.sld_rotated", 2.0, 2.0, "classify + report payload"),
    ("classify-large", "descriptors.resolve", 2.0, 2.0, "parse_descriptor + cmd_classify"),
    ("routes", "encoding.encode", 1.0, 1.0, "one encoding per problem"),
]
SEED_CALLS += [(w, fn, 0.0, 0.0, "no doubled-space route") for w in WORKLOADS[:2] for fn in DOUBLED_SPACE]
# ROADMAP item 1 re-anchor figures (best of 3, default BLAS threads), in ms.
ROADMAP_MS = [
    ("9/5/3", "encoding.encode", 0.27),
    ("9/5/3", "sld.sld_rotated", 0.12),
    ("9/5/3", "conditions.weak_decomposed", 4.3),
    ("64/16/4", "encoding.encode", 3.3),
    ("64/16/4", "sld.sld_rotated", 1.2),
    ("64/16/4", "conditions.classify", 8.7),
]


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited with code {proc.returncode}")
    env, info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-3:])
    return env["env"], info["info"], result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    # untraced, traced, untraced again: the overhead is taken against the mean
    # of the two untraced runs, which cancels host drift that is linear in time
    runs = {w: tuple(run(w, args.seed, args.seconds, t) for t in (0, 1, 0)) for w in names}

    env = runs[names[0]][0][0]
    print("environment:", json.dumps(env))
    print(f"\nend-to-end, untraced (seed {args.seed}, {args.seconds:g} s)")
    print(f"{'workload':<15} {'metric':<12} {'value':>12} {'unit':<6} samples")
    for w, ((_, info, result), _, _) in runs.items():
        for name in END_TO_END_UNITS:
            m = result["metrics"][name]
            key = SAMPLES[name]
            samples = info["samples"][key] if key else "peak"
            print(f"{w:<15} {name:<12} {m['value']:>12.4f} {m['unit']:<6} {samples}")
        print(f"{w:<15} {'error_rate':<12} {info['error_rate']:>12.4f} {'ratio':<6} {info['attempted']} ops")

    print("\ntracing overhead (traced / mean of the untraced runs before and after - 1)")
    for w, ((_, _, before), (_, tinfo, _), (_, _, after)) in runs.items():
        cells = []
        for name in ("ops_per_s", "req_ms_p50", "req_ms_p90", "peak_rss_mb"):
            base = (before["metrics"][name]["value"] + after["metrics"][name]["value"]) / 2
            cells.append(f"{name} {tinfo['traced_end_to_end'][name] / base - 1:+.1%}")
        print(f"{w:<15} " + "  ".join(cells))

    print("\ncalls_per_op, traced, against the code when the benchmark was defined")
    for w, fn, lo, hi, note in SEED_CALLS:
        if w not in runs:
            continue
        got = runs[w][1][2]["metrics"][f"{fn}.calls_per_op"]["value"]
        verdict = "as defined" if lo - 1e-9 <= got <= hi + 1e-9 else "CHANGED"
        want = f"{lo:g}" if lo == hi else f"{lo:g}..{hi:g}"
        print(f"{w:<15} {fn:<34} {got:>7.3f} expected {want:<7} {verdict:<10} ({note})")

    print("\nROADMAP item 1 shapes: traced median span per call (ms) vs re-anchor")
    for shape, fn, roadmap in ROADMAP_MS:
        found = [r[1][1]["tagged_ms"].get(shape, {}).get(fn) for r in runs.values()]
        found = [x for x in found if x is not None]
        got = f"{found[0]:.3f}" if found else "not run"
        print(f"{shape:<8} {fn:<30} {got:>8}  ROADMAP {roadmap:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
