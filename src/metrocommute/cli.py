"""Command-line surface: classify, example, sweep, selftest.

Exit codes are a stable contract: 0 success, 1 a property or example report
failed, 2 invalid input. Sweep output is CSV with a frozen column set; the
other commands emit JSON (classify always; example with --json) or plain text.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .conditions import classify, classify_stack
from .descriptors import (
    _parse_fields,
    load_json,
    matrix_to_json,
    positive_finite,
    resolve,
    resolve_grid,
    resolve_halves,
    weight_from_json,
)
from .examples import EXAMPLE_IDS, run_example
from .metrology import SINGULAR_MESSAGE, _checked_weight, qcr_scalar
from .operator_core import ValidationError
from .selftest import run_selftest

SWEEP_COLUMNS = [
    "parameter",
    "value",
    "W_norm",
    "P_norm",
    "O_norm",
    "S_norm",
    "WC",
    "PC",
    "OC",
    "SC",
    "E",
]


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise ValidationError(f"cannot read {path}: {err.strerror}") from err


def _classification_payload(report, weight):
    f = report.qfim
    e_value = report.E
    return {
        "dim": report.dim,
        "rank": report.rank,
        "theta": [float(v) for v in report.theta],
        "norms": report.norms,
        "flags": report.flags,
        "hierarchy_consistent": report.hierarchy_consistent,
        "converse_failures": report.converse_failures,
        "scale": report.scale,
        "tolerances": {"zero_tol": report.tolerance, "rank_tol": report.slds.spec.rank_tol},
        "qfim": matrix_to_json(f.matrix),
        "qfim_rank": f.rank,
        "qfim_condition_number": (
            f.condition_number if np.isfinite(f.condition_number) else None
        ),
        "E": e_value,
        "qcr": None if e_value is None else qcr_scalar(f, weight),
        "notices": [] if e_value is not None else [SINGULAR_MESSAGE],
    }


def cmd_classify(args):
    desc = _parse_fields(_read_text(args.file))
    if args.rank_tol is not None:
        desc.rank_tol = positive_finite(args.rank_tol, "--rank-tol")
    if args.zero_tol is not None:
        desc.zero_tol = positive_finite(args.zero_tol, "--zero-tol")
    rho, hs, theta, weight = resolve(desc)
    if args.theta is not None:
        theta = np.asarray(args.theta, dtype=float)
        if theta.size != hs.m:
            raise ValidationError(
                f"--theta expects {hs.m} values, got {theta.size}"
            )
    if args.weight is not None:
        weight = weight_from_json(load_json(_read_text(args.weight)))
        weight = _checked_weight(weight, hs.m, "--weight")
    report = classify(rho, hs, theta=theta, tol=desc.zero_tol)
    payload = _classification_payload(report, weight)
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_example(args):
    ids = EXAMPLE_IDS if args.id == "all" else [args.id]
    reports = [run_example(ex_id) for ex_id in ids]
    failed = [r for r in reports if not r.passed]
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        print(f"{'id':<6s} {'status':<7s} {'max_abs_error':>13s}")
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.id:<6s} {status:<7s} {r.max_abs_error:>13.3e}")
            for key in sorted(r.failures):
                print(f"       {key}: deviation {r.failures[key]:.3e}")
        print(
            f"{len(reports)} reports, {len(reports) - len(failed)} passed, "
            f"{len(failed)} failed"
        )
    return 1 if failed else 0


# the most points one sweep takes, checked before the grid is allocated:
# every CSV row is buffered until the last batch, so that an error leaves no
# partial CSV, and at its peak a sweep holds about 400 bytes a point (the
# grid values, the row strings and their joined output; tracemalloc, EX4 at
# 20,000 and 100,000 points), so this many points hold about 40 MB
MAX_GRID_POINTS = 100_000


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(
            f"--grid expects a:b:n (three colon-separated fields), got {text!r}"
        )
    try:
        a, b = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as err:
        raise ValidationError(f"--grid {text!r}: {err}") from err
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValidationError(f"--grid {text!r}: endpoints must be finite")
    if not math.isfinite(b - a):
        raise ValidationError(f"--grid {text!r}: b - a must be finite")
    if n < 1:
        raise ValidationError("--grid needs n >= 1 points")
    if n > MAX_GRID_POINTS:
        raise ValidationError(f"--grid asks for {n} points, more than {MAX_GRID_POINTS}")
    return np.linspace(a, b, n)


# one CSV line: the parameter, its value, the four norms (W, P, O, S), the
# four flags (WC, PC, OC, SC) and E
_ROW = "%s,%.12g,%.12g,%.12g,%.12g,%.12g,%d,%d,%d,%d,%s"


def _row_text(name, value, norms, flags, e):
    """The CSV line of one sweep point; e is NaN when the QFIM is singular."""
    return _ROW % (name, value, *norms, *flags, "singular" if math.isnan(e) else "%.12g" % e)


def _sweep_batch(name, values, res):
    """CSV lines of the points of one ProblemStack, formatted straight from
    its classify_stack arrays."""
    cells = zip(values, res.norms.tolist(), res.flags.tolist(), res.E.tolist())
    return [_row_text(name, *point) for point in cells]


def cmd_sweep(args):
    desc = _parse_fields(_read_text(args.file))
    # resolve's validation, once: it builds each half of the problem at the
    # descriptor's own parameters, and the sweep shares those its parameter
    # does not move
    halves = resolve_halves(desc)
    grid = _parse_grid(args.grid)
    # --jobs and METROCOMMUTE_JOBS are validated but do not change evaluation:
    # the points go through the stacked classify kernels
    jobs, source = args.jobs, "--jobs"
    if jobs is None:
        source = "METROCOMMUTE_JOBS"
        text = os.environ.get(source, "1")
        try:
            jobs = int(text)
        except ValueError:
            raise ValidationError(f"{source} must be an integer, got {text!r}") from None
    if jobs < 1:
        raise ValidationError(f"{source} must be >= 1")
    # the parameter name is checked before any point; points are resolved
    # chunk_size at a time, in grid order, so the first bad value is the one
    # named, and each batch arrives as ProblemStacks. A stack's classify_stack
    # arrays are a temporary, dropped once its rows are formatted, so a sweep
    # holds at most one batch. Rows print after the last batch, so an error
    # leaves no partial CSV.
    values = [float(v) for v in grid]
    rows = []
    for stack in resolve_grid(desc, args.param, values, halves):
        batch = values[len(rows) : len(rows) + stack.n]
        rows += _sweep_batch(args.param, batch, classify_stack(stack, desc.zero_tol))
    print(",".join(SWEEP_COLUMNS))
    print("\n".join(rows))
    return 0


def cmd_selftest(args):
    if args.draws < 1:
        raise ValidationError("--draws must be >= 1")
    text, violations = run_selftest(args.seed, args.draws)
    sys.stdout.write(text)
    return 1 if violations else 0


@functools.cache
def build_parser():
    """The command-line parser, built once per process: main reuses it."""
    parser = argparse.ArgumentParser(
        prog="metrocommute",
        description=(
            "Commutativity conditions, quantum Fisher information, and "
            "saturation classification for unitary parameter encodings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify the state/Hamiltonian problem in a descriptor file"
    )
    p_classify.add_argument("file", help="problem descriptor JSON file")
    p_classify.add_argument(
        "--theta", type=float, nargs="+", default=None, help="encoding point override"
    )
    p_classify.add_argument(
        "--weight", default=None, help="JSON file with a weight matrix"
    )
    p_classify.add_argument(
        "--json", action="store_true", help="compact single-line JSON"
    )
    p_classify.add_argument(
        "--rank-tol", type=float, default=None, help="support cutoff override"
    )
    p_classify.add_argument(
        "--zero-tol", type=float, default=None, help="condition zero-test override"
    )
    p_classify.set_defaults(func=cmd_classify)

    p_example = sub.add_parser("example", help="run worked-example reports")
    p_example.add_argument("id", help='example id (EX1..EX10, OBS...) or "all"')
    p_example.add_argument("--json", action="store_true", help="JSON output")
    p_example.set_defaults(func=cmd_example)

    p_sweep = sub.add_parser(
        "sweep", help="sweep one family parameter of a descriptor, CSV output"
    )
    p_sweep.add_argument("file", help="problem descriptor JSON file")
    p_sweep.add_argument("--param", required=True, help="family parameter name")
    p_sweep.add_argument(
        "--grid", required=True, help="a:b:n linear grid specification"
    )
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "accepted and validated for compatibility (default: "
            "METROCOMMUTE_JOBS or 1); points are always evaluated in "
            "stacked batches"
        ),
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_selftest = sub.add_parser(
        "selftest", help="run the randomized property suites"
    )
    p_selftest.add_argument("--seed", type=int, default=42)
    p_selftest.add_argument("--draws", type=int, default=100)
    p_selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
