"""Interleaved A/B timing of the command line of two source trees.

    python tools/interleave_ab.py PARENT CHANGE [--rounds N] --commands FILE
    python tools/interleave_ab.py PARENT CHANGE [--rounds N] -- sweep f.json --param p --grid=0:1:9

PARENT and CHANGE are checkouts of this repository. Each tree's
src/metrocommute is copied into one temporary directory under its own package
name (the package imports itself only relatively, so the copies do not
collide), and both are imported into this one interpreter. Each command (one
per line of FILE, split as a shell would, blank and '#' lines skipped; or the
one command after `--`) is first run once on each tree: their exit codes,
stdout and stderr must be byte-identical, or the tool exits 1. Then every
round runs every command on both trees, alternating which tree goes first from
round to round, and times each run (cli.main with its output captured) and,
inside it, the time spent in descriptors._Grid.batch.

It prints, per command and per group of commands (one sweep file and
parameter, or one file), the median over the rounds of each tree's time, in
microseconds per point (the n of a --grid a:b:n, else 1 per command), for the
whole command and for _Grid.batch; and, over every timed run of each tree,
the p50 and p90 in milliseconds. BLAS libraries default to one thread.

Running both trees in one process, alternating, keeps the machine's drift out
of the comparison; perfbench/run.py remains the end-to-end benchmark.
"""

import argparse
import contextlib
import importlib
import io
import os
import shlex
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def load_trees(roots, workdir):
    """{side: (cli module, batch timer)} of each tree's package, copied into
    workdir as ab_<side>. The timer is a one-element list that
    descriptors._Grid.batch adds its elapsed seconds to."""
    sys.path.insert(0, str(workdir))
    trees = {}
    for side, root in zip(SIDES, roots):
        source = Path(root) / "src" / "metrocommute"
        if not (source / "cli.py").is_file():
            raise SystemExit(f"{root}: no src/metrocommute/cli.py")
        name = f"ab_{side}"
        shutil.copytree(source, Path(workdir) / name, ignore=shutil.ignore_patterns("__pycache__"))
        cli = importlib.import_module(f"{name}.cli")
        grid = importlib.import_module(f"{name}.descriptors")._Grid
        trees[side] = cli, _timed_batch(grid)
    return trees


def _timed_batch(grid):
    spent = [0.0]
    batch = grid.batch

    def timed(self, values):
        start = time.perf_counter()
        try:
            return batch(self, values)
        finally:
            spent[0] += time.perf_counter() - start

    grid.batch = timed
    return spent


def run(cli, argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def points(argv):
    """The n of a --grid a:b:n argument, else 1."""
    for k, arg in enumerate(argv):
        spec = arg[len("--grid=") :] if arg.startswith("--grid=") else None
        if arg == "--grid" and k + 1 < len(argv):
            spec = argv[k + 1]
        if spec is not None:
            try:
                return max(1, int(spec.split(":")[2]))
            except (IndexError, ValueError):
                return 1
    return 1


def group(argv):
    """The label that commands are grouped under: a sweep's file and
    parameter, or a command's first file argument."""
    files = [Path(a).stem for a in argv[1:] if a.endswith(".json")]
    label = f"{argv[0]} {files[0] if files else ''}".strip()
    if "--param" in argv[:-1]:
        label += " " + argv[argv.index("--param") + 1]
    return label


def read_commands(path, command):
    """The commands of the file at path, or [command] when path is None."""
    if path is None:
        commands = [command]
    else:
        lines = Path(path).read_text().splitlines()
        commands = [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]
    if not commands or not all(commands):
        raise SystemExit("no command: give --commands FILE or a command after --")
    return commands


def check_identical(trees, commands):
    """The commands whose outputs differ between the trees, with the first
    differing part named."""
    differ = []
    for argv in commands:
        a, b = (run(trees[side][0], argv) for side in SIDES)
        for part, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                differ.append(f"{shlex.join(argv)}: {part} differs")
                break
    return differ


def time_commands(trees, commands, rounds):
    """{side: [[(seconds, batch seconds) per round] per command]}."""
    times = {side: [[] for _ in commands] for side in SIDES}
    for r in range(rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for k, argv in enumerate(commands):
            for side in order:
                cli, spent = trees[side]
                spent[0] = 0.0
                start = time.perf_counter()
                run(cli, argv)
                times[side][k].append((time.perf_counter() - start, spent[0]))
    return times


def percentile(values, q):
    """The q-th percentile of values, by linear interpolation."""
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def report(commands, times):
    """The per-command, per-group and overall lines of the timings."""
    lines = ["us per point (median over rounds): command parent -> change, _Grid.batch parent -> change"]
    per_point = {side: [] for side in SIDES}
    for k, argv in enumerate(commands):
        n = points(argv)
        for side in SIDES:
            runs = times[side][k]
            per_point[side].append(
                (statistics.median(t for t, _ in runs) * 1e6 / n, statistics.median(b for _, b in runs) * 1e6 / n)
            )
        (ca, ba), (cb, bb) = (per_point[side][k] for side in SIDES)
        lines.append(f"  {shlex.join(argv)}  [{n} pts]: {ca:.1f} -> {cb:.1f}, batch {ba:.1f} -> {bb:.1f}")
    lines.append("per group (median of its commands): cmds, command us/pt parent -> change, batch us/pt parent -> change")
    groups = {}
    for k, argv in enumerate(commands):
        groups.setdefault(group(argv), []).append(k)
    for label, ks in groups.items():
        med = {
            side: [statistics.median(per_point[side][k][j] for k in ks) for j in (0, 1)] for side in SIDES
        }
        (ca, ba), (cb, bb) = med["parent"], med["change"]
        lines.append(
            f"  {label}: {len(ks)}, {ca:.1f} -> {cb:.1f} ({cb / ca - 1:+.1%}), "
            f"batch {ba:.1f} -> {bb:.1f}" + (f" ({bb / ba - 1:+.1%})" if ba > 0 else "")
        )
    for side in SIDES:
        ms = [t * 1e3 for runs in times[side] for t, _ in runs]
        lines.append(
            f"{side}: {len(ms)} runs, p50 {percentile(ms, 50):.3f} ms, p90 {percentile(ms, 90):.3f} ms, "
            f"total {sum(ms) / 1e3:.3f} s"
        )
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = []
    if "--" in argv:
        cut = argv.index("--")
        argv, command = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], epilog="A single command goes after --."
    )
    parser.add_argument("parent", help="checkout of the parent tree")
    parser.add_argument("change", help="checkout of the changed tree")
    parser.add_argument("--commands", help="file of commands, one per line")
    parser.add_argument("--rounds", type=int, default=5, help="timed rounds (default 5)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        raise SystemExit("--rounds must be >= 1")
    commands = read_commands(args.commands, command)
    # before the trees import numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    with tempfile.TemporaryDirectory(prefix="interleave_ab_") as workdir:
        trees = load_trees((args.parent, args.change), workdir)
        print("threads: " + " ".join(f"{v}={os.environ[v]}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")))
        differ = check_identical(trees, commands)
        if differ:
            print("\n".join(differ))
            print(f"{len(differ)} of {len(commands)} commands differ")
            return 1
        print(f"{len(commands)} commands byte-identical; {args.rounds} rounds")
        print("\n".join(report(commands, time_commands(trees, commands, args.rounds))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
