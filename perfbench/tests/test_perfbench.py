"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, like the benchmark's own."""
    path = ROOT / ".perfbench_work" / "tests" / re.sub(r"[^\w.-]", "_", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def generated_bytes(workload_name, seed, workdir):
    """Every input the workload generates from `seed`, as bytes."""
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[workload_name](seed, workdir)
    wl.write_files()
    blobs = [p.name.encode() + p.read_bytes() for p in sorted(workdir.iterdir())]
    if workload_name == "routes":
        wl.prepare()
        for req in [wl.warmup] + wl.cycles[0]:
            blobs += [req["rho"].matrix.tobytes(), req["theta"].tobytes()]
            blobs += [h.tobytes() for h in req["hs"].hams]
    else:
        wl.prepare()
        blobs.append(json.dumps([wl.warmup] + wl.cycles, sort_keys=True).encode())
    shutil.rmtree(workdir)
    return b"".join(blobs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, workdir):
    first = generated_bytes(name, 7, workdir / "w")
    again = generated_bytes(name, 7, workdir / "w")
    other = generated_bytes(name, 8, workdir / "w")
    assert first == again
    assert first != other


def test_percentile_needs_ten_samples_beyond():
    values = list(range(100))
    assert worker.percentile(values, 90) == 89
    assert sum(v > worker.percentile(values, 90) for v in values) == 10
    assert worker.percentile(values, 50) == 49
    with pytest.raises(ValueError):
        worker.percentile(list(range(99)), 90)
    assert worker.MIN_REQUESTS == 100


def test_metric_names_are_plain_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == spans.per_layer_metric_names()
    assert sorted(e2e) == sorted(["setup_s", "ops_per_s", "req_ms_p50", "req_ms_p90", "peak_rss_mb"])
    for name in e2e + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + per_layer)) == len(e2e + per_layer)


def small_routes(workdir):
    wl = workloads.Routes(3, workdir)
    wl.cycles = [[wl._problem(3, 2, 2), wl._problem(4, 1, 3), wl._problem(4, 4, 2)]]
    return wl


def test_untraced_run_leaves_nothing_wrapped(workdir):
    loop = worker.closed_loop(small_routes(workdir), 0.0)
    assert loop["failed"] == 0 and loop["attempted"] >= worker.MIN_REQUESTS
    assert spans.wrapped_attributes() == []


def test_traced_run_counts_calls_and_unwraps(workdir):
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert ("metrocommute.conditions", "weak_direct") in spans.wrapped_attributes()
        loop = worker.closed_loop(small_routes(workdir), 0.0, recorder)
    finally:
        recorder.uninstall()
    assert spans.wrapped_attributes() == []
    metrics = recorder.metrics(loop["attempted"], loop["timed_s"] * 1e9)
    assert list(metrics) == spans.per_layer_metric_names()
    assert metrics["encoding.encode.calls_per_op"][0] == 1.0
    assert metrics["conditions.weak_rank_two.calls_per_op"][0] == pytest.approx(1 / 3)
    assert metrics["cli.main.calls_per_op"][0] == 0.0
    assert 0.0 < metrics["conditions.self_share"][0] <= 1.0


def test_span_self_time_excludes_pool_thread_children():
    assert spans.covered_ns([(2, 5), (4, 8), (12, 20)], 0, 15) == 6 + 3
    assert spans.covered_ns([], 0, 10) == 0


def test_checks_catch_a_wrong_answer(workdir):
    wl = small_routes(workdir)
    req = wl.cycles[0][0]
    out = wl.run(req)
    assert wl.check(req, out) == []
    out["integral"].entries = out["integral"].entries + 1e-6
    assert "weak_integral deviates" in wl.check(req, out)[0]


def test_refuses_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routes", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
