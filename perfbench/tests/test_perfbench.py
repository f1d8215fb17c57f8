"""Tests of the benchmark itself: span arithmetic, tracing, names, smoke runs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import signal
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

import layers
import reference
import run
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_times_on_hand_built_tree():
    # 0 root [0, 10]
    #   1 [1, 3]   (2: grandchild [1.5, 2])
    #   3 [2, 4]   overlaps 1: the union [1, 4] counts once
    #   4 [6, 12]  sticks out of the root: only [6, 10] counts
    # 5 second root [20, 21], no children
    parent = [-1, 0, 1, 0, 0, -1]
    start = [0.0, 1.0, 1.5, 2.0, 6.0, 20.0]
    end = [10.0, 3.0, 2.0, 4.0, 12.0, 21.0]
    got = tracing.self_times(parent, start, end)
    assert got.tolist() == pytest.approx([3.0, 1.5, 0.5, 2.0, 6.0, 1.0])


def test_self_times_children_in_any_order():
    parent = [-1, 0, 0, 0]
    start = [0.0, 7.0, 1.0, 3.0]
    end = [10.0, 8.0, 2.0, 5.0]
    assert tracing.self_times(parent, start, end)[0] == pytest.approx(6.0)


def test_tracer_records_nesting_and_run_ids():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("layer.inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = tracer.wrap("layer.outer", outer)
    op = tracer.wrap("bench.op", lambda: traced_outer(1))
    tracer.run_id = 3
    assert op() == 4
    cols = tracer.columns()
    assert cols["name"].tolist() == ["bench.op", "layer.outer", "layer.inner"]
    assert cols["parent"].tolist() == [-1, 0, 1]
    assert cols["run"].tolist() == [3, 3, 3]
    assert np.all(cols["end"] >= cols["start"])
    own = tracing.self_times(cols["parent"], cols["start"], cols["end"])
    assert np.all(own >= 0)


def test_tracer_closes_span_on_exception():
    tracer = tracing.Tracer()
    boom = tracer.wrap("layer.boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert not math.isnan(tracer.end[0])
    assert tracer._stack == [-1]


def test_installed_wraps_models_and_restores():
    from csdyn import certificates, flows, models

    original = flows.integrate_flow
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert getattr(certificates.integrate_variational, "__wrapped_by_tracer__", False)
        m = models.instantiate_model("circle-linear", alpha=1.0)
        flows.integrate_flow(m, np.array([0.1, 0.5]), (0.0, 0.1), samples=2)
    assert flows.integrate_flow is original
    assert not hasattr(models.ModelSpec.jacobian, "__wrapped_by_tracer__")
    names = set(tracer.columns()["name"].tolist())
    assert {"models.instantiate_model", "flows.integrate_flow", "models.X"} <= names


def test_metric_names_and_catalogue_match_benchmark_json():
    bench = load_benchmark()
    workload_names = [w["name"] for w in bench["workloads"]]
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    all_names = workload_names + e2e + per_layer
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert NAME.match(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert sorted(workload_names) == sorted(workloads.WORKLOADS)
    assert bench["per_layer"] == [
        {k: row[k] for k in ("name", "unit", "better")} for row in layers.CATALOGUE
    ]
    for row in layers.CATALOGUE:
        for moved in row["moves"]:
            assert moved["metric"] in e2e and moved["workload"] in workload_names


def test_verify_runs_the_battery_but_the_excluded_checks():
    from csdyn import certificates

    battery = [fn.__name__.removeprefix("cert_") for fn, _ in certificates._CERTIFICATES]
    assert set(workloads.VERIFY_EXCLUDED) <= set(battery)
    assert [name for name, _ in workloads.VERIFY_CHECKS] == [
        name for name in battery if name not in workloads.VERIFY_EXCLUDED
    ]


def test_summarize_percentile_keeps_ten_samples_beyond():
    assert set(run.summarize(range(19))) == {"n", "median"}
    s = run.summarize(range(100))
    assert s["n"] == 100 and s["p90"] == 89
    assert run.summarize(range(1000))["p99"] == 989
    for n in (20, 57, 100, 999, 10000):
        s = run.summarize(range(n))
        (value,) = [v for k, v in s.items() if k.startswith("p")]
        assert n - 1 - value >= 10


def test_reference_seconds_scale_by_median_kernel_time():
    k = reference.KERNEL_REF_S
    assert reference.reference_seconds(2.0, 2 * k) == pytest.approx(1.0)
    assert reference.kernel_sample() > 0


def test_clock_takes_samples_during_a_call_out_of_its_time():
    def busy(seconds=0.35):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass
        return "done"

    clock = reference.Clock()
    out, wall, ref, kernel = clock.time(busy)
    # three or more samples of a few ms each fall inside the call's 0.35 s
    assert out == "done" and 0.2 < wall < 0.345
    assert ref == pytest.approx(reference.reference_seconds(wall, kernel))
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    _, wall, _, _ = clock.time(busy, dense=False)
    assert wall >= 0.35


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_end_to_end_metrics(workload):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    bench = load_benchmark()
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for metric in bench["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_smoke_traced_run_prints_every_per_layer_metric():
    done = _run("--workload", "ensemble-small", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = {m["name"] for m in load_benchmark()["per_layer"]}
    assert set(result["metrics"]) == expected
    assert result["metrics"]["flows.flow_ensemble.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "layers.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(BENCH_DIR, name)).read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
