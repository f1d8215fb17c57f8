"""Per-layer metrics of a traced run: catalogue, aggregation, micro-benchmarks.

`CATALOGUE` names every per-layer metric with its unit, which way is better
and the end-to-end metric and workload it should move.  BENCHMARK.json lists
the same names; a test keeps the two in step.
"""

from __future__ import annotations

import math
import os
import statistics
from time import perf_counter

import numpy as np

from csdyn import certificates, flows, models

import tracing
import workloads

E2E = "pass_s"
VERIFY, SMALL, LARGE, CLI = "verify", "ensemble-small", "ensemble-large", "cli"

# The eight registered flow models, for the single-evaluation timings.
FLOW_MODELS = (
    ("circle-linear", {"alpha": 1.0}),
    ("circle-quadratic", {"alpha": 1.0}),
    ("mane", {"alpha": 0.5, "d": 2, "y0": 0.5, "y_sin": -0.5 / (2.0 * math.pi)}),
    ("damped-mechanical", {"alpha": 0.5, "d": 2, "v_cos": (1.0, 1.0), "v_cross": 0.3}),
    ("t2-pair-theta1", {}),
    ("t2-pair-theta2", {}),
    ("lee-twisted-t1t2", {}),
    ("anosov-cover", {}),
)
# flow_ensemble throughput sizes and horizons (h = 0.01) on damped-mechanical d=2
THROUGHPUT = ((1, 1.0), (32, 1.0), (1024, 0.5), (16384, 0.1))
DIAGNOSTICS = (
    "lyapunov_spectrum", "unstable_manifold_cloud", "attractor_estimate",
    "classify_ensemble", "find_periodic_orbit", "escape_statistics",
    "loop_cohomology_check", "recurrence_scan",
)
WRITERS = (
    "write_trajectory_csv", "write_trajectory_json", "write_cloud_csv",
    "write_grid_csv", "write_report_json",
)
CLI_OPS = ("simulate", "periodic", "diagnose", "attractor", "basin", "escape", "classify")
# Scope sums cover only the checks the verify workload runs, so the battery's
# "all" scope is named "benchmarked" here.
SCOPES = tuple("benchmarked" if s == "all" else s for s in certificates.SCOPES)


def _catalogue():
    rows = []

    def add(name, unit, better, *workloads_moved):
        rows.append({
            "name": name, "unit": unit, "better": better,
            "moves": [{"metric": E2E, "workload": w} for w in workloads_moved],
        })

    add("models.X.calls", "count", "lower", VERIFY, SMALL, LARGE)
    add("models.X.rows_per_call", "rows", "higher", VERIFY, SMALL, LARGE)
    add("models.X.self_s", "s", "lower", VERIFY, SMALL, LARGE)
    add("models.jacobian.calls", "count", "lower", VERIFY)
    add("models.DX_batch.calls", "count", "lower", VERIFY, SMALL, LARGE)
    add("models.DX_batch.rows_per_call", "rows", "higher", VERIFY, SMALL, LARGE)
    for name, _ in FLOW_MODELS:
        add(f"models.X_us.{name}.n1", "us", "lower", SMALL, VERIFY)
        add(f"models.X_us.{name}.n1024", "us", "lower", LARGE)
    for fn in ("integrate_variational", "integrate_flow"):
        add(f"flows.{fn}.calls", "count", "lower", VERIFY, CLI)
        add(f"flows.{fn}.self_s", "s", "lower", VERIFY, CLI)
        add(f"flows.{fn}.rhs_per_call", "count", "lower", VERIFY, CLI)
    add("flows.adaptive.us_per_rhs", "us", "lower", VERIFY, CLI)
    add("flows.flow_ensemble.calls", "count", "lower", SMALL, LARGE, VERIFY)
    add("flows.flow_ensemble.self_s", "s", "lower", SMALL, LARGE, VERIFY)
    add("flows.flow_ensemble.state_steps", "count", "lower", SMALL, LARGE, VERIFY)
    for n, _ in THROUGHPUT:
        add(f"flows.flow_ensemble.msteps_per_s.n{n}", "Msteps/s", "higher",
            SMALL if n <= 32 else LARGE)
    add("flows.transport_tangents.self_s", "s", "lower", SMALL, LARGE)
    add("flows.poincare_return.self_s", "s", "lower", VERIFY, CLI)
    for fn in DIAGNOSTICS:
        add(f"diagnostics.{fn}.calls", "count", "lower", VERIFY, CLI)
        add(f"diagnostics.{fn}.self_s", "s", "lower", VERIFY, CLI)
    for check, _ in workloads.VERIFY_CHECKS:
        add(f"certificates.{check}_s", "s", "lower", VERIFY)
    for scope in SCOPES:
        add(f"certificates.scope.{scope}_s", "s", "lower", VERIFY)
    add("ensemble.deterministic_map.wall_s", "s", "lower", CLI)
    add("ensemble.deterministic_map.items", "count", "higher", CLI)
    add("ensemble.speedup_j2", "ratio", "higher", CLI)
    for op in CLI_OPS:
        add(f"cli.{op}_s", "s", "lower", CLI)
    add("config.load_config_s", "s", "lower", CLI)
    for writer in WRITERS:
        add(f"output.{writer}_s", "s", "lower", CLI)
    add("output.bytes_written", "bytes", "lower", CLI)
    add("trace.overhead_s", "s", "lower")
    add("trace.overhead_frac", "ratio", "lower")
    return rows


CATALOGUE = _catalogue()


def aggregate(cols, n_passes):
    """Per-layer metrics per traced pass from spans with run id >= 1."""
    names = cols["name"]
    parent, start, end = cols["parent"], cols["start"], cols["end"]
    dur = end - start
    own = tracing.self_times(parent, start, end)
    measured = cols["run"] >= 1

    def total(name, values):
        sel = measured & (names == name)
        return float(np.sum(values[sel])) / n_passes

    def calls(name):
        return float(np.count_nonzero(measured & (names == name))) / n_passes

    # attribute each rhs (models.X call) to its nearest adaptive integration
    integrate = {"flows.integrate_flow", "flows.integrate_variational"}
    nearest = np.full(len(names), -1, dtype=np.int64)
    for i, (name, p) in enumerate(zip(names.tolist(), parent.tolist())):
        nearest[i] = i if name in integrate else (nearest[p] if p >= 0 else -1)
    is_x = measured & (names == "models.X") & (nearest >= 0)
    rhs_owner = names[nearest[is_x]]

    out = {}
    x_calls = calls("models.X")
    out["models.X.calls"] = x_calls
    out["models.X.rows_per_call"] = total("models.X", cols["work"]) / x_calls if x_calls else 0.0
    out["models.X.self_s"] = total("models.X", own)
    out["models.jacobian.calls"] = calls("models.jacobian")
    db_calls = calls("models.DX_batch")
    out["models.DX_batch.calls"] = db_calls
    out["models.DX_batch.rows_per_call"] = (
        total("models.DX_batch", cols["work"]) / db_calls if db_calls else 0.0
    )
    rhs_total, integrate_s = 0.0, 0.0
    for fn in ("integrate_variational", "integrate_flow"):
        name = f"flows.{fn}"
        n_calls = calls(name)
        rhs = float(np.count_nonzero(rhs_owner == name)) / n_passes
        out[f"{name}.calls"] = n_calls
        out[f"{name}.self_s"] = total(name, own)
        out[f"{name}.rhs_per_call"] = rhs / n_calls if n_calls else 0.0
        rhs_total += rhs
        integrate_s += total(name, dur)
    out["flows.adaptive.us_per_rhs"] = 1e6 * integrate_s / rhs_total if rhs_total else 0.0
    out["flows.flow_ensemble.calls"] = calls("flows.flow_ensemble")
    out["flows.flow_ensemble.self_s"] = total("flows.flow_ensemble", own)
    out["flows.flow_ensemble.state_steps"] = total("flows.flow_ensemble", cols["work"])
    out["flows.transport_tangents.self_s"] = total("flows.transport_tangents", own)
    out["flows.poincare_return.self_s"] = total("flows.poincare_return", own)
    for fn in DIAGNOSTICS:
        out[f"diagnostics.{fn}.calls"] = calls(f"diagnostics.{fn}")
        out[f"diagnostics.{fn}.self_s"] = total(f"diagnostics.{fn}", own)
    scope_s = dict.fromkeys(SCOPES, 0.0)
    for check, scope in workloads.VERIFY_CHECKS:
        seconds = total(f"certificates.cert_{check}", dur)
        out[f"certificates.{check}_s"] = seconds
        scope_s[scope] += seconds
        scope_s["benchmarked"] += seconds
    for scope, seconds in scope_s.items():
        out[f"certificates.scope.{scope}_s"] = seconds
    out["ensemble.deterministic_map.wall_s"] = total("ensemble.deterministic_map", dur)
    out["ensemble.deterministic_map.items"] = total("ensemble.deterministic_map", cols["work"])
    for op in CLI_OPS:
        out[f"cli.{op}_s"] = total(f"cli.{op}", dur)
    out["config.load_config_s"] = total("config.load_config", dur)
    for writer in WRITERS:
        out[f"output.{writer}_s"] = total(f"output.{writer}", dur)
    out["output.bytes_written"] = total("output.atomic_write_text", cols["work"])
    return out


def _median_time(fn, repeats, inner):
    """Median over `repeats` batches of the mean time of `inner` calls."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - t0) / inner)
    return statistics.median(samples)


def micro_benchmarks(seed, workdir):
    """Layer timings independent of the workload: one field evaluation per
    model (1 and 1024 rows), flow_ensemble throughput per batch size, and the
    classify speedup from --jobs 1 to --jobs 2 on the cli workload's config."""
    rng = np.random.default_rng([seed, 10])
    out = {}
    for name, params in FLOW_MODELS:
        m = models.instantiate_model(name, params)
        one = workloads.random_states(m, 1, rng)[0]
        many = workloads.random_states(m, 1024, rng)
        out[f"models.X_us.{name}.n1"] = 1e6 * _median_time(lambda: m.X(one), 5, 200)
        out[f"models.X_us.{name}.n1024"] = 1e6 * _median_time(lambda: m.X(many), 5, 20)
    m = models.instantiate_model(*FLOW_MODELS[3])
    for n, t in THROUGHPUT:
        states = workloads.random_states(m, n, rng)
        seconds = _median_time(lambda: flows.flow_ensemble(m, states, t), 5, 1)
        out[f"flows.flow_ensemble.msteps_per_s.n{n}"] = n * round(t / 0.01) / seconds / 1e6
    cfg = os.path.join(workdir, "speedup-classify.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(workloads.cli_configs(seed)["classify"])
    times = {1: [], workloads.CLI_JOBS: []}
    for _ in range(3):
        for jobs in times:
            t0 = perf_counter()
            code, err = workloads.run_cli(cfg, os.path.join(workdir, f"speedup-j{jobs}"), seed, jobs)
            times[jobs].append(perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"classify --jobs {jobs} failed: {err}")
    out["ensemble.speedup_j2"] = statistics.median(times[1]) / statistics.median(times[2])
    return out
