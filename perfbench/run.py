#!/usr/bin/env python3
"""csdyn benchmark: one client, closed loop, one workload per call.

    python3 perfbench/run.py --workload verify --seed 7 --seconds 10 --trace 0

Run from the root of a csdyn checkout; the library is imported from its
`src/`.  The workload's operation list (a "pass") repeats until `--seconds`
have passed and at least the workload's minimum of passes is done (one
when traced).  Inputs come only from `--seed`.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics `setup_s`, `pass_s` and `peak_rss_mb`; times are in reference-core
seconds (see reference.py), raw wall seconds are printed before it.  With
`--trace 1` the loop runs untraced and then traced (spans at every layer
boundary), and the last line carries the per-layer metrics.  `failed`
counts operations that did not succeed (an exception, a FAIL verdict, a
nonzero exit code or a wrong output); `correct` is false when an output
contradicts its check.  Lines before the last name every metric with its
unit; a JSON record of the run (and, traced, its spans) is written under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 3
IMPORT_PROBES = 5
# Times `import csdyn`, then the reference kernel in the same process and core.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import csdyn; "
    "wall = time.perf_counter() - t; import reference; "
    "print(wall, reference.kernel_sample())"
)


def summarize(samples):
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    for p in (99.9, 99, 95, 90, 75, 50):
        tail = round(n * (100 - p) / 100, 9)     # samples expected above p
        if tail >= 10:
            out[f"p{p:g}"] = xs[n - 1 - math.ceil(tail)]
            break
    return out


def measure(plan, seconds, min_passes, tracer=None):
    """Repeat the plan's pass until `seconds` have passed and at least
    `min_passes` passes are done; times exclude checks.

    Each operation is timed by a reference.Clock, which converts its wall
    time to reference-core seconds; a pass's `pass_ref_s` is the sum over
    its operations.  A traced loop samples the kernel only between
    operations, so that no span holds a sample.
    """
    import reference

    clock = reference.Clock()
    op_times = {op.name: [] for op in plan.ops}
    op_ref = {op.name: [] for op in plan.ops}
    passes, pass_ref, kernels, failures, outputs = [], [], [], [], {}
    attempted = 0
    begin = perf_counter()
    while True:
        pass_s, ref_s, kernel_s = 0.0, 0.0, []
        for op in plan.ops:
            if tracer is not None:
                tracer.run_id = 1 + len(passes)    # 0 marks set-up and checks
            call = op.call
            if tracer is not None and op.span:
                call = tracer.wrap(op.span, op.call)
            (out, error), dt, ref, kernel = clock.time(
                functools.partial(_attempt, call),
                dense=tracer is None and not op.parallel)
            if tracer is not None:
                tracer.run_id = 0
            attempted += 1
            op_times[op.name].append(dt)
            op_ref[op.name].append(ref)
            pass_s += dt
            ref_s += ref
            kernel_s.append(kernel)
            kind = "failed"
            if error is None and op.status is not None:
                error = op.status(out)
            if error is None:
                kind, error = "wrong", op.check(out)
            if error is not None:
                failures.append(
                    {"op": op.name, "pass": len(passes), "kind": kind, "reason": error})
            if hasattr(out, "verdict"):      # certificate results, for the record
                outputs.setdefault(op.name, []).append(out)
        passes.append(pass_s)
        pass_ref.append(ref_s)
        kernels.append(statistics.median(kernel_s))
        if perf_counter() - begin >= seconds and len(passes) >= min_passes:
            break
    return {
        "passes": passes, "pass_ref_s": pass_ref, "kernel_s": kernels, "op_times": op_times,
        "op_ref_s": op_ref,
        "failures": failures, "attempted": attempted, "outputs": outputs,
    }


def _attempt(call):
    """(output, None), or (None, reason) when the call raised."""
    try:
        return call(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def import_seconds():
    """`import csdyn` in fresh interpreters: wall seconds of each probe, and
    the median in reference-core seconds."""
    import reference

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    wall, ref = [], []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, kernel = done.stdout.strip().splitlines()[-1].split()
        wall.append(float(seconds))
        ref.append(reference.reference_seconds(wall[-1], float(kernel)))
    return wall, statistics.median(ref)


def timed_setups(setup, seed, workdir):
    """Run the set-up SETUP_REPEATS times; returns (wall seconds, median in
    reference-core seconds, the last plan)."""
    import reference

    clock = reference.Clock()
    wall, ref = [], []
    for _ in range(SETUP_REPEATS):
        plan, dt, ref_s, _ = clock.time(functools.partial(setup, seed, workdir))
        wall.append(dt)
        ref.append(ref_s)
    return wall, statistics.median(ref), plan


def peak_rss_mb():
    """This process's peak RSS plus the largest peak among its children.

    Read right after the measured loop, before the import probes and
    `getconf` run, so the only children counted are the ones the workload
    starts: the cli workload's pool workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cache_sizes():
    try:
        done = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def environment(workloads):
    import numpy as np

    arrays = {}
    for name, params, racc in workloads.ENSEMBLE_MODELS:
        dim = workloads.models.instantiate_model(name, params).dim + int(racc)
        for n, _, _ in workloads.SMALL_SIZES + workloads.LARGE_SIZES:
            arrays[f"{name}.n{n}"] = n * dim * 8
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "cache_bytes": cache_sizes(),
        "loadavg": os.getloadavg(),
        "ensemble_state_bytes": arrays,
    }


def verdicts(outputs):
    """Per check: its verdict in every pass, residual, tolerance, elapsed_s."""
    table = {}
    for name, results in outputs.items():
        table[name] = {
            "check": results[0].check,
            "verdict": [r.verdict for r in results],
            "residual": results[0].residual,
            "tolerance": results[0].tolerance,
        }
        elapsed = [r.details["elapsed_s"] for r in results if "elapsed_s" in r.details]
        if elapsed:
            table[name]["elapsed_s"] = elapsed
    return table


def named_metrics(workload, plan, run):
    """The workload's own name for its pass figure, from the same samples."""
    pass_s = statistics.median(run["passes"])
    if workload == "verify":
        return {"verify_s": (pass_s, "s")}
    if workload == "cli":
        return {"cli_cycle_s": (pass_s, "s")}
    steps = sum(op.state_steps for op in plan.ops)
    seconds = sum(
        statistics.median(run["op_times"][op.name]) for op in plan.ops if op.state_steps
    )
    label = "small" if workload == "ensemble-small" else "large"
    return {f"{label}_batch_msteps_per_s": (steps / seconds / 1e6, "Msteps/s")}


def report(workload, plan, run, record):
    """Human-readable lines: metrics with units, timings, verdicts, failures."""
    shown = {
        "setup_s": (record["setup_s"], "s"),
        "pass_s": (statistics.median(run["pass_ref_s"]), "s"),
        "pass_wall_s": (statistics.median(run["passes"]), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "failed_frac": (len(run["failures"]) / run["attempted"], "ratio"),
    }
    shown.update(named_metrics(workload, plan, run))
    lines = [f"metric {name} = {value:.6g} {unit}" for name, (value, unit) in shown.items()]
    lines.append(f"timing setup_wall_s {json.dumps(summarize(record['setup_wall_s']))}")
    lines.append(f"timing import_wall_s {json.dumps(summarize(record['import_wall_s']))}")
    lines.append(f"timing pass_s {json.dumps(summarize(run['pass_ref_s']))}")
    lines.append(f"timing pass_wall_s {json.dumps(summarize(run['passes']))}")
    lines.append(f"timing kernel_s {json.dumps(summarize(run['kernel_s']))}")
    for name, samples in run["op_times"].items():
        lines.append(f"timing {name}_s {json.dumps(summarize(samples))}")
    for row in record["verdicts"].values():
        extra = f" elapsed_s={row['elapsed_s']}" if "elapsed_s" in row else ""
        lines.append(f"verdict {row['check']} {'/'.join(sorted(set(row['verdict'])))} "
                     f"residual={row['residual']:.3e} tolerance={row['tolerance']:.3e}{extra}")
    return lines


def failure_lines(failures):
    return [f"{f['kind']} {f['op']} pass {f['pass']}: {f['reason']}" for f in failures]


def traced_run(args, setup, workdir, untraced, record):
    """Traced loop, per-layer metrics and spans; returns (lines, metrics, run)."""
    import layers
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        plan = setup(args.seed, workdir)
        traced = measure(plan, args.seconds, 1, tracer)
    metrics = layers.aggregate(tracer.columns(), len(traced["passes"]))
    metrics.update(layers.micro_benchmarks(args.seed, workdir))
    untraced_s = statistics.median(untraced["passes"])
    traced_s = statistics.median(traced["passes"])
    metrics["trace.overhead_s"] = traced_s - untraced_s
    untraced_ref = statistics.median(untraced["pass_ref_s"])
    metrics["trace.overhead_frac"] = statistics.median(traced["pass_ref_s"]) / untraced_ref - 1.0
    spans = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.npz")
    tracer.write(spans)
    record.update({
        "traced_passes": traced["passes"], "traced_failures": traced["failures"],
        "per_layer": metrics, "spans_file": os.path.relpath(spans, ROOT),
    })
    result = {
        row["name"]: {"value": metrics[row["name"]], "unit": row["unit"]}
        for row in layers.CATALOGUE
    }
    lines = [f"layer {name} = {m['value']:.6g} {m['unit']}" for name, m in result.items()]
    return lines, result, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: the only extra processes are
    # the cli workload's two pool workers, on a two-core machine.
    for var in BLAS_VARS:
        os.environ[var] = "1"

    if not os.path.isfile(os.path.join(SRC, "csdyn", "__init__.py")):
        print(f"error: no csdyn sources under {SRC}; run from a csdyn checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import csdyn

    if os.path.dirname(os.path.dirname(os.path.abspath(csdyn.__file__))) != SRC:
        print(f"error: imported csdyn from {csdyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup = workloads.WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        if args.workload in workloads.PREPARE:
            workloads.PREPARE[args.workload](args.seed, workdir)
        setup_wall, setup_s, plan = timed_setups(setup, args.seed, workdir)
        run = measure(plan, args.seconds, 1 if args.trace else plan.min_passes)
        peak_mb = peak_rss_mb()
        import_wall, import_s = import_seconds()
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(workloads), "info": plan.info,
            "import_wall_s": import_wall, "setup_wall_s": setup_wall,
            "setup_s": import_s + setup_s, "passes": run["passes"],
            "pass_ref_s": run["pass_ref_s"], "kernel_s": run["kernel_s"],
            "op_times": run["op_times"], "op_ref_s": run["op_ref_s"],
            "failures": run["failures"], "attempted": run["attempted"],
            "verdicts": verdicts(run["outputs"]),
        }
        attempted, failures = run["attempted"], list(run["failures"])
        if args.trace:
            lines, metrics, traced = traced_run(args, setup, workdir, run, record)
            attempted += traced["attempted"]
            failures += traced["failures"]
        else:
            record["peak_rss_mb"] = peak_mb
            lines = report(args.workload, plan, run, record)
            metrics = {
                "setup_s": {"value": record["setup_s"], "unit": "s"},
                "pass_s": {"value": statistics.median(run["pass_ref_s"]), "unit": "s"},
                "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
            }
        record["failed"] = len(failures)
        path = os.path.join(
            RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"env {json.dumps(record['env'])}")
    for line in lines + failure_lines(failures):
        print(line)
    print(f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not any(f["kind"] == "wrong" for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
