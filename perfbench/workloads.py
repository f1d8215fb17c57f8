"""The benchmark's workloads: inputs made from a seed, operations, output checks.

Each workload is a fixed list of operations (a "pass") that the runner repeats
in a closed loop: one client, each call starting after the previous returns.
`setup(seed, workdir)` builds the models and inputs, makes one warm-up call
and returns a Plan.  Every operation carries a check that returns why its
output is wrong, or None when it is correct; an operation may also carry a
status that reports it failed (a FAIL verdict, a nonzero exit code) while its
output is what the program meant to produce.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import operator
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Layers are reached through their modules, so a traced run's wrappers apply.
from csdyn import certificates, cli, diagnostics, flows, geometry, models
from csdyn.ensemble import WORK_UNIT

TWO_PI = 2.0 * math.pi

# The verify workload runs the battery without its four longest checks:
# cert_isotropy (~50 s), cert_lyapunov_pairing (~17 s), cert_trapping_attractor
# (~9 s) and cert_energy_descent (~6 s).  With them a pass takes ~100 s and
# does not fit one benchmark run.  Order and scopes are the battery's behind
# `verify_suite("all")`.
VERIFY_EXCLUDED = ("isotropy", "lyapunov_pairing", "trapping_attractor", "energy_descent")
VERIFY_CHECKS = tuple(
    (fn.__name__.removeprefix("cert_"), scope)
    for fn, scope in certificates._CERTIFICATES
    if fn.__name__.removeprefix("cert_") not in VERIFY_EXCLUDED
)
PASSING = ("PASS", "PASS-NEGATIVE-CONTROL")

# Ensemble models: coupled d=2 mechanical, a conformal pair (with the racc
# channel) and a d=2 Mane drift field.
ENSEMBLE_MODELS = (
    ("damped-mechanical", {"alpha": 0.5, "d": 2, "v_cos": (1.0, 1.0), "v_cross": 0.3}, False),
    ("t2-pair-theta2", {}, True),
    ("mane", {"alpha": 0.5, "d": 2, "y0": 0.5, "y_sin": -0.5 / TWO_PI}, False),
)
# (N, flow_ensemble horizon at h = 0.01, transport/classify horizon at h = 1e-3).
# N <= 32 pays the fixed cost of each step; N = 16384 (512 KiB per dim-4
# float64 state array, several MiB with stage temporaries) spills out of a
# 2 MiB L2, N = 1024 fits in it.
SMALL_SIZES = ((1, 2.0, 0.2), (32, 2.0, 0.2))
LARGE_SIZES = ((1024, 1.0, 0.01), (16384, 0.1, 0.01))
ENSEMBLE_H = 0.01
CHECK_ROWS = 2          # rows per call compared against the adaptive reference
# Step doubling estimates the RK4 error as (16/15)|y_h - y_{h/2}|; the factor
# 1.5 admits noise in the reference and still rejects a first-order stepper,
# whose ratio is 2.
RICHARDSON_FACTOR = 1.5
REF_SLACK = 1e-9

# Pool size of the cli workload's classify: the two cores of the reference machine.
CLI_JOBS = 2
# Classify starts: six work units, so each of the two workers gets three.
CLASSIFY_N = 6 * WORK_UNIT


@dataclass
class Op:
    """One operation of a pass: `call()` does the work, `check(out)` judges it."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    status: Callable[[object], str | None] | None = None
    span: str | None = None         # span the runner opens around the call
    parallel: bool = False          # the call's work runs in other processes
    state_steps: int = 0            # fixed-step work, for throughput figures


@dataclass
class Plan:
    ops: list
    info: dict = field(default_factory=dict)
    # A cli or ensemble-large pass outlasts a short run; three passes give
    # a median.  A verify pass (~15 s) is steadier (reference-core IQR about
    # 2 % over ten runs) and two fit the run time.
    min_passes: int = 3


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def random_states(m, n, rng, line_scale=1.0):
    """Angles uniform on [0, 1), line coordinates normal with the given scale."""
    pts = np.empty((n, m.dim))
    mask = m.spec.angle_mask
    pts[:, mask] = rng.uniform(0.0, 1.0, size=(n, int(mask.sum())))
    pts[:, ~mask] = line_scale * rng.standard_normal((n, int((~mask).sum())))
    return pts


def _repeatable(first_check, same):
    """Check the first output in full and later outputs for equality with it."""
    memo = {}

    def check(out):
        if "ref" not in memo:
            memo["ref"] = out
            return first_check(out)
        return None if same(memo["ref"], out) else "output differs from the first pass"

    return check


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verdict_status(result):
    if result.verdict in PASSING:
        return None
    details = {k: v for k, v in result.details.items() if isinstance(v, (int, float, str))}
    return (f"{result.check}: {result.verdict} residual={result.residual:.3e} "
            f"tolerance={result.tolerance:.3e} details={details}")


def _verdict_check(result):
    """A verdict must agree with its own residual and tolerance."""
    if (result.verdict in PASSING) != (result.residual <= result.tolerance):
        return (f"{result.check}: verdict {result.verdict} contradicts residual "
                f"{result.residual:.3e} vs tolerance {result.tolerance:.3e}")
    return None


def _same_verdict(a, b):
    return (a.verdict, a.residual) == (b.verdict, b.residual)


def setup_verify(seed, workdir):
    certificates.verify_suite("geometry", seed=seed)   # warm-up call
    ops = [
        Op(
            name=name,
            call=functools.partial(getattr(certificates, f"cert_{name}"), seed=seed),
            check=_repeatable(_verdict_check, _same_verdict),
            status=_verdict_status,
        )
        for name, _ in VERIFY_CHECKS
    ]
    return Plan(ops, {"excluded_checks": list(VERIFY_EXCLUDED)}, min_passes=2)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def _richardson_ok(err, est):
    return err <= RICHARDSON_FACTOR * est + REF_SLACK


def _flow_check(m, states, t, racc, rows):
    """Sampled rows against the adaptive reference, and every row alive."""

    def check(out):
        if not np.all(out[1]):
            return f"{m.name}: {int(np.sum(~out[1]))} rows marked dead"
        half = flows.flow_ensemble(m, states[rows], t, h=ENSEMBLE_H / 2, racc=racc)
        for k, i in enumerate(rows):
            ref = flows.integrate_flow(m, states[i], (0.0, t), samples=2)
            if ref.status != flows.COMPLETED:
                return f"{m.name} row {i}: reference status {ref.status}"
            err = float(geometry.torus_distance(m.spec, out[0][i], ref.final_state))
            est = float(geometry.torus_distance(m.spec, out[0][i], half[0][k]))
            if not _richardson_ok(err, est):
                return f"{m.name} row {i}: state error {err:.3e} > RK4 bound from {est:.3e}"
            if racc:
                err = abs(out[2][i] - ref.r_final)
                est = abs(out[2][i] - half[2][k])
                if not _richardson_ok(err, est):
                    return f"{m.name} row {i}: r_accum error {err:.3e} > bound from {est:.3e}"
        return None

    return check


def _transport_check(m, states, vectors, t, rows):
    """Sampled rows against the adaptive variational reference."""

    def check(out):
        final, vecs, alive = out
        if not np.all(alive):
            return f"{m.name}: {int(np.sum(~alive))} transported rows marked dead"
        for i in rows:
            ref = flows.integrate_variational(m, states[i], (0.0, t), samples=2)
            err = max(
                float(geometry.torus_distance(m.spec, final[i], ref.final_state)),
                float(np.max(np.abs(vecs[i] - ref.final_frame @ vectors[i]))),
            )
            # h = 1e-3 RK4 over t <= 0.2 is far inside this bound
            if err > 1e-8:
                return f"{m.name} row {i}: transport error {err:.3e}"
        return None

    return check


def _classify_check(m, starts, T):
    """Rows evolve independently: row 0 alone must classify identically."""

    def check(out):
        if len(out) != len(starts):
            return f"classify returned {len(out)} results for {len(starts)} starts"
        if len(starts) == 1:
            return None
        alone = diagnostics.classify_ensemble(m, starts[:1], T)[0]
        # batch length may change numpy's SIMD path, hence last-digit drift
        fields = ("r_slope", "omega_H_max", "min_return_dist", "r_abs_max")
        if alone.verdict != out[0].verdict or not all(
            math.isclose(getattr(alone, f), getattr(out[0], f), rel_tol=1e-9, abs_tol=1e-12)
            for f in fields
        ):
            return f"classify row 0 differs when run alone: {alone} vs {out[0]}"
        return None

    return check


def _arrays_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _ensemble_plan(seed, sizes, stream):
    rng = _rng(seed, stream)
    ops = []
    built = {name: models.instantiate_model(name, params) for name, params, _ in ENSEMBLE_MODELS}
    for name, _, racc in ENSEMBLE_MODELS:
        flows.flow_ensemble(built[name], random_states(built[name], 1, rng), ENSEMBLE_H, racc=racc)
    for n, t, t_fine in sizes:
        for name, _, racc in ENSEMBLE_MODELS:
            m = built[name]
            states = random_states(m, n, rng)
            rows = sorted(rng.choice(n, size=min(CHECK_ROWS, n), replace=False).tolist())
            ops.append(Op(
                name=f"flow_ensemble.{name}.n{n}",
                call=functools.partial(flows.flow_ensemble, m, states, t, ENSEMBLE_H, racc=racc),
                check=_repeatable(_flow_check(m, states, t, racc, rows), _arrays_equal),
                state_steps=n * math.ceil(t / ENSEMBLE_H - 1e-12),
            ))
        m = built["damped-mechanical"]
        states, vectors = random_states(m, n, rng), rng.standard_normal((n, m.dim))
        rows = sorted(rng.choice(n, size=min(CHECK_ROWS, n), replace=False).tolist())
        ops.append(Op(
            name=f"transport_tangents.damped-mechanical.n{n}",
            call=functools.partial(flows.transport_tangents, m, states, vectors, t_fine),
            check=_repeatable(_transport_check(m, states, vectors, t_fine, rows), _arrays_equal),
        ))
        m = built["t2-pair-theta2"]
        starts = random_states(m, n, rng)
        ops.append(Op(
            name=f"classify_ensemble.t2-pair-theta2.n{n}",
            call=functools.partial(diagnostics.classify_ensemble, m, starts, t_fine),
            check=_repeatable(_classify_check(m, starts, t_fine), operator.eq),
        ))
    return Plan(ops, {"sizes": [n for n, _, _ in sizes]})


def setup_ensemble_small(seed, workdir):
    return _ensemble_plan(seed, SMALL_SIZES, 1)


def setup_ensemble_large(seed, workdir):
    return _ensemble_plan(seed, LARGE_SIZES, 2)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli_configs(seed):
    """Config text per cycle operation; every seeded value comes from `seed`.

    Sizes are the CLI's defaults (simulate t 5, attractor grid 33 and t_relax
    60, basin grid 100 and t_max 60, escape 100 steps and 1000 samples,
    classify T 10), except where the cycle is defined otherwise: simulate
    keeps 2001 samples, and classify takes CLASSIFY_N starts instead of 100.
    """
    rng = _rng(seed, 3)
    q, p = rng.uniform(0.0, 1.0), rng.standard_normal()
    theta, r = rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5)
    guess = 0.01 + rng.uniform(-0.005, 0.005)
    damped = "model.name = damped-mechanical\nmodel.alpha = 0.5\nmodel.v_cos = 1.0\n"
    return {
        "simulate": (
            "run.operation = simulate\n" + damped
            + f"simulate.x0 = ({q!r}, {p!r})\n"
            "simulate.samples = 2001\nsimulate.variational = true\n"
        ),
        "periodic": (
            "run.operation = periodic\nmodel.name = t2-pair-theta2\n"
            "periodic.section_axis = 0\nperiodic.section_offset = 0.0\n"
            f"periodic.direction = 1\nperiodic.guess = (0.0, {guess!r})\n"
        ),
        "diagnose": (
            "run.operation = diagnose\nmodel.name = circle-linear\nmodel.alpha = 1.0\n"
            f"diagnose.check = transport\ndiagnose.x0 = ({theta!r}, {r!r})\n"
        ),
        "attractor": "run.operation = attractor\n" + damped,
        "basin": "run.operation = basin\n" + damped,
        # the box has no default; this is the one cert_escape_statistics uses
        "escape": (
            "run.operation = escape\nmodel.name = shear-contraction\nmodel.a = 0.5\n"
            "escape.box = (0.0, 1.0, -1.0, 1.0)\n"
        ),
        "classify": (
            "run.operation = classify\nmodel.name = t2-pair-theta2\n"
            f"classify.n = {CLASSIFY_N}\n"
        ),
    }


def _read_outputs(out_dir):
    return {
        name: open(os.path.join(out_dir, name), "rb").read()
        for name in sorted(os.listdir(out_dir))
    }


def run_cli(cfg_path, out_dir, seed, jobs):
    """One `csdyn` invocation through cli.main; returns (exit code, stderr, files)."""
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.unlink(os.path.join(out_dir, name))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([
            "--config", cfg_path, "--out", out_dir, "--seed", str(seed),
            "--no-timestamp", "--jobs", str(jobs),
        ])
    return code, err.getvalue()


def _exit_status(out):
    code, err = out
    return None if code == 0 else f"exit code {code}: {err.strip()}"


def _cli_check(out_dir, reference=None):
    """Files of the first pass match the reference; later passes match them."""
    memo = {}

    def check(out):
        files = _read_outputs(out_dir)
        if "files" in memo:
            return None if files == memo["files"] else "output differs from the first pass"
        if not files:
            return "no output written"
        if reference is not None and files != reference:
            return f"--jobs {CLI_JOBS} output differs from the --jobs 1 reference"
        memo["files"] = files
        return None

    return check


def _write_configs(seed, workdir):
    cfg_dir = os.path.join(workdir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    paths = {}
    for op, text in cli_configs(seed).items():
        paths[op] = os.path.join(cfg_dir, f"{op}.cfg")
        with open(paths[op], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def _reference_dir(workdir):
    return os.path.join(workdir, "classify-jobs1")


def prepare_cli(seed, workdir):
    """The --jobs 1 classify reference, made once before the timed set-ups."""
    paths = _write_configs(seed, workdir)
    code, err = run_cli(paths["classify"], _reference_dir(workdir), seed, 1)
    if code != 0:
        raise RuntimeError(f"classify --jobs 1 reference failed: {err}")


def setup_cli(seed, workdir):
    paths = _write_configs(seed, workdir)
    reference = _read_outputs(_reference_dir(workdir))
    code, err = run_cli(paths["diagnose"], os.path.join(workdir, "warm-up"), seed, 1)
    if code != 0:
        raise RuntimeError(f"warm-up diagnose failed: {err}")
    ops = []
    for op, cfg_path in paths.items():
        out_dir = os.path.join(workdir, op)
        ops.append(Op(
            name=op,
            call=functools.partial(
                run_cli, cfg_path, out_dir, seed, CLI_JOBS if op == "classify" else 1),
            check=_cli_check(out_dir, reference if op == "classify" else None),
            status=_exit_status,
            span=f"cli.{op}",
            parallel=op == "classify",
        ))
    return Plan(ops, {"jobs": CLI_JOBS, "classify_n": CLASSIFY_N})


WORKLOADS = {
    "verify": setup_verify,
    "ensemble-small": setup_ensemble_small,
    "ensemble-large": setup_ensemble_large,
    "cli": setup_cli,
}
# Work a workload needs before its set-ups, outside the set-up time.
PREPARE = {"cli": prepare_cli}
