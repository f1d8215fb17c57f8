"""Configuration-driven front end.

`csdyn --config run.cfg [--seed N --out DIR --no-timestamp --jobs N]`
executes one operation described by a flat key-value config file and writes
CSV/JSON outputs atomically.  Exit codes: 0 on success/PASS, 2 when a
diagnostic check FAILs, 1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import certificates
from .config import RUN_KEYS, load_config
from .diagnostics import (
    CheckResult,
    attractor_estimate,
    classify_ensemble,
    conformal_transport_check,
    emit_basin_grid,
    escape_statistics,
    find_periodic_orbit,
    loop_cohomology_check,
    map_conformality_ratios,
    _worst,
)
from .errors import ConfigError, CsdynError, ParamError
from .flows import (
    IntegratorConfig,
    SectionSpec,
    integrate_flow,
    integrate_variational,
)
from .models import instantiate_model, registered_models, sample_states
from .output import (
    write_cloud_csv,
    write_grid_csv,
    write_json,
    write_report_json,
    write_trajectory_csv,
    write_trajectory_json,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


# name -> {check: operation} in declaration order, check None for one without checks
OPERATIONS = {}

_INTEGRATOR_DEFAULTS = {f.name: f.default for f in dataclasses.fields(IntegratorConfig)}
_ALL_FIELDS = tuple(_INTEGRATOR_DEFAULTS)


def _operation(name, model=True, run=(), integrator=(), **defaults):
    """Declare `_op_x(cfg, **defaults)` as the operation `name`: it reads the
    keys `name.<key>` of defaults, the model.* keys when `model`, the
    `run.<key>` keys of run (besides run.out and run.timestamp, which every
    operation reads), and the `integrator.<field>` keys of the
    IntegratorConfig fields it passes on (as `cfg.integrator`), each of the
    type of its default (see `config`).  A default `check` declares one value
    of the key `name.check`, which picks among its operation's declarations
    (the first is the default) and is not passed on."""
    def register(op):
        op.model = model
        op.keys = {f"{name}.{key}": value for key, value in defaults.items()}
        op.keys.update((f"run.{key}", RUN_KEYS[f"run.{key}"]) for key in run)
        op.keys.update((f"integrator.{f}", _INTEGRATOR_DEFAULTS[f]) for f in integrator)
        OPERATIONS.setdefault(name, {})[defaults.get("check")] = op
        return op

    return register


def _model(cfg):
    if cfg.model_name is None:
        raise ConfigError("this operation needs model.name", key="model.name")
    return instantiate_model(cfg.model_name, cfg.model_params)


def _state(x, m, fill):
    """A state key's value; its default None is the state of m's dimension
    with every coordinate fill."""
    return (fill,) * m.dim if x is None else x


def _box(flat, key):
    """Per-axis (lo, hi) bounds from a flattened box key."""
    if len(flat) % 2:
        raise ConfigError(f"{key} needs (lo, hi) pairs, got {len(flat)} numbers", key=key)
    return tuple(zip(flat[::2], flat[1::2]))


def _out_path(cfg, name):
    return os.path.join(cfg.out_dir, name)


def _report(cfg, stem, result, line):
    """Write one check's report to stem.json and print line; exit code by verdict."""
    write_report_json(
        _out_path(cfg, f"{stem}.json"), [result], seed=cfg.seed, timestamp=cfg.timestamp
    )
    print(line)
    return EXIT_OK if result.passed else EXIT_FAIL


@_operation("simulate", integrator=_ALL_FIELDS,
            t=5.0, x0=None, samples=201, variational=False)
def _op_simulate(cfg, t, x0, samples, variational):
    m = _model(cfg)
    icfg = IntegratorConfig(**cfg.integrator)
    x0 = _state(x0, m, 0.0)
    if variational:
        traj = integrate_variational(m, x0, (0.0, t), icfg, samples=samples)
        write_trajectory_json(
            _out_path(cfg, f"simulate_{m.name}.json"), traj, timestamp=cfg.timestamp
        )
    else:
        traj = integrate_flow(m, x0, (0.0, t), icfg, samples=samples)
    write_trajectory_csv(
        _out_path(cfg, f"simulate_{m.name}.csv"), traj, timestamp=cfg.timestamp
    )
    print(f"simulate {m.name}: status={traj.status} samples={len(traj.times)}")
    return EXIT_OK


def _report_diagnosis(cfg, check, result):
    return _report(cfg, f"diagnose_{result.model}_{check}", result,
                   f"{result.check} {result.model}: residual={result.residual:.3e} "
                   f"tolerance={result.tolerance:.3e} {result.verdict}")


@_operation("diagnose", run=("seed",), check="conformality")
def _op_diagnose_conformality(cfg):
    m = _model(cfg)
    if m.kind != "map":
        raise ConfigError("conformality check expects a map model")
    rng = np.random.default_rng(cfg.seed)
    ratios, residuals = map_conformality_ratios(m, sample_states(m, 100, rng))
    spread = float(np.max(ratios) - np.min(ratios))
    return _report_diagnosis(cfg, "conformality", CheckResult(
        check="conformality",
        model=m.name,
        params=m.params,
        residual=_worst(float(np.max(residuals)), spread),
        tolerance=1e-12,
        provenance_tag="conformality/map-ratio",
        details={"ratio": float(np.mean(ratios)), "spread": spread},
    ))


@_operation("diagnose", integrator=_ALL_FIELDS, check="transport", t=1.0, x0=None)
def _op_diagnose_transport(cfg, t, x0):
    m = _model(cfg)
    icfg = IntegratorConfig(**cfg.integrator)
    traj = integrate_variational(m, _state(x0, m, 0.1), (0.0, t), icfg, samples=21)
    return _report_diagnosis(cfg, "transport", conformal_transport_check(m, traj))


@_operation("diagnose", check="loop", t=1.0)
def _op_diagnose_loop(cfg, t):
    m = _model(cfg)
    th = np.linspace(0.0, 1.0, 2049)
    loop = np.stack([np.mod(th, 1.0), np.ones_like(th)], axis=1)
    return _report_diagnosis(cfg, "loop", loop_cohomology_check(m, loop, t))


@_operation("attractor", t_relax=60.0, grid=33, eps=1e-3, box=None, h=0.01)
def _op_attractor(cfg, t_relax, grid, eps, box, h):
    m = _model(cfg)
    # without a box, the sublevel set of the model's trapping level
    est = attractor_estimate(
        m, t_relax=t_relax, grid=grid, eps=eps, h=h,
        box=None if box is None else _box(box, "attractor.box"),
    )
    write_cloud_csv(
        _out_path(cfg, f"attractor_{m.name}.csv"), est.cloud, timestamp=cfg.timestamp
    )
    # the verdict is the trapping status, scored as cert_classification does
    result = CheckResult(
        check="attractor-estimate",
        model=m.name,
        params=m.params,
        residual=0.0 if est.status == "trapped" else math.inf,
        tolerance=0.0,
        provenance_tag="attractor/relaxation",
        details={
            "trap_level": est.trap_level,
            "cloud_size": len(est.cloud),
            "status": est.status,
            "escaped": est.escaped,
            "invariance_residual": est.invariance_residual,
            "invariance_bound": 10 * eps,
        },
    )
    return _report(cfg, f"attractor_{m.name}", result,
                   f"attractor {m.name}: {est.status} cloud={len(est.cloud)} "
                   f"invariance={est.invariance_residual:.3e}")


@_operation("periodic", integrator=_ALL_FIELDS,
            section_axis=0, section_offset=0.0, direction=0, guess=None, backward=False)
def _op_periodic(cfg, section_axis, section_offset, direction, guess, backward):
    m = _model(cfg)
    icfg = IntegratorConfig(**cfg.integrator)
    sec = SectionSpec(axis=section_axis, offset=section_offset, direction=direction)
    po = find_periodic_orbit(m, sec, _state(guess, m, 0.0), icfg, backward=backward)
    payload = {
        "anchor": po.anchor.tolist(),
        "period": po.period,
        "multipliers": [[z.real, z.imag] for z in po.multipliers],
        "mean_rotation": po.mean_rotation,
        "closure_error": po.closure_error,
        "pairing_defect_modulus": po.pairing_defect_modulus,
        "pairing_defect_argument": po.pairing_defect_argument,
        "h_anchor": po.h_anchor,
    }
    result = CheckResult(
        check="periodic-orbit",
        model=m.name,
        params=m.params,
        residual=po.closure_error,
        tolerance=1e-9,
        provenance_tag="spectra/multiplier-pairing",
        details=payload,
    )
    return _report(cfg, f"periodic_{m.name}", result,
                   f"periodic {m.name}: T={po.period:.12g} closure={po.closure_error:.3e}")


def _classify_chunk(payload):
    name, params, chunk, horizon = payload
    m = instantiate_model(name, params)
    return classify_ensemble(m, np.asarray(chunk), T=horizon)


@_operation("classify", run=("seed", "jobs"), n=100, T=10.0)
def _op_classify(cfg, n, T):
    from .ensemble import blocks, deterministic_map

    m = _model(cfg)
    if n < 1:
        raise ParamError(f"classify.n must be at least 1, got {n}")
    rng = np.random.default_rng(cfg.seed)
    starts = sample_states(m, n, rng, 1.0)
    # one contiguous block per worker; rows are independent of their block,
    # so the output is bit-identical for every worker count
    payloads = [
        (cfg.model_name, cfg.model_params, starts[i:j].tolist(), T)
        for i, j in blocks(len(starts), cfg.jobs)
    ]
    outs = deterministic_map(_classify_chunk, payloads, jobs=cfg.jobs)
    results = [r for chunk in outs for r in chunk]
    counts = {"dissipative": 0, "conservative": 0, "undetermined": 0}
    for r in results:
        counts[r.verdict] += 1
    write_json(_out_path(cfg, f"classify_{m.name}.json"), {
        "seed": cfg.seed, "model": m.name, "params": m.params,
        "counts": counts,
        "orbits": [
            {
                "x0": starts[i].tolist(),
                "verdict": r.verdict,
                "r_slope": r.r_slope,
                "omega_H_max": r.omega_H_max,
            }
            for i, r in enumerate(results)
        ],
    }, timestamp=cfg.timestamp)
    print(f"classify {m.name}: {counts}")
    return EXIT_OK


@_operation("escape", run=("seed",), box=None, n_steps=100, samples=1000)
def _op_escape(cfg, box, n_steps, samples):
    m = _model(cfg)
    if box is None:
        raise ConfigError("escape needs escape.box", key="escape.box")
    stats = escape_statistics(m, _box(box, "escape.box"), n_steps, samples, seed=cfg.seed)
    write_json(_out_path(cfg, f"escape_{m.name}.json"), {
        "seed": cfg.seed, "model": m.name, "params": m.params,
        "escaped": stats.escaped, "total": stats.total, "n_steps": n_steps,
    }, timestamp=cfg.timestamp)
    print(f"escape {m.name}: {stats.escaped}/{stats.total} within {n_steps} steps")
    return EXIT_OK


@_operation("basin", grid=100, p_range=3.0, t_max=60.0)
def _op_basin(cfg, grid, p_range, t_max):
    m = _model(cfg)
    targets = [np.asarray(e) for e in m.equilibria]
    labels, q_axis, p_axis = emit_basin_grid(m, grid, p_range, targets, t_max=t_max)
    write_grid_csv(
        _out_path(cfg, f"basin_{m.name}.csv"), labels, ("q", "p"),
        (q_axis, p_axis), timestamp=cfg.timestamp,
    )
    unique, counts = np.unique(labels, return_counts=True)
    print(f"basin {m.name}: " + ", ".join(
        f"label {int(u)}: {int(c)}" for u, c in zip(unique, counts)))
    return EXIT_OK


@_operation("verify", model=False, run=("seed",), scope="all")
def _op_verify(cfg, scope):
    try:
        results, ok = certificates.verify_suite(scope=scope, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc), key="verify.scope")
    print(certificates.format_report(results))
    write_report_json(
        _out_path(cfg, f"verify_{scope}.json"), results,
        seed=cfg.seed, timestamp=cfg.timestamp,
        extra={"scope": scope},
    )
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_FAIL


@_operation("list-models", model=False)
def _op_list_models(cfg):
    for name in registered_models():
        print(name)
    return EXIT_OK


def run_config(path, seed=None, out=None, timestamp=None, jobs=None):
    """Execute the operation described by the config file; returns exit code."""
    try:
        cfg = load_config(path)
        if seed is not None and cfg.seed is not None:  # None: the operation draws nothing
            cfg.seed = int(seed)
        if out is not None:
            cfg.out_dir = out
        if timestamp is not None:
            cfg.timestamp = timestamp
        if jobs is not None:
            cfg.jobs = int(jobs)
        if cfg.jobs < 1:
            raise ConfigError(
                f"run.jobs must be at least 1, got {cfg.jobs}", key="run.jobs"
            )
        os.makedirs(cfg.out_dir, exist_ok=True)
        checks = OPERATIONS[cfg.operation]  # {None: op} for an operation without checks
        return checks[cfg.options.pop("check", None)](cfg, **cfg.options)
    except ConfigError as exc:
        loc = f" (line {exc.line})" if exc.line else ""
        print(f"config error{loc}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (CsdynError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="csdyn",
        description="simulate and certify conformally symplectic dynamics",
    )
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument(
        "--no-timestamp", action="store_true",
        help="suppress timestamp headers for byte-identical reruns",
    )
    parser.add_argument("--jobs", type=int, default=None, help="ensemble workers")
    args = parser.parse_args(argv)
    return run_config(
        args.config,
        seed=args.seed,
        out=args.out,
        timestamp=False if args.no_timestamp else None,
        jobs=args.jobs,
    )


if __name__ == "__main__":
    sys.exit(main())
