"""Flat key-value run configurations.

The format is deliberately minimal for reproducibility and diffability:
UTF-8 text, one `key = value` per line, `#` comments, no nesting and no
templating.  Keys are dotted (model.alpha, integrator.rel_tol, run.seed);
unknown keys are rejected with the offending line number.

Values: integers, floats, booleans (true/false), bare or quoted strings,
and parenthesized tuples of numbers like (0.25, 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

OPERATIONS = (
    "simulate",
    "diagnose",
    "attractor",
    "periodic",
    "classify",
    "verify",
    "list-models",
    "basin",
    "escape",
)

_INTEGRATING = ("simulate", "diagnose", "attractor", "periodic")  # read integrator.*

# key -> short description; model.* is validated by the model registry
_KNOWN_KEYS = {
    "run.operation": "one of " + ", ".join(OPERATIONS),
    "run.seed": "integer random seed",
    "run.out": "output directory",
    "run.timestamp": "write timestamp header lines (bool)",
    "run.jobs": "worker count for ensembles",
    "model.name": "registered model name",
    "integrator.method": "reference | splitting | rk4",
    "integrator.rel_tol": "relative tolerance",
    "integrator.abs_tol": "absolute tolerance",
    "integrator.h": "fixed step size",
    "integrator.blowup_threshold": "line-coordinate blow-up threshold",
    "integrator.max_steps": "step budget",
    "simulate.t": "final time",
    "simulate.x0": "initial state tuple",
    "simulate.samples": "number of output samples",
    "simulate.variational": "carry tangent frames (bool)",
    "diagnose.check": "named check (conformality, transport, loop, ...)",
    "diagnose.t": "transport horizon",
    "diagnose.x0": "state for pointwise checks",
    "attractor.t_relax": "relaxation time",
    "attractor.grid": "grid points per axis",
    "attractor.eps": "cloud resolution",
    "attractor.box": "per-axis (lo, hi) bounds flattened; overrides the sublevel set",
    "periodic.section_axis": "section coordinate index",
    "periodic.section_offset": "section offset",
    "periodic.direction": "crossing direction -1/0/1",
    "periodic.guess": "initial state tuple",
    "periodic.backward": "search the time-reversed flow (bool)",
    "classify.n": "ensemble size",
    "classify.T": "integration horizon",
    "verify.scope": "all or a module name",
    "basin.grid": "cells per axis",
    "basin.p_range": "momentum half-width",
    "basin.t_max": "integration budget",
    "escape.box": "per-axis (lo, hi) bounds flattened",
    "escape.n_steps": "backward steps",
    "escape.samples": "sample count",
}


@dataclass
class RunConfig:
    operation: str
    model_name: str | None
    model_params: dict
    options: dict = field(default_factory=dict)
    seed: int = 7
    out_dir: str = "."
    timestamp: bool = True
    jobs: int = 1


def _parse_value(raw, line_no):
    raw = raw.strip()
    if not raw:
        raise ConfigError("empty value", line=line_no)
    if raw.startswith("(") and raw.endswith(")"):
        inner = raw[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_scalar(part.strip(), line_no) for part in inner.split(","))
    return _parse_scalar(raw, line_no)


def _parse_scalar(raw, line_no):
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config_text(text):
    """Parse config text into a {key: value} table, rejecting keys that the
    operation does not read: any key outside run.*, model.*, the operation's
    own section, and integrator.* for the operations that integrate."""
    table, lines = {}, {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=line_no)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not (key in _KNOWN_KEYS or key.startswith("model.")):
            raise ConfigError(f"unknown key {key!r}", line=line_no, key=key)
        if key in table:
            raise ConfigError(f"duplicate key {key!r}", line=line_no, key=key)
        table[key] = _parse_value(raw, line_no)
        lines[key] = line_no
    op = table.get("run.operation")
    read = ("run", "model", op) + ("integrator",) * (op in _INTEGRATING)
    for key, line_no in lines.items():
        if op in OPERATIONS and key.split(".")[0] not in read:
            raise ConfigError(f"key {key!r} is not read by {op!r}", line=line_no, key=key)
    return table


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        table = parse_config_text(fh.read())
    operation = table.pop("run.operation", None)
    if operation is None:
        raise ConfigError("missing required key 'run.operation'", key="run.operation")
    if operation not in OPERATIONS:
        raise ConfigError(
            f"unknown operation {operation!r}; expected one of {', '.join(OPERATIONS)}",
            key="run.operation",
        )
    model_name = table.pop("model.name", None)
    model_params = {}
    for key in list(table):
        if key.startswith("model."):
            model_params[key[len("model."):]] = table.pop(key)
    cfg = RunConfig(
        operation=operation,
        model_name=model_name,
        model_params=model_params,
        seed=int(table.pop("run.seed", 7)),
        out_dir=str(table.pop("run.out", ".")),
        timestamp=bool(table.pop("run.timestamp", True)),
        jobs=int(table.pop("run.jobs", 1)),
        options=table,
    )
    return cfg
