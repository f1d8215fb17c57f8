"""Flat key-value run configurations.

The format is deliberately minimal for reproducibility and diffability:
UTF-8 text, one `key = value` per line, `#` comments, no nesting and no
templating.  Keys are dotted (model.alpha, integrator.rel_tol, run.seed).
Values: integers, floats, booleans (true/false), bare or quoted strings,
and parenthesized tuples of numbers like (0.25, 1.0).

Each operation declares in `cli` the keys it reads and their defaults,
whether it reads model.* and which of run.seed and run.jobs it reads (all
read run.out and run.timestamp), diagnose one set per diagnose.check value,
which picks it; a key outside the set is refused at any value.  A value
must be of its default's type, where a float key also takes an integer, a
key whose default is None takes a tuple of numbers and a string key takes
any scalar as its text.  The model registry checks model.*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

# the run.* keys besides run.operation, with their defaults; every operation
# reads run.out and run.timestamp, and declares whether it reads the others
RUN_KEYS = {"run.seed": 7, "run.out": ".", "run.timestamp": True, "run.jobs": 1}


@dataclass
class RunConfig:
    operation: str
    model_name: str | None
    model_params: dict
    options: dict  # the operation's own keys, by name within its section
    integrator: dict  # the IntegratorConfig fields the operation passes on
    seed: int | None  # None for an operation that reads no run.seed
    out_dir: str
    timestamp: bool
    jobs: int


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


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# type of a key's default -> (accepts a parsed value, converts it, what it takes)
_TYPES = {
    bool: (lambda v: isinstance(v, bool), bool, "true or false"),
    int: (lambda v: _is_number(v) and isinstance(v, int), int, "an integer"),
    float: (_is_number, float, "a number"),
    type(None): (lambda v: isinstance(v, tuple) and all(map(_is_number, v)), tuple,
                 "a tuple of numbers"),
    str: (lambda v: not isinstance(v, tuple), str, "a scalar"),
}


def _typed(key, value, default, line_no):
    accepts, convert, what = _TYPES[type(default)]
    if not accepts(value):
        raise ConfigError(f"{key} takes {what}, got {value!r}", line=line_no, key=key)
    return convert(value)


def parse_config_text(text):
    """Parse config text into {key: value} for every key the operation reads:
    run.operation, run.out, run.timestamp, the model.* keys given, and the
    declared keys of the operation (of its check, when it has checks), each
    typed, or its default when the text does not set it.  Rejects, with its
    line, every other key."""
    from .cli import OPERATIONS  # declared beside their code; cli imports this module

    table, lines = {}, {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=line_no)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in table:
            raise ConfigError(f"duplicate key {key!r}", line=line_no, key=key)
        table[key] = _parse_value(raw, line_no)
        lines[key] = line_no
    op = table.get("run.operation")
    if op is None:
        raise ConfigError("missing required key 'run.operation'", key="run.operation")
    if op not in OPERATIONS:
        raise ConfigError(
            f"unknown operation {op!r}; expected one of {', '.join(OPERATIONS)}",
            line=lines["run.operation"], key="run.operation",
        )
    decls, selector = OPERATIONS[op], f"{op}.check"
    check = table.get(selector, next(iter(decls)))  # None for an operation without checks
    if check not in decls:
        raise ConfigError(f"unknown {selector} {check!r}; expected one of {', '.join(decls)}",
                          line=lines[selector], key=selector)
    spec = decls[check]
    reads = {key: RUN_KEYS[key] for key in ("run.out", "run.timestamp")} | spec.keys
    for key, line_no in lines.items():
        if key in reads:
            table[key] = _typed(key, table[key], reads[key], line_no)
        elif key != "run.operation" and not (spec.model and key.startswith("model.")):
            by = repr(op) if check is None else f"{selector} = {check}"
            raise ConfigError(f"key {key!r} is not read by {by}", line=line_no, key=key)
    return {**reads, **table}


def _section(table, prefix):
    """Pop the keys under prefix from table, by their names within it."""
    return {key[len(prefix):]: table.pop(key) for key in list(table) if key.startswith(prefix)}


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        table = parse_config_text(fh.read())
    operation = table.pop("run.operation")
    model_params = _section(table, "model.")
    return RunConfig(
        operation=operation,
        model_name=model_params.pop("name", None),
        model_params=model_params,
        options=_section(table, operation + "."),
        integrator=_section(table, "integrator."),
        seed=table.get("run.seed"),
        out_dir=table["run.out"],
        timestamp=table["run.timestamp"],
        jobs=table.get("run.jobs", RUN_KEYS["run.jobs"]),
    )
