"""Deterministic file outputs: CSV time series, clouds, grids, JSON reports.

Floats are serialized with 17 significant digits so doubles round-trip; all
writes go through a temp file followed by an atomic rename.  The optional
timestamp header line can be suppressed for byte-identical reruns.
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone

import numpy as np

REPORT_SCHEMA = 1


def _fmt(x):
    return format(float(x), ".17g")


def atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_lines(timestamp):
    if not timestamp:
        return []
    stamp = datetime.now(timezone.utc).isoformat()
    return [f"# written {stamp}"]


def write_trajectory_csv(path, traj, timestamp=True):
    """Columns: t, x0..x{dim-1}[, r_accum]."""
    dim = traj.states.shape[1]
    cols = ["t"] + [f"x{i}" for i in range(dim)]
    if traj.r_accum is not None:
        cols.append("r_accum")
    lines = _header_lines(timestamp)
    lines.append(",".join(cols))
    for i in range(len(traj.times)):
        row = [_fmt(traj.times[i])] + [_fmt(v) for v in traj.states[i]]
        if traj.r_accum is not None:
            row.append(_fmt(traj.r_accum[i]))
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_trajectory_json(path, traj, timestamp=True):
    payload = {
        "status": traj.status,
        "t_escape": traj.t_escape,
        "times": [float(t) for t in traj.times],
        "states": traj.states.tolist(),
    }
    if traj.frames is not None:
        payload["frames"] = traj.frames.tolist()
    if traj.r_accum is not None:
        payload["r_accum"] = traj.r_accum.tolist()
    write_json(path, payload, timestamp=timestamp)


def write_cloud_csv(path, cloud, timestamp=True):
    cloud = np.asarray(cloud, dtype=float)
    lines = _header_lines(timestamp)
    lines.append(",".join(f"x{i}" for i in range(cloud.shape[1])))
    for row in cloud:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_grid_csv(path, labels, axis_names, axis_values, timestamp=True):
    """Row-major label grid; the header documents axis order and ranges."""
    labels = np.asarray(labels)
    lines = _header_lines(timestamp)
    for name, vals in zip(axis_names, axis_values):
        lines.append(
            f"# axis {name}: {_fmt(vals[0])} .. {_fmt(vals[-1])} ({len(vals)} cells)"
        )
    lines.append(f"# rows iterate {axis_names[0]}, columns iterate {axis_names[1]}")
    for row in labels:
        lines.append(",".join(str(int(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_report_json(path, results, seed=None, timestamp=True, extra=None):
    return write_json(path, {
        "seed": seed,
        "n_checks": len(results),
        "n_passed": sum(1 for r in results if r.passed),
        "checks": [r.to_json() for r in results],
        **(extra or {}),
    }, timestamp=timestamp)


def write_json(path, payload, timestamp=True):
    """Write payload, with "schema" and (if timestamp) "written", as sorted JSON."""
    payload = {"schema": REPORT_SCHEMA, **payload}
    if timestamp:
        payload["written"] = datetime.now(timezone.utc).isoformat()
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload
