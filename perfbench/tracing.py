"""In-memory span tracing of csdyn's layers, installed from outside the library.

A traced run wraps every public function of each layer module (and the
evaluators of every model the models layer returns) so that each call records
a span: name, start, end, parent span and run id.  Spans live in flat arrays
while the run lasts and are written out once it ends.  Self time is derived
afterwards from the span tree by `self_times`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layer modules under src/csdyn; `cli` also covers `config` and `output`.
LAYER_MODULES = (
    "models", "geometry", "flows", "diagnostics", "certificates",
    "ensemble", "cli", "config", "output",
)

# ModelSpec fields that hold evaluators; each call is a `models.<field>` span.
MODEL_EVALUATORS = (
    "X", "DX", "DX_batch", "f", "Df", "f_inv", "H", "dH", "lam", "eta",
    "eta_X", "Omega", "X_sym", "DX_sym", "grad_V", "hess_V", "flow_exact",
)


def _rows(args, kwargs, out):
    return float(np.shape(args[0])[0]) if args and np.ndim(args[0]) >= 2 else 1.0


def _state_steps(args, kwargs, out):
    states, t = args[1], args[2]
    h = kwargs.get("h", args[3] if len(args) > 3 else 0.01)
    return float(len(states) * math.ceil(t / h - 1e-12))


def _items(args, kwargs, out):
    return float(len(out))


def _text_bytes(args, kwargs, out):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return float(len(text.encode("utf-8")))


# Work counted per span, by span name: rows, state-steps, items or bytes.
WORK = {
    "flows.flow_ensemble": _state_steps,
    "ensemble.deterministic_map": _items,
    "output.atomic_write_text": _text_bytes,
}
WORK.update({f"models.{field}": _rows for field in MODEL_EVALUATORS})


class Tracer:
    """Records nested spans of one thread into flat arrays."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self.run_id = 0

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.work.append(0.0)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, post=None):
        """Return fn recording a span per call; post(out) may replace the result."""
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if work is not None:
                self.work[i] = work(args, kwargs, out)
            return out if post is None else post(out)

        traced.__wrapped_by_tracer__ = True
        return traced

    def columns(self):
        """Spans as numpy columns (index = span id; parent -1 = root)."""
        return {
            "name": np.asarray(self.names, dtype=object)[np.frombuffer(self.name_id, dtype=np.int64)]
            if len(self.name_id) else np.empty(0, dtype=object),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def write(self, path):
        """Write all spans to a compressed .npz (names + one array per column)."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            **{key: np.frombuffer(getattr(self, key), dtype=dtype) for key, dtype in (
                ("name_id", np.int64), ("parent", np.int64), ("run", np.int64),
                ("start", np.float64), ("end", np.float64), ("work", np.float64),
            )},
        )


def self_times(parent, start, end):
    """Each span's duration minus the part of it covered by its children.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals clipped to the parent's interval is subtracted.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    covered = np.zeros(len(start))
    kids = np.nonzero(parent >= 0)[0]
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur, lo_run, hi_run = -1, 0.0, 0.0
    for i, p in zip(order.tolist(), parent[order].tolist()):
        lo = max(start[i], start[p])
        hi = min(end[i], end[p])
        if hi <= lo:
            continue
        if p != cur:
            if cur >= 0:
                covered[cur] += hi_run - lo_run
            cur, lo_run, hi_run = p, lo, hi
        elif lo > hi_run:
            covered[cur] += hi_run - lo_run
            lo_run, hi_run = lo, hi
        else:
            hi_run = max(hi_run, hi)
    if cur >= 0:
        covered[cur] += hi_run - lo_run
    return end - start - covered


def _wrap_model(tracer, m):
    """Copy of a ModelSpec whose evaluators record spans (dataclasses.replace)."""
    fields = {f.name for f in dataclasses.fields(m)}
    wrapped = dataclasses.replace(m, **{
        name: tracer.wrap(f"models.{name}", getattr(m, name))
        for name in MODEL_EVALUATORS
        if getattr(m, name) is not None
        and not getattr(getattr(m, name), "__wrapped_by_tracer__", False)
    })
    # attributes attached after construction are not dataclass fields
    for key, value in vars(m).items():
        if key not in fields:
            object.__setattr__(wrapped, key, value)
    return wrapped


@contextmanager
def installed(tracer):
    """Wrap the public functions of every layer in every csdyn namespace."""
    package = importlib.import_module("csdyn")
    modules = {name: importlib.import_module(f"csdyn.{name}") for name in LAYER_MODULES}
    model_cls = modules["models"].ModelSpec

    def model_post(out):
        return _wrap_model(tracer, out) if isinstance(out, model_cls) else out

    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            post = model_post if layer == "models" else None
            wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj, post)

    patched = []
    for ns in (package, *modules.values()):
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((ns, attr, obj))
                setattr(ns, attr, wrappers[obj])
    original_jacobian = model_cls.jacobian
    model_cls.jacobian = tracer.wrap("models.jacobian", original_jacobian)
    try:
        yield
    finally:
        model_cls.jacobian = original_jacobian
        for ns, attr, obj in patched:
            setattr(ns, attr, obj)
