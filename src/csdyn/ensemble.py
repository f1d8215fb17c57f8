"""Deterministic ensemble execution.

Work items are pure functions of their payload; results are merged in
submission order, so the output is identical for any worker count.  Items
must be picklable when jobs > 1 (models are passed as name + params and
rebuilt in the worker).

A batched numpy caller may cut its rows into blocks of any size: the batched
integrators compute each row from that row alone, with elementwise ufuncs
(sin, cos, exp among them) that give an element the same value whatever its
position and the array length, so a row's result is bit-identical whatever
batch surrounds it.  The partition tests in tests/test_fixed_step.py check
this on the numpy build in use.  `blocks` gives each worker one contiguous
block, because a batched step has a fixed cost that small blocks pay again
and again.

The fixed-step engine cuts its batches so too.  Without an observer, a batch
whose four (N, w) arrays (the state and the three RK4 stages) take more than
1 MiB, half a 2 MiB L2, steps in row tiles of about 256 KiB of them
(flows._TILE_BYTES), one tile after the other; classify_ensemble runs its
rows in the same tiles.  A batch under that gate steps whole.  The tile
tests in tests/test_fixed_step.py compare tiled and untiled runs bit for
bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

from .errors import ParamError

# the smallest block worth a worker of its own
WORK_UNIT = 32


def blocks(n, jobs):
    """Bounds (start, stop) of min(jobs, ceil(n / WORK_UNIT)) contiguous,
    near-equal blocks covering range(n), in order."""
    k = min(jobs, math.ceil(n / WORK_UNIT))
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def deterministic_map(fn, items, jobs=1):
    """Map fn over items, preserving order; processes when jobs > 1.

    The pool starts at most one worker per item.
    """
    if jobs < 1:
        raise ParamError(f"jobs must be at least 1, got {jobs}")
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(items) // (4 * workers))
        return list(pool.map(fn, items, chunksize=chunk))
