"""Coordinate spaces with mixed circle/line axes and chart-level form algebra.

Circle axes have period 1; all trigonometric model code carries the 2*pi
factor explicitly.  Two-forms are dense antisymmetric matrices in chart
coordinates, one-forms are coefficient vectors; there is no symbolic layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFormError, DimensionMismatchError, OpenLoopError

ANGLE = "angle"
LINE = "line"
_CLOSURE_TOL = 1e-9  # loop_integral's largest gap between a loop's ends


@dataclass(frozen=True)
class CoordinateSpec:
    """Ordered list of axis kinds for an even-dimensional chart."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if any(a not in (ANGLE, LINE) for a in axes):
            raise ValueError(f"unknown axis kind in {axes}")
        if len(axes) < 2 or len(axes) % 2 != 0:
            raise ValueError("dimension must be even and >= 2")
        mask = np.array([a == ANGLE for a in axes], dtype=bool)
        object.__setattr__(self, "angle_mask", mask)
        # the angle axes as a slice when they are one run (every registered
        # chart): basic indexing gives a view, a boolean mask gathers a copy
        idx = np.nonzero(mask)[0]
        run = len(idx) and idx[-1] - idx[0] + 1 == len(idx)
        object.__setattr__(
            self, "_angles", slice(int(idx[0]), int(idx[-1]) + 1) if run else idx
        )

    @property
    def dim(self):
        return len(self.axes)

    def wrap(self, x):
        """Normalize angle components into [0, 1); line components untouched.
        Returns a C-ordered copy, whatever the layout of x."""
        return self._wrap_angles(np.array(x, dtype=float, order="C"), 0.0)

    def delta(self, x, y):
        """Minimal displacement y - x, angle components wrapped into [-0.5, 0.5)."""
        d = np.subtract(np.asarray(y, dtype=float), np.asarray(x, dtype=float))
        return self._wrap_angles(d, 0.5)

    def step(self, a, b):
        """Displacement b - a with each angle component less its nearest
        integer: the short way round for a step under half a turn, and
        bit-identical to b - a where no angle component passes +-0.5."""
        d = np.subtract(b, a)
        v = d[..., self._angles]  # a view when the angles are a slice
        r = np.rint(v)
        r += 0.0  # rint(-0.3) is -0.0, and -0.0 - -0.0 would give +0.0
        np.subtract(v, r, out=v)
        if not isinstance(self._angles, slice):
            d[..., self._angles] = v
        return d

    def _wrap_angles(self, d, shift):
        """Set the angle components of d to mod(d + shift, 1) - shift, in place.

        mod(v, 1) is taken as v - floor(v), bit for bit np.mod(v, 1.0) and
        several times faster: np.mod's fmod(v, 1) is exact and it adds 1 once
        to a negative remainder, the one rounding of v - floor(v); a zero
        comes out +0.0 both ways, and inf or NaN gives NaN."""
        a = self._angles
        v = d[..., a]  # a view when a is a slice, else a gathered copy
        if shift:
            np.add(v, shift, out=v)
        np.subtract(v, np.floor(v), out=v)
        if shift:
            np.subtract(v, shift, out=v)
        else:  # an angle in [-2**-54, 0) rounds up to 1.0, which is 0.0
            np.copyto(v, 0.0, where=v == 1.0)
        if not isinstance(a, slice):
            d[..., a] = v
        return d


def _sum_last(a):
    """np.sum(a, axis=-1) bit for bit, column by column below 8 entries.

    numpy adds a last axis of fewer than 8 entries in sequence onto its
    identity, ((0.0 + a0) + a1) + ..., in C and column-major layouts alike
    (from 8 on it sums a C-ordered row pairwise); the 0.0 only turns a -0.0
    sum into +0.0.  One state (shape (n,)) gives a numpy float, as np.sum
    does.
    """
    n = a.shape[-1]
    if not 0 < n < 8:
        return np.sum(a, axis=-1)
    total = 0.0 + a[..., 0]
    for i in range(1, n):
        total += a[..., i]  # in place on an array, rebinds a numpy float
    return total


def torus_distance(spec, x, y):
    """Euclidean distance with per-axis wrap min(|d|, 1-|d|) on angle axes."""
    d = spec.delta(x, y)
    return np.sqrt(_sum_last(d * d))


def eval_two_form(omega, u, v):
    """Pair two tangent vectors against a two-form matrix: u^T omega v.

    Evaluated in antisymmetrized form, so swapping the arguments negates the
    result exactly, including rounding.
    """
    omega = np.asarray(omega, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = omega.shape[-1]
    if omega.shape[-2:] != (n, n) or u.shape[-1] != n or v.shape[-1] != n:
        raise DimensionMismatchError(
            f"shape mismatch: omega {omega.shape}, u {u.shape}, v {v.shape}"
        )
    uv = np.einsum("...i,...ij,...j->...", u, omega, v)
    vu = np.einsum("...i,...ij,...j->...", v, omega, u)
    return 0.5 * (uv - vu)


def _matrix_stacks(*mats):
    """The arrays as float (..., n, n) stacks of one n."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    if any(m.ndim < 2 or m.shape[-2:] != mats[0].shape[-1:] * 2 for m in mats):
        raise DimensionMismatchError(
            f"need (..., n, n) stacks of one n, got {[m.shape for m in mats]}")
    return mats


def _frobenius_dot(a, b):
    """Per-matrix sum of a * b over (..., n, n) stacks, as a (1, n*n) by (n*n, 1)
    product: one matrix's np.tensordot bit for bit (einsum rounds otherwise)."""
    k = a.shape[-2] * a.shape[-1]
    return (a.reshape(a.shape[:-2] + (1, k)) @ b.reshape(b.shape[:-2] + (k, 1)))[..., 0, 0]


def conformality_ratio_estimate(jac, omega_x, omega_fx):
    """Least-squares scalar a minimizing ||J^T omega_fx J - a omega_x||_F.

    (ratio, residual) per matrix of (..., n, n) stacks, floats for one matrix,
    with the residual normalized by ||omega_x||_F.  The Frobenius fit is
    robust to near-zero individual entries.
    """
    jac, omega_x, omega_fx = _matrix_stacks(jac, omega_x, omega_fx)
    denom = _frobenius_dot(omega_x, omega_x)
    if np.any(denom == 0.0):
        raise DegenerateFormError("omega_x is the zero matrix")
    pulled = np.swapaxes(jac, -1, -2) @ omega_fx @ jac
    ratio = _frobenius_dot(pulled, omega_x) / denom
    off = pulled - np.expand_dims(ratio, (-2, -1)) * omega_x
    residual = np.sqrt(_frobenius_dot(off, off)) / np.sqrt(denom)
    return (float(ratio) if np.ndim(ratio) == 0 else ratio), residual


def pullback_residual(jac, omega_x, omega_fx, expected):
    """Max-entry deviation ||J^T omega_fx J - expected * omega_x||_inf per
    matrix of (..., n, n) stacks, a float for one matrix."""
    jac, omega_x, omega_fx = _matrix_stacks(jac, omega_x, omega_fx)
    if expected <= 0:
        raise ValueError("expected pullback factor must be positive")
    pulled = np.swapaxes(jac, -1, -2) @ omega_fx @ jac
    res = np.max(np.abs(pulled - expected * omega_x), axis=(-2, -1))
    return float(res) if np.ndim(res) == 0 else res


def loop_integral(spec, lambda_eval, loop):
    """Composite-trapezoid estimate of the circulation of a 1-form along a loop.

    `loop` is an ordered array of states whose first and last entries agree up
    to angle wrap, within _CLOSURE_TOL.  Angle displacements are unwrapped
    segment by segment; the caller must sample densely enough that adjacent
    samples differ by < 0.5 per axis.
    """
    pts = np.asarray(loop, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.dim:
        raise DimensionMismatchError("loop must be an (n, dim) array of states")
    if pts.shape[0] < 16:
        raise OpenLoopError("need at least 16 loop samples")
    if float(torus_distance(spec, pts[0], pts[-1])) > _CLOSURE_TOL:
        raise OpenLoopError("loop is not closed (first != last up to wrap)")
    lam = np.broadcast_to(np.asarray(lambda_eval(pts), dtype=float), pts.shape)
    steps = spec.delta(pts[:-1], pts[1:])
    mid = 0.5 * (lam[:-1] + lam[1:])
    return float(np.sum(mid * steps))


# ---------------------------------------------------------------------------
# finite-difference exterior calculus, used for structural self-checks
# ---------------------------------------------------------------------------
_FD_STEP = 1e-6  # the central-difference step of the fd_* kernels

def fd_gradient(f, x):
    """Central-difference gradient of a scalar function; x (..., n) -> (..., n)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[i] = _FD_STEP
        g[..., i] = (f(x + e) - f(x - e)) / (2 * _FD_STEP)
    return g


def fd_jacobian(f, x):
    """Central-difference Jacobian, rows = components; x (..., n) -> (..., m, n)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[i] = _FD_STEP
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * _FD_STEP))
    return np.stack(cols, axis=-1)


def fd_exterior_derivative_one_form(lambda_eval, x):
    """(d lambda)_ij = d_i lambda_j - d_j lambda_i by central differences, per state."""
    jac = fd_jacobian(lambda_eval, x)  # jac[..., j, i] = d_i lambda_j
    return np.swapaxes(jac, -1, -2) - jac


def fd_exterior_derivative_two_form(omega_eval, x):
    """Components (d omega)(e_i, e_j, e_k) of the exterior derivative.

    Returns a dict {(i, j, k): per-state value} over i < j < k.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    # d[..., j, k, i] = d_i omega_jk, per state also where omega is constant
    d = np.broadcast_to(fd_jacobian(omega_eval, x), x.shape[:-1] + (n, n, n))
    return {
        (i, j, k): d[..., j, k, i] + d[..., k, i, j] + d[..., i, j, k]
        for i, j, k in itertools.combinations(range(n), 3)
    }


def wedge_one_two(eta, omega):
    """Components (eta ^ omega)(e_i, e_j, e_k) over i < j < k, a dict of per-state values."""
    eta = np.asarray(eta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return {
        (i, j, k): eta[..., i] * omega[..., j, k] - eta[..., j] * omega[..., i, k]
        + eta[..., k] * omega[..., i, j]
        for i, j, k in itertools.combinations(range(eta.shape[-1]), 3)
    }
