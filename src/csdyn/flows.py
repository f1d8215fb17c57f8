"""Trajectory generation.

The reference integrator is an embedded Dormand-Prince 5(4) pair with PI
step-size control and cubic Hermite dense output.  Variational equations
are integrated jointly with the state as one error-controlled system, never
by re-differencing trajectories.  Internally all states are kept as
unwrapped reals so the registered periodic fields stay smooth; angle
normalization is applied only at output.

The structure-preserving alternative is a Strang splitting of
X = alpha*Z + X_H: exact fiber contraction exp(-alpha h/2), one symplectic
step of X_H (Stormer-Verlet for mechanical kinetic+potential Hamiltonians,
implicit midpoint otherwise), exact contraction again.  Its one-step
Jacobian satisfies J^T Omega J = exp(-alpha h) Omega to machine precision
for every h, a structural rather than asymptotic property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BlowUpError,
    ConvergenceError,
    KindError,
    ParamError,
    PoisonedStateError,
    SectionError,
)
from .models import FLOW, MAP

COMPLETED = "completed"
BLOWUP = "blowup"
MAX_STEPS = "max-steps"

REFERENCE = "reference"
SPLITTING = "splitting"
RK4 = "rk4"

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


@dataclass
class IntegratorConfig:
    method: str = REFERENCE
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h: float = 0.01
    max_step: float = math.inf
    blowup_threshold: float = 1e8
    max_steps: int = 1_000_000
    midpoint_tol: float = 1e-14
    midpoint_max_sweeps: int = 50

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-2 and 0.0 < self.abs_tol <= 1e-2):
            raise ParamError("tolerances must lie in (0, 1e-2]")
        if self.h <= 0:
            raise ParamError("step size must be positive")
        if self.method not in (REFERENCE, SPLITTING, RK4):
            raise ParamError(f"unknown integrator method {self.method!r}")


@dataclass
class Trajectory:
    """Sampled flow data; frames are the tangent maps D(phi_t)."""

    times: np.ndarray
    states: np.ndarray
    frames: np.ndarray | None = None
    r_accum: np.ndarray | None = None
    status: str = COMPLETED
    t_escape: float | None = None
    backward: bool = False

    def __post_init__(self):
        n = len(self.times)
        if len(self.states) != n:
            raise ParamError("times/states length mismatch")
        if self.frames is not None and len(self.frames) != n:
            raise ParamError("times/frames length mismatch")
        if self.r_accum is not None and len(self.r_accum) != n:
            raise ParamError("times/r_accum length mismatch")

    @property
    def final_state(self):
        return self.states[0] if self.backward else self.states[-1]

    @property
    def final_frame(self):
        if self.frames is None:
            return None
        return self.frames[0] if self.backward else self.frames[-1]

    @property
    def r_final(self):
        if self.r_accum is None:
            return None
        return float(self.r_accum[0] if self.backward else self.r_accum[-1])


def _hermite(t0, y0, f0, t1, y1, f1, t):
    h = t1 - t0
    u = (t - t0) / h
    u2, u3 = u * u, u * u * u
    return (
        (2 * u3 - 3 * u2 + 1) * y0
        + (u3 - 2 * u2 + u) * h * f0
        + (-2 * u3 + 3 * u2) * y1
        + (u3 - u2) * h * f1
    )


def _error_norm(delta, y_old, y_new, rel, abs_):
    scale = abs_ + rel * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((delta / scale) ** 2)))


class _AdaptivePath:
    """Accepted Dormand-Prince nodes of the autonomous rhs(y), with dense output."""

    def __init__(self, rhs, t0, t1, y0, cfg, line_slice=None):
        self.rhs = rhs
        self.cfg = cfg
        self.line_slice = line_slice  # indices checked against the blow-up threshold
        self.status = COMPLETED
        self.t_escape = None
        self.ts = [t0]
        self.ys = [np.array(y0, dtype=float)]
        f0 = self._eval(t0, self.ys[0])
        self.fs = [f0]
        self._run(t0, t1)

    def _eval(self, t, y):
        f = np.asarray(self.rhs(y), dtype=float)
        if not np.all(np.isfinite(f)):
            raise PoisonedStateError(
                f"field evaluation returned non-finite values at t={t}", t=t, state=y
            )
        return f

    def _line_norm(self, y):
        if self.line_slice is None or len(self.line_slice) == 0:
            return 0.0
        return float(np.max(np.abs(y[self.line_slice])))

    def _run(self, t0, t1):
        cfg = self.cfg
        span = t1 - t0
        t, y, f = t0, self.ys[0], self.fs[0]
        # conservative initial step from the field scale
        scale = cfg.abs_tol + cfg.rel_tol * np.abs(y)
        d0 = float(np.sqrt(np.mean((y / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((f / scale) ** 2)))
        h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else 1e-6
        h = min(h, 0.1 * span, cfg.max_step)
        h = max(h, 1e-12)
        err_prev = 1.0
        k = np.empty((7,) + y.shape)
        for _ in range(cfg.max_steps):
            if t >= t1:
                return
            h = min(h, t1 - t)
            k[0] = f
            failed_in_row = 0
            while True:
                for i in range(1, 7):
                    yi = y + h * np.tensordot(_DP_A[i], k[:i], axes=(0, 0))
                    k[i] = self._eval(t + _DP_C[i] * h, yi)
                y_new = y + h * np.tensordot(_DP_B5, k, axes=(0, 0))
                delta = h * np.tensordot(_DP_ERR, k, axes=(0, 0))
                err = _error_norm(delta, y, y_new, cfg.rel_tol, cfg.abs_tol)
                if err <= 1.0 or h <= 1e-14 * max(1.0, abs(t)):
                    break
                h *= max(0.2, min(1.0, 0.9 * err ** (-0.2)))
                failed_in_row += 1
                if failed_in_row > 60:
                    raise ConvergenceError("step size collapsed without acceptance")
            # copy: k is a reused stage buffer and fs keeps the node derivative
            f_new = k[6].copy() if _DP_C[6] == 1.0 else self._eval(t + h, y_new)
            t_new = t + h
            self.ts.append(t_new)
            self.ys.append(y_new)
            self.fs.append(f_new)
            if self._line_norm(y_new) > cfg.blowup_threshold:
                self._bracket_blowup()
                return
            # PI controller; exact steps (err = 0, e.g. at equilibria) grow maximally
            fac = 0.9 * max(err, 1e-10) ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
            h = h * min(5.0, max(0.2, fac))
            h = min(h, cfg.max_step)
            err_prev = max(err, 1e-10)
            t, y, f = t_new, y_new, f_new
        self.status = MAX_STEPS

    def _bracket_blowup(self):
        """Bisection on the last Hermite segment for the threshold crossing."""
        thr = self.cfg.blowup_threshold
        t0, y0, f0 = self.ts[-2], self.ys[-2], self.fs[-2]
        t1, y1, f1 = self.ts[-1], self.ys[-1], self.fs[-1]
        a, b = t0, t1
        while (b - a) > 1e-6 * max(abs(a), abs(b), 1e-12) and (b - a) > 1e-15:
            mid = 0.5 * (a + b)
            ymid = _hermite(t0, y0, f0, t1, y1, f1, mid)
            if self._line_norm(ymid) > thr:
                b = mid
            else:
                a = mid
        t_star = b
        y_star = _hermite(t0, y0, f0, t1, y1, f1, t_star)
        self.ts[-1] = t_star
        self.ys[-1] = y_star
        self.fs[-1] = self._eval(t_star, y_star)
        self.status = BLOWUP
        self.t_escape = t_star


def _sample(ts, ys, fs, times):
    """Dense cubic Hermite evaluation of nodes (ts, ys, fs) at sorted times."""
    ts = np.asarray(ts)
    out = np.empty((len(times),) + ys[0].shape)
    for j, t in enumerate(times):
        i = int(np.searchsorted(ts, t, side="right")) - 1
        i = min(max(i, 0), len(ts) - 2)
        if t <= ts[0]:
            out[j] = ys[0]
        elif t >= ts[-1]:
            out[j] = ys[-1]
        else:
            out[j] = _hermite(ts[i], ys[i], fs[i], ts[i + 1], ys[i + 1], fs[i + 1], t)
    return out


def _line_indices(m):
    return np.nonzero(~m.spec.angle_mask)[0]


def _eta_contraction(m):
    """eta(X) as a batched scalar field, analytic when the model provides it."""
    if m.eta_X is not None:
        return m.eta_X

    def contraction(x):
        x = np.asarray(x, dtype=float)
        eta = np.asarray(m.eta(x), dtype=float)
        xdot = np.asarray(m.X(x), dtype=float)
        return np.einsum("...i,...i->...", eta, xdot)

    return contraction


def _joint_rhs(m, k, racc):
    """Joint field of the rows y = [x | n*k tangent entries, row-major n x k | r].

    Both integrators use it: the adaptive path on one row, the fixed-step
    engine on (N, w) batches.
    """
    n = m.dim
    if not k and not racc:
        return lambda y: np.asarray(m.X(y), dtype=float)
    DX = m.jacobian
    eta_dot = _eta_contraction(m) if racc else None

    def rhs(y):
        x = y[..., :n]
        parts = [np.asarray(m.X(x), dtype=float)]
        if k == 1:
            parts.append(np.einsum("...ij,...j->...i", DX(x), y[..., n : 2 * n]))
        elif k:
            F = y[..., n : n + n * k].reshape(y.shape[:-1] + (n, k))
            parts.append((DX(x) @ F).reshape(y.shape[:-1] + (n * k,)))
        if racc:
            parts.append(np.asarray(eta_dot(x), dtype=float)[..., None])
        return np.concatenate(parts, axis=-1)

    return rhs


def _require_flow(m):
    if m.kind != FLOW:
        raise KindError(f"{m.name} is not a flow model")


def _integrate_core(m, x0, t_span, cfg, with_frames, times, samples, initial_frame):
    _require_flow(m)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        raise ParamError("zero-length time span")
    backward = t1 < t0
    with_racc = m.eta is not None
    n = m.dim
    x0 = np.asarray(x0, dtype=float)

    if backward:
        rev_times = None if times is None else np.sort(t0 - np.asarray(times, float))
        traj = _integrate_core(
            time_reversed_view(m), x0, (0.0, t0 - t1), cfg, with_frames, rev_times,
            samples, initial_frame,
        )
        phys = t0 - traj.times
        order = np.argsort(phys)
        return Trajectory(
            times=phys[order],
            states=traj.states[order],
            frames=None if traj.frames is None else traj.frames[order],
            r_accum=None
            if traj.r_accum is None
            else traj.r_accum[order] - traj.r_accum[order][0],
            status=traj.status,
            t_escape=None if traj.t_escape is None else t0 - traj.t_escape,
            backward=True,
        )

    cfg = cfg or IntegratorConfig()
    if with_frames and m.DX is None and cfg.rel_tol > 1e-8:
        raise ParamError(
            "finite-difference Jacobians require reference tolerance <= 1e-8"
        )
    y0 = [x0]
    if with_frames:
        F0 = np.eye(n) if initial_frame is None else np.asarray(initial_frame, float)
        y0.append(F0.ravel())
    if with_racc:
        y0.append([0.0])
    y0 = np.concatenate(y0)

    if cfg.method == REFERENCE:
        path = _AdaptivePath(
            _joint_rhs(m, n if with_frames else 0, with_racc), t0, t1, y0, cfg,
            line_slice=_line_indices(m),
        )
        ts, ys, fs, status, t_escape = path.ts, path.ys, path.fs, path.status, path.t_escape
    else:
        ts, ys, fs, status, t_escape = _fixed_step_nodes(
            m, y0, t0, t1, cfg, with_frames, with_racc
        )
    t_end = ts[-1]
    if times is None:
        times = np.linspace(t0, t_end, samples)
    else:
        times = np.asarray(times, dtype=float)
        times = times[(times >= t0) & (times <= t_end + 1e-15)]
        if len(times) == 0 or times[-1] < t_end:
            times = np.append(times, t_end)
    ys = _sample(ts, ys, fs, times)
    states = m.spec.wrap(ys[:, :n])
    frames = None
    if with_frames:
        frames = ys[:, n : n + n * n].reshape(-1, n, n)
        if np.any(np.linalg.det(frames) <= 0.0):
            raise ConvergenceError("tangent frames lost orientation (det <= 0)")
    racc = ys[:, -1] if with_racc else None
    return Trajectory(
        times=times, states=states, frames=frames, r_accum=racc,
        status=status, t_escape=t_escape,
    )


def _negated(f):
    return None if f is None else (lambda x: -np.asarray(f(x), dtype=float))


def time_reversed_view(m):
    """The flow of -X as a ModelSpec; repelling orbits of m are attracting for it.

    -X has the defining identity of m with -alpha and -H (eta and lambda
    stay), and X_H negates with it.  Splitting is off and -H is not
    fiber-convex.
    """
    _require_flow(m)
    fe = m.flow_exact
    return replace(
        m, alpha=-m.alpha, X=_negated(m.X), DX=_negated(m.DX), H=_negated(m.H),
        dH=_negated(m.dH), X_sym=_negated(m.X_sym), DX_sym=_negated(m.DX_sym),
        eta_X=_negated(m.eta_X), cotangent_splittable=False, fiber_convex=False,
        flow_exact=None if fe is None else (
            lambda x, t: fe(x, -np.asarray(t, dtype=float))
        ),
    )


def integrate_flow(m, x0, t_span, cfg=None, samples=201, times=None):
    """Dense-output trajectory over t_span at caller-requested sample times."""
    return _integrate_core(m, x0, t_span, cfg, False, times, samples, None)


def integrate_variational(m, x0, t_span, cfg=None, samples=201, times=None,
                          initial_frame=None):
    """Trajectory with tangent frames, state and frame in one controlled system."""
    return _integrate_core(m, x0, t_span, cfg, True, times, samples, initial_frame)


# ---------------------------------------------------------------------------
# structure-preserving splitting and fixed-step drivers
# ---------------------------------------------------------------------------

def _verlet_step(m, x, h):
    d = m.d
    q, p = x[:d].copy(), x[d:].copy()
    g0 = m.grad_V(q)
    p_half = p - 0.5 * h * g0
    q_new = q + h * p_half
    g1 = m.grad_V(q_new)
    p_new = p_half - 0.5 * h * g1
    eye = np.eye(d)
    s1 = np.block([[eye, np.zeros((d, d))], [-0.5 * h * m.hess_V(q), eye]])
    s2 = np.block([[eye, h * eye], [np.zeros((d, d)), eye]])
    s3 = np.block([[eye, np.zeros((d, d))], [-0.5 * h * m.hess_V(q_new), eye]])
    return np.concatenate([q_new, p_new]), s3 @ s2 @ s1


def _midpoint_step(m, x, h, cfg):
    z = x.copy()
    for _ in range(cfg.midpoint_max_sweeps):
        mid = 0.5 * (x + z)
        z_next = x + h * np.asarray(m.X_sym(mid), dtype=float)
        if float(np.max(np.abs(z_next - z))) <= cfg.midpoint_tol * (
            1.0 + float(np.max(np.abs(x)))
        ):
            z = z_next
            break
        z = z_next
    else:
        raise ConvergenceError("implicit midpoint did not converge in 50 sweeps")
    A = m.DX_sym(0.5 * (x + z))
    n = len(x)
    J = np.linalg.solve(np.eye(n) - 0.5 * h * A, np.eye(n) + 0.5 * h * A)
    return z, J


def conformal_splitting_step(m, x, h, cfg=None):
    """One exactly-conformal Strang step; returns (state, one-step Jacobian)."""
    if not m.cotangent_splittable:
        raise KindError(f"{m.name} is not cotangent-splittable")
    if h > 0.5:
        raise ParamError("splitting step size must satisfy h <= 0.5")
    cfg = cfg or IntegratorConfig(method=SPLITTING, h=h)
    x = np.asarray(x, dtype=float)
    d = m.d
    c = math.exp(-0.5 * m.alpha * h)
    z = x.copy()
    z[d:] *= c
    if m.mechanical:
        z, J_inner = _verlet_step(m, z, h)
    else:
        z, J_inner = _midpoint_step(m, z, h, cfg)
    z[d:] *= c
    contract = np.diag([1.0] * d + [c] * d)
    return z, contract @ J_inner @ contract


def _fixed_step_nodes(m, y0, t0, t1, cfg, with_frames, with_racc):
    """Nodes (ts, ys, fs, status, t_escape) of one rk4 or splitting run from y0."""
    k = m.dim if with_frames else 0
    ys = [y0]
    _, alive = _fixed_step_engine(
        m, y0[None, :].copy(), t1 - t0, cfg.h, k, with_racc, cfg.blowup_threshold,
        on_step=lambda step, Y: ys.append(Y[0].copy()),
        splitting=cfg if cfg.method == SPLITTING else None,
    )
    ys = np.array(ys)
    ts = t0 + np.minimum(cfg.h * np.arange(len(ys)), t1 - t0)
    if not np.all(np.isfinite(ys[-1])):
        raise PoisonedStateError(
            f"fixed-step state became non-finite at t={ts[-1]}", t=ts[-1], state=ys[-1]
        )
    status, t_escape = (COMPLETED, None) if alive[0] else (BLOWUP, float(ts[-1]))
    return ts, ys, _joint_rhs(m, k, with_racc)(ys), status, t_escape


def _rk4_step(rhs, x, h):
    k1 = np.asarray(rhs(x), dtype=float)
    k2 = np.asarray(rhs(x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(rhs(x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(rhs(x + h * k3), dtype=float)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _splitting_rows(m, rows, h, k, cfg):
    """One conformal splitting step per row, carrying k tangent columns."""
    n = m.dim
    out = rows.copy()
    for row in out:
        x, J = conformal_splitting_step(m, row[:n], h, cfg)
        row[:n] = x
        row[n:] = (J @ row[n:].reshape(n, k)).ravel()
    return out


def _n_steps(t, h):
    return int(math.ceil(t / h - 1e-12))


def _fixed_step_engine(m, Y, t, h, k=0, racc=False, blowup_threshold=1e8,
                       on_step=None, splitting=None):
    """Masked fixed-step integration of the rows of Y = [x | n*k tangent | r].

    RK4 on the joint field, or one conformal splitting step per row when
    `splitting` holds its IntegratorConfig.  A row dies, frozen where it
    stopped, once its state is non-finite or a line coordinate passes the
    threshold.  While every row lives the batch steps whole; the index of
    live rows is rebuilt only when one dies.  `on_step(step, Y)` sees each
    step and must not mutate Y.  Y may be overwritten; returns (Y, alive).
    """
    if t < 0:
        raise ParamError(f"fixed-step integration needs t >= 0, got t={t}")
    n = m.dim
    if splitting is None:
        rhs = _joint_rhs(m, k, racc)

        def advance(rows, hh):
            return _rk4_step(rhs, rows, hh)
    elif racc:
        raise KindError("splitting does not integrate the Lee-form channel")
    else:
        def advance(rows, hh):
            return _splitting_rows(m, rows, hh, k, splitting)
    line_cols = _line_indices(m).tolist()
    line = (~m.spec.angle_mask).astype(float)  # inf or nan times 0 stays nan
    alive = np.all(np.isfinite(Y[:, :n]), axis=1)
    act = None if len(Y) and alive.all() else np.nonzero(alive)[0]
    tau = 0.0
    for step in range(_n_steps(t, h)):
        hh = min(h, t - tau)
        if act is None:
            Y = rows = advance(Y, hh)
        elif len(act):
            rows = advance(Y[act], hh)
            Y[act] = rows
        else:
            break
        tau += hh
        # whole-block screen first: per-row reductions over a few columns are slow
        if not (math.isfinite(rows.sum()) and all(
            np.abs(rows[:, j]).max() <= blowup_threshold for j in line_cols
        )):
            dead = ~(np.max(np.abs(rows[:, :n]) * line, axis=1) <= blowup_threshold)
            alive[np.nonzero(alive)[0][dead]] = False
            act = np.nonzero(alive)[0]
        if on_step is not None:
            on_step(step, Y)
    return Y, alive


def transport_tangents(m, states, vectors, t, h=1e-3, blowup_threshold=1e8):
    """Batched transport of one tangent vector per state along the flow.

    Fixed-step RK4 on the joint system (x, v) with v' = DX(x) v.
    Returns (final_states, final_vectors, alive_mask).
    """
    _require_flow(m)
    states = np.array(states, dtype=float)
    n = states.shape[-1]
    Y = np.concatenate([states, np.array(vectors, dtype=float)], axis=-1)
    Y, alive = _fixed_step_engine(m, Y, t, h, k=1, blowup_threshold=blowup_threshold)
    return m.spec.wrap(Y[:, :n]), Y[:, n:], alive


def flow_ensemble(m, states, t, h=0.01, blowup_threshold=1e8, racc=False,
                  callback=None, callback_every=50):
    """Vectorized fixed-step RK4 transport of a batch of states.

    Returns (final_states, alive_mask[, r_accum]).  Escaped samples (line
    coordinates past the threshold) and non-finite ones are frozen where they
    died.  Rows evolve independently, so results do not depend on how a
    caller slices the batch.  `callback` receives (step_index, states) every
    `callback_every` steps for online statistics; it must not mutate the batch.
    """
    _require_flow(m)
    X = np.array(states, dtype=float)
    n = X.shape[-1]
    Y = np.concatenate([X, np.zeros((len(X), 1))], axis=-1) if racc else X
    on_step = None
    if callback is not None:
        last = _n_steps(t, h) - 1

        def on_step(k, Y):
            if k % callback_every == 0 or k == last:
                callback(k, Y[:, :n])

    Y, alive = _fixed_step_engine(
        m, Y, t, h, racc=racc, blowup_threshold=blowup_threshold, on_step=on_step
    )
    out = (m.spec.wrap(Y[:, :n]), alive)
    return out + (Y[:, n],) if racc else out


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def iterate_map(m, x0, n, with_frames=False):
    """Orbit of a map model; negative n uses the closed-form inverse."""
    if m.kind != MAP:
        raise KindError(f"{m.name} is not a map model")
    if n < 0 and m.f_inv is None:
        raise KindError(f"{m.name} provides no inverse")
    x = np.asarray(x0, dtype=float)
    step = m.f if n >= 0 else m.f_inv
    states = [m.spec.wrap(x)]
    frames = [np.eye(m.dim)] if with_frames else None
    for k in range(abs(n)):
        x_new = np.asarray(step(x), dtype=float)
        if with_frames:
            if n >= 0:
                J = np.asarray(m.Df(x), dtype=float)
            else:
                J = np.linalg.inv(np.asarray(m.Df(x_new), dtype=float))
            frames.append(J @ frames[-1])
        states.append(m.spec.wrap(x_new))
        x = x_new
    return Trajectory(
        times=np.arange(abs(n) + 1, dtype=float),
        states=np.array(states),
        frames=None if frames is None else np.array(frames),
        backward=n < 0,
    )


def time_t_map(m, t, cfg=None, batch_h=1e-3):
    """Wrap a flow as a map model with Jacobians and a negated-field inverse.

    Single states go through the adaptive reference integrator; (N, dim)
    batches use fixed-step RK4 at batch_h (row-independent, so ensemble
    results do not depend on batch partitioning).
    """
    _require_flow(m)
    if t == 0:
        raise ParamError("time-t map requires t != 0")
    cfg = cfg or IntegratorConfig()

    def _run(x, span, frames):
        fn = integrate_variational if frames else integrate_flow
        traj = fn(m, x, span, cfg, samples=2)
        if traj.status == BLOWUP:
            raise BlowUpError(
                f"orbit blew up before t={span[1]}", t_escape=traj.t_escape
            )
        return traj

    def _run_batch(x, forward):
        view = m if forward else time_reversed_view(m)
        out, alive = flow_ensemble(
            view, x, abs(t), h=batch_h, blowup_threshold=cfg.blowup_threshold
        )
        if not np.all(alive):
            raise BlowUpError("a batch point blew up during the time-t map")
        return out

    def f(x):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return _run_batch(x, t > 0)
        return _run(x, (0.0, t), False).final_state

    def f_inv(x):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return _run_batch(x, not (t > 0))
        return _run(x, (t, 0.0), False).final_state

    def Df(x):
        return _run(x, (0.0, t), True).final_frame

    ratio = math.exp(-m.alpha * t) if (m.exact_symplectic and m.alpha > 0) else None
    from .models import ModelSpec  # deferred to avoid import cycle at module load

    return ModelSpec(
        name=f"{m.name}:time-{t}",
        spec=m.spec,
        kind=MAP,
        params=dict(m.params),
        ratio_a=ratio,
        f=f,
        Df=Df,
        f_inv=f_inv,
        H=m.H,
        dH=m.dH,
        lam=m.lam,
        eta=m.eta,
        Omega=m.Omega,
        exact_symplectic=m.exact_symplectic,
        conformal_pair=m.conformal_pair,
    )


# ---------------------------------------------------------------------------
# Poincare sections
# ---------------------------------------------------------------------------

@dataclass
class SectionSpec:
    """Hyperplane section x[axis] = offset or affine functional w.x = offset."""

    axis: int | None = None
    w: np.ndarray | None = None
    offset: float = 0.0
    direction: int = 1

    def __post_init__(self):
        if self.axis is None and self.w is None:
            raise SectionError("section needs an axis or a functional")
        if self.w is not None:
            self.w = np.asarray(self.w, dtype=float)
            if float(np.max(np.abs(self.w))) == 0.0:
                raise SectionError("section functional has zero gradient")
        if self.direction not in (-1, 0, 1):
            raise SectionError("direction must be -1, 0 or +1")

    def value(self, spec, x):
        if self.axis is not None:
            raw = np.asarray(x, dtype=float)[..., self.axis] - self.offset
            if spec.axes[self.axis] == "angle":
                return np.mod(raw + 0.5, 1.0) - 0.5
            return raw
        return np.asarray(x, dtype=float) @ self.w - self.offset

    def gradient(self, dim):
        if self.axis is not None:
            g = np.zeros(dim)
            g[self.axis] = 1.0
            return g
        return self.w


def poincare_return(m, sec, x0, k, cfg=None, t_max=1e4, chunk=4.0):
    """First k directed section crossings with projected return Jacobians.

    Returns (crossings, jacobians, times, rotation_integrals); the last
    entry holds the accumulated Lee integral at each crossing (zeros when
    the model carries no Lee form).  Integration proceeds in time chunks
    and stops as soon as k crossings are located.  Crossings are refined by
    bisection on the cubic Hermite dense output to time accuracy 1e-10;
    tangential crossings (|dg/dt| <= 1e-8) are rejected rather than guessed.
    """
    _require_flow(m)
    cfg = cfg or IntegratorConfig()
    if math.isinf(cfg.max_step):
        speeds = float(np.max(np.abs(m.X(np.asarray(x0, dtype=float)))))
        cap = 0.2 / max(speeds, 1.0)
        cfg = IntegratorConfig(
            method=cfg.method, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, h=cfg.h,
            max_step=min(cap, 0.05), blowup_threshold=cfg.blowup_threshold,
            max_steps=cfg.max_steps,
        )
    n = m.dim
    with_racc = m.eta is not None
    rhs = _joint_rhs(m, n, with_racc)
    grad = sec.gradient(n)
    x0 = np.asarray(x0, dtype=float)
    guard = 0.25 if (sec.axis is not None and m.spec.axes[sec.axis] == "angle") else math.inf

    crossings, jacobians, times, raccs = [], [], [], []
    y_start = np.concatenate([x0, np.eye(n).ravel()] + ([[0.0]] if with_racc else []))
    t_base = 0.0
    while t_base < t_max:
        span = min(chunk, t_max - t_base)
        path = _AdaptivePath(rhs, t_base, t_base + span, y_start, cfg,
                             line_slice=_line_indices(m))
        ts = path.ts
        gs = [float(sec.value(m.spec, y[:n])) for y in path.ys]
        for i in range(len(ts) - 1):
            g0, g1 = gs[i], gs[i + 1]
            if g0 == 0.0 and ts[i] == 0.0:
                continue  # started on the section
            if g0 * g1 > 0 or abs(g1 - g0) >= guard:
                continue
            going_up = g1 > g0
            if sec.direction == 1 and not going_up:
                continue
            if sec.direction == -1 and going_up:
                continue
            t0n, y0n, f0n = ts[i], path.ys[i], path.fs[i]
            t1n, y1n, f1n = ts[i + 1], path.ys[i + 1], path.fs[i + 1]
            a, b, ga = t0n, t1n, g0
            while (b - a) > 1e-10:
                mid = 0.5 * (a + b)
                gm = float(
                    sec.value(m.spec, _hermite(t0n, y0n, f0n, t1n, y1n, f1n, mid)[:n])
                )
                if (gm > 0) == (ga > 0) and gm != 0.0:
                    a, ga = mid, gm
                else:
                    b = mid
            t_star = 0.5 * (a + b)
            y_star = _hermite(t0n, y0n, f0n, t1n, y1n, f1n, t_star)
            x_star = y_star[:n]
            xdot = np.asarray(m.X(x_star), dtype=float)
            gdot = float(grad @ xdot)
            if abs(gdot) <= 1e-8:
                raise SectionError("tangential section crossing rejected")
            F = y_star[n : n + n * n].reshape(n, n)
            proj = np.eye(n) - np.outer(xdot, grad) / gdot
            crossings.append(m.spec.wrap(x_star))
            jacobians.append(proj @ F)
            times.append(t_star)
            raccs.append(float(y_star[-1]) if with_racc else 0.0)
            if len(crossings) == k:
                return crossings, jacobians, times, raccs
        if path.status == BLOWUP:
            raise BlowUpError("orbit blew up before the requested crossings",
                              t_escape=path.t_escape)
        t_base = path.ts[-1]
        y_start = path.ys[-1]
    raise SectionError(f"only {len(crossings)} of {k} crossings found before t={t_max}")
