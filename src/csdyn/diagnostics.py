"""Numerical certificates: rotation numbers, transport residuals, spectra,
periodic orbits, attractors, escape statistics, isotropy defects, recurrence
scans and orbit classification.

Every operation is pure given (model, config, seed); ensemble members are
seeded per index so results are identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (
    BlowUpError,
    ConvergenceError,
    CsdynError,
    DimensionMismatchError,
    NonHyperbolicError,
    ParamError,
    StructureError,
)
from .flows import (
    BLOWUP,
    IntegratorConfig,
    _n_steps,
    flow_ensemble,
    integrate_flow,
    integrate_variational,
    iterate_map,
    poincare_return,
    time_reversed_view,
    transport_tangents,
)
from .geometry import (
    _frobenius_dot,
    _sum_last,
    conformality_ratio_estimate,
    loop_integral,
    torus_distance,
)
from .models import MAP

TWO_PI = 2.0 * math.pi
# fixed tuning values of the functions below
_TRANSPORT_TOL = 1e-6  # conformal_transport_check's tolerance
_LOOP_COHOMOLOGY_TOL = 1e-7  # loop_cohomology_check's relative tolerance
_LYAPUNOV_LEG = 0.5  # a flow's Lyapunov legs are about this long
_NEWTON_TOL = 1e-12  # find_periodic_orbit's largest return miss
_NEWTON_MAX_ITER = 50  # and its Newton steps
_TRAP_GRID = 1024  # trapping_level's grid points per torus axis
_INVARIANCE_T = 1.0  # attractor_estimate pushes its cloud this long
_BASIN_CAPTURE = 1e-2  # emit_basin_grid's capture radius,
_BASIN_H = 0.02  # and RK4 step
_REFINE_MAX_ITER = 80  # refine_equilibrium's Gauss-Newton steps
_REFINE_TOL = 1e-12  # and stopping residual
_MANIFOLD_SEED_RADIUS = 1e-4  # unstable_manifold_cloud's seeds' offset,
_MANIFOLD_LEG = 0.5  # growth leg,
_MANIFOLD_SEEDS = 8  # seeds per polyline branch,
_MANIFOLD_SPACING = 2e-3  # polyline arclength spacing
_MANIFOLD_MAX_POINTS = 40000  # and largest polyline size


@dataclass
class CheckResult:
    """One named structural check with residual, tolerance and verdict.

    The verdict is decided here and nowhere else: PASS iff residual <=
    tolerance, else FAIL, so a NaN residual FAILs.  A negative control (a
    case built to show the opposite behaviour) passes as
    PASS-NEGATIVE-CONTROL.  residual and tolerance are stored as floats and
    params as a dict.
    """

    check: str
    model: str
    params: dict
    residual: float
    tolerance: float
    provenance_tag: str
    details: dict = field(default_factory=dict)
    negative: InitVar[bool] = False
    verdict: str = field(init=False)  # PASS | FAIL | PASS-NEGATIVE-CONTROL

    def __post_init__(self, negative):
        self.params = dict(self.params)
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)
        if self.residual <= self.tolerance:  # False for a NaN residual
            self.verdict = "PASS-NEGATIVE-CONTROL" if negative else "PASS"
        else:
            self.verdict = "FAIL"

    @property
    def passed(self):
        return self.verdict.startswith("PASS")

    def to_json(self):
        return {
            "check": self.check,
            "model": self.model,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "provenance_tag": self.provenance_tag,
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _jsonable(v):
    """v as json.dumps takes it: arrays as nested lists, numpy scalars as
    Python numbers and each complex number as [re, im]."""
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist())
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _worst(*args, pick=max):
    """pick(*args), max by default, but NaN when any value is NaN: Python's
    max and min keep a NaN only as their first value, so a NaN sub-result
    after a finite one would read PASS.  Takes several values or one
    iterable of them, as max does."""
    values = list(args[0]) if len(args) == 1 else args
    return math.nan if any(math.isnan(v) for v in values) else pick(values)


# ---------------------------------------------------------------------------
# rotation numbers and conformal transport
# ---------------------------------------------------------------------------

def rotation_number(traj):
    """Lee integral from the run's earliest to its latest time, and its time average."""
    if traj.r_accum is None:
        raise StructureError("trajectory carries no rotation integral (model has no eta)")
    if len(traj.times) < 2:
        raise ParamError("zero-length trajectory has no mean rotation")
    span = float(traj.times[-1] - traj.times[0])
    r_T = float(traj.r_accum[-1] - traj.r_accum[0])
    return r_T, r_T / span


def conformal_transport_check(m, traj):
    """Residuals of D^T Omega D = c_t Omega and H o phi_t = c_t H along a trajectory.

    c_t = exp(r_t) for conformal pairs, exp(-alpha t) for exact models, from
    the run's start (a backward run's last sample).  The H-residual is only
    scored for models whose Hamiltonian scales along the flow (conformal
    pairs and fiberwise-linear exact Hamiltonians).  Tolerance _TRANSPORT_TOL.
    """
    if traj.frames is None:
        raise StructureError("conformal transport check needs tangent frames")
    start = -1 if traj.backward else 0
    x0, t0 = traj.states[start], float(traj.times[start])
    omega0 = np.asarray(m.Omega(x0), dtype=float)
    if m.conformal_pair:
        r0 = float(traj.r_accum[start])
        c = np.array([math.exp(float(r) - r0) for r in traj.r_accum])
    else:
        c = np.array([math.exp(-m.alpha * (float(t) - t0)) for t in traj.times])
    F = traj.frames
    off = np.swapaxes(F, -1, -2) @ np.asarray(m.Omega(traj.states), dtype=float) @ F
    off -= c[:, None, None] * omega0
    norm0 = float(np.linalg.norm(omega0))
    omega_res = float(np.max(np.sqrt(_frobenius_dot(off, off)) / norm0))
    h_res = 0.0
    if m.H is not None and m.h_scales:
        h_res = float(np.max(np.abs(m.H(traj.states) - c * float(m.H(x0)))))
    residual = _worst(omega_res, h_res)
    return CheckResult(
        check="conformal-transport",
        model=m.name,
        params=m.params,
        residual=residual,
        tolerance=_TRANSPORT_TOL,
        provenance_tag="transport/pullback-scaling",
        details={"omega_residual": omega_res, "h_residual": h_res},
    )


def map_conformality_ratios(m, pts):
    """Conformality ratio and residual of a map model at each point of pts.

    Returns two arrays (ratios, residuals): the least-squares a with
    Df^T Omega(f(x)) Df = a Omega(x) and its normalized residual, from
    geometry.conformality_ratio_estimate.
    """
    pts = np.asarray(pts, dtype=float)
    jac = np.broadcast_to(m.Df(pts), pts.shape[:-1] + (m.dim, m.dim))
    return conformality_ratio_estimate(jac, m.Omega(pts), m.Omega(m.f(pts)))


# ---------------------------------------------------------------------------
# Lyapunov spectra
# ---------------------------------------------------------------------------

@dataclass
class LyapunovResult:
    exponents: np.ndarray          # sorted descending
    pairing_defect: float
    pairing_target: float
    mean_rotation: float | None
    converged: bool
    history: np.ndarray            # running estimates at each leg


def _pairing_defect(exponents, target):
    ex = np.sort(np.asarray(exponents))[::-1]
    n = len(ex)
    return float(_worst(abs(ex[i] + ex[n - 1 - i] - target) for i in range(n)))


def _renormalized_logs(push, n, n_legs, dt):
    """Benettin's loop: push(k, Q) carries the frame Q over leg k of length dt
    and a QR step with diag R > 0 renormalizes it.  Returns the sums of
    log diag R and the running estimates history[k] = sums / ((k + 1) dt)."""
    Q = np.eye(n)
    sums = np.zeros(n)
    history = np.zeros((n_legs, n))
    for k in range(n_legs):
        Q, R = np.linalg.qr(push(k, Q))
        signs = np.sign(np.diag(R))
        signs[signs == 0] = 1.0
        Q = Q * signs
        sums += np.log(np.abs(np.diag(R)))
        history[k] = sums / ((k + 1) * dt)
    return sums, history


def lyapunov_spectrum(m, x0, T=200.0):
    """Benettin QR exponents over [0, T] with periodic re-orthonormalization.

    A flow runs T > 0 in max(1, round(T / _LYAPUNOV_LEG)) legs, each on the
    adaptive engine at the default IntegratorConfig.  The pairing target is
    -alpha for exact models and the orbit's mean rotation for conformal
    pairs.  Exponents are flagged non-converged when the last-quarter drift
    exceeds 10% of scale.  A map runs int(T) >= 1 steps; its target is
    log(a) (else 0), converged True.  A non-finite T raises ParamError.
    """
    n = m.dim
    if m.kind == MAP:
        if not (math.isfinite(T) and T >= 1):
            raise ParamError(f"a map's Lyapunov spectrum takes a finite T >= 1 step, "
                             f"got T = {T!r}")
        n_steps = int(T)
        states = iterate_map(m, x0, n_steps).states[:-1]  # Df at each, in one call
        jacs = np.broadcast_to(np.asarray(m.Df(states), dtype=float), (n_steps, n, n))
        sums, history = _renormalized_logs(lambda k, Q: jacs[k] @ Q, n, n_steps, 1)
        exponents = np.sort(sums / n_steps)[::-1]
        target = math.log(m.ratio_a) if m.ratio_a else 0.0
        mean_rot, converged = None, True
    else:
        if not (math.isfinite(T) and T > 0):
            raise ParamError(f"a flow's Lyapunov spectrum takes a finite T > 0, got T = {T!r}")
        n_legs = max(1, int(round(T / _LYAPUNOV_LEG)))
        dt = T / n_legs
        x = np.asarray(x0, dtype=float)
        r_total = 0.0

        def leg(k, Q):
            nonlocal x, r_total
            traj = integrate_variational(m, x, (0.0, dt), samples=2, initial_frame=Q)
            if traj.status == BLOWUP:
                raise BlowUpError("orbit blew up during Lyapunov run", t_escape=traj.t_escape)
            x = traj.final_state
            if traj.r_accum is not None:
                r_total += traj.r_final
            return traj.final_frame

        sums, history = _renormalized_logs(leg, n, n_legs, dt)
        exponents = np.sort(sums / T)[::-1]
        mean_rot = r_total / T if m.eta is not None else None
        target = mean_rot if m.conformal_pair else -m.alpha
        quarter = np.sort(history[3 * n_legs // 4 :], axis=1)[:, ::-1]
        scale = max(float(np.max(np.abs(exponents))), 1e-3)
        converged = float(np.max(np.abs(quarter - exponents[None, :]))) <= 0.1 * scale
    return LyapunovResult(
        exponents=exponents,
        pairing_defect=_pairing_defect(exponents, target),
        pairing_target=target,
        mean_rotation=mean_rot,
        converged=converged,
        history=history,
    )


# ---------------------------------------------------------------------------
# periodic orbits and Floquet pairing
# ---------------------------------------------------------------------------

@dataclass
class PeriodicOrbit:
    anchor: np.ndarray
    period: float
    samples: np.ndarray
    monodromy: np.ndarray
    multipliers: np.ndarray        # sorted by (modulus, argument)
    mean_rotation: float
    closure_error: float
    pairing_products: np.ndarray
    pairing_defect_modulus: float
    pairing_defect_argument: float
    h_anchor: float | None
    contains_unit_multiplier: bool


def _pairing_products(multipliers, target):
    lams = sorted(multipliers, key=lambda z: (abs(z), np.angle(z)))
    n = len(lams)
    prods = np.array([lams[i] * lams[n - 1 - i] for i in range(n)])
    mod_defect = float(np.max(np.abs(np.abs(prods) - abs(target)))) / max(abs(target), 1e-300)
    ang = np.abs(np.angle(prods))
    arg_defect = float(np.max(np.minimum(ang, 2 * math.pi - ang)))
    return np.array(lams), prods, mod_defect, arg_defect


def find_periodic_orbit(m, sec, guess, cfg=None, backward=False):
    """Newton on the Poincare return map, to a miss below _NEWTON_TOL within
    _NEWTON_MAX_ITER steps; reports Floquet pairing data.

    With backward=True the search runs on the time-reversed field (the robust
    way to locate repelling orbits); the returned orbit data (monodromy,
    multipliers, mean rotation) is always for the forward flow.
    """
    sec.check_dim(m.dim)
    cfg = cfg or IntegratorConfig()
    search_model = time_reversed_view(m) if backward else m
    n = m.dim
    red = [i for i in range(n) if i != sec.axis]

    def embed(y):
        x = np.zeros(n)
        x[sec.axis] = sec.offset
        x[red] = y
        return x

    def return_data(y):
        x = embed(y)
        crossings, jacs, times, _ = poincare_return(search_model, sec, x, 1, cfg)
        delta = m.spec.delta(x, crossings[0])
        return delta[red], jacs[0][np.ix_(red, red)], times[0]

    y = np.asarray(guess, dtype=float)
    y = y[red] if len(y) == n else y
    resid, jac_red, T = return_data(y)
    for _ in range(_NEWTON_MAX_ITER):
        err = float(np.max(np.abs(resid)))
        if err < _NEWTON_TOL:
            break
        step = np.linalg.solve(jac_red - np.eye(len(red)), -resid)
        lam = 1.0
        for _ in range(8):
            y_try = y + lam * step
            resid_try, jac_try, T_try = return_data(y_try)
            if float(np.max(np.abs(resid_try))) < err:
                y, resid, jac_red, T = y_try, resid_try, jac_try, T_try
                break
            lam *= 0.5
        else:
            raise ConvergenceError("periodic-orbit Newton stalled")
    else:
        raise ConvergenceError(
            f"periodic-orbit Newton did not converge in {_NEWTON_MAX_ITER} iterations")

    anchor = embed(y)
    traj = integrate_variational(m, anchor, (0.0, T), cfg, samples=101)
    monodromy = traj.final_frame
    closure = float(torus_distance(m.spec, anchor, traj.final_state))
    multipliers = np.linalg.eigvals(monodromy)
    mean_rot = (traj.r_final / T) if traj.r_accum is not None else 0.0
    target = math.exp(T * mean_rot)
    lams, prods, mod_defect, arg_defect = _pairing_products(multipliers, target)
    h_anchor = float(m.H(anchor)) if m.H is not None else None
    unit = bool(np.min(np.abs(np.abs(lams) - 1.0)) < 1e-6)
    return PeriodicOrbit(
        anchor=anchor,
        period=T,
        samples=traj.states,
        monodromy=monodromy,
        multipliers=lams,
        mean_rotation=mean_rot,
        closure_error=closure,
        pairing_products=prods,
        pairing_defect_modulus=mod_defect,
        pairing_defect_argument=arg_defect,
        h_anchor=h_anchor,
        contains_unit_multiplier=unit,
    )


# ---------------------------------------------------------------------------
# trapping levels, attractors, invariant manifolds
# ---------------------------------------------------------------------------

def _grid(axes):
    """The points of the grid on these axes, the last axis fastest, as (n, len(axes))."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _h_on_zero_section(m, qgrid):
    """H(q, 0) at each angle point q of qgrid (n, d)."""
    return np.asarray(m.H(np.concatenate([qgrid, np.zeros_like(qgrid)], axis=-1)), dtype=float)


def trapping_level(m):
    """R = sup_q H(q, 0) on a refined _TRAP_GRID torus grid (fiberwise-convex models)."""
    if m.H is None:
        raise StructureError(f"{m.name} has no Hamiltonian")
    if not m.fiber_convex:
        raise StructureError(f"{m.name} is not fiberwise convex; no trapping level")
    mesh = _grid([np.linspace(0.0, 1.0, _TRAP_GRID, endpoint=False)] * m.d)
    best = mesh[int(np.argmax(_h_on_zero_section(m, mesh)))]
    # one refinement pass around the coarse argmax
    half = 1.0 / _TRAP_GRID
    fine = _grid([np.linspace(b - half, b + half, _TRAP_GRID) for b in best])
    return float(np.max(_h_on_zero_section(m, fine)))


@dataclass
class AttractorEstimate:
    trap_level: float | None
    cloud: np.ndarray
    invariance_residual: float
    iterations: int
    status: str                 # "trapped" | "not-trapping"
    escaped: int
    occupied_cells: int


def _dedup_cells(spec, pts, eps):
    cells = np.round(spec.wrap(pts) / eps).astype(np.int64)
    # wrap the top cell of angle axes back onto 0
    per = int(round(1.0 / eps))
    cells[:, spec.angle_mask] %= per
    _, idx = np.unique(cells, axis=0, return_index=True)
    return pts[np.sort(idx)]


def _nearest_cloud_distance(spec, pts, cloud, chunk=512):
    out = np.empty(len(pts))
    for i in range(0, len(pts), chunk):
        d = torus_distance(spec, pts[i : i + chunk, None, :], cloud[None, :, :])
        out[i : i + chunk] = d.min(axis=1)
    return out


def sample_sublevel_grid(m, R, grid):
    """Rectangular grid sample of the forward-invariant set {H <= R + 1}."""
    d = m.d
    probe = _grid([np.linspace(0.0, 1.0, 64, endpoint=False)] * d)
    v_min = float(np.min(_h_on_zero_section(m, probe)))
    p_max = math.sqrt(max(2.0 * (R + 1.0 - v_min), 1e-12))
    mesh = _grid([np.linspace(0.0, 1.0, grid, endpoint=False)] * d
                 + [np.linspace(-p_max, p_max, grid)] * d)
    keep = np.asarray(m.H(mesh), dtype=float) <= R + 1.0
    return mesh[keep]


def _check_box(spec, box):
    if len(box) != spec.dim:
        raise DimensionMismatchError(f"a box takes {spec.dim} (lo, hi) pairs, got {len(box)}")
    for axis, (lo, hi) in enumerate(box):
        if not lo < hi:  # also refuses NaN bounds
            raise ParamError(f"box axis {axis} needs lo < hi, got ({lo}, {hi})")


def sample_box_grid(spec, box, grid):
    _check_box(spec, box)
    axes = [np.linspace(lo, hi, grid, endpoint=spec.axes[i] != "angle")
            for i, (lo, hi) in enumerate(box)]
    return _grid(axes)


def attractor_estimate(m, R=None, t_relax=60.0, grid=33, box=None, eps=1e-3, h=0.01):
    """Relax a grid sample of the trapping set and measure invariance.

    The grid has grid >= 1 points per axis; the cloud keeps one point per
    cell of side eps in (0, 1] and is pushed for _INVARIANCE_T.  Both runs
    are flow_ensemble's RK4 at h.  With `box`
    given, one (lo, hi), lo < hi, per axis, that compact box is used instead
    of {H <= R+1}; any sample blowing up flags the estimate as not trapping
    rather than raising.
    """
    if not (grid >= 1 and 0.0 < eps <= 1.0):
        raise ParamError(f"an attractor takes grid >= 1 and eps in (0, 1], got {grid} and {eps}")
    if box is not None:
        seeds = sample_box_grid(m.spec, box, grid)
    else:
        if R is None:
            R = trapping_level(m)
        seeds = sample_sublevel_grid(m, R, grid)
    evolved, alive = flow_ensemble(m, seeds, t_relax, h)
    escaped = int(np.sum(~alive))
    cloud = _dedup_cells(m.spec, evolved[alive], eps)
    if len(cloud) == 0:
        return AttractorEstimate(R, cloud, math.inf, _n_steps(t_relax, h), "not-trapping",
                                 escaped, 0)
    pushed, alive2 = flow_ensemble(m, cloud, _INVARIANCE_T, h)
    residual = float(np.max(_nearest_cloud_distance(m.spec, pushed[alive2], cloud)))
    status = "trapped" if (escaped == 0 and bool(np.all(alive2))) else "not-trapping"
    return AttractorEstimate(
        trap_level=R,
        cloud=cloud,
        invariance_residual=residual,
        iterations=_n_steps(t_relax, h),
        status=status,
        escaped=escaped,
        occupied_cells=len(cloud),
    )


def emit_basin_grid(m, grid, p_range, targets, t_max=60.0):
    """Label a (q, p) grid by the nearest target of the relaxed state.

    flow_ensemble's RK4 at step _BASIN_H relaxes each cell, captured by a
    target within _BASIN_CAPTURE.  Returns (labels,
    q_axis, p_axis): label k >= 1 means targets[k-1], 0 undetermined, -1
    escaped.  Only d = 1 cotangent models are gridded, on q in [0, 1) and
    p in [-p_range, p_range] with p_range > 0.
    """
    if not targets:
        raise CsdynError("basin grid needs a non-empty target list")
    if not (grid >= 1 and math.isfinite(p_range) and p_range > 0):
        raise ParamError(f"a basin grid takes grid >= 1 and a finite p_range > 0, "
                         f"got {grid} and {p_range}")
    if m.d != 1:
        raise CsdynError("basin grids are drawn for d = 1 models")
    q_axis = np.linspace(0.0, 1.0, grid, endpoint=False)
    p_axis = np.linspace(-p_range, p_range, grid)
    mesh = _grid([q_axis, p_axis])
    final, alive = flow_ensemble(m, mesh, t_max, h=_BASIN_H)
    targets = np.asarray(targets, dtype=float)
    labels = np.zeros(len(mesh), dtype=np.int64)
    dists = np.stack(
        [torus_distance(m.spec, final, tgt) for tgt in targets], axis=1
    )
    nearest = np.argmin(dists, axis=1)
    captured = dists[np.arange(len(mesh)), nearest] <= _BASIN_CAPTURE
    labels[captured] = nearest[captured] + 1
    labels[~alive] = -1
    return labels.reshape(grid, grid), q_axis, p_axis


def refine_equilibrium(m, z0):
    """Damped Gauss-Newton polish of a field zero from a nearby seed, to
    max |X| < _REFINE_TOL within _REFINE_MAX_ITER steps."""
    z = np.asarray(z0, dtype=float).copy()
    fz = np.asarray(m.X(z), dtype=float)
    for _ in range(_REFINE_MAX_ITER):
        if float(np.max(np.abs(fz))) < _REFINE_TOL:
            break
        J = m.jacobian(z)
        step, *_ = np.linalg.lstsq(J, -fz, rcond=None)
        lam = 1.0
        for _ in range(10):
            z_try = z + lam * step
            f_try = np.asarray(m.X(z_try), dtype=float)
            if float(np.max(np.abs(f_try))) < float(np.max(np.abs(fz))):
                z, fz = z_try, f_try
                break
            lam *= 0.5
        else:
            break
    return m.spec.wrap(z), float(np.max(np.abs(fz)))


def unstable_manifold_cloud(m, fixed_point, t_grow):
    """Grow the unstable manifold of a hyperbolic equilibrium.

    One-dimensional unstable spaces return an arclength-resampled polyline
    (with unit tangents as 1-column frames), grown by flow_ensemble at its
    default step; higher-dimensional ones return
    shells of transported points with orthonormal frames spanning the pushed
    unstable directions, grown on the adaptive engine at the default
    IntegratorConfig.  The _MANIFOLD_* constants set its seeds and legs;
    t_grow is finite and >= 0 (ParamError otherwise).
    """
    if not (math.isfinite(t_grow) and t_grow >= 0):
        raise ParamError(f"a manifold grows for a finite t_grow >= 0, got t_grow = {t_grow!r}")
    fp = np.asarray(fixed_point, dtype=float)
    A = m.jacobian(fp)
    eigvals, eigvecs = np.linalg.eig(A)
    if float(np.min(np.abs(eigvals.real))) < 1e-8:
        raise NonHyperbolicError(f"equilibrium of {m.name} has a near-zero exponent")
    unstable = eigvals.real > 0
    k = int(np.sum(unstable))
    if k == 0:
        raise NonHyperbolicError("no unstable direction at this equilibrium")
    basis = eigvecs[:, unstable]
    real_basis = np.concatenate([basis.real, basis.imag], axis=1)
    q, _ = np.linalg.qr(real_basis)
    # rank of the real span equals the number of unstable eigenvalues
    E = q[:, :k]

    if k == 1:
        return _grow_manifold_polyline(m, fp, E[:, 0], float(np.max(eigvals.real)), t_grow)
    return _grow_manifold_shells(m, fp, E, t_grow)


def _grow_manifold_polyline(m, fp, v, mu, t_grow):
    g = math.exp(mu * _MANIFOLD_LEG)
    offsets = _MANIFOLD_SEED_RADIUS * g ** (np.arange(_MANIFOLD_SEEDS) / _MANIFOLD_SEEDS)
    n_legs = int(math.ceil(t_grow / _MANIFOLD_LEG))
    pieces = []
    for sign in (+1.0, -1.0):
        seeds = fp[None, :] + sign * offsets[:, None] * v[None, :]
        branch = [fp[None, :], seeds]
        current = seeds
        for _ in range(n_legs):
            current, alive = flow_ensemble(m, current, _MANIFOLD_LEG)
            if not np.all(alive):
                break
            branch.append(current)
        pts = np.concatenate(branch, axis=0)
        pieces.append(_resample_polyline(m.spec, pts))
    points = np.concatenate([p[0] for p in pieces], axis=0)
    frames = np.concatenate([p[1] for p in pieces], axis=0)
    return points, frames


def _resample_polyline(spec, pts):
    deltas = spec.delta(pts[:-1], pts[1:])
    seglen = np.sqrt(np.sum(deltas * deltas, axis=-1))
    s = np.concatenate([[0.0], np.cumsum(seglen)])
    total = float(s[-1])
    n_out = min(max(int(total / _MANIFOLD_SPACING) + 1, 2), _MANIFOLD_MAX_POINTS // 2)
    targets = np.linspace(0.0, total, n_out)
    idx = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, len(seglen) - 1)
    frac = (targets - s[idx]) / np.maximum(seglen[idx], 1e-300)
    out = pts[idx] + frac[:, None] * deltas[idx]
    tangents = deltas[idx] / np.maximum(seglen[idx], 1e-300)[:, None]
    return spec.wrap(out), tangents[:, :, None]


def _grow_manifold_shells(m, fp, E, t_grow):
    n, k = E.shape
    n_dirs = 24
    angles = np.linspace(0.0, 2 * math.pi, n_dirs, endpoint=False)
    if k == 2:
        dirs = np.outer(np.cos(angles), E[:, 0]) + np.outer(np.sin(angles), E[:, 1])
    else:
        rng = np.random.default_rng(12345)
        raw = rng.standard_normal((n_dirs, k))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        dirs = raw @ E.T
    seeds = fp[None, :] + _MANIFOLD_SEED_RADIUS * dirs
    n_legs = int(math.ceil(t_grow / _MANIFOLD_LEG))
    points, frames = [], []
    states = seeds
    Qs = np.broadcast_to(E, (n_dirs, n, k))
    for _ in range(n_legs):
        trajs = integrate_variational(m, states, (0.0, _MANIFOLD_LEG), samples=2)
        F = np.array([traj.final_frame for traj in trajs])
        states = np.array([traj.final_state for traj in trajs])
        Q, _ = np.linalg.qr(F @ Qs)
        Qs = Q[:, :, :k]
        points.append(states)
        frames.append(Qs)
    return np.concatenate(points, axis=0), np.concatenate(frames, axis=0)


def isotropy_defect(points, frames, omega_eval, normalize=True):
    """sup over points and frame-column pairs of |Omega(u_i, u_j)|, omega_eval batched."""
    points = np.asarray(points, dtype=float)
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[2] < 2:
        raise ParamError("isotropy defect needs frames with k >= 2 columns")
    if normalize:
        frames = frames / np.linalg.norm(frames, axis=-2, keepdims=True)
    omega = np.asarray(omega_eval(points), dtype=float)
    M = np.swapaxes(frames, -1, -2) @ omega @ frames
    return float(np.max(np.abs(M[(...,) + np.triu_indices(M.shape[-1], 1)]), initial=0.0))


# ---------------------------------------------------------------------------
# escape statistics
# ---------------------------------------------------------------------------

@dataclass
class EscapeStats:
    total: int
    escaped: int
    max_steps: int
    box: tuple
    exit_steps: np.ndarray   # first exit step per sample, 0 = never escaped

    def __post_init__(self):
        if self.escaped > self.total:
            raise ParamError("escaped count exceeds total")

    def escaped_within(self, n):
        """Escape count had the run been truncated at n steps (monotone in n)."""
        return int(np.sum((self.exit_steps > 0) & (self.exit_steps <= n)))


def _in_box_mask(spec, pts, box):
    inside = np.ones(len(pts), dtype=bool)
    for i, (lo, hi) in enumerate(box):
        if spec.axes[i] == "angle" and hi - lo >= 1.0:
            continue
        inside &= (pts[:, i] >= lo) & (pts[:, i] <= hi)
    return inside


def escape_statistics(m, box, n_steps, samples, seed, sample_override=None):
    """Backward-orbit escape counts for a map model over a compact box.

    The box has one (lo, hi), lo < hi, per axis; n_steps and samples are at
    least 1.  The samples are one uniform draw of `samples` states in the
    box with the given seed, or the states of `sample_override`, which must
    number `samples` (ParamError otherwise).  A sample escapes when its
    backward orbit first leaves the box within n_steps.  Samples evolve
    batched but row-independently, so counts match any worker partition.
    """
    if m.kind != MAP:
        raise ParamError("escape statistics is defined for map models")
    if m.f_inv is None:
        raise ParamError(f"{m.name} provides no inverse map")
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    _check_box(m.spec, box)
    if not (n_steps >= 1 and samples >= 1):
        raise ParamError(f"escape statistics needs n_steps >= 1 and samples >= 1, "
                         f"got {n_steps} and {samples}")
    if sample_override is None:
        rng = np.random.default_rng(seed)
        lo, hi = np.array(box).T
        pts = lo + (hi - lo) * rng.uniform(size=(samples, m.dim))
    else:
        pts = np.asarray(sample_override, dtype=float)
        if len(pts) != samples:
            raise ParamError(f"escape statistics got samples={samples} "
                             f"but {len(pts)} override states")
    exit_steps = np.zeros(samples, dtype=np.int64)
    alive = np.ones(samples, dtype=bool)
    current = pts.copy()
    for k in range(1, n_steps + 1):
        act = np.nonzero(alive)[0]
        if len(act) == 0:
            break
        current[act] = np.asarray(m.f_inv(current[act]), dtype=float)
        inside = _in_box_mask(m.spec, current[act], box)
        left = act[~inside]
        exit_steps[left] = k
        alive[left] = False
    escaped = int(np.sum(exit_steps > 0))
    return EscapeStats(
        total=samples, escaped=escaped, max_steps=n_steps, box=box,
        exit_steps=exit_steps,
    )


# ---------------------------------------------------------------------------
# loop cohomology
# ---------------------------------------------------------------------------

def _loop_tangents(spec, loop):
    """Index-derivative tangents of a closed uniformly-parameterized loop.

    Works on the unwrapped lift (cumulated minimal increments), fourth-order
    central differences with periodic extension.
    """
    pts = loop[:-1]  # drop the duplicated closing sample
    inc = spec.delta(pts, np.roll(pts, -1, axis=0))
    lift = np.concatenate([np.zeros((1, pts.shape[1])), np.cumsum(inc, axis=0)])
    winding = lift[-1]
    u = lift[:-1]
    up1 = np.roll(u, -1, axis=0).copy()
    up2 = np.roll(u, -2, axis=0).copy()
    um1 = np.roll(u, 1, axis=0).copy()
    um2 = np.roll(u, 2, axis=0).copy()
    up1[-1:] += winding
    up2[-2:] += winding
    um1[:1] -= winding
    um2[:2] -= winding
    return pts, (-up2 + 8 * up1 - 8 * um1 + um2) / 12.0


def loop_cohomology_check(m, loop, t):
    """Transport a closed loop and compare circulations of the Liouville form.

    I_0 is the polygonal trapezoid circulation of the input loop; I_t is the
    circulation of the image loop, evaluated in the source parameterization
    (lambda(phi(x)) . Dphi(x) gamma'(x), periodic trapezoid) so the exponential
    compression of the image does not starve the quadrature; the loop moves
    by transport_tangents at its default step and blow-up threshold.
    PASS iff |I_t - exp(-alpha t) I_0| <= _LOOP_COHOMOLOGY_TOL * (1 + |I_0|).
    """
    if m.lam is None:
        raise StructureError(f"{m.name} carries no Liouville form")
    loop = np.asarray(loop, dtype=float)
    i0 = loop_integral(m.spec, m.lam, loop)
    if t == 0:
        i_t = i0
    else:
        pts, taus = _loop_tangents(m.spec, loop)
        flowed, moved, alive = transport_tangents(m, pts, taus, t)
        if not np.all(alive):
            raise BlowUpError("a loop point blew up during transport")
        lam_vals = np.asarray(m.lam(flowed), dtype=float)
        i_t = float(np.sum(lam_vals * moved))
    expected = math.exp(-m.alpha * t) * i0
    residual = abs(i_t - expected)
    tolerance = _LOOP_COHOMOLOGY_TOL * (1.0 + abs(i0))
    return CheckResult(
        check="loop-cohomology",
        model=m.name,
        params=m.params,
        residual=residual,
        tolerance=tolerance,
        provenance_tag="transport/loop-circulation",
        details={"i0": i0, "i_t": i_t, "expected": expected, "t": t},
    )


# ---------------------------------------------------------------------------
# recurrence scans and orbit classification
# ---------------------------------------------------------------------------

# recurrence_scan samples and reduces an orbit this many samples at a time:
# whole, the 20 orbits of cert_lee_no_periodic peaked at 2.97 MB (tracemalloc)
_RECURRENCE_BLOCK = 2048


def recurrence_scan(m, x0, t_max, dt):
    """Closest return of the orbit of x0 to x0 within [0, t_max], after departure.

    The orbit is sampled every dt from t = 0 (in closed form where the model
    has one, else on the adaptive engine at the default IntegratorConfig),
    and the distance to x0 is minimized exactly on each linear segment
    between consecutive samples, taken the short way across an angle wrap
    as in classify_ensemble; for a flow that is linear between samples,
    such as the Lee field, that is the orbit's closest approach.
    The departure from x0 is not a return: only segments from the first
    sample where the distance to x0 stops growing count.  Returns
    (distance, time), or (inf, nan) when the distance grows to t_max.
    A step of half a turn or more on an angle axis aliases (0.7 turn reads as
    0.3 turn back): ParamError once dt * |X| at a sample reaches it.  dt and
    t_max are finite with 0 < dt <= t_max (ParamError otherwise).
    """
    if not (math.isfinite(t_max) and 0 < dt <= t_max):
        raise ParamError(f"recurrence_scan takes a finite t_max and 0 < dt <= t_max, "
                         f"got dt = {dt!r} and t_max = {t_max!r}")
    n = int(math.floor(t_max / dt + 1e-9))
    if n > 1e7:
        raise ParamError("too many recurrence samples (t_max/dt > 1e7)")
    x0 = np.asarray(x0, dtype=float)
    if m.flow_exact is None:
        ts = dt * np.arange(n + 1)
        states = integrate_flow(m, x0, (0.0, float(ts[-1])), times=ts).states[: n + 1]
        n = len(states) - 1
    best, k = (math.inf, math.nan), None  # k: the sample where the departure ends
    # b and ts carry a block's last sample into the next, whose first segment it starts
    b, ts = np.empty((0, m.dim)), np.empty(0)
    for lo in range(0, n + 1, _RECURRENCE_BLOCK):
        t = dt * np.arange(lo, min(lo + _RECURRENCE_BLOCK, n + 1))
        x = m.flow_exact(x0, t) if m.flow_exact is not None else states[lo : lo + len(t)]
        turn = dt * np.max(np.abs(m.X(x))[:, m.spec.angle_mask], initial=0.0)
        if turn >= 0.5:
            raise ParamError(f"recurrence dt = {dt} steps {turn:.3g} turn on an angle "
                             "axis; samples alias at half a turn or more")
        b, ts = np.concatenate([b[-1:], m.spec.delta(x0, x)]), np.concatenate([ts[-1:], t])
        if k is None:
            sq = _sum_last(b * b)
            stops = np.flatnonzero(sq[1:] <= sq[:-1])
            if len(stops) == 0:
                continue
            k = int(stops[0])
        dists, s = _segment_distances(m.spec, b[k:-1], b[k + 1 :])
        i = int(np.argmin(dists))
        if dists[i] < best[0]:  # the first minimum over all blocks
            best = (float(dists[i]), float((1.0 - s[i]) * ts[k + i] + s[i] * ts[k + i + 1]))
        k = 0  # departed: every later segment counts
    return best


@dataclass
class OrbitClass:
    verdict: str                # "dissipative" | "conservative" | "undetermined"
    r_slope: float
    omega_H_max: float
    min_return_dist: float
    r_abs_max: float

    def __post_init__(self):
        if self.verdict == "dissipative" and not (self.r_slope < 0):
            raise ParamError("dissipative verdict requires a negative rotation slope")


# classify_ensemble's observer copies the states of consecutive steps into a
# block of at most this many bytes and reduces the block at once; a batch
# whose single step needs more reduces every step in place.  The reduction's
# temporaries take about six times the block: at N = 100 a 256 KiB block
# raised the traced peak of cert_classification from 0.5 to 1.6 MB and ran
# no faster than this one.
_OBSERVER_BLOCK_BYTES = 64 * 1024
# classify_ensemble's verdict codes 0, 1, 2, its RK4 step and its verdict
# thresholds
_VERDICTS = ("undetermined", "dissipative", "conservative")
_CLASSIFY_H = 1e-3
_DISSIPATIVE_SLOPE, _DISSIPATIVE_H, _CONSERVATIVE_R, _RETURN_DIST = -0.1, 1e-3, 1e-4, 1e-3


def _segment_distances(spec, a, b):
    """Distance from the origin to each linear segment a -> b, over (..., dim),
    and the segment parameter s in [0, 1] of the closest point a + s (b - a).

    a and b are displacements from a start (spec.delta); the segment runs
    along spec.step(a, b), so one that crosses the wrap at +-0.5 on an angle
    axis takes the short way round rather than spanning the torus through
    the start.
    """
    ab = spec.step(a, b)
    prod = np.multiply(ab, ab)  # one scratch array for the products
    denom = _sum_last(prod)
    s = -_sum_last(np.multiply(a, ab, out=prod)) / np.maximum(denom, 1e-300)
    s = np.minimum(1.0, np.maximum(0.0, s))  # np.clip(s, 0, 1) bit for bit, -0.0 kept
    seg = np.add(a, np.multiply(s[..., None], ab, out=prod), out=prod)
    return np.sqrt(_sum_last(np.multiply(seg, seg, out=prod))), s


def classify_ensemble(m, starts, T):
    """Vectorized finite-time conservative/dissipative classification.

    Orbits run on the fixed-step RK4 engine at step _CLASSIFY_H with the Lee
    integral r_t as an extra channel; a row that dies (non-finite, or a line
    coordinate past flows.BLOWUP_THRESHOLD) is undetermined.  A live row is
    dissipative when its late r_t slope <= _DISSIPATIVE_SLOPE and late |H|
    <= _DISSIPATIVE_H, else conservative when max |r_t| <= _CONSERVATIVE_R
    and its return distance <= _RETURN_DIST.  Every statistic is a per-row
    maximum, minimum or step-ordered sum over the steps the row took, up to
    the one it died in, so a row's result does not depend on its batch nor
    on how the observer blocks the steps.
    """
    if m.eta is None or m.H is None:
        raise StructureError("classification needs both eta and H")
    if not T > 0:
        raise ParamError("classification needs a positive horizon T")
    starts = np.asarray(starts, dtype=float)
    n_orb, dim = starts.shape
    n_steps = _n_steps(T, _CLASSIFY_H)
    # regression slope of r_t over the last half, summed in step order
    # (r_0 = 0 adds nothing); each row's sum is its own, whatever the batch
    half = n_steps // 2
    ts = _CLASSIFY_H * np.arange(n_steps + 1)[half:]
    ts_c = ts - ts.mean()
    r_moment = np.zeros(n_orb)
    h_abs_late = np.zeros(n_orb)
    r_abs_max = np.zeros(n_orb)
    min_ret = np.full(n_orb, np.inf)
    settle = max(1, int(0.01 * n_steps))
    late_start = int(0.9 * n_steps)
    previous = None  # displacement from the start at the last reduced step

    def fold(k0, Ys, stepped):
        """Fold the states Ys (steps, n_orb, dim + 1) of steps k0, k0 + 1, ...
        and the engine's stepped mask of each (None: every row stepped).  A
        row's statistics stop at the step it died in, as when it runs alone:
        each value of a later step, where the row is frozen, is replaced by
        one that leaves its statistic as it is."""
        nonlocal previous
        held = None  # True where a row did not take the step
        if any(mask is not None for mask in stepped):
            held = np.array([np.zeros(n_orb, bool) if mask is None else ~mask
                             for mask in stepped])

        def read(values, lo, fill):
            """values (steps k0 + lo, ..., n_orb), fill where a row was held."""
            return values if held is None else np.where(held[lo:], fill, values)

        np.maximum(r_abs_max, read(np.abs(Ys[:, :, dim]), 0, 0.0).max(axis=0), out=r_abs_max)
        lo = max(0, half - 1 - k0)  # step k holds r at node k + 1
        if lo < len(Ys):
            # np.add.accumulate adds the rows in sequence, as one add per step;
            # r_moment is never -0.0, so adding 0.0 for a held row keeps it
            terms = np.empty((len(Ys) - lo + 1, n_orb))
            terms[0] = r_moment
            np.multiply(ts_c[k0 + lo + 1 - half : k0 + len(Ys) + 1 - half, None],
                        Ys[lo:, :, dim], out=terms[1:])
            if held is not None:
                np.copyto(terms[1:], 0.0, where=held[lo:])
            r_moment[:] = np.add.accumulate(terms, axis=0)[-1]
        lo = max(0, settle - 1 - k0)
        if lo < len(Ys):
            # closest approach to the start of each linear step segment
            b = m.spec.delta(starts, Ys[lo:, :, :dim])
            a = b[:-1] if previous is None else np.concatenate([previous[None], b[:-1]])
            if len(a):
                first = len(b) - len(a)  # the segment that ends at b[first]
                dist, _ = _segment_distances(m.spec, a, b[first:])
                np.minimum(min_ret, read(dist, lo + first, np.inf).min(axis=0), out=min_ret)
            previous = b[-1]
        lo = max(0, late_start - k0)
        if lo < len(Ys):
            x = Ys[lo:, :, :dim].reshape(-1, dim)
            hv = np.abs(np.asarray(m.H(x), dtype=float)).reshape(-1, n_orb)
            np.maximum(h_abs_late, read(hv, lo, 0.0).max(axis=0), out=h_abs_late)

    step_bytes = max(1, 8 * n_orb * (dim + 1))
    block = max(1, min(n_steps, _OBSERVER_BLOCK_BYTES // step_bytes))
    # each step column-major like the engine's batch, so a step copies whole
    buf = np.empty((block, dim + 1, n_orb)).transpose(0, 2, 1) if block > 1 else None
    k0, filled, masks = 0, 0, []  # the first step held in buf, how many it holds, their masks

    def on_step(k, Y, stepped):
        nonlocal k0, filled
        if buf is None:
            fold(k, Y[None], [stepped])
            return
        if not filled:
            k0 = k
        buf[filled] = Y
        masks.append(stepped)
        filled += 1
        if filled == block:
            fold(k0, buf, masks)
            filled = 0
            masks.clear()

    _, alive, _ = flow_ensemble(m, starts, T, _CLASSIFY_H, racc=True, on_step=on_step)
    if filled:  # the last block, or the steps before every row died
        fold(k0, buf[:filled], masks)
    previous = buf = None  # freed before the per-row results are built

    slopes = r_moment / float(np.sum(ts_c * ts_c))
    # a dead row, and one that meets neither test, is undetermined (NaN
    # compares False); dissipative comes first
    dissipative = alive & (slopes <= _DISSIPATIVE_SLOPE) & (h_abs_late <= _DISSIPATIVE_H)
    conservative = (alive & ~dissipative & (r_abs_max <= _CONSERVATIVE_R)
                    & (min_ret <= _RETURN_DIST))
    verdicts = (dissipative + 2 * conservative).tolist()
    return [
        OrbitClass(_VERDICTS[v], *stats) for v, *stats in zip(
            verdicts, slopes.tolist(), h_abs_late.tolist(), min_ret.tolist(),
            r_abs_max.tolist(),
        )
    ]
