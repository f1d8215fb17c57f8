"""The named certificate battery behind `csdyn verify` and the acceptance tests.

Each certificate turns one structural claim into a CheckResult with a pinned
tolerance.  Negative controls (cases expected to exhibit the opposite
behaviour) report the verdict PASS-NEGATIVE-CONTROL when they do.

A certificate is declared once, by `_certificate` above its measuring code:
scope, check name, model label, tolerance, provenance tag, params and the
negative-control flag.  The measuring code returns (residual, details); the
declaration builds the CheckResult and registers the check in battery order.
"""

from __future__ import annotations

import functools
import math
import time
from typing import NamedTuple

import numpy as np

from .diagnostics import (
    CheckResult,
    attractor_estimate,
    classify_ensemble,
    conformal_transport_check,
    escape_statistics,
    find_periodic_orbit,
    isotropy_defect,
    loop_cohomology_check,
    lyapunov_spectrum,
    map_conformality_ratios,
    recurrence_scan,
    refine_equilibrium,
    rotation_number,
    trapping_level,
    unstable_manifold_cloud,
    _nearest_cloud_distance,
    _worst,
)
from .flows import (
    BLOWUP,
    COMPLETED,
    IntegratorConfig,
    SectionSpec,
    conformal_splitting_step,
    flow_ensemble,
    integrate_flow,
    integrate_variational,
    iterate_map,
    time_t_map,
)
from .geometry import (
    ANGLE,
    LINE,
    CoordinateSpec,
    conformality_ratio_estimate,
    eval_two_form,
    fd_exterior_derivative_one_form,
    fd_exterior_derivative_two_form,
    fd_gradient,
    loop_integral,
    pullback_residual,
    torus_distance,
    wedge_one_two,
    _sum_last,
)
from .models import (
    NONEXACT_RATIO,
    conformal_hamiltonian_field,
    contact_lift,
    field_identity_residual,
    instantiate_model,
    sample_states,
)

TWO_PI = 2.0 * math.pi
# rationally independent twist frequencies of the Lee field
_TWIST = (math.sqrt(2.0), math.sqrt(3.0))


class Declaration(NamedTuple):
    """What a certificate checks, fixed before it measures anything."""

    scope: str
    check: str
    model: str
    tolerance: float
    provenance: str
    params: dict = {}  # copied by every CheckResult, never mutated
    negative: bool = False


# (cert_fn, scope) pairs in battery order, appended by each declaration
_CERTIFICATES = []


def _certificate(*args, **kwargs):
    """Declare the decorated measurement `cert_x(seed)` as a certificate.

    The arguments are a Declaration's fields.  The returned `cert_x(seed=7)`
    wraps the measurement's (residual, details) in the declared CheckResult
    and carries the Declaration as its `declaration`.
    """
    d = Declaration(*args, **kwargs)

    def register(measure):
        @functools.wraps(measure)
        def cert(seed=7):
            residual, details = measure(seed)
            return CheckResult(d.check, d.model, d.params, residual, d.tolerance,
                               d.provenance, details, negative=d.negative)

        cert.declaration = d
        _CERTIFICATES.append((cert, d.scope))
        return cert

    return register


def _worst_ratio(subchecks):
    """(worst ratio, ratios) of sub-checks {name: (statistic, tolerance)}.

    Each ratio is statistic / tolerance, so a check over its sub-checks
    PASSes iff the worst ratio is <= 1.
    """
    ratios = {name: x / tol for name, (x, tol) in subchecks.items()}
    return _worst(ratios.values()), ratios


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@_certificate("geometry", "two-form-antisymmetry", "registry", 0.0,
              "geometry/antisymmetric-pairing")
def cert_two_form_antisymmetry(seed=7):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in ("radial-contraction", "nonexact-linear", "lee-twisted-t1t2"):
        m = instantiate_model(name)
        omega = np.asarray(m.Omega(sample_states(m, 50, rng)), dtype=float)
        u, v = np.swapaxes(rng.standard_normal((50, 2, m.dim)), 0, 1)
        antisym = eval_two_form(omega, u, v) + eval_two_form(omega, v, u)
        worst = _worst(worst, float(np.max(np.abs(antisym))))
    return worst, {}


@_certificate("geometry", "loop-quadrature-convergence", "geometry", 0.5,
              "geometry/trapezoid-order")
def cert_loop_quadrature_convergence(seed=7):
    spec = CoordinateSpec((ANGLE, LINE))

    def lam(pts):
        out = np.zeros_like(pts)
        out[..., 0] = pts[..., 1]
        return out

    def make_loop(n):
        s = np.linspace(0.0, 1.0, n + 1)
        return np.stack(
            [np.mod(s + 0.1 * np.sin(TWO_PI * s), 1.0), 1.0 + 0.3 * np.cos(TWO_PI * s)],
            axis=1,
        )

    exact = 1.0 + 0.03 * math.pi  # closed form of the oracle loop circulation
    errs = [abs(loop_integral(spec, lam, make_loop(n)) - exact) for n in (64, 128, 256)]
    ratios = [errs[i + 1] / errs[i] for i in range(2)]
    return _worst(ratios), {"errors": errs, "ratios": ratios}


@_certificate("geometry", "torus-metric-triangle", "geometry", 1e-12,
              "geometry/wrapped-metric")
def cert_torus_metric(seed=7):
    rng = np.random.default_rng(seed)
    spec = CoordinateSpec((ANGLE, ANGLE, LINE, LINE))
    x, y, z = np.swapaxes(rng.uniform(-2, 2, size=(1000, 3, 4)), 0, 1)
    dxy = torus_distance(spec, x, y)
    triangle = torus_distance(spec, x, z) - dxy - torus_distance(spec, y, z)
    symmetry = np.abs(dxy - torus_distance(spec, y, x))
    return _worst(0.0, float(np.max(triangle)), float(np.max(symmetry))), {}


@_certificate("geometry", "map-conformality-ratio", "nonexact-linear", 1e-12,
              "conformality/map-ratio")
def cert_map_conformality(seed=7):
    """Acceptance 1: ratio (7-3*sqrt5)/2 at 1e-12 with Libermann constancy."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    m = instantiate_model("nonexact-linear")
    ratios, residuals = map_conformality_ratios(m, sample_states(m, 100, rng))
    spread = float(ratios.max() - ratios.min())
    err = float(np.max(np.abs(ratios - NONEXACT_RATIO)))
    worst = _worst(err, spread, float(np.max(residuals)))
    details = {
        "ratio": float(ratios[0]),
        "target": NONEXACT_RATIO,
        "spread": spread,
        "max_residual": float(np.max(residuals)),
    }
    # Libermann constancy on the other registered conformal maps
    for name in ("radial-contraction", "shear-contraction"):
        mm = instantiate_model(name, a=0.37)
        rr, res = map_conformality_ratios(mm, sample_states(mm, 100, rng))
        worst = _worst(worst, float(np.max(res)), float(np.max(np.abs(rr - 0.37))))
        details[f"{name}_spread"] = float(rr.max() - rr.min())
    elapsed = time.perf_counter() - started
    details["elapsed_s"] = elapsed
    if elapsed > 1.0:
        worst = math.inf  # runtime budget is part of the criterion
    return worst, details


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

_FLOW_MODELS = (
    ("circle-linear", {"alpha": 1.0}),
    ("circle-quadratic", {"alpha": 1.0}),
    ("mane", {"alpha": 0.5, "d": 1, "y0": 0.5, "y_sin": -0.5 / TWO_PI}),
    ("damped-mechanical", {"alpha": 0.5, "d": 1, "v_cos": 1.0}),
    ("damped-mechanical", {"alpha": 0.5, "d": 2, "v_cos": (1.0, 1.0), "v_cross": 0.3}),
    ("t2-pair-theta1", {}),
    ("t2-pair-theta2", {}),
    ("lee-twisted-t1t2", {}),
)


@_certificate("models", "field-identities", "registry", 1e-9, "models/defining-identity")
def cert_field_identities(seed=7):
    """Defining identity of every registered flow field at 1000 random states."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    details = {}
    for name, params in _FLOW_MODELS:
        m = instantiate_model(name, params)
        res = float(np.max(field_identity_residual(m, sample_states(m, 1000, rng, 1.5))))
        details[f"{name}/d={m.d}"] = res
        worst = _worst(worst, res)
        # central-difference cross-check of the analytic gradient
        xs = sample_states(m, 10, rng, 1.0)
        fd_worst = float(np.max(np.abs(fd_gradient(m.H, xs) - m.dH(xs))))
        if fd_worst > 1e-5:
            worst = _worst(worst, fd_worst)
    return worst, details


@_certificate("models", "structure-forms", "registry", 1e-6, "models/exterior-derivative")
def cert_structure_forms(seed=7):
    """Omega = -d(lambda) for exact models; d(Omega) = eta ^ Omega for pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, params in (("circle-linear", {"alpha": 1.0}),
                         ("mane", {"alpha": 0.5, "d": 1, "y0": 0.4}),
                         ("damped-mechanical", {"alpha": 0.5, "d": 1})):
        m = instantiate_model(name, params)
        xs = sample_states(m, 100, rng, 1.0)
        dlam = fd_exterior_derivative_one_form(m.lam, xs)
        worst = _worst(worst, float(np.max(np.abs(np.asarray(m.Omega(xs)) + dlam))))
    m = instantiate_model("lee-twisted-t1t2")
    xs = sample_states(m, 30, rng)
    domega = fd_exterior_derivative_two_form(m.Omega, xs)
    wedge = wedge_one_two(m.eta(xs), m.Omega(xs))
    for key in domega:
        worst = _worst(worst, float(np.max(np.abs(domega[key] - wedge[key]))))
    return worst, {}


@_certificate("models", "liouville-decomposition", "circle-linear", 1e-12,
              "models/field-splitting", {"alpha": 1.0})
def cert_liouville_decomposition(seed=7):
    """X = alpha*Z + X_H with Z = (0, -r) on the circle model, at 1e-12."""
    m = instantiate_model("circle-linear", alpha=1.0)
    xs = sample_states(m, 200, np.random.default_rng(seed))
    z_field = np.zeros_like(xs)
    z_field[:, 1] = -xs[:, 1]
    rhs = m.alpha * z_field + np.asarray(m.X_sym(xs))
    return float(np.max(np.abs(np.asarray(m.X(xs)) - rhs))), {}


@_certificate("models", "gauge-equivalence", "t2-pair-theta2", 1e-9, "models/pair-rescaling")
def cert_gauge_equivalence(seed=7):
    """Field of (Omega, eta, H) equals the field of (e^f Omega, eta+df, e^f H)."""
    rng = np.random.default_rng(seed)
    m = instantiate_model("t2-pair-theta2")
    # the first 100 uniform draws with H > 0.05, in blocks of the count still needed
    xs = np.empty((0, 2))
    while len(xs) < 100:
        cand = rng.uniform(0, 1, size=(100 - len(xs), 2))
        xs = np.concatenate([xs, cand[m.H(cand) > 0.05]])

    def e_f(x):
        # e^f for f = -log H, on the chart where H > 0
        return np.exp(-np.log(m.H(x)))

    def omega2(x):
        return e_f(x)[..., None, None] * np.asarray(m.Omega(x), dtype=float)

    def eta2(x):
        # df = -dH/H
        return np.asarray(m.eta(x), dtype=float) - m.dH(x) / m.H(x)[..., None]

    def h2(x):
        return e_f(x) * m.H(x)

    def dh2(x):
        # d(e^f H) = e^f (dH + H df) = e^f (dH - dH) = 0 for f = -log H
        return np.zeros_like(x)

    gauge_field = conformal_hamiltonian_field(omega2, eta2, h2, dh2)
    return float(np.max(np.abs(gauge_field(xs) - m.X(xs)))), {}


@_certificate("models", "contact-lift", "contact-lift", 1e-9,
              "models/twisted-symplectization", {"beta": _TWIST})
def cert_contact_lift(seed=7):
    rng = np.random.default_rng(seed)
    lifted = contact_lift(lambda y: 1.0, _TWIST, dH=lambda y: np.zeros(3))
    lee = instantiate_model("lee-twisted-t1t2", a1=_TWIST[0], a2=_TWIST[1])
    xs = sample_states(lee, 100, rng)
    worst = float(np.max(np.abs(np.asarray(lifted.X(xs)) - np.asarray(lee.X(xs)))))
    # geodesic lift for beta = 0
    lifted0 = contact_lift(lambda y: 1.0, (0.0, 0.0), dH=lambda y: np.zeros(3))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    c, s = math.cos(TWO_PI * 0.3), math.sin(TWO_PI * 0.3)
    worst = _worst(
        worst,
        float(np.max(np.abs(np.asarray(lifted0.X(x)) - np.array([c, s, 0.0, 0.0])))),
    )
    # defining identity of the lifted field for a nonconstant Hamiltonian
    def dh_cos(y):
        out = np.zeros_like(y)
        out[..., 2] = -TWO_PI * np.sin(TWO_PI * y[..., 2])
        return out

    liftH = contact_lift(lambda y: np.cos(TWO_PI * y[..., 2]), (0.0, 0.0), dH=dh_cos)
    ident = float(np.max(field_identity_residual(liftH, sample_states(liftH, 50, rng))))
    return _worst(worst, ident), {"identity_residual": ident}


# ---------------------------------------------------------------------------
# flow engine
# ---------------------------------------------------------------------------

@_certificate("flow-engine", "flow-conformality-transport", "circle-linear,t2-pair-theta2",
              1e-6, "transport/pullback-scaling")
def cert_flow_conformality(seed=7):
    """Acceptance 2: pullback transport at t = 1, 20 random starts, < 1e-6."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    details = {}
    cases = (
        ("circle-linear", {"alpha": 0.5}),
        ("circle-linear", {"alpha": 1.0}),
        ("t2-pair-theta2", {}),
    )
    for name, params in cases:
        m = instantiate_model(name, params)
        trajs = integrate_variational(
            m, sample_states(m, 20, rng, 1.0), (0.0, 1.0), samples=21
        )
        case_worst = _worst(
            conformal_transport_check(m, traj).details["omega_residual"]
            for traj in trajs
        )
        details[f"{name}:{params}"] = case_worst
        worst = _worst(worst, case_worst)
    elapsed = time.perf_counter() - started
    details["elapsed_s"] = elapsed
    if elapsed > 10.0:
        worst = math.inf
    return worst, details


# the splitting checks' models, in draw order: the Stormer-Verlet branch
# (damped-mechanical d = 1) and the implicit-midpoint branch (Mane d = 2,
# where conformality of a 4x4 Jacobian says more than its determinant)
_SPLITTING_MODELS = (
    ("damped-mechanical", {"alpha": 0.5, "d": 1, "v_cos": 1.0}),
    ("mane", {"alpha": 0.5, "d": 2, "y0": 0.5, "y_sin": -0.5 / TWO_PI, "y_cos": 0.1}),
)


@_certificate("flow-engine", "splitting-exact-conformality", "damped-mechanical,mane", 5e-13,
              "integrator/structural-conformality", {"alpha": 0.5})
def cert_splitting_exact(seed=7):
    """Acceptance 3: one-step Jacobian residual <= 5e-13 for every h, on
    both branches of the splitting step."""
    rng = np.random.default_rng(seed)
    details = {}
    for name, params in _SPLITTING_MODELS:
        m = instantiate_model(name, params)
        for h in (0.1, 0.01, 0.001):
            xs = sample_states(m, 5, rng, 1.0)
            xs_new, Js = conformal_splitting_step(m, xs, h)
            details[f"{name}:h={h}"] = float(np.max(pullback_residual(
                Js, m.Omega(xs), m.Omega(xs_new), math.exp(-m.alpha * h))))
    return float(np.max(list(details.values()))), details  # a NaN case FAILs


@_certificate("flow-engine", "splitting-order", "damped-mechanical,mane", 0.3,
              "integrator/richardson-order")
def cert_splitting_order(seed=7):
    """Local error of the splitting step is O(h^3): empirical order in [2.7, 3.3]
    on both branches.

    Richardson ratios at a single point are noisy (higher-order terms), so
    the certified estimate per model is the median over seeded sample points.
    """
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    rng = np.random.default_rng(seed)
    hs = (0.02, 0.01, 0.005)
    deviations = []
    details = {}
    for name, params in _SPLITTING_MODELS:
        m = instantiate_model(name, params)
        starts = sample_states(m, 8, rng, 1.0)
        errs = []  # per h, one local error per start
        for h in hs:
            refs = integrate_flow(m, starts, (0.0, h), cfg, samples=2)
            stepped, _ = conformal_splitting_step(m, starts, h)
            errs.append(np.max(np.abs(stepped - [r.final_state for r in refs]), axis=1))
        orders = [
            math.log(e[i] / e[i + 1]) / math.log(hs[i] / hs[i + 1])
            for e in np.transpose(errs) for i in range(2)
        ]
        median = float(np.median(orders))
        details[f"{name}:median_order"] = median
        details[f"{name}:orders"] = orders
        deviations.append(abs(median - 3.0))
    return float(np.max(deviations)), details  # a NaN median FAILs


@_certificate("flow-engine", "volume-rate", "registry", 1e-7, "transport/volume")
def cert_volume_rate(seed=7):
    """det Dphi_t = exp(-d alpha t) (exact) or exp(d r_t) (pairs) at 1e-7."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    details = {}
    for name, params in (
        ("circle-linear", {"alpha": 1.0}),
        ("damped-mechanical", {"alpha": 0.5, "d": 2, "v_cos": (1.0, 1.0)}),
        ("t2-pair-theta2", {}),
    ):
        m = instantiate_model(name, params)
        case = 0.0
        for traj in integrate_variational(
            m, sample_states(m, 5, rng, 1.0), (0.0, 1.0), samples=2
        ):
            det = float(np.linalg.det(traj.final_frame))
            if m.conformal_pair:
                expect = math.exp(m.d * traj.r_final)
            else:
                expect = math.exp(-m.d * m.alpha * 1.0)
            case = _worst(case, abs(det - expect))
        details[name] = case
        worst = _worst(worst, case)
    return worst, details


@_certificate("flow-engine", "time-map-consistency", "circle-linear", 1e-8,
              "flow-engine/composition", {"alpha": 1.0})
def cert_time_map_consistency(seed=7):
    """time_t o time_s = time_{t+s} and forward-backward return, with ratio."""
    rng = np.random.default_rng(seed)
    m = instantiate_model("circle-linear", alpha=1.0)
    f_a = time_t_map(m, 0.4)
    f_b = time_t_map(m, 0.6)
    f_ab = time_t_map(m, 1.0)
    xs = sample_states(m, 5, rng, 1.0)
    ends = f_ab.f(xs)
    worst = float(np.max(torus_distance(m.spec, f_b.f(f_a.f(xs)), ends)))
    back = torus_distance(m.spec, f_ab.f_inv(ends), m.spec.wrap(xs))
    worst = _worst(worst, float(np.max(back)) / 1e2)
    ratios, _ = conformality_ratio_estimate(f_ab.Df(xs), m.Omega(xs), m.Omega(xs))
    worst = _worst(worst, float(np.max(np.abs(ratios - math.exp(-1.0)))))
    fixed = f_ab.f(np.array([0.0, 0.0]))
    worst = _worst(worst, float(np.max(np.abs(fixed))))
    return worst, {}


@_certificate("flow-engine", "map-iteration", "registry", 1e-12, "flow-engine/orbits")
def cert_map_iteration(seed=7):
    worst = 0.0
    ms = instantiate_model("shear-contraction", a=0.5)
    traj = iterate_map(ms, np.array([0.0, 1.0]), 3)
    worst = _worst(worst, float(np.max(np.abs(traj.final_state - np.array([3.0, 0.125])))))
    mr = instantiate_model("radial-contraction", a=0.5)
    back = iterate_map(mr, np.array([0.3, 1.0]), -10)
    worst = _worst(worst, float(np.max(np.abs(back.final_state - np.array([0.3, 1024.0])))))
    mn = instantiate_model("nonexact-linear")
    xs = sample_states(mn, 10, np.random.default_rng(seed))
    round_trip = torus_distance(mn.spec, mn.f(mn.f_inv(xs)), mn.spec.wrap(xs))
    return _worst(worst, float(np.max(round_trip))), {}


@_certificate("flow-engine", "blowup-riccati", "circle-quadratic", 1e-6,
              "flow-engine/non-complete", {"alpha": 1.0})
def cert_blowup_riccati(seed=7):
    """Acceptance 12: finite escape matching the closed-form blow-up time."""
    alpha = 1.0
    m = instantiate_model("circle-quadratic", alpha=alpha)
    t_star = (1.0 / alpha) * math.log(TWO_PI / (TWO_PI - alpha))
    worst = 0.0
    details = {"t_star": t_star}
    # the last start is the negative control: it relaxes to the invariant circle
    *escapes, ctrl = integrate_flow(
        m, np.array([[0.5, 1.0], [0.0, -1.0], [0.5, -1.0]]), (0.0, 2.0)
    )
    for label, traj in zip(("line-theta-half", "line-theta-zero"), escapes):
        if traj.status != BLOWUP:
            worst = math.inf
            continue
        details[label] = traj.t_escape
        worst = _worst(worst, abs(traj.t_escape - t_star))
    details["mirrored-start-status"] = ctrl.status
    if ctrl.status != COMPLETED:
        worst = math.inf
    return worst, details


@_certificate("flow-engine", "energy-descent", "damped-mechanical", 1e-9,
              "flow-engine/lyapunov-function", {"alpha": 0.5})
def cert_energy_descent(seed=7):
    """dH/dt = -alpha |p|^2 <= 0 along damped-mechanical orbits."""
    rng = np.random.default_rng(seed)
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    worst = 0.0
    for traj in integrate_flow(m, sample_states(m, 5, rng, 1.5), (0.0, 50.0),
                               samples=501):
        h_vals = np.asarray(m.H(traj.states), dtype=float)
        worst = _worst(worst, float(np.max(np.diff(h_vals))))
    return worst, {}


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@_certificate("diagnostics", "floquet-pairing", "t2-pair-theta2", 1.0,
              "spectra/multiplier-pairing")
def cert_floquet_pairing(seed=7):
    """Acceptance 4: multipliers, pairing product, and H-vanishing on T^2.

    Each sub-check is normalized by its own pinned tolerance; the reported
    residual is the worst ratio (PASS iff <= 1).
    """
    m = instantiate_model("t2-pair-theta2")
    sec = SectionSpec(axis=0, offset=0.0, direction=1)
    po = find_periodic_orbit(m, sec, np.array([0.0, 0.01]))
    mults = np.sort(np.abs(po.multipliers))
    target = math.exp(po.period * po.mean_rotation)
    sec0 = SectionSpec(axis=0, offset=0.0, direction=0)
    po_r = find_periodic_orbit(m, sec0, np.array([0.0, 0.499]), backward=True)
    mults_r = np.sort(np.abs(po_r.multipliers))
    # parabolic invariant circle of the first Hamiltonian
    m1 = instantiate_model("t2-pair-theta1")
    sec1 = SectionSpec(axis=1, offset=0.0, direction=0)
    po_p = find_periodic_orbit(m1, sec1, np.array([0.625, 0.0]))
    details = {
        "period": po.period,
        "multipliers": po.multipliers,
        "mean_rotation": po.mean_rotation,
        "h_anchor": po.h_anchor,
        "closure": po.closure_error,
        "repelling_multipliers": po_r.multipliers,
        "parabolic_period": po_p.period,
    }
    worst, details["ratios"] = _worst_ratio({
        "period": (abs(po.period - 1.0 / TWO_PI), 1e-8),
        "mult_contracting": (abs(mults[0] - math.exp(-TWO_PI)), 1e-6),
        "mult_unit": (abs(mults[1] - 1.0), 1e-6),
        "pairing_product": (float(np.max(np.abs(np.abs(po.pairing_products) - target))), 1e-8),
        "pairing_argument": (po.pairing_defect_argument, 1e-6),
        "h_anchor": (abs(po.h_anchor), 1e-9),
        "repel_mult": (abs(mults_r[1] - math.exp(TWO_PI)), 1e-6 * math.exp(TWO_PI)),
        "repel_unit": (abs(mults_r[0] - 1.0), 1e-6),
        "parabolic_period": (abs(po_p.period - 1.0 / (2.0 * math.sqrt(2.0) * math.pi)), 1e-6),
        "parabolic_mults": (float(np.max(np.abs(po_p.multipliers - 1.0))), 1e-6),
        "parabolic_rotation": (abs(po_p.mean_rotation), 1e-9),
    })
    return worst, details


@_certificate("diagnostics", "lyapunov-pairing", "damped-mechanical", 1e-3,
              "spectra/exponent-pairing", {"alpha": 0.5})
def cert_lyapunov_pairing(seed=7):
    """Acceptance 5: damped-pendulum exponents sum to -alpha within 1e-3."""
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    res = lyapunov_spectrum(m, np.array([0.3, 0.1]), T=200.0)
    worst = abs(float(np.sum(res.exponents)) + 0.5)
    details = {
        "exponents": res.exponents,
        "pairing_defect": res.pairing_defect,
        "converged": res.converged,
    }
    return _worst(worst, res.pairing_defect), details


@_certificate("diagnostics", "loop-cohomology", "circle-linear", 1.0,
              "transport/loop-circulation", {"alpha": 1.0})
def cert_loop_cohomology(seed=7):
    """Acceptance 6: circulation scales by exp(-alpha t) at 1e-7 relative."""
    m = instantiate_model("circle-linear", alpha=1.0)
    th = np.linspace(0.0, 1.0, 2049)
    loop = np.stack([np.mod(th, 1.0), np.ones_like(th)], axis=1)
    res = loop_cohomology_check(m, loop, 1.0)
    s = np.linspace(0.0, 2.0 * math.pi, 2049)
    contractible = np.stack(
        [0.2 + 0.05 * np.cos(s), 0.3 + 0.05 * np.sin(s)], axis=1
    )
    res2 = loop_cohomology_check(m, contractible, 1.0)
    worst, _ = _worst_ratio({"loop": (res.residual, res.tolerance),
                             "contractible": (res2.residual, res2.tolerance)})
    return worst, {"i0": res.details["i0"], "i_t": res.details["i_t"],
                   "residual": res.residual, "contractible_residual": res2.residual}


@_certificate("diagnostics", "escape-statistics", "circle-linear,shear,radial", 0.0,
              "escape/null-basin")
def cert_escape_statistics(seed=7):
    """Acceptance 7: B(f) is Lebesgue-null for the registered contractions."""
    m = instantiate_model("circle-linear", alpha=1.0)
    f1 = time_t_map(m, 1.0)
    box = ((0.0, 1.0), (-1.0, 1.0))
    es = escape_statistics(f1, box, 200, 1000, seed=seed)
    details = {"circle_escaped": es.escaped, "total": es.total}
    worst = 0.0 if es.escaped >= 990 else math.inf
    ms = instantiate_model("shear-contraction", a=0.5)
    es2 = escape_statistics(ms, ((0.0, 1.0), (-1.0, 1.0)), 5, 1000, seed=seed)
    details["shear_escaped"] = es2.escaped
    details["shear_max_exit"] = int(es2.exit_steps.max())
    if es2.escaped != 1000 or es2.exit_steps.max() > 2:
        worst = math.inf
    mr = instantiate_model("radial-contraction", a=0.5)
    rng = np.random.default_rng(seed)
    on_circle = np.stack([rng.uniform(0, 1, 50), np.zeros(50)], axis=1)
    es3 = escape_statistics(
        mr, ((0.0, 1.0), (-1.0, 1.0)), 50, 50, seed=seed, sample_override=on_circle
    )
    details["invariant_circle_escaped"] = es3.escaped
    if es3.escaped != 0:
        worst = math.inf
    # monotonicity in the step budget for a fixed seed
    fractions = [es.escaped_within(n) for n in (10, 50, 100, 200)]
    details["monotone_counts"] = fractions
    if any(fractions[i] > fractions[i + 1] for i in range(3)):
        worst = math.inf
    return worst, details


@_certificate("diagnostics", "trapping-attractor", "damped-mechanical,mane", 1.0,
              "attractor/trapping-level")
def cert_trapping_attractor(seed=7):
    """Acceptance 8: trapping level, attractor geometry, Mane fixed point.

    Sub-checks are normalized by their pinned tolerances (PASS iff max <= 1);
    a yes/no sub-check is 0.0 or inf against 1.0.
    """
    sub = {}
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    R = trapping_level(m)
    sub["trap_level"] = abs(R - 1.0), 1e-6
    details = {"trap_level": R}
    est = attractor_estimate(m, R=R, t_relax=60.0, grid=41)
    details["cloud_size"] = len(est.cloud)
    details["invariance_residual"] = est.invariance_residual
    sub["trapped"] = (0.0 if est.status == "trapped" else math.inf), 1.0
    # reference set: critical points + the saddle's unstable manifold
    pts, _ = unstable_manifold_cloud(m, np.array([0.0, 0.0]), t_grow=40.0)
    crit = np.array([[0.0, 0.0], [0.5, 0.0]])
    refset = np.concatenate([pts, crit], axis=0)
    cover = float(np.max(_nearest_cloud_distance(m.spec, est.cloud, refset)))
    details["cloud_to_refset"] = cover
    sub["cloud_near_refset"] = cover, 1e-2
    sink_hit = float(np.min(torus_distance(m.spec, est.cloud, np.array([0.5, 0.0]))))
    details["sink_hit"] = sink_hit
    sub["sink_hit"] = sink_hit, 1e-2
    # monotone shrink of the occupied-cell count under doubled relaxation
    est2 = attractor_estimate(m, R=R, t_relax=120.0, grid=41)
    details["cells_60"] = est.occupied_cells
    details["cells_120"] = est2.occupied_cells
    sub["monotone_shrink"] = (
        0.0 if est2.occupied_cells <= est.occupied_cells else math.inf
    ), 1.0
    # finite-time maximality: W^u samples flowed by t_relax land in the cloud
    inside = pts[np.asarray(m.H(pts), dtype=float) <= R + 1.0]
    flowed, alive = flow_ensemble(m, inside[:: max(1, len(inside) // 200)], 60.0, h=0.01)
    maxim = float(np.max(_nearest_cloud_distance(m.spec, flowed[alive], est.cloud)))
    details["maximality_residual"] = maxim
    sub["maximality"] = maxim, 2e-3
    # Mane variant with an equilibrium off the zero section
    alpha, c = 0.5, 0.5
    mm = instantiate_model("mane", alpha=alpha, d=1, y0=c, y_sin=-alpha / TWO_PI)
    fp = np.array([0.0, -c])
    x_norm = float(np.max(np.abs(np.asarray(mm.X(fp)))))
    details["mane_field_at_fp"] = x_norm
    sub["mane_field_at_fp"] = x_norm, 1e-10
    em = attractor_estimate(mm, R=trapping_level(mm), t_relax=60.0, grid=33)
    near = float(np.min(torus_distance(mm.spec, em.cloud, fp)))
    details["mane_cloud_to_fp"] = near
    sub["mane_cloud_near_fp"] = near, 1e-2
    z, polish = refine_equilibrium(mm, em.cloud[int(np.argmin(
        torus_distance(mm.spec, em.cloud, fp)))])
    details["mane_refined_residual"] = polish
    sub["mane_refined"] = polish, 1e-10
    worst, details["ratios"] = _worst_ratio(sub)
    return worst, details


def _open_graph_control(rng):
    """Canonical omega on T^2 x R^2, the graph of sin(2pi q1) dq2 and its frames.

    The q1 grid contains q1 = 0, where the defect coefficient 2 pi cos(2 pi q1)
    attains its supremum; q2 is drawn from rng.
    """
    omega4 = np.zeros((4, 4))
    omega4[0, 2], omega4[2, 0] = 1.0, -1.0
    omega4[1, 3], omega4[3, 1] = 1.0, -1.0
    q1 = np.linspace(0.0, 1.0, 64, endpoint=False)
    q = np.stack([q1, rng.uniform(0, 1, 64)], axis=1)
    pts = np.concatenate([q, np.zeros((64, 1)), np.sin(TWO_PI * q[:, :1])], axis=1)
    frames = np.zeros((64, 4, 2))
    frames[:, 0, 0] = 1.0
    frames[:, 3, 0] = TWO_PI * np.cos(TWO_PI * q[:, 0])
    frames[:, 1, 1] = 1.0
    return omega4, pts, frames


@_certificate("diagnostics", "isotropy", "registry", 1.0, "isotropy/frame-pairing")
def cert_isotropy(seed=7):
    """Acceptance 9: zero-section, graph negative control, saddle manifold."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [rng.uniform(0, 1, (50, 2)), np.zeros((50, 2))], axis=1
    )
    omega4, gpts, gframes = _open_graph_control(rng)
    frames = np.zeros((50, 4, 2))
    frames[:, 0, 0] = 1.0
    frames[:, 1, 1] = 1.0
    zero_defect = isotropy_defect(pts, frames, lambda x: omega4)
    details = {"zero_section_defect": zero_defect}

    # negative control: the graph of the non-closed form sin(2pi q1) dq2
    graph_defect = isotropy_defect(gpts, gframes, lambda x: omega4, normalize=False)
    details["graph_defect"] = graph_defect

    # transported unstable frames of the coupled d=2 saddle
    md = instantiate_model(
        "damped-mechanical", alpha=0.5, d=2, v_cos=(1.0, 1.0), v_cross=0.3
    )
    defects = {}
    for tg in (5.0, 10.0):
        p, f = unstable_manifold_cloud(md, np.zeros(4), t_grow=tg)
        defects[tg] = isotropy_defect(p, f, md.Omega)
    details["saddle_defect_t5"] = defects[5.0]
    details["saddle_defect_t10"] = defects[10.0]
    floor = 1e-9  # integration-error floor; see module notes
    worst, details["ratios"] = _worst_ratio({
        "zero_section": (zero_defect, 1e-14),
        "graph_control": (abs(graph_defect - TWO_PI), 1e-6),
        "saddle_small": (defects[5.0], 1e-4),
        "saddle_nonincreasing": (defects[10.0], max(defects[5.0], floor)),
    })
    return worst, details


@_certificate("diagnostics", "transport-decay", "registry", 1e-6, "isotropy/decay-identity")
def cert_transport_decay(seed=7):
    """|Omega(Du, Dv)| = exp(-alpha t) |Omega(u, v)| at t=1, 1e-6 relative."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, params in (("circle-linear", {"alpha": 1.0}),
                         ("damped-mechanical", {"alpha": 0.5, "d": 1})):
        m = instantiate_model(name, params)
        starts = sample_states(m, 5, rng, 1.0)
        pairs = rng.standard_normal((5, 2, m.dim))  # (u, v) per start
        trajs = integrate_variational(m, starts, (0.0, 1.0), samples=2)
        F = np.stack([traj.final_frame for traj in trajs])
        ends = np.stack([traj.final_state for traj in trajs])
        moved = (F[:, None] @ pairs[..., None])[..., 0]  # (F u, F v) per start
        before = eval_two_form(np.asarray(m.Omega(starts)), pairs[:, 0], pairs[:, 1])
        after = eval_two_form(np.asarray(m.Omega(ends)), moved[:, 0], moved[:, 1])
        rel = np.abs(np.abs(after) - math.exp(-m.alpha) * np.abs(before)) / np.abs(before)
        worst = _worst(worst, float(np.max(rel)))
    return worst, {}


# A closest return (recurrence_scan) below this is a periodic orbit's.  The
# rational control returns to 4e-17; over 400 orbits of the independent
# twist (seeds 1-20, t <= 200) the closest return was 1.4e-3.
RETURN_THRESHOLD = 1e-6


def _rational_recurrence():
    """(a1, a2) = (1, 2) with cos(2 pi v) = 1 returns at t = 1: (dmin, t, returned)."""
    m = instantiate_model("lee-twisted-t1t2", a1=1.0, a2=2.0)
    dmin, t_at = recurrence_scan(m, np.array([0.3, 0.7, 0.0, 0.2]), 2.0, 1e-2)
    return dmin, t_at, dmin < RETURN_THRESHOLD and abs(t_at - 1.0) < 1e-9


@_certificate("diagnostics", "lee-no-periodic-orbit", "lee-twisted-t1t2", 0.0,
              "recurrence/torus-scan", {"a1": _TWIST[0], "a2": _TWIST[1]})
def cert_lee_no_periodic(seed=7):
    """Acceptance 10: no recurrence for independent twists; rational control.

    PASS iff no orbit of 20 returns within RETURN_THRESHOLD of its start
    after its departure over t <= 200, and the rational control returns.
    """
    m = instantiate_model(
        "lee-twisted-t1t2", a1=_TWIST[0], a2=_TWIST[1], require_independent=True,
    )
    rng = np.random.default_rng(seed)
    worst_sep = _worst(
        (recurrence_scan(m, x0, 200.0, 1e-2)[0] for x0 in sample_states(m, 20, rng)),
        pick=min,
    )
    details = {"min_return": worst_sep}
    worst = 0.0 if worst_sep >= RETURN_THRESHOLD else math.inf
    dmin, t_at, returned = _rational_recurrence()
    details["control_return"] = dmin
    details["control_t"] = t_at
    if not returned:
        worst = math.inf
    return worst, details


@_certificate("diagnostics", "orbit-classification", "t2-pair-theta1,t2-pair-theta2", 0.0,
              "classification/finite-time-dichotomy")
def cert_classification(seed=7):
    """Acceptance 11: >= 95% dissipative resp. conservative verdicts."""
    rng = np.random.default_rng(seed)
    m2 = instantiate_model("t2-pair-theta2")
    starts = rng.uniform(0.0, 1.0, size=(100, 2))
    res2 = classify_ensemble(m2, starts, T=10.0)
    target_slope = -4.0 * math.pi**2
    n_diss = sum(
        1 for r in res2
        if r.verdict == "dissipative"
        and abs(r.r_slope - target_slope) <= 0.01 * abs(target_slope)
        and r.omega_H_max <= 1e-3
    )
    m1 = instantiate_model("t2-pair-theta1")
    starts1 = rng.uniform(0.0, 1.0, size=(100, 2))
    res1 = classify_ensemble(m1, starts1, T=10.0)
    n_cons = sum(
        1 for r in res1 if r.verdict == "conservative" and r.r_abs_max <= 1e-4
    )
    details = {"dissipative": n_diss, "conservative": n_cons}
    return (0.0 if (n_diss >= 95 and n_cons >= 95) else math.inf), details


@_certificate("diagnostics", "lee-rotation-zero", "lee-twisted-t1t2", 0.0, "rotation/lee-field")
def cert_rotation_zero_lee(seed=7):
    """The Lee field has eta(X) = 0 pointwise and r_T = 0 exactly.

    The pointwise contraction is summed left-to-right so the algebraic
    cancellation of the theta component is exact in floating point.
    """
    m = instantiate_model("lee-twisted-t1t2")
    xs = sample_states(m, 100, np.random.default_rng(seed))
    eta = np.asarray(m.eta(xs), dtype=float)
    xdot = np.asarray(m.X(xs), dtype=float)
    worst = float(np.max(np.abs(_sum_last(eta * xdot))))
    traj = integrate_flow(m, np.array([0.1, 0.2, 0.3, 0.4]), (0.0, 5.0), samples=51)
    r_T, _ = rotation_number(traj)
    return _worst(worst, abs(r_T)), {}


@_certificate("diagnostics", "anosov-frame-checks", "anosov-cover", 1e-9,
              "attractor/non-isotropy-witness")
def cert_anosov_frame(seed=7):
    """Cover-level checks: s-contraction and a non-isotropy witness."""
    m = instantiate_model("anosov-cover")
    x0 = np.array([0.2, 0.7, 0.3, 1.5])
    end = m.flow_exact(x0, 10.0)
    s_res = abs(end[3]) - 1.5 * ((3 - math.sqrt(5)) / 2) ** 20
    worst = abs(s_res)
    # frame two-form restricted to T(N x {0}) is nonzero: contracting vs z pairing
    omega = np.asarray(m.Omega(x0))
    v_minus = m.frame[:, 0]
    e_z = m.frame[:, 1]
    witness = abs(eval_two_form(omega, v_minus, e_z))
    if witness < 0.9:
        worst = math.inf
    return worst, {"witness": witness, "s_end": float(end[3])}


@_certificate("diagnostics", "escape-determinism", "shear-contraction", 0.0,
              "determinism/seeded-ensembles")
def cert_escape_determinism(seed=7):
    """Identical seeds give bit-identical escape statistics."""
    ms = instantiate_model("shear-contraction", a=0.5)
    a = escape_statistics(ms, ((0.0, 1.0), (-1.0, 1.0)), 5, 200, seed=seed)
    b = escape_statistics(ms, ((0.0, 1.0), (-1.0, 1.0)), 5, 200, seed=seed)
    identical = np.array_equal(a.exit_steps, b.exit_steps) and a.escaped == b.escaped
    return (0.0 if identical else math.inf), {}


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

@_certificate("diagnostics-negative-controls", "attractor-not-trapping", "circle-linear", 0.0,
              "attractor/escape-witness", {"alpha": 1.0}, negative=True)
def cert_attractor_negative_control(seed=7):
    """No compact global attractor for the circle model: box relaxation escapes."""
    m = instantiate_model("circle-linear", alpha=1.0)
    est = attractor_estimate(
        m, box=((0.0, 1.0), (-2.0, 2.0)), t_relax=30.0, grid=21
    )
    ok = est.status == "not-trapping" and est.escaped > 0
    return (0.0 if ok else math.inf), {"escaped": est.escaped, "status": est.status}


@_certificate("diagnostics-negative-controls", "recurrence-rational-control",
              "lee-twisted-t1t2", RETURN_THRESHOLD, "recurrence/torus-scan",
              {"a1": 1.0, "a2": 2.0}, negative=True)
def cert_recurrence_negative_control(seed=7):
    """Dependent twist frequencies must produce a sharp return at t = 1."""
    dmin, t_at, ok = _rational_recurrence()
    return (dmin if ok else math.inf), {"min_return_dist": dmin, "t": t_at}


@_certificate("diagnostics-negative-controls", "isotropy-open-graph-control",
              "graph of sin(2 pi q1) dq2", 1e-6, "isotropy/frame-pairing", negative=True)
def cert_isotropy_negative_control(seed=7):
    """The graph of a non-closed form must show the full 2*pi defect."""
    omega4, pts, frames = _open_graph_control(np.random.default_rng(seed))
    defect = isotropy_defect(pts, frames, lambda x: omega4, normalize=False)
    return abs(defect - TWO_PI), {"defect": defect}


_CERTIFICATES = tuple(_CERTIFICATES)  # the battery is complete
SCOPES = ("all",) + tuple(sorted({scope for _, scope in _CERTIFICATES}))


def verify_suite(scope="all", seed=7):
    """Run the certificate battery; returns (results, all_passed).

    A crash inside one certificate is caught and reported as that check's
    failure, under its declared name; the remaining checks still run.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    results = []
    for fn, fn_scope in _CERTIFICATES:
        if scope != "all" and fn_scope != scope:
            continue
        try:
            results.append(fn(seed=seed))
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            results.append(
                CheckResult(
                    check=fn.declaration.check,
                    model="-",
                    params={},
                    residual=math.inf,
                    tolerance=0.0,
                    provenance_tag="error",
                    details={"error": f"{type(exc).__name__}: {exc}"},
                )
            )
    return results, all(r.passed for r in results)


def format_report(results):
    rows = [("check", "model", "residual", "tolerance", "verdict")]
    for r in results:
        rows.append(
            (r.check, r.model, f"{r.residual:.3e}", f"{r.tolerance:.3e}", r.verdict)
        )
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("-" * (sum(widths) + 8))
    return "\n".join(lines)
