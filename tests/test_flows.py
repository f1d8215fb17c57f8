import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csdyn.diagnostics import classify_ensemble, find_periodic_orbit
from csdyn.errors import (
    BlowUpError,
    ConvergenceError,
    DimensionMismatchError,
    KindError,
    ParamError,
    PoisonedStateError,
    SectionError,
    StructureError,
)
from csdyn import flows
from csdyn.flows import (
    BLOWUP,
    COMPLETED,
    IntegratorConfig,
    SectionSpec,
    conformal_splitting_step,
    flow_ensemble,
    integrate_flow,
    integrate_variational,
    iterate_map,
    poincare_return,
    time_t_map,
    transport_tangents,
)
from csdyn.geometry import LINE, CoordinateSpec, pullback_residual, torus_distance
from csdyn.models import (
    MAP,
    FLOW,
    ModelSpec,
    contact_lift,
    instantiate_model,
    sample_states,
)

TWO_PI = 2.0 * math.pi


def riccati_blowup_time(alpha):
    # rdot = -alpha r - 2 pi r^2 from r(0) = -1 escapes at this time
    return math.log(TWO_PI / (TWO_PI - alpha)) / alpha


def test_blowup_time_matches_closed_form():
    m = instantiate_model("circle-quadratic", alpha=1.0)
    t_star = riccati_blowup_time(1.0)
    traj = integrate_flow(m, np.array([0.0, -1.0]), (0.0, 2.0))
    assert traj.status == BLOWUP
    assert abs(traj.t_escape - t_star) < 1e-6
    # the mirrored orbit r -> -r on the theta = 1/2 line escapes at the same time
    traj2 = integrate_flow(m, np.array([0.5, 1.0]), (0.0, 2.0))
    assert traj2.status == BLOWUP
    assert abs(traj2.t_escape - t_star) < 1e-6


def test_spec_anchor_on_theta_half_relaxes_instead_of_blowing_up():
    # negative control for the blow-up certificate: from (1/2, -1) the radial
    # equation is rdot = -r + 2 pi r^2, which relaxes to the invariant circle
    m = instantiate_model("circle-quadratic", alpha=1.0)
    traj = integrate_flow(m, np.array([0.5, -1.0]), (0.0, 2.0))
    assert traj.status == COMPLETED
    assert abs(traj.final_state[1]) < 0.05


def test_integrate_flow_rejects_maps():
    m = instantiate_model("radial-contraction", a=0.5)
    with pytest.raises(KindError):
        integrate_flow(m, np.array([0.0, 1.0]), (0.0, 1.0))


MAP_REFUSALS = {
    "variational": lambda m, x: integrate_variational(m, x, (0.0, 1.0)),
    "ensemble": lambda m, x: flow_ensemble(m, x[None], 1.0),
    "transport": lambda m, x: transport_tangents(m, x[None], np.array([[1.0, 0.0]]), 1.0),
    "time-t-map": lambda m, x: time_t_map(m, 1.0),
}


@pytest.mark.parametrize("call", sorted(MAP_REFUSALS))
def test_flow_entry_points_reject_maps(call):
    # a map has no vector field to step
    m = instantiate_model("radial-contraction", a=0.5)
    with pytest.raises(KindError, match="radial-contraction is not a flow model"):
        MAP_REFUSALS[call](m, np.array([0.0, 1.0]))


def test_integrate_flow_rejects_zero_span():
    m = instantiate_model("circle-linear", alpha=1.0)
    with pytest.raises(ParamError):
        integrate_flow(m, np.array([0.1, 0.1]), (1.0, 1.0))


def test_damped_energy_never_increases():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    traj = integrate_flow(m, np.array([0.23, 1.7]), (0.0, 50.0), samples=501)
    h_vals = np.asarray(m.H(traj.states))
    assert np.max(np.diff(h_vals)) < 1e-9


def test_variational_determinant_abel_liouville():
    m = instantiate_model("circle-linear", alpha=1.0)
    traj = integrate_variational(m, np.array([0.13, 0.7]), (0.0, 1.0), samples=2)
    assert abs(np.linalg.det(traj.final_frame) - math.exp(-1.0)) < 1e-8


def test_variational_initial_frame_is_identity():
    m = instantiate_model("circle-linear", alpha=1.0)
    traj = integrate_variational(m, np.array([0.13, 0.7]), (0.0, 0.5), samples=11)
    assert np.array_equal(traj.frames[0], np.eye(2))
    assert traj.times[0] == 0.0


def test_variational_pair_transport():
    m = instantiate_model("t2-pair-theta2")
    traj = integrate_variational(m, np.array([0.1, 0.2]), (0.0, 1.0), samples=2)
    F = traj.final_frame
    omega = np.asarray(m.Omega(traj.states[0]))
    scale = math.exp(traj.r_final)
    assert np.max(np.abs(F.T @ omega @ F - scale * omega)) < 1e-7


@pytest.mark.parametrize("h", [0.1, 0.01, 0.001])
def test_splitting_step_exactly_conformal(h):
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    x = np.array([0.2, 0.3])
    x_new, J = conformal_splitting_step(m, x, h)
    res = pullback_residual(
        J, np.asarray(m.Omega(x)), np.asarray(m.Omega(x_new)), math.exp(-0.5 * h)
    )
    assert res <= 5e-13


def test_splitting_step_midpoint_branch_exactly_conformal():
    m = instantiate_model("mane", alpha=0.5, d=1, y0=0.5, y_sin=-0.5 / TWO_PI)
    x = np.array([0.2, 0.3])
    x_new, J = conformal_splitting_step(m, x, 0.01)
    res = pullback_residual(
        J, np.asarray(m.Omega(x)), np.asarray(m.Omega(x_new)), math.exp(-0.005)
    )
    assert res <= 5e-13


def test_splitting_step_small_h_limit():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    x = np.array([0.2, 0.3])
    x_new, J = conformal_splitting_step(m, x, 1e-8)
    assert np.max(np.abs(x_new - x)) < 1e-7
    # deviation from the identity scales with h * max(|V''|, alpha)
    assert np.max(np.abs(J - np.eye(2))) < 1e-6


def test_splitting_step_preconditions():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    with pytest.raises(ParamError):
        conformal_splitting_step(m, np.array([0.2, 0.3]), 0.7)
    # before, h = nan passed the h <= 0.5 guard and returned nan states and
    # Jacobians; a negative step stays a step
    for h in (math.nan, -math.inf):
        with pytest.raises(ParamError, match=f"finite.*h={h}"):
            conformal_splitting_step(m, np.array([0.2, 0.3]), h)
    assert np.isfinite(conformal_splitting_step(m, np.array([0.2, 0.3]), -0.01)[0]).all()
    m2 = instantiate_model("t2-pair-theta2")
    with pytest.raises(KindError):
        conformal_splitting_step(m2, np.array([0.2, 0.3]), 0.01)
    with pytest.raises(DimensionMismatchError):  # not two states of dim 2
        conformal_splitting_step(m, np.array([0.2, 0.3, 0.4, 0.5]), 0.01)


SPLITTING_MODELS = {
    "verlet-d1": lambda: instantiate_model("damped-mechanical", alpha=0.5, d=1),
    "verlet-d2": lambda: instantiate_model(
        "damped-mechanical", alpha=0.5, d=2, v_cos=(1.0, 0.5), v_cross=0.4),
    "midpoint-mane": lambda: instantiate_model(
        "mane", alpha=0.5, d=1, y0=0.5, y_sin=-0.5 / TWO_PI),
    "midpoint-circle-quadratic": lambda: instantiate_model("circle-quadratic"),
}


@pytest.mark.parametrize("name", sorted(SPLITTING_MODELS))
@pytest.mark.parametrize("h", [0.05, 0.001])
def test_batched_splitting_step_rows_match_single_states(name, h):
    m = SPLITTING_MODELS[name]()
    xs = sample_states(m, 16, np.random.default_rng(11), 0.5)
    z, J = conformal_splitting_step(m, xs, h)
    assert z.shape == xs.shape and J.shape == xs.shape + (m.dim,)
    for i, x in enumerate(xs):
        z1, J1 = conformal_splitting_step(m, xs[i : i + 1], h)
        z0, J0 = conformal_splitting_step(m, x, h)
        assert z1[0].tobytes() == z[i].tobytes() == z0.tobytes()
        assert J1[0].tobytes() == J[i].tobytes() == J0.tobytes()


@pytest.mark.parametrize("name", sorted(SPLITTING_MODELS))
def test_composed_splitting_steps_stay_conformal(name):
    # 100 steps to t = 1: the product of the step Jacobians pulls Omega back
    # to exp(-alpha) Omega, as each exactly conformal step does, to rounding
    # that grows at most by one ulp of |F|^2 a step
    m = SPLITTING_MODELS[name]()
    x0 = sample_states(m, 1, np.random.default_rng(3), 0.1)[0]
    x, F = x0, np.eye(m.dim)
    for _ in range(100):
        x, J = conformal_splitting_step(m, x, 0.01)
        F = J @ F
    res = pullback_residual(F, m.Omega(x0), m.Omega(x), math.exp(-m.alpha))
    assert res <= 100 * np.finfo(float).eps * max(1.0, np.max(np.abs(F))) ** 2


def test_midpoint_rows_the_sweeps_leave_are_refused():
    """Sweeps stop converging once h times the Lipschitz constant of X_sym
    nears 2; such a row raises ConvergenceError naming the row and carrying
    the step's input state, alone and as row 3 of a batch whose other rows
    (1, 2 and 13 of the sample) converge.  At h = 0.5 row 4's midpoint
    equation has a root far from the flow, (-10.67, 22.35), which Newton
    from the step's input finds; (0, -0.7) at h = 0.1 is past the sweeps'
    bound h |r| = 0.0627 below."""
    m = instantiate_model("circle-quadratic")
    xs = sample_states(m, 16, np.random.default_rng(11), 1.0)
    refused = ((xs[4], 0.1), (xs[5], 0.05), (xs[4], 0.5), (np.array([0.0, -0.7]), 0.1))
    for x, h in refused:
        with pytest.raises(ConvergenceError, match="row 0: .* in 50 sweeps") as alone:
            conformal_splitting_step(m, x, h)
        assert alone.value.row == 0 and alone.value.t is None
        assert alone.value.state.tobytes() == x.tobytes()
        with pytest.raises(ConvergenceError) as batch:
            conformal_splitting_step(m, np.vstack([xs[[1, 2, 13]], x]), h)
        assert batch.value.row == 3 and batch.value.state.tobytes() == x.tobytes()
        assert str(batch.value) == str(alone.value).replace("row 0", "row 3")


def test_midpoint_sweeps_end_at_a_non_finite_update():
    """At h = 0.5 row 4's sweeps overflow within a few sweeps: they end at
    the first non-finite update, without a numpy warning, and the row is
    refused as a row left unconverged."""
    m = instantiate_model("circle-quadratic")
    x = sample_states(m, 16, np.random.default_rng(11), 1.0)[4]
    calls = []

    def counted(z):
        calls.append(len(z))
        return m.X_sym(z)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="row 0: .* in 50 sweeps") as info:
            conformal_splitting_step(dataclasses.replace(m, X_sym=counted), x, 0.5)
    assert info.value.state.tobytes() == x.tobytes()
    assert 0 < len(calls) < 50


def test_midpoint_without_a_real_root_is_still_refused():
    """From (0.948, -1.92) at h = 0.05 the midpoint equation of the Riccati
    fiber r' = -2 pi r^2 cos(2 pi theta) has no real root (its exact flow
    blows up within about 0.09), so the sweeps do not converge."""
    m = instantiate_model("circle-quadratic")
    refused = "row 1: implicit midpoint did not converge in 50 sweeps, state"
    with pytest.raises(ConvergenceError, match=refused):
        conformal_splitting_step(m, np.array([[0.1, 0.1], [0.9483, -1.9203]]), 0.05)


# model, and the bound on |p| at step h: the midpoint's sweeps converge
# within it (on circle-quadratic they first fail at h |r| = 0.0627, at
# theta = 0, r < 0 and h = 0.01, on a grid of 400 angles and h |r| in steps
# of 1e-4 at 50 h in [0.01, 0.5]; Mane's fail for some states from h |p| of
# about 0.8)
SPLITTING_PROPERTY_MODELS = {
    "damped-mechanical": (lambda: instantiate_model(
        "damped-mechanical", alpha=0.5, d=2, v_cos=(1.0, 0.5), v_cross=0.4),
        lambda h: 2.0),
    "mane": (lambda: instantiate_model(
        "mane", alpha=0.5, d=2, y0=0.5, y_sin=-0.5 / TWO_PI, y_cos=0.1),
        lambda h: min(2.0, 0.5 / h)),
    "circle-quadratic": (lambda: instantiate_model("circle-quadratic"), lambda h: 0.06 / h),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SPLITTING_PROPERTY_MODELS)),
       h=st.floats(0.01, 0.5), u=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
@example(name="circle-quadratic", h=0.1, u=[0.0, 0.0, 0.0, 0.0])  # (0, -0.6): top of range
@example(name="circle-quadratic", h=0.5, u=[0.0, 0.99, 0.5, 0.5])
@example(name="mane", h=0.5, u=[0.0, 0.0, 0.0, 1.0])
def test_splitting_step_is_exactly_conformal_at_any_step(name, h, u):
    """J^T Omega(z) J = exp(-alpha h) Omega(x) to rounding for h <= 0.5, on
    the Verlet branch (damped-mechanical) and the midpoint branch (Mane, and
    circle-quadratic up to where its sweeps stop converging)."""
    build, bound = SPLITTING_PROPERTY_MODELS[name]
    m = build()
    d = m.d
    x = np.empty(m.dim)
    x[:d] = u[:d]
    x[d:] = bound(h) * (2.0 * np.array(u[d : 2 * d]) - 1.0)
    z, J = conformal_splitting_step(m, x, h)
    res = pullback_residual(J, m.Omega(x), m.Omega(z), math.exp(-m.alpha * h))
    assert res <= 32 * np.finfo(float).eps * max(1.0, np.max(np.abs(J))) ** 2


def _stiff_midpoint_model():
    """circle-linear with X_sym a fast rotation: the midpoint sweeps diverge
    from every state but the origin, which is fixed after one sweep."""
    m = instantiate_model("circle-linear", alpha=1.0)
    return dataclasses.replace(
        m, X_sym=lambda x: 1e3 * np.stack([x[..., 1], -x[..., 0]], axis=-1)
    )


def test_non_converging_midpoint_row_is_named():
    m = _stiff_midpoint_model()
    xs = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ConvergenceError, match="row 2") as info:
        conformal_splitting_step(m, xs, 0.01)
    assert info.value.row == 2 and np.array_equal(info.value.state, xs[2])


def test_splitting_local_error_order_three():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    hs = (0.02, 0.01, 0.005)
    rng = np.random.default_rng(7)
    orders = []
    for x0 in sample_states(m, 6, rng, 1.0):
        errs = []
        for h in hs:
            ref = integrate_flow(m, x0, (0.0, h), cfg, samples=2).final_state
            stepped, _ = conformal_splitting_step(m, x0, h)
            errs.append(np.max(np.abs(stepped - ref)))
        orders.extend(
            math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)
        )
    assert 2.7 <= float(np.median(orders)) <= 3.3


# ---------------------------------------------------------------------------
# the joint field's output contract
# ---------------------------------------------------------------------------

JOINT_MODELS = {
    "circle-linear": lambda: instantiate_model("circle-linear", alpha=1.0),
    "damped-mechanical-d2": lambda: instantiate_model(
        "damped-mechanical", d=2, v_cos=(1.0, 1.0), v_cross=0.3),
    "t2-pair-theta2": lambda: instantiate_model("t2-pair-theta2"),
    "lee-twisted-t1t2": lambda: instantiate_model("lee-twisted-t1t2"),
    # eta_X = dH(R), and DX from differences of dH
    "contact-lift": lambda: contact_lift(
        lambda y: math.cos(TWO_PI * y[2]) + 0.3 * math.sin(TWO_PI * y[0]), (0.5, 0.25),
        dH=lambda y: TWO_PI * np.array(
            [0.3 * math.cos(TWO_PI * y[0]), 0.0, -math.sin(TWO_PI * y[2])])),
}
JOINT_CASES = [
    (name, racc) for name, build in sorted(JOINT_MODELS.items())
    for racc in ((False, True) if build().eta is not None else (False,))
]


@pytest.mark.parametrize("name,racc", JOINT_CASES)
@pytest.mark.parametrize("k", ["0", "1", "n"])
def test_joint_rhs_out_matches_the_allocating_call(name, racc, k):
    m = JOINT_MODELS[name]()
    n = m.dim
    k = {"0": 0, "1": 1, "n": n}[k]
    rhs = flows._joint_rhs(m, k, racc)
    rng = np.random.default_rng(5)
    y = rng.standard_normal((7, n + n * k + racc))
    y[:, :n] = sample_states(m, 7, rng, 1.0)
    before = y.copy()
    fresh = rhs(y)
    assert fresh.shape == y.shape and not np.shares_memory(fresh, y)
    out = np.full_like(y, np.nan)
    assert rhs(y, out) is out
    assert out.tobytes() == fresh.tobytes()
    assert y.tobytes() == before.tobytes()
    for row, expected in zip(y, fresh):  # a row alone gives its batch row
        assert rhs(row[None]).tobytes() == expected[None].tobytes()


FUSED_CASES = [("circle-linear", 1, False), ("t2-pair-theta1", 0, True),
               ("t2-pair-theta2", 0, True)]


def _fused_joint_states(m, k, racc, n_rows):
    """Rows [x | v] or [x | r] with tangent entries of +-0.0 and negative
    ones, and states on the zeros of sin and cos."""
    n = m.dim
    rng = np.random.default_rng([n_rows, 3])
    y = rng.standard_normal((n_rows, n + n * k + racc))
    y[:, :n] = sample_states(m, n_rows, rng, 1.0)
    y[::4, :n] = (0.0, -0.0)  # sin and cos zeros, signed zero states
    y[1::4, :n] = (0.25, 0.75)
    if k:
        y[::3, n] = -0.0
        y[1::3, n] = 0.0
        y[::2, n + 1] = -0.0
        y[2::5, n + 1] = 0.0
    return y


@pytest.mark.parametrize("name,k,racc", FUSED_CASES)
@pytest.mark.parametrize("n_rows", [1, 7, 2049])
def test_fused_joint_field_matches_the_composed_one(name, k, racc, n_rows):
    """The fused evaluator gives the composed joint field bit for bit,
    signed zeros included."""
    m = instantiate_model(name)
    composed = dataclasses.replace(m, X_DXv=None, X_etaX=None)
    assert (m.X_DXv if k else m.X_etaX) is not None
    fused, reference = flows._joint_rhs(m, k, racc), flows._joint_rhs(composed, k, racc)
    y = _fused_joint_states(m, k, racc, n_rows)
    expected = reference(y)
    assert fused(y).tobytes() == expected.tobytes()
    out = np.full_like(y, np.nan)
    assert fused(y, out) is out and out.tobytes() == expected.tobytes()
    for row, exp in zip(y[:9], expected):  # a single state gives its batch row
        assert fused(row).tobytes() == exp.tobytes()


DAMPED_CASES = {
    "d1": {"d": 1},
    "d1-no-potential": {"d": 1, "v_cos": 0.0},
    "d2-cross": {"d": 2, "v_cos": (1.0, 1.0), "v_cross": 0.3},
    "d2-one-harmonic": {"d": 2, "v_cos": (1.0, 0.0)},
    "d2-one-harmonic-cross": {"d": 2, "v_cos": (1.0, 0.0), "v_cross": 0.4},
    "d2-cross-only": {"d": 2, "v_cos": 0.0, "v_cross": -1.1},
}


def _damped_joint_states(m, n_rows, seed):
    """[x | v] rows with signed zero angles, momenta and tangents, angles
    near the zeros of cos, and one row of huge tangents and momenta, on
    which the joint field overflows (the block's sum stays finite)."""
    n, d = m.dim, m.d
    rng = np.random.default_rng([n_rows, seed])
    y = rng.standard_normal((n_rows, 2 * n))
    y[:, :n] = sample_states(m, n_rows, rng, 1.0)
    y[::4, :d] = 0.0
    y[1::4, :d] = -0.0
    y[2::4, :d] = 0.25
    y[::3, d:n] = -0.0
    y[1::3, d:n] = 0.0
    y[::3, n:] = -0.0
    y[1::3, n::2] = 0.0
    y[2::5, n + 1 :: 2] = -0.0
    y[3:4, d:] *= 1e306
    return y


@pytest.mark.parametrize("case", sorted(DAMPED_CASES))
@pytest.mark.parametrize("n_rows", [1, 7, 2049, 16384])
def test_damped_mechanical_fused_tangent_field_matches_the_composed_one(case, n_rows):
    """X_DXv equals X composed with DX v by np.einsum bit for bit: on a
    batch, into a given output, on its first row as a (1, 2n) block and
    as one state."""
    m = instantiate_model("damped-mechanical", alpha=0.5, **DAMPED_CASES[case])
    assert m.X_DXv is not None
    fused = flows._joint_rhs(m, 1, False)
    reference = flows._joint_rhs(dataclasses.replace(m, X_DXv=None), 1, False)
    y = _damped_joint_states(m, n_rows, 5)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference(y)
        assert fused(y).tobytes() == expected.tobytes()
        out = np.full_like(y, np.nan)
        assert fused(y, out) is out and out.tobytes() == expected.tobytes()
        assert fused(y[:1]).tobytes() == expected[:1].tobytes()
        assert fused(y[0]).tobytes() == expected[0].tobytes()


VIEW_CASES = FUSED_CASES + [
    ("damped-mechanical-" + case, 1, False) for case in sorted(DAMPED_CASES)]


@pytest.mark.parametrize("name,k,racc", VIEW_CASES)
@pytest.mark.parametrize("n_rows", [1, 7, 2049])
def test_time_reversed_view_steps_its_composed_field(name, k, racc, n_rows):
    """A time-reversed view has no fused field: its joint field composes
    the view's own X, DX and eta_X, and gives the bits of the model's
    negated fused field (tangent zeros +0.0), signed zeros included."""
    if name.startswith("damped-mechanical-"):
        case = name[len("damped-mechanical-"):]
        m = instantiate_model("damped-mechanical", alpha=0.5, **DAMPED_CASES[case])
        y = _damped_joint_states(m, n_rows, 5)
    else:
        m = instantiate_model(name)
        y = _fused_joint_states(m, k, racc, n_rows)
    view = flows.time_reversed_view(m)
    assert view.X_DXv is None and view.X_etaX is None
    n = m.dim
    expected = np.empty_like(y)
    with np.errstate(over="ignore", invalid="ignore"):  # the damped overflow row
        expected[:, :n] = view.X(y[:, :n])
        if k:
            expected[:, n:] = np.einsum(
                "...ij,...j->...i", view.DX(y[:, :n]), np.ascontiguousarray(y[:, n:]))
        else:
            expected[:, n] = view.eta_X(y[:, :n])
        rhs = flows._joint_rhs(view, k, racc)
        assert rhs(y).tobytes() == expected.tobytes()
        assert rhs(y[:1]).tobytes() == expected[:1].tobytes()
        # the model's fused field negated, its tangent sums' -0.0 made +0.0
        negated = -flows._joint_rhs(m, k, racc)(y)
        negated[:, n : n + n * k] += 0.0
        assert negated.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", ["d1", "d2-cross"])
def test_fused_transport_with_overflowing_rows_matches_the_composed_run(case):
    """A row whose tangent overflows within a step stays alive with non-finite
    tangents, and a row whose momentum overflows dies.  The fused field is
    specified on finite blocks only, yet on these runs every output, nan
    bits included, equals the composed run's, on the model and on its view
    (which has no fused field)."""
    m = instantiate_model("damped-mechanical", alpha=0.5, **DAMPED_CASES[case])
    rng = np.random.default_rng(9)
    states = sample_states(m, 9, rng, 1.0)
    vectors = rng.standard_normal((9, m.dim))
    vectors[2] = 1e307
    states[5, m.d :] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        for model in (m, flows.time_reversed_view(m)):
            fused = flows.transport_tangents(model, states, vectors, 0.05)
            composed = flows.transport_tangents(
                dataclasses.replace(model, X_DXv=None), states, vectors, 0.05)
            assert fused[2][2] and not np.isfinite(fused[1][2]).all()
            assert not fused[2][5] and fused[2][0]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(fused, composed))


@pytest.mark.parametrize("name", ["lee-twisted-t1t2", "anosov-cover"])
def test_flow_exact_matches_the_integrated_flow(name):
    """The closed-form flows against the adaptive engine, forward and
    backward, at the sampled times of a batch."""
    m = instantiate_model(name)
    xs = sample_states(m, 6, np.random.default_rng(17), 1.0)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12)
    for t in (3.0, -2.0):
        times = np.linspace(0.0, t, 7)
        for x, traj in zip(xs, integrate_flow(m, xs, (0.0, t), cfg, times=times)):
            assert traj.status == COMPLETED and len(traj.times) == 7
            exact = m.flow_exact(x, traj.times)
            err = torus_distance(m.spec, traj.states, exact)
            assert np.all(err <= 1e-10 * (1.0 + np.max(np.abs(exact), axis=-1)))


def test_iterate_map_shear():
    m = instantiate_model("shear-contraction", a=0.5)
    traj = iterate_map(m, np.array([0.0, 1.0]), 3)
    assert np.allclose(traj.states[-1], [3.0, 0.125])
    assert len(traj.states) == 4


def test_iterate_map_backward_radial():
    m = instantiate_model("radial-contraction", a=0.5)
    traj = iterate_map(m, np.array([0.3, 1.0]), -10)
    assert np.allclose(traj.final_state, [0.3, 1024.0])


def test_iterate_map_inverse_roundtrip():
    m = instantiate_model("nonexact-linear")
    x = np.array([0.1, 0.7, 0.3, 0.9, 0.4, -1.1])
    fwd = iterate_map(m, x, 1).final_state
    back = iterate_map(m, fwd, -1).final_state
    assert torus_distance(m.spec, back, m.spec.wrap(x)) < 1e-12


def test_iterate_map_requires_inverse():
    spec = CoordinateSpec((LINE, LINE))
    bare = ModelSpec(
        name="no-inverse", spec=spec, kind=MAP, params={},
        f=lambda x: x + 1.0, Df=lambda x: np.eye(2),
        Omega=lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    )
    with pytest.raises(KindError):
        iterate_map(bare, np.zeros(2), -1)


def test_iterate_map_stores_an_orbit_like_a_flow():
    """A backward orbit is stored like a backward flow: times -3..0
    ascending, the final iterate first."""
    m = instantiate_model("radial-contraction", a=0.5)
    for n, times, first in ((3, [0.0, 1.0, 2.0, 3.0], 0), (-3, [-3.0, -2.0, -1.0, 0.0], -1)):
        traj = iterate_map(m, np.array([0.3, 1.0]), n)
        assert np.array_equal(traj.final_state, [0.3, 0.5**n])
        assert traj.times.tolist() == times
        assert np.array_equal(traj.states[first], [0.3, 1.0])
        assert traj.backward == (n < 0) and traj.frames is None


def test_time_t_map_fixed_point_and_ratio():
    m = instantiate_model("circle-linear", alpha=1.0)
    f1 = time_t_map(m, 1.0)
    assert np.allclose(f1.f(np.array([0.0, 0.0])), [0.0, 0.0], atol=1e-12)
    from csdyn.geometry import conformality_ratio_estimate

    x = np.array([0.37, 0.8])
    ratio, _ = conformality_ratio_estimate(
        np.asarray(f1.Df(x)), np.asarray(m.Omega(x)), np.asarray(m.Omega(f1.f(x)))
    )
    assert abs(ratio - math.exp(-1.0)) < 1e-8
    assert f1.ratio_a == pytest.approx(math.exp(-1.0))


def test_time_t_map_composition():
    m = instantiate_model("circle-linear", alpha=1.0)
    fa, fb, fab = time_t_map(m, 0.4), time_t_map(m, 0.6), time_t_map(m, 1.0)
    x = np.array([0.21, -0.4])
    comp = fb.f(fa.f(x))
    assert torus_distance(m.spec, comp, fab.f(x)) < 1e-8


def test_time_t_map_backward_forward_consistency():
    m = instantiate_model("circle-linear", alpha=1.0)
    f1 = time_t_map(m, 1.0)
    x = np.array([0.67, 0.9])
    assert torus_distance(m.spec, f1.f_inv(f1.f(x)), m.spec.wrap(x)) < 1e-6


def test_time_t_map_propagates_blowup():
    m = instantiate_model("circle-quadratic", alpha=1.0)
    f1 = time_t_map(m, 1.0)
    with pytest.raises(BlowUpError):
        f1.f(np.array([0.0, -1.0]))


@pytest.mark.parametrize("block", [None, 2])
def test_time_t_map_batch_rows_match_single_states(block, monkeypatch):
    # block=None maps the batch whole; block=2 maps it in slices of two rows,
    # so a row's value must not depend on which rows share its engine call
    engine, batches = flows._dp_engine, []

    def counted(rhs, t0, t1, Y, *args, **kwargs):
        batches.append(len(Y))
        return engine(rhs, t0, t1, Y, *args, **kwargs)

    monkeypatch.setattr(flows, "_dp_engine", counted)
    m = instantiate_model("circle-linear", alpha=1.0)
    f1 = time_t_map(m, 1.0)
    xs = sample_states(m, 5, np.random.default_rng(7), 1.0)
    for fn in (f1.f, f1.f_inv, f1.Df):
        batches.clear()
        if block:
            batch = np.concatenate([fn(xs[i:i + block]) for i in range(0, 5, block)])
            assert batches == [2, 2, 1]  # one engine call per slice
        else:
            batch = fn(xs)
            assert batches == [5]  # the whole batch in one engine call
        assert batch.shape == (5,) + np.shape(fn(xs[0]))
        for x, row in zip(xs, batch):
            assert row.tobytes() == fn(x).tobytes()


def test_time_t_map_batch_blowup_reports_the_row_escape_time():
    m = instantiate_model("circle-quadratic", alpha=1.0)
    f1 = time_t_map(m, 1.0)
    xs = np.array([[0.25, 0.3], [0.5, 0.1], [0.75, -0.3], [0.0, -1.0]])
    with pytest.raises(BlowUpError, match="row 3") as info:
        f1.f(xs)
    alone = integrate_flow(m, xs[3], (0.0, 1.0), samples=2)
    assert info.value.t_escape == alone.t_escape
    assert abs(info.value.t_escape - riccati_blowup_time(1.0)) < 1e-6


def test_time_t_map_requires_nonzero_time():
    m = instantiate_model("circle-linear", alpha=1.0)
    with pytest.raises(ParamError):
        time_t_map(m, 0.0)


def test_poincare_return_time_theta2():
    m = instantiate_model("t2-pair-theta2")
    sec = SectionSpec(axis=0, offset=0.0, direction=1)
    crossings, jacs, times, raccs = poincare_return(m, sec, np.array([0.0, 0.0]), 2)
    assert abs(times[0] - 1.0 / TWO_PI) < 1e-8
    assert abs(times[1] - 2.0 / TWO_PI) < 1e-8
    assert abs(crossings[0][1]) < 1e-9  # stays on the invariant circle


def test_poincare_lee_crossings_equally_spaced():
    m = instantiate_model("lee-twisted-t1t2", a1=math.sqrt(2.0), a2=math.sqrt(3.0))
    x0 = np.array([0.1, 0.2, 0.15, 0.0])
    rate = math.sqrt(2.0) * math.cos(TWO_PI * 0.15) + math.sqrt(3.0) * math.sin(
        TWO_PI * 0.15
    )
    sec = SectionSpec(axis=3, offset=0.0, direction=1 if rate > 0 else -1)
    _, _, times, _ = poincare_return(m, sec, x0, 3)
    gaps = np.diff(times)
    assert np.max(np.abs(gaps - 1.0 / abs(rate))) < 1e-8



def test_poincare_return_stops_at_its_kth_crossing():
    """k = 1 gives the first entries of k = 3 bit for bit, and its run ends
    with the step holding its crossing instead of finishing the 4.0 chunk:
    theta1 (unwrapped, rate about 2 pi) is evaluated no further than one
    step (at most 0.05 time units) past the crossing at theta1 = 1."""
    m = instantiate_model("t2-pair-theta2")
    reached = []

    def counted(x, out=None):
        reached.append(float(np.max(np.asarray(x)[..., 0])))
        return m.X(x, out)

    counting = dataclasses.replace(m, X=counted, X_etaX=None)
    sec = SectionSpec(axis=0, offset=0.0, direction=1)
    x0 = np.array([0.05, 0.02])
    one = poincare_return(counting, sec, x0, 1)
    evals_one, furthest_one = len(reached), max(reached)
    reached.clear()
    three = poincare_return(counting, sec, x0, 3)
    for a, b in zip(one, three):
        assert len(a) == 1 and len(b) == 3
        assert np.array_equal(a[0], b[0]) and np.asarray(a[0]).dtype == np.asarray(b[0]).dtype
    assert 1.0 < furthest_one < 1.0 + 0.05 * 7.0
    assert 3.0 < max(reached) < 3.0 + 0.05 * 7.0
    assert evals_one < len(reached)


@pytest.mark.parametrize("k", [0, -1, 1.5])
def test_poincare_return_refuses_k_before_any_step(k):
    """Before, k = 0 integrated to t = 1e4 and then raised "only 62831 of 0
    crossings found", and k = 1.5 never met its count either."""
    m = instantiate_model("t2-pair-theta2")
    calls = []

    def counted(x, out=None):
        calls.append(np.shape(x))
        return m.X(x, out)

    counting = dataclasses.replace(m, X=counted, X_etaX=None)
    sec = SectionSpec(axis=0, offset=0.0, direction=1)
    with pytest.raises(ParamError, match=f"integer k >= 1, got k={k!r}"):
        poincare_return(counting, sec, np.array([0.0, 0.01]), k)
    assert calls == []


def test_poisoned_field_raises():
    spec = CoordinateSpec((LINE, LINE))
    bad = ModelSpec(
        name="poison", spec=spec, kind=FLOW, params={},
        X=lambda x, out=None: np.stack(
            [np.full(x.shape[:-1], np.nan), np.zeros(x.shape[:-1])], -1, out=out),
        Omega=lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    )
    with pytest.raises(PoisonedStateError):
        integrate_flow(bad, np.zeros(2), (0.0, 1.0))


def _counted_field(m, calls):
    def X(x, out=None):
        calls.append(np.shape(x))
        return m.X(x, out)

    return X


def test_a_flow_without_dx_is_refused_before_any_step():
    """Tangent runs take the model's DX; nothing differences X in its place."""
    m = instantiate_model("circle-linear", alpha=1.0)
    calls = []
    bare = dataclasses.replace(m, X=_counted_field(m, calls), DX=None, X_DXv=None)
    x = np.array([0.1, 0.2])
    runs = [lambda: bare.jacobian(x),
            lambda: transport_tangents(bare, x[None], np.array([[1.0, 0.0]]), 1.0)]
    runs.append(lambda: integrate_variational(bare, x, (0.0, 1.0)))
    for run in runs:
        with pytest.raises(StructureError, match="circle-linear states no Jacobian DX"):
            run()
    assert calls == []


def test_a_lee_form_without_eta_x_is_refused_before_any_step():
    """The Lee channel takes the model's eta_X; nothing contracts eta with X."""
    m = instantiate_model("t2-pair-theta2")
    calls = []
    bare = dataclasses.replace(m, X=_counted_field(m, calls), eta_X=None, X_etaX=None)
    x = np.array([0.1, 0.2])
    for run in (lambda: integrate_flow(bare, x, (0.0, 1.0)),
                lambda: classify_ensemble(bare, x[None], 1.0),
                lambda: flow_ensemble(bare, x[None], 1.0, racc=True)):
        with pytest.raises(StructureError, match="t2-pair-theta2 states no eta_X"):
            run()
    assert calls == []


@pytest.mark.parametrize("name,params,x0", [
    ("anosov-cover", {}, (np.inf, 0.7, 0.3, 1.5)),
    ("mane", {"d": 1, "y0": 0.5}, (np.inf, 0.2)),
])
def test_non_finite_start_raises_before_the_field_reads_it(name, params, x0):
    """Neither field reads the inf angle, so without the start screen the
    run would complete with nan states."""
    m = instantiate_model(name, **params)
    with pytest.raises(PoisonedStateError) as info:
        integrate_flow(m, np.array(x0), (0.0, 1.0))
    err = info.value
    assert (err.row, err.t, err.model) == (0, 0.0, name)
    assert err.state[0] == np.inf and "non-finite start" in str(err)


def test_non_finite_initial_frame_raises_at_the_start():
    m = instantiate_model("circle-linear", alpha=1.0)
    frames = np.stack([np.eye(2), np.eye(2)])
    frames[1, 0, 1] = np.nan
    with pytest.raises(PoisonedStateError) as info:
        integrate_variational(m, np.array([[0.1, 0.2], [0.3, 0.4]]), (0.0, 1.0),
                              initial_frame=frames)
    assert (info.value.row, info.value.t) == (1, 0.0)


def test_backward_span_flagged_and_consistent():
    m = instantiate_model("circle-linear", alpha=1.0)
    fwd = integrate_flow(m, np.array([0.37, 0.8]), (0.0, 1.0), samples=2)
    back = integrate_flow(m, fwd.final_state, (1.0, 0.0), samples=2)
    assert back.backward
    assert np.all(np.diff(back.times) > 0)
    assert torus_distance(m.spec, back.final_state, fwd.states[0]) < 1e-6
    assert back.r_accum is None  # no Lee form on this model


def test_backward_span_honours_requested_times():
    m = instantiate_model("circle-linear", alpha=1.0)
    x = np.array([0.37, 0.8])
    back = integrate_flow(m, x, (1.0, 0.0), times=[0.25, 0.5])
    assert np.array_equal(back.times, [0.0, 0.25, 0.5])
    fwd = integrate_flow(m, back.final_state, (0.0, 1.0), times=[0.25, 0.5])
    assert torus_distance(m.spec, fwd.states[-1], x) < 1e-8
    for a, b in zip(fwd.states[:2], back.states[1:]):
        assert torus_distance(m.spec, a, b) < 1e-8


def test_trajectory_r_accum_starts_at_zero():
    m = instantiate_model("t2-pair-theta2")
    traj = integrate_flow(m, np.array([0.1, 0.2]), (0.0, 1.0), samples=11)
    assert traj.r_accum[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_backward_r_final_is_the_run_total():
    # a backward run's Lee integral is measured from its start, its last sample
    m = instantiate_model("t2-pair-theta2")
    back = integrate_flow(m, (0.3, 0.2), (0.0, -1.0), samples=5)
    fwd = integrate_flow(flows.time_reversed_view(m), (0.3, 0.2), (0.0, 1.0), samples=5)
    assert back.r_accum[-1] == 0.0
    assert back.r_accum.tobytes() == fwd.r_accum[::-1].tobytes()
    assert back.r_final == fwd.r_final != 0.0


@pytest.mark.parametrize("axis", [2, 7, -1])
def test_section_axis_outside_the_model_is_a_section_error(axis):
    m = instantiate_model("t2-pair-theta2")
    sec = SectionSpec(axis=axis, offset=0.0, direction=1)
    with pytest.raises(SectionError, match="outside 0..1"):
        poincare_return(m, sec, np.array([0.0, 0.0]), 1)
    with pytest.raises(SectionError, match="outside 0..1"):
        find_periodic_orbit(m, sec, np.array([0.0, 0.01]))


@pytest.mark.parametrize("kwargs", [
    {"max_steps": 0}, {"max_steps": -5},
    {"blowup_threshold": 0.0}, {"blowup_threshold": -1.0}, {"blowup_threshold": math.nan},
])
def test_integrator_config_rejects_out_of_range_fields(kwargs):
    with pytest.raises(ParamError, match=next(iter(kwargs))):
        IntegratorConfig(**kwargs)


def test_flow_ensemble_deterministic_rerun_and_partition():
    m = instantiate_model("t2-pair-theta2")
    batch = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    full, alive, r_full = flow_ensemble(m, batch, 2.0, h=0.01, racc=True)
    again, _, r_again = flow_ensemble(m, batch, 2.0, h=0.01, racc=True)
    # identical shapes are bit-identical; partitions agree to rounding
    assert np.array_equal(full, again)
    assert np.array_equal(r_full, r_again)
    parts, r_parts = [], []
    for half in (batch[:2], batch[2:]):
        out, _, r = flow_ensemble(m, half, 2.0, h=0.01, racc=True)
        parts.append(out)
        r_parts.append(r)
    assert np.allclose(full, np.concatenate(parts), atol=1e-12)
    assert np.allclose(r_full, np.concatenate(r_parts), atol=1e-12)


def test_max_steps_reported():
    m = instantiate_model("circle-linear", alpha=1.0)
    cfg = IntegratorConfig(max_steps=5)
    traj = integrate_flow(m, np.array([0.13, 0.7]), (0.0, 100.0), cfg, samples=11)
    assert traj.status == "max-steps"
