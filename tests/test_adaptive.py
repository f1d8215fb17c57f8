"""The batched adaptive Dormand-Prince engine behind integrate_flow,
integrate_variational and poincare_return."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csdyn import flows
from csdyn.diagnostics import conformal_transport_check
from csdyn.errors import (
    ConvergenceError,
    DimensionMismatchError,
    ParamError,
    PoisonedStateError,
)
from csdyn.flows import (
    BLOWUP,
    COMPLETED,
    MAX_STEPS,
    IntegratorConfig,
    integrate_flow,
    integrate_variational,
    time_t_map,
)
from csdyn.geometry import LINE, CoordinateSpec
from csdyn.models import (
    FLOW,
    ModelSpec,
    instantiate_model,
    registered_models,
    sample_states,
)

TWO_PI = 2.0 * math.pi


def assert_same_trajectory(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    for x, y in ((a.frames, b.frames), (a.r_accum, b.r_accum)):
        assert (x is None) == (y is None)
        if x is not None:
            assert np.array_equal(x, y)
    assert (a.status, a.t_escape, a.stats) == (b.status, b.t_escape, b.stats)


def test_batched_call_returns_one_trajectory_per_row():
    m = instantiate_model("t2-pair-theta2")
    xs = sample_states(m, 4, np.random.default_rng(1), 1.0)
    trajs = integrate_variational(m, xs, (0.0, 0.5), samples=11)
    assert isinstance(trajs, list) and len(trajs) == 4
    for x, traj in zip(xs, trajs):
        assert_same_trajectory(traj, integrate_variational(m, x, (0.0, 0.5), samples=11))
        assert traj.frames.shape == (11, 2, 2) and traj.r_accum.shape == (11,)


def test_batched_initial_frames_and_backward_spans():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    rng = np.random.default_rng(2)
    xs = sample_states(m, 3, rng, 1.0)
    frames = rng.standard_normal((3, 2, 2))
    frames[:, :, 0] *= np.sign(np.linalg.det(frames))[:, None]  # det > 0
    trajs = integrate_variational(m, xs, (1.0, 0.0), samples=5, initial_frame=frames)
    for x, F0, traj in zip(xs, frames, trajs):
        alone = integrate_variational(m, x, (1.0, 0.0), samples=5, initial_frame=F0)
        assert traj.backward
        assert_same_trajectory(traj, alone)
    with pytest.raises(DimensionMismatchError):
        integrate_variational(m, xs, (0.0, 1.0), initial_frame=np.eye(3))
    with pytest.raises(DimensionMismatchError):
        integrate_flow(m, np.zeros((2, 3)), (0.0, 1.0))


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_split_batch_gives_bit_identical_rows(data):
    """Row independence: every part of a random partition matches the whole,
    including a circle-quadratic row that blows up."""
    name = data.draw(st.sampled_from(["circle-quadratic", "t2-pair-theta2"]))
    m = instantiate_model(name)
    seed = data.draw(st.integers(0, 2**16))
    xs = sample_states(m, 5, np.random.default_rng(seed), 1.0)
    if name == "circle-quadratic":
        xs[data.draw(st.integers(0, 4))] = (0.0, -1.0)  # escapes near t = 0.17
    run = integrate_flow if name == "circle-quadratic" else integrate_variational
    whole = run(m, xs, (0.0, 0.3), samples=7)
    cuts = sorted(data.draw(st.sets(st.integers(1, 4), max_size=3)))
    parts = [run(m, part, (0.0, 0.3), samples=7) for part in np.split(xs, cuts)]
    for a, b in zip(whole, [t for part in parts for t in part]):
        assert_same_trajectory(a, b)
    if name == "circle-quadratic":
        assert BLOWUP in {t.status for t in whole}


def _registered_flows():
    return [n for n in registered_models() if instantiate_model(n).kind == FLOW]


@pytest.mark.parametrize("name", _registered_flows())
def test_engine_matches_dop853(name):
    """Differential oracle: the final state at t = 1 agrees with scipy's DOP853."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    m = instantiate_model(name)
    xs = sample_states(m, 3, np.random.default_rng(5), 0.5)
    if name == "circle-quadratic":  # starts that stay finite up to t = 1
        xs = np.array([[0.5, -1.0], [0.25, 0.3], [0.75, -0.3]])
    trajs = integrate_flow(m, xs, (0.0, 1.0), samples=2)
    for x, traj in zip(xs, trajs):
        ref = solve_ivp(
            lambda t, y: np.asarray(m.X(y), dtype=float), (0.0, 1.0), x,
            method="DOP853", rtol=1e-12, atol=1e-14,
        ).y[:, -1]
        assert traj.status == COMPLETED
        delta = m.spec.delta(traj.final_state, m.spec.wrap(ref))
        assert np.max(np.abs(delta)) < 1e-8


def test_dense_output_keeps_the_seed_4_transport_start_within_tolerance():
    # the worst cert_flow_conformality start at seed 4: 1.3e-8 at the nodes,
    # 3.2e-6 at 21 cubic Hermite samples
    m = instantiate_model("t2-pair-theta2")
    x0 = np.array([0.3703358831447625, 0.49930856599360807])
    traj = integrate_variational(m, x0, (0.0, 1.0), samples=21)
    assert conformal_transport_check(m, traj).details["omega_residual"] < 1e-7


def test_dense_output_is_the_dormand_prince_extension():
    """y' = (y2, -y1) in a few long steps: each step's dense output is
    DOP853's 7th-order continuous extension (scipy's for the same step, to
    rounding), and samples between nodes stay within twice rel_tol."""
    rk = pytest.importorskip("scipy.integrate._ivp.rk")
    osc = ModelSpec(
        name="oscillator", spec=CoordinateSpec((LINE, LINE)), kind=FLOW, params={},
        X=lambda x, out=None: np.stack([x[..., 1], -x[..., 0]], -1, out=out),
        Omega=lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    )
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    ts = np.linspace(0.0, 2.0, 401)
    traj = integrate_flow(osc, np.array([0.0, 1.0]), (0.0, 2.0), cfg, times=ts)
    assert traj.stats.accepted < 40
    assert np.max(np.abs(traj.states[:, 0] - np.sin(ts))) < 2e-6
    p = flows._dp_engine(
        flows._joint_rhs(osc, 0, False), 0.0, 2.0, np.array([[0.0, 1.0]]), cfg, [], osc.name
    )[0]
    for i in range(len(p.ts) - 1):
        step = rk.DOP853(
            lambda t, y: np.array([y[1], -y[0]]), p.ts[i], p.ys[i], p.ts[i + 1],
            first_step=p.ts[i + 1] - p.ts[i], rtol=1e-3, atol=1e-3,
        )
        step.step()
        assert step.t == p.ts[i + 1]
        within = np.linspace(p.ts[i], p.ts[i + 1], 9)
        ours = flows._dense(p, np.full(9, i), within)
        assert np.max(np.abs(ours - step.dense_output()(within).T)) < 1e-14


def test_poisoned_row_is_named():
    m = instantiate_model("circle-linear", alpha=1.0)
    xs = np.array([[0.1, 0.2], [0.3, np.nan], [0.5, 0.6]])
    with pytest.raises(PoisonedStateError) as info:
        integrate_flow(m, xs, (0.0, 1.0))
    err = info.value
    assert (err.row, err.model, err.t) == (1, "circle-linear", 0.0)
    assert np.isnan(err.state[1]) and "row 1" in str(err)


def test_collapsing_row_is_named():
    """Past v = 1e6 + 1 the field jumps to 1.7e308.  From v = 1e6 the
    initial-step probe sees the jump, so the row starts at the smallest
    step and grows it by 5 per step until, at t = 0.953674316406, a trial
    step crosses the jump: it overflows both the new state and the error
    estimate, so the error norm is NaN, each retry is rejected without
    shrinking h and the row fails after 60 retries.  The row at v = -1e6
    completes."""
    m = instantiate_model("circle-linear", alpha=1.0)
    cliff = dataclasses.replace(m, X_DXv=None, X=lambda x, out=None: np.stack(
        [0.0 * x[..., 0], np.where(x[..., 1] < 1e6 + 1, 1.0, 1.7e308)], -1, out=out
    ))
    xs = np.array([[0.0, -1e6], [0.0, 1e6]])
    with pytest.raises(ConvergenceError) as info:
        integrate_flow(cliff, xs, (0.0, 1e5))
    err = info.value
    assert (err.row, err.model, err.t) == (1, "circle-linear", 0.953674316406)
    assert np.array_equal(err.state, [0.0, 1000000.9536743162]) and "row 1" in str(err)
    assert integrate_flow(cliff, xs[0], (0.0, 1e5)).status == COMPLETED


def _stalls(rate, span):
    """The ConvergenceError of a row stalled at tolerances of 1e-150 under
    X = rate x, after checking that the equilibrium row beside it completes."""
    m = instantiate_model("circle-linear", alpha=1.0)
    field = dataclasses.replace(
        m, X=lambda x, out=None: np.multiply(rate, x, out=out), X_DXv=None)
    cfg = IntegratorConfig(rel_tol=1e-150, abs_tol=1e-150, max_steps=2000)
    xs = np.array([[0.0, 0.0], [1.0, 1.0]])  # row 0 is an equilibrium
    assert integrate_flow(field, xs[0], span, cfg).status == COMPLETED
    with pytest.raises(ConvergenceError, match="row 1: accepted a step too small") as info:
        integrate_flow(field, xs, span, cfg)
    assert (info.value.row, info.value.model) == (1, "circle-linear")
    return info.value


def test_stalled_row_is_named():
    """Tolerances of 1e-150 shrink the step until t + h == t.  The engine
    used to accept steps that left t unchanged until the step budget ran
    out (status max-steps, h_min 0); such a row now ends in
    ConvergenceError.  For X = 1e-31 x over (0, 1e30) the first step of
    1e-12 is rejected down to 1e-14, accepted there however large its
    error, and each such step shrinks the next by 5, so the row stalls at
    t = 1e-14."""
    err = _stalls(1e-31, (0.0, 1e30))
    assert err.t == 9.999999999999998e-15 and np.array_equal(err.state, [1.0, 1.0])


def test_stalled_row_is_named_away_from_zero():
    """The same stall from t = 3 under X = 10 x: the first step there is
    1e-12 |t0| and the smallest step 1e-14 |t|."""
    err = _stalls(10.0, (3.0, 4.0))
    assert err.t == 3.0000000000000298
    assert np.array_equal(err.state, [1.0000000000002975, 1.0000000000002975])


@pytest.mark.parametrize("span", [(1e11, 2e11), (-2e11, -1e11), (1e15, 2e15)])
def test_first_step_floor_scales_with_the_start_time(span):
    """A row at rest gets the initial step's floor, which advances t from a
    start time far from 0 only when it scales with |t0|: 1e-12 alone
    raised "accepted a step too small to advance t" from t0 = 1e11."""
    m = instantiate_model("circle-linear", alpha=1.0)
    still = dataclasses.replace(
        m, X=lambda x, out=None: np.multiply(1e-31, x, out=out), DX=None, X_DXv=None)
    traj = integrate_flow(still, np.array([0.0, 0.0]), span, samples=2)
    assert traj.status == COMPLETED and traj.times[-1] == span[1]
    assert traj.stats.h_min >= 1e-12 * abs(span[0])


def test_a_start_frame_without_orientation_is_refused():
    """A start frame with det <= 0 raises the orientation ConvergenceError
    for its row at t0, before any step."""
    m = instantiate_model("circle-linear", alpha=1.0)
    xs = np.array([[0.1, 0.2], [0.3, 0.4]])
    frames = np.array([np.eye(2), np.diag([-1.0, 1.0])])
    with pytest.raises(ConvergenceError, match="row 1: tangent frames lost orientation") as info:
        integrate_variational(m, xs, (0.0, 1.0), initial_frame=frames)
    err = info.value
    assert (err.row, err.model, err.t) == (1, "circle-linear", 0.0)
    assert np.array_equal(err.state, xs[1])


def test_a_step_to_a_reversed_frame_is_rejected(monkeypatch):
    """x' = (-30 x1, -x2): once the fast frame entry is below abs_tol, the
    steps ride DOP853's stability limit, where its stability function is
    negative and a trial frame's determinant flips sign.  Those steps are
    rejected, and the run completes with positive determinants."""
    flagged = []
    check = flows._OrientationCheck.__call__

    def counting(self, ys):
        lost = check(self, ys)
        flagged.append(int(lost.sum()))
        return lost

    monkeypatch.setattr(flows._OrientationCheck, "__call__", counting)
    stiff = ModelSpec(
        name="stiff", spec=CoordinateSpec((LINE, LINE)), kind=FLOW, params={},
        X=lambda x, out=None: np.stack([-30.0 * x[..., 0], -x[..., 1]], -1, out=out),
        DX=lambda x: np.broadcast_to(np.diag([-30.0, -1.0]), np.shape(x)[:-1] + (2, 2)),
        Omega=lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    )
    traj = integrate_variational(stiff, np.array([1.0, 1.0]), (0.0, 5.0))
    assert traj.status == COMPLETED and traj.stats.rejected >= sum(flagged) > 0
    assert np.all(np.linalg.det(traj.frames) > 0.0)


def test_max_steps_is_a_per_row_status():
    m = instantiate_model("circle-linear", alpha=1.0)
    cfg = IntegratorConfig(max_steps=40)
    xs = np.array([[0.0, 0.0], [0.13, 0.7]])  # an equilibrium and a moving start
    fast, slow = integrate_flow(m, xs, (0.0, 5.0), cfg, samples=11)
    assert fast.status == COMPLETED and fast.times[-1] == 5.0
    assert slow.status == MAX_STEPS and slow.stats.accepted == 40
    assert slow.times[-1] < 5.0
    assert_same_trajectory(slow, integrate_flow(m, xs[1], (0.0, 5.0), cfg, samples=11))


def test_stats_count_steps_and_field_evaluations():
    """12 evaluations per attempted step and two at the start (the first
    derivative and the initial-step probe), plus 14 for
    each step whose dense output is read (its 11 inner stages re-run and the
    3 extra stages); a row-counting wrapper on X sees the same total."""
    m = instantiate_model("circle-quadratic", alpha=1.0)
    rows = []

    def counted(x, out=None):
        rows.append(len(np.atleast_2d(x)))
        return m.X(x, out)

    counting = dataclasses.replace(m, X=counted)
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    # ends only: the blow-up step is read once, by its bracketing
    big = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, blowup_threshold=1e3)
    traj = integrate_flow(counting, np.array([0.0, -1.0]), (0.0, 2.0), big, samples=2)
    s = traj.stats
    assert traj.status == BLOWUP and s.rejected > 0
    assert s.rhs_evals == 12 * (s.accepted + s.rejected) + 2 + 14 == sum(rows)
    assert 0.0 < s.h_min <= s.h_max
    # past 1e8 the blow-up step (5e-10 long) is within the bracketing
    # accuracy already, so no step is read
    rows.clear()
    traj = integrate_flow(counting, np.array([0.0, -1.0]), (0.0, 2.0), cfg, samples=2)
    s = traj.stats
    assert traj.status == BLOWUP and s.h_min < 1e-9
    assert s.rhs_evals == 12 * (s.accepted + s.rejected) + 2 == sum(rows)
    # 201 samples read many steps, each once
    rows.clear()
    traj = integrate_flow(counting, np.array([0.0, -1.0]), (0.0, 2.0), cfg)
    s = traj.stats
    dense = s.rhs_evals - 12 * (s.accepted + s.rejected) - 2
    assert dense % 14 == 0 and 14 < dense <= 14 * s.accepted
    assert s.rhs_evals == sum(rows)
    # a completed ends-only run reads no step
    traj = integrate_flow(m, np.array([0.3, 0.2]), (0.0, 0.5), cfg, samples=2)
    s = traj.stats
    assert traj.status == COMPLETED
    assert s.rhs_evals == 12 * (s.accepted + s.rejected) + 2

# a value away from the default of each IntegratorConfig field, and the part
# of an adaptive run it changes: the accepted nodes (seen in the stats), the
# status and t_escape of a circle-quadratic blow-up row, the max-steps status
CHANGED_FIELDS = {
    "rel_tol": (1e-6, "nodes"),
    "abs_tol": (1e-6, "nodes"),
    "blowup_threshold": (1e3, "escape"),
    "max_steps": (3, "status"),
}


def _adaptive_outcome(what, cfg):
    if what == "escape":
        m, x0, span = instantiate_model("circle-quadratic", alpha=1.0), (0.0, -1.0), (0.0, 2.0)
    else:
        m, x0, span = instantiate_model("circle-linear", alpha=1.0), (0.3, 0.2), (0.0, 1.0)
    traj = integrate_flow(m, np.array(x0), span, cfg, samples=2)
    return {"nodes": traj.stats, "escape": (traj.status, traj.t_escape),
            "status": traj.status}[what]


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(IntegratorConfig)])
def test_every_integrator_field_changes_an_adaptive_run(field):
    """IntegratorConfig configures the adaptive engine only, so a field that
    it ignores fails here."""
    assert field in CHANGED_FIELDS, f"no adaptive run reads IntegratorConfig.{field}"
    value, what = CHANGED_FIELDS[field]
    default = _adaptive_outcome(what, IntegratorConfig())
    changed = _adaptive_outcome(what, IntegratorConfig(**{field: value}))
    assert changed != default
    if field == "max_steps":
        assert (default, changed) == (COMPLETED, MAX_STEPS)
    if field == "blowup_threshold":
        assert default[0] == changed[0] == BLOWUP and changed[1] < default[1]


# sample times that are refused: a time outside the span (0, 1), a NaN, or
# times that do not increase; before, the first three were dropped silently
# and the last two came back in their order, then the run's end
BAD_TIMES = {
    "past-the-end": [0.5, 2.0],
    "before-the-start": [-1.0, 0.5],
    "nan": [math.nan, 0.2],
    "decreasing": [0.75, 0.25],
    "repeated": [0.2, 0.2],
}


@pytest.mark.parametrize("case", sorted(BAD_TIMES))
def test_bad_sample_times_are_refused_before_any_step(case):
    m = instantiate_model("circle-linear", alpha=1.0)
    calls = []

    def counted(x, out=None):
        calls.append(np.shape(x))
        return m.X(x, out)

    counting = dataclasses.replace(m, X=counted, X_DXv=None)
    x0, times = np.array([0.3, 0.2]), BAD_TIMES[case]
    for run in (integrate_flow, integrate_variational):
        with pytest.raises(ParamError, match="times"):
            run(counting, x0, (0.0, 1.0), times=times)
        # a backward span sorts its times, but refuses the others
        if case == "decreasing":
            assert run(m, x0, (1.0, 0.0), times=times).times.tolist() == [0.0, 0.25, 0.75]
        else:
            with pytest.raises(ParamError, match="times"):
                run(counting, x0, (1.0, 0.0), times=times)
    assert calls == []


@pytest.mark.parametrize("span", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                                  (-math.inf, 0.0)])
def test_non_finite_spans_are_refused_before_any_step(span):
    """Before, (0, nan) raised PoisonedStateError ("field evaluation returned
    non-finite values"), and (0, inf) ran until a blow-up or max_steps; a
    time-t map of a non-finite t is refused when it is built."""
    m = instantiate_model("circle-linear", alpha=1.0)
    calls = []

    def counted(x, out=None):
        calls.append(np.shape(x))
        return m.X(x, out)

    counting = dataclasses.replace(m, X=counted, X_DXv=None)
    for run in (integrate_flow, integrate_variational):
        with pytest.raises(ParamError, match="time span must be finite"):
            run(counting, np.array([0.3, 0.2]), span)
    with pytest.raises(ParamError, match="finite t"):
        time_t_map(counting, span[1] - span[0])
    assert calls == []


def test_a_blown_up_row_ends_its_samples_at_its_escape():
    """The requested times past a row's blow-up are not sampled; the row's
    samples end at its t_escape, appended as the run's end."""
    m = instantiate_model("circle-quadratic", alpha=1.0)
    xs = np.array([[0.0, -1.0], [0.5, -1.0]])  # escapes near t = 0.17, relaxes
    dead, calm = integrate_flow(m, xs, (0.0, 2.0), times=[0.1, 0.5, 2.0])
    assert (dead.status, calm.status) == (BLOWUP, COMPLETED)
    assert dead.times.tolist() == [0.1, dead.t_escape]
    assert calm.times.tolist() == [0.1, 0.5, 2.0]
