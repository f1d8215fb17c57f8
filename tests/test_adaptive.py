"""The batched adaptive Dormand-Prince engine behind integrate_flow,
integrate_variational and poincare_return."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csdyn.diagnostics import conformal_transport_check
from csdyn.errors import ConvergenceError, DimensionMismatchError, PoisonedStateError
from csdyn.flows import (
    BLOWUP,
    COMPLETED,
    MAX_STEPS,
    IntegratorConfig,
    integrate_flow,
    integrate_variational,
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


@pytest.mark.parametrize("method", ["rk4", "splitting"])
def test_fixed_step_methods_batch_like_the_reference(method):
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    cfg = IntegratorConfig(method=method, h=0.01)
    xs = sample_states(m, 3, np.random.default_rng(4), 1.0)
    trajs = integrate_variational(m, xs, (0.0, 0.5), cfg, samples=6)
    for x, traj in zip(xs, trajs):
        alone = integrate_variational(m, x, (0.0, 0.5), cfg, samples=6)
        assert_same_trajectory(traj, alone)


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
    # y' = (y2, -y1): samples between nodes keep the nodes' accuracy
    osc = ModelSpec(
        name="oscillator", spec=CoordinateSpec((LINE, LINE)), kind=FLOW, params={},
        X=lambda x: np.stack([x[..., 1], -x[..., 0]], -1),
        Omega=lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    )
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    ts = np.linspace(0.0, 2.0, 401)
    traj = integrate_flow(osc, np.array([0.0, 1.0]), (0.0, 2.0), cfg, times=ts)
    assert traj.stats.accepted < 40
    assert np.max(np.abs(traj.states[:, 0] - np.sin(ts))) < 1e-7


def test_poisoned_row_is_named():
    m = instantiate_model("circle-linear", alpha=1.0)
    xs = np.array([[0.1, 0.2], [0.3, np.nan], [0.5, 0.6]])
    with pytest.raises(PoisonedStateError) as info:
        integrate_flow(m, xs, (0.0, 1.0))
    err = info.value
    assert (err.row, err.model, err.t) == (1, "circle-linear", 0.0)
    assert np.isnan(err.state[1]) and "row 1" in str(err)


def test_collapsing_row_is_named():
    """Past v = 1e6 + 1 the field jumps to 1.7e308.  From v = 1e6 the first
    trial step (h = 1e4) overflows both the new state and the error estimate,
    so the error norm is NaN: each retry is rejected without shrinking h and
    the row fails after 60 retries.  The row at v = -1e6 completes."""
    m = instantiate_model("circle-linear", alpha=1.0)
    cliff = dataclasses.replace(m, X=lambda x: np.stack(
        [0.0 * x[..., 0], np.where(x[..., 1] < 1e6 + 1, 1.0, 1.7e308)], -1
    ))
    xs = np.array([[0.0, -1e6], [0.0, 1e6]])
    with pytest.raises(ConvergenceError) as info:
        integrate_flow(cliff, xs, (0.0, 1e5))
    err = info.value
    assert (err.row, err.model, err.t) == (1, "circle-linear", 0.0)
    assert np.array_equal(err.state, [0.0, 1e6]) and "row 1" in str(err)
    assert integrate_flow(cliff, xs[0], (0.0, 1e5)).status == COMPLETED


def test_stalled_row_is_named():
    """Tolerances of 1e-150 shrink the step until t + h == t: X = 1e-31 x
    reaches t ~ 6.7e24 of 1e30, and the engine used to accept steps that
    left t unchanged until the step budget ran out (status max-steps,
    h_min 0).  Such a row now ends in ConvergenceError."""
    m = instantiate_model("circle-linear", alpha=1.0)
    slow = dataclasses.replace(m, X=lambda x: 1e-31 * np.asarray(x, dtype=float))
    cfg = IntegratorConfig(rel_tol=1e-150, abs_tol=1e-150, max_steps=2000)
    xs = np.array([[0.0, 0.0], [1.0, 1.0]])  # row 0 is an equilibrium
    with pytest.raises(ConvergenceError, match="row 1") as info:
        integrate_flow(slow, xs, (0.0, 1e30), cfg)
    err = info.value
    assert (err.row, err.model) == (1, "circle-linear")
    assert err.t > 1e24 and np.all(err.state > 1.0)


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
    m = instantiate_model("circle-quadratic", alpha=1.0)
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    traj = integrate_flow(m, np.array([0.0, -1.0]), (0.0, 2.0), cfg)
    s = traj.stats
    assert traj.status == BLOWUP and s.rejected > 0
    assert s.rhs_evals == 6 * (s.accepted + s.rejected) + 1
    assert 0.0 < s.h_min <= s.h_max
