"""The fixed-step RK4 engine behind flow_ensemble, transport_tangents and
classify_ensemble."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csdyn import diagnostics, flows
from csdyn.diagnostics import (
    attractor_estimate,
    classify_ensemble,
    conformal_transport_check,
)
from csdyn.errors import DimensionMismatchError, ParamError, StructureError
from csdyn.flows import (
    BLOWUP_THRESHOLD,
    flow_ensemble,
    integrate_flow,
    integrate_variational,
    time_reversed_view,
    transport_tangents,
)
from csdyn.geometry import ANGLE, LINE, CoordinateSpec, torus_distance
from csdyn.models import (
    FLOW,
    ModelSpec,
    field_identity_residual,
    instantiate_model,
    sample_states,
)

TWO_PI = 2.0 * math.pi


def riccati_pair():
    """theta' = 1, r' = r^2 with H = r and a zero Lee form: r(0) = 1 blows up at t = 1."""
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return ModelSpec(
        name="riccati-pair", spec=CoordinateSpec((ANGLE, LINE)), kind=FLOW, params={},
        X=lambda x, out=None: np.stack(
            [np.ones_like(x[..., 0]), x[..., 1] ** 2], axis=-1, out=out),
        H=lambda x: x[..., 1], eta=lambda x: np.zeros(2),
        eta_X=lambda x: np.zeros(np.shape(x)[:-1]), Omega=lambda x: omega,
    )


# ---------------------------------------------------------------------------
# loud errors
# ---------------------------------------------------------------------------

def test_flow_ensemble_rejects_negative_time():
    m = instantiate_model("circle-linear", alpha=1.0)
    with pytest.raises(ParamError):
        flow_ensemble(m, np.array([[0.1, 0.2]]), -1.0)


def test_a_blowup_threshold_argument_is_refused():
    """The threshold is flows.BLOWUP_THRESHOLD: before, flow_ensemble took it
    as its 5th argument, and a nan or negative one killed every row after
    its first step; racc and on_step are keyword-only, so an old positional
    threshold is not read as racc."""
    m = instantiate_model("circle-linear", alpha=1.0)
    states, vectors = np.array([[0.1, 0.2], [0.3, 0.4]]), np.ones((2, 2))
    for bad in (math.nan, -1.0):
        with pytest.raises(TypeError):
            flow_ensemble(m, states, 1.0, 0.01, bad)
        with pytest.raises(TypeError):
            flow_ensemble(m, states, 1.0, blowup_threshold=bad)
        with pytest.raises(TypeError):
            transport_tangents(m, states, vectors, 1.0, 1e-3, bad)
        with pytest.raises(TypeError):
            attractor_estimate(m, blowup_threshold=bad)


def test_transport_tangents_rejects_negative_time():
    m = instantiate_model("circle-linear", alpha=1.0)
    with pytest.raises(ParamError):
        transport_tangents(m, np.array([[0.1, 0.2]]), np.array([[1.0, 0.0]]), -1.0)


# (t, h) pairs a fixed-step run must refuse: before, a negative or infinite
# step returned the input with every row alive, and the rest raised
# ZeroDivisionError, ValueError or OverflowError
BAD_SPANS = [
    (1.0, -0.01), (1.0, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    (math.nan, 0.01), (math.inf, 0.01), (-1.0, 0.01), (1e300, 1e-300),
]


@pytest.mark.parametrize("t,h", BAD_SPANS)
def test_fixed_step_runs_reject_a_bad_horizon_or_step(t, h):
    m = instantiate_model("circle-linear", alpha=1.0)
    x = np.array([[0.1, 0.2]])
    with pytest.raises(ParamError):
        flow_ensemble(m, x, t, h=h)
    with pytest.raises(ParamError):
        flow_ensemble(m, x, t, h=h, on_step=lambda k, y, stepped: None)
    with pytest.raises(ParamError):
        transport_tangents(m, x, np.ones_like(x), t, h=h)
    if t != 1.0:  # a bad horizon; classify_ensemble steps at its own h
        with pytest.raises(ParamError):
            classify_ensemble(instantiate_model("t2-pair-theta2"), x, t)


def test_lee_channel_without_a_lee_form_is_a_structure_error():
    """Before, circle-linear (no eta) raised a bare TypeError from the
    field at the first step."""
    m = instantiate_model("circle-linear", alpha=1.0)
    steps = []
    with pytest.raises(StructureError, match="circle-linear"):
        flow_ensemble(m, np.array([[0.1, 0.2]]), 0.1, racc=True,
                      on_step=lambda k, y, stepped: steps.append(k))
    assert steps == []


# (model, states, vectors): a batch that is not (N, dim), or vectors that do
# not match it; before, the (2, 3) batch returned with its third column
# passed through, the (1, 3) vectors returned as 3-column vectors, and the
# 1-D state and the (1, 1) vectors raised numpy's AxisError and IndexError
BAD_SHAPES = [
    ("circle-quadratic", np.zeros((2, 3)), None),
    ("circle-quadratic", np.array([0.1, 0.2]), None),
    ("circle-quadratic", np.zeros((2, 2, 2)), None),
    ("damped-mechanical", np.array([[0.1, 0.2]]), np.ones((1, 3))),
    ("damped-mechanical", np.array([[0.1, 0.2]]), np.ones((1, 1))),
    ("damped-mechanical", np.array([[0.1, 0.2]]), np.ones((2, 2))),
    ("damped-mechanical", np.array([[0.1, 0.2]]), np.ones(2)),
]


@pytest.mark.parametrize("name,states,vectors", BAD_SHAPES)
def test_fixed_step_runs_reject_a_batch_of_the_wrong_shape(name, states, vectors):
    m = instantiate_model(name)
    with pytest.raises(DimensionMismatchError):
        if vectors is None:
            flow_ensemble(m, states, 0.1)
        else:
            transport_tangents(m, states, vectors, 0.01)
    if vectors is None:
        with pytest.raises(DimensionMismatchError):
            transport_tangents(m, states, np.ones_like(states), 0.01)


def test_fixed_step_outputs_are_c_ordered():
    """The engine's batch is column-major; what leaves it is C-ordered."""
    m = instantiate_model("t2-pair-theta2")
    x = sample_states(m, 9, np.random.default_rng(5), 1.0)
    for out in (flow_ensemble(m, x, 0.1), flow_ensemble(m, x, 0.1, racc=True),
                transport_tangents(m, x, np.ones_like(x), 0.01)):
        for a in out:
            assert a.flags.c_contiguous


@pytest.mark.parametrize("name,params,racc", [
    ("damped-mechanical", {"alpha": 0.5, "d": 2, "v_cos": (1.0, 1.0), "v_cross": 0.3}, False),
    ("t2-pair-theta2", {}, True),
])
def test_flow_ensemble_callback_sees_the_states_of_its_step(name, params, racc):
    """At every step the observer sees the unwrapped states of flow_ensemble
    run to that step, and with racc a last column that is the r it returns
    there.  h = 2**-7 keeps every partial horizon exact, so each shorter run
    takes the same steps."""
    m = instantiate_model(name, params)
    x = sample_states(m, 16, np.random.default_rng(6), 1.0)
    h, seen = 2.0**-7, {}
    final = flow_ensemble(m, x, 123 * h, h=h, racc=racc,
                          on_step=lambda k, y, stepped: seen.setdefault(k, y.copy()))
    assert sorted(seen) == list(range(123))
    for k, y in seen.items():
        assert y.shape == (16, m.dim + racc)
        out = flow_ensemble(m, x, (k + 1) * h, h=h, racc=racc)
        assert out[1].all()
        assert m.spec.wrap(y[:, : m.dim]).tobytes() == out[0].tobytes()
        if racc:
            assert y[:, -1].tobytes() == out[2].tobytes()
    assert m.spec.wrap(seen[122][:, : m.dim]).tobytes() == final[0].tobytes()


def test_flow_ensemble_marks_non_finite_rows_dead():
    m = instantiate_model("circle-linear", alpha=1.0)
    batch = np.array([[0.1, 0.2], [np.nan, 0.3], [0.4, np.inf], [0.7, -0.5]])
    _, alive = flow_ensemble(m, batch, 0.5)
    assert alive.tolist() == [True, False, False, True]


def test_classify_freezes_a_row_at_the_blowup_threshold(monkeypatch):
    """r(0) = 1 crosses the threshold 10 at t = 0.9, inside the late window
    [0.855, 0.95] of T = 0.95, where |H| = |r| is read."""
    m = riccati_pair()
    starts = np.array([[0.1, 1.0], [0.3, 0.0]])
    monkeypatch.setattr(flows, "BLOWUP_THRESHOLD", 10.0)
    dead, calm = classify_ensemble(m, starts, 0.95)
    assert dead.verdict == "undetermined"
    # frozen where it crossed the threshold instead of running on to inf/nan
    assert 10.0 < dead.omega_H_max < 20.0
    assert dead == classify_ensemble(m, starts[:1], 0.95)[0]
    assert calm == classify_ensemble(m, starts[1:], 0.95)[0]


def test_the_lee_channel_is_rk4_accurate():
    """At h = 0.01 the Lee integral of flow_ensemble stays within 1e-3 of
    the adaptive engine's."""
    m = instantiate_model("t2-pair-theta2")
    x0 = np.array([0.1, 0.2])
    ref = integrate_flow(m, x0, (0.0, 1.0), samples=2).r_final
    _, _, r = flow_ensemble(m, x0[None, :], 1.0, h=0.01, racc=True)
    assert abs(r[0] - ref) < 1e-3


def test_a_blown_up_row_is_frozen_at_the_step_it_died_in():
    """circle-quadratic from (0, -1) escapes at t* = log(2 pi / (2 pi - 1)):
    its row keeps the state of the step in which its line coordinate passed
    the threshold, within 0.02 of t*, and takes no later step; the other row
    of the batch completes."""
    m = instantiate_model("circle-quadratic", alpha=1.0)
    t_star = math.log(TWO_PI / (TWO_PI - 1.0))
    starts = np.array([[0.0, -1.0], [0.25, 0.1]])
    seen, took = [], []

    def observe(k, y, stepped):
        seen.append(y[0].copy())
        took.append(stepped is None or bool(stepped[0]))

    final, alive = flow_ensemble(m, starts, 2.0, h=0.01, on_step=observe)
    k = next(i for i, y in enumerate(seen) if not abs(y[1]) <= 1e8)
    assert alive.tolist() == [False, True]
    assert abs(0.01 * (k + 1) - t_star) < 0.02
    assert all(took[: k + 1]) and not any(took[k + 1 :])
    assert final[0].tobytes() == m.spec.wrap(seen[k]).tobytes()


# ---------------------------------------------------------------------------
# transport_tangents against the variational reference
# ---------------------------------------------------------------------------

TRANSPORT_MODELS = {
    "circle-linear": lambda: instantiate_model("circle-linear", alpha=1.0),
    "mane": lambda: instantiate_model("mane", alpha=0.5, d=1, y0=0.5, y_sin=-0.5 / TWO_PI),
    "reversed-circle-linear": lambda: time_reversed_view(
        instantiate_model("circle-linear", alpha=1.0)),
}


@pytest.mark.parametrize("name", sorted(TRANSPORT_MODELS))
def test_transport_tangents_matches_variational(name):
    m = TRANSPORT_MODELS[name]()
    rng = np.random.default_rng(3)
    states = sample_states(m, 4, rng, 0.5)
    vectors = rng.standard_normal((4, m.dim))
    final, moved, alive = transport_tangents(m, states, vectors, 0.5)
    assert alive.all()
    for x, v, xf, vf in zip(states, vectors, final, moved):
        ref = integrate_variational(m, x, (0.0, 0.5), samples=2)
        assert torus_distance(m.spec, xf, ref.final_state) < 1e-8
        assert np.max(np.abs(vf - ref.final_frame @ v)) < 1e-8


def test_fused_fields_replace_the_separate_field_calls():
    """Tangent transport on circle-linear and damped-mechanical (d = 1 and
    2) and classification on t2-pair-theta2 step on the fused joint fields:
    their X, DX and eta_X are not called, and the results equal those of
    the composed fields."""
    calls = []

    def counted(f):
        def wrapper(x):
            calls.append(f)
            return f(x)
        return wrapper

    def counting(m):
        return dataclasses.replace(m, **{
            name: counted(getattr(m, name)) for name in ("X", "DX", "eta_X")
            if getattr(m, name) is not None})

    rng = np.random.default_rng(8)
    for m in (instantiate_model("circle-linear", alpha=1.0),
              instantiate_model("damped-mechanical", d=1),
              instantiate_model("damped-mechanical", d=2, v_cos=(1.0, 1.0), v_cross=0.3)):
        states = sample_states(m, 16, rng, 1.0)
        vectors = rng.standard_normal((16, m.dim))
        fused = transport_tangents(counting(m), states, vectors, 0.05)
        assert not calls
        composed = transport_tangents(
            dataclasses.replace(m, X_DXv=None), states, vectors, 0.05)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fused, composed))
    m = instantiate_model("t2-pair-theta2")
    starts = rng.uniform(0.0, 1.0, (16, 2))
    fused = classify_ensemble(counting(m), starts, 0.5)
    assert not calls
    assert fused == classify_ensemble(dataclasses.replace(m, X_etaX=None), starts, 0.5)


def test_a_replaced_field_needs_the_fused_field_cleared():
    """The fused field is derived from X and DX, so a dataclasses.replace of
    X on damped-mechanical must clear X_DXv as well: tangent transport then
    steps on the new X, while a stale X_DXv would keep the old field."""
    m = instantiate_model("damped-mechanical", d=2, v_cos=(1.0, 1.0), v_cross=0.3)
    rng = np.random.default_rng(12)
    states, vectors = sample_states(m, 8, rng, 1.0), rng.standard_normal((8, 4))
    calls = []

    def doubled(x, out=None):
        calls.append(len(x))
        out = m.X(x, out)
        return np.multiply(out, 2.0, out=out)

    stale = dataclasses.replace(m, X=doubled)
    kept = transport_tangents(stale, states, vectors, 0.05)
    assert not calls
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(kept, transport_tangents(m, states, vectors, 0.05)))
    cleared = dataclasses.replace(m, X=doubled, X_DXv=None)
    moved = transport_tangents(cleared, states, vectors, 0.05)
    assert calls
    assert not np.array_equal(moved[0], kept[0])


# ---------------------------------------------------------------------------
# the time-reversed view is a ModelSpec
# ---------------------------------------------------------------------------

def test_time_reversed_view_is_a_model_spec():
    m = instantiate_model("mane", alpha=0.5, d=1, y0=0.5, y_sin=-0.5 / TWO_PI)
    view = time_reversed_view(m)
    assert isinstance(view, ModelSpec)
    assert view.spec is m.spec and view.params is m.params
    x = np.array([0.3, -0.2])
    assert np.array_equal(view.X(x), -m.X(x))
    assert np.array_equal(view.jacobian(x), -m.jacobian(x))
    assert not view.cotangent_splittable


def test_time_reversed_view_negates_alpha_and_hamiltonian():
    m = instantiate_model("circle-linear", alpha=1.0)
    view = time_reversed_view(m)
    assert view.alpha == -1.0
    assert view.eta is m.eta and view.lam is m.lam
    traj = integrate_variational(view, (0.3, 0.2), (0, 1))
    assert conformal_transport_check(view, traj).residual < 1e-6
    # the Liouville decomposition X = alpha*Z + X_H holds on the view too,
    # with -X_H its Hamiltonian part
    x = np.array([0.3, 0.2])
    assert np.allclose(view.X(x) + m.X_sym(x), view.alpha * np.array([0.0, -0.2]))
    mane = instantiate_model("mane", alpha=0.5, d=1, y0=0.5, y_sin=-0.5 / TWO_PI)
    assert mane.fiber_convex and not time_reversed_view(mane).fiber_convex


@pytest.mark.parametrize("name", ["circle-linear", "t2-pair-theta2"])
def test_time_reversed_view_satisfies_the_field_identity(name):
    view = time_reversed_view(instantiate_model(name))
    for x in sample_states(view, 50, np.random.default_rng(13)):
        assert field_identity_residual(view, x) <= 1e-12


def test_time_reversed_view_has_no_closed_form_flow():
    """Nothing reads a view's flow_exact; replace would otherwise keep the
    forward one."""
    m = instantiate_model("lee-twisted-t1t2")
    assert m.flow_exact is not None and time_reversed_view(m).flow_exact is None


# ---------------------------------------------------------------------------
# row independence (property test)
# ---------------------------------------------------------------------------

def _split_rows(run, batch, cut):
    head, tail = run(batch[:cut]), run(batch[cut:])
    return [np.concatenate([a, b]) for a, b in zip(head, tail)]


def _classify_rows(m, batch, T):
    out = classify_ensemble(m, batch, T)
    return (
        np.array([r.verdict for r in out]),
        np.array([[r.r_slope, r.omega_H_max, r.min_return_dist, r.r_abs_max] for r in out]),
    )


def _at_threshold(threshold, run):
    """run() with the fixed-step engine's blow-up threshold set to threshold."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows, "BLOWUP_THRESHOLD", threshold)
        return run()


ENGINE_CALLS = {
    "flow": (
        lambda: instantiate_model("circle-quadratic", alpha=1.0),
        lambda m, b: _at_threshold(1e3, lambda: flow_ensemble(m, b, 0.3, h=0.01)),
    ),
    "transport": (
        lambda: instantiate_model("circle-quadratic", alpha=1.0),
        lambda m, b: _at_threshold(
            1e3, lambda: transport_tangents(m, b, np.ones_like(b), 0.3, h=0.01)),
    ),
    "classify": (
        lambda: instantiate_model("t2-pair-theta2"),
        lambda m, b: _classify_rows(m, b, 0.3),
    ),
}

# a row that passes the threshold of 1e3 on the way: the Riccati escape at t ~ 0.17
BLOWUP_ROWS = {"flow": (0.0, -1.0), "transport": (0.0, -1.0)}


@pytest.mark.parametrize("call", sorted(ENGINE_CALLS))
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 6),
    data=st.data(),
)
def test_rows_are_independent(call, seed, n, data):
    build, run = ENGINE_CALLS[call]
    m = build()
    batch = sample_states(m, n, np.random.default_rng(seed), 0.5)
    cut = data.draw(st.integers(1, n - 1), label="cut")
    full = run(m, batch)
    for a, b in zip(full, _split_rows(lambda part: run(m, part), batch, cut)):
        if a.dtype.kind == "f":
            assert np.allclose(a, b, rtol=0.0, atol=1e-12, equal_nan=True)
        else:
            assert np.array_equal(a, b)
    # a poisoned row dies alone: NaN from the start, or a blow-up on the way
    at = data.draw(st.integers(0, n), label="at")
    poison = np.full(m.dim, np.nan)
    if call in BLOWUP_ROWS and data.draw(st.booleans(), label="blowup"):
        poison = np.array(BLOWUP_ROWS[call])
    poisoned = run(m, np.insert(batch, at, poison, axis=0))
    for a, b in zip(full, poisoned):
        assert np.array_equal(np.delete(b, at, axis=0), a)
    if call == "classify":
        assert poisoned[0][at] == "undetermined"
    else:
        assert not poisoned[-1][at]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 40), data=st.data())
def test_classify_rows_are_bit_identical_under_any_partition(seed, n, data):
    """The CLI hands each worker one block of starts, of a size set by the
    worker count; a row's result must not depend on its block."""
    m = instantiate_model("t2-pair-theta2")
    batch = sample_states(m, n, np.random.default_rng(seed), 1.0)
    cuts = sorted(data.draw(
        st.sets(st.integers(1, n - 1), max_size=min(5, n - 1)), label="cuts"))
    full = _classify_rows(m, batch, 0.3)
    parts = [_classify_rows(m, part, 0.3) for part in np.split(batch, cuts)]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), full[0])
    assert np.concatenate([p[1] for p in parts]).tobytes() == full[1].tobytes()


def _blowup_starts(m, n, rng):
    starts = sample_states(m, n, rng, 1.0)
    starts[:, 1] = rng.uniform(3.0, 10.0, n)  # r' = r^2 escapes before t = 1/3
    return starts


OBSERVER_CASES = {
    "t2-pair-theta2": (lambda: instantiate_model("t2-pair-theta2"), sample_states),
    "lee-twisted-t1t2": (lambda: instantiate_model("lee-twisted-t1t2"), sample_states),
    "riccati-pair": (riccati_pair, _blowup_starts),
}


@pytest.mark.parametrize("case", sorted(OBSERVER_CASES))
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 12),
    steps=st.integers(2, 400).filter(lambda k: k % 3 and k % 64),
)
@example(seed=1, n=3, steps=350)  # riccati-pair: all rows dead by step 334
def test_classify_rows_are_bit_identical_for_any_observer_block(case, seed, n, steps):
    """The observer reduces the steps in blocks capped in bytes.  A row's
    statistics must not depend on the block, also when the horizon is not a
    multiple of it or (riccati-pair) every row dies before the horizon."""
    build, starts_of = OBSERVER_CASES[case]
    m = build()
    starts = starts_of(m, n, np.random.default_rng(seed))
    step_bytes = 8 * n * (m.dim + 1)
    results = []
    for block in (1, 3, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics, "_OBSERVER_BLOCK_BYTES", block * step_bytes)
            verdicts, values = _classify_rows(m, starts, steps * 1e-3)
        results.append((verdicts.tolist(), values.tobytes()))
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("n", [1, 7, 100])
def test_classify_bits_do_not_depend_on_the_observer_block_size(n):
    """Blocks of one step, of the default 64 KiB and of the whole run give
    the same bits, and the regression slope is the r_t moment added up
    step by step in step order."""
    m = instantiate_model("t2-pair-theta2")
    starts = sample_states(m, n, np.random.default_rng(n), 1.0)
    T, steps = 0.5, 500
    step_bytes = 8 * n * (m.dim + 1)
    results = []
    for cap in (step_bytes, 64 * 1024, steps * step_bytes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics, "_OBSERVER_BLOCK_BYTES", cap)
            verdicts, values = _classify_rows(m, starts, T)
        results.append((verdicts.tolist(), values.tobytes()))
    assert results[1] == results[0] and results[2] == results[0]
    half = steps // 2
    ts = diagnostics._CLASSIFY_H * np.arange(steps + 1)[half:]
    ts_c = ts - ts.mean()
    moment = np.zeros(n)

    def add(k, Y, stepped):
        if k + 1 >= half:
            np.add(moment, ts_c[k + 1 - half] * Y[:, m.dim], out=moment)

    flow_ensemble(m, starts, T, diagnostics._CLASSIFY_H, racc=True, on_step=add)
    slopes = moment / float(np.sum(ts_c * ts_c))
    assert np.frombuffer(results[0][1]).reshape(n, 4)[:, 0].tobytes() == slopes.tobytes()


def screen_pair():
    """theta_i' = theta_i^2, r_0' = 0 and r_1' = r_1^2 on T^2 x R^2: an angle
    from 0.95 goes non-finite after t = 1/0.95, r_0 stays where it starts,
    and r_1 from 4 passes any threshold before t = 1/4."""
    def X(x, out=None):
        out = np.empty_like(x) if out is None else out
        out[..., :2] = x[..., :2] ** 2
        out[..., 2] = 0.0
        out[..., 3] = x[..., 3] ** 2
        return out

    return ModelSpec(name="screen-pair", spec=CoordinateSpec((ANGLE, ANGLE, LINE, LINE)),
                     kind=FLOW, params={}, X=X, Omega=lambda x: np.eye(4))


_THR = BLOWUP_THRESHOLD
_ABOVE = float(np.nextafter(_THR, np.inf))
# (rows, which die): each batch also holds rows that live to T = 2
SCREEN_CASES = {
    "second-line-column": ([[0.05, 0.1, 0.5, 4.0], [0.05, 0.1, 0.5, 0.25],
                            [0.1, 0.05, -0.5, 8.0], [0.1, 0.05, -0.5, -1.0]], [0, 2]),
    "non-finite-angle": ([[0.95, 0.1, 0.5, 0.25], [0.05, 0.1, 0.5, 0.25],
                          [0.1, 0.05, -0.5, -1.0]], [0]),
    "at-threshold": ([[0.05, 0.1, _THR, 0.25], [0.05, 0.1, -_THR, -1.0],
                      [0.1, 0.05, 0.5, 0.25]], []),
    "above-threshold": ([[0.05, 0.1, _ABOVE, 0.25], [0.05, 0.1, -_ABOVE, -1.0],
                         [0.1, 0.05, 0.5, 0.25]], [0, 1]),
}


@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
def test_the_screen_kills_each_row_as_it_would_alone(case):
    """The screen checks the whole line block at once: a row dies when a
    line coordinate passes the threshold (here only the second line
    column), |r| equal to it lives, and a non-finite angle kills a row
    too; every row of the batch is the bits of the row run alone."""
    m = screen_pair()
    rows, dying = SCREEN_CASES[case]
    starts = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = flow_ensemble(m, starts, 2.0, h=0.01)
        assert np.nonzero(~batch[1])[0].tolist() == dying
        for i, x in enumerate(starts):
            for a, b in zip(batch, flow_ensemble(m, x[None], 2.0, h=0.01)):
                assert a[i : i + 1].tobytes() == b.tobytes()
    final = batch[0]
    if case == "second-line-column":  # frozen at the first step past it
        assert np.all(np.abs(final[dying, 3]) > _THR) and np.isfinite(final[dying]).all()
    if case == "non-finite-angle":
        assert not np.all(np.isfinite(final[0, :2]))


def test_rows_dying_mid_run_step_as_each_row_alone():
    """Rows escape at different steps, so the engine steps ever fewer live
    rows in the leading rows of its stage buffers; each row's flow (with
    the Lee channel) and classification are the bits of the row run alone.
    A dead row's statistics stop at the step it died in: before, its late
    |H| was read from its frozen state while other rows still stepped (row
    1's was 2.18e17 in the batch and 0.0 alone)."""
    m = riccati_pair()
    starts = _blowup_starts(m, 24, np.random.default_rng(5))
    starts[::3, 1] = 0.5  # r(t) = 1 / (2 - t) stays bounded
    flowed, classes = (flow_ensemble(m, starts, 0.4, h=1e-3, racc=True),
                       _classify_rows(m, starts, 0.4))
    alive = flowed[1]
    assert alive[::3].all() and 2 < (~alive).sum() < len(starts) and not alive[1]
    assert classes[1][1, 1] == 0.0
    for i, x in enumerate(starts):
        for a, b in zip(flowed, flow_ensemble(m, x[None], 0.4, h=1e-3, racc=True)):
            assert a[i : i + 1].tobytes() == b.tobytes()
        verdict, values = _classify_rows(m, x[None], 0.4)
        assert verdict[0] == classes[0][i]
        assert values.tobytes() == classes[1][i : i + 1].tobytes()


def test_classify_verdicts_follow_the_thresholds(monkeypatch):
    """Each verdict is the per-row rule on the row's statistics: dissipative
    first, then conservative, else undetermined.  The thresholds sit at the
    statistics' medians, so every branch is taken."""
    m = instantiate_model("t2-pair-theta2")
    starts = sample_states(m, 40, np.random.default_rng(8), 1.0)
    stats = classify_ensemble(m, starts, 0.3)
    med = {f: float(np.median([getattr(c, f) for c in stats]))
           for f in ("r_slope", "omega_H_max", "min_return_dist", "r_abs_max")}
    for name, f in (("_DISSIPATIVE_SLOPE", "r_slope"), ("_DISSIPATIVE_H", "omega_H_max"),
                    ("_CONSERVATIVE_R", "r_abs_max"), ("_RETURN_DIST", "min_return_dist")):
        monkeypatch.setattr(diagnostics, name, med[f])
    out = classify_ensemble(m, starts, 0.3)
    expected = [
        "dissipative" if c.r_slope <= med["r_slope"] and c.omega_H_max <= med["omega_H_max"]
        else "conservative" if (c.r_abs_max <= med["r_abs_max"]
                                and c.min_return_dist <= med["min_return_dist"])
        else "undetermined"
        for c in stats
    ]
    assert [c.verdict for c in out] == expected
    assert set(expected) == {"dissipative", "conservative", "undetermined"}
    assert [dataclasses.replace(c, verdict="") for c in out] == [
        dataclasses.replace(c, verdict="") for c in stats]


def test_classify_rejects_non_positive_horizon():
    m = instantiate_model("t2-pair-theta2")
    with pytest.raises(ParamError):
        classify_ensemble(m, np.array([0.1, 0.2])[None], 0.0)[0]
