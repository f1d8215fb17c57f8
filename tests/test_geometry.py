import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from csdyn.errors import DegenerateFormError, DimensionMismatchError, OpenLoopError
from csdyn.geometry import (
    ANGLE,
    LINE,
    CoordinateSpec,
    _sum_last,
    conformality_ratio_estimate,
    eval_two_form,
    fd_exterior_derivative_one_form,
    fd_exterior_derivative_two_form,
    fd_gradient,
    loop_integral,
    pullback_residual,
    torus_distance,
    wedge_one_two,
)
from csdyn.models import NONEXACT_RATIO, GOLDEN_CONJ, instantiate_model, sample_states

CANONICAL = np.array([[0.0, 1.0], [-1.0, 0.0]])


def wedge_expand(terms, dim):
    """Independent oracle: assemble sum of c * dx_i ^ dx_j into a matrix."""
    C = np.zeros((dim, dim))
    for (i, j), c in terms:
        C[i, j] += c
        C[j, i] -= c
    return C


def test_eval_two_form_canonical_pairing():
    assert eval_two_form(CANONICAL, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


def test_eval_two_form_vanishes_on_equal_arguments():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.standard_normal(2)
        assert eval_two_form(CANONICAL, u, u) == 0.0


def test_eval_two_form_exactly_antisymmetric():
    rng = np.random.default_rng(1)
    m = instantiate_model("nonexact-linear")
    omega = np.asarray(m.Omega(np.zeros(6)))
    for _ in range(50):
        u, v = rng.standard_normal((2, 6))
        assert eval_two_form(omega, u, v) == -eval_two_form(omega, v, u)


def test_eval_two_form_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        eval_two_form(CANONICAL, [1.0, 0.0, 0.0], [0.0, 1.0])


def test_six_dim_two_form_matches_symbolic_expansion():
    # expand Omega_1 + Omega_2 by hand:
    #   (dt2 - p dt1)^(dt4 - p dt3) + (dt1 + p dt2)^dr1 + (dt3 + p dt4)^dr3
    p = GOLDEN_CONJ
    oracle = wedge_expand(
        [
            ((1, 3), 1.0), ((1, 2), -p), ((0, 3), -p), ((0, 2), p * p),
            ((0, 4), 1.0), ((1, 4), p), ((2, 5), 1.0), ((3, 5), p),
        ],
        6,
    )
    m = instantiate_model("nonexact-linear")
    omega = np.asarray(m.Omega(np.zeros(6)))
    assert np.array_equal(omega, oracle)
    e1, e2 = np.eye(6)[0], np.eye(6)[1]
    assert eval_two_form(omega, e1, e2) == oracle[0, 1]
    assert abs(np.linalg.det(omega)) > 1.0  # nondegenerate


def test_conformality_ratio_identity():
    ratio, residual = conformality_ratio_estimate(np.eye(2), CANONICAL, CANONICAL)
    assert ratio == pytest.approx(1.0)
    assert residual == 0.0


def test_conformality_ratio_nonexact_map():
    m = instantiate_model("nonexact-linear")
    xs = sample_states(m, 10, np.random.default_rng(2))
    # Df and Omega are constant: one matrix each, broadcast against the stack
    jac = np.broadcast_to(m.Df(xs[0]), (10, 6, 6))
    ratios, residuals = conformality_ratio_estimate(jac, m.Omega(xs), m.Omega(m.f(xs)))
    assert ratios.shape == residuals.shape == (10,)
    for x, ratio, residual in zip(xs, ratios, residuals):
        omega = np.asarray(m.Omega(x))
        single = conformality_ratio_estimate(
            np.asarray(m.Df(x)), omega, np.asarray(m.Omega(m.f(x)))
        )
        assert np.array(single).tobytes() == np.array([ratio, residual]).tobytes()
        assert abs(ratio - NONEXACT_RATIO) < 1e-12
        assert residual < 1e-12


def test_conformality_ratio_time_one_tangent_map():
    from csdyn.flows import integrate_variational

    m = instantiate_model("circle-linear", alpha=1.0)
    traj = integrate_variational(m, np.array([0.37, 0.41]), (0.0, 1.0), samples=2)
    ratio, residual = conformality_ratio_estimate(
        traj.final_frame,
        np.asarray(m.Omega(traj.states[0])),
        np.asarray(m.Omega(traj.final_state)),
    )
    assert abs(ratio - math.exp(-1.0)) < 1e-8
    assert residual < 1e-8


def test_conformality_ratio_zero_form_rejected():
    with pytest.raises(DegenerateFormError):
        conformality_ratio_estimate(np.eye(2), np.zeros((2, 2)), CANONICAL)
    with pytest.raises(DegenerateFormError):  # one zero form in a stack
        omega = np.stack([CANONICAL, np.zeros((2, 2))])
        conformality_ratio_estimate(np.eye(2), omega, CANONICAL)


def test_pullback_residual_identity():
    assert pullback_residual(np.eye(2), CANONICAL, CANONICAL, 1.0) == 0.0


def test_pullback_residual_radial_contraction():
    a = 0.5
    J = np.diag([1.0, a])
    assert pullback_residual(J, CANONICAL, CANONICAL, a) == 0.0


def test_pullback_residual_requires_positive_factor():
    with pytest.raises(ValueError):
        pullback_residual(np.eye(2), CANONICAL, CANONICAL, 0.0)


def _stack_args(constant):
    """(jac, omega_x, omega_fx) as (3, 4, 4, 4) stacks: random Jacobians and
    lee-twisted-t1t2's state-dependent form, the one named by `constant` a
    single matrix instead."""
    rng = np.random.default_rng(5)
    m = instantiate_model("lee-twisted-t1t2")
    xs = sample_states(m, 12, rng).reshape(3, 4, 4)
    args = [rng.standard_normal((3, 4, 4, 4)), m.Omega(xs), m.Omega(xs[..., ::-1])]
    if constant is not None:
        args[constant] = args[constant][1, 2]
    return args


@pytest.mark.parametrize("constant", [None, 0, 1, 2])
@pytest.mark.parametrize("kernel", [
    conformality_ratio_estimate,
    lambda jac, omega_x, omega_fx: pullback_residual(jac, omega_x, omega_fx, 0.7),
], ids=["ratio", "pullback"])
def test_matrix_kernels_of_a_stack_are_the_per_matrix_calls(kernel, constant):
    args = _stack_args(constant)
    batch = np.array(kernel(*args))
    assert batch.shape[-2:] == (3, 4)
    for idx in np.ndindex(3, 4):
        single = kernel(*(a if a.ndim == 2 else a[idx] for a in args))
        assert all(isinstance(v, float) for v in np.atleast_1d(single))
        assert np.array(single).tobytes() == batch[(...,) + idx].tobytes()


def test_matrix_kernels_reject_mismatched_stacks():
    for args in ((np.eye(2), CANONICAL, np.eye(3)),
                 (np.ones((3, 2, 3)), CANONICAL, CANONICAL)):
        with pytest.raises(DimensionMismatchError):
            conformality_ratio_estimate(*args)
        with pytest.raises(DimensionMismatchError):
            pullback_residual(*args, 1.0)


def _fd_cases():
    """(kernel, states (2, 3, dim)) pairs; circle-linear's and
    damped-mechanical's forms are constant, and so is lee-twisted-t1t2's
    eta, but not its Omega."""
    rng = np.random.default_rng(8)
    circle = instantiate_model("circle-linear", alpha=1.0)
    damped = instantiate_model("damped-mechanical", alpha=0.5, d=2, v_cos=(1.0, 1.0))
    lee = instantiate_model("lee-twisted-t1t2")
    cs, ds = (sample_states(m, 6, rng, 1.0).reshape(2, 3, m.dim) for m in (circle, damped))
    ls = sample_states(lee, 6, rng).reshape(2, 3, 4)
    return [
        (lambda x: fd_gradient(circle.H, x), cs),
        (lambda x: fd_gradient(damped.H, x), ds),
        (lambda x: fd_exterior_derivative_one_form(circle.lam, x), cs),
        (lambda x: fd_exterior_derivative_one_form(damped.lam, x), ds),
        (lambda x: fd_exterior_derivative_two_form(lee.Omega, x), ls),
        (lambda x: fd_exterior_derivative_two_form(damped.Omega, x), ds),
        (lambda x: wedge_one_two(lee.eta(x), lee.Omega(x)), ls),
        (lambda x: wedge_one_two(x, damped.Omega(x)), ls),  # a per-state eta
    ]


@pytest.mark.parametrize("case", range(8))
def test_fd_kernels_of_a_batch_are_the_per_state_calls(case):
    kernel, xs = _fd_cases()[case]
    batch = kernel(xs)
    for idx in np.ndindex(2, 3):
        single = kernel(xs[idx])
        if isinstance(batch, dict):  # the three-form components
            assert list(single) == list(batch)
            for key, value in single.items():
                assert isinstance(value, float)
                assert batch[key].shape == (2, 3)
                assert np.float64(value).tobytes() == batch[key][idx].tobytes()
        else:
            assert single.tobytes() == batch[idx].tobytes()



SPEC_TR = CoordinateSpec((ANGLE, LINE))


def r_dtheta(pts):
    out = np.zeros_like(pts)
    out[..., 0] = pts[..., 1]
    return out


def circle_loop(n, r=1.0):
    s = np.linspace(0.0, 1.0, n + 1)
    return np.stack([np.mod(s, 1.0), np.full_like(s, r)], axis=1)


def test_loop_integral_unit_circle():
    assert loop_integral(SPEC_TR, r_dtheta, circle_loop(2048)) == pytest.approx(
        1.0, abs=1e-10
    )
    # a constant form, one covector for every point: d(theta) winds once
    dtheta = lambda pts: np.array([1.0, 0.0])
    assert loop_integral(SPEC_TR, dtheta, circle_loop(64)) == pytest.approx(1.0, abs=1e-12)


def test_loop_integral_scaled_circle():
    assert loop_integral(SPEC_TR, r_dtheta, circle_loop(2048, r=2.5)) == pytest.approx(
        2.5, abs=1e-10
    )


def test_loop_integral_constant_loop_is_zero():
    loop = np.tile(np.array([0.3, 1.7]), (32, 1))
    assert loop_integral(SPEC_TR, r_dtheta, loop) == 0.0


def test_loop_integral_second_order_convergence():
    # oracle loop with closed-form circulation 1 + 0.03*pi
    def make(n):
        s = np.linspace(0.0, 1.0, n + 1)
        return np.stack(
            [np.mod(s + 0.1 * np.sin(2 * np.pi * s), 1.0),
             1.0 + 0.3 * np.cos(2 * np.pi * s)],
            axis=1,
        )

    exact = 1.0 + 0.03 * math.pi
    err_n = abs(loop_integral(SPEC_TR, r_dtheta, make(128)) - exact)
    err_2n = abs(loop_integral(SPEC_TR, r_dtheta, make(256)) - exact)
    assert err_2n <= 0.5 * err_n


def test_loop_integral_rejects_open_loop():
    pts = np.stack([np.linspace(0.0, 0.7, 32), np.ones(32)], axis=1)
    with pytest.raises(OpenLoopError):
        loop_integral(SPEC_TR, r_dtheta, pts)


def test_loop_integral_rejects_sparse_loop():
    with pytest.raises(OpenLoopError):
        loop_integral(SPEC_TR, r_dtheta, circle_loop(8))


def test_torus_distance_wraps():
    spec = CoordinateSpec((ANGLE, ANGLE))
    assert torus_distance(spec, [0.95, 0.0], [0.05, 0.0]) == pytest.approx(0.1)


def test_torus_distance_zero_iff_equal():
    spec = CoordinateSpec((ANGLE, LINE))
    x = np.array([0.4, -1.2])
    assert torus_distance(spec, x, x) == 0.0
    assert torus_distance(spec, x, x + np.array([0.0, 1e-9])) > 0.0


def test_torus_distance_mixed_axes():
    spec = CoordinateSpec((ANGLE, LINE))
    d = torus_distance(spec, [0.0, 1.0], [0.5, -1.0])
    assert d == pytest.approx(math.sqrt(0.25 + 4.0), abs=1e-12)


def test_torus_distance_triangle_inequality():
    spec = CoordinateSpec((ANGLE, ANGLE, LINE, LINE))
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x, y, z = rng.uniform(-2.0, 2.0, size=(3, 4))
        assert torus_distance(spec, x, z) <= (
            torus_distance(spec, x, y) + torus_distance(spec, y, z) + 1e-12
        )


# ---------------------------------------------------------------------------
# wrap and delta identities (property tests)
# ---------------------------------------------------------------------------

# angles as one run (a slice view) and split (a gathered copy)
WRAP_SPECS = (CoordinateSpec((ANGLE, ANGLE, LINE, LINE)),
              CoordinateSpec((ANGLE, LINE, LINE, ANGLE)))
_COORD = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_STATE = st.lists(_COORD, min_size=4, max_size=4)


def _near_integer(v, scale):
    """|v - round(v)| within the rounding of numbers of size scale."""
    return np.all(np.abs(v - np.round(v)) <= 8 * np.finfo(float).eps * (1.0 + scale))


@settings(max_examples=300, deadline=None)
@given(x=_STATE)
@example(x=[-1e-20, -2.0**-54, 7.0, -0.0])  # mod(-tiny, 1) rounds to 1.0
@example(x=[-0.0, 0.0, -0.0, -1e-300])
@example(x=[1.0, -1.0, 0.5, 1e6 + 0.5])
def test_wrap_identities(x):
    x = np.array(x)
    for spec in WRAP_SPECS:
        a, lines = spec.angle_mask, ~spec.angle_mask
        w = spec.wrap(x)
        assert w[lines].tobytes() == x[lines].tobytes()
        assert np.all((0.0 <= w[a]) & (w[a] < 1.0))
        assert _near_integer(x[a] - w[a], np.abs(x[a]))
        assert spec.wrap(w).tobytes() == w.tobytes()
        batch = spec.wrap(np.stack([x, w, -x]))
        assert batch[0].tobytes() == w.tobytes()
        assert batch[1].tobytes() == w.tobytes()
        assert batch[2].tobytes() == spec.wrap(-x).tobytes()


@settings(max_examples=300, deadline=None)
@given(x=_STATE, y=_STATE)
@example(x=[0.0, 0.0, 0.0, 0.0], y=[0.5, -0.5, 1.5, 2.5])  # the half-turn is -0.5
@example(x=[0.25, -1e-20, 1.0, 0.0], y=[0.75, 1e-20, -1.0, -0.0])
def test_delta_identities(x, y):
    x, y = np.array(x), np.array(y)
    for spec in WRAP_SPECS:
        a, lines = spec.angle_mask, ~spec.angle_mask
        d = spec.delta(x, y)
        assert d[lines].tobytes() == (y - x)[lines].tobytes()
        assert np.all((-0.5 <= d[a]) & (d[a] < 0.5))
        scale = np.abs(x[a]) + np.abs(y[a])
        assert _near_integer((y - x)[a] - d[a], scale)
        assert not spec.delta(x, x).any()
        back = spec.delta(y, x)[a]
        half = d[a] == -0.5
        assert np.all(np.abs(back[~half] + d[a][~half]) <= 8 * np.finfo(float).eps * (1.0 + scale[~half]))
        dist = torus_distance(spec, x, y)  # of single states: a numpy float, as np.sum gives
        assert type(dist) is np.float64
        assert dist.tobytes() == np.sqrt(np.sum(d * d)).tobytes()


@settings(max_examples=300, deadline=None)
@given(x=_STATE, y=_STATE)
@example(x=[0.49, 0.1, 0.0, -0.49], y=[-0.49, 0.3, 3.0, 0.49])  # steps across +-0.5
@example(x=[0.25, -0.0, 1.0, 0.0], y=[0.75, 0.0, -1.0, -0.5])   # half turns
@example(x=[0.0, 0.3, 0.0, 0.0], y=[-0.0, 0.0, -0.0, 0.0])     # a -0.0 step stays -0.0
def test_step_identities(x, y):
    x, y = np.array(x), np.array(y)
    for spec in WRAP_SPECS:
        a, lines = spec.angle_mask, ~spec.angle_mask
        s = spec.step(x, y)
        assert s[lines].tobytes() == (y - x)[lines].tobytes()
        assert np.all(np.abs(s[a]) <= 0.5)
        assert _near_integer((y - x)[a] - s[a], np.abs(x[a]) + np.abs(y[a]))
        short = a & (np.abs(y - x) < 0.5)
        assert s[short].tobytes() == (y - x)[short].tobytes()
        assert spec.step(np.stack([x, y]), np.stack([y, x])).tobytes() == np.stack(
            [s, spec.step(y, x)]).tobytes()


def test_step_keeps_a_negative_zero():
    """b - a is -0.0 only for b = -0.0, a = +0.0; its nearest integer rint
    is -0.0 too, which before turned the step into +0.0."""
    for spec in WRAP_SPECS:
        a, b = np.zeros(4), np.array([-0.0, 0.0, -0.0, 0.0])
        s = spec.step(a, b)
        assert s.tobytes() == (b - a).tobytes()
        assert np.signbit(s).tolist() == [True, False, True, False]
        assert spec.step(b, a).tobytes() == np.zeros(4).tobytes()


# ---------------------------------------------------------------------------
# the wrap and the short-axis sums match the numpy calls they replace, bit for bit
# ---------------------------------------------------------------------------

def _mod_wrap(spec, d, shift):
    """The angle wrap by np.mod: mod(d + shift, 1) - shift on the angle axes,
    with shift 0's 1.0 (from an angle just below 0) read as 0.0."""
    d = np.array(d, dtype=float)
    a = spec.angle_mask
    v = np.mod(d[..., a] + shift, 1.0) - shift
    if not shift:
        v[v == 1.0] = 0.0
    d[..., a] = v
    return d


# every float, NaN and the infinities included, with the edges of the wrap
# drawn often: signed zeros, +-2**-54, half turns and integers up to 1e15
_ANY_COORD = st.one_of(
    st.floats(width=64),
    st.sampled_from([-0.0, 0.0, 2.0**-54, -(2.0**-54), 0.5, -0.5, 1.5, -2.5, 1.0, -1.0, 7.0,
                     1e15, -1e15, 1e15 + 0.5, math.inf, -math.inf, math.nan]),
    st.integers(-10**15, 10**15).map(float),
    st.floats(-1e15, 1e15),
)


@settings(max_examples=400, deadline=None)
@given(x=st.lists(_ANY_COORD, min_size=4, max_size=4),
       y=st.lists(_ANY_COORD, min_size=4, max_size=4))
@example(x=[-0.0, -(2.0**-54), -1e-300, 1e15 + 0.5], y=[0.0] * 4)
@example(x=[0.5, -0.5, 0.0, 1.5], y=[0.0, 0.0, -0.0, -0.0])  # half turns after the shift
@example(x=[math.inf, -math.inf, math.nan, -0.0], y=[1.0, -1.0, 0.0, math.inf])
def test_floor_wrap_matches_np_mod_bit_for_bit(x, y):
    x, y = np.array(x), np.array(y)
    with np.errstate(invalid="ignore"):
        for spec in WRAP_SPECS:
            for batch in (x, np.stack([x, y, -x])):
                assert spec.wrap(batch).tobytes() == _mod_wrap(spec, batch, 0.0).tobytes()
            d = np.subtract(y, x)
            assert spec.delta(x, y).tobytes() == _mod_wrap(spec, d, 0.5).tobytes()
            pair = spec.delta(np.stack([x, y]), np.stack([y, x]))
            assert pair.tobytes() == _mod_wrap(spec, np.stack([d, x - y]), 0.5).tobytes()


_SUM_ENTRY = st.one_of(
    st.floats(width=64),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 2.0**-1074]),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), rows=st.integers(1, 12))
def test_sum_last_matches_np_sum_bit_for_bit(data, n, rows):
    a = data.draw(arrays(np.float64, (rows, n), elements=_SUM_ENTRY))
    a[0] = -0.0  # a row of -0.0: np.sum gives +0.0
    if rows > 1:
        a[1, data.draw(st.integers(0, n - 1))] = data.draw(
            st.sampled_from([math.inf, -math.inf, math.nan]))
    with np.errstate(invalid="ignore", over="ignore"):
        for batch in (a, np.asfortranarray(a), a[::-1], a[:, ::-1]):
            assert _sum_last(batch).tobytes() == np.sum(batch, axis=-1).tobytes()
        blocks = np.asfortranarray(np.stack([a, -a]))  # (2, rows, n), column-major
        assert _sum_last(blocks).tobytes() == np.sum(blocks, axis=-1).tobytes()
        for row in a:  # a single state sums to a numpy float, as np.sum's does
            got, want = _sum_last(row), np.sum(row)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
