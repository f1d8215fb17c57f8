import dataclasses
import json
import math

import numpy as np
import pytest

from csdyn import diagnostics
from csdyn.diagnostics import (
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
)
from csdyn.certificates import RETURN_THRESHOLD
from csdyn.errors import (
    BlowUpError,
    ConvergenceError,
    DimensionMismatchError,
    KindError,
    NonHyperbolicError,
    ParamError,
    StructureError,
)
from csdyn.flows import (
    SectionSpec,
    Trajectory,
    flow_ensemble,
    integrate_flow,
    integrate_variational,
    time_t_map,
)
from csdyn.geometry import conformality_ratio_estimate, torus_distance
from csdyn.models import instantiate_model, sample_states

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi**2


# ---------------------------------------------------------------------------
# check results
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("residual, tolerance, negative, verdict", [
    (0.0, 0.0, False, "PASS"),
    (-0.0, 0.0, False, "PASS"),
    (5e-324, 0.0, False, "FAIL"),
    (1e-7, 1e-6, False, "PASS"),
    (1e-6, 1e-6, False, "PASS"),
    (math.nan, 1.0, False, "FAIL"),
    (math.nan, math.inf, False, "FAIL"),
    (math.inf, 1.0, False, "FAIL"),
    (math.inf, math.inf, False, "PASS"),
    (1.0, math.nan, False, "FAIL"),
    (0.0, 0.0, True, "PASS-NEGATIVE-CONTROL"),
    (1e-7, 1e-6, True, "PASS-NEGATIVE-CONTROL"),
    (2e-6, 1e-6, True, "FAIL"),
    (math.nan, 1e-6, True, "FAIL"),
    (math.inf, 0.0, True, "FAIL"),
])
def test_check_result_decides_its_verdict(residual, tolerance, negative, verdict):
    r = CheckResult("c", "m", {}, np.float64(residual), tolerance, "tag", negative=negative)
    assert r.verdict == verdict
    assert r.passed == verdict.startswith("PASS")
    assert type(r.residual) is float and type(r.tolerance) is float
    assert r.to_json()["verdict"] == verdict


def test_check_result_normalizes_its_fields():
    params = {"a": 1.0}
    r = CheckResult("c", "m", params, 1, 2, "tag")
    params["a"] = 2.0
    assert r.params == {"a": 1.0}
    assert r.details == {} and r.details is not CheckResult("c", "m", {}, 0, 0, "t").details
    assert list(r.to_json()) == ["check", "model", "params", "residual", "tolerance",
                                 "verdict", "provenance_tag", "details"]
    with pytest.raises(TypeError):
        CheckResult("c", "m", {}, 0.0, 1.0, "tag", verdict="PASS")


def test_check_result_json_writes_complex_entries_as_pairs():
    """Complex multipliers (an ndarray, as cert_floquet_pairing reports them)
    become [re, im] pairs, as the periodic operation writes them; before,
    json.dumps raised on the complex entries tolist() left.  Real arrays
    keep their tolist() form."""
    real = np.array([[0.5, -0.0], [math.inf, 3.0]])
    details = {"multipliers": np.array([1.0 + 2.0j, 0.25 - 0.0j]), "real": real,
               "scalar": np.complex128(-1.5j), "nested": [np.float64(0.1), (1j,)]}
    out = CheckResult("c", "m", {}, 0.0, 1.0, "tag", details=details).to_json()["details"]
    assert out == {"multipliers": [[1.0, 2.0], [0.25, -0.0]], "real": real.tolist(),
                   "scalar": [-0.0, -1.5], "nested": [0.1, [[0.0, 1.0]]]}
    assert json.dumps(out["real"]) == json.dumps(real.tolist())
    json.dumps(out)


# ---------------------------------------------------------------------------
# rotation numbers
# ---------------------------------------------------------------------------

def test_rotation_number_lee_flow_exactly_zero():
    m = instantiate_model("lee-twisted-t1t2")
    traj = integrate_flow(m, np.array([0.1, 0.2, 0.3, 0.4]), (0.0, 5.0), samples=51)
    r_T, mean = rotation_number(traj)
    assert r_T == 0.0
    assert mean == 0.0


def test_rotation_number_theta2_circle():
    m = instantiate_model("t2-pair-theta2")
    traj = integrate_flow(m, np.array([0.0, 0.0]), (0.0, 1.0 / TWO_PI), samples=33)
    r_T, mean = rotation_number(traj)
    assert abs(r_T + TWO_PI) < 1e-8
    assert abs(mean + FOUR_PI_SQ) < 1e-6


def test_rotation_number_requires_eta_and_length():
    m = instantiate_model("circle-linear", alpha=1.0)
    traj = integrate_flow(m, np.array([0.1, 0.2]), (0.0, 1.0), samples=11)
    with pytest.raises(StructureError):
        rotation_number(traj)
    degenerate = Trajectory(
        times=np.array([0.0]), states=np.zeros((1, 2)), r_accum=np.zeros(1)
    )
    with pytest.raises(ParamError):
        rotation_number(degenerate)


# ---------------------------------------------------------------------------
# conformal transport
# ---------------------------------------------------------------------------

def test_transport_check_theta2():
    m = instantiate_model("t2-pair-theta2")
    traj = integrate_variational(m, np.array([0.1, 0.2]), (0.0, 1.0), samples=21)
    res = conformal_transport_check(m, traj)
    assert res.passed
    assert res.details["omega_residual"] < 1e-6
    assert res.details["h_residual"] < 1e-6


def test_transport_check_time_zero_is_exact():
    m = instantiate_model("t2-pair-theta2")
    traj = integrate_variational(m, np.array([0.1, 0.2]), (0.0, 1.0), samples=2)
    clipped = Trajectory(
        times=traj.times[:1], states=traj.states[:1], frames=traj.frames[:1],
        r_accum=traj.r_accum[:1],
    )
    res = conformal_transport_check(m, clipped)
    assert res.residual == 0.0


def test_transport_check_circle_linear():
    m = instantiate_model("circle-linear", alpha=1.0)
    traj = integrate_variational(m, np.array([0.13, 0.7]), (0.0, 1.0), samples=21)
    res = conformal_transport_check(m, traj)
    assert res.details["omega_residual"] < 1e-7


def _start_and_sample(traj, i):
    """The two-sample trajectory of traj's start and its sample i."""
    keep = [0, i]
    return Trajectory(
        times=traj.times[keep], states=traj.states[keep], frames=traj.frames[keep],
        r_accum=None if traj.r_accum is None else traj.r_accum[keep],
    )


@pytest.mark.parametrize("name", ["circle-linear", "t2-pair-theta2"])
def test_transport_check_is_the_worst_of_its_samples(name):
    m = instantiate_model(name)
    traj = integrate_variational(m, np.array([0.3, 0.2]), (0.0, 1.0), samples=21)
    whole = conformal_transport_check(m, traj).details
    alone = [conformal_transport_check(m, _start_and_sample(traj, i)).details
             for i in range(len(traj.times))]
    for key in ("omega_residual", "h_residual"):
        assert type(whole[key]) is float
        assert whole[key] == max(d[key] for d in alone)


@pytest.mark.parametrize("span", [(1.0, 0.0), (0.0, -1.0)])
@pytest.mark.parametrize("name", ["circle-linear", "t2-pair-theta2"])
def test_transport_check_measures_a_backward_run_from_its_start(name, span):
    # a backward run starts at its last sample, where its frame is the identity
    m = instantiate_model(name)
    traj = integrate_variational(m, np.array([0.3, 0.2]), span, samples=21)
    assert traj.backward
    res = conformal_transport_check(m, traj)
    assert res.passed, res.details
    assert res.details["omega_residual"] < 1e-8


@pytest.mark.parametrize("name", ["circle-linear", "t2-pair-theta2"])
def test_transport_check_fails_a_nan_h_residual_after_a_finite_omega_residual(name):
    # before, max(omega_res, nan) kept the finite omega residual: a PASS
    m = instantiate_model(name)
    traj = integrate_variational(m, np.array([0.3, 0.2]), (0.0, 1.0), samples=21)
    nan_h = dataclasses.replace(m, H=lambda x: np.full(np.shape(x)[:-1], np.nan))
    res = conformal_transport_check(nan_h, traj)
    assert math.isfinite(res.details["omega_residual"])
    assert math.isnan(res.details["h_residual"])
    assert math.isnan(res.residual) and res.verdict == "FAIL"


def test_transport_check_needs_frames():
    m = instantiate_model("circle-linear", alpha=1.0)
    traj = integrate_flow(m, np.array([0.13, 0.7]), (0.0, 1.0), samples=5)
    with pytest.raises(StructureError):
        conformal_transport_check(m, traj)


@pytest.mark.parametrize("name,params", [
    ("nonexact-linear", {}),
    ("radial-contraction", {"a": 0.37}),
    ("shear-contraction", {"a": 0.37}),
])
def test_map_conformality_ratios_are_the_per_point_fits(name, params):
    # Df = lambda x: df and a constant Omega on every registered map
    m = instantiate_model(name, params)
    pts = sample_states(m, 20, np.random.default_rng(4))
    ratios, residuals = map_conformality_ratios(m, pts)
    assert ratios.shape == residuals.shape == (20,)
    single = [conformality_ratio_estimate(m.Df(x), m.Omega(x), m.Omega(m.f(x))) for x in pts]
    assert all(isinstance(v, float) for fit in single for v in fit)
    assert np.stack([ratios, residuals], axis=1).tobytes() == np.array(single).tobytes()
    assert np.max(np.abs(ratios - m.ratio_a)) < 1e-12


# ---------------------------------------------------------------------------
# Lyapunov spectra
# ---------------------------------------------------------------------------

def test_lyapunov_damped_pendulum_pairing():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    res = lyapunov_spectrum(m, np.array([0.3, 0.1]), T=200.0)
    assert abs(float(np.sum(res.exponents)) + 0.5) < 1e-3
    assert res.pairing_defect < 1e-3
    # individual QR exponents of the degenerate focus pair split by O(1/T)
    assert np.max(np.abs(res.exponents + 0.25)) < 2e-2
    assert res.converged


def test_lyapunov_damped_pendulum_sink_closed_form():
    """Closed-form oracle: at the sink (q, p) = (0.5, 0) the linearisation
    is q'' + alpha q' + 4 pi^2 q = 0, a focus with eigenvalues
    -alpha/2 +- i omega, so both exponents tend to -alpha/2 = -0.25 as T
    grows, and they sum to the trace -alpha at every T (Liouville)."""
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    sink = np.array([0.5, 0.0])
    gaps = []
    for T in (50.0, 200.0):
        res = lyapunov_spectrum(m, sink, T=T)
        assert abs(float(np.sum(res.exponents)) + 0.5) < 1e-8
        gaps.append(float(np.max(np.abs(res.exponents + 0.25))))
    assert gaps[1] < gaps[0] < 0.05


def test_lyapunov_map_version_radial():
    m = instantiate_model("radial-contraction", a=0.5)
    res = lyapunov_spectrum(m, np.array([0.3, 1.0]), T=50)
    assert np.allclose(res.exponents, [0.0, math.log(0.5)], atol=1e-12)
    assert res.pairing_defect < 1e-12


def test_lyapunov_theta1_parabolic_orbit():
    # both exponents vanish; finite-T Benettin sees the ln(c T)/T shear ghost,
    # the machine-precision version of this statement is the {1, 1} multiplier
    # pair certified in the periodic-orbit tests
    m = instantiate_model("t2-pair-theta1")
    res = lyapunov_spectrum(m, np.array([0.0, 0.0]), T=200.0)
    assert res.pairing_defect < 1e-6
    assert np.max(np.abs(res.exponents)) < 5e-2


@pytest.mark.parametrize("exponents", [[1.0, 0.5, np.nan, -1.5], [np.inf, 0.5, -1.0, -np.inf]])
def test_a_nan_exponent_sum_gives_a_nan_pairing_defect(exponents):
    with np.errstate(invalid="ignore"):
        assert math.isnan(diagnostics._pairing_defect(exponents, -1.0))


def _sequential_benettin(m, x0, T):
    """The flow's and the map's Benettin loops as each was written on its own:
    a flow takes legs of 0.5 and a map int(T) steps."""
    n = m.dim
    Q, sums = np.eye(n), np.zeros(n)
    if m.kind == "map":
        n_legs, dt = int(T), 1
        xs = [np.asarray(x0, dtype=float)]
        for _ in range(n_legs - 1):
            xs.append(m.f(xs[-1]))
    else:
        n_legs = max(1, int(round(T / 0.5)))
        dt = T / n_legs
        x = np.asarray(x0, dtype=float)
    history = np.zeros((n_legs, n))
    for k in range(n_legs):
        if m.kind == "map":
            F = np.asarray(m.Df(xs[k]), dtype=float) @ Q
        else:
            traj = integrate_variational(m, x, (0.0, dt), samples=2, initial_frame=Q)
            F, x = traj.final_frame, traj.final_state
        Q, R = np.linalg.qr(F)
        signs = np.sign(np.diag(R))
        signs[signs == 0] = 1.0
        Q = Q * signs
        sums += np.log(np.abs(np.diag(R)))
        history[k] = sums / ((k + 1) * dt)
    return np.sort(sums / (n_legs if m.kind == "map" else T))[::-1], history


@pytest.mark.parametrize("name,params,x0,T", [
    ("damped-mechanical", {"alpha": 0.5, "d": 1, "v_cos": 1.0}, (0.3, 0.1), 5.0),
    # legs of 5.3 / 11, a length that is not a binary fraction
    ("damped-mechanical", {"alpha": 0.5, "d": 1, "v_cos": 1.0}, (0.3, 0.1), 5.3),
    ("nonexact-linear", {}, (0.1, 0.2, 0.3, 0.4, 0.5, -0.6), 20),
])
def test_lyapunov_spectrum_is_the_sequential_loop_bit_for_bit(name, params, x0, T):
    m = instantiate_model(name, params)
    res = lyapunov_spectrum(m, np.array(x0), T=T)
    exponents, history = _sequential_benettin(m, x0, T)
    assert res.exponents.tobytes() == exponents.tobytes()
    assert res.history.tobytes() == history.tobytes()


@pytest.mark.parametrize("T", [0, 0.5])
def test_map_lyapunov_needs_one_step(T):
    m = instantiate_model("shear-contraction", a=0.5)
    with pytest.raises(ParamError):
        lyapunov_spectrum(m, np.array([0.1, 0.2]), T=T)


@pytest.mark.parametrize("T", [-20.0, -0.25, 0.0, -0.0, math.nan])
def test_flow_lyapunov_needs_a_positive_horizon(T):
    """Before, T = -20 ran one backward leg of length 20 and reported
    converged exponents (0.135, -0.635)."""
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    with pytest.raises(ParamError, match="T > 0"):
        lyapunov_spectrum(m, np.array([0.3, 0.1]), T=T)


# ---------------------------------------------------------------------------
# periodic orbits
# ---------------------------------------------------------------------------

def test_periodic_orbit_attracting_circle():
    m = instantiate_model("t2-pair-theta2")
    sec = SectionSpec(axis=0, offset=0.0, direction=1)
    po = find_periodic_orbit(m, sec, np.array([0.0, 0.01]))
    assert abs(po.period - 1.0 / TWO_PI) < 1e-8
    mults = np.sort(np.abs(po.multipliers))
    assert abs(mults[0] - math.exp(-TWO_PI)) < 1e-6
    assert abs(mults[1] - 1.0) < 1e-6
    assert po.contains_unit_multiplier
    assert abs(po.mean_rotation + FOUR_PI_SQ) < 1e-6
    target = math.exp(po.period * po.mean_rotation)
    assert np.max(np.abs(np.abs(po.pairing_products) - target)) < 1e-8
    assert po.pairing_defect_argument < 1e-6
    assert abs(po.h_anchor) < 1e-9
    assert po.closure_error < 1e-9


def test_periodic_orbit_repelling_circle_via_time_reversal():
    m = instantiate_model("t2-pair-theta2")
    sec = SectionSpec(axis=0, offset=0.0, direction=0)
    po = find_periodic_orbit(m, sec, np.array([0.0, 0.499]), backward=True)
    mults = np.sort(np.abs(po.multipliers))
    assert abs(mults[1] - math.exp(TWO_PI)) / math.exp(TWO_PI) < 1e-6
    assert abs(po.mean_rotation - FOUR_PI_SQ) < 1e-6
    assert abs(po.h_anchor) < 1e-9


def test_periodic_orbit_parabolic_circle_theta1():
    m = instantiate_model("t2-pair-theta1")
    sec = SectionSpec(axis=1, offset=0.0, direction=0)
    po = find_periodic_orbit(m, sec, np.array([0.625, 0.0]))
    assert abs(po.period - 1.0 / (2.0 * math.sqrt(2.0) * math.pi)) < 1e-9
    assert np.max(np.abs(po.multipliers - 1.0)) < 1e-6
    assert po.mean_rotation == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("max_iter", [1, 2])
def test_periodic_orbit_newton_names_its_iteration_budget(monkeypatch, max_iter):
    m = instantiate_model("t2-pair-theta2")
    sec = SectionSpec(axis=0, offset=0.0, direction=1)
    monkeypatch.setattr(diagnostics, "_NEWTON_MAX_ITER", max_iter)
    with pytest.raises(ConvergenceError, match=f"did not converge in {max_iter} iterations"):
        find_periodic_orbit(m, sec, np.array([0.0, 0.05]))


# ---------------------------------------------------------------------------
# trapping levels and attractors
# ---------------------------------------------------------------------------

def test_trapping_level_damped_pendulum():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    assert abs(trapping_level(m) - 1.0) < 1e-6


def test_trapping_level_mane_is_zero():
    m = instantiate_model("mane", alpha=0.5, d=1, y0=0.5, y_sin=-0.5 / TWO_PI)
    assert abs(trapping_level(m)) < 1e-12


def test_trapping_level_flat_potential():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=0.0)
    assert abs(trapping_level(m)) < 1e-12


def test_trapping_level_requires_structure():
    with pytest.raises(StructureError):
        trapping_level(instantiate_model("t2-pair-theta2"))
    with pytest.raises(StructureError):
        trapping_level(instantiate_model("radial-contraction", a=0.5))


def test_attractor_estimate_damped_pendulum():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    est = attractor_estimate(m, R=1.0, t_relax=40.0, grid=25)
    assert est.status == "trapped"
    assert est.escaped == 0
    assert len(est.cloud) >= 1
    assert est.invariance_residual < 1e-2
    sink = float(np.min(torus_distance(m.spec, est.cloud, np.array([0.5, 0.0]))))
    assert sink < 1e-2


def test_attractor_estimate_counts_the_steps_the_engine_takes():
    """t_relax / h = 7.000000000000001 at h = 0.01: the engine takes 7 steps
    (ceil said 8).  A box whose every sample escapes ran its 500 steps too
    (it said 0)."""
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    est = attractor_estimate(m, R=1.0, t_relax=0.07, grid=5)
    steps = []
    flow_ensemble(m, np.zeros((1, 2)), 0.07, h=0.01,
                  on_step=lambda k, y, stepped: steps.append(k))
    assert est.iterations == len(steps) == 7
    m = instantiate_model("circle-quadratic", alpha=1.0)
    est = attractor_estimate(m, box=((0.0, 1.0), (-4.0, -2.0)), t_relax=5.0, grid=5)
    assert est.escaped == 25 and len(est.cloud) == 0
    assert est.iterations == 500


# boxes without one (lo, hi) per coordinate of a 2-dim model: before, the
# short box gave the attractor 2 garbage seeds at grid 4 and was broadcast
# over both axes by escape_statistics, and the long one raised IndexError
@pytest.mark.parametrize("box", [((0.0, 1.0),), ((0.0, 1.0), (-1.0, 1.0), (0.0, 1.0))])
def test_a_box_takes_one_interval_per_coordinate(box):
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    with pytest.raises(DimensionMismatchError, match=f"2 [(]lo, hi[)] pairs.*got {len(box)}"):
        attractor_estimate(m, box=box, t_relax=1.0, grid=4)
    with pytest.raises(DimensionMismatchError):
        escape_statistics(instantiate_model("shear-contraction", a=0.5), box, 5, 10, seed=0)


# before, the reversed p interval held no point, so all 10 points of the
# invariant circle p = 0 escaped at step 1 (0 of 10 in ((0, 1), (-1, 1)))
@pytest.mark.parametrize("box", [((0.0, 1.0), (1.0, -1.0)), ((0.0, 1.0), (0.5, 0.5)),
                                 ((0.0, 1.0), (-1.0, math.nan))])
def test_a_box_takes_lo_below_hi_on_each_axis(box):
    m = instantiate_model("radial-contraction", a=0.5)
    circle = np.stack([np.linspace(0.0, 0.9, 10), np.zeros(10)], axis=1)
    with pytest.raises(ParamError, match="box axis 1 needs lo < hi"):
        escape_statistics(m, box, 5, 10, seed=0, sample_override=circle)
    with pytest.raises(ParamError, match="box axis 1 needs lo < hi"):
        attractor_estimate(instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0),
                           box=box, t_relax=1.0, grid=4)


# before: grid 0 gave not-trapping from zero seeds, eps 0 a bare
# ZeroDivisionError, eps 2 a modulo by zero and a trapped verdict, and a
# negative eps passed
@pytest.mark.parametrize("sizes", [{"grid": 0}, {"grid": -2}, {"eps": 0.0}, {"eps": -1e-3},
                                   {"eps": 2.0}, {"eps": math.nan}])
def test_attractor_estimate_rejects_out_of_range_sizes(sizes):
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    with pytest.raises(ParamError):
        attractor_estimate(m, R=1.0, t_relax=0.1, **{"grid": 5, **sizes})


def test_attractor_estimate_takes_a_cell_of_one_turn():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    est = attractor_estimate(m, box=((0.0, 1.0), (-0.5, 0.5)), t_relax=0.1, grid=5, eps=1.0)
    # the angle axis is one cell, so each point has a p-cell of its own
    assert est.status == "trapped"
    assert len(est.cloud) == len(np.unique(np.round(est.cloud[:, 1])))


def test_attractor_estimate_not_trapping_control():
    m = instantiate_model("circle-linear", alpha=1.0)
    est = attractor_estimate(m, box=((0.0, 1.0), (-2.0, 2.0)), t_relax=30.0, grid=15)
    assert est.status == "not-trapping"
    assert est.escaped > 0


def test_attractor_estimate_mane_fixed_point():
    alpha, c = 0.5, 0.5
    m = instantiate_model("mane", alpha=alpha, d=1, y0=c, y_sin=-alpha / TWO_PI)
    fp = np.array([0.0, -c])
    assert np.max(np.abs(np.asarray(m.X(fp)))) == 0.0
    est = attractor_estimate(m, R=0.0, t_relax=60.0, grid=25)
    assert float(np.min(torus_distance(m.spec, est.cloud, fp))) < 1e-2
    seed = est.cloud[int(np.argmin(torus_distance(m.spec, est.cloud, fp)))]
    z, residual = refine_equilibrium(m, seed)
    assert residual < 1e-10
    assert torus_distance(m.spec, z, fp) < 1e-4


# ---------------------------------------------------------------------------
# invariant manifolds and isotropy
# ---------------------------------------------------------------------------

def test_unstable_manifold_circle_linear_saddle():
    m = instantiate_model("circle-linear", alpha=1.0)
    pts, frames = unstable_manifold_cloud(m, np.array([0.5, 0.0]), t_grow=3.0)
    assert np.max(np.abs(pts[:, 0] - 0.5)) < 1e-9
    assert frames.shape[2] == 1


def test_unstable_manifold_requires_unstable_direction():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    with pytest.raises(NonHyperbolicError):
        unstable_manifold_cloud(m, np.array([0.5, 0.0]), t_grow=1.0)  # the sink


def test_isotropy_zero_section_and_graph_control():
    omega4 = np.zeros((4, 4))
    omega4[0, 2], omega4[2, 0] = 1.0, -1.0
    omega4[1, 3], omega4[3, 1] = 1.0, -1.0
    rng = np.random.default_rng(0)
    pts = np.concatenate([rng.uniform(0, 1, (30, 2)), np.zeros((30, 2))], axis=1)
    frames = np.zeros((30, 4, 2))
    frames[:, 0, 0] = 1.0
    frames[:, 1, 1] = 1.0
    assert isotropy_defect(pts, frames, lambda x: omega4) <= 1e-14

    q1 = np.linspace(0.0, 1.0, 64, endpoint=False)
    q = np.stack([q1, rng.uniform(0, 1, 64)], axis=1)
    gpts = np.concatenate([q, np.zeros((64, 1)), np.sin(TWO_PI * q[:, :1])], axis=1)
    gframes = np.zeros((64, 4, 2))
    gframes[:, 0, 0] = 1.0
    gframes[:, 3, 0] = TWO_PI * np.cos(TWO_PI * q[:, 0])
    gframes[:, 1, 1] = 1.0
    defect = isotropy_defect(gpts, gframes, lambda x: omega4, normalize=False)
    assert abs(defect - TWO_PI) < 1e-6
    assert defect == max(
        isotropy_defect(gpts[i:i + 1], gframes[i:i + 1], lambda x: omega4, normalize=False)
        for i in range(64))


def test_isotropy_needs_two_columns():
    with pytest.raises(ParamError):
        isotropy_defect(np.zeros((3, 4)), np.zeros((3, 4, 1)), lambda x: np.eye(4))


def test_saddle_unstable_manifold_isotropy_small():
    m = instantiate_model(
        "damped-mechanical", alpha=0.5, d=2, v_cos=(1.0, 1.0), v_cross=0.3
    )
    pts, frames = unstable_manifold_cloud(m, np.zeros(4), t_grow=5.0)
    assert frames.shape[2] == 2
    defect = isotropy_defect(pts, frames, m.Omega)
    assert defect <= 1e-4
    # one pass over the points is the worst of the per-point defects
    assert type(defect) is float
    assert defect == max(isotropy_defect(pts[i:i + 1], frames[i:i + 1], m.Omega)
                         for i in range(len(pts)))


# ---------------------------------------------------------------------------
# escape statistics
# ---------------------------------------------------------------------------

def test_escape_shear_all_leave_in_two_steps():
    m = instantiate_model("shear-contraction", a=0.5)
    stats = escape_statistics(m, ((0.0, 1.0), (-1.0, 1.0)), 5, 1000, seed=7)
    assert stats.escaped == 1000
    assert stats.exit_steps.max() <= 2


def test_escape_invariant_circle_never_leaves():
    m = instantiate_model("radial-contraction", a=0.5)
    rng = np.random.default_rng(7)
    pts = np.stack([rng.uniform(0, 1, 50), np.zeros(50)], axis=1)
    stats = escape_statistics(
        m, ((0.0, 1.0), (-1.0, 1.0)), 50, 50, seed=7, sample_override=pts
    )
    assert stats.escaped == 0


def test_escape_monotone_in_step_budget():
    m = instantiate_model("shear-contraction", a=0.5)
    stats = escape_statistics(m, ((0.0, 1.0), (-1.0, 1.0)), 5, 500, seed=11)
    counts = [stats.escaped_within(n) for n in (1, 2, 3, 5)]
    assert counts == sorted(counts)


def test_escape_deterministic_under_seed():
    m = instantiate_model("shear-contraction", a=0.5)
    a = escape_statistics(m, ((0.0, 1.0), (-1.0, 1.0)), 5, 200, seed=3)
    b = escape_statistics(m, ((0.0, 1.0), (-1.0, 1.0)), 5, 200, seed=3)
    assert np.array_equal(a.exit_steps, b.exit_steps)


def _one_draw_per_sample_points(m, box, samples, seed):
    # reference: one draw per sample
    rng = np.random.default_rng(seed)
    lo, hi = np.array(box, dtype=float).T
    return np.array([lo + (hi - lo) * rng.uniform(size=m.dim) for _ in range(samples)])


@pytest.mark.parametrize("seed", [1, 7, 20])
def test_escape_samples_the_sequential_stream(seed):
    # one block draw gives the points one draw per sample gave, in their order
    m = instantiate_model("shear-contraction", a=0.5)
    box = ((0.0, 1.0), (-1.0, 1.0))
    first = []

    def f_inv(x):
        if not first:
            first.append(np.array(x))
        return m.f_inv(x)

    stats = escape_statistics(dataclasses.replace(m, f_inv=f_inv), box, 5, 300, seed)
    assert stats.total == 300 and first[0].shape == (300, 2)
    expected = _one_draw_per_sample_points(m, box, 300, seed)
    assert first[0].tobytes() == expected.tobytes()


def test_escape_refuses_a_samples_count_its_override_does_not_have():
    # before, samples was silently replaced by the override's 9 states
    m = instantiate_model("radial-contraction", a=0.5)
    pts = np.stack([np.linspace(0.0, 0.8, 9), np.zeros(9)], axis=1)
    with pytest.raises(ParamError, match="samples=10 but 9 override states"):
        escape_statistics(m, ((0.0, 1.0), (-1.0, 1.0)), 5, 10, seed=0, sample_override=pts)
    assert escape_statistics(m, ((0.0, 1.0), (-1.0, 1.0)), 5, 9, seed=0,
                             sample_override=pts).total == 9


def test_map_lyapunov_takes_the_orbit_jacobians_in_one_call():
    m = instantiate_model("nonexact-linear")
    calls = []

    def Df(x):
        calls.append(np.shape(x))
        return m.Df(x)

    x0 = np.full(m.dim, 0.3)
    res = lyapunov_spectrum(dataclasses.replace(m, Df=Df), x0, T=50)
    assert calls == [(50, m.dim)]
    assert res.history.tobytes() == lyapunov_spectrum(m, x0, T=50).history.tobytes()


@pytest.mark.parametrize("n_steps,samples,override", [
    (5, 0, None), (5, -1, None), (0, 10, None), (-1, 10, None), (5, 10, np.empty((0, 2)))])
def test_escape_rejects_out_of_range_sizes(n_steps, samples, override):
    """Before, none of these raised: no sample, or no step, escaped, and the
    CLI reported residual 1.0 against tolerance 1.0, a PASS."""
    m = instantiate_model("shear-contraction", a=0.5)
    with pytest.raises(ParamError):
        escape_statistics(m, ((0.0, 1.0), (-1.0, 1.0)), n_steps, samples, seed=0,
                          sample_override=override)


def test_escape_requires_map_model():
    m = instantiate_model("circle-linear", alpha=1.0)
    with pytest.raises(ParamError):
        escape_statistics(m, ((0.0, 1.0), (-1.0, 1.0)), 5, 10, seed=0)


# ---------------------------------------------------------------------------
# loop cohomology
# ---------------------------------------------------------------------------

def _unit_circle_loop(n=2049, r=1.0):
    th = np.linspace(0.0, 1.0, n)
    return np.stack([np.mod(th, 1.0), np.full_like(th, r)], axis=1)


def test_loop_cohomology_circle_linear():
    m = instantiate_model("circle-linear", alpha=1.0)
    res = loop_cohomology_check(m, _unit_circle_loop(), 1.0)
    assert res.passed
    assert abs(res.details["i0"] - 1.0) < 1e-10
    assert abs(res.details["i_t"] - math.exp(-1.0)) < 1e-7


def test_loop_cohomology_time_zero():
    m = instantiate_model("circle-linear", alpha=1.0)
    res = loop_cohomology_check(m, _unit_circle_loop(), 0.0)
    assert res.residual == 0.0


def test_loop_cohomology_contractible_loop():
    m = instantiate_model("circle-linear", alpha=1.0)
    s = np.linspace(0.0, 2.0 * math.pi, 2049)
    loop = np.stack([0.2 + 0.05 * np.cos(s), 0.3 + 0.05 * np.sin(s)], axis=1)
    res = loop_cohomology_check(m, loop, 1.0)
    assert res.passed


def test_loop_cohomology_blowup_raises():
    m = instantiate_model("circle-quadratic", alpha=1.0)
    with pytest.raises(BlowUpError):
        loop_cohomology_check(m, _unit_circle_loop(r=-1.0), 1.0)


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------

def test_recurrence_independent_twist_stays_away():
    m = instantiate_model("lee-twisted-t1t2", a1=math.sqrt(2.0), a2=math.sqrt(3.0))
    rng = np.random.default_rng(5)
    for x0 in sample_states(m, 3, rng):
        dmin, t_at = recurrence_scan(m, x0, 200.0, 1e-2)
        assert dmin >= RETURN_THRESHOLD
        assert 1.0 < t_at <= 200.0


def test_recurrence_rational_twist_returns_at_integer_time():
    m = instantiate_model("lee-twisted-t1t2", a1=1.0, a2=2.0)
    dmin, t_at = recurrence_scan(m, np.array([0.3, 0.7, 0.0, 0.2]), 2.0, 1e-2)
    assert dmin < 1e-6
    assert abs(t_at - 1.0) < 1e-9


def test_recurrence_scan_on_the_anosov_cover():
    """The closed-form flow over the array of sample times: z is a line
    coordinate moving at unit speed, so the orbit departs up to t_max and
    makes no return."""
    m = instantiate_model("anosov-cover")
    x0 = np.array([0.2, 0.7, 0.3, 1.5])
    dmin, t_at = recurrence_scan(m, x0, 1.0, 0.1)
    assert dmin == math.inf and math.isnan(t_at)


def test_recurrence_scan_finds_a_return_between_samples():
    """The rational twist returns at t = 1, between the samples at 0.9 and
    1.2; the departure, up to the sample at 0.3, is not a return."""
    m = instantiate_model("lee-twisted-t1t2", a1=1.0, a2=2.0)
    x0 = np.array([0.3, 0.7, 0.0, 0.2])
    dmin, t_at = recurrence_scan(m, x0, 2.0, 0.3)
    assert dmin < 1e-15
    assert t_at == pytest.approx(1.0, abs=1e-12)
    # the return has the same closest approach as with dt = 0.01
    assert recurrence_scan(m, x0, 2.0, 1e-2)[0] < 1e-15


@pytest.mark.parametrize("dt", [0.7, 0.9])
def test_recurrence_scan_rejects_a_step_of_half_a_turn(dt):
    """x1 turns at unit speed, so a 0.7-turn step reads as 0.3 turn back and
    the sampled distances never stop growing: the scan would miss the
    return at t = 1 and report (inf, nan).  dt = 0.3 finds it."""
    m = instantiate_model("lee-twisted-t1t2", a1=1.0, a2=2.0)
    x0 = np.array([0.3, 0.7, 0.0, 0.2])
    with pytest.raises(ParamError, match="half a turn"):
        recurrence_scan(m, x0, 2.0, dt)
    assert recurrence_scan(m, x0, 2.0, 0.3)[1] == pytest.approx(1.0, abs=1e-12)


def test_recurrence_scan_is_the_same_in_any_block_size(monkeypatch):
    """Blocks of 7 samples and one block of the whole orbit give the default's
    bits: the departure test and the closest segment cross block edges."""
    from csdyn import diagnostics

    lee = instantiate_model("lee-twisted-t1t2", a1=math.sqrt(2.0), a2=math.sqrt(3.0))
    rational = instantiate_model("lee-twisted-t1t2", a1=1.0, a2=2.0)
    x0 = np.array([0.3, 0.7, 0.0, 0.2])
    cases = [(lee, x, 200.0, 1e-2) for x in sample_states(lee, 2, np.random.default_rng(5))]
    cases += [(rational, x0, 2.0, 1e-2),
              (dataclasses.replace(rational, flow_exact=None), x0, 2.0, 1e-2)]
    default = [recurrence_scan(*case) for case in cases]
    assert default[2][0] < 1e-15 and default[3][0] < 1e-6
    for block in (7, 10**8):
        monkeypatch.setattr(diagnostics, "_RECURRENCE_BLOCK", block)
        assert [recurrence_scan(*case) for case in cases] == default


def test_recurrence_scan_rejects_bad_span():
    m = instantiate_model("lee-twisted-t1t2")
    with pytest.raises(ParamError):
        recurrence_scan(m, np.zeros(4), 0.5, 1.0)


# values that raised ValueError, ZeroDivisionError or OverflowError, or
# returned silently (recurrence_scan (inf, nan) at dt < 0,
# unstable_manifold_cloud only its seeds at t_grow < 0), before each became
# a ParamError naming it
_LEE, _SADDLE = np.zeros(4), np.array([0.5, 0.0])
BAD_HORIZONS = {
    "recurrence-dt-nan": (
        "lee-twisted-t1t2", lambda m: recurrence_scan(m, _LEE, 2.0, math.nan), "dt = nan"),
    "recurrence-dt-zero": (
        "lee-twisted-t1t2", lambda m: recurrence_scan(m, _LEE, 2.0, 0.0), "dt = 0.0"),
    "recurrence-dt-negative": (
        "lee-twisted-t1t2", lambda m: recurrence_scan(m, _LEE, 2.0, -0.1), "dt = -0.1"),
    "recurrence-t_max-inf": (
        "lee-twisted-t1t2", lambda m: recurrence_scan(m, _LEE, math.inf, 0.1), "t_max = inf"),
    "lyapunov-map-nan": (
        "shear-contraction", lambda m: lyapunov_spectrum(m, np.array([0.1, 0.2]), T=math.nan),
        "T = nan"),
    "lyapunov-flow-inf": (
        "damped-mechanical", lambda m: lyapunov_spectrum(m, np.array([0.3, 0.1]), T=math.inf),
        "T = inf"),
    "manifold-nan": (
        "circle-linear", lambda m: unstable_manifold_cloud(m, _SADDLE, math.nan), "t_grow = nan"),
    "manifold-negative": (
        "circle-linear", lambda m: unstable_manifold_cloud(m, _SADDLE, -1.0), "t_grow = -1.0"),
}


@pytest.mark.parametrize("case", sorted(BAD_HORIZONS))
def test_diagnostics_refuse_a_bad_horizon_by_name(case):
    name, call, named = BAD_HORIZONS[case]
    with pytest.raises(ParamError, match=named):
        call(instantiate_model(name))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_theta2_dissipative():
    m = instantiate_model("t2-pair-theta2")
    oc = classify_ensemble(m, np.array([0.0, 0.3])[None], 10.0)[0]
    assert oc.verdict == "dissipative"
    assert abs(oc.r_slope + FOUR_PI_SQ) < 0.01 * FOUR_PI_SQ
    assert oc.omega_H_max < 1e-6


def test_classify_theta1_conservative():
    m = instantiate_model("t2-pair-theta1")
    oc = classify_ensemble(m, np.array([0.0, 0.0])[None], 10.0)[0]
    assert oc.verdict == "conservative"
    assert oc.r_abs_max == 0.0
    assert oc.min_return_dist < 1e-3


def test_classify_closest_return_takes_the_short_way_across_the_wrap():
    """theta2 = 0.3 - 0.07 t does not return within T = 10.  Its displacement
    from the start passes -0.5 at t = 7.14; the step there runs across the
    wrap, not back over the torus through the start."""
    m = instantiate_model("t2-pair-theta1")
    th1 = math.asin(0.07 / (2.0 * math.sqrt(2.0) * math.pi)) / TWO_PI - 0.125 + 1.0
    x0 = np.array([th1, 0.3])
    assert m.X(x0)[1] == pytest.approx(-0.07, rel=1e-12)
    oc = classify_ensemble(m, x0[None], 10.0)[0]
    # the nearest return is the end of the settling window, t = 0.1
    assert oc.min_return_dist == pytest.approx(0.007, rel=1e-9)
    assert oc.verdict == "undetermined"


def test_classify_repelling_circle_undetermined():
    m = instantiate_model("t2-pair-theta2")
    oc = classify_ensemble(m, np.array([0.0, 0.5])[None], 10.0)[0]
    assert oc.verdict == "undetermined"


def test_classify_requires_pair_structure():
    m = instantiate_model("circle-linear", alpha=1.0)
    with pytest.raises(StructureError):
        classify_ensemble(m, np.array([0.1, 0.2])[None], 1.0)[0]


def test_classify_rejects_a_map_model():
    """A time-t map carries eta and H but no field; before, the engine
    raised TypeError: 'NoneType' object is not callable."""
    m = time_t_map(instantiate_model("t2-pair-theta2"), 1.0)
    with pytest.raises(KindError):
        classify_ensemble(m, np.array([[0.1, 0.2]]), 1.0)
