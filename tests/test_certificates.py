"""The battery's declarations: names, scopes and tolerances, and crash records;
the evaluator calls of the batched checks and the map-conformality budget."""

import collections
import dataclasses
import inspect
import time

import numpy as np
import pytest

from csdyn import certificates as C, flows
from csdyn.diagnostics import _worst

# (function, check, scope, tolerance, negative) of every check, in battery order
BATTERY = [
    ("cert_two_form_antisymmetry", "two-form-antisymmetry", "geometry", 0.0, False),
    ("cert_loop_quadrature_convergence", "loop-quadrature-convergence", "geometry", 0.5, False),
    ("cert_torus_metric", "torus-metric-triangle", "geometry", 1e-12, False),
    ("cert_map_conformality", "map-conformality-ratio", "geometry", 1e-12, False),
    ("cert_field_identities", "field-identities", "models", 1e-9, False),
    ("cert_structure_forms", "structure-forms", "models", 1e-6, False),
    ("cert_liouville_decomposition", "liouville-decomposition", "models", 1e-12, False),
    ("cert_gauge_equivalence", "gauge-equivalence", "models", 1e-9, False),
    ("cert_contact_lift", "contact-lift", "models", 1e-9, False),
    ("cert_flow_conformality", "flow-conformality-transport", "flow-engine", 1e-6, False),
    ("cert_splitting_exact", "splitting-exact-conformality", "flow-engine", 5e-13, False),
    ("cert_splitting_order", "splitting-order", "flow-engine", 0.3, False),
    ("cert_volume_rate", "volume-rate", "flow-engine", 1e-7, False),
    ("cert_time_map_consistency", "time-map-consistency", "flow-engine", 1e-8, False),
    ("cert_map_iteration", "map-iteration", "flow-engine", 1e-12, False),
    ("cert_blowup_riccati", "blowup-riccati", "flow-engine", 1e-6, False),
    ("cert_energy_descent", "energy-descent", "flow-engine", 1e-9, False),
    ("cert_floquet_pairing", "floquet-pairing", "diagnostics", 1.0, False),
    ("cert_lyapunov_pairing", "lyapunov-pairing", "diagnostics", 1e-3, False),
    ("cert_loop_cohomology", "loop-cohomology", "diagnostics", 1.0, False),
    ("cert_escape_statistics", "escape-statistics", "diagnostics", 0.0, False),
    ("cert_trapping_attractor", "trapping-attractor", "diagnostics", 1.0, False),
    ("cert_isotropy", "isotropy", "diagnostics", 1.0, False),
    ("cert_transport_decay", "transport-decay", "diagnostics", 1e-6, False),
    ("cert_lee_no_periodic", "lee-no-periodic-orbit", "diagnostics", 0.0, False),
    ("cert_classification", "orbit-classification", "diagnostics", 0.0, False),
    ("cert_rotation_zero_lee", "lee-rotation-zero", "diagnostics", 0.0, False),
    ("cert_anosov_frame", "anosov-frame-checks", "diagnostics", 1e-9, False),
    ("cert_escape_determinism", "escape-determinism", "diagnostics", 0.0, False),
    ("cert_attractor_negative_control", "attractor-not-trapping",
     "diagnostics-negative-controls", 0.0, True),
    ("cert_recurrence_negative_control", "recurrence-rational-control",
     "diagnostics-negative-controls", 1e-6, True),
    ("cert_isotropy_negative_control", "isotropy-open-graph-control",
     "diagnostics-negative-controls", 1e-6, True),
]


def test_battery_declarations_are_pinned():
    # read from the declarations alone: no check runs
    declared = [
        (fn.__name__, fn.declaration.check, scope, fn.declaration.tolerance,
         fn.declaration.negative)
        for fn, scope in C._CERTIFICATES
    ]
    assert declared == BATTERY
    for fn, scope in C._CERTIFICATES:
        assert inspect.isfunction(fn) and getattr(C, fn.__name__) is fn
        assert fn.declaration.scope == scope
    assert C.SCOPES == ("all", "diagnostics", "diagnostics-negative-controls",
                        "flow-engine", "geometry", "models")


def test_a_crash_is_recorded_under_the_declared_name(monkeypatch):
    clean = C.cert_torus_metric(seed=7)
    assert clean.passed

    def broken(*args, **kwargs):
        raise RuntimeError("distance unavailable")

    monkeypatch.setattr(C, "torus_distance", broken)
    results, ok = C.verify_suite("geometry", seed=7)
    crashed = [r for r in results if r.provenance_tag == "error"]
    assert not ok
    assert len(crashed) == 1
    assert crashed[0].check == clean.check == "torus-metric-triangle"
    assert crashed[0].verdict == "FAIL"
    assert crashed[0].details["error"] == "RuntimeError: distance unavailable"


def _counted(fn, counts, key):
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("scale", [1, 3])
def test_sampled_state_checks_call_each_evaluator_once_per_model(monkeypatch, scale):
    # a per-state loop would make 1000 * scale field calls per model; the
    # finite-difference cross-check's H calls are not counted
    counts = collections.Counter()
    instantiate, sample = C.instantiate_model, C.sample_states

    def counted_model(*args, **kwargs):
        m = instantiate(*args, **kwargs)
        return dataclasses.replace(m, X=_counted(m.X, counts, "X"),
                                   Omega=_counted(m.Omega, counts, "Omega"))

    monkeypatch.setattr(C, "instantiate_model", counted_model)
    monkeypatch.setattr(C, "sample_states", lambda m, n, *a: sample(m, n * scale, *a))
    monkeypatch.setattr(C, "torus_distance", _counted(C.torus_distance, counts, "distance"))
    assert C.cert_field_identities(seed=7).passed
    assert C.cert_torus_metric(seed=7).passed
    n = len(C._FLOW_MODELS)
    assert counts == {"X": n, "Omega": n, "distance": 4}


@pytest.mark.parametrize("check", ["cert_splitting_exact", "cert_splitting_order"])
def test_splitting_checks_step_both_branches(monkeypatch, check):
    # Stormer-Verlet on damped-mechanical, the implicit midpoint on Mane
    counts = collections.Counter()
    for name in ("_verlet_step", "_midpoint_step"):
        monkeypatch.setattr(flows, name, _counted(getattr(flows, name), counts, name))
    assert getattr(C, check)(seed=7).passed
    assert counts["_verlet_step"] >= 1 and counts["_midpoint_step"] >= 1


def test_a_nan_on_the_second_splitting_model_fails(monkeypatch):
    # Mane's steps come after damped-mechanical's finite ones
    step = C.conformal_splitting_step

    def nan_on_mane(m, x, h):
        z, J = step(m, x, h)
        return (z * np.nan, J * np.nan) if m.name == "mane" else (z, J)

    monkeypatch.setattr(C, "conformal_splitting_step", nan_on_mane)
    for check in (C.cert_splitting_exact, C.cert_splitting_order):
        result = check(seed=7)
        assert result.verdict == "FAIL" and np.isnan(result.residual)


def test_worst_is_nan_when_any_value_is_nan():
    # Python's max and min keep a NaN only as their first argument
    assert max(0.5, np.nan) == min(0.5, np.nan) == 0.5
    for values in ((0.5, np.nan), (np.nan, 0.5), (0.0, 0.5, np.nan)):
        for pick in (max, min):
            assert np.isnan(_worst(*values, pick=pick))
            assert np.isnan(_worst(list(values), pick=pick))
    assert _worst(0.25, 0.5, 0.0) == _worst([0.25, 0.5, 0.0]) == 0.5
    assert _worst(iter([0.25, 0.5, 0.0]), pick=min) == 0.0
    worst, ratios = C._worst_ratio({"a": (1e-9, 1.0), "b": (np.nan, 1.0)})
    assert np.isnan(worst) and ratios["a"] == 1e-9


def test_a_nan_sub_result_after_a_finite_one_fails(monkeypatch):
    # the Mane residual comes after the two circle models' finite ones
    residual = C.field_identity_residual

    def nan_on_mane(m, x):
        res = residual(m, x)
        return res * np.nan if m.name == "mane" else res

    monkeypatch.setattr(C, "field_identity_residual", nan_on_mane)
    result = C.cert_field_identities(seed=7)
    assert result.verdict == "FAIL" and np.isnan(result.residual)


def test_a_nan_closest_return_after_a_finite_one_fails(monkeypatch):
    # before, min(1.0, nan, ...) kept 1.0, far above the return threshold: a PASS
    scan, returns = C.recurrence_scan, iter([1.0, np.nan] + [1.0] * 18)

    def nan_second_orbit(m, x0, t_max, tol):
        if t_max != 200.0:  # the rational control keeps its real return
            return scan(m, x0, t_max, tol)
        return next(returns), 0.0

    monkeypatch.setattr(C, "recurrence_scan", nan_second_orbit)
    result = C.cert_lee_no_periodic(seed=7)
    assert np.isnan(result.details["min_return"])
    assert result.verdict == "FAIL"
    assert result.details["control_return"] < C.RETURN_THRESHOLD


def test_map_conformality_budget_times_the_whole_measurement(monkeypatch):
    spans = []
    ratios = C.map_conformality_ratios

    def timed(*args):
        start = time.perf_counter()
        out = ratios(*args)
        spans.append((start, time.perf_counter()))
        return out

    monkeypatch.setattr(C, "map_conformality_ratios", timed)
    result = C.cert_map_conformality(seed=7)
    assert result.passed and len(spans) == 3
    assert result.details["elapsed_s"] >= spans[-1][1] - spans[0][0]


def _one_draw_per_candidate_gauge_states(seed):
    # reference: one uniform pair per candidate, kept while H > 0.05
    rng = np.random.default_rng(seed)
    m = C.instantiate_model("t2-pair-theta2")
    states = []
    while len(states) < 100:
        x = rng.uniform(0, 1, size=2)
        if float(m.H(x)) > 0.05:
            states.append(x)
    return np.array(states)


@pytest.mark.parametrize("seed", [1, 7, 20])
def test_gauge_equivalence_samples_the_sequential_stream(monkeypatch, seed):
    # its block draws keep the first 100 accepted candidates, in draw order
    seen = []
    field = C.conformal_hamiltonian_field

    def recording(*forms):
        gauge = field(*forms)

        def X(x):
            seen.append(np.array(x))
            return gauge(x)

        return X

    monkeypatch.setattr(C, "conformal_hamiltonian_field", recording)
    assert C.cert_gauge_equivalence(seed=seed).passed
    assert len(seen) == 1 and seen[0].shape == (100, 2)
    assert seen[0].tobytes() == _one_draw_per_candidate_gauge_states(seed).tobytes()
