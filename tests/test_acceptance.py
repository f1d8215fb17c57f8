"""Acceptance battery: one test per criterion, at its pinned tolerance.

The seed-7 `verify_suite("all")` (the same code behind `csdyn verify`) runs
once per session; each test takes its criterion's certificate result from
that run and prints one PASS/FAIL line with the measured residual.
"""

import math
import time

import numpy as np
import pytest

from csdyn import certificates as C

SEED = 7


@pytest.fixture(scope="session")
def suite():
    """The full battery at the pinned seed: (results by certificate, ok, elapsed)."""
    started = time.perf_counter()
    results, ok = C.verify_suite("all", seed=SEED)
    elapsed = time.perf_counter() - started
    by_cert = {fn: r for (fn, _), r in zip(C._CERTIFICATES, results)}
    return by_cert, ok, elapsed


def _result(suite, label, fn):
    result = suite[0][fn]
    print(
        f"{'PASS' if result.passed else 'FAIL'} {label}: check={result.check} "
        f"residual={result.residual:.3e} tolerance={result.tolerance:.3e}"
    )
    assert result.passed, result.details
    return result


def test_criterion_01_map_conformality_ratio(suite):
    # ratio (7 - 3 sqrt5)/2 at 1e-12, Libermann constancy, runtime < 1 s
    result = _result(
        suite, "criterion 1 (map conformality ratio)", C.cert_map_conformality
    )
    assert result.details["elapsed_s"] < 1.0
    assert result.details["spread"] < 1e-12


def test_criterion_02_flow_conformality_transport(suite):
    # pullback residual < 1e-6 at t=1 for 20 starts per model, runtime < 10 s
    result = _result(
        suite, "criterion 2 (flow conformality transport)", C.cert_flow_conformality
    )
    assert result.details["elapsed_s"] < 10.0


def test_criterion_03_splitting_exact_conformality(suite):
    # <= 5e-13 for h in {0.1, 0.01, 0.001}, independent of h
    result = _result(suite, "criterion 3 (splitting exactness)", C.cert_splitting_exact)
    for key, val in result.details.items():
        assert val <= 5e-13, (key, val)


def test_criterion_04_floquet_pairing(suite):
    result = _result(suite, "criterion 4 (Floquet pairing)", C.cert_floquet_pairing)
    mults = np.sort(np.abs(np.asarray(result.details["multipliers"])))
    assert abs(result.details["period"] - 1.0 / (2 * math.pi)) < 1e-8
    assert abs(mults[0] - math.exp(-2 * math.pi)) < 1e-6
    assert abs(result.details["h_anchor"]) < 1e-9
    rep = np.sort(np.abs(np.asarray(result.details["repelling_multipliers"])))
    assert abs(rep[1] - math.exp(2 * math.pi)) / math.exp(2 * math.pi) < 1e-6


def test_criterion_05_lyapunov_pairing(suite):
    result = _result(suite, "criterion 5 (Lyapunov pairing)", C.cert_lyapunov_pairing)
    assert abs(float(np.sum(result.details["exponents"])) + 0.5) <= 1e-3


def test_criterion_06_loop_cohomology(suite):
    result = _result(suite, "criterion 6 (loop cohomology)", C.cert_loop_cohomology)
    assert abs(result.details["i0"] - 1.0) < 1e-9
    assert abs(result.details["i_t"] - math.exp(-1.0)) < 1e-7


def test_criterion_07_escape_statistics(suite):
    result = _result(suite, "criterion 7 (escape statistics)", C.cert_escape_statistics)
    assert result.details["circle_escaped"] >= 990
    assert result.details["shear_escaped"] == 1000
    assert result.details["shear_max_exit"] <= 2
    assert result.details["invariant_circle_escaped"] == 0


def test_criterion_08_trapping_and_attractor(suite):
    result = _result(
        suite, "criterion 8 (trapping and attractor)", C.cert_trapping_attractor
    )
    assert abs(result.details["trap_level"] - 1.0) <= 1e-6
    assert result.details["cloud_to_refset"] <= 1e-2
    assert result.details["sink_hit"] <= 1e-2
    assert result.details["mane_field_at_fp"] <= 1e-10
    assert result.details["mane_refined_residual"] <= 1e-10


def test_criterion_09_isotropy(suite):
    result = _result(suite, "criterion 9 (isotropy)", C.cert_isotropy)
    assert result.details["zero_section_defect"] <= 1e-14
    assert abs(result.details["graph_defect"] - 2 * math.pi) <= 1e-6
    assert result.details["saddle_defect_t5"] <= 1e-4
    assert result.details["saddle_defect_t10"] <= 1e-4


def test_criterion_10_lee_no_periodic_orbit(suite):
    result = _result(
        suite, "criterion 10 (no-periodic-orbit Lee flow)", C.cert_lee_no_periodic
    )
    assert result.details["min_return"] >= C.RETURN_THRESHOLD
    assert result.details["control_return"] < C.RETURN_THRESHOLD
    assert abs(result.details["control_t"] - 1.0) < 1e-9


@pytest.mark.parametrize("seed", range(1, 13))
def test_criterion_10_holds_at_seeds_1_to_12(seed):
    result = C.cert_lee_no_periodic(seed=seed)
    assert result.passed, result.details
    assert result.details["min_return"] >= C.RETURN_THRESHOLD


def test_criterion_11_orbit_classification(suite):
    result = _result(
        suite, "criterion 11 (orbit classification)", C.cert_classification
    )
    assert result.details["dissipative"] >= 95
    assert result.details["conservative"] >= 95


def test_criterion_12_blowup_time(suite):
    result = _result(suite, "criterion 12 (Riccati blow-up)", C.cert_blowup_riccati)
    t_star = result.details["t_star"]
    assert abs(result.details["line-theta-half"] - t_star) < 1e-6
    assert abs(result.details["line-theta-zero"] - t_star) < 1e-6
    assert result.details["mirrored-start-status"] == "completed"


def test_full_verify_suite_passes_with_pinned_seed(suite):
    by_cert, ok, elapsed = suite
    n_pass = sum(1 for r in by_cert.values() if r.passed)
    print(f"verify-suite: {n_pass}/{len(by_cert)} checks passed in {elapsed:.1f}s")
    assert len(by_cert) >= 18
    assert all(r.check == fn.declaration.check for fn, r in by_cert.items())
    assert ok
    assert elapsed < 300.0  # full-suite runtime target, single-threaded
