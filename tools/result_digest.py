"""SHA-256 digests of csdyn results, for checking that a change is bit-identical.

Prints one line per result: a digest, then its name.  A check of
`verify_suite("all", seed)` is digested from its verdict, residual, tolerance
and details, without `elapsed_s` (a wall-clock figure).  Ensemble results are
the outputs of `flow_ensemble`, `transport_tangents` and `classify_ensemble`
on seeded inputs at several batch sizes, and the runs on the models' fused
joint fields: circle-linear's tangent transport at the loop-cohomology size,
forward and on its time-reversed view, and t2-pair-theta1's `flow_ensemble`
with the Lee channel.  The lean Mane field and damped-mechanical's fused
tangent field are digested on inputs that reach each of their branches: Mane
`flow_ensemble` with a full y_sin and a nonzero y_cos, Mane's midpoint
splitting step (X_sym), damped-mechanical's tangent transport at d = 1 and
2, forward and on the time-reversed view, each with rows of zero momentum.
A time-reversed view has no fused field, so its runs step the view's
composed field; their lines are those of earlier versions, whose views
stepped the negated fused field.
The circle models' splitting code (X_sym through the midpoint, DX_sym) is
digested by circle-linear's and circle-quadratic's splitting steps at
h = 0.01 and 0.05, again with rows of zero momentum.
The paths whose sums could round by the batch's memory layout are digested
too: the composed tangent product of `transport_tangents` (np.einsum at
dim 4) on a full Mane drift and on lee-twisted-t1t2, lee-twisted-t1t2's
`classify_ensemble` at N = 1024 (the observer's block holds one step,
which alone takes 40 KiB), `integrate_variational` runs with k = n frames
(DX @ F) on that Mane model and on damped-mechanical d = 2 with
v_cross = 0.3 (a Jacobian with several nonzero entries per row, so each sum
of DX @ F can round by the order of its terms), and a circle-quadratic
`flow_ensemble` whose rows partly blow up mid-run (the engine then steps the
gathered live rows).
The `all` line digests all lines above it.  After it come the per-point
arrays that three checks reduce to a max, so that one element's bits cannot
move unseen: `map_conformality_ratios`' ratios and residuals on
nonexact-linear and on radial- and shear-contraction at a = 0.37, the
`pullback_residual` of each state of damped-mechanical's splitting step, and
`fd_exterior_derivative_one_form` at each state of `cert_structure_forms`.
They follow the `all` line so that the lines above it stay those of earlier
versions of this tool; the kernels are called one state at a time, as
every version of them takes that.  Last come the contact lift's `H` on one
seeded batch, for a caller's `H` that takes one state, and nonexact-linear's
`lyapunov_spectrum` (its Jacobian is constant, so that line does not vary
with the seed).  After them come the conformal pairs' `H` and `dH` on one
seeded batch, and the flow `lyapunov_spectrum` of damped-mechanical and
t2-pair-theta2 from a seeded state, with its running history.  Last come outputs shaped by tuning
values that are module constants, not arguments: `unstable_manifold_cloud`'s
points and frames on damped-mechanical at d = 1 (a polyline, k = 1) and
on the coupled d = 2 model (shells, k = 2) over a seeded growth time,
`emit_basin_grid`'s labels on a 12 x 12 grid with a seeded p range, and
`refine_equilibrium` from a seeded point of a Mane attractor cloud.  After
them come the paths whose settings are pinned: circle-linear's `time_t_map`
`f`, `f_inv` and `Df` on a seeded batch, t2-pair-theta2's first three
`poincare_return` crossings from a seeded state (crossings, Jacobians, times
and Lee integrals, under the step cap derived from the start's speed),
`recurrence_scan` on t2-pair-theta2 (no closed-form flow, so the orbit is
integrated), and `fd_gradient` and `fd_exterior_derivative_two_form` on
seeded batches.  Last come the torus geometry's primitives on seeded states
whose angles straddle the +-0.5 wrap, for a spec with its angle axes in one
run and one with them split: `wrap` and `delta` on a batch,
`torus_distance` on single states (each a numpy float) and on the batch,
`_nearest_cloud_distance` from 600 points (two chunks) to a dim-4 cloud
half a turn away, and `SectionSpec.value` on an angle and a line axis.
Last come the splitting checks' midpoint branch: the `pullback_residual` of
each state of their Mane d = 2 splitting step at their three h, and, once
for all seeds, the refusal (message, row and state) of each circle-quadratic
state whose midpoint sweeps do not converge; a tree that steps such a state
digests its step instead.
Last come the one-row `flow_ensemble` runs of every registered flow (and of
the ensemble and full Mane drifts and the coupled d = 2 damped-mechanical
model), forward and on the time-reversed view, with and without the Lee
channel where the model has a Lee form, and `classify_ensemble` of the
conformal pairs and lee-twisted-t1t2 at N = 1 and 100.
Last come the contact lift of a caller's `H` and analytic `dH`: its `DX`
(the Hessian from first differences of `dH`) and `eta_X` on one seeded
batch, and the frames and Lee integrals of one `integrate_variational` run
of it, which steps the joint field composed of `X`, `DX` and `eta_X`.
Last come the block kernels of Mane and damped-mechanical (more than one
row of the fixed-step engine's column-major batch): `flow_ensemble` and
`transport_tangents` at N = 2 and 33
with rows of zero momentum, on Mane drifts with full and partly zero
coefficients and on damped-mechanical's coupled potential with a zero
cosine column and its potential with no cosine term;
then, once for all seeds, the fixed-step engine's screen on a model whose
rows die through its second line column, through a non-finite angle, and
with a line coordinate at the threshold and just above it.  Last, once for
all seeds, come `X`, `X_DXv` and `X_etaX` of every flow above on one state
at a time: a state of each of +-inf, nan of either sign, -0.0, 1e300 and
5e-324 in every entry, and one with that value in a single entry, so that
the one-state kernels' nan bits are pinned.  Last come batches large
enough that the fixed-step engine steps them in tiles, with rows that die
(a nan, a blow-up, an overflow) next to every multiple of 64 rows, where
earlier versions of the engine started their tiles: damped-mechanical
d = 2 `flow_ensemble` at N = 16384 and
`transport_tangents` at N = 4160, and t2-pair-theta2's `classify_ensemble`
at N = 16384 over T = 0.01.
Floats
are hashed by their bits (`float.hex`), arrays by dtype, shape and bytes,
so -0.0 and 0.0 differ.

    PYTHONPATH=src python3 tools/result_digest.py --seeds 1 7
    PYTHONPATH=src python3 tools/result_digest.py --seeds 7 --skip-verify
    PYTHONPATH=src python3 tools/result_digest.py --seeds 1 7 --residuals
    PYTHONPATH=src python3 tools/result_digest.py --seeds 1 7 --cli

Run it on two trees and compare the output with `diff`.  With `--residuals`
it prints, instead of digests, one line per check and seed: seed, check,
verdict, residual and tolerance (floats by `repr`), for an old -> new table
of a change that is not meant to be bit-identical.  With `--cli` it runs
one small config per `csdyn` operation through `cli.main` (`--no-timestamp`,
into a temporary directory) and prints, per seed, a digest of each run's
exit code and output text and one of each file it wrote, with the
`elapsed_s` figures of a report blanked.  The configs set only keys that
earlier versions of the CLI accept for their operation too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import re
import tempfile

import numpy as np

from csdyn import cli, models
from csdyn.certificates import verify_suite
from csdyn.diagnostics import (
    _nearest_cloud_distance,
    attractor_estimate,
    classify_ensemble,
    emit_basin_grid,
    lyapunov_spectrum,
    map_conformality_ratios,
    recurrence_scan,
    refine_equilibrium,
    trapping_level,
    unstable_manifold_cloud,
)
from csdyn.errors import ConvergenceError
from csdyn.flows import (
    SectionSpec,
    conformal_splitting_step,
    flow_ensemble,
    integrate_variational,
    poincare_return,
    time_reversed_view,
    time_t_map,
    transport_tangents,
)
from csdyn.geometry import (
    ANGLE,
    LINE,
    CoordinateSpec,
    fd_exterior_derivative_one_form,
    fd_exterior_derivative_two_form,
    fd_gradient,
    pullback_residual,
    torus_distance,
)

TWO_PI = 2.0 * math.pi

# The benchmark's ensemble models: coupled d=2 mechanical, a conformal pair
# (with the Lee channel) and a d=2 Mane drift field.
ENSEMBLE_MODELS = (
    ("damped-mechanical", {"alpha": 0.5, "d": 2, "v_cos": (1.0, 1.0), "v_cross": 0.3}, False),
    ("t2-pair-theta2", {}, True),
    ("mane", {"alpha": 0.5, "d": 2, "y0": 0.5, "y_sin": -0.5 / TWO_PI}, False),
)
# a Mane drift with every y_sin coefficient and two y_cos ones nonzero
MANE_FULL = {"alpha": 0.5, "d": 2, "y0": 0.3, "y_sin": ((0.4, -0.2), (0.1, 0.3)),
             "y_cos": ((0.0, 0.25), (-0.15, 0.0))}
# the splitting checks' midpoint model
MANE_D2 = {"alpha": 0.5, "d": 2, "y0": 0.5, "y_sin": -0.5 / TWO_PI, "y_cos": 0.1}
# (N, flow_ensemble horizon at h = 0.01, transport/classify horizon at h = 1e-3)
ENSEMBLE_SIZES = ((1, 2.0, 0.2), (7, 1.0, 0.5), (32, 2.0, 0.2), (1024, 1.0, 0.05),
                  (16384, 0.1, 0.01))


def _feed(h, v):
    """Feed a canonical, bit-exact encoding of v into the hash h."""
    if isinstance(v, np.ndarray):
        h.update(f"a{v.dtype.str}{v.shape}".encode())
        h.update(np.ascontiguousarray(v).tobytes())
    elif isinstance(v, (float, np.floating)):
        h.update(b"f" + float(v).hex().encode())
    elif isinstance(v, (bool, np.bool_, int, np.integer, str, type(None))):
        h.update(f"{type(v).__name__}:{v!r};".encode())
    elif isinstance(v, complex):
        h.update(b"c")
        _feed(h, v.real)
        _feed(h, v.imag)
    elif isinstance(v, dict):
        h.update(b"{")
        for key in sorted(v, key=str):
            _feed(h, str(key))
            _feed(h, v[key])
        h.update(b"}")
    elif isinstance(v, (list, tuple)):
        h.update(b"[")
        for x in v:
            _feed(h, x)
        h.update(b"]")
    else:
        raise TypeError(f"cannot digest {type(v).__name__}")


def digest(v):
    h = hashlib.sha256()
    _feed(h, v)
    return h.hexdigest()


def check_digests(seed):
    results, _ = verify_suite("all", seed=seed)
    for r in results:
        details = {k: v for k, v in r.details.items() if k != "elapsed_s"}
        yield f"verify.seed{seed}.{r.check}", digest(
            [r.verdict, r.residual, r.tolerance, details])


def residual_lines(seed):
    results, _ = verify_suite("all", seed=seed)
    for r in results:
        yield f"{seed}  {r.check:<34} {r.verdict:<21} {r.residual!r:<24} {r.tolerance!r}"


def ensemble_digests(seed):
    rng = np.random.default_rng([seed, 11])
    built = {name: models.instantiate_model(name, params)
             for name, params, _ in ENSEMBLE_MODELS}
    for n, t, t_fine in ENSEMBLE_SIZES:
        for name, _, racc in ENSEMBLE_MODELS:
            m = built[name]
            out = flow_ensemble(m, models.sample_states(m, n, rng, 1.0), t, 0.01, racc=racc)
            yield f"flow_ensemble.seed{seed}.{name}.n{n}", digest(list(out))
        m = built["damped-mechanical"]
        states, vectors = models.sample_states(m, n, rng, 1.0), rng.standard_normal((n, m.dim))
        out = transport_tangents(m, states, vectors, t_fine)
        yield f"transport_tangents.seed{seed}.n{n}", digest(list(out))
        for name in ("t2-pair-theta2", "t2-pair-theta1"):
            m = models.instantiate_model(name)
            res = classify_ensemble(m, models.sample_states(m, n, rng, 1.0), t_fine)
            yield f"classify_ensemble.seed{seed}.{name}.n{n}", digest(
                [[c.verdict, c.r_slope, c.omega_H_max, c.min_return_dist, c.r_abs_max]
                 for c in res])


def fused_digests(seed):
    """Runs on the fused joint fields (t2-pair-theta2's Lee channel is in
    ensemble_digests already)."""
    rng = np.random.default_rng([seed, 13])
    m = models.instantiate_model("circle-linear", alpha=1.0)
    states, vectors = models.sample_states(m, 2049, rng, 1.0), rng.standard_normal((2049, 2))
    for label, model in (("forward", m), ("reversed", time_reversed_view(m))):
        out = transport_tangents(model, states, vectors, 1.0, h=1e-3)
        yield f"transport_tangents.seed{seed}.circle-linear.{label}.n2049", digest(list(out))
    m = models.instantiate_model("t2-pair-theta1")
    for n, t, _ in ENSEMBLE_SIZES:
        out = flow_ensemble(m, models.sample_states(m, n, rng, 1.0), t, 0.01, racc=True)
        yield f"flow_ensemble.seed{seed}.t2-pair-theta1.n{n}", digest(list(out))


def _at_rest(m, x):
    """x with zero momenta, +0.0 and -0.0, on two rows in five."""
    x[::5, m.d : m.dim] = 0.0
    x[1::5, m.d : m.dim] = -0.0
    return x


def lean_digests(seed):
    """Runs on the lean Mane field and damped-mechanical's X_DXv."""
    rng = np.random.default_rng([seed, 17])
    m = models.instantiate_model("mane", MANE_FULL)
    for n, t, _ in ENSEMBLE_SIZES:
        out = flow_ensemble(m, _at_rest(m, models.sample_states(m, n, rng, 1.0)), t, 0.01)
        yield f"flow_ensemble.seed{seed}.mane-full.n{n}", digest(list(out))
    for label, params in (("mane-full", MANE_FULL), ("mane", ENSEMBLE_MODELS[2][1])):
        m = models.instantiate_model("mane", params)
        out = conformal_splitting_step(
            m, _at_rest(m, models.sample_states(m, 1024, rng, 1.0)), 0.05)
        yield f"conformal_splitting_step.seed{seed}.{label}.n1024", digest(list(out))
    # the d = 1 run draws from rng as the sine-term model it replaced did, so
    # the d = 2 lines stay those of earlier versions
    for label, params in (("d1-cos", {"alpha": 0.5, "d": 1, "v_cos": 1.0}),
                          ("d2", ENSEMBLE_MODELS[0][1])):
        m = models.instantiate_model("damped-mechanical", params)
        states = _at_rest(m, models.sample_states(m, 2049, rng, 1.0))
        vectors = rng.standard_normal((2049, m.dim))
        for way, model in (("forward", m), ("reversed", time_reversed_view(m))):
            out = transport_tangents(model, states, vectors, 0.2, h=1e-3)
            yield (f"transport_tangents.seed{seed}.damped-mechanical-{label}.{way}.n2049",
                   digest(list(out)))


def splitting_digests(seed):
    """Splitting steps on the circle models.
    circle-quadratic's momenta stay in [-0.5, 0.5]: the flow from a large |r|
    blows up within a step and the midpoint equation has no root."""
    rng = np.random.default_rng([seed, 19])
    for name in ("circle-linear", "circle-quadratic"):
        m = models.instantiate_model(name, alpha=1.0)
        for h in (0.01, 0.05):
            states = models.sample_states(m, 1024, rng, 1.0)
            states[:, 1] = rng.uniform(-0.5, 0.5, 1024)
            out = conformal_splitting_step(m, _at_rest(m, states), h)
            yield f"conformal_splitting_step.seed{seed}.{name}.h{h}.n1024", digest(list(out))


def layout_digests(seed):
    """Runs through the layout-sensitive paths: the composed tangent product,
    the classify observer on one-step blocks, DX @ F and the gathered live
    rows."""
    rng = np.random.default_rng([seed, 23])
    for label, name, params in (("mane-full", "mane", MANE_FULL),
                                ("lee-twisted-t1t2", "lee-twisted-t1t2", {})):
        m = models.instantiate_model(name, params)
        states, vectors = models.sample_states(m, 2049, rng, 1.0), rng.standard_normal((2049, 4))
        out = transport_tangents(m, states, vectors, 0.2, h=1e-3)
        yield f"transport_tangents.seed{seed}.{label}.n2049", digest(list(out))
    m = models.instantiate_model("lee-twisted-t1t2")
    res = classify_ensemble(m, models.sample_states(m, 1024, rng, 1.0), 0.2)
    yield f"classify_ensemble.seed{seed}.lee-twisted-t1t2.n1024", digest(
        [[c.verdict, c.r_slope, c.omega_H_max, c.min_return_dist, c.r_abs_max] for c in res])
    m = models.instantiate_model("mane", MANE_FULL)
    trajs = integrate_variational(m, models.sample_states(m, 64, rng, 1.0), (0.0, 1.0))
    yield f"integrate_variational.seed{seed}.mane-full.reference.n64", digest(
        [[tr.times, tr.states, tr.frames, tr.status] for tr in trajs])
    # |r| ~ 3 on the circle-quadratic escapes within t = 1 where 2 pi r cos < -1
    m = models.instantiate_model("circle-quadratic", alpha=1.0)
    out = flow_ensemble(m, models.sample_states(m, 1024, rng, 3.0), 1.0, 0.01)
    yield f"flow_ensemble.seed{seed}.circle-quadratic.blowups.n1024", digest(list(out))
    # k = n frames under a Jacobian with several nonzero entries per row
    m = models.instantiate_model("damped-mechanical", ENSEMBLE_MODELS[0][1])
    trajs = integrate_variational(m, models.sample_states(m, 64, rng, 1.0), (0.0, 1.0))
    yield f"integrate_variational.seed{seed}.damped-mechanical-d2.reference.n64", digest(
        [[tr.times, tr.states, tr.frames, tr.status] for tr in trajs])


# cert_structure_forms' exact models, in its order
STRUCTURE_MODELS = (("circle-linear", {"alpha": 1.0}),
                    ("mane", {"alpha": 0.5, "d": 1, "y0": 0.4}),
                    ("damped-mechanical", {"alpha": 0.5, "d": 1}))


def point_digests(seed):
    """Per-point arrays behind map-conformality-ratio, splitting-exact and
    structure-forms."""
    rng = np.random.default_rng([seed, 29])
    for name in ("nonexact-linear", "radial-contraction", "shear-contraction"):
        m = models.instantiate_model(name, {} if name == "nonexact-linear" else {"a": 0.37})
        out = map_conformality_ratios(m, models.sample_states(m, 100, rng))
        yield f"map_conformality_ratios.seed{seed}.{name}.n100", digest(list(out))
    m = models.instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    for h in (0.1, 0.01, 0.001):
        xs = models.sample_states(m, 64, rng, 1.0)
        xs_new, Js = conformal_splitting_step(m, xs, h)
        yield f"pullback_residual.seed{seed}.damped-mechanical.h{h}.n64", digest([
            pullback_residual(J, m.Omega(x), m.Omega(x_new), math.exp(-m.alpha * h))
            for x, x_new, J in zip(xs, xs_new, Js)])
    rng = np.random.default_rng(seed)  # cert_structure_forms' states
    for name, params in STRUCTURE_MODELS:
        m = models.instantiate_model(name, params)
        xs = models.sample_states(m, 100, rng, 1.0)
        yield f"fd_exterior_derivative_one_form.seed{seed}.{name}.n100", digest(
            [fd_exterior_derivative_one_form(m.lam, x) for x in xs])


def lift_digests(seed):
    """The contact lift's H on a batch, and a map's Lyapunov spectrum."""
    rng = np.random.default_rng([seed, 37])
    lifted = models.contact_lift(
        lambda y: math.cos(TWO_PI * y[2]) + 0.3 * y[1] * math.sin(TWO_PI * y[0]), (0.5, -0.2),
        dH=lambda y: np.array([0.3 * TWO_PI * y[1] * math.cos(TWO_PI * y[0]),
                               0.3 * math.sin(TWO_PI * y[0]), -TWO_PI * math.sin(TWO_PI * y[2])]))
    xs = models.sample_states(lifted, 64, rng)
    yield f"contact_lift.seed{seed}.H.n64", digest(np.asarray(lifted.H(xs)))
    m = models.instantiate_model("nonexact-linear")
    res = lyapunov_spectrum(m, models.sample_states(m, 1, rng)[0], T=100.0)
    yield f"lyapunov_spectrum.seed{seed}.nonexact-linear.T100", digest(
        [res.exponents, res.history, res.pairing_defect, res.pairing_target])


def pair_digests(seed):
    """The T^2 pairs' H and dH on a batch, and flow Lyapunov spectra."""
    rng = np.random.default_rng([seed, 41])
    for name in ("t2-pair-theta1", "t2-pair-theta2"):
        m = models.instantiate_model(name)
        xs = models.sample_states(m, 64, rng)
        for key in ("H", "dH"):
            yield f"{name}.seed{seed}.{key}.n64", digest(np.asarray(getattr(m, key)(xs)))
    for name, params in (("damped-mechanical", {"alpha": 0.5, "d": 1, "v_cos": 1.0}),
                         ("t2-pair-theta2", {})):
        m = models.instantiate_model(name, params)
        res = lyapunov_spectrum(m, models.sample_states(m, 1, rng, 1.0)[0], T=10.0)
        yield f"lyapunov_spectrum.seed{seed}.{name}.T10", digest(
            [res.exponents, res.history, res.pairing_defect, res.pairing_target,
             res.mean_rotation, res.converged])


def constant_digests(seed):
    """Unstable manifolds at k = 1 and 2, basin labels and a refined Mane
    equilibrium, whose spacings, steps and tolerances are module constants."""
    rng = np.random.default_rng([seed, 43])
    m = models.instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    for label, model, t_grow in (
            ("d1", m, rng.uniform(4.0, 8.0)),
            ("d2", models.instantiate_model("damped-mechanical", ENSEMBLE_MODELS[0][1]),
             rng.uniform(2.0, 4.0))):
        out = unstable_manifold_cloud(model, np.zeros(model.dim), t_grow=t_grow)
        yield f"unstable_manifold_cloud.seed{seed}.damped-mechanical-{label}", digest(list(out))
    labels, _, _ = emit_basin_grid(m, 12, rng.uniform(2.0, 4.0), list(m.equilibria), t_max=20.0)
    yield f"emit_basin_grid.seed{seed}.damped-mechanical.g12", digest(labels)
    mm = models.instantiate_model("mane", alpha=0.5, d=1, y0=0.5, y_sin=-0.5 / TWO_PI)
    cloud = attractor_estimate(mm, R=trapping_level(mm), t_relax=20.0, grid=9).cloud
    out = refine_equilibrium(mm, cloud[rng.integers(len(cloud))])
    yield f"refine_equilibrium.seed{seed}.mane", digest(list(out))


def pinned_digests(seed):
    """A time-t map, Poincare returns, an integrated recurrence scan and the
    finite-difference kernels, each at its fixed integrator or step."""
    rng = np.random.default_rng([seed, 47])
    m = models.instantiate_model("circle-linear", alpha=1.0)
    f_t, xs = time_t_map(m, 0.7), models.sample_states(m, 16, rng, 1.0)
    for name in ("f", "f_inv", "Df"):
        yield f"time_t_map.seed{seed}.circle-linear.{name}.n16", digest(getattr(f_t, name)(xs))
    m = models.instantiate_model("t2-pair-theta2")
    x0 = np.array([rng.uniform(0.0, 1.0), rng.uniform(-0.2, 0.2)])
    out = poincare_return(m, SectionSpec(axis=0, offset=0.0, direction=1), x0, 3)
    yield f"poincare_return.seed{seed}.t2-pair-theta2.k3", digest(list(out))
    out = recurrence_scan(m, models.sample_states(m, 1, rng)[0], 5.0, 1e-2)
    yield f"recurrence_scan.seed{seed}.t2-pair-theta2", digest(list(out))
    for name, params in (("damped-mechanical", {"alpha": 0.5, "d": 1, "v_cos": 1.0}),
                         ("t2-pair-theta1", {})):
        m = models.instantiate_model(name, params)
        xs = models.sample_states(m, 64, rng, 1.0)
        yield f"fd_gradient.seed{seed}.{name}.n64", digest(fd_gradient(m.H, xs))
    # lee-twisted-t1t2's Omega is the one registered two-form with d Omega != 0
    for label, params in (("default", {}), ("irrational", {"a1": 2**0.5, "a2": 3**0.5})):
        m = models.instantiate_model("lee-twisted-t1t2", params)
        xs = models.sample_states(m, 64, rng, 1.0)
        yield f"fd_exterior_derivative_two_form.seed{seed}.lee-twisted-t1t2.{label}.n64", digest(
            fd_exterior_derivative_two_form(m.Omega, xs))


def geometry_digests(seed):
    """The wrap, distances and section values on states around the +-0.5 wrap."""
    rng = np.random.default_rng([seed, 53])
    for label, axes in (("run", (ANGLE, ANGLE, LINE, LINE)),
                        ("split", (ANGLE, LINE, LINE, ANGLE))):
        spec = CoordinateSpec(axes)
        x = rng.uniform(-0.6, 0.6, (64, 4)) + rng.integers(-3, 4, (64, 4))
        y = x + 0.5 + rng.normal(0.0, 0.05, (64, 4))
        yield f"wrap_delta.seed{seed}.{label}.n64", digest([spec.wrap(x), spec.delta(x, y)])
        yield f"torus_distance.seed{seed}.{label}.n64", digest(
            [torus_distance(spec, x, y)] + [torus_distance(spec, a, b) for a, b in zip(x, y)])
        pts = rng.uniform(-0.1, 0.1, (600, 4))
        cloud = 0.5 + rng.uniform(-0.1, 0.1, (50, 4))
        yield f"_nearest_cloud_distance.seed{seed}.{label}.n600", digest(
            _nearest_cloud_distance(spec, pts, cloud))
        values = []
        for axis in (0, 2):  # an angle axis and a line axis
            sec = SectionSpec(axis=axis, offset=float(rng.uniform(-1.0, 1.0)))
            values += [sec.value(spec, x)] + [sec.value(spec, a) for a in x[:8]]
        yield f"SectionSpec.value.seed{seed}.{label}.n64", digest(values)


def midpoint_digests(seed):
    """Per-state pullback residuals of the splitting checks' Mane d = 2 step."""
    rng = np.random.default_rng([seed, 59])
    m = models.instantiate_model("mane", MANE_D2)
    for h in (0.1, 0.01, 0.001):
        xs = models.sample_states(m, 64, rng, 1.0)
        xs_new, Js = conformal_splitting_step(m, xs, h)
        yield f"pullback_residual.seed{seed}.mane-d2.h{h}.n64", digest([
            pullback_residual(J, m.Omega(x), m.Omega(x_new), math.exp(-m.alpha * h))
            for x, x_new, J in zip(xs, xs_new, Js)])


def refusal_digests():
    """The refusal of each circle-quadratic state, with its h, on which the
    midpoint sweeps do not converge (the step's output if it has none)."""
    m = models.instantiate_model("circle-quadratic")
    xs = models.sample_states(m, 16, np.random.default_rng(11), 1.0)
    for label, x, h in (("row4", xs[4], 0.1), ("row5", xs[5], 0.05), ("row4", xs[4], 0.5),
                        ("theta0", np.array([0.0, -0.7]), 0.1)):
        try:
            with np.errstate(all="ignore"):  # the diverging sweeps overflow
                out = list(conformal_splitting_step(m, x, h))
        except ConvergenceError as exc:
            out = [str(exc), exc.row, exc.state]
        yield f"conformal_splitting_step.circle-quadratic.{label}.h{h}.refusal", digest(out)


# every registered flow at its defaults, and the ensemble and full Mane drifts
ONE_ROW_MODELS = tuple((name, name, {}) for name in models.registered_models()
                       if models.instantiate_model(name).kind == models.FLOW) + (
    ("damped-mechanical-d2", "damped-mechanical", ENSEMBLE_MODELS[0][1]),
    ("mane-d2", "mane", ENSEMBLE_MODELS[2][1]), ("mane-full", "mane", MANE_FULL))


def one_row_digests(seed):
    """One-row `flow_ensemble` of every flow, forward and on its time-reversed
    view, with the Lee channel too where the model has one, and
    `classify_ensemble` of the conformal pairs at N = 1 and 100."""
    rng = np.random.default_rng([seed, 61])
    for label, name, params in ONE_ROW_MODELS:
        m = models.instantiate_model(name, params)
        x = models.sample_states(m, 1, rng, 1.0)
        for view, model in (("forward", m), ("reversed", time_reversed_view(m))):
            for racc in (False, True) if m.eta is not None else (False,):
                out = flow_ensemble(model, x, 2.0, 0.01, racc=racc)
                yield (f"flow_ensemble.seed{seed}.{label}.{view}{'.racc' * racc}.n1",
                       digest(list(out)))
    for name in ("t2-pair-theta1", "t2-pair-theta2", "lee-twisted-t1t2"):
        m = models.instantiate_model(name)
        for n in (1, 100):
            res = classify_ensemble(m, models.sample_states(m, n, rng, 1.0), 0.5)
            yield f"classify_ensemble.seed{seed}.{name}.T0.5.n{n}", digest(
                [[c.verdict, c.r_slope, c.omega_H_max, c.min_return_dist, c.r_abs_max]
                 for c in res])


def analytic_lift_digests(seed):
    """The analytic-dH contact lift's DX and eta_X, and a tangent run of it."""
    rng = np.random.default_rng([seed, 71])
    lifted = models.contact_lift(
        lambda y: math.cos(TWO_PI * y[2]) + 0.3 * math.sin(TWO_PI * y[0]), (0.5, -0.2),
        dH=lambda y: TWO_PI * np.array(
            [0.3 * math.cos(TWO_PI * y[0]), 0.0, -math.sin(TWO_PI * y[2])]))
    xs = models.sample_states(lifted, 64, rng)
    for name in ("DX", "eta_X"):
        yield f"contact_lift_dH.seed{seed}.{name}.n64", digest(
            np.asarray(getattr(lifted, name)(xs)))
    traj = integrate_variational(lifted, xs[0], (0.0, 1.0), samples=11)
    yield f"integrate_variational.seed{seed}.contact_lift_dH.T1", digest(
        [traj.times, traj.states, traj.frames, traj.r_accum])


# the block kernels' cases: Mane drifts with full and partly zero
# coefficients, and damped-mechanical's coupled potential with a zero cosine
# column and its potential with no cosine term
BLOCK_MODELS = (
    ("mane-d2-full", "mane", {"alpha": 0.5, "d": 2, "y0": (0.2, -0.0),
                              "y_sin": [[0.7, -0.3], [1.1, 0.4]],
                              "y_cos": [[-0.5, 0.9], [0.25, -1.3]]}),
    ("mane-d2-mixed-zeros", "mane", {"alpha": 0.5, "d": 2, "y0": 0.1,
                                     "y_sin": [[0.0, 0.6], [0.8, 0.0]],
                                     "y_cos": [[0.3, 0.0], [0.0, 0.0]]}),
    ("damped-mechanical-cross-one-cos", "damped-mechanical",
     {"alpha": 0.5, "d": 2, "v_cos": (1.0, 0.0), "v_cross": 0.4}),
    ("damped-mechanical-no-cos", "damped-mechanical", {"alpha": 0.5, "d": 1, "v_cos": 0.0}),
)


def _screen_pair():
    """theta_i' = theta_i^2, r_0' = 0 and r_1' = r_1^2 on T^2 x R^2."""
    def X(x, out=None):
        out = np.empty_like(x) if out is None else out
        out[..., :2] = x[..., :2] ** 2
        out[..., 2] = 0.0
        out[..., 3] = x[..., 3] ** 2
        return out

    return models.ModelSpec(name="screen-pair", spec=CoordinateSpec((ANGLE, ANGLE, LINE, LINE)),
                            kind=models.FLOW, params={}, X=X, Omega=lambda x: np.eye(4))


# rows that die through the second line column, a non-finite angle, and a
# line coordinate at the threshold 1e8 and just above it, each with rows
# that live to t = 2
ABOVE = float(np.nextafter(1e8, np.inf))
SCREEN_ROWS = {
    "second-line-column": [[0.05, 0.1, 0.5, 4.0], [0.05, 0.1, 0.5, 0.25],
                           [0.1, 0.05, -0.5, 8.0], [0.1, 0.05, -0.5, -1.0]],
    "non-finite-angle": [[0.95, 0.1, 0.5, 0.25], [0.05, 0.1, 0.5, 0.25],
                         [0.1, 0.05, -0.5, -1.0]],
    "at-threshold": [[0.05, 0.1, 1e8, 0.25], [0.05, 0.1, -1e8, -1.0], [0.1, 0.05, 0.5, 0.25]],
    "above-threshold": [[0.05, 0.1, ABOVE, 0.25], [0.05, 0.1, -ABOVE, -1.0],
                        [0.1, 0.05, 0.5, 0.25]],
}


def block_digests(seed):
    """`flow_ensemble` and `transport_tangents` at N = 2 and 33 on the block
    kernels, with rows of zero momentum."""
    rng = np.random.default_rng([seed, 73])
    for label, name, params in BLOCK_MODELS:
        m = models.instantiate_model(name, params)
        for n in (2, 33):
            states = _at_rest(m, models.sample_states(m, n, rng, 1.0))
            out = flow_ensemble(m, states, 1.0, 0.01)
            yield f"flow_ensemble.seed{seed}.{label}.n{n}", digest(list(out))
            out = transport_tangents(m, states, rng.standard_normal((n, m.dim)), 0.2)
            yield f"transport_tangents.seed{seed}.{label}.n{n}", digest(list(out))


def screen_digests():
    """The fixed-step engine's screen on each case of SCREEN_ROWS."""
    m = _screen_pair()
    with np.errstate(over="ignore", invalid="ignore"):
        for label, rows in SCREEN_ROWS.items():
            out = flow_ensemble(m, np.array(rows), 2.0, 0.01)
            yield f"flow_ensemble.screen.{label}", digest(list(out))


# the one-state kernels' extreme entries
SPECIAL_VALUES = (np.inf, -np.inf, np.nan, -np.nan, -0.0, 1e300, 5e-324)


def one_state_digests():
    """X, X_DXv and X_etaX of each model of ONE_ROW_MODELS on one state at a
    time, on states with entries from SPECIAL_VALUES."""
    for label, name, params in ONE_ROW_MODELS:
        m = models.instantiate_model(name, params)
        for evaluator, w in (("X", m.dim), ("X_DXv", 2 * m.dim), ("X_etaX", m.dim + 1)):
            f = getattr(m, evaluator)
            if f is None:
                continue
            states = [np.full(w, v) for v in SPECIAL_VALUES] + [
                np.where(np.arange(w) == j, v, 0.3) for j in range(w) for v in SPECIAL_VALUES]
            with np.errstate(invalid="ignore", over="ignore"):
                yield f"{evaluator}.one_state.{label}", digest([f(x) for x in states])


# (column, value) of the starts that die in tile_digests' batches: an
# angle past 1e308 goes nan within a step, a momentum of 1e9 passes the
# blow-up threshold at the first step, one of 1.7e308 overflows to inf
TILE_DEATHS = {
    "damped-mechanical": ((0, 1.7e308), (2, 1e9), (3, -1.7e308)),
    "t2-pair-theta2": ((1, 1.7e308), (0, -1.7e308), (0, np.nan)),
}


def _dying(m, x):
    """x with a start of TILE_DEATHS on every row i with i % 64 in (0, 1,
    63), and on the last row: a neighbour of every tile edge at a multiple
    of 64 rows."""
    rows = [i for i in range(len(x)) if i % 64 in (0, 1, 63)] + [len(x) - 1]
    deaths = TILE_DEATHS[m.name]
    for j, i in enumerate(rows):
        col, value = deaths[j % len(deaths)]
        x[i, col] = value
    return x


def tile_digests(seed):
    """Batches that the fixed-step engine steps in tiles, with rows dying
    next to every multiple of 64 rows (_dying): damped-mechanical d = 2
    `flow_ensemble` at N = 16384 and `transport_tangents` at N = 4160, and
    t2-pair-theta2's `classify_ensemble` at N = 16384 over T = 0.01."""
    rng = np.random.default_rng([seed, 37])
    m = models.instantiate_model("damped-mechanical", ENSEMBLE_MODELS[0][1])
    with np.errstate(invalid="ignore", over="ignore"):
        out = flow_ensemble(m, _dying(m, models.sample_states(m, 16384, rng, 1.0)), 0.1, 0.01)
        yield f"flow_ensemble.seed{seed}.damped-mechanical.dying.n16384", digest(list(out))
        states = _dying(m, models.sample_states(m, 4160, rng, 1.0))
        out = transport_tangents(m, states, rng.standard_normal((4160, m.dim)), 0.01)
        yield f"transport_tangents.seed{seed}.damped-mechanical.dying.n4160", digest(list(out))
        m = models.instantiate_model("t2-pair-theta2")
        res = classify_ensemble(m, _dying(m, models.sample_states(m, 16384, rng, 1.0)), 0.01)
    yield f"classify_ensemble.seed{seed}.t2-pair-theta2.dying.n16384", digest(
        [[c.verdict, c.r_slope, c.omega_H_max, c.min_return_dist, c.r_abs_max] for c in res])


def cli_configs(seed):
    """Config text per run: each operation once, verify at scope geometry,
    every integrator field read at least once, and last the loop and
    conformality checks of diagnose, each setting only the keys its check
    declares (loop reads diagnose.t, conformality no key of its own)."""
    rng = np.random.default_rng([seed, 31])
    q, p = rng.uniform(0.0, 1.0), rng.standard_normal()
    theta, r = rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5)
    guess = 0.01 + rng.uniform(-0.005, 0.005)
    t_loop = rng.uniform(0.5, 1.5)
    damped = "model.name = damped-mechanical\nmodel.alpha = 0.5\nmodel.v_cos = 1.0\n"
    return {
        "simulate": (
            "run.operation = simulate\n" + damped
            + f"simulate.x0 = ({q!r}, {p!r})\nsimulate.t = 2.0\nsimulate.samples = 41\n"
            "simulate.variational = true\n"
            "integrator.rel_tol = 1e-9\nintegrator.abs_tol = 1e-11\n"
            "integrator.blowup_threshold = 1e6\nintegrator.max_steps = 100000\n"
        ),
        "periodic": (
            "run.operation = periodic\nmodel.name = t2-pair-theta2\n"
            "periodic.section_axis = 0\nperiodic.section_offset = 0.0\n"
            f"periodic.direction = 1\nperiodic.guess = (0.0, {guess!r})\n"
            "periodic.backward = false\nintegrator.rel_tol = 1e-10\n"
        ),
        "diagnose": (
            "run.operation = diagnose\nmodel.name = circle-linear\nmodel.alpha = 1.0\n"
            f"diagnose.check = transport\ndiagnose.x0 = ({theta!r}, {r!r})\n"
            "diagnose.t = 1.0\nintegrator.rel_tol = 1e-10\n"
        ),
        "attractor": (
            "run.operation = attractor\n" + damped
            + "attractor.t_relax = 20.0\nattractor.grid = 9\nattractor.eps = 1e-3\n"
            "attractor.h = 0.01\n"
        ),
        "basin": (
            "run.operation = basin\n" + damped
            + "basin.grid = 12\nbasin.p_range = 3.0\nbasin.t_max = 20.0\n"
        ),
        "escape": (
            "run.operation = escape\nmodel.name = shear-contraction\nmodel.a = 0.5\n"
            "escape.box = (0.0, 1.0, -1.0, 1.0)\nescape.n_steps = 10\nescape.samples = 200\n"
        ),
        "classify": (
            "run.operation = classify\nmodel.name = t2-pair-theta2\n"
            "classify.n = 40\nclassify.T = 4.0\nrun.jobs = 2\n"
        ),
        "verify": "run.operation = verify\nverify.scope = geometry\n",
        "list-models": "run.operation = list-models\n",
        "diagnose-loop": (
            "run.operation = diagnose\nmodel.name = circle-linear\nmodel.alpha = 1.0\n"
            f"diagnose.check = loop\ndiagnose.t = {t_loop!r}\n"
        ),
        "diagnose-conformality": (
            "run.operation = diagnose\nmodel.name = nonexact-linear\n"
            "diagnose.check = conformality\n"
        ),
    }


def cli_digests(seed):
    for name, text in cli_configs(seed).items():
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out_dir = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["--config", cfg, "--out", out_dir, "--seed", str(seed),
                                 "--no-timestamp"])
            yield f"cli.seed{seed}.{name}", digest([code, out.getvalue(), err.getvalue()])
            for file in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, file), "rb") as fh:
                    data = re.sub(rb'"elapsed_s": [^,\n}]+', b'"elapsed_s": null', fh.read())
                yield f"cli.seed{seed}.{name}/{file}", digest(data.decode())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[7])
    ap.add_argument("--skip-verify", action="store_true",
                    help="digest the ensemble, fused, lean field, splitting and layout runs only")
    ap.add_argument("--residuals", action="store_true",
                    help="print each check's verdict, residual and tolerance instead")
    ap.add_argument("--cli", action="store_true",
                    help="digest one csdyn run per operation instead")
    args = ap.parse_args(argv)
    if args.cli:
        for seed in args.seeds:
            for name, value in cli_digests(seed):
                print(f"{value}  {name}", flush=True)
        return
    if args.residuals:
        print("# seed  check  verdict  residual  tolerance")
        for seed in args.seeds:
            for line in residual_lines(seed):
                print(line, flush=True)
        return
    total = hashlib.sha256()
    for seed in args.seeds:
        parts = [ensemble_digests(seed), fused_digests(seed), lean_digests(seed),
                 splitting_digests(seed), layout_digests(seed)]
        if not args.skip_verify:
            parts.insert(0, check_digests(seed))
        for part in parts:
            for name, value in part:
                line = f"{value}  {name}"
                total.update(line.encode() + b"\n")
                print(line, flush=True)
    print(f"{total.hexdigest()}  all")
    for part in (point_digests, lift_digests, pair_digests, constant_digests, pinned_digests,
                 geometry_digests, midpoint_digests):
        for seed in args.seeds:
            for name, value in part(seed):
                print(f"{value}  {name}", flush=True)
    for name, value in refusal_digests():
        print(f"{value}  {name}", flush=True)
    for part in (one_row_digests, analytic_lift_digests, block_digests):
        for seed in args.seeds:
            for name, value in part(seed):
                print(f"{value}  {name}", flush=True)
    for name, value in screen_digests():
        print(f"{value}  {name}", flush=True)
    for name, value in one_state_digests():
        print(f"{value}  {name}", flush=True)
    for seed in args.seeds:
        for name, value in tile_digests(seed):
            print(f"{value}  {name}", flush=True)


if __name__ == "__main__":
    main()
