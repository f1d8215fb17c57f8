import dataclasses
import math

import numpy as np
import pytest

from csdyn.certificates import _FLOW_MODELS
from csdyn.errors import (
    ParamError,
    PoisonedStateError,
    StructureError,
    UnknownModelError,
)
from csdyn.flows import flow_ensemble, integrate_flow, time_reversed_view, time_t_map
from csdyn.geometry import (
    fd_exterior_derivative_one_form,
    fd_exterior_derivative_two_form,
    fd_gradient,
    wedge_one_two,
)
from csdyn.models import (
    CAT_EIG_MINUS,
    FLOW,
    NONEXACT_RATIO,
    ModelSpec,
    conformal_hamiltonian_field,
    contact_lift,
    field_identity_residual,
    instantiate_model,
    rationally_dependent,
    registered_models,
    sample_states,
)

TWO_PI = 2.0 * math.pi

FLOW_CASES = [
    ("circle-linear", {"alpha": 1.0}),
    ("circle-quadratic", {"alpha": 1.0}),
    ("mane", {"alpha": 0.5, "d": 1, "y0": 0.5, "y_sin": -0.5 / TWO_PI}),
    ("mane", {"alpha": 0.5, "d": 2, "y0": (0.3, 0.1), "y_sin": 0.02}),
    ("damped-mechanical", {"alpha": 0.5, "d": 1, "v_cos": 1.0}),
    ("damped-mechanical", {"alpha": 0.5, "d": 2, "v_cos": (1.0, 1.0), "v_cross": 0.3}),
    ("t2-pair-theta1", {}),
    ("t2-pair-theta2", {}),
    ("lee-twisted-t1t2", {}),
]


def test_registry_lists_all_models():
    assert len(registered_models()) == 11


def test_radial_contraction_map():
    m = instantiate_model("radial-contraction", a=0.5)
    assert np.allclose(m.f(np.array([0.3, 2.0])), [0.3, 1.0])


def test_circle_linear_field_value():
    m = instantiate_model("circle-linear", alpha=1.0)
    x = m.X(np.array([0.25, 1.0]))
    assert np.allclose(x, [1.0, -1.0], atol=1e-14)


def test_unknown_model_rejected():
    with pytest.raises(UnknownModelError):
        instantiate_model("no-such-system")


def test_unknown_parameter_rejected():
    with pytest.raises(ParamError):
        instantiate_model("circle-linear", alpha=1.0, beta=2.0)
    # damped-mechanical's potential is a cosine: it takes no sine coefficient
    with pytest.raises(ParamError, match="unknown parameter 'v_sin'"):
        instantiate_model("damped-mechanical", v_cos=1.0, v_sin=0.4)


@pytest.mark.parametrize("name,value", [("alpha", "abc"), ("alpha", True), ("d", 1.5)])
def test_parameter_of_the_wrong_kind_rejected(name, value):
    with pytest.raises(ParamError, match=f"parameter {name!r}"):
        instantiate_model("damped-mechanical", {name: value})


def test_contraction_ratio_domain():
    with pytest.raises(ParamError):
        instantiate_model("radial-contraction", a=1.5)


def test_circle_linear_alpha_past_two_pi_builds():
    m = instantiate_model("circle-linear", alpha=7.0)
    assert np.all(np.isfinite(m.X(np.array([0.2, 0.3]))))


def test_lee_twist_independence_gate():
    instantiate_model("lee-twisted-t1t2", a1=1.0, a2=2.0)  # allowed by default
    with pytest.raises(ParamError):
        instantiate_model("lee-twisted-t1t2", a1=1.0, a2=2.0, require_independent=True)
    instantiate_model(
        "lee-twisted-t1t2", a1=math.sqrt(2.0), a2=math.sqrt(3.0),
        require_independent=True,
    )
    assert rationally_dependent(1.0, 2.0)
    assert not rationally_dependent(math.sqrt(2.0), math.sqrt(3.0))


def test_theta2_field_on_invariant_circle():
    m = instantiate_model("t2-pair-theta2")
    assert np.allclose(m.X(np.array([0.3, 0.0])), [TWO_PI, 0.0], atol=1e-14)


def test_mane_zero_section_carries_y():
    c = 0.7
    m = instantiate_model("mane", alpha=0.5, d=1, y0=c)
    assert np.allclose(m.X(np.array([0.4, 0.0])), [c, 0.0], atol=1e-15)


def test_damped_critical_point_is_equilibrium():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    assert np.allclose(m.X(np.array([0.0, 0.0])), 0.0)
    assert np.allclose(m.X(np.array([0.5, 0.0])), 0.0)


def test_circle_linear_observables():
    m = instantiate_model("circle-linear", alpha=1.0)
    x = np.array([0.25, 2.0])
    assert m.H(x) == pytest.approx(2.0)
    assert np.allclose(m.lam(x), [2.0, 0.0])
    assert np.array_equal(m.Omega(x), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_theta1_lee_form_constant():
    m = instantiate_model("t2-pair-theta1")
    rng = np.random.default_rng(0)
    for x in sample_states(m, 10, rng):
        assert np.array_equal(np.asarray(m.eta(x)), np.array([-TWO_PI, 0.0]))


# the conformal pairs' H, dH, eta and eta_X in closed form: (axis of H, eta_X)
T2_PAIR_FORMS = {
    "t2-pair-theta1": (0, lambda x: np.zeros(x.shape[:-1])),
    "t2-pair-theta2": (1, lambda x: -TWO_PI * TWO_PI * np.cos(TWO_PI * x[..., 1])),
}


def _t2_pair_closed_forms(axis, eta_X, x):
    dH = np.zeros_like(x)
    dH[..., axis] = TWO_PI * np.cos(TWO_PI * x[..., axis])
    return {"H": np.sin(TWO_PI * x[..., axis]), "dH": dH,
            "eta": np.array([-TWO_PI, 0.0]), "eta_X": eta_X(x)}


@pytest.mark.parametrize("name", sorted(T2_PAIR_FORMS))
def test_t2_pair_structure_is_the_closed_form_bit_for_bit(name):
    m = instantiate_model(name)
    batch = sample_states(m, 64, np.random.default_rng(5))
    for x in (batch, batch[0], np.empty((0, 2))):
        expected = _t2_pair_closed_forms(*T2_PAIR_FORMS[name], x)
        for key, want in expected.items():
            got = np.asarray(getattr(m, key)(x))
            assert (got.dtype, got.shape) == (want.dtype, want.shape), key
            assert got.tobytes() == want.tobytes(), key
    # each model holds its own Lee form array
    assert m.eta(batch) is not instantiate_model(name).eta(batch)


def test_lee_field_annihilates_lee_form_exactly():
    m = instantiate_model("lee-twisted-t1t2")
    rng = np.random.default_rng(1)
    for x in sample_states(m, 100, rng):
        eta = np.asarray(m.eta(x))
        xdot = np.asarray(m.X(x))
        acc = 0.0
        for i in range(4):
            acc += eta[i] * xdot[i]
        assert acc == 0.0
        assert m.eta_X(x) == 0.0


@pytest.mark.parametrize("name,params", FLOW_CASES, ids=lambda v: str(v)[:40])
def test_defining_identity_at_random_states(name, params):
    m = instantiate_model(name, params)
    rng = np.random.default_rng(2)
    assert np.max(field_identity_residual(m, sample_states(m, 1000, rng, 1.5))) < 1e-9


def _identity_model(name, params):
    if name != "contact-lift":
        return instantiate_model(name, params)
    # the lift maps the caller's one-state H and dH over the batch
    return contact_lift(
        lambda y: np.cos(TWO_PI * y[..., 2]) + 0.3 * np.sin(TWO_PI * y[..., 0]), (0.5, -0.2),
        dH=lambda y: TWO_PI * np.array(
            [0.3 * np.cos(TWO_PI * y[..., 0]), 0.0, -np.sin(TWO_PI * y[..., 2])]),
    )


@pytest.mark.parametrize("name,params", list(_FLOW_MODELS) + [("contact-lift", None)],
                         ids=lambda v: str(v)[:40])
def test_identity_residual_of_a_batch_is_the_per_state_residual(name, params):
    m = _identity_model(name, params)
    xs = sample_states(m, 64, np.random.default_rng(17), 1.5)
    batch = field_identity_residual(m, xs)
    assert batch.shape == (64,)
    single = [field_identity_residual(m, x) for x in xs]
    assert all(type(r) is float for r in single)
    assert batch.tobytes() == np.array(single).tobytes()


@pytest.mark.parametrize("name,params", FLOW_CASES, ids=lambda v: str(v)[:40])
def test_analytic_gradient_matches_finite_differences(name, params):
    m = instantiate_model(name, params)
    if m.H is None or m.dH is None:
        pytest.skip("no Hamiltonian")
    rng = np.random.default_rng(3)
    for x in sample_states(m, 10, rng, 1.0):
        fd = fd_gradient(lambda z: float(m.H(z)), x)
        assert np.max(np.abs(fd - np.asarray(m.dH(x)))) < 1e-5


def test_exact_models_have_omega_minus_dlambda():
    rng = np.random.default_rng(4)
    for name, params in (("circle-linear", {"alpha": 1.0}),
                         ("circle-quadratic", {"alpha": 1.0}),
                         ("mane", {"alpha": 0.5, "d": 1, "y0": 0.3}),
                         ("damped-mechanical", {"alpha": 0.5, "d": 1}),
                         ("radial-contraction", {"a": 0.5}),
                         ("shear-contraction", {"a": 0.5})):
        m = instantiate_model(name, params)
        assert m.exact_symplectic and m.lam is not None
        for x in sample_states(m, 100, rng, 1.0):
            dlam = fd_exterior_derivative_one_form(m.lam, x)
            assert np.max(np.abs(np.asarray(m.Omega(x)) + dlam)) < 1e-6


def test_anosov_cover_frame_checks():
    # cover-level certificates only: the s-coordinate contracts onto the
    # invariant slab, and the frame two-form does not vanish on its tangent
    m = instantiate_model("anosov-cover")
    x0 = np.array([0.2, 0.7, 0.3, 1.5])
    end = m.flow_exact(x0, 10.0)
    lam_minus = (3.0 - math.sqrt(5.0)) / 2.0
    assert end[3] == pytest.approx(1.5 * lam_minus**20, rel=1e-12)
    from csdyn.geometry import eval_two_form

    omega = np.asarray(m.Omega(x0))
    witness = eval_two_form(omega, m.frame[:, 0], m.frame[:, 1])
    assert abs(witness) > 0.9  # contracting direction pairs with the z axis


def test_lee_pair_satisfies_domega_eta_wedge_omega():
    m = instantiate_model("lee-twisted-t1t2")
    rng = np.random.default_rng(5)
    for x in sample_states(m, 20, rng):
        domega = fd_exterior_derivative_two_form(m.Omega, x)
        wedge = wedge_one_two(np.asarray(m.eta(x)), np.asarray(m.Omega(x)))
        for key, val in domega.items():
            assert abs(val - wedge[key]) < 1e-6


def test_circle_linear_liouville_decomposition():
    m = instantiate_model("circle-linear", alpha=1.0)
    rng = np.random.default_rng(6)
    for x in sample_states(m, 200, rng):
        z = np.array([0.0, -x[1]])
        assert np.max(np.abs(np.asarray(m.X(x)) - (m.alpha * z + np.asarray(m.X_sym(x))))) < 1e-12


def test_gauge_equivalence_of_rescaled_pair():
    m = instantiate_model("t2-pair-theta2")

    def omega2(x):
        return np.asarray(m.Omega(x)) / float(m.H(x))

    def eta2(x):
        return np.asarray(m.eta(x)) - np.asarray(m.dH(x)) / float(m.H(x))

    def h2(x):
        return 1.0

    def dh2(x):
        return np.zeros(2)

    gauge = conformal_hamiltonian_field(omega2, eta2, h2, dh2)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        x = rng.uniform(0.0, 1.0, size=2)
        if float(m.H(x)) < 0.05:
            continue
        checked += 1
        assert np.max(np.abs(gauge(x) - np.asarray(m.X(x)))) < 1e-9


def test_conformal_hamiltonian_field_broadcasts_over_a_batch():
    """The lee-twisted pair's (Omega, eta, H, dH) evaluators broadcast over
    (N, 4): the solved field takes the batch, row for row, and is X."""
    m = instantiate_model("lee-twisted-t1t2")
    field = conformal_hamiltonian_field(m.Omega, m.eta, m.H, m.dH)
    xs = sample_states(m, 50, np.random.default_rng(3))
    batch = field(xs)
    assert batch.shape == xs.shape
    assert batch.tobytes() == np.array([field(x) for x in xs]).tobytes()
    assert np.max(np.abs(batch - m.X(xs))) < 1e-13


def test_nonexact_linear_structure():
    m = instantiate_model("nonexact-linear")
    assert m.lam is None  # the form is not exact; no Liouville primitive
    assert m.ratio_a == pytest.approx(CAT_EIG_MINUS**2)
    assert m.ratio_a == pytest.approx(NONEXACT_RATIO)
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, -0.6])
    round_trip = m.f_inv(m.f(x))
    from csdyn.geometry import torus_distance

    assert torus_distance(m.spec, round_trip, m.spec.wrap(x)) < 1e-12


def test_contact_lift_of_unit_hamiltonian_is_lee_field():
    b = (math.sqrt(2.0), math.sqrt(3.0))
    lifted = contact_lift(lambda y: 1.0, b, dH=lambda y: np.zeros(3))
    lee = instantiate_model("lee-twisted-t1t2", a1=b[0], a2=b[1])
    rng = np.random.default_rng(8)
    for x in sample_states(lee, 100, rng):
        dev = np.max(np.abs(np.asarray(lifted.X(x)) - np.asarray(lee.X(x))))
        assert dev <= 1e-12


def test_contact_lift_geodesic_for_zero_twist():
    lifted = contact_lift(lambda y: 1.0, (0.0, 0.0), dH=lambda y: np.zeros(3))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    c, s = math.cos(TWO_PI * 0.3), math.sin(TWO_PI * 0.3)
    assert np.allclose(lifted.X(x), [c, s, 0.0, 0.0], atol=1e-15)


def test_contact_lift_fiber_hamiltonian_against_contact_identities():
    # H(x, v) = cos(2 pi v); verify alpha(X) = H and
    # i_X d(alpha) = (dH.R) alpha - dH by central differences
    H3 = lambda y: math.cos(TWO_PI * y[2])
    lifted = contact_lift(H3, (0.0, 0.0), dH=lambda y: np.array(
        [0.0, 0.0, -TWO_PI * math.sin(TWO_PI * y[2])]))
    rng = np.random.default_rng(9)
    for x in sample_states(lifted, 25, rng):
        y = x[:3]
        c, s = math.cos(TWO_PI * y[2]), math.sin(TWO_PI * y[2])
        alpha = np.array([c, s, 0.0])
        dalpha = np.zeros((3, 3))
        dalpha[2, 0], dalpha[0, 2] = -TWO_PI * s, TWO_PI * s
        dalpha[2, 1], dalpha[1, 2] = TWO_PI * c, -TWO_PI * c
        reeb = np.array([c, s, 0.0])
        xc = np.asarray(lifted.X(x))[:3]
        assert abs(float(alpha @ xc) - H3(y)) < 1e-9
        dh = fd_gradient(lambda z: H3(z), y)
        lhs = xc @ dalpha
        rhs = float(dh @ reeb) * alpha - dh
        assert np.max(np.abs(lhs - rhs)) < 1e-6
        # fiber Hamiltonian gives the horizontal unit field
        assert np.allclose(np.asarray(lifted.X(x)), [1.0, 0.0, 0.0, 0.0], atol=1e-9)


def test_contact_lift_evaluators_broadcast_over_a_batch():
    # the caller's H and dH take one state; the lift maps them over any leading axes
    lifted = _analytic_lift((0.5, 0.25))
    identity = lambda x: field_identity_residual(lifted, x)
    for lead in ((3,), (8, 8)):
        n = int(np.prod(lead))
        xs = sample_states(lifted, n, np.random.default_rng(13)).reshape(lead + (4,))
        for f, tail in ((lifted.X, (4,)), (lifted.DX, (4, 4)), (lifted.H, ()),
                        (lifted.dH, (4,)), (lifted.eta_X, ()), (identity, ())):
            batch = np.asarray(f(xs))
            assert batch.shape == lead + tail
            assert batch.tobytes() == np.array([f(x) for x in xs.reshape(n, 4)]).tobytes()
    assert type(lifted.H(xs[0, 0])) is float
    assert type(identity(xs[0, 0])) is float


@pytest.mark.parametrize("beta", [(0.1, 0.2, 0.3), (0.5,), (math.nan, 0.0), (0.0, -math.inf),
                                  0.5, ((0.1, 0.2),), (0.1, "x"), "ab", None])
def test_contact_lift_takes_beta_as_two_finite_numbers(beta):
    # (0.1, 0.2, 0.3) lost its third entry, (0.5,) raised IndexError and
    # (nan, 0) gave a nan theta-component
    with pytest.raises(ParamError, match="two finite numbers"):
        contact_lift(lambda y: 1.0, beta, dH=lambda y: np.zeros(3))
    lifted = contact_lift(lambda y: 1.0, np.array([1, 2]), dH=lambda y: np.zeros(3))
    assert lifted.params == {"beta": (1.0, 2.0)}


@pytest.mark.parametrize("H,dH", [(None, lambda y: np.zeros(3)), (lambda y: 1.0, None),
                                  (1.0, np.zeros(3))], ids=["no-H", "no-dH", "arrays"])
def test_contact_lift_takes_h_and_dh_as_callables(H, dH):
    # refused when built, not with a bare TypeError at the first evaluation
    with pytest.raises(ParamError, match="H and its gradient dH as callables"):
        contact_lift(H, (0.5, 0.25), dH)


def test_contact_lift_of_an_empty_batch_is_empty():
    # the caller's H and dH are never called; the lift's shapes come from the batch
    def H3(y):
        raise AssertionError("H called on an empty batch")

    lifted = contact_lift(H3, (0.5, 0.25), dH=H3)
    xs = np.empty((0, 4))
    for f, tail in ((lifted.X, (4,)), (lifted.jacobian, (4, 4)), (lifted.H, ()),
                    (lifted.dH, (4,)), (lifted.eta_X, ()),
                    (lambda x: field_identity_residual(lifted, x), ())):
        out = np.asarray(f(xs))
        assert out.shape == (0,) + tail and out.dtype == float
        assert np.asarray(f(xs.reshape(2, 0, 4))).shape == (2, 0) + tail


def test_identity_residual_requires_structure():
    m = instantiate_model("anosov-cover")
    with pytest.raises(StructureError):
        field_identity_residual(m, np.zeros(4))


def test_model_spec_is_frozen():
    import dataclasses

    m = instantiate_model("circle-linear", alpha=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.alpha = 3.0
    assert m.alpha == 1.0


@pytest.mark.parametrize("name", ["circle-linear", "mane", "damped-mechanical"])
def test_time_reversed_view_has_no_splitting_parts(name):
    """A view does not split: replace would otherwise keep the forward
    X_sym and DX_sym."""
    m = instantiate_model(name)
    view = time_reversed_view(m)
    assert m.cotangent_splittable and m.X_sym is not None and m.DX_sym is not None
    assert not view.cotangent_splittable
    assert view.X_sym is view.DX_sym is None


# ---------------------------------------------------------------------------
# Jacobian oracle: DX against central differences of X, on batches
# ---------------------------------------------------------------------------

def _central_differences(f, xs, h=1e-6):
    cols = []
    for j in range(xs.shape[-1]):
        e = np.zeros(xs.shape[-1])
        e[j] = h
        cols.append((np.asarray(f(xs + e)) - np.asarray(f(xs - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def _analytic_lift(beta=(0.5, -0.2)):
    # DX takes H's Hessian from first differences of dH
    return contact_lift(
        lambda y: math.cos(TWO_PI * y[2]) + 0.3 * math.sin(TWO_PI * y[0]), beta,
        dH=lambda y: TWO_PI * np.array(
            [0.3 * math.cos(TWO_PI * y[0]), 0.0, -math.sin(TWO_PI * y[2])]
        ),
    )


def _bare_lift():
    # an H with x2 in its x1 harmonic, so that dH and the Hessian are dense
    return contact_lift(
        lambda y: math.cos(TWO_PI * y[2]) + 0.3 * y[1] * math.sin(TWO_PI * y[0]), (0.5, -0.2),
        dH=lambda y: np.array([0.3 * TWO_PI * y[1] * math.cos(TWO_PI * y[0]),
                               0.3 * math.sin(TWO_PI * y[0]), -TWO_PI * math.sin(TWO_PI * y[2])]))


JACOBIAN_CASES = FLOW_CASES + [("anosov-cover", {}), ("contact-lift", None)]


@pytest.mark.parametrize("name,params", JACOBIAN_CASES, ids=lambda v: str(v)[:40])
def test_jacobian_broadcasts_and_matches_central_differences(name, params):
    m = _analytic_lift() if params is None else instantiate_model(name, params)
    xs = sample_states(m, 16, np.random.default_rng(11), 1.0)
    J = m.jacobian(xs)
    assert J.shape == (16, m.dim, m.dim)
    assert np.max(np.abs(J - _central_differences(m.X, xs))) < 1e-6
    for x, row in zip(xs, J):
        assert np.array_equal(m.jacobian(x), row)
    assert m.jacobian(xs.reshape(4, 4, m.dim)).shape == (4, 4, m.dim, m.dim)


CONTRACT_MODELS = {
    **{name: lambda name=name: instantiate_model(name) for name in registered_models()
       if instantiate_model(name).kind == FLOW},
    "contact-lift": _analytic_lift,
    "contact-lift-bare": _bare_lift,
}


@pytest.mark.parametrize("name", sorted(CONTRACT_MODELS))
def test_every_flow_states_dx_and_with_a_lee_form_eta_x(name):
    m = CONTRACT_MODELS[name]()
    assert m.DX is not None
    assert (m.eta_X is not None) == (m.eta is not None)


@pytest.mark.parametrize("lift", [_analytic_lift, _bare_lift], ids=["dH", "bare"])
def test_contact_lift_eta_x_is_the_lee_form_on_its_field(lift):
    m = lift()
    xs = sample_states(m, 16, np.random.default_rng(11), 1.0)
    eta_on_x = np.sum(np.broadcast_to(m.eta(xs), xs.shape) * m.X(xs), axis=-1)
    assert np.max(np.abs(m.eta_X(xs) - eta_on_x)) < 1e-12


def test_analytic_lift_jacobian_is_within_1e_8_of_its_field_differences():
    # the Hessian from first differences of dH
    m = _analytic_lift()
    xs = sample_states(m, 16, np.random.default_rng(11), 1.0)
    assert np.max(np.abs(m.DX(xs) - _central_differences(m.X, xs))) < 1e-8


SPLITTABLE_CASES = [c for c in FLOW_CASES
                    if instantiate_model(c[0], c[1]).cotangent_splittable]


# (exact_symplectic, conformal_pair, cotangent_splittable, mechanical); a
# time-t map keeps the first two, a time-reversed view all but splitting
STRUCTURE_FLAGS = {
    "anosov-cover": (False, False, False, False),
    "circle-linear": (True, False, True, False),
    "circle-quadratic": (True, False, True, False),
    "damped-mechanical": (True, False, True, True),
    "lee-twisted-t1t2": (False, True, False, False),
    "mane": (True, False, True, False),
    "nonexact-linear": (False, False, False, False),
    "radial-contraction": (True, False, False, False),
    "shear-contraction": (True, False, False, False),
    "t2-pair-theta1": (False, True, False, False),
    "t2-pair-theta2": (False, True, False, False),
}


def _flags(m):
    return (m.exact_symplectic, m.conformal_pair, m.cotangent_splittable, m.mechanical)


def test_jacobian_cases_cover_every_registered_flow():
    models = [instantiate_model(n) for n in registered_models()]
    assert {m.name for m in models if m.kind == FLOW} == {
        name for name, params in JACOBIAN_CASES if params is not None
    }
    assert {m.name for m in models if m.cotangent_splittable} == {
        name for name, _ in SPLITTABLE_CASES
    }
    assert sorted(STRUCTURE_FLAGS) == registered_models()
    for m in models:
        exact, pair, split, mech = STRUCTURE_FLAGS[m.name]
        assert _flags(m) == (exact, pair, split, mech), m.name
        if m.kind == FLOW:
            assert _flags(time_t_map(m, 0.5)) == (exact, pair, False, False), m.name
            assert _flags(time_reversed_view(m)) == (exact, pair, False, mech), m.name


def test_structure_flags_are_read_off_the_evaluators():
    fields = {f.name for f in dataclasses.fields(ModelSpec)}
    assert not fields & {"exact_symplectic", "conformal_pair", "mechanical"}
    m = instantiate_model("damped-mechanical")
    bare = dataclasses.replace(m, lam=None, eta=m.lam, grad_V=None)
    assert _flags(bare) == (False, True, True, False)


@pytest.mark.parametrize("name,params", SPLITTABLE_CASES, ids=lambda v: str(v)[:40])
def test_hamiltonian_part_jacobian_and_liouville_decomposition(name, params):
    m = instantiate_model(name, params)
    xs = sample_states(m, 16, np.random.default_rng(12), 1.0)
    assert np.max(np.abs(m.DX_sym(xs) - _central_differences(m.X_sym, xs))) < 1e-6
    for x, row in zip(xs, m.DX_sym(xs)):
        assert np.array_equal(m.DX_sym(x), row)
    # X = alpha*Z + X_H with the Liouville field Z = -p d/dp
    z = np.zeros_like(xs)
    z[:, m.d:] = -xs[:, m.d:]
    scale = 1.0 + np.max(np.abs(m.X(xs)))
    assert np.max(np.abs(m.X(xs) - m.X_sym(xs) - m.alpha * z)) < 1e-14 * scale


# every registered flow, with a Mane drift that keeps all its trig terms
LAYOUT_CASES = JACOBIAN_CASES[:-1] + [
    ("mane", {"alpha": 0.5, "d": 2, "y0": 0.3, "y_sin": ((0.4, -0.2), (0.1, 0.3)),
              "y_cos": ((0.0, 0.25), (-0.15, 0.0))}),
    ("damped-mechanical", {"alpha": 0.5, "d": 2, "v_cos": (1.0, 0.0), "v_cross": 0.4}),
]


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("name,params", LAYOUT_CASES, ids=lambda v: str(v)[:40])
def test_evaluators_give_the_same_bytes_on_a_column_major_batch(name, params, reverse):
    """The fixed-step engine hands evaluators column-major (N, w) views of
    its batch.  Each evaluator gives the bytes it gives on a C-ordered copy,
    non-finite rows and signed zeros included, and X keeps the layout."""
    m = instantiate_model(name, params)
    if reverse:
        m = time_reversed_view(m)
    rng = np.random.default_rng(21)
    n, rows = m.dim, 64
    y = rng.standard_normal((rows, 2 * n + 1))
    y[:, :n] = sample_states(m, rows, rng, 1.0)
    for i, v in enumerate((0.0, -0.0, np.inf, -np.inf, np.nan) * 4):
        y[i, i % (2 * n + 1)] = v
    col = np.asfortranarray(y)
    assert col[:, :n].T.flags.c_contiguous
    with np.errstate(invalid="ignore"):
        for f in (m.X, m.DX, m.H, m.eta_X):
            if f is not None:
                assert f(col[:, :n]).tobytes() == f(np.ascontiguousarray(y[:, :n])).tobytes()
        assert m.X(col[:, :n]).T.flags.c_contiguous
        for f, w in ((m.X_DXv, 2 * n), (m.X_etaX, n + 1)):
            if f is not None:
                c = np.ascontiguousarray(y[:, :w])
                assert f(col[:, :w], np.empty_like(col[:, :w])).tobytes() == f(
                    c, np.empty_like(c)).tobytes()


# with damped-mechanical's cosine term negative and off
FIELD_CASES = LAYOUT_CASES + [
    ("damped-mechanical", {"alpha": 0.5, "d": 1, "v_cos": -0.4}),
    ("damped-mechanical", {"alpha": 0.5, "d": 1, "v_cos": 0.0}),
    ("damped-mechanical", {"alpha": 0.5, "d": 2, "v_cos": 0.0, "v_cross": 0.4}),
    ("contact-lift", None), ("contact-lift-bare", None),
]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rows", [1, 33])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("name,params", FIELD_CASES, ids=lambda v: str(v)[:40])
def test_field_writes_into_out_the_bytes_it_allocates(name, params, reverse, rows, order):
    """X(x, out) writes every entry of out, returns out and gives the bytes
    of X(x), whose new array is laid out like x, for a one-row and a larger
    block in either layout; so do the fused fields on rows [x | v | r]."""
    if params is None:
        m = _analytic_lift() if name == "contact-lift" else _bare_lift()
    else:
        m = instantiate_model(name, params)
    if reverse:
        m = time_reversed_view(m)
    rng = np.random.default_rng(rows)
    n = m.dim
    y = np.concatenate([sample_states(m, rows, rng, 1.0),
                        rng.standard_normal((rows, n + 1))], axis=1)
    for f, w in ((m.X, n), (m.X_DXv, 2 * n), (m.X_etaX, n + 1)):
        if f is None:
            continue
        x = np.array(y[:, :w], order=order)
        out = np.full_like(x, np.nan)
        fresh = f(x)
        assert f(x, out) is out
        assert fresh.tobytes(order="A") == out.tobytes(order="A")
        assert fresh.flags.c_contiguous == x.flags.c_contiguous
        assert fresh.flags.f_contiguous == x.flags.f_contiguous


def test_model_spec_rejects_retired_dx_batch():
    m = instantiate_model("circle-linear")
    with pytest.raises(ParamError, match="DX_batch"):
        ModelSpec(name="x", spec=m.spec, kind=FLOW, params={}, X=m.X,
                  DX_batch=m.DX, Omega=m.Omega)


# ---------------------------------------------------------------------------
# damped-mechanical evaluators, for every pattern of potential coefficients
# ---------------------------------------------------------------------------

POTENTIAL_CASES = {
    "cos-only": {"d": 1, "v_cos": 1.0},
    "neither": {"d": 1, "v_cos": 0.0},
    "cross": {"d": 2, "v_cos": (1.0, 0.0), "v_cross": 0.4},
    "cross-only": {"d": 2, "v_cos": 0.0, "v_cross": -1.1},
    "negative-cos": {"d": 1, "v_cos": -0.4},
}


def _full_potential(params):
    """V, grad V and Hess V with the cosine term evaluated."""
    d = params["d"]
    vc = np.broadcast_to(np.asarray(params.get("v_cos", 1.0), dtype=float), (d,))
    vx = params.get("v_cross", 0.0)

    def V(q):
        cross = vx * np.cos(TWO_PI * (q[..., 0] - q[..., -1]))
        return np.sum(vc * np.cos(TWO_PI * q), -1) + cross

    def grad_V(q):
        g = TWO_PI * -vc * np.sin(TWO_PI * q)
        if d == 2:
            c = -vx * TWO_PI * np.sin(TWO_PI * (q[..., 0] - q[..., 1]))
            g = g + np.stack([c, -c], -1)
        return g

    def hess_V(q):
        diag = TWO_PI**2 * -vc * np.cos(TWO_PI * q)
        out = diag[..., :, None] * np.eye(d)
        if d == 2:
            c = -vx * TWO_PI**2 * np.cos(TWO_PI * (q[..., 0] - q[..., 1]))
            out = out + c[..., None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        return out

    return V, grad_V, hess_V


@pytest.mark.parametrize("case", sorted(POTENTIAL_CASES))
def test_damped_mechanical_evaluators_match_the_full_formula(case):
    params = POTENTIAL_CASES[case]
    m = instantiate_model("damped-mechanical", alpha=0.5, **params)
    d = m.d
    V, grad_V, hess_V = _full_potential(params)
    xs = sample_states(m, 24, np.random.default_rng(13), 1.0)
    q, p = xs[:, :d], xs[:, d:]
    close = dict(rtol=1e-13, atol=1e-12)
    np.testing.assert_allclose(m.grad_V(q), grad_V(q), **close)
    np.testing.assert_allclose(m.hess_V(q), hess_V(q), **close)
    np.testing.assert_allclose(m.H(xs), 0.5 * np.sum(p * p, -1) + V(q), **close)
    np.testing.assert_allclose(m.dH(xs), np.concatenate([grad_V(q), p], -1), **close)
    np.testing.assert_allclose(
        m.X(xs), np.concatenate([p, -grad_V(q) - 0.5 * p], -1), **close)
    np.testing.assert_allclose(
        m.X_sym(xs), np.concatenate([p, -grad_V(q)], -1), **close)
    # derivatives against central differences of the evaluator one order up
    assert np.max(np.abs(m.hess_V(q) - _central_differences(m.grad_V, q))) < 1e-5
    assert np.max(np.abs(m.dH(xs) - _central_differences(m.H, xs))) < 1e-6
    # a single state gives the row of the batch
    for f, arg in ((m.grad_V, q), (m.hess_V, q), (m.X, xs), (m.dH, xs)):
        assert np.array_equal(f(arg[5]), f(arg)[5])


# ---------------------------------------------------------------------------
# damped-mechanical's and the T^2 pairs' fields against their column kernels
# ---------------------------------------------------------------------------

def _column_damped_field(params, y, a, tangent=False):
    """X = (p, -grad V(q) - a p) of the states y, and with `tangent` the rows
    [X | DX v] of y = [x | v], column by column: damped-mechanical's kernel
    before its block form, the reference the fields match bit for bit."""
    d = params["d"]
    vc = np.broadcast_to(np.asarray(params.get("v_cos", 1.0), dtype=float), (d,))
    vx = float(params.get("v_cross", 0.0))
    cos_on = bool(vc.any())
    n, nvc = 2 * d, -vc
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    yt, ot = y.T, out.T
    q, pv = yt[:d], yt[d:n]
    if cos_on:
        w = np.multiply(TWO_PI, q, order="C")
        s = np.sin(w)
        c = np.cos(w) if tangent else None
    if vx:
        u = TWO_PI * (q[0] - q[1])
        cross = -vx * TWO_PI * np.sin(u)
    ot[:d] = pv
    for i in range(d):
        g = TWO_PI * (nvc[i] * s[i] if cos_on else 0.0)
        if vx:
            g = g + cross if i == 0 else g - cross
        ot[d + i] = -g - a * pv[i] if a else -g
    if tangent:
        vq, vp = yt[n : n + d], yt[n + d :]
        if vx:
            cc = -vx * (TWO_PI**2) * np.cos(u)
        np.add(vp, 0.0, out=ot[n : n + d])
        for i in range(d):
            hv = (TWO_PI**2) * (nvc[i] * c[i] if cos_on else 0.0)
            if vx:
                hv = hv + cc
            t = -hv * vq[i] + -a * vp[i]
            if vx:
                t = t + cc * vq[1 - i]
            ot[n + d + i] = t + 0.0
    return out


def _column_t2_field(name, y, lee=False):
    """A T^2 pair's X, and with `lee` the rows [X | eta(X)] of y = [x | r],
    column by column: the kernel before the ufunc chains, the reference."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    yt, ot = y.T, out.T
    if name == "t2-pair-theta1":
        ot[0] = 0.0
        ot[1] = -(2.0 * math.sqrt(2.0) * math.pi) * np.sin(TWO_PI * (0.125 + yt[0]))
        if lee:
            ot[2] = 0.0
        return out
    w = TWO_PI * yt[1]
    c = np.cos(w)
    ot[0] = TWO_PI * c
    ot[1] = -TWO_PI * np.sin(w)
    if lee:
        ot[2] = (-TWO_PI * TWO_PI) * c
    return out


def _kernel_rows(m, rows, width, order):
    """rows [x | extra columns] with signed zero momenta and extra entries,
    laid out in order, and the one-state case."""
    rng = np.random.default_rng([rows, width])
    n = m.dim
    y = np.concatenate([sample_states(m, rows, rng, 1.0),
                        rng.standard_normal((rows, width - n))], axis=1)
    y[::3, m.d : n] = 0.0
    y[1::3, m.d : n] = -0.0
    y[2::4, n:] = 0.0
    y[3::4, n:] = -0.0
    return np.array(y, order=order)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rows", [1, 2, 7, 2049])
@pytest.mark.parametrize("case", sorted(POTENTIAL_CASES))
def test_damped_mechanical_fields_are_the_column_kernel_bit_for_bit(case, rows, order):
    """X, X_sym and X_DXv, on numpy scalars for one row and on (d, N)
    blocks for more, give the column kernel's bytes: signed zero momenta
    and tangents, either layout, one state, a batch of three axes, and the
    time-reversed view's X."""
    params = POTENTIAL_CASES[case]
    m = instantiate_model("damped-mechanical", alpha=0.5, **params)
    view, n = time_reversed_view(m), m.dim
    y = _kernel_rows(m, rows, 2 * n, order)
    for block in (y, y[0], y[None]):
        x = block[..., :n]
        for field, a in ((m.X, 0.5), (m.X_sym, 0.0)):
            assert field(x).tobytes() == _column_damped_field(params, x, a).tobytes()
        assert view.X(x).tobytes() == (-_column_damped_field(params, x, 0.5)).tobytes()
        want = _column_damped_field(params, block, 0.5, tangent=True)
        assert m.X_DXv(block).tobytes() == want.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rows", [1, 2, 7, 2049])
@pytest.mark.parametrize("name", sorted(T2_PAIR_FORMS))
def test_t2_pair_fields_are_the_column_kernel_bit_for_bit(name, rows, order):
    """X and X_etaX, on numpy scalars for one row and by ufuncs writing
    into out for more, give the column kernel's bytes in either layout, for
    one state, a batch of three axes and on the time-reversed view."""
    m = instantiate_model(name)
    y = _kernel_rows(m, rows, 3, order)
    for block in (y, y[0], y[None]):
        want = _column_t2_field(name, block[..., :2])
        assert m.X(block[..., :2]).tobytes() == want.tobytes()
        assert time_reversed_view(m).X(block[..., :2]).tobytes() == (-want).tobytes()
        assert m.X_etaX(block).tobytes() == _column_t2_field(name, block, lee=True).tobytes()


# ---------------------------------------------------------------------------
# the Mane field against its einsum formula
# ---------------------------------------------------------------------------

MANE_CASES = {
    # the benchmark's drift: diagonal y_sin, no y_cos
    "d1-bench": {"d": 1, "y0": 0.5, "y_sin": -0.5 / TWO_PI},
    "d2-bench": {"d": 2, "y0": 0.5, "y_sin": -0.5 / TWO_PI},
    "d1-constant-drift": {"d": 1, "y0": -0.0},
    "d2-constant-drift": {"d": 2},
    "d1-sin-cos": {"d": 1, "y0": -0.0, "y_sin": 0.3, "y_cos": -1.2},
    "d2-full": {"d": 2, "y0": (0.2, -0.0), "y_sin": [[0.7, -0.3], [1.1, 0.4]],
                "y_cos": [[-0.5, 0.9], [0.25, -1.3]]},
    "d2-cos-only": {"d": 2, "y0": -0.0, "y_cos": [[0.0, 1.5], [0.0, -2.0]]},
    "d2-mixed-zeros": {"d": 2, "y0": 0.1, "y_sin": [[0.0, 0.6], [0.8, 0.0]],
                       "y_cos": [[0.3, 0.0], [0.0, 0.0]]},
    "d2-stiff": {"d": 2, "y_sin": 300.0, "y_cos": [[0.0, 50.0], [0.0, 0.0]]},
}


def _einsum_mane_field(params, x, a, out=None):
    """(p + Y(q), -DY(q)^T p - a p) for Mane's drift Y(q) = y0 + y_sin
    sin(2 pi q) + y_cos cos(2 pi q), with DY[..., i, j] = dY_i/dq_j, summed
    by np.einsum: the formula the lean field replaced."""
    x = np.asarray(x, dtype=float)
    d = params["d"]
    y0 = np.broadcast_to(np.asarray(params.get("y0", 0.0), dtype=float), (d,))
    y_sin, y_cos = (np.asarray(params.get(key, 0.0), dtype=float) for key in ("y_sin", "y_cos"))
    y_sin, y_cos = (mat * np.eye(d) if mat.ndim == 0 else mat.reshape(d, d)
                    for mat in (y_sin, y_cos))
    q, p = x[..., :d], x[..., d:]
    s, c = np.sin(TWO_PI * q), np.cos(TWO_PI * q)
    out = np.empty(x.shape) if out is None else out
    out[..., :d] = p + (y0 + np.einsum("ij,...j->...i", y_sin, s)
                        + np.einsum("ij,...j->...i", y_cos, c))
    dy = TWO_PI * (y_sin * c[..., None, :] - y_cos * s[..., None, :])
    dyt_p = np.einsum("...j,...ji->...i", p, dy)
    out[..., d:] = -dyt_p - a * p if a else -dyt_p
    return out


def _mane_states(m, n_rows, seed):
    """Random states with signed zero angles and momenta, angles near the
    zeros of cos, and two rows of huge momenta, on which the field of the
    stiff case overflows (their sum stays finite)."""
    d = m.d
    rng = np.random.default_rng([n_rows, seed])
    x = sample_states(m, n_rows, rng, 1.0)
    x[::3, d:] = 0.0
    x[1::3, d:] = -0.0
    x[2::5, :d] = -0.0
    x[3::5, :d] = 0.0
    x[4::7, :d] = 0.25
    x[5:6, d:] *= 1e306
    x[6:7, d] = 1e308
    return x


@pytest.mark.parametrize("case", sorted(MANE_CASES))
@pytest.mark.parametrize("n_rows", [1, 7, 2049, 16384])
def test_mane_field_matches_the_einsum_formula(case, n_rows):
    """X and X_sym, from one sin and one cos pass and without the terms of
    zero coefficients, equal the einsum formula bit for bit: on a batch
    row-major (column by column) and column-major (on its blocks), on its
    first row as a (1, dim) block and as one state, on the batch as one of
    three axes, and X on the time-reversed view."""
    params = {"alpha": 0.5, **MANE_CASES[case]}
    m = instantiate_model("mane", params)
    view = time_reversed_view(m)
    x = _mane_states(m, n_rows, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # the stiff case overflows
        for block in (x, np.asfortranarray(x), x[:1], x[0], x[None]):
            for field, a in ((m.X, m.alpha), (m.X_sym, 0.0)):
                assert field(block).tobytes() == _einsum_mane_field(params, block, a).tobytes()
            want = _einsum_mane_field(params, block, m.alpha)
            assert view.X(block).tobytes() == (-want).tobytes()


@pytest.mark.parametrize("case", sorted(MANE_CASES))
@pytest.mark.parametrize("column", ["angle", "momentum"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_mane_run_from_a_non_finite_state_fails_before_the_field(case, column, value):
    """The lean field is specified on finite blocks only, and it reads no
    angle when Y is constant: a start with a non-finite entry raises
    PoisonedStateError naming its row at t0, before any field evaluation
    (rows 5 and 6 overflow the stiff field), and flow_ensemble marks the
    row dead."""
    m = instantiate_model("mane", alpha=0.5, **MANE_CASES[case])
    x = _mane_states(m, 7, 4)
    x[2, 0 if column == "angle" else m.dim - 1] = value
    with pytest.raises(PoisonedStateError) as info:
        integrate_flow(m, x, (0.0, 0.1), samples=2)
    assert (info.value.row, info.value.t) == (2, 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        assert not flow_ensemble(m, x, 0.05, h=0.01)[1][2]


def test_mane_flow_with_an_overflowing_row_matches_the_einsum_formula():
    """flow_ensemble on the lean field equals the run on the einsum formula:
    the same rows die, where momenta overflow within a step and leave nan
    states behind, and the live rows are equal bit for bit, also on the
    time-reversed view.  The lean field is specified on finite blocks only,
    so the nan bits of the dead rows may differ."""
    params = {"alpha": 0.5, **MANE_CASES["d2-stiff"]}
    m = instantiate_model("mane", params)
    x = _mane_states(m, 33, 6)
    x[7:10, 2:] = 1e306  # the stage fields overflow, then the stages are non-finite
    reference = dataclasses.replace(
        m, X=lambda x, out=None: _einsum_mane_field(params, x, m.alpha, out),
        X_sym=lambda x: _einsum_mane_field(params, x, 0.0))
    with np.errstate(invalid="ignore", over="ignore"):
        for model, ref in ((m, reference), (time_reversed_view(m), time_reversed_view(reference))):
            lean = flow_ensemble(model, x, 0.05, h=0.01)
            assert not lean[1][7:10].any() and lean[1][0]
            assert np.isnan(lean[0][7:10]).any()
            composed = flow_ensemble(ref, x, 0.05, h=0.01)
            live = lean[1]
            assert live.tobytes() == composed[1].tobytes()
            assert lean[0][live].tobytes() == composed[0][live].tobytes()
