"""Registry of the concrete dynamical systems handled by the toolkit.

Every model exposes its vector field or map together with the structural
data (two-form, Liouville/Lee forms, Hamiltonian, analytic Jacobians) that
the diagnostics certify against.  All evaluators broadcast over leading
axes, so a field can be evaluated on an (N, dim) batch of states at once.

Sign conventions
----------------
Exact-symplectic models use omega = -d(lambda) with lambda = p dq, and the
dissipative Hamiltonian field defined by i_X omega = alpha*lambda + dH with
alpha >= 0, so the flow satisfies phi_t^* omega = exp(-alpha t) omega and
the volume contracts.  Conformal-pair models carry alpha = 0; dissipation
enters through the Lee form via i_X Omega = dH - H eta.

The non-exact linear map scales its two fiber coordinates by the cube of
the contracting cat-map eigenvalue: with the torus block acting by A + A
and the registered two-form, that is the only scalar fiber scaling whose
pullback is a constant multiple of the form (eigencovector bookkeeping:
the fiber pairing covectors expand by 1/eig, so eig^3 * (1/eig) matches
the eig^2 scaling of the torus-torus part).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    KindError,
    ParamError,
    StructureError,
    UnknownModelError,
)
from .geometry import ANGLE, LINE, CoordinateSpec, fd_jacobian

TWO_PI = 2.0 * math.pi

SQRT5 = math.sqrt(5.0)
GOLDEN_CONJ = (SQRT5 - 1.0) / 2.0          # p with p^2 = 1 - p
CAT_EIG_MINUS = (3.0 - SQRT5) / 2.0        # contracting eigenvalue of [[2,1],[1,1]]
NONEXACT_RATIO = (7.0 - 3.0 * SQRT5) / 2.0  # = CAT_EIG_MINUS ** 2
NONEXACT_R_SCALE = 9.0 - 4.0 * SQRT5        # = CAT_EIG_MINUS ** 3, see docstring

MAP = "map"
FLOW = "flow"
_RELATION_MAX_COEFF = 64  # rationally_dependent's largest coefficient
_RELATION_TOL = 1e-9  # and its tolerance


@dataclass(frozen=True)
class ModelSpec:
    """A registered dynamical system with evaluators and structure flags.

    Frozen: derived models such as time-reversed views are built with
    dataclasses.replace, so a model cannot change after a view was taken.

    The flags exact_symplectic, conformal_pair and mechanical are read off
    the evaluators: lam, eta and grad_V are set.  cotangent_splittable is
    stored (a splittable flow is X = alpha Z + X_sym on T*T^d, with X/X_sym
    and DX/DX_sym one field and one Jacobian at alpha and at 0): a
    time-reversed view has no X_sym and DX_sym and does not split.

    A flow's field `X(x, out=None)` writes the field of the states x
    (..., dim) into out, an array shaped like x that must not overlap it,
    and returns out; with out None it writes into a new array laid out like
    x (np.empty_like).  Both calls give the same bits.  The integrators pass
    out, so a step allocates no field.

    Every registered flow's fields (X, X_sym and the fused fields) run on
    the row's Python floats for one state (_kernel).  Those of mane,
    damped-mechanical, circle-linear and the T^2 pairs take one of two
    forms, with the same bits.  On a column-major batch of more than one
    row, the fixed-step engine's layout, they run as a straight-line chain
    of ufunc calls on the (k, N) blocks of the transposed batch, the last
    call for each output block writing into out (_contiguous_rows; the
    chains of circle-linear and the T^2 pairs, on single columns, run on any
    batch of more than one row).  Otherwise they run column by column, on
    the row's floats for one state and on strided columns for a row-major
    batch.  Mane's term lists, fixed when the model is built, drive both
    forms.

    A flow states its Jacobian DX, and with a Lee form eta also eta_X, the
    scalar field eta(X): nothing differences X or contracts eta with X in
    their place.  A run that needs a missing one (tangent frames, the Lee
    channel) raises StructureError before its first step.

    X_sym, DX_sym, eta_X and the fused joint fields X_DXv and X_etaX are
    derived from X, DX and eta, so a replace that changes X, DX or eta_X
    must replace or clear them too.  A fused field `f(y, out=None)` writes
    a whole row block of the integrators' joint field into out (a new array
    laid out like y when None), as X does, from one set of shared
    intermediates: X_DXv the rows [X(x) | DX(x) v] of y = [x | v],
    X_etaX the rows [X(x) | eta(X(x))] of y = [x | r].  Each must equal the
    composed evaluators bit for bit on finite blocks, tangent sums included
    (they start from +0.0, as np.einsum's do); on a block with a non-finite
    entry they are unspecified, as they may leave out the products of DX's
    structural zeros (0 * inf is nan).  A time-reversed view has none.
    """

    name: str
    spec: CoordinateSpec
    kind: str
    params: dict
    alpha: float = 0.0
    ratio_a: float | None = None
    X: object = None            # flow field, (x, out=None) -> out
    DX: object = None           # Jacobian of X, (..., dim) -> (..., dim, dim)
    DX_batch: object = None     # retired, must stay None: DX broadcasts
    f: object = None            # map, state -> state
    Df: object = None           # map Jacobian
    f_inv: object = None        # closed-form inverse map
    H: object = None
    dH: object = None           # analytic gradient of H
    lam: object = None          # Liouville form coefficients
    eta: object = None          # Lee form coefficients
    eta_X: object = None        # closed-form eta(X), exact where it vanishes
    X_DXv: object = None        # fused [X | DX v], (y, out=None) -> out
    X_etaX: object = None       # fused [X | eta(X)], (y, out=None) -> out
    Omega: object = None        # two-form matrix at a state
    X_sym: object = None        # alpha = 0 Hamiltonian part (splitting)
    DX_sym: object = None
    grad_V: object = None       # mechanical models only
    hess_V: object = None
    flow_exact: object = None   # closed-form flow (x, t) -> state, if any
    cotangent_splittable: bool = False
    fiber_convex: bool = False
    h_scales: bool = False      # H o phi_t = c_t H holds along the flow
    equilibria: tuple = ()
    frame: object = None        # tangent frame matrix (anosov cover)

    def __post_init__(self):
        if self.kind not in (MAP, FLOW):
            raise ParamError(f"unknown model kind {self.kind!r}")
        if self.kind == FLOW and (self.X is None or self.f is not None):
            raise ParamError("flow models must define X and not f")
        if self.kind == MAP and (self.f is None or self.X is not None):
            raise ParamError("map models must define f and not X")
        if self.Omega is None:
            raise ParamError("models must define Omega")
        if self.DX_batch is not None:
            raise ParamError("DX_batch is retired; DX broadcasts over (..., dim)")

    @property
    def dim(self):
        return self.spec.dim

    @property
    def d(self):
        return self.spec.dim // 2

    @property
    def exact_symplectic(self):
        return self.lam is not None

    @property
    def conformal_pair(self):
        return self.eta is not None

    @property
    def mechanical(self):
        return self.grad_V is not None

    def jacobian(self, x):
        """Field Jacobian DX over (..., dim); StructureError when the model states none."""
        if self.DX is None:
            raise StructureError(f"{self.name} states no Jacobian DX")
        return self.DX(x)


def conformal_hamiltonian_field(omega_eval, eta_eval, h_eval, dh_eval):
    """Field of a conformal pair: solve i_X Omega = dH - H eta pointwise.

    Broadcasts over (..., dim) as far as the evaluators do.
    """

    def X(x):
        x = np.asarray(x, dtype=float)
        omega = np.asarray(omega_eval(x), dtype=float)
        h = np.asarray(h_eval(x), dtype=float)[..., None]
        rhs = np.asarray(dh_eval(x), dtype=float) - h * np.asarray(eta_eval(x), dtype=float)
        # i_X Omega as a covector is Omega^T X
        return np.linalg.solve(np.swapaxes(omega, -1, -2), rhs[..., None])[..., 0]

    return X


# ---------------------------------------------------------------------------
# shared canonical structures
# ---------------------------------------------------------------------------

def _canonical_omega(d):
    C = np.zeros((2 * d, 2 * d))
    C[:d, d:] = np.eye(d)
    C[d:, :d] = -np.eye(d)
    return C


def _const(matrix):
    matrix = np.asarray(matrix, dtype=float)

    def omega(x):
        return matrix

    return omega


def _tautological_lambda(d):
    def lam(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., :d] = x[..., d:]
        return out

    return lam


def _zero_eta_X(x):
    """eta(X) of a field that the Lee form annihilates."""
    return np.zeros(np.asarray(x, dtype=float).shape[:-1])


def _kernel(body):
    """The field kernel k(x, out=None, *args) -> out of body(xt, ot, *args),
    which writes the columns ot of the (..., dim) block out from the columns
    xt of x; out is a new array laid out like x when None.

    The columns are the rows of x.T and out.T, except for one state, shaped
    (dim,) or (1, dim) in either layout: then xt is the row as Python floats
    and ot a list as long, stored in out at once.  Float arithmetic, with
    _sin and _cos, costs a fraction of a numpy scalar's and rounds as a
    ufunc.  But where two nans meet, Python's float + and * keep either one,
    by whether the interpreter has specialised the operation yet, so each
    nan of the result is written as math.nan, np.nan's bits: the same state
    always gives the same bytes."""
    def kernel(x, out=None, *args):
        if out is None:
            x = np.asarray(x, dtype=float)
            out = np.empty_like(x)
        nd = x.ndim
        if nd != 1 and (nd != 2 or len(x) != 1):
            body(x.T, out.T, *args)
            return out
        row = x.tolist() if nd == 1 else x.tolist()[0]
        ot = [0.0] * len(row)
        body(row, ot, *args)
        if math.isnan(sum(ot)):
            ot = [math.nan if math.isnan(v) else v for v in ot]
        if nd == 1:
            out[...] = ot
        else:
            out[0] = ot
        return out

    return kernel


def _trig(scalar, ufunc):
    def f(v):
        """ufunc of v, a float or an array; of a float by the math module,
        whose glibc sin and cos give numpy's bits (tests/test_models.py pins
        this), and of +-inf, where math raises, math.nan."""
        if isinstance(v, float):
            try:
                return scalar(v)
            except ValueError:
                return math.nan
        return ufunc(v)

    return f


_sin, _cos = _trig(math.sin, np.sin), _trig(math.cos, np.cos)


def _contiguous_rows(xt, ot):
    """Whether a kernel body's xt and ot (_kernel) are (dim, N) blocks with
    contiguous rows, as the fixed-step engine's column-major batches give: then a
    kernel's (k, N) slices are ufunc operands as fast as one column.  A
    ufunc on a (k, N) slice of a row-major batch steps along k innermost,
    which costs more than k calls on its strided columns."""
    return (not isinstance(xt, list) and xt.ndim == 2
            and xt.strides[1] == ot.strides[1] == xt.itemsize)


def _coefficients(col):
    """A coefficient column (entry i for row i) as (entries, operand): the
    entries as floats, for arithmetic on numpy scalars, and the operand for
    a (d, N) block, a 0-d array when every entry has the same bits, which a
    ufunc broadcasts faster than the column, with the same result."""
    col = np.array(col, dtype=float).reshape(-1, 1)
    bits = col.view(np.uint64)
    return tuple(col[:, 0].tolist()), np.array(col[0, 0]) if (bits == bits[0]).all() else col


def _kind(val, default):
    """What a parameter with this default takes, and whether val is that:
    a bool, an integer, or else numbers (one, or an array of them)."""
    if isinstance(default, bool):
        return "true or false", isinstance(val, (bool, np.bool_))
    if isinstance(default, int):
        return "an integer", isinstance(val, (int, np.integer)) and not isinstance(val, bool)
    try:
        return "numbers", np.asarray(val).dtype.kind in "iuf"
    except ValueError:  # a ragged nesting
        return "numbers", False


def _get_params(defaults, params, name):
    merged = dict(defaults)
    for key, val in params.items():
        if key not in defaults:
            raise ParamError(f"unknown parameter {key!r} for model {name!r}")
        what, ok = _kind(val, defaults[key])
        if not ok:
            raise ParamError(f"parameter {key!r} of model {name!r} takes {what}, got {val!r}")
        merged[key] = val
    return merged


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------

def _contraction_map(name, params, axes, shift):
    """The exact-symplectic map (x, r) -> (x + shift, a r), a in (0, 1), on the
    chart of axes, with lambda = r dx and the canonical form."""
    p = _get_params({"a": 0.5}, params, name)
    a = float(p["a"])
    if not 0.0 < a < 1.0:
        raise ParamError(f"{name} requires a in (0, 1)")
    spec = CoordinateSpec(axes)
    df = np.diag([1.0, a])

    def f(x):
        x = np.asarray(x, dtype=float)
        return spec.wrap(np.stack([x[..., 0] + shift, a * x[..., 1]], axis=-1))

    def f_inv(x):
        x = np.asarray(x, dtype=float)
        return spec.wrap(np.stack([x[..., 0] - shift, x[..., 1] / a], axis=-1))

    return ModelSpec(
        name=name,
        spec=spec,
        kind=MAP,
        params=p,
        ratio_a=a,
        f=f,
        Df=lambda x: df,
        f_inv=f_inv,
        lam=_tautological_lambda(1),
        Omega=_const(_canonical_omega(1)),
    )


def _cotangent_flow(name, params, d, alpha, field, jac, **kwargs):
    """A splittable flow X = alpha Z + X_H on T*T^d, Z = -p d/dp the Liouville
    field: X(x, out) is field(x, out, alpha), X_sym(x) is field(x, None, 0.0), DX
    and DX_sym are jac(x, a) at a = alpha and at a = 0; lambda = p dq and
    Omega is canonical."""
    return ModelSpec(
        name=name,
        spec=CoordinateSpec((ANGLE,) * d + (LINE,) * d),
        kind=FLOW,
        params=params,
        alpha=alpha,
        X=lambda x, out=None: field(x, out, alpha),
        DX=lambda x: jac(x, alpha),
        X_sym=lambda x: field(x, None, 0.0),
        DX_sym=lambda x: jac(x, 0.0),
        lam=_tautological_lambda(d),
        Omega=_const(_canonical_omega(d)),
        cotangent_splittable=True,
        **kwargs,
    )


def _build_circle_linear(params):
    p = _get_params({"alpha": 1.0}, params, "circle-linear")
    alpha = float(p["alpha"])
    if alpha <= 0:
        raise ParamError("circle-linear requires alpha > 0")

    two_pi, two_pi2 = np.array(TWO_PI), np.array(TWO_PI * TWO_PI)
    alpha0, zero = np.array(alpha), np.array(0.0)

    @_kernel
    def _field(xt, ot, a):
        """(sin w, -(a + 2 pi cos w) r) with w = 2 pi theta: on the row's
        floats for one state, else by ufuncs that write into the columns ot."""
        if isinstance(xt, list):
            w, r = TWO_PI * xt[0], xt[1]
            c = _cos(w)
            ot[:] = _sin(w), -(a + TWO_PI * c) * r
            return
        w = np.multiply(two_pi, xt[0], ot[0])
        c = np.cos(w, ot[1])
        np.sin(w, w)
        np.negative(np.add(a, np.multiply(two_pi, c, c), c), c)
        np.multiply(c, xt[1], c)

    def _dx(x, a):
        x = np.asarray(x, dtype=float)
        w, r = TWO_PI * x[..., 0], x[..., 1]
        c, s = np.cos(w), np.sin(w)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = TWO_PI * c
        out[..., 1, 0] = TWO_PI * TWO_PI * s * r
        out[..., 1, 1] = -(a + TWO_PI * c)
        return out

    @_kernel
    def X_DXv(yt, ot):
        """[X | DX v] from one sin and cos pass, with 2 pi cos w taken once:
        on the row's floats for one state, else by ufuncs that write into
        the columns ot.  Each tangent sum starts from +0.0, as np.einsum's
        does, so DX's structural zero DX[0, 1] v1 is left out (finite y)."""
        if isinstance(yt, list):
            w, r, v0, v1 = TWO_PI * yt[0], yt[1], yt[2], yt[3]
            s, tc = _sin(w), TWO_PI * _cos(w)
            g = -(alpha + tc)
            ot[:] = s, g * r, tc * v0 + 0.0, (TWO_PI * TWO_PI * s * r * v0 + 0.0) + g * v1
            return
        r, v0, v1 = yt[1], yt[2], yt[3]
        w = np.multiply(two_pi, yt[0], ot[0])
        tc = np.multiply(two_pi, np.cos(w, ot[2]), ot[2])
        s = np.sin(w, w)
        g = np.negative(np.add(alpha0, tc, ot[1]), ot[1])
        np.add(np.multiply(tc, v0, tc), zero, tc)
        e = np.multiply(np.multiply(np.multiply(two_pi2, s, ot[3]), r, ot[3]), v0, ot[3])
        np.add(np.add(e, zero, e), np.multiply(g, v1), e)
        np.multiply(g, r, g)

    def H(x):
        x = np.asarray(x, dtype=float)
        return x[..., 1] * np.sin(TWO_PI * x[..., 0])

    def dH(x):
        x = np.asarray(x, dtype=float)
        w, r = TWO_PI * x[..., 0], x[..., 1]
        out = np.empty_like(x)
        out[..., 0] = TWO_PI * r * np.cos(w)
        out[..., 1] = np.sin(w)
        return out

    return _cotangent_flow(
        "circle-linear", p, 1, alpha, _field, _dx, X_DXv=X_DXv, H=H, dH=dH,
        h_scales=True,  # H is fiberwise linear, so H o phi_t = exp(-alpha t) H
        equilibria=(np.array([0.0, 0.0]), np.array([0.5, 0.0])),
    )


def _build_circle_quadratic(params):
    p = _get_params({"alpha": 1.0}, params, "circle-quadratic")
    alpha = float(p["alpha"])
    if alpha <= 0:
        raise ParamError("circle-quadratic requires alpha > 0")

    @_kernel
    def _field(xt, ot, a):
        w, r = TWO_PI * xt[0], xt[1]
        ot[0] = 2.0 * r * _sin(w)
        c = _cos(w)  # at a = 0 the Hamiltonian part's own product order
        ot[1] = -a * r - TWO_PI * r * r * c if a else -TWO_PI * r * r * c

    def _dx(x, a):
        x = np.asarray(x, dtype=float)
        w, r = TWO_PI * x[..., 0], x[..., 1]
        c, s = np.cos(w), np.sin(w)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 * r * TWO_PI * c
        out[..., 0, 1] = 2.0 * s
        out[..., 1, 0] = TWO_PI * TWO_PI * r * r * s
        out[..., 1, 1] = -a - 2.0 * TWO_PI * r * c
        return out

    def H(x):
        x = np.asarray(x, dtype=float)
        return x[..., 1] ** 2 * np.sin(TWO_PI * x[..., 0])

    def dH(x):
        x = np.asarray(x, dtype=float)
        w, r = TWO_PI * x[..., 0], x[..., 1]
        out = np.empty_like(x)
        out[..., 0] = TWO_PI * r * r * np.cos(w)
        out[..., 1] = 2.0 * r * np.sin(w)
        return out

    return _cotangent_flow("circle-quadratic", p, 1, alpha, _field, _dx, H=H, dH=dH)


def _as_matrix(val, d):
    arr = np.asarray(val, dtype=float)
    if arr.ndim == 0:
        arr = arr * np.eye(d)
    arr = arr.reshape(d, d)
    return arr


def _build_mane(params):
    p = _get_params(
        {"alpha": 0.5, "d": 1, "y0": 0.0, "y_sin": 0.0, "y_cos": 0.0},
        params,
        "mane",
    )
    alpha = float(p["alpha"])
    d = int(p["d"])
    if alpha <= 0:
        raise ParamError("mane requires alpha > 0")
    if d not in (1, 2):
        raise ParamError("mane supports d in {1, 2}")
    y0 = np.broadcast_to(np.asarray(p["y0"], dtype=float), (d,)).copy()
    y_sin = _as_matrix(p["y_sin"], d)
    y_cos = _as_matrix(p["y_cos"], d)

    def Y(q):
        s, c = np.sin(TWO_PI * q), np.cos(TWO_PI * q)
        return y0 + np.einsum("ij,...j->...i", y_sin, s) + np.einsum(
            "ij,...j->...i", y_cos, c
        )

    def DY(q):
        # DY[..., i, j] = dY_i/dq_j
        s, c = np.sin(TWO_PI * q), np.cos(TWO_PI * q)
        return TWO_PI * (y_sin * c[..., None, :] - y_cos * s[..., None, :])

    def DYt_p(q, pv):
        return np.einsum("...j,...ji->...i", pv, DY(q))

    # The field's sums over j each have at most two terms: j = i, and at
    # d = 2 j = 1 - i.  A term is a coefficient column (its entry i for row
    # i) times the rows of s, c or p, reversed (flip) for j = 1 - i, and a
    # term whose coefficients are all zero is left out.  The field rounds as
    # np.einsum sums Y = y0 + y_sin s + y_cos c and DY^T p (each sum from
    # +0.0, in j order) on a finite block: two terms add the same in either
    # order, a product with a zero coefficient is a signed zero that does
    # not move a sum from +0.0, and y0 + (0.0 + S) is (y0 + 0.0) + S.  The
    # sum of DY^T p keeps its + 0.0: without it, -(0 dy) - a 0 would flip
    # sign at zero momentum.
    def _term(mat, k):
        """mat[i, (i + k) % d] over i: the coefficients of j = (i + k) % d."""
        i = np.arange(d)
        return mat[i, (i + k) % d]

    # (coefficients, flip) of each term, the coefficients from _coefficients
    sin_terms, cos_terms = ([(_coefficients(_term(mat, k)), k) for k in range(d)
                             if _term(mat, k).any()] for mat in (y_sin, y_cos))
    # p_j DY[j, i] = p_j 2 pi (y_sin[j, i] c_i - y_cos[j, i] s_i), with -y_cos
    dy_terms = [(_coefficients(ks) if ks.any() else None,
                 _coefficients(-kc) if kc.any() else None, k)
                for k in range(d)
                for ks, kc in [(_term(y_sin.T, k), _term(y_cos.T, k))] if ks.any() or kc.any()]
    need_s = bool(sin_terms) or any(nkc is not None for _, nkc, _ in dy_terms)
    need_c = bool(cos_terms) or any(ks is not None for ks, _, _ in dy_terms)
    y0p, y0p_op = _coefficients(y0 + 0.0)
    # 0-d operands: a ufunc takes them faster than Python floats, with the same bits
    two_pi, zero, alpha0 = np.array(TWO_PI), np.array(0.0), np.array(alpha)

    def _sum(terms, v, out=None):
        """The sum of k v (rows reversed by flip) over the terms, into out."""
        ((_, k), flip), *rest = terms
        out = np.multiply(k, v[::-1] if flip else v, out=out)
        for (_, k), flip in rest:
            np.add(out, k * (v[::-1] if flip else v), out=out)
        return out

    def _sum_at(terms, v, i):
        """_sum's row i, from the rows of v."""
        ((k, _), flip), *rest = terms
        acc = k[i] * v[d - 1 - i if flip else i]
        for (k, _), flip in rest:
            acc = acc + k[i] * v[d - 1 - i if flip else i]
        return acc

    @_kernel
    def _field(xt, ot, a):
        """(p + Y(q), -DY(q)^T p - a p) from one sin and one cos pass of
        2 pi q, each taken only when a term needs it, by the same operations
        on the (d, N) blocks of a column-major batch, else column by column
        (on the row's floats for one state)."""
        q, pv = xt[:d], xt[d:]
        s = c = w = None
        if not _contiguous_rows(xt, ot):
            if need_s or need_c:
                w = [TWO_PI * v for v in q]
                s = [_sin(v) for v in w] if need_s else None
                c = [_cos(v) for v in w] if need_c else None
            for i in range(d):
                y = y0p[i]
                if sin_terms:
                    y = _sum_at(sin_terms, s, i) + y
                if cos_terms:
                    y = y + _sum_at(cos_terms, c, i)
                ot[i] = pv[i] + y
                e = 0.0
                for n, (ks, nkc, flip) in enumerate(dy_terms):
                    k, v = (ks, c) if ks is not None else (nkc, s)
                    t = k[0][i] * v[i]
                    if ks is not None and nkc is not None:
                        t = t + nkc[0][i] * s[i]
                    t = pv[d - 1 - i if flip else i] * (TWO_PI * t)
                    e = e + t if n else t
                e = -(e + 0.0)
                ot[d + i] = e - a * pv[i] if a else e
            return
        if need_s or need_c:
            w = np.multiply(two_pi, q)
            s = np.sin(w, out=None if need_c else w) if need_s else None
            c = np.cos(w, out=w) if need_c else None
        oy, op = ot[:d], ot[d:]
        if sin_terms:
            np.add(_sum(sin_terms, s, oy), y0p_op, out=oy)
        if cos_terms:
            np.add(oy if sin_terms else y0p_op, _sum(cos_terms, c), out=oy)
        np.add(pv, oy if sin_terms or cos_terms else y0p_op, out=oy)
        if not dy_terms:
            op[...] = 0.0
        for n, (ks, nkc, flip) in enumerate(dy_terms):  # summed in op
            k, v = (ks, c) if ks is not None else (nkc, s)
            t = np.multiply(k[1], v, out=None if n else op)
            if ks is not None and nkc is not None:
                np.add(t, nkc[1] * s, out=t)
            np.multiply(two_pi, t, out=t)
            np.multiply(pv[::-1] if flip else pv, t, out=t)
            if n:
                np.add(op, t, out=op)
        np.negative(np.add(op, zero, out=op), out=op)
        if a:  # a is alpha or 0; w is spent
            np.subtract(op, np.multiply(alpha0, pv, out=w), out=op)

    eye, diag = np.eye(d), (np.arange(d, 2 * d), np.arange(d))

    def _dx(x, a):
        x = np.asarray(x, dtype=float)
        q, pv = x[..., :d], x[..., d:]
        dy = DY(q)
        s, c = np.sin(TWO_PI * q)[..., None, :], np.cos(TWO_PI * q)[..., None, :]
        # d/dq_k of (tDY p)_i is diagonal for the separable trig field
        m_diag = -(TWO_PI**2) * np.einsum("...j,...ji->...i", pv, y_sin * s + y_cos * c)
        out = np.zeros(x.shape[:-1] + (2 * d, 2 * d))
        out[..., :d, :d] = dy
        out[..., :d, d:] = eye
        out[(...,) + diag] = -m_diag
        out[..., d:, d:] = -np.swapaxes(dy, -1, -2) - a * eye
        return out

    def H(x):
        x = np.asarray(x, dtype=float)
        q, pv = x[..., :d], x[..., d:]
        return 0.5 * np.sum(pv * pv, axis=-1) + np.sum(pv * Y(q), axis=-1)

    def dH(x):
        x = np.asarray(x, dtype=float)
        q, pv = x[..., :d], x[..., d:]
        return np.concatenate([DYt_p(q, pv), pv + Y(q)], axis=-1)

    return _cotangent_flow("mane", p, d, alpha, _field, _dx, H=H, dH=dH, fiber_convex=True)


def _build_damped_mechanical(params):
    p = _get_params(
        {"alpha": 0.5, "d": 1, "v_cos": 1.0, "v_cross": 0.0},
        params,
        "damped-mechanical",
    )
    alpha = float(p["alpha"])
    d = int(p["d"])
    vx = float(p["v_cross"])
    if alpha <= 0:
        raise ParamError("damped-mechanical requires alpha > 0")
    if d not in (1, 2):
        raise ParamError("damped-mechanical supports d in {1, 2}")
    if vx != 0.0 and d != 2:
        raise ParamError("the coupling term v_cross needs d = 2")
    vc = np.broadcast_to(np.asarray(p["v_cos"], dtype=float), (d,)).copy()
    # a cosine term whose coefficients are all zero is left out
    cos_on = bool(vc.any())

    def V(q):
        w = TWO_PI * np.asarray(q, dtype=float)
        out = np.sum(vc * np.cos(w) if cos_on else np.zeros(w.shape), axis=-1)
        if vx:
            out = out + vx * np.cos(TWO_PI * (q[..., 0] - q[..., 1]))
        return out

    def grad_V(q):
        w = TWO_PI * np.asarray(q, dtype=float)
        out = TWO_PI * (-vc * np.sin(w) if cos_on else np.zeros(w.shape))
        if vx:
            cross = -vx * TWO_PI * np.sin(TWO_PI * (q[..., 0] - q[..., 1]))
            out[..., 0] += cross
            out[..., 1] -= cross
        return out

    def hess_V(q):
        q = np.asarray(q, dtype=float)
        w = TWO_PI * q
        diag = (TWO_PI**2) * (-vc * np.cos(w) if cos_on else np.zeros(w.shape))
        out = np.zeros(q.shape[:-1] + (d, d))
        for i in range(d):
            out[..., i, i] = diag[..., i]
        if vx:
            cc = -vx * (TWO_PI**2) * np.cos(TWO_PI * (q[..., 0] - q[..., 1]))
            out[..., 0, 0] += cc
            out[..., 1, 1] += cc
            out[..., 0, 1] -= cc
            out[..., 1, 0] -= cc
        return out

    eye = np.eye(d)

    def _dx(x, a):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2 * d, 2 * d))
        out[..., :d, d:] = eye
        out[..., d:, :d] = -hess_V(x[..., :d])
        out[..., d:, d:] = -a * eye
        return out

    n, nvc = 2 * d, (-vc).tolist()
    # the block form's operands: a coefficient column, and 0-d arrays, which
    # a ufunc takes faster than Python floats, with the same bits
    nvc_col = _coefficients(nvc)[1]
    two_pi, two_pi2, zero = np.array(TWO_PI), np.array(TWO_PI**2), np.array(0.0)
    k_sin, k_cos = np.array(-vx * TWO_PI), np.array(-vx * (TWO_PI**2))
    alpha0, nalpha0 = np.array(alpha), np.array(-alpha)

    def _block_field(yt, ot, a, tangent):
        """_field on the (d, N) blocks of a column-major batch: the same
        operations in the same order, each output block written by its last
        one."""
        q, pv, og = yt[:d], yt[d:n], ot[d:n]
        s = c = None
        if cos_on:
            w = np.multiply(two_pi, q)
            s = np.sin(w)
            c = np.cos(w, out=w) if tangent else None
            np.multiply(nvc_col, s, out=og)
        else:
            og[...] = 0.0
        np.multiply(two_pi, og, out=og)
        if vx:
            u = np.subtract(q[0], q[1])
            np.multiply(two_pi, u, out=u)
            cross = np.multiply(k_sin, np.sin(u))
            g0, g1 = og  # row by row: a ufunc broadcasts a row over a block slowly
            np.add(g0, cross, out=g0)
            np.subtract(g1, cross, out=g1)
        np.negative(og, out=og)
        if a:  # a is alpha or 0
            np.subtract(og, np.multiply(alpha0, pv), out=og)
        ot[:d] = pv
        if tangent:
            vq, vp = yt[n : n + d], yt[n + d :]
            np.add(vp, zero, out=ot[n : n + d])
            hv = np.multiply(nvc_col, c, out=c) if cos_on else np.zeros(q.shape)
            np.multiply(two_pi2, hv, out=hv)
            if vx:
                cc = np.multiply(k_cos, np.cos(u, out=u), out=u)
                h0, h1 = hv
                np.add(h0, cc, out=h0)
                np.add(h1, cc, out=h1)
            np.multiply(np.negative(hv, out=hv), vq, out=hv)
            tmp = np.multiply(nalpha0, vp, out=None if hv is s else s)
            np.add(hv, tmp, out=hv)
            if vx:  # the Hessian's off-diagonal -cc enters DX as -(0.0 - cc) = cc
                t0, t1 = tmp
                np.multiply(cc, vq[1], out=t0)
                np.multiply(cc, vq[0], out=t1)
                np.add(hv, tmp, out=hv)
            np.add(hv, zero, out=ot[n + d :])

    @_kernel
    def _field(yt, ot, a, tangent=False):
        """X = (p, -grad V(q) - a p) of the states y, and with `tangent` the
        rows [X | DX v] of y = [x | v] (X_DXv), DX v = [v_p | -hess V(q) v_q
        - a v_p], from one sin and one cos pass of 2 pi q, each taken only
        when the cosine term is on: on the (d, N) blocks of a column-major batch
        (_block_field), else column by column (on the row's floats for one
        state).  np.einsum sums each row of DX v from +0.0, so the products
        of DX's structural zeros, signed zeros on a finite block, are left
        out and each sum ends with + 0.0."""
        if _contiguous_rows(yt, ot):
            return _block_field(yt, ot, a, tangent)
        q, pv = yt[:d], yt[d:n]
        if cos_on:
            w = [TWO_PI * v for v in q]
            s = [_sin(v) for v in w]
            c = [_cos(v) for v in w] if tangent else None
        if vx:
            u = TWO_PI * (q[0] - q[1])
            cross = -vx * TWO_PI * _sin(u)
        ot[:d] = pv
        for i in range(d):
            g = TWO_PI * (nvc[i] * s[i] if cos_on else 0.0)
            if vx:
                g = g + cross if i == 0 else g - cross
            ot[d + i] = -g - a * pv[i] if a else -g
        if tangent:
            vq, vp = yt[n : n + d], yt[n + d :]
            if vx:
                cc = -vx * (TWO_PI**2) * _cos(u)
            for i in range(d):
                ot[n + i] = vp[i] + 0.0
                hv = (TWO_PI**2) * (nvc[i] * c[i] if cos_on else 0.0)
                if vx:
                    hv = hv + cc
                t = -hv * vq[i] + -a * vp[i]
                if vx:  # the Hessian's off-diagonal -cc enters DX as -(0.0 - cc) = cc
                    t = t + cc * vq[1 - i]
                ot[n + d + i] = t + 0.0

    def H(x):
        x = np.asarray(x, dtype=float)
        q, pv = x[..., :d], x[..., d:]
        return 0.5 * np.sum(pv * pv, axis=-1) + V(q)

    def dH(x):
        x = np.asarray(x, dtype=float)
        q, pv = x[..., :d], x[..., d:]
        return np.concatenate([grad_V(q), pv], axis=-1)

    # critical points of the separable potential, with p = 0: each axis's
    # cosine is critical at 0 and 1/2; with coupling a point stays critical
    # only where the coupling's gradient vanishes too
    candidates = [np.array(pt + (0.0,) * d) for pt in itertools.product((0.0, 0.5), repeat=d)]
    equilibria = tuple(
        z for z in candidates if float(np.max(np.abs(grad_V(z[:d])))) < 1e-12
    )

    return _cotangent_flow(
        "damped-mechanical", p, d, alpha, _field, _dx,
        X_DXv=lambda y, out=None: _field(y, out, alpha, True), H=H, dH=dH,
        grad_V=grad_V, hess_V=hess_V, fiber_convex=True, equilibria=equilibria,
    )


def _nonexact_omega():
    # coordinates (t1, t2, t3, t4, r1, r3); r2 = p r1 and r4 = p r3 eliminated
    p = GOLDEN_CONJ
    C = np.zeros((6, 6))

    def add(i, j, c):
        C[i, j] += c
        C[j, i] -= c

    # Omega_1 = (dt2 - p dt1) ^ (dt4 - p dt3)
    add(1, 3, 1.0)
    add(1, 2, -p)
    add(0, 3, -p)
    add(0, 2, p * p)
    # Omega_2 = induced canonical form: (dt1 + p dt2) ^ dr1 + (dt3 + p dt4) ^ dr3
    add(0, 4, 1.0)
    add(1, 4, p)
    add(2, 5, 1.0)
    add(3, 5, p)
    return C


def _build_nonexact_linear(params):
    p = _get_params({}, params, "nonexact-linear")
    spec = CoordinateSpec((ANGLE, ANGLE, ANGLE, ANGLE, LINE, LINE))
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    A_inv = np.array([[1.0, -1.0], [-1.0, 2.0]])
    sigma = NONEXACT_R_SCALE
    df = np.zeros((6, 6))
    df[0:2, 0:2] = A
    df[2:4, 2:4] = A
    df[4, 4] = sigma
    df[5, 5] = sigma
    df_inv = np.zeros((6, 6))
    df_inv[0:2, 0:2] = A_inv
    df_inv[2:4, 2:4] = A_inv
    df_inv[4, 4] = 1.0 / sigma
    df_inv[5, 5] = 1.0 / sigma

    def f(x):
        x = np.asarray(x, dtype=float)
        return spec.wrap(np.einsum("ij,...j->...i", df, x))

    def f_inv(x):
        x = np.asarray(x, dtype=float)
        return spec.wrap(np.einsum("ij,...j->...i", df_inv, x))

    return ModelSpec(
        name="nonexact-linear",
        spec=spec,
        kind=MAP,
        params=p,
        ratio_a=NONEXACT_RATIO,
        f=f,
        Df=lambda x: df,
        f_inv=f_inv,
        Omega=_const(_nonexact_omega()),
    )


def _t2_pair(name, params, axis, X, DX, eta_X, X_etaX):
    """A conformal pair on T^2 with H = sin(2 pi theta_axis), the Lee form
    eta = -2 pi dtheta1 and the canonical form: X, DX, eta_X and X_etaX are
    the pair's closed forms."""

    def H(x):
        x = np.asarray(x, dtype=float)
        return np.sin(TWO_PI * x[..., axis])

    def dH(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., axis] = TWO_PI * np.cos(TWO_PI * x[..., axis])
        return out

    eta_vec = np.array([-TWO_PI, 0.0])
    return ModelSpec(
        name=name,
        spec=CoordinateSpec((ANGLE, ANGLE)),
        kind=FLOW,
        params=_get_params({}, params, name),
        X=X,
        DX=DX,
        H=H,
        dH=dH,
        eta=lambda x: eta_vec,
        eta_X=eta_X,
        X_etaX=X_etaX,
        Omega=_const(_canonical_omega(1)),
        h_scales=True,
    )


def _build_t2_pair_theta1(params):
    amp = 2.0 * math.sqrt(2.0) * math.pi

    namp = -amp
    two_pi0, eighth0, namp0 = np.array(TWO_PI), np.array(0.125), np.array(namp)

    @_kernel
    def _field(yt, ot, lee=False):
        """X of the states y, and with `lee` the rows [X | eta(X)] of
        y = [x | r] (X_etaX): the field has no theta1 component, so
        eta(X) = 0.  On the row's floats for one state, else by ufuncs that
        write into the columns ot."""
        ot[0] = 0.0
        if isinstance(yt, list):
            ot[1] = namp * _sin(TWO_PI * (0.125 + yt[0]))
        else:
            w = np.multiply(two_pi0, np.add(eighth0, yt[0], out=ot[1]), out=ot[1])
            np.multiply(namp0, np.sin(w, out=w), out=w)
        if lee:
            ot[2] = 0.0

    def DX(x):
        th1 = np.asarray(x, dtype=float)[..., 0]
        out = np.zeros(th1.shape + (2, 2))
        out[..., 1, 0] = -amp * TWO_PI * np.cos(TWO_PI * (0.125 + th1))
        return out

    return _t2_pair("t2-pair-theta1", params, 0, _field, DX, _zero_eta_X,
                    lambda y, out=None: _field(y, out, True))


def _build_t2_pair_theta2(params):
    ntwo_pi, lee_k = -TWO_PI, -TWO_PI * TWO_PI
    two_pi0, ntwo_pi0, lee_k0 = np.array(TWO_PI), np.array(ntwo_pi), np.array(lee_k)

    @_kernel
    def _field(yt, ot, lee=False):
        """X of the states y, and with `lee` the rows [X | eta(X)] of
        y = [x | r] (X_etaX) from the same cos.  On the row's floats for one
        state, else by ufuncs that write into the columns ot."""
        if isinstance(yt, list):
            w = TWO_PI * yt[1]
            c = _cos(w)
            ot[0] = TWO_PI * c
            ot[1] = ntwo_pi * _sin(w)
            if lee:
                ot[2] = lee_k * c
            return
        w = np.multiply(two_pi0, yt[1], out=ot[1])
        c = np.cos(w, out=ot[0])
        if lee:
            np.multiply(lee_k0, c, out=ot[2])
        np.multiply(two_pi0, c, out=c)
        np.multiply(ntwo_pi0, np.sin(w, out=w), out=w)

    def DX(x):
        w = TWO_PI * np.asarray(x, dtype=float)[..., 1]
        out = np.zeros(w.shape + (2, 2))
        out[..., 0, 1] = -TWO_PI * TWO_PI * np.sin(w)
        out[..., 1, 1] = -TWO_PI * TWO_PI * np.cos(w)
        return out

    def eta_X(x):
        x = np.asarray(x, dtype=float)
        return -TWO_PI * TWO_PI * np.cos(TWO_PI * x[..., 1])

    return _t2_pair("t2-pair-theta2", params, 1, _field, DX, eta_X,
                    lambda y, out=None: _field(y, out, True))


def rationally_dependent(a1, a2):
    """Desk-scale integer-relation scan for (1, a1, a2).

    Searches |m1| , |m2| <= _RELATION_MAX_COEFF for m0 + m1 a1 + m2 a2 = 0
    within _RELATION_TOL, with integer m0; exact rational independence of
    floats is undecidable, so this is the documented practical gate.
    """
    for m1 in range(-_RELATION_MAX_COEFF, _RELATION_MAX_COEFF + 1):
        for m2 in range(-_RELATION_MAX_COEFF, _RELATION_MAX_COEFF + 1):
            if m1 == 0 and m2 == 0:
                continue
            val = m1 * a1 + m2 * a2
            if abs(val - round(val)) < _RELATION_TOL:
                return True
    return False


def _lee_omega_matrix(a1, a2):
    def omega(x):
        x = np.asarray(x, dtype=float)
        v = x[..., 2]
        c, s = np.cos(TWO_PI * v), np.sin(TWO_PI * v)
        shape = x.shape[:-1] + (4, 4)
        C = np.zeros(shape)

        def add(i, j, val):
            C[..., i, j] += val
            C[..., j, i] -= val

        add(0, 1, a1 * s - a2 * c)
        add(0, 2, -TWO_PI * s)
        add(1, 2, TWO_PI * c)
        add(0, 3, c)
        add(1, 3, s)
        return C

    return omega


def _build_lee_twisted(params):
    p = _get_params(
        {"a1": math.sqrt(2.0), "a2": math.sqrt(3.0), "require_independent": False},
        params,
        "lee-twisted-t1t2",
    )
    a1, a2 = float(p["a1"]), float(p["a2"])
    if p["require_independent"] and rationally_dependent(a1, a2):
        raise ParamError(
            "(1, a1, a2) rationally dependent; no-periodic-orbit certificate refused"
        )
    spec = CoordinateSpec((ANGLE, ANGLE, ANGLE, ANGLE))  # (x1, x2, v, theta)
    eta_vec = np.array([a1, a2, 0.0, -1.0])

    @_kernel
    def X(xt, ot):
        v = xt[2]
        c, s = _cos(TWO_PI * v), _sin(TWO_PI * v)
        ot[0] = c
        ot[1] = s
        ot[2] = 0.0
        ot[3] = a1 * c + a2 * s

    def DX(x):
        v = np.asarray(x, dtype=float)[..., 2]
        c, s = np.cos(TWO_PI * v), np.sin(TWO_PI * v)
        out = np.zeros(v.shape + (4, 4))
        out[..., 0, 2] = -TWO_PI * s
        out[..., 1, 2] = TWO_PI * c
        out[..., 3, 2] = TWO_PI * (-a1 * s + a2 * c)
        return out

    def flow_exact(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(x[..., 0].shape, t.shape)
        v = np.broadcast_to(x[..., 2], shape)
        c, s = np.cos(TWO_PI * v), np.sin(TWO_PI * v)
        out = np.empty(shape + (4,))
        out[..., 0] = x[..., 0] + t * c
        out[..., 1] = x[..., 1] + t * s
        out[..., 2] = v
        out[..., 3] = x[..., 3] + t * (a1 * c + a2 * s)
        return spec.wrap(out)

    def H(x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1]) if x.ndim > 1 else 1.0

    def dH(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ModelSpec(
        name="lee-twisted-t1t2",
        spec=spec,
        kind=FLOW,
        params=p,
        X=X,
        DX=DX,
        H=H,
        dH=dH,
        eta=lambda x: eta_vec,
        eta_X=_zero_eta_X,  # eta(L_eta) = 0 identically for the Lee field
        Omega=_lee_omega_matrix(a1, a2),
        flow_exact=flow_exact,
        h_scales=True,
    )


def _build_anosov_cover(params):
    p = _get_params({}, params, "anosov-cover")
    spec = CoordinateSpec((ANGLE, ANGLE, LINE, LINE))  # (xi1, xi2, z, s)
    lam_minus = CAT_EIG_MINUS
    rate = 2.0 * math.log(lam_minus)  # < 0, contraction of the s-coordinate
    phi = (1.0 + SQRT5) / 2.0
    # frame columns: contracting torus direction, z, expanding direction, s
    frame = np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [-phi, 0.0, GOLDEN_CONJ, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    c_can = np.zeros((4, 4))
    c_can[0, 1], c_can[1, 0] = 1.0, -1.0
    c_can[2, 3], c_can[3, 2] = 1.0, -1.0
    f_inv_mat = np.linalg.inv(frame)
    omega_chart = f_inv_mat.T @ c_can @ f_inv_mat

    @_kernel
    def X(xt, ot):
        ot[0] = ot[1] = 0.0
        ot[2] = 1.0
        ot[3] = rate * xt[3]

    def DX(x):
        out = np.zeros(np.shape(x)[:-1] + (4, 4))
        out[..., 3, 3] = rate
        return out

    def flow_exact(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        out = np.empty(np.broadcast_shapes(x[..., 0].shape, t.shape) + (4,))
        out[..., :2] = x[..., :2]
        out[..., 2] = x[..., 2] + t
        out[..., 3] = x[..., 3] * lam_minus ** (2.0 * t)
        return spec.wrap(out)

    m = ModelSpec(
        name="anosov-cover",
        spec=spec,
        kind=FLOW,
        params=p,
        X=X,
        DX=DX,
        Omega=_const(omega_chart),
        flow_exact=flow_exact,
        frame=frame,
    )
    return m


_REGISTRY = {
    "radial-contraction": lambda p: _contraction_map(
        "radial-contraction", p, (ANGLE, LINE), 0.0),
    "shear-contraction": lambda p: _contraction_map(
        "shear-contraction", p, (LINE, LINE), 1.0),
    "circle-linear": _build_circle_linear,
    "circle-quadratic": _build_circle_quadratic,
    "mane": _build_mane,
    "damped-mechanical": _build_damped_mechanical,
    "nonexact-linear": _build_nonexact_linear,
    "t2-pair-theta1": _build_t2_pair_theta1,
    "t2-pair-theta2": _build_t2_pair_theta2,
    "lee-twisted-t1t2": _build_lee_twisted,
    "anosov-cover": _build_anosov_cover,
}


def registered_models():
    return sorted(_REGISTRY)


def instantiate_model(name, params=None, **kwargs):
    """Build a validated model by registry name."""
    if name not in _REGISTRY:
        raise UnknownModelError(
            f"unknown model {name!r}; registered: {', '.join(registered_models())}"
        )
    merged = dict(params or {})
    merged.update(kwargs)
    return _REGISTRY[name](merged)


# ---------------------------------------------------------------------------
# contact lift on the flat unit tangent bundle of T^2
# ---------------------------------------------------------------------------

def _per_state(f, tail):
    """f, written for one state (k,) and giving values of shape tail, mapped
    over the leading axes of x (..., k); an empty batch gives (..., *tail)."""
    def batched(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return f(x)
        rows = [f(row) for row in x.reshape(-1, x.shape[-1])]
        return np.reshape(rows, x.shape[:-1] + tail)
    return batched


def contact_lift(H, beta, dH):
    """Lift a contact Hamiltonian on flat T^1 T^2 to its twisted symplectization.

    The contact field X on (Y, alpha) solves alpha(X) = H and
    i_X d(alpha) = (dH.R) alpha - dH, with R = (cos 2 pi v, sin 2 pi v, 0)
    the Reeb field; the lifted conformal field appends the theta-component
    beta(X) - dH.R, so the Lee form (b1, b2, 0, -1) gives eta_X = dH.R.
    beta is two finite numbers.  H takes the 3-vector (x1, x2, v) and dH
    returns its analytic gradient; DX takes the Hessian of H from first
    differences of dH.  The lift's evaluators take (..., 4) batches; H and
    dH take one state, and `_per_state` maps them over the batch, each entry
    equal to the single-state call.
    """
    b = np.asarray(beta, dtype=float) if _kind(beta, 0.0)[1] else None
    if b is None or b.shape != (2,) or not np.all(np.isfinite(b)):
        raise ParamError(f"contact_lift takes beta as two finite numbers, got {beta!r}")
    if not (callable(H) and callable(dH)):
        raise ParamError("contact_lift takes H and its gradient dH as callables")
    b1, b2 = float(b[0]), float(b[1])
    h_of = _per_state(lambda y: float(H(y)), ())
    dh_of = _per_state(lambda y: np.asarray(dH(y), dtype=float), (3,))

    def local(x):
        """y = (x1, x2, v), cos 2 pi v, sin 2 pi v and dH at the states x."""
        y = np.asarray(x, dtype=float)[..., :3]
        w = TWO_PI * y[..., 2]
        return y, np.cos(w), np.sin(w), dh_of(y)

    def X(x, out=None):
        y, c, s, g = local(x)
        zero = np.zeros_like(c)
        dh_t = -s * g[..., 0] + c * g[..., 1]
        # closed form on the flat structure: X = H R + (dH_v/2pi) T - (dH(T)/2pi) e_v
        xc = (np.asarray(h_of(y))[..., None] * np.stack([c, s, zero], axis=-1)
              + (g[..., 2] / TWO_PI)[..., None] * np.stack([-s, c, zero], axis=-1)
              - (dh_t / TWO_PI)[..., None] * np.array([0.0, 0.0, 1.0]))
        theta_dot = b1 * xc[..., 0] + b2 * xc[..., 1] - (c * g[..., 0] + s * g[..., 1])
        if out is None:
            out = np.empty_like(np.asarray(x, dtype=float))
        return np.concatenate([xc, theta_dot[..., None]], axis=-1, out=out)

    def DX(x):
        # derivative of X's closed form; (c, s) depend on v = y[2]
        y, c, s, g = local(x)
        hval, hs = h_of(y), fd_jacobian(dh_of, y)
        C, S = c[..., None], s[..., None]
        J = np.zeros(y.shape[:-1] + (4, 4))
        J[..., 0, :3] = g * C - hs[..., 2, :] * S / TWO_PI
        J[..., 0, 2] -= TWO_PI * hval * s + g[..., 2] * c
        J[..., 1, :3] = g * S + hs[..., 2, :] * C / TWO_PI
        J[..., 1, 2] += TWO_PI * hval * c - g[..., 2] * s
        J[..., 2, :3] = (S * hs[..., 0, :] - C * hs[..., 1, :]) / TWO_PI
        J[..., 2, 2] += c * g[..., 0] + s * g[..., 1]
        J[..., 3, :3] = (b1 * J[..., 0, :3] + b2 * J[..., 1, :3]
                         - (C * hs[..., 0, :] + S * hs[..., 1, :]))
        J[..., 3, 2] -= TWO_PI * (c * g[..., 1] - s * g[..., 0])
        return J

    def eta_X(x):
        _, c, s, g = local(x)
        return c * g[..., 0] + s * g[..., 1]

    def dH4(x):
        y = np.asarray(x, dtype=float)[..., :3]
        out = np.zeros(y.shape[:-1] + (4,))
        out[..., :3] = dh_of(y)
        return out

    eta_vec = np.array([b1, b2, 0.0, -1.0])
    return ModelSpec(
        name="contact-lift",
        spec=CoordinateSpec((ANGLE, ANGLE, ANGLE, ANGLE)),
        kind=FLOW,
        params={"beta": (b1, b2)},
        X=X,
        DX=DX,
        H=lambda x: h_of(np.asarray(x, dtype=float)[..., :3]),
        dH=dH4,
        eta=lambda x: eta_vec,
        eta_X=eta_X,
        Omega=_lee_omega_matrix(b1, b2),
        h_scales=True,
    )


# ---------------------------------------------------------------------------
# structural self-checks (used by tests and the verify suite)
# ---------------------------------------------------------------------------

def sample_states(m, n, rng, line_scale=2.0):
    """Random states in the model's chart: angles uniform, lines ~ N(0, scale)."""
    pts = np.empty((n, m.dim))
    mask = m.spec.angle_mask
    pts[:, mask] = rng.uniform(0.0, 1.0, size=(n, int(mask.sum())))
    pts[:, ~mask] = line_scale * rng.standard_normal((n, int((~mask).sum())))
    return pts


def field_identity_residual(m, x):
    """Residual of the defining identity, one per state of x (..., dim).

    Exact-symplectic flows: i_X omega - alpha lambda - dH.
    Conformal pairs:        i_X Omega - dH + H eta.
    A single (dim,) state gives a float.
    """
    if m.kind != FLOW:
        raise KindError("field identity applies to flow models")
    x = np.asarray(x, dtype=float)
    omega = np.asarray(m.Omega(x), dtype=float)
    xdot = np.asarray(m.X(x), dtype=float)
    # Omega^T X per state, as the matrix-vector product of one state
    lhs = (np.swapaxes(omega, -1, -2) @ xdot[..., None])[..., 0]
    if m.conformal_pair:
        h = np.asarray(m.H(x), dtype=float)[..., None]
        rhs = np.asarray(m.dH(x), dtype=float) - h * np.asarray(m.eta(x), dtype=float)
    elif m.exact_symplectic:
        if m.dH is None:
            raise StructureError(f"{m.name} lacks dH for the identity check")
        rhs = m.alpha * np.asarray(m.lam(x), dtype=float) + np.asarray(
            m.dH(x), dtype=float
        )
    else:
        raise StructureError(f"{m.name} declares no Hamiltonian structure")
    res = np.max(np.abs(lhs - rhs), axis=-1)
    return float(res) if res.ndim == 0 else res
