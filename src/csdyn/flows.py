"""Trajectory generation.

The reference integrator is Hairer's DOP853, an explicit Runge-Kutta
method of order 8 with a 5th/3rd-order error estimate and a 7th-order dense
output, run on an (N, state) batch in masked lockstep with per-row step
control, so a row's result does not depend on its batch.  The dense
output's three extra stages are computed only for the steps whose dense
value is read.  Variational equations are integrated jointly with
the state as one error-controlled system, never by re-differencing
trajectories.  Internally all states are kept as unwrapped reals so the
registered periodic fields stay smooth; angle normalization is applied only
at output.

The structure-preserving alternative is a Strang splitting of
X = alpha*Z + X_H: exact fiber contraction exp(-alpha h/2), one symplectic
step of X_H (Stormer-Verlet for mechanical kinetic+potential Hamiltonians,
implicit midpoint otherwise), exact contraction again.  Its one-step
Jacobian satisfies J^T Omega J = exp(-alpha h) Omega to machine precision
for every h, a structural rather than asymptotic property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BlowUpError,
    ConvergenceError,
    DimensionMismatchError,
    KindError,
    ParamError,
    PoisonedStateError,
    SectionError,
    StructureError,
)
from .models import FLOW, MAP, ModelSpec

COMPLETED = "completed"
BLOWUP = "blowup"
MAX_STEPS = "max-steps"
STOPPED = "stopped"

# implicit midpoint: a row's fixed-point sweeps stop once its update is
# <= MIDPOINT_TOL*(1+max|x|)
MIDPOINT_TOL = 1e-14
MIDPOINT_MAX_SWEEPS = 50
_MIDPOINT_FAILED = f"implicit midpoint did not converge in {MIDPOINT_MAX_SWEEPS} sweeps"
_RETURN_CHUNK = 4.0  # poincare_return integrates in runs of this many time units
_RETURN_T_MAX = 1e4  # and raises SectionError when its crossings take longer
# a line coordinate past this magnitude is a blow-up: the fixed-step engine
# reads it at each call, and IntegratorConfig takes it as its default
BLOWUP_THRESHOLD = 1e8
# a row tile of the fixed-step engine holds about this many bytes of its
# four (N, w) arrays, the state and the three RK4 stages, and a batch whose
# arrays take more than four tiles, half a 2 MiB L2, steps in tiles (_tiles)
_TILE_BYTES = 256 * 1024

# Hairer's DOP853 8(5,3), as literal data from scipy's
# integrate/_ivp/dop853_coefficients.py: the nonzero (stage, coefficient)
# pairs of each stage row.  The last row of _DOP_A is the 8th-order
# solution, so its stage is the derivative at the new node (FSAL).
_DOP_A = (
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1), (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2), (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2), (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1), (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1), (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1), (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1), (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1), (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1), (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1), (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1), (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654), (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1), (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762), (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449), (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444), (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1), (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258), (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
    ((0, 5.42937341165687622380535766363e-2), (5, 4.45031289275240888144113950566),
     (6, 1.89151789931450038304281599044), (7, -5.8012039600105847814672114227),
     (8, 3.1116436695781989440891606237e-1), (9, -1.52160949662516078556178806805e-1),
     (10, 2.01365400804030348374776537501e-1),
     (11, 4.47106157277725905176885569043e-2)),
)
# error estimators: 5th order, and 3rd order as the solution weights minus
# the shifts below
_DOP_E5 = ((0, 0.1312004499419488073250102996e-1), (5, -0.1225156446376204440720569753e+1),
 (6, -0.4957589496572501915214079952), (7, 0.1664377182454986536961530415e+1),
 (8, -0.3503288487499736816886487290), (9, 0.3341791187130174790297318841),
 (10, 0.8192320648511571246570742613e-1), (11, -0.2235530786388629525884427845e-1))
_DOP_E3_SHIFT = ((0, 0.244094488188976377952755905512), (8, 0.733846688281611857341361741547),
 (11, 0.220588235294117647058823529412e-1))
_DOP_E3 = tuple((j, b - dict(_DOP_E3_SHIFT).get(j, 0.0)) for j, b in _DOP_A[-1])
# the 7th-order continuous extension: three extra stages (13-15, which use
# the FSAL stage 12) and its four higher coefficients over stages 0-15
_DOP_A_EXTRA = (
    ((0, 5.61675022830479523392909219681e-2), (6, 2.53500210216624811088794765333e-1),
     (7, -2.46239037470802489917441475441e-1),
     (8, -1.24191423263816360469010140626e-1), (9, 1.5329179827876569731206322685e-1),
     (10, 8.20105229563468988491666602057e-3),
     (11, 7.56789766054569976138603589584e-3), (12, -8.298e-3)),
    ((0, 3.18346481635021405060768473261e-2), (5, 2.83009096723667755288322961402e-2),
     (6, 5.35419883074385676223797384372e-2), (7, -5.49237485713909884646569340306e-2),
     (10, -1.08347328697249322858509316994e-4),
     (11, 3.82571090835658412954920192323e-4),
     (12, -3.40465008687404560802977114492e-4),
     (13, 1.41312443674632500278074618366e-1)),
    ((0, -4.28896301583791923408573538692e-1), (5, -4.69762141536116384314449447206),
     (6, 7.68342119606259904184240953878), (7, 4.06898981839711007970213554331),
     (8, 3.56727187455281109270669543021e-1),
     (12, -1.39902416515901462129418009734e-3), (13, 2.9475147891527723389556272149),
     (14, -9.15095847217987001081870187138)),
)
_DOP_D = (
    ((0, -0.84289382761090128651353491142e+1), (5, 0.56671495351937776962531783590),
     (6, -0.30689499459498916912797304727e+1), (7, 0.23846676565120698287728149680e+1),
     (8, 0.21170345824450282767155149946e+1), (9, -0.87139158377797299206789907490),
     (10, 0.22404374302607882758541771650e+1), (11, 0.63157877876946881815570249290),
     (12, -0.88990336451333310820698117400e-1),
     (13, 0.18148505520854727256656404962e+2),
     (14, -0.91946323924783554000451984436e+1),
     (15, -0.44360363875948939664310572000e+1)),
    ((0, 0.10427508642579134603413151009e+2), (5, 0.24228349177525818288430175319e+3),
     (6, 0.16520045171727028198505394887e+3), (7, -0.37454675472269020279518312152e+3),
     (8, -0.22113666853125306036270938578e+2), (9, 0.77334326684722638389603898808e+1),
     (10, -0.30674084731089398182061213626e+2),
     (11, -0.93321305264302278729567221706e+1),
     (12, 0.15697238121770843886131091075e+2),
     (13, -0.31139403219565177677282850411e+2),
     (14, -0.93529243588444783865713862664e+1),
     (15, 0.35816841486394083752465898540e+2)),
    ((0, 0.19985053242002433820987653617e+2), (5, -0.38703730874935176555105901742e+3),
     (6, -0.18917813819516756882830838328e+3), (7, 0.52780815920542364900561016686e+3),
     (8, -0.11573902539959630126141871134e+2), (9, 0.68812326946963000169666922661e+1),
     (10, -0.10006050966910838403183860980e+1), (11, 0.77771377980534432092869265740),
     (12, -0.27782057523535084065932004339e+1),
     (13, -0.60196695231264120758267380846e+2),
     (14, 0.84320405506677161018159903784e+2),
     (15, 0.11992291136182789328035130030e+2)),
    ((0, -0.25693933462703749003312586129e+2),
     (5, -0.15418974869023643374053993627e+3),
     (6, -0.23152937917604549567536039109e+3), (7, 0.35763911791061412378285349910e+3),
     (8, 0.93405324183624310003907691704e+2), (9, -0.37458323136451633156875139351e+2),
     (10, 0.10409964950896230045147246184e+3),
     (11, 0.29840293426660503123344363579e+2),
     (12, -0.43533456590011143754432175058e+2),
     (13, 0.96324553959188282948394950600e+2),
     (14, -0.39177261675615439165231486172e+2),
     (15, -0.14972683625798562581422125276e+3)),
)


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    blowup_threshold: float = BLOWUP_THRESHOLD
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-2 and 0.0 < self.abs_tol <= 1e-2):
            raise ParamError("tolerances must lie in (0, 1e-2]")
        if not self.max_steps >= 1:
            raise ParamError(f"max_steps must be at least 1, got {self.max_steps}")
        if not self.blowup_threshold > 0:
            raise ParamError(f"blowup_threshold must be positive, got {self.blowup_threshold}")


@dataclass
class IntegrationStats:
    """Cost of one adaptive run: steps, field evaluations and the shortest
    and longest accepted step.  A run evaluates the field twice at its start
    (the derivative and the initial-step probe) and 12 times per attempted
    step; each step whose dense output is read costs 14 more (its 11 inner
    stages re-run and the 3 extra stages)."""

    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float
    h_max: float


@dataclass
class Trajectory:
    """Sampled flow data; frames are the tangent maps D(phi_t).  r_accum is
    the Lee integral from the run's start, a backward run's last sample, and
    r_final its value at the run's end."""

    times: np.ndarray
    states: np.ndarray
    frames: np.ndarray | None = None
    r_accum: np.ndarray | None = None
    status: str = COMPLETED
    t_escape: float | None = None
    backward: bool = False
    stats: IntegrationStats | None = None

    def __post_init__(self):
        n = len(self.times)
        if len(self.states) != n:
            raise ParamError("times/states length mismatch")
        if self.frames is not None and len(self.frames) != n:
            raise ParamError("times/frames length mismatch")
        if self.r_accum is not None and len(self.r_accum) != n:
            raise ParamError("times/r_accum length mismatch")

    @property
    def final_state(self):
        return self.states[0] if self.backward else self.states[-1]

    @property
    def final_frame(self):
        if self.frames is None:
            return None
        return self.frames[0] if self.backward else self.frames[-1]

    @property
    def r_final(self):
        if self.r_accum is None:
            return None
        return float(self.r_accum[0] if self.backward else self.r_accum[-1])


@dataclass
class _Path:
    """Accepted nodes of one row: times, states and derivatives.  The row ends
    at t_end, inside the last segment after a blow-up.  A run that samples
    only its ends keeps the first node and the last step's two nodes; only
    its last segment is then a step.  A path keeps its field `rhs` and fills
    `ext`, the dense-output coefficients of segment i, when a segment is
    first read (`_extend`)."""

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    status: str
    t_end: float
    stats: IntegrationStats
    rhs: object
    t_escape: float | None = None
    ext: dict = field(default_factory=dict)


def _extend(paths, segments):
    """Make the dense-output coefficients of the given segments of paths
    (one array of segment indices per path), in one batch over all of them;
    the paths share one rhs.  A segment's step is re-run from its start
    node with step ts[i+1] - ts[i], the step the engine took, so its stages
    are the engine's bit for bit."""
    todo = []
    for p, segs in zip(paths, segments):
        segs = [i for i in np.unique(segs).tolist() if i not in p.ext]
        if segs:
            todo.append((p, np.array(segs)))
    if not todo:
        return
    y, f0, f1, h = (np.concatenate(parts) for parts in zip(*(
        (p.ys[i], p.fs[i], p.fs[i + 1], p.ts[i + 1] - p.ts[i]) for p, i in todo)))
    coeffs = iter(_dense_coefficients(todo[0][0].rhs, y, f0, f1, h))
    for p, segs in todo:
        p.ext.update(zip(segs.tolist(), coeffs))
        p.stats.rhs_evals += 14 * len(segs)


def _dense_coefficients(rhs, y, f0, f1, h):
    """The four 7th-order coefficients h D.K of DOP853 steps of size h from
    (y, f0) to a node with derivative f1, shaped (M, 4, w).  Stages 1-11 are
    re-run as the engine runs them, stage 12 is f1 (FSAL) and stages 13-15
    are the extension's own."""
    M, w = y.shape
    K = np.empty((16, M, w))
    s, tmp, z = np.empty((3, M, w))
    K[0], K[12] = f0, f1
    hc = h[:, None]
    for i, coeffs in [*enumerate(_DOP_A[:-1], 1), *enumerate(_DOP_A_EXTRA, 13)]:
        np.multiply(hc, _combine(K, coeffs, s, tmp), out=s)
        rhs(np.add(y, s, out=z), K[i])
    out = np.empty((M, 4, w))
    for r, coeffs in enumerate(_DOP_D):
        np.multiply(hc, _combine(K, coeffs, s, tmp), out=out[:, r])
    return out


def _dense(p, i, t):
    """Dense output of segment i of path p at times t: DOP853's 7th-order
    continuous extension.  i and t are scalars or matching 1-D arrays.  The
    segments read are extended here unless a caller extended them already
    (in one batch over many paths, say); each distinct segment is looked up
    once."""
    t0 = p.ts[i]
    h = np.asarray(p.ts[i + 1] - t0)[..., None]
    s = np.asarray(t - t0)[..., None] / h
    s1 = 1.0 - s
    y0 = p.ys[i]
    dy = p.ys[i + 1] - y0
    b = h * p.fs[i] - dy
    c = dy - h * p.fs[i + 1] - b
    if np.ndim(i) == 0:  # one segment, as in a bisection
        if i not in p.ext:
            _extend([p], [[i]])
        F = p.ext[i]
    else:
        segs, which = np.unique(i, return_inverse=True)
        _extend([p], [segs])
        F = np.stack([p.ext[j] for j in segs.tolist()])[which.reshape(np.shape(i))]
    F0, F1, F2, F3 = np.moveaxis(F, -2, 0)
    c = c + s1 * (F0 + s * (F1 + s1 * (F2 + s * F3)))
    return y0 + s * (dy + s1 * (b + s * c))


def _segments(p, times):
    """The mask of the sorted times strictly inside path p's span, and the
    segment holding each of those times."""
    inside = (times > p.ts[0]) & (times < p.ts[-1])
    return inside, np.searchsorted(p.ts, times[inside], side="right") - 1


def _sample(p, times, inside, segs):
    """Dense output of path p at sorted times, in one vectorized pass;
    `inside` and `segs` are _segments(p, times)."""
    ts, ys = p.ts, p.ys
    out = np.empty((len(times), ys.shape[1]))
    out[times <= ts[0]] = ys[0]
    out[times >= ts[-1]] = ys[-1]
    if inside.any():
        with np.errstate(divide="ignore", invalid="ignore"):  # a stalled last step
            out[inside] = _dense(p, segs, times[inside])
    return out


def _row_failure(exc, what, name, row, t, state):
    at = "" if t is None else f" at t={t}"
    return exc(
        f"{name} row {row}: {what}{at}, state {np.array2string(state)}",
        t=t, state=state, row=row, model=name,
    )


def _screen(values, rows, t, y, name,
            what="field evaluation returned non-finite values in the step starting"):
    """Raise PoisonedStateError for the first row with a non-finite value.

    values is (stages, rows, width); the whole-block sum is the cheap screen.
    """
    if math.isfinite(values.sum()):
        return
    bad = np.nonzero(~np.isfinite(values).all(axis=(0, 2)))[0]
    if len(bad):
        b = bad[0]
        raise _row_failure(
            PoisonedStateError, what, name, int(rows[b]), float(t[b]), y[b].copy(),
        )


def _combine(K, coeffs, out, tmp):
    """Fixed-order elementwise sum of coefficient * stage over the nonzero
    entries, accumulated in out with tmp as scratch."""
    (j, a), *rest = coeffs
    np.multiply(K[j], a, out=out)
    for j, a in rest:
        np.add(out, np.multiply(K[j], a, out=tmp), out=out)
    return out


def _dp_engine(rhs, t0, t1, Y, cfg, line_cols, name, ends_only=False, node_check=None,
               stop=None, max_step=math.inf):
    """Masked lockstep DOP853 on the rows of Y over [t0, t1].

    Every row keeps its own t, h and accept/reject decision, and leaves the
    block when it completes, blows up (a line coordinate past
    cfg.blowup_threshold, bracketed on the dense output), spends
    cfg.max_steps accepted steps or, with `stop`, ends the step that
    `stop(t, y, t_new, y_new)` flags (status STOPPED).  `stop` sees each
    accepted step of each row once, in step order, with the rows that
    accepted a step as its leading axis.

    A step costs 12 field evaluations: 11 inner stages and the derivative at
    the new node, which is the next step's first stage (FSAL).  Its error is
    DOP853's 5th/3rd-order estimate, and the step size follows it with the
    exponent 1/8 of that order, clamped to [0.2, 5] per step; the first step
    comes from the field at the start and at one probe point (Hairer,
    Norsett & Wanner, Solving ODEs I, II.4 and II.5), and is at least
    1e-12 max(1, |t0|), so it advances t from any start; no step is longer
    than max_step.  A step's size is taken as t_new - t, so a path's nodes
    fix every stage of its steps and the dense output's extra stages can be
    made later, only for the segments that are read (`_dense`).  Stage sums are fixed-order and
    elementwise, so a row's path is bit-identical to the same row run alone
    (given a row-wise rhs).  Stages, states and sums live in buffers made
    once per call; the live rows are their leading rows.  A non-finite start
    row raises PoisonedStateError before any field evaluation.

    Returns one _Path per row, with every accepted node, or with `ends_only`
    the first node and the last step.  `node_check(ys)` flags rows of a
    block of nodes, and `node_check.failure(name, row, t, node)` is the
    error for a flagged node.  It is raised before stepping for a flagged
    start node.  A step to a flagged trial node is rejected (its step
    shrinks by 5), so a flagged node is accepted only at the smallest step,
    1e-14 max(1, |t|), where the error is raised.
    """
    # trial steps may overflow; every non-finite stage is screened and raised
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rel, atol, thr = cfg.rel_tol, cfg.abs_tol, cfg.blowup_threshold
        N, w = Y.shape
        rows = np.arange(N)  # the batch index of each block row
        # one allocation for all per-call buffers: 13 stages (K[0] is the
        # derivative at the current node, K[12] at the trial node), the state
        # and the trial state (swapped on acceptance) and four scratch arrays
        buf = np.empty((19, N, w))
        K, (y, y_new, s, tmp, tmp2, sc) = buf[:13], buf[13:]
        y[...] = Y
        t = np.full(N, float(t0))
        _screen(y[None], rows, t, y, name, "non-finite start")
        rhs(y, K[0])
        _screen(K[:1], rows, t, y, name)
        lost = None if node_check is None else node_check(y)
        if lost is not None and lost.any():
            b = int(np.argmax(lost))
            raise node_check.failure(name, b, float(t0), y[b])
        # initial step (II.4) for order 8, from the field at the start and
        # at one probe point a short Euler step away
        scale = atol + rel * np.abs(y)
        d0 = np.sqrt(np.mean((y / scale) ** 2, axis=1))
        d1 = np.sqrt(np.mean((K[0] / scale) ** 2, axis=1))
        ok = (d0 > 1e-5) & (d1 > 1e-5)
        h = np.where(ok, 0.01 * d0 / np.where(ok, d1, 1.0), 1e-6)
        rhs(np.add(y, h[:, None] * K[0], out=y_new), K[1])
        d2 = np.fmax(d1, np.sqrt(np.mean(((K[1] - K[0]) / scale) ** 2, axis=1)) / h)
        h = np.minimum(100.0 * h, np.where(
            d2 <= 1e-15, np.maximum(1e-6, 1e-3 * h), (0.01 / d2) ** (1.0 / 8.0)))
        h = np.maximum(np.minimum(h, min(0.1 * (t1 - t0), max_step)),
                       1e-12 * max(1.0, abs(t0)))
        fails = np.zeros(N, dtype=np.int64)
        n_acc = np.zeros(N, dtype=np.int64)
        n_rej = np.zeros(N, dtype=np.int64)
        h_min, h_max = np.full(N, np.inf), np.full(N, -np.inf)
        first = _node_records(t, y, K[0])
        log = None if ends_only else _NodeLog()
        if log is not None:
            log.add(rows, first)
        ended = {}  # batch row -> (status, counts, step range, last step's nodes)
        while len(rows):
            t_new = t + np.minimum(h, t1 - t)
            h = t_new - t
            hc = h[:, None]
            for i, coeffs in enumerate(_DOP_A, 1):
                np.multiply(hc, _combine(K, coeffs, s, tmp), out=s)
                rhs(np.add(y, s, out=y_new), K[i])
            _screen(K[1:], rows, t, y, name)
            sc = np.maximum(np.abs(y, out=tmp), np.abs(y_new, out=tmp2), out=sc)
            sc = np.add(atol, np.multiply(rel, sc, out=sc), out=sc)
            e5, e3 = (
                np.square(np.divide(_combine(K, E, s, tmp), sc, out=s), out=s).sum(axis=1)
                for E in (_DOP_E5, _DOP_E3)
            )
            den = e5 + 0.01 * e3
            # both estimates zero (an exact step) is no error; a NaN stays NaN
            err = np.where(den == 0.0, 0.0, h * e5 / np.sqrt(den * w))
            # a trial node that fails the node check is rejected like an error
            lost = None if node_check is None else node_check(y_new)
            if lost is not None and lost.any():
                err = np.where(lost, np.inf, err)
            acc = (err <= 1.0) | (h <= 1e-14 * np.maximum(1.0, np.abs(t)))
            if lost is not None and (acc & lost).any():  # accepted at the smallest step
                b = int(np.argmax(acc & lost))
                raise node_check.failure(name, int(rows[b]), float(t_new[b]), y_new[b])
            # exact steps (err = 0, e.g. at equilibria) grow maximally; fmin/fmax
            # keep h unchanged (reject) or shrink it (accept) on a NaN error
            fac = 0.9 * np.maximum(err, 1e-10) ** (-1.0 / 8.0)
            if not acc.all():
                h_rej = h * np.fmax(0.2, np.fmin(1.0, fac))
                n_rej += ~acc
                fails = np.where(acc, 0, fails + 1)
                if fails.max() > 60:
                    b = int(np.argmax(fails > 60))
                    raise _row_failure(
                        ConvergenceError, "step size collapsed without acceptance",
                        name, int(rows[b]), float(t[b]), y[b].copy(),
                    )
                if not acc.any():
                    h = h_rej
                    continue
            h_acc = np.minimum(h * np.fmin(5.0, np.fmax(0.2, fac)), max_step)
            stalled = acc & (t_new == t)
            if stalled.any():
                b = int(np.argmax(stalled))
                raise _row_failure(
                    ConvergenceError, "accepted a step too small to advance t",
                    name, int(rows[b]), float(t[b]), y[b].copy(),
                )
            n_acc += acc
            np.minimum(h_min, h, out=h_min, where=acc)
            np.maximum(h_max, h, out=h_max, where=acc)
            # a row ends on blow-up, completion or its step budget, in that order
            blown = np.zeros(len(rows), dtype=bool)
            if line_cols and np.abs(y_new[:, line_cols]).max() > thr:
                blown = acc & (np.abs(y_new[:, line_cols]).max(axis=1) > thr)
            done = blown | (acc & ((t_new >= t1) | (n_acc >= cfg.max_steps)))
            sel = slice(None) if acc.all() else acc
            if stop is not None:
                done[sel] |= stop(t[sel], y[sel], t_new[sel], y_new[sel])
            if log is not None:
                log.add(rows[sel], _node_records(t_new[sel], y_new[sel], K[12, sel]))
            if done.any():
                ends = np.nonzero(done)[0]
                if log is None:  # the two nodes of the last step of each ending row
                    after = _node_records(t_new[ends], y_new[ends], K[12, ends])
                    before = _node_records(t[ends], y[ends], K[0, ends])
                for i, b in enumerate(ends):
                    status = (BLOWUP if blown[b] else COMPLETED if t_new[b] >= t1
                              else MAX_STEPS if n_acc[b] >= cfg.max_steps else STOPPED)
                    # the node before the last step is left out when it is the first
                    last = None if log is not None else (
                        after[i : i + 1] if n_acc[b] == 1 else np.stack([before[i], after[i]]))
                    ended[int(rows[b])] = (
                        status, int(n_acc[b]), int(n_rej[b]), float(h_min[b]),
                        float(h_max[b]), last,
                    )
            if acc.all():
                fails[:] = 0
                t, h = t_new, h_acc
                y, y_new = y_new, y
                K[0] = K[12]  # a copy: the next step overwrites K[12]
            else:
                t = np.where(acc, t_new, t)
                np.copyto(y, y_new, where=acc[:, None])
                np.copyto(K[0], K[12], where=acc[:, None])
                h = np.where(acc, h_acc, h_rej)
            if done.any():
                keep = ~done
                rows, t, h, fails, n_acc, n_rej, h_min, h_max = (
                    a[keep] for a in (rows, t, h, fails, n_acc, n_rej, h_min, h_max)
                )
                live = len(rows)
                y[:live], K[0, :live] = y[keep], K[0][keep]
                y, y_new, s, tmp, tmp2, sc = (a[:live] for a in (y, y_new, s, tmp, tmp2, sc))
                K = K[:, :live]
    nodes = log.by_row(N) if log is not None else None
    paths = []
    for r in range(N):
        status, accepted, rejected, h_lo, h_hi, last = ended[r]
        node = nodes[r] if nodes is not None else np.concatenate([first[r : r + 1], last])
        paths.append(_Path(
            ts=node[:, 0], ys=node[:, 1 : 1 + w], fs=node[:, 1 + w :], status=status,
            t_end=float(node[-1, 0]),
            stats=IntegrationStats(
                accepted, rejected, 12 * (accepted + rejected) + 2, h_lo, h_hi
            ),
            rhs=rhs,
        ))
    for p in paths:
        if p.status == BLOWUP:
            _bracket_blowup(p, line_cols, thr)
    return paths


def _node_records(t, y, f):
    """Records [t | y | f] of nodes: time, state and derivative."""
    return np.concatenate([t[:, None], y, f], 1)


class _NodeLog:
    """Accepted nodes [t | y | f] of a batch, logged per step as one
    record array with the rows it belongs to.  Every 64 steps the records are
    merged into one block, so a long run holds a few large arrays, neither
    one small array per node nor a buffer padded to the longest row."""

    def __init__(self):
        self.blocks, self.rows = [], []
        self.pending, self.pending_rows = [], []

    def add(self, rows, rec):
        self.pending.append(rec)
        self.pending_rows.append(rows)
        if len(self.pending) == 64:
            self.blocks.append(np.concatenate(self.pending))
            self.rows.append(np.concatenate(self.pending_rows))
            self.pending, self.pending_rows = [], []

    def by_row(self, N):
        """The records of each of the N rows, in step order."""
        recs = np.concatenate(self.blocks + self.pending)
        ids = np.concatenate(self.rows + self.pending_rows)
        self.blocks = self.rows = self.pending = self.pending_rows = None  # merged
        if N > 1:
            order = np.argsort(ids, kind="stable")
            recs, ids = recs[order], ids[order]
        bounds = np.searchsorted(ids, np.arange(N + 1))
        return [recs[bounds[r] : bounds[r + 1]] for r in range(N)]


def _bracket_blowup(p, line_cols, thr):
    """Bisection on the last segment's dense output for the threshold crossing."""
    i = len(p.ts) - 2
    a, b = float(p.ts[i]), float(p.ts[i + 1])
    while (b - a) > 1e-6 * max(abs(a), abs(b), 1e-12) and (b - a) > 1e-15:
        mid = 0.5 * (a + b)
        if float(np.max(np.abs(_dense(p, i, mid)[line_cols]))) > thr:
            b = mid
        else:
            a = mid
    p.t_end = p.t_escape = b


def _line_indices(m):
    return np.nonzero(~m.spec.angle_mask)[0]


def _joint_rhs(m, k, racc):
    """Joint field of the rows y = [x | n*k tangent entries, row-major n x k | r].

    Both engines use it on (N, w) batches, the fixed-step one column-major,
    the adaptive one row-major.  `rhs(y, out=None)` writes X, the tangent
    product DX F and eta(X) into the columns of out, a new array laid out
    like y when None; out must not overlap y.  The tangent product sums
    over the last axis, which rounds by layout (np.einsum over 3 or more
    terms, matmul), so it reads a C-ordered copy of the tangent block and
    gives the same bits in either layout.  The field alone is m.X itself,
    one tangent without the Lee channel and the Lee channel without
    tangents are the model's fused field (X_DXv, X_etaX) when it has one,
    which takes `(y, out=None)` as X does and equals this composed one bit
    for bit on finite blocks (X_DXv may leave out the products of DX's
    structural zeros, which are nan on a non-finite entry: 0 * inf).
    Tangents need the model's DX and the Lee channel its eta_X; a model
    without them raises StructureError here, before any step.
    """
    if k and m.DX is None:
        raise StructureError(f"{m.name} states no Jacobian DX")
    if racc and m.eta_X is None:
        raise StructureError(f"{m.name} states no eta_X, a Lee form's value on X")
    fused = {(0, False): m.X, (1, False): m.X_DXv, (0, True): m.X_etaX}.get((k, racc))
    if fused is not None:
        return fused
    n, nk = m.dim, m.dim * k
    DX = m.jacobian

    def rhs(y, out=None):
        if out is None:
            out = np.empty_like(y)
        x = y[..., :n]
        m.X(x, out[..., :n])
        if k == 1:
            v = np.ascontiguousarray(y[..., n : 2 * n])
            np.einsum("...ij,...j->...i", DX(x), v, out=out[..., n : 2 * n])
        elif k:
            F = np.ascontiguousarray(y[..., n : n + nk]).reshape(y.shape[:-1] + (n, k))
            out[..., n : n + nk] = (DX(x) @ F).reshape(y.shape[:-1] + (nk,))
        if racc:
            out[..., -1] = m.eta_X(x)
        return out

    return rhs


def _require_flow(m):
    if m.kind != FLOW:
        raise KindError(f"{m.name} is not a flow model")


def _is_int(v):
    """Whether v is an int or a numpy integer, not a bool: a count's test."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _integrate_core(m, x0, t_span, cfg, with_frames, times, samples, initial_frame):
    """A Trajectory for a state x0 of shape (dim,), a list of N for a batch (N, dim)."""
    _require_flow(m)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ParamError(f"time span must be finite, got ({t0}, {t1})")
    if t0 == t1:
        raise ParamError("zero-length time span")
    if times is None and not (_is_int(samples) and samples >= 2):
        raise ParamError(f"samples must be an integer >= 2, got samples={samples!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[-1] != m.dim:
        raise DimensionMismatchError(
            f"x0 must have shape ({m.dim},) or (N, {m.dim}), got {x0.shape}"
        )
    X0 = np.atleast_2d(x0)
    cfg = cfg or IntegratorConfig()
    if times is not None:
        times = np.asarray(times, dtype=float)
        lo, hi = min(t0, t1), max(t0, t1)
        if not (times.ndim == 1 and np.all((times >= lo) & (times <= hi))):  # NaN too
            raise ParamError(f"times must be a 1-D array inside [{lo}, {hi}], got {times}")
    if t1 < t0:
        rev_times = None if times is None else np.sort(t0 - times)
        trajs = [
            _reversed(t0, traj) for traj in _integrate_core(
                time_reversed_view(m), X0, (0.0, t0 - t1), cfg, with_frames, rev_times,
                samples, initial_frame,
            )
        ]
        return trajs if x0.ndim == 2 else trajs[0]
    if times is not None and not np.all(np.diff(times) > 0):
        raise ParamError(f"times must increase, got {times}")
    N, n = X0.shape
    with_racc = m.eta is not None
    cols = [X0]
    if with_frames:
        F0 = np.eye(n) if initial_frame is None else np.asarray(initial_frame, float)
        if F0.shape not in ((n, n), (N, n, n)):
            raise DimensionMismatchError(
                f"initial_frame must have shape ({n}, {n}) or ({N}, {n}, {n})"
            )
        cols.append(np.broadcast_to(F0, (N, n, n)).reshape(N, n * n))
    if with_racc:
        cols.append(np.zeros((N, 1)))
    Y0 = np.concatenate(cols, axis=1)
    k = n if with_frames else 0
    paths = _dp_engine(
        _joint_rhs(m, k, with_racc), t0, t1, Y0, cfg, _line_indices(m).tolist(), m.name,
        ends_only=times is None and samples == 2,
        node_check=_OrientationCheck(n) if with_frames else None,
    )
    row_times = [_sample_times(p, t0, times, samples) for p in paths]
    where = [_segments(p, ts) for p, ts in zip(paths, row_times)]
    _extend(paths, [segs for _, segs in where])  # one batch over the rows
    trajs = [
        _trajectory(m, p, ts, _sample(p, ts, *w), with_frames, with_racc)
        for p, ts, w in zip(paths, row_times, where)
    ]
    return trajs if x0.ndim == 2 else trajs[0]


class _OrientationCheck:
    """Node check of variational runs: the frame's determinant is <= 0.

    It runs at every node, not on samples: a frame entry below abs_tol may
    change sign between nodes under any interpolant.  The adaptive engine
    rejects a step to a node it flags; DOP853's stability function is
    negative for some large steps on a fast contracting direction, where
    the frame's sign rides below abs_tol.
    """

    def __init__(self, n):
        self.n = n

    def __call__(self, ys):
        n = self.n
        return np.linalg.det(ys[:, n : n + n * n].reshape(-1, n, n)) <= 0.0

    def failure(self, name, row, t, node):
        return _row_failure(
            ConvergenceError, "tangent frames lost orientation (det <= 0)",
            name, row, t, node[: self.n].copy(),
        )


def _sample_times(p, t0, times, samples):
    """A row's sample times: `samples` even ones over [t0, t_end], or the
    requested ones up to t_end, with t_end appended."""
    if times is None:
        return np.linspace(t0, p.t_end, samples)
    times = times[times <= p.t_end + 1e-15]
    if len(times) == 0 or times[-1] < p.t_end:
        times = np.append(times, p.t_end)
    return times


def _trajectory(m, p, times, ys, with_frames, with_racc):
    """A row's Trajectory from its path and its samples ys at times."""
    n = m.dim
    return Trajectory(
        times=times, states=m.spec.wrap(ys[:, :n]),
        frames=ys[:, n : n + n * n].reshape(-1, n, n) if with_frames else None,
        r_accum=ys[:, -1] if with_racc else None, status=p.status,
        t_escape=p.t_escape, stats=p.stats,
    )


def _reversed(t0, traj):
    """The physical-time view of a run of the time-reversed field started at t0."""
    phys = t0 - traj.times
    order = np.argsort(phys)
    return Trajectory(
        times=phys[order],
        states=traj.states[order],
        frames=None if traj.frames is None else traj.frames[order],
        r_accum=None if traj.r_accum is None else traj.r_accum[order],
        status=traj.status,
        t_escape=None if traj.t_escape is None else t0 - traj.t_escape,
        backward=True,
        stats=traj.stats,
    )


def _negated(f):
    return None if f is None else (lambda x: -np.asarray(f(x), dtype=float))


def _negated_field(X):
    """The field -X(x, out), negated in place."""
    def negated(x, out=None):
        out = X(x, out)
        return np.negative(out, out=out)

    return negated


def time_reversed_view(m):
    """The flow of -X as a ModelSpec; repelling orbits of m are attracting for it.

    -X has the defining identity of m with -alpha and -H (eta and lambda
    stay).  -H is not fiber-convex, and the view does not split: it has no
    X_sym and DX_sym.  It has no closed-form flow and no fused joint fields,
    so its joint field composes the negated X, DX and eta_X.
    """
    _require_flow(m)
    return replace(
        m, alpha=-m.alpha, X=_negated_field(m.X), DX=_negated(m.DX), H=_negated(m.H),
        dH=_negated(m.dH), eta_X=_negated(m.eta_X), X_sym=None, DX_sym=None, X_DXv=None,
        X_etaX=None, flow_exact=None, cotangent_splittable=False, fiber_convex=False,
    )


def integrate_flow(m, x0, t_span, cfg=None, samples=201, times=None):
    """Dense-output trajectory over t_span at `samples` even times, an
    integer >= 2, or at `times`: increasing times inside the span (a
    backward span sorts them), with the run's end appended.  A non-finite
    span end, a bad `samples`, a NaN time, a time outside the span or times
    that do not increase raise ParamError before any step.

    x0 of shape (N, dim) returns a list of N trajectories, each bit-identical
    to the call on its row alone.
    """
    return _integrate_core(m, x0, t_span, cfg, False, times, samples, None)


def integrate_variational(m, x0, t_span, cfg=None, samples=201, times=None,
                          initial_frame=None):
    """Trajectory with tangent frames, state and frame in one controlled system.

    Batched like integrate_flow; initial_frame is (n, n) or one per row (N, n, n).
    """
    return _integrate_core(m, x0, t_span, cfg, True, times, samples, initial_frame)


# ---------------------------------------------------------------------------
# structure-preserving splitting and fixed-step drivers
# ---------------------------------------------------------------------------

def _verlet_step(m, x, h):
    d = m.d
    q, p = x[:, :d], x[:, d:]
    p_half = p - 0.5 * h * m.grad_V(q)
    q_new = q + h * p_half
    p_new = p_half - 0.5 * h * m.grad_V(q_new)
    eye = np.eye(d)
    drift = np.block([[eye, h * eye], [np.zeros((d, d)), eye]])
    kicks = np.zeros((2, len(x), 1, 1)) + np.eye(2 * d)  # after, before the drift
    kicks[..., d:, :d] = -0.5 * h * np.stack([m.hess_V(q_new), m.hess_V(q)])
    return np.concatenate([q_new, p_new], axis=1), kicks[0] @ drift @ kicks[1]


def _midpoint_step(m, x, h, starts):
    """Implicit midpoint on the rows of x (N, n), sweeping only unconverged rows.

    Fixed-point sweeps z <- x + h X_sym((x + z)/2) converge while h times the
    Lipschitz constant of X_sym stays below 2.  A row's sweeps end once its
    update is non-finite (the diverging sweeps overflow quietly), and the
    first row they leave unconverged, then or after MIDPOINT_MAX_SWEEPS,
    raises ConvergenceError with the row's state in starts, the Strang
    step's input.
    """
    z = x.copy()
    act = np.arange(len(x))
    failed = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MIDPOINT_MAX_SWEEPS):
            xa, za = x[act], z[act]
            z_next = xa + h * np.asarray(m.X_sym(0.5 * (xa + za)), dtype=float)
            update = np.max(np.abs(z_next - za), axis=-1)
            done = update <= MIDPOINT_TOL * (1.0 + np.max(np.abs(xa), axis=-1))
            lost = ~np.isfinite(update)
            z[act] = z_next
            failed += act[lost].tolist()
            act = act[~(done | lost)]
            if not len(act):
                break
    failed += act.tolist()
    if failed:
        b = min(failed)
        raise _row_failure(
            ConvergenceError, _MIDPOINT_FAILED, m.name, b, None, starts[b].copy()
        )
    A = m.DX_sym(0.5 * (x + z))
    eye = np.eye(x.shape[-1])
    return z, np.linalg.solve(eye - 0.5 * h * A, eye + 0.5 * h * A)


def conformal_splitting_step(m, x, h):
    """One exactly-conformal Strang step of each state in x, shaped (..., dim).

    Returns (states, one-step Jacobians) shaped (..., dim) and (..., dim, dim);
    each row is bit-identical to the step of that row alone.  Mechanical
    models take a Stormer-Verlet step, the others an implicit midpoint step
    solved by fixed-point sweeps only.  A midpoint row the sweeps leave
    unconverged (h too large for its state, or no real root near it) raises
    ConvergenceError naming that row and its input state.
    """
    if not m.cotangent_splittable:
        raise KindError(f"{m.name} is not cotangent-splittable")
    if not (math.isfinite(h) and h <= 0.5):
        raise ParamError(f"splitting step size must be finite and satisfy h <= 0.5, got h={h}")
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (m.dim,):
        raise DimensionMismatchError(f"x must have shape (..., {m.dim}), got {x.shape}")
    d, rows = m.d, x.reshape(-1, m.dim)
    c = math.exp(-0.5 * m.alpha * h)
    z = rows.copy()
    z[:, d:] *= c
    if m.mechanical:
        z, J = _verlet_step(m, z, h)
    else:
        z, J = _midpoint_step(m, z, h, rows)
    z[:, d:] *= c
    contract = np.diag([1.0] * d + [c] * d)
    return z.reshape(x.shape), (contract @ J @ contract).reshape(x.shape + (m.dim,))


def _rk4_weights(h):
    """The multipliers 0.5 h, 2, h and h / 6 of an RK4 step of size h as 0-d
    arrays, which a ufunc takes faster than Python floats, with the same
    bits."""
    return tuple(np.array(v) for v in (0.5 * h, 2.0, h, h / 6.0))


def _rk4_step(rhs, x, weights, stages):
    """x + (h/6)(k1 + 2 k2 + 2 k3 + k4), written over x, in that operation
    order, with weights _rk4_weights(h), built once per step size.

    The weighted sum is accumulated stage by stage, so stages holds only
    three arrays shaped like x: the sum, the current k and the stage input.
    Every ufunc writes into one of them, out passed positionally.
    """
    acc, k, z = stages
    half_h, two, h, sixth_h = weights
    rhs(x, acc)
    rhs(np.add(x, np.multiply(acc, half_h, z), z), k)
    np.add(acc, np.multiply(k, two, z), acc)
    rhs(np.add(x, np.multiply(k, half_h, z), z), k)
    np.add(acc, np.multiply(k, two, z), acc)
    rhs(np.add(x, np.multiply(k, h, z), z), k)
    np.add(acc, k, acc)
    return np.add(x, np.multiply(acc, sixth_h, acc), x)


def _n_steps(t, h):
    """Steps of a fixed-step run over [0, t] with step h; the last may be short."""
    if not (math.isfinite(t) and t >= 0):
        raise ParamError(f"fixed-step integration needs a finite t >= 0, got t={t}")
    if not (math.isfinite(h) and h > 0):
        raise ParamError(f"fixed-step integration needs a finite step h > 0, got h={h}")
    steps = t / h - 1e-12
    if not steps < 2**63:
        raise ParamError(f"fixed-step integration of t={t} at h={h} takes too many steps")
    return math.ceil(steps)


def _column_major(blocks):
    """The (N, w_i) blocks side by side as one fixed-step batch: the (N, w)
    view of a C-contiguous (w, N) buffer, built without a row-major copy."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    w = sum(b.shape[-1] for b in blocks)
    return np.concatenate(blocks, axis=1, out=np.empty((w, len(blocks[0]))).T)


def _fixed_step_engine(m, Y, t, h, k=0, racc=False, on_step=None):
    """Masked RK4 integration of the rows of Y = [x | n*k tangent | r].

    A row dies, frozen where it stopped, once its state is non-finite or a
    line coordinate passes BLOWUP_THRESHOLD.  A step is screened by one
    call, the sum of squares of the live states (tangent and Lee columns
    left out): below the threshold's square, no coordinate reaches the
    threshold and every row lives; otherwise (nan, an overflow, or rows
    large together but each within it) the exact per-row test decides.
    While every row lives the batch steps whole, in place; the index of
    live rows is rebuilt only when one dies.

    The batch is column-major: Y is the (N, w) view of a C-contiguous (w, N)
    buffer, and so are the three RK4 stage buffers and the gathered live
    rows, so each column a field reads or writes (q, p, a tangent entry, r)
    is one contiguous array.  Evaluators get such (N, w) views and write
    into the stage buffers.  Elementwise arithmetic gives the same bits in
    any layout; a reduction over the last axis (np.einsum over 3 or more
    terms, np.sum over 8 or more, matmul) rounds by layout, so it must read
    a C-ordered copy.  np.sum over fewer than 8 adds in sequence onto 0.0 in
    either layout, as geometry._sum_last does column by column.
    `on_step(step, Y, died)`, classify_ensemble's observer, sees each
    step's unwrapped states (with r as a last column when racc) as a
    column-major view and must neither keep nor mutate Y: the next step
    overwrites it.  died, updated in place, holds the step each row died in
    (n_steps while it lives, -1 for a non-finite start): row i is frozen at
    every step k > died[i].  Y, built by _column_major, is overwritten;
    returns (Y, alive), each nan of Y written as np.nan, as a ufunc keeps
    either of two nans that meet by the row's place in the batch.

    Without an observer, a batch whose four (N, w) arrays (Y and the three
    stage buffers) pass 4 * _TILE_BYTES, half a 2 MiB L2, steps in the
    tiles of _tiles: each tile's rows are copied into a column-major block
    of their own, with stage buffers of their own, and run every step
    before the next tile starts, so the tile stays in L2 from step to step.
    """
    n_steps = _n_steps(t, h)
    rhs = _joint_rhs(m, k, racc)
    tiles = _tiles(*Y.shape) if on_step is None else [(0, len(Y))]
    if len(tiles) == 1:
        return _rk4_rows(m, rhs, Y, t, h, n_steps, on_step)
    alive = np.empty(len(Y), dtype=bool)
    for lo, hi in tiles:
        Y[lo:hi], alive[lo:hi] = _rk4_rows(m, rhs, _column_major([Y[lo:hi]]), t, h, n_steps)
    return Y, alive


def _tiles(n_rows, width):
    """Row bounds (lo, hi) of the tiles the fixed-step engine steps a batch of
    n_rows rows of width floats in: the whole batch while its four arrays
    take at most 4 * _TILE_BYTES, else tiles of about _TILE_BYTES each."""
    row_bytes = 4 * 8 * width
    if n_rows * row_bytes <= 4 * _TILE_BYTES:
        return [(0, n_rows)]
    rows = max(1, _TILE_BYTES // row_bytes)
    return [(lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows)]


def _rk4_rows(m, rhs, Y, t, h, n_steps, on_step=None):
    """The fixed-step engine's run of the column-major batch Y as one block."""
    n = m.dim
    bound = BLOWUP_THRESHOLD * BLOWUP_THRESHOLD
    # three (N, w) column-major buffers; the live rows step in their
    # leading rows, through views made again only when the live rows change
    buffers = np.empty((3,) + Y.shape[::-1]).transpose(0, 2, 1)
    line = (~m.spec.angle_mask).astype(float)  # inf or nan times 0 stays nan
    live = np.all(np.isfinite(Y[:, :n]), axis=1)
    died = np.where(live, n_steps, -1)
    act = None if len(Y) and live.all() else np.nonzero(live)[0]
    stages = tuple(buffers[:, : len(Y) if act is None else len(act)])
    weights = _rk4_weights(h)
    tau = 0.0
    for step in range(n_steps):
        hh = min(h, t - tau)
        w = weights if hh == h else _rk4_weights(hh)  # a short last step
        if act is None:
            Y = rows = _rk4_step(rhs, Y, w, stages)
        elif len(act):
            rows = _rk4_step(rhs, np.take(Y.T, act, axis=1).T, w, stages)  # column-major
            Y[act] = rows
        else:
            break
        tau += hh
        # the states' columns as one flat view of the column-major block;
        # strictly below the bound, so no rounded square reaches it, even
        # where the bound overflowed to inf
        s = rows.T[:n].reshape(-1)
        if not np.dot(s, s) < bound:
            dead = ~(np.max(np.abs(rows[:, :n]) * line, axis=1) <= BLOWUP_THRESHOLD)
            if dead.any():
                died[np.nonzero(died == n_steps)[0][dead]] = step
                act = np.nonzero(died == n_steps)[0]
                stages = tuple(buffers[:, : len(act)])
        if on_step is not None:
            on_step(step, Y, died)
    np.copyto(Y, np.nan, where=np.isnan(Y))
    return Y, died == n_steps


def _state_batch(m, states):
    """states as an (N, dim) float batch; DimensionMismatchError otherwise."""
    _require_flow(m)
    X = np.asarray(states, dtype=float)
    if X.ndim != 2 or X.shape[1] != m.dim:
        raise DimensionMismatchError(f"states must have shape (N, {m.dim}), got {X.shape}")
    return X


def transport_tangents(m, states, vectors, t, h=1e-3):
    """Batched transport of one tangent vector per state along the flow.

    Fixed-step RK4 on the joint system (x, v) with v' = DX(x) v.  states and
    vectors are (N, dim) batches.  Returns (final_states, final_vectors,
    alive_mask), C-ordered.
    """
    states, n = _state_batch(m, states), m.dim
    if np.shape(vectors) != states.shape:
        raise DimensionMismatchError(
            f"vectors must have the states' shape {states.shape}, got {np.shape(vectors)}")
    Y, alive = _fixed_step_engine(m, _column_major([states, vectors]), t, h, k=1)
    return m.spec.wrap(Y[:, :n]), np.ascontiguousarray(Y[:, n:]), alive


def flow_ensemble(m, states, t, h=0.01, *, racc=False):
    """Vectorized fixed-step RK4 transport of an (N, dim) batch of states.

    Returns (final_states, alive_mask[, r_accum]), C-ordered.  Escaped
    samples (line coordinates past BLOWUP_THRESHOLD) and non-finite ones are
    frozen where they died.  Rows evolve independently and every nan is
    np.nan, so no row's bytes depend on how a caller slices the batch.
    """
    X, n = _state_batch(m, states), m.dim
    Y = _column_major([X, np.zeros((len(X), 1))] if racc else [X])
    Y, alive = _fixed_step_engine(m, Y, t, h, racc=racc)
    out = (m.spec.wrap(Y[:, :n]), alive)
    return out + (Y[:, n],) if racc else out


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def iterate_map(m, x0, n):
    """Orbit of a map model; negative n uses the closed-form inverse.

    Stored like a flow: times 0..n forward, and for n < 0 times n..0
    ascending with the final iterate first, so final_state is f^n(x0)
    either way.
    """
    if m.kind != MAP:
        raise KindError(f"{m.name} is not a map model")
    if not _is_int(n):
        raise ParamError(f"iterate_map takes an integer n, got n={n!r}")
    if n < 0 and m.f_inv is None:
        raise KindError(f"{m.name} provides no inverse")
    x = np.asarray(x0, dtype=float)
    step = m.f if n >= 0 else m.f_inv
    states = [m.spec.wrap(x)]
    for _ in range(abs(n)):
        x = np.asarray(step(x), dtype=float)
        states.append(m.spec.wrap(x))
    order = slice(None, None, -1 if n < 0 else 1)
    return Trajectory(
        times=np.arange(min(n, 0), max(n, 0) + 1, dtype=float),
        states=np.array(states[order]),
        backward=n < 0,
    )


def time_t_map(m, t):
    """Wrap a flow as a map model with Jacobians and a negated-field inverse.

    f, f_inv and Df take a state (dim,) or a batch (N, dim) and run the
    batch through the adaptive engine at the default IntegratorConfig in one
    call, keeping only each row's ends, so each row is bit-identical to that
    state alone.  A row that blows up raises BlowUpError with its t_escape.
    """
    _require_flow(m)
    if not (math.isfinite(t) and t != 0):
        raise ParamError(f"time-t map requires a finite t != 0, got t={t}")

    def _end(x, span, frames):
        x = np.asarray(x, dtype=float)
        fn = integrate_variational if frames else integrate_flow
        ends = []
        for row, traj in enumerate(fn(m, np.atleast_2d(x), span, samples=2)):
            if traj.status == BLOWUP:
                raise BlowUpError(
                    f"{m.name} row {row}: orbit blew up before t={span[1]}",
                    t_escape=traj.t_escape,
                )
            ends.append(traj.final_frame if frames else traj.final_state)
        return np.array(ends) if x.ndim > 1 else ends[0]

    def f(x):
        return _end(x, (0.0, t), False)

    def f_inv(x):
        return _end(x, (t, 0.0), False)

    def Df(x):
        return _end(x, (0.0, t), True)

    ratio = math.exp(-m.alpha * t) if (m.exact_symplectic and m.alpha > 0) else None
    return ModelSpec(
        name=f"{m.name}:time-{t}",
        spec=m.spec,
        kind=MAP,
        params=dict(m.params),
        ratio_a=ratio,
        f=f,
        Df=Df,
        f_inv=f_inv,
        H=m.H,
        dH=m.dH,
        lam=m.lam,
        eta=m.eta,
        Omega=m.Omega,
    )


# ---------------------------------------------------------------------------
# Poincare sections
# ---------------------------------------------------------------------------

@dataclass
class SectionSpec:
    """Coordinate hyperplane section x[axis] = offset, crossed in `direction`
    (+1 increasing, -1 decreasing, 0 either way); on an angle axis the
    offset is taken modulo 1."""

    axis: int
    offset: float = 0.0
    direction: int = 1

    def __post_init__(self):
        if self.direction not in (-1, 0, 1):
            raise SectionError("direction must be -1, 0 or +1")

    def value(self, spec, x):
        """x[axis] - offset, into [-0.5, 0.5) on an angle axis (spec.delta)."""
        origin = np.zeros(spec.dim)
        origin[self.axis] = self.offset
        return spec.delta(origin, x)[..., self.axis][()]  # [()]: a numpy float for one state

    def check_dim(self, dim):
        """Raise SectionError unless the axis is one of a dim-dimensional model's."""
        if not (_is_int(self.axis) and 0 <= self.axis < dim):
            raise SectionError(f"section axis {self.axis!r} is outside 0..{dim - 1}")


def poincare_return(m, sec, x0, k, cfg=None):
    """First k directed section crossings with projected return Jacobians;
    k is an integer >= 1 (ParamError before any step otherwise).

    Returns (crossings, jacobians, times, rotation_integrals); the last
    entry holds the accumulated Lee integral at each crossing (zeros when
    the model carries no Lee form).  Integration proceeds in time chunks of
    _RETURN_CHUNK, and the run ends with the accepted step that holds the
    k-th crossing; SectionError when there are fewer up to t = _RETURN_T_MAX.
    Crossings are refined by bisection on the DOP853 dense output to
    time accuracy 1e-10; tangential crossings (|dg/dt| <= 1e-8) are rejected
    rather than guessed.  No step is longer than 0.2 / max(|X(x0)|, 1) nor
    0.05, where |X(x0)| is the largest speed component at the start, which
    keeps a step well short of a full turn at that speed.
    """
    _require_flow(m)
    sec.check_dim(m.dim)
    if not (_is_int(k) and k >= 1):
        raise ParamError(f"poincare_return takes an integer k >= 1, got k={k!r}")
    cfg = cfg or IntegratorConfig()
    x0 = np.asarray(x0, dtype=float)
    max_step = min(0.2 / max(float(np.max(np.abs(m.X(x0)))), 1.0), 0.05)
    n = m.dim
    with_racc = m.eta is not None
    rhs = _joint_rhs(m, n, with_racc)
    guard = 0.25 if m.spec.axes[sec.axis] == "angle" else math.inf

    def g(ys):
        return np.asarray(sec.value(m.spec, ys[..., :n]), dtype=float)

    def directed(t_a, g_a, g_b):
        """Segments whose section values g_a -> g_b hold a directed crossing;
        a start on the section at t = 0 is none."""
        hit = ~(g_a * g_b > 0) & ~(np.abs(g_b - g_a) >= guard) & ~((g_a == 0.0) & (t_a == 0.0))
        if sec.direction:
            hit &= (g_b > g_a) == (sec.direction == 1)
        return hit

    found = 0  # directed crossings up to the engine's current step

    def kth_crossing(t, y, t_new, y_new):
        nonlocal found
        hit = directed(t, g(y), g(y_new))
        found += int(hit.sum())  # one row
        return hit & (found >= k)

    crossings, jacobians, times, raccs = [], [], [], []
    y_start = np.concatenate([x0, np.eye(n).ravel()] + ([[0.0]] if with_racc else []))
    line_cols = _line_indices(m).tolist()
    t_base = 0.0
    while t_base < _RETURN_T_MAX:
        span = min(_RETURN_CHUNK, _RETURN_T_MAX - t_base)
        found = len(crossings)
        p = _dp_engine(
            rhs, t_base, t_base + span, y_start[None], cfg, line_cols, m.name,
            stop=kth_crossing, max_step=max_step,
        )[0]
        ts = p.ts
        gs = g(p.ys)
        hits = np.nonzero(directed(ts[:-1], gs[:-1], gs[1:]))[0]
        for i in hits:
            a, b, ga = ts[i], ts[i + 1], float(gs[i])
            while (b - a) > 1e-10:
                mid = 0.5 * (a + b)
                gm = float(sec.value(m.spec, _dense(p, i, mid)[:n]))
                if (gm > 0) == (ga > 0) and gm != 0.0:
                    a, ga = mid, gm
                else:
                    b = mid
            t_star = 0.5 * (a + b)
            if t_star > p.t_end:
                break  # past a bracketed blow-up
            y_star = _dense(p, i, t_star)
            x_star = y_star[:n]
            xdot = np.asarray(m.X(x_star), dtype=float)
            gdot = float(xdot[sec.axis])
            if abs(gdot) <= 1e-8:
                raise SectionError("tangential section crossing rejected")
            F = y_star[n : n + n * n].reshape(n, n)
            proj = np.eye(n)  # I - xdot grad^T / gdot, grad the axis' unit vector
            proj[:, sec.axis] -= xdot / gdot
            crossings.append(m.spec.wrap(x_star))
            jacobians.append(proj @ F)
            times.append(t_star)
            raccs.append(float(y_star[-1]) if with_racc else 0.0)
            if len(crossings) == k:
                return crossings, jacobians, times, raccs
        if p.status == BLOWUP:
            raise BlowUpError("orbit blew up before the requested crossings",
                              t_escape=p.t_escape)
        t_base = float(p.ts[-1])
        y_start = p.ys[-1]
    raise SectionError(f"only {len(crossings)} of {k} crossings found before t={_RETURN_T_MAX}")
