"""Numerical integration of the moment-map energy flow and its diagnostics.

The downward gradient flow of f = |mu|^2 is integrated with the
Dormand-Prince 8(5,3) pair DOP853 in the projective clock s, under an
energy guard that rejects any step raising f beyond its round-off; samples
are read off the step's seventh-order continuous extension on a geometric
output grid, and the error test bounds that extension too. Both flows step
the field of f^ = f / |v|^4 on the unit sphere. The stages are real, on the
layout v.view(float), and each energy call is one realified kernel
(``representation.energy_kernel``) that writes its slope into the stage
buffer. The projective flow is that field; the affine flow steps in polar
form, u = v/|v| on the sphere while l = log|v|^2 and the time t are
quadratures inside the error test, and collapses in closed form past a
critical point of f^. A projective run may carry the affine flow along, l
and t outside its error test. The group lift is computed from the finished
trajectory by batched Magnus steps.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DiagnosticError
from .linalg import expm, row_norms
from .representation import energy_kernel, flow_generator

MIN_STEP = 1e-14          # a step below this ends the flow by step_underflow
SAMPLE_GROWTH = 0.04      # ratio of the geometric output grid
MAX_STEPS = 2_000_000     # budget of accepted and rejected steps
PROJECTIVE_T_MAX = 1e6    # default horizon of the projective flow, clock s
_EPS = float(np.finfo(float).eps)

__all__ = [
    "FlowOptions",
    "FlowTrajectory",
    "LojasiewiczFit",
    "RateReport",
    "integrate_kempf_ness",
    "cointegrate_group",
    "integrate_projective",
    "fit_lojasiewicz",
    "check_rates",
]


@dataclass(frozen=True)
class FlowOptions:
    """Knobs of the adaptive integrator.

    ``t_max`` and the output grid t_0 = 0, t_{j+1} = t_j + max(initial_step,
    SAMPLE_GROWTH t_j) are in the flow's own clock (t for affine, s for
    projective), the steps in s. The grid is no step cap: log-log fits over
    the final decade always have enough samples.
    """

    t_max: float = 1e4
    eps_grad: float = 1e-10
    initial_step: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-12


@dataclass
class FlowTrajectory:
    """Time-stamped samples of the flow and (optionally) its group lift.

    ``kind`` is ``affine`` (``t`` is the affine time) or ``projective`` (``t``
    is s); ``s`` = integral of |v|^2 dt is the integrator's clock. ``steps``
    counts the accepted steps, ``rejected`` the rejected ones by cause,
    ``evaluations`` the energy calls; ``h_min`` and ``h_max`` bound the step
    sizes, in s; the affine flow a projective run carries has none of these.
    The samples lie on the output grid, plus the final state. A lifted
    trajectory holds g at the samples, and at the knots of the lift (the
    samples and the step ends, in the trajectory's clock) in ``knots`` and
    ``g_knots``; ``lift_residual`` is max |g v0 - v|
    / |v0| over the knots, projectively up to phase. ``affine`` is the affine
    flow a projective run integrated with ``affine`` options carries.
    """

    t: np.ndarray
    v: np.ndarray
    f: np.ndarray
    grad_norm: np.ndarray
    terminated_reason: str
    s: np.ndarray
    g: np.ndarray | None = None
    kind: str = "affine"
    eps_grad: float = FlowOptions.eps_grad
    steps: int = 0
    rejected: dict = field(default_factory=dict)
    evaluations: int = 0
    h_min: float = np.nan
    h_max: float = np.nan
    lift_residual: float | None = None
    knots: np.ndarray | None = field(default=None, repr=False, compare=False)
    g_knots: np.ndarray | None = field(default=None, repr=False, compare=False)
    affine: "FlowTrajectory | None" = field(default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.t)

    @property
    def clock(self):
        return "s" if self.kind == "projective" else "t"

    @property
    def v_norm(self):
        """|v| per sample, safe from over- and underflow of |v|^2."""
        c, r = _scaled_norms(self.v)
        with np.errstate(over="ignore"):
            return c * r

    def converged(self):
        return self.terminated_reason == "gradient_small"

    def to_csv(self, path):
        """Write the declared CSV contract with round-trip decimal numbers."""
        m, n = self.v.shape
        cols = ["t", "s", "f", "grad_norm", "v_norm"]
        cols += [f"v{i}_{part}" for i in range(n) for part in ("re", "im")]
        blocks = [np.ascontiguousarray(self.v).view(float)]
        if self.g is not None:
            cols += [f"g{i}{j}_{part}" for i in range(n) for j in range(n)
                     for part in ("re", "im")]
            blocks.append(np.ascontiguousarray(self.g).reshape(m, -1).view(float))
        table = np.column_stack([self.t, self.s, self.f, self.grad_norm, self.v_norm]
                                + blocks)
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            # tolist() gives Python floats, whose repr round-trips; one row
            # at a time, so no Python copy of the whole table is held
            fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in table)


def _table(width, rows):
    """The rows of dicts {column: entry} as an array (len(rows), width)."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


def _power_basis(rows):
    """The rows P of sum_p theta^p P[p - 1], p = 1..7, equal to the nested
    theta (r1 + (1 - theta) (r2 + theta (r3 + ... (1 - theta) (r6 + theta
    r7)))) of the ``rows`` r1..r7."""
    p = np.zeros((len(rows) + 1, rows[0].size))
    for i, row in enumerate(rows[::-1]):
        p[0] += row
        shifted = np.roll(p, 1, axis=0)    # theta p
        p = shifted if i % 2 == 0 else p - shifted
    return p[1:]


# DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett and Wanner, Solving
# ODEs I, II.10), with the coefficients of Hairer's dop853.f. Row i of _A
# holds the weights of stages 0..i-1 in stage i. Row 12 is the eighth-order
# solution, so stage 12 is the slope at the new state, which is also the
# first stage of the next step (first same as last); rows 13..15 are the
# three stages of the continuous extension. The seventh-order extension
# (Hairer's contd8: r1 = B, r2 = e0 - B, r3 = 2 B - e0 - e12 and r4..r7 =
# D, in units of h ks) is y(t + theta h) = y + h sum_p theta^p (_P[p - 1]
# @ ks), p = 1..7, over all sixteen stages; it meets the step's ends in
# value and slope. The rows of _E take the stages to the fifth- and
# third-order error estimates and to the extension's last term r7, whose
# weight theta^4 (1 - theta)^3 peaks at _R7. The flow is autonomous, so the
# nodes c_i are not needed.
_A = _table(16, [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
])
_B = _A[12, :12]
_E5, _B3 = _table(16, [
    {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
     6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
     8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
     10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1},
    {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
     11: 0.220588235294117647058823529412e-1},
])
_D = _table(16, [
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
])
_E0, _E12 = np.eye(16)[[0, 12]]
_P = _power_basis([_A[12], _E0 - _A[12], 2 * _A[12] - _E0 - _E12, *_D])
_E = np.array([_E5, _A[12] - _B3, _D[3]])
_R7 = 4**4 * 3**3 / 7**7
_POWERS = np.arange(1, 8)


def _rkf45_step(energy, y, h, k1):
    """One DOP853 step from the complex y (n,), whose slope k1 = -grad is
    known, in real arithmetic on the layout y.view(float); the benchmark's
    tracer binds the name, kept from the pair DOP853 replaced. Returns
    (y_new, f_new, ks, fs, err): the eighth-order solution (through
    :func:`_projective_gauge`), its energy, the sixteen stages (16, n) as a
    complex view, the energies at stages 1..15 (fs[11] = f_new) and
    :func:`_step_error`. Fifteen energy calls write the slopes into the stage
    buffer: eleven inner stages, y_new and the extension's three. A
    non-finite y_new is not evaluated: f_new and its four stages are NaN."""
    x = y.view(float)
    ks = np.full((16, x.size), np.nan)
    ks[0] = k1.view(float)
    ha = h * _A
    fs = [energy(x + ha[i, :i].dot(ks[:i]), ks[i]) for i in range(1, 12)] + [np.nan] * 4
    y_new = (x + h * _B.dot(ks[:12])).view(complex)
    if np.isfinite(y_new).all():
        y_new = _projective_gauge(y_new)
        fs[11:] = [energy(y_new.view(float) if i == 12 else x + ha[i, :i].dot(ks[:i]), ks[i])
                   for i in range(12, 16)]
    err5, err3, r7 = (h * _E.dot(ks)).view(complex)
    return y_new, fs[11], ks.view(complex), fs, _step_error(err5, err3, r7)


def _step_error(err5, err3, r7):
    """A step's error estimate per component: the larger of Hairer's err5
    |err5| / hypot(|err5|, 0.1 |err3|) (0 where both vanish) and the peak
    _R7 |r7| of the extension's last term, which bounds the extension too."""
    a5 = np.abs(err5)
    den = np.hypot(a5, 0.1 * np.abs(err3))
    return np.maximum(a5 * (a5 / np.where(den > 0.0, den, 1.0)), _R7 * np.abs(r7))


# The polar quadratures: _A takes dl/ds at the stages to l at them; _POLAR_C
# takes the stage slopes of l or t to the increment, errors and extension.
_POLAR_C = np.column_stack([_A[12], _E.T, _P.T])


def _polar_step(l, t, h, fs, opts, nxt):
    """l = log|v|^2 and t after a polar step h from (l, t), from f^ at the
    sixteen stages (dl/ds = -8 f^, dt/ds = e^-l); the larger of their local
    errors (:func:`_step_error`) over rtol and atol + rtol t (inf if not
    finite); and the step's rows on the t grid of ``opts``: their t from the
    grid point ``nxt`` on, step fractions theta and l off the extension,
    then the grid point after them and whether the step reaches ``t_max``,
    its last row. A grid point within round-off of the step's end is no row
    of it (:func:`_walk_grid`). The t quadrature weighs e^-l_i - e^-l, and
    adds h e^-l to the increment and to the extension's linear term, so a
    step at constant l advances t by exactly h e^-l."""
    dl = -8.0 * np.array(fs)
    ls = l + h * (_A @ dl)
    rate = math.exp(-l)
    sums = h * (np.array([dl, np.exp(-ls) - rate]) @ _POLAR_C)
    l_err, t_err = _step_error(*sums[:, 1:4].T)
    cl, ct = sums[:, 4:]
    ct[0] += h * rate
    l_new, t_new = float(ls[12]), t + (h * rate + float(sums[1, 0]))
    err = max(l_err / opts.rtol, t_err / (opts.atol + opts.rtol * t_new))
    last = t_new >= opts.t_max * (1 - 1e-15)
    ts, nxt = _walk_grid(nxt, opts.t_max if last else t_new, opts.initial_step)
    ts += [opts.t_max] if last else []
    thetas = _theta_in_step(np.array(ts), t, t_new, ct)
    rows = ts, thetas.tolist(), (l + thetas[:, None] ** _POWERS @ cl).tolist()
    return l_new, t_new, err if math.isfinite(l_new + t_new + err) else math.inf, rows, nxt, last


def _theta_in_step(targets, t0, t1, ct):
    """The fractions theta (q,) of a polar step where t0 + sum_p theta^p
    ct[p - 1] meets ``targets`` (q,) in (t0, t1]: Newton on convex t(theta)."""
    theta = (targets - t0) / (t1 - t0)
    for _ in range(50):
        powers = theta[:, None] ** np.arange(8)    # theta^0 .. theta^7
        value, slope = powers[:, 1:] @ ct, powers[:, :-1] @ (_POWERS * ct)
        step = np.clip(theta - (t0 + value - targets) / slope, 0.0, 1.0) - theta
        theta += step
        if not np.abs(step).max(initial=0.0) > 1e-12:
            break
    return theta


def _adaptive_flow(energy, y0, opts, record=False, l0=None, affine=None):
    """Shared integrator of y' = -grad; returns (samples, stats), stats the
    trajectory's ``terminated_reason``, ``steps``, ``rejected``,
    ``evaluations``, ``h_min`` and ``h_max``, and the ``step_records`` that
    :func:`_pack` drops. Every state goes through :func:`_projective_gauge`.

    ``energy(x, out) -> f`` (``representation.energy_kernel``) takes the
    real layout x = y.view(float) of a state (n,) or a stack (q, n) and
    writes the slope -grad into ``out``. The grid points inside a step
    (:func:`_walk_grid`) are read off its continuous extension as one block,
    with one stacked ``energy`` call. Every step end is a row: a sample on
    the grid and at the end, else a lift knot only, listed in
    ``samples["knots_only"]``. A step is rejected when its new state is not
    finite (``"nonfinite"``, also on a silent overflow), when the error test
    fails (``"error"``) or when f would rise, from the lower of its start and
    the last sample, by more than 1e-12 of it and its round-off eps |y|
    |grad f|, |y| = 1, at its end or at a sample (``"energy"``).
    With ``record`` each accepted step keeps its start state, size and
    stages in lists, for the lift; else ``step_records`` is None.

    With ``l0`` = log|v0|^2 the run carries the affine flow from e^(l0/2)
    y0, ``energy`` being f^ on the sphere: l and the time t are quadratures
    of the stage energies (:func:`_polar_step`), with rows on a t grid. The
    affine flow ends in the step that reaches its ``t_max``, at a step end
    where |grad f(v)| = e^(3l/2) hypot(|grad f^|, 4 f^) < its ``eps_grad``
    (at once if |v|^3 underflows), or with the run, past whose
    ``gradient_small`` v collapses (:func:`_collapse_rows`).

    Alone, ``opts`` are its options and the run is that flow in polar form:
    l and t enter the error test, t is the grid's clock, and the t grid
    rows are the samples. A step is capped where t would reach ``t_max`` at
    its start rate e^-l; t is convex in s, so that step holds the last
    sample. The run also ends ``gradient_small`` at a critical point of f^,
    where |grad f^| and e^(3l/2) |grad f^| are both below ``eps_grad``.
    With ``affine`` options for it, the run stays projective and the affine
    flow rides along, outside the error test, its rows placed in each
    accepted step. One stacked ``energy`` call after the run gives the
    rows' f^ and slopes, outside the energy guard and ``evaluations``;
    ``stats["affine"]`` holds the rows and their stats.
    """
    polar = l0 is not None and affine is None
    aff = opts if polar else affine    # the affine flow's options, if it runs
    samples = {"t": [], "f": [], "v": [], "d": [], "s": [], "l": []}
    knots_only, hs = [], []
    records = dict(y=[], h=hs, ks=[]) if record else None

    def emit(ts, fs, vs, ds, ss=(), ls=()):    # consecutive rows; vs, ds are (m, n)
        for key, part in zip(samples, (ts, fs, [vs], [ds], ss, ls), strict=True):
            samples[key] += part

    def emit_state():    # with its s and l if polar
        emit([clock], [f], y[None], k1[None], *(([s], [l]) if polar else ()))

    def ride(ts, ss, ls, us):    # consecutive rows of a riding affine flow; us is (m, n)
        for key, part in zip(("t", "s", "l", "v"), (ts, ss, ls, [us])):
            rows[key] += part

    def finish(reason):    # every step end is a row already
        end = end_a or reason    # the affine flow's end, if it ended before the run
        if affine is not None:
            if steps and not end_a:    # the ride ends with the run, at its end
                ride([t], [s], [l], y[None])
            v_a = np.concatenate(rows["v"])
            d_a = np.empty_like(v_a)
            rows.update(f=energy(v_a.view(float), d_a.view(float)).tolist(), d=[d_a],
                        knots_only=[])
        if aff and not end_a and reason == "gradient_small":    # v may collapse on past it
            end = _collapse_rows(rows, aff, grid_t)
        if knots_only[-1:] == [len(samples["t"]) - 1]:
            knots_only.pop()    # the final state is a sample
        samples["knots_only"] = knots_only
        stats = dict(terminated_reason=end if polar else reason, steps=steps,
                     rejected=rejected, evaluations=evaluations, h_min=min(hs, default=np.nan),
                     h_max=max(hs, default=np.nan), step_records=records)
        if affine is not None:
            stats["affine"] = rows, dict(terminated_reason=end)
        return samples, stats

    # an overflowing state, the start included, ends as "nonfinite" silently
    with np.errstate(over="ignore", invalid="ignore"):
        # s is the clock of the steps; clock that of the output grid, t if
        # polar, else s. The affine flow has its t, l = log|v|^2, next t-grid
        # point and end; its rows are the samples if polar
        s = t = clock = err_lt = 0.0
        l, grid_t, end_a, y = l0, aff and aff.initial_step, None, np.array(y0, dtype=complex)
        rows = samples if polar else dict(t=[0.0], s=[0.0], l=[l0], v=[y[None]])
        evaluations = int(np.isfinite(y).all())
        k1 = np.full_like(y, np.nan)
        f_out = f = energy(y.view(float), k1.view(float)) if evaluations else np.nan
        k1_norm, abs_y = _norm(k1), np.abs(y)
        emit_state()
        steps, rejected = 0, {"error": 0, "energy": 0, "nonfinite": 0}
        if not (math.isfinite(f) and np.isfinite(k1).all()):
            return finish("nonfinite")
        grid = h = opts.initial_step    # the next output-grid point, and the step
        while True:
            small = k1_norm < opts.eps_grad
            if aff and not end_a:    # |grad f(v)| < eps_grad ends the affine flow
                cube = math.exp(min(1.5 * l, 709.0))    # |v|^3
                gone = (cube * math.hypot(k1_norm, 4.0 * f) < aff.eps_grad
                        and (steps or cube == 0.0))
                if polar:    # or at a critical point of f^
                    small = gone or k1_norm <= opts.eps_grad / max(1.0, cube)
                elif gone:    # the ride ends; a start is a row already
                    end_a = "gradient_small"
                    if steps:
                        ride([t], [s], [l], y[None])
            if small and (steps or polar and cube == 0.0):
                return finish("gradient_small")
            if clock >= opts.t_max * (1 - 1e-15):
                return finish("t_max")
            if h < MIN_STEP:
                return finish("step_underflow")
            if steps + sum(rejected.values()) >= MAX_STEPS:
                raise DiagnosticError("integrator exceeded the step budget")

            h_eff = min(h, (opts.t_max - clock) * (math.exp(min(l, 709.0)) if polar else 1.0))
            y_new, f_new, ks, fs_in, err = _rkf45_step(energy, y, h_eff, k1)
            evaluations += 15
            s_new = clock_new = s + h_eff
            if aff and not end_a:
                l_new, t_new, err_t, rows_t, nxt_t, last_t = _polar_step(
                    l, t, h_eff, [f, *fs_in], aff, grid_t)
            if polar:    # the affine flow's error is tested, and its rows are the run's
                clock_new, err_lt, (inside, thetas, l_in), nxt, last = (
                    t_new, err_t, rows_t, nxt_t, last_t)
            else:
                (inside, nxt), last = _walk_grid(grid, clock_new, opts.initial_step), False
                thetas = [(x - s) / h_eff for x in inside]
            if not (math.isfinite(f_new) and math.isfinite(err_lt)
                    and np.isfinite(err).all()):
                evaluations -= 4 * (not np.isfinite(y_new).all())    # then not evaluated
                rejected["nonfinite"] += 1
                h = 0.5 * h_eff
                continue
            abs_new = np.abs(y_new)
            scale = opts.atol + opts.rtol * np.maximum(abs_y, abs_new)
            err_norm = max(float((err / scale).max()), err_lt)
            if err_norm > 1.0:
                rejected["error"] += 1
                h = h_eff * max(0.2, 0.9 * err_norm ** -0.125)
                continue

            # f along the step, from the lower of the state and the last sample
            fs = [min(f, f_out)]
            if inside:
                dense, f_in, d_in = _read_grid(energy, y, h_eff, ks, np.array(thetas)[:, None])
                evaluations += len(inside)
                fs += f_in
            fs.append(f_new)
            # f is known only to its round-off: rounding y moves f by up to
            # eps |y| |grad f|, more than the relative slack near a zero of mu;
            # every state stepped from is gauged, |y| = 1
            if not _never_rises(fs, _EPS * k1_norm):
                rejected["energy"] += 1
                h = 0.5 * h_eff
                continue
            steps += 1
            hs.append(h_eff)
            if record:
                records["y"].append(y)
                records["ks"].append(ks)
            if inside:    # polar rows keep their s, and l off its extension
                emit(inside, f_in, dense, d_in,
                     *(([s + x * h_eff for x in thetas], l_in) if polar else ()))
                f_out = f_in[-1]
            if aff and not end_a:
                if not polar:    # the ride's rows in this step, off its extension
                    ts, ths, ls = rows_t
                    if ts:
                        ride(ts, [s + x * h_eff for x in ths], ls,
                             _projective_gauge(_extension(y, h_eff, ks, np.array(ths)[:, None])))
                    end_a = "t_max" if last_t else None
                t, l, grid_t = t_new, l_new, nxt_t
            s, y, f, k1, abs_y = s_new, y_new, f_new, ks[12].copy(), abs_new
            k1_norm, clock = _norm(k1), clock_new
            if last:    # its end lies past t_max, and is no row
                return finish("t_max")
            if nxt > clock:    # a step end off the grid is a lift knot only
                knots_only.append(len(samples["t"]))
            else:
                f_out = f
            emit_state()
            grid = _grid_after(nxt, opts.initial_step) if nxt <= clock else nxt
            if polar:    # the t grid is the output grid
                grid_t = grid
            h = h_eff * (5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.125)))


def _never_rises(fs, slack):
    """Whether no energy of the list ``fs`` exceeds the one before it by more
    than 1e-12 of it plus ``slack``; a NaN rises."""
    return all(b <= a * (1 + 1e-12) + slack for a, b in zip(fs, fs[1:]))


def _grid_after(tg, initial_step):
    """The output-grid point that follows the grid point tg (FlowOptions)."""
    return tg + max(initial_step, SAMPLE_GROWTH * tg)


def _walk_grid(nxt, end, initial_step):
    """The output-grid points from the grid point ``nxt`` on that lie below
    ``end`` by more than 1e-15 of it, and the grid point after them."""
    ts = []
    while nxt < end * (1 - 1e-15):
        ts.append(nxt)
        nxt = _grid_after(nxt, initial_step)
    return ts, nxt


def _extension(y, h, ks, theta):
    """States (q, n) at step fractions ``theta`` (q, 1) of a step's extension,
    in real arithmetic."""
    x = y.view(float) + h * (theta ** _POWERS @ _P.dot(ks.view(float)))
    return x.view(complex)


def _read_grid(energy, y, h, ks, theta):
    """Gauged states (q, n), energy list and slopes d = -grad (q, n) at step
    fractions ``theta`` (q, 1) of the continuous extension; one row goes in
    as a state (n,), for the kernel's cheaper one-state branch (same bits)."""
    dense = _extension(y, h, ks, theta)
    x = _projective_gauge(dense[0] if len(dense) == 1 else dense)
    d = np.empty_like(x)
    f = energy(x.view(float), d.view(float))
    return x.reshape(dense.shape), np.atleast_1d(f).tolist(), d.reshape(dense.shape)


def _norm(x):
    """``np.linalg.norm`` of a complex (n,), bit for bit, as a Python float."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _scaled_norms(x):
    """|x| of each row of a complex (m, n) as c |x / c|, returned as the pair
    (c, |x / c|): c is 1, or the largest real or imaginary part of a finite
    nonzero row whose |x|^2 under- or overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.linalg.norm(x, axis=1)
    c = np.ones_like(r)
    out = (r == 0) | np.isinf(r)
    if out.any():
        out &= np.isfinite(x).all(axis=1) & x.any(axis=1)
        w = x[out]
        c[out] = np.maximum(np.abs(w.real).max(axis=1), np.abs(w.imag).max(axis=1))
        r[out] = np.linalg.norm(w / c[out, None], axis=1)
    return c, r


def _pack(samples, stats, eps_grad, lift=None, v0=None):
    """The trajectory of the sample rows, lifted over all rows (the knots) in s
    with a presentation ``lift`` off the ``step_records`` of ``stats``, which
    it drops. A polar run's rows (u, f^, -grad f^) give the affine v =
    e^(l/2) u (``v0`` first), f = e^(2l) f^ and |grad f| = e^(3l/2)
    hypot(|grad f^|, 4 f^), as Re<grad f^, u> = 0."""
    records = stats.pop("step_records", None)
    t = np.array(samples["t"])
    v, d = np.concatenate(samples["v"]), np.concatenate(samples["d"])
    f = np.array(samples["f"])
    polar = bool(samples["l"])
    s = np.array(samples["s"]) if polar else t.copy()
    with np.errstate(over="ignore", invalid="ignore"):    # |d|^2 overflows to inf
        grad_norm = row_norms(d)
        if polar:
            l = np.array(samples["l"])
            grad_norm = np.exp(1.5 * l) * np.hypot(grad_norm, 4.0 * f)
            f = np.exp(2.0 * l) * f
            v = np.exp(0.5 * l)[:, None] * v
            v[0] = v0
    knots = g = g_knots = residual = None
    if lift is not None:
        knots, g_knots = t, _lift_path(lift, s, _step_extension(records, v.shape[1]))
        residual = _lift_residual(g_knots, v, not polar)
    keep = np.ones(len(t), dtype=bool)
    keep[samples["knots_only"]] = False
    t, v, f, grad_norm, s = t[keep], v[keep], f[keep], grad_norm[keep], s[keep]
    g = None if g_knots is None else g_knots[keep]
    return FlowTrajectory(t=t, v=v, f=f, grad_norm=grad_norm, s=s, g=g,
                          kind="affine" if polar else "projective", eps_grad=eps_grad,
                          lift_residual=residual, knots=knots, g_knots=g_knots, **stats)


def _lift_residual(g, v, projective):
    """max |g v0 - v| / |v0| over the samples, v0 = v[0]; projectively the
    distance of g v0 / |g v0| from v after the phase that minimizes it. A
    non-finite sample gives NaN."""
    with np.errstate(invalid="ignore"):
        gv = g @ v[0]
        if projective:
            gv = gv / np.linalg.norm(gv, axis=1)[:, None]
            overlap = np.sum(v.conj() * gv, axis=1)
            gv = gv * np.exp(-1j * np.angle(overlap))[:, None]
            return float(np.linalg.norm(gv - v, axis=1).max())
        return float(np.linalg.norm(gv - v, axis=1).max() / np.linalg.norm(v[0]))


# Knot intervals per batched Magnus pass: one generator call and one stacked
# expm per block, while the temporaries stay a fixed size however long the
# flow runs.
_LIFT_BLOCK = 64

# The two Gauss nodes on [0, 1], shaped (node, interval).
_GAUSS = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])[:, None]


def _step_extension(records, n):
    """The continuous extensions of the recorded steps as arrays (t0, h, y,
    c): step starts and sizes (S,), start states (S, n) and the rows c (S, 7,
    n) of y(t0 + theta h) = y + sum_p theta^p c[p - 1]. The starts are the
    running sums of the sizes, which are the integrator's clock bit for bit."""
    h = np.array(records["h"])
    t0 = np.concatenate([[0.0], np.cumsum(h)[:-1]])
    c = h[:, None, None] * (_P @ np.array(records["ks"]).reshape(-1, 16, n))
    return t0, h, np.array(records["y"]).reshape(-1, n), c


def _lift_path(p, s, steps):
    """Group lift at the knots ``s`` by fourth-order Magnus steps: g(0) = id,
    dg/ds = A(u) g, A = flow_generator(p, u) / |u|^2 (the affine flow's too,
    as A(v) dt = A(v) / |v|^2 ds). Each interval's two Gauss nodes are read
    off the extension of the step that holds them (past the last step, its
    end), so a block of intervals takes one batched generator call and one
    stacked ``expm``, and g is a running product. Errors sit in the exponent
    and vanish as the generator converges, so log g stays accurate."""
    t0, hs, ys, cs = steps
    m, n = len(s), ys.shape[1]
    g = np.empty((m, n, n), dtype=complex)
    g[0] = np.eye(n)
    for a in range(0, m - 1, _LIFT_BLOCK):
        b = min(a + _LIFT_BLOCK, m - 1)
        h = s[a + 1:b + 1] - s[a:b]
        tau = s[a:b] + _GAUSS * h                                   # (2, b - a)
        k = np.searchsorted(t0, tau, side="right") - 1              # the step of a node
        theta, c = np.minimum((tau - t0[k]) / hs[k], 1.0)[..., None], cs[k]
        nodes = ys[k] + (theta[..., None] ** _POWERS @ c)[..., 0, :]    # (2, b - a, n)
        n2 = np.einsum("...i,...i->...", nodes.conj(), nodes).real
        a1, a2 = flow_generator(p, nodes) / n2[..., None, None]
        h = h[:, None, None]
        omega = 0.5 * h * (a1 + a2) + (np.sqrt(3) * h * h / 12.0) * (a2 @ a1 - a1 @ a2)
        for i, step in enumerate(expm(omega), start=a):
            np.matmul(step, g[i], out=g[i + 1])
    return g


def _projective_gauge(y):
    """The representative y / |y| with |v| = 1 of a state (n,) or, bit for
    bit row by row, of a stack (q, n). No phase is fixed: f^ is
    U(1)-invariant, so Re<grad f^(v), iv> = 0 and the flow has no phase
    drift along J0 v."""
    if y.ndim == 1:
        return y / _norm(y)
    return y / row_norms(y)[:, None]


def _unit_start(v0):
    """(v0, u0 = v0 / |v0|, l0 = log|v0|^2), safe from the under- or overflow
    of |v0|^2. A zero v0 is l0 = -inf with any unit u0, here e_1, where f^
    is defined; a non-finite v0 is its own u0."""
    v0 = np.asarray(v0, dtype=complex)
    (c,), (norm0,) = _scaled_norms(v0[None])
    if 0.0 < norm0 < np.inf:
        u0 = _projective_gauge(v0 / c)
    else:
        u0 = np.eye(v0.size, dtype=complex)[0] if norm0 == 0.0 else v0
    with np.errstate(divide="ignore"):
        return v0, u0, 2.0 * (np.log(c) + np.log(norm0))


def _polar_flow(p, v0, opts, lift):
    """The affine flow from v0 in polar form (:func:`_adaptive_flow`), lifted
    if ``lift``; a zero v0 (l0 = -inf) is a fixed point, its only sample."""
    opts = opts or FlowOptions()
    v0, u0, l0 = _unit_start(v0)
    samples, stats = _adaptive_flow(energy_kernel(p, True), u0, opts, record=lift, l0=l0)
    return _pack(samples, stats, opts.eps_grad, lift=p if lift else None, v0=v0)


def _collapse_rows(samples, opts, nxt):
    """Append the rows past a polar run's ``gradient_small`` end on the rest
    of the output grid, from its grid point ``nxt`` on and after the end,
    where u_e is a critical point of f^ = f_e and v collapses along it; their
    reason. e^-l = e^-l_e + 8 f_e (t - t_e) gives l = l_e - log(1 + x), x =
    8 f_e e^l_e (t - t_e), and s - s_e = log(1 + x) / (8 f_e), taken from
    log x. The rows end where |grad f(v)| = e^(3l/2) hypot(|grad f^|, 4 f_e)
    falls below eps_grad (none if it is there already), or at t_max."""
    t_e, s_e, l_e, f_e = (samples[key][-1] for key in ("t", "s", "l", "f"))
    u_e, d_e = samples["v"][-1][-1:], samples["d"][-1][-1:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        grad_e = np.hypot(_norm(d_e[0]), 4.0 * f_e)
        if np.exp(1.5 * l_e) * grad_e < opts.eps_grad:
            return "gradient_small"
        l_small = (2.0 / 3.0) * np.log(opts.eps_grad / grad_e)
        # e^-l_small - e^-l_e, safe from the overflow of e^l_e
        t_small = t_e - np.exp(-l_small) * np.expm1(l_small - l_e) / (8.0 * f_e)
        reason, t_final = (("gradient_small", t_small) if t_small < opts.t_max
                           else ("t_max", opts.t_max))
        ts, _ = _walk_grid(nxt, t_final, opts.initial_step)
        t = np.array([x for x in ts if x > t_e] + ([t_final] if t_final > t_e else []))
        log1p_x = np.logaddexp(0.0, l_e + np.log(8.0 * f_e * (t - t_e)))
        ds = log1p_x / (8.0 * f_e) if f_e > 0 else np.exp(l_e) * (t - t_e)
    q = len(t)
    for key, part in zip(("t", "f", "v", "d", "s", "l"), (
            t.tolist(), [f_e] * q, [np.repeat(u_e, q, axis=0)], [np.repeat(d_e, q, axis=0)],
            (s_e + ds).tolist(), (l_e - log1p_x).tolist())):
        samples[key] += part
    return reason


def integrate_kempf_ness(p, v0, opts=None):
    """Downward gradient flow of f = |mu|^2 from v0, affine clock t, stepped
    in polar form (:func:`_polar_flow`)."""
    return _polar_flow(p, v0, opts, lift=False)


def cointegrate_group(p, v0, opts=None):
    """Affine flow with the group lift: g(0) = id, g' = 2i mu(v)^ g, so g(t)
    v0 = v(t), and |g v0 - v| <= tau_lift |v0| holds to integrator accuracy;
    the lift is computed from the recorded steps by :func:`_lift_path`."""
    return _polar_flow(p, v0, opts, lift=True)


def integrate_projective(p, v0, opts=None, cointegrate=False, affine=None):
    """Projectivized flow on the unit-sphere representative, clock s.

    Every state, the start included, goes through :func:`_projective_gauge`
    (|v| = 1). With ``cointegrate`` the trajectory also carries the group
    lift g' = 2i mu^ g, computed by :func:`_lift_path`, so [g(s) v0] = [v(s)].
    With ``affine`` options it also carries, in ``affine``, the affine flow
    from v0 on their t grid, read off its own steps (:func:`_adaptive_flow`).
    """
    opts = opts or FlowOptions(t_max=PROJECTIVE_T_MAX)
    v0, u0, l0 = _unit_start(v0)
    if not v0.any():
        raise DiagnosticError("projective flow needs a nonzero start vector")
    samples, stats = _adaptive_flow(energy_kernel(p, True), u0, opts,
                                    record=cointegrate, affine=affine,
                                    l0=None if affine is None else l0)
    rows = stats.pop("affine", None)
    traj = _pack(samples, stats, opts.eps_grad, lift=p if cointegrate else None)
    if rows is not None:
        traj.affine = _pack(*rows, affine.eps_grad, v0=v0)
    return traj


@dataclass
class LojasiewiczFit:
    alpha_hat: float
    decay_exponent: float
    fit_quality: float        # R^2 of log f against log t (power law)
    semilog_quality: float    # R^2 of log f against t (exponential)


def _r_squared(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return slope, 1.0
    return slope, 1.0 - float(np.sum(resid**2)) / ss_tot


# Fewest positive samples, in all and in the final decade, a tail fit takes.
MIN_FIT_SAMPLES = 50


def fit_lojasiewicz(traj):
    """Fit the tail decay rate of f and translate it into an exponent estimate.

    The slope m of log f against log t over the final decade of t gives
    decay_exponent = -m and alpha_hat = (1 + 1/decay_exponent) / 2. Requires
    at least two decades of decreasing f in the tail, else raises
    :class:`DiagnosticError`.
    """
    t, f = traj.t, traj.f
    pos = (t > 0) & (f > 0)
    if pos.sum() < MIN_FIT_SAMPLES:
        raise DiagnosticError("not enough positive samples for a tail fit")
    t, f = t[pos], f[pos]
    t_end = t[-1]
    two_dec = t >= t_end / 100.0
    if t[two_dec][0] > t_end / 50.0:
        raise DiagnosticError("tail spans fewer than two decades of time")
    drop = f[two_dec][0] / f[-1]
    if drop <= 1.0:
        raise DiagnosticError("f does not decrease over the tail")

    window = t >= t_end / 10.0
    if window.sum() < MIN_FIT_SAMPLES:
        raise DiagnosticError(
            f"final decade holds {int(window.sum())} samples; need {MIN_FIT_SAMPLES}"
        )
    lt, lf = np.log(t[window]), np.log(f[window])
    slope, r2 = _r_squared(lt, lf)
    decay = -slope
    alpha_hat = 0.5 * (1.0 + 1.0 / decay) if decay != 0 else float("nan")
    _, r2_semilog = _r_squared(t[window], lf)
    return LojasiewiczFit(alpha_hat=float(alpha_hat), decay_exponent=float(decay),
                          fit_quality=r2, semilog_quality=r2_semilog)


@dataclass
class RateReport:
    applicable: bool
    f_plateau_ratio: float = float("nan")
    dist_plateau_ratio: float = float("nan")
    limit_is_origin: bool = False


def check_rates(traj, alpha):
    """Plateau check of the polynomial decay rates implied by exponent alpha.

    Over the final decade, f(t) * t^(1/(2a-1)) and |v(t) - v_inf| * t^((1-a)/(2a-1))
    must flatten out; the report carries their max/min ratios. For a
    stationary trajectory the report is flagged not applicable. The limit
    v_inf is the final sample, or the origin for a still-collapsing
    trajectory whose norm keeps shrinking.
    """
    if len(traj) < 10 or traj.f[0] <= 0 or traj.f[-1] >= traj.f[0] * (1 - 1e-9):
        return RateReport(applicable=False)
    t = traj.t
    e_f = 1.0 / (2 * alpha - 1)
    e_d = (1 - alpha) / (2 * alpha - 1)

    vn = traj.v_norm
    still_shrinking = np.all(np.diff(vn[len(vn) // 2:]) <= 1e-12 * vn[0])
    limit_is_origin = (vn[-1] <= 1e-2 * vn[0] and still_shrinking
                       and not traj.converged()) or vn[-1] <= 1e-6 * vn[0]
    v_inf = np.zeros_like(traj.v[-1]) if limit_is_origin else traj.v[-1]

    t_end = t[-1]
    win_f = (t >= t_end / 10.0) & (t > 0)
    vals_f = traj.f[win_f] * t[win_f] ** e_f

    if limit_is_origin:
        win_d = win_f
    else:
        # the last samples sit on top of v_inf; back off one decade
        win_d = (t >= t_end / 100.0) & (t <= t_end / 10.0) & (t > 0)
    dist = np.linalg.norm(traj.v[win_d] - v_inf, axis=1)
    vals_d = dist * t[win_d] ** e_d

    def ratio(vals):
        vals = vals[vals > 0]
        if len(vals) == 0:
            return float("nan")
        return float(vals.max() / vals.min())

    return RateReport(applicable=True, f_plateau_ratio=ratio(vals_f),
                      dist_plateau_ratio=ratio(vals_d),
                      limit_is_origin=limit_is_origin)
