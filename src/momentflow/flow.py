"""Numerical integration of the moment-map energy flow and its diagnostics.

The downward gradient flow of f = |mu|^2 is integrated with the embedded
Dormand-Prince 5(4) pair in the projective clock s, under an energy guard
that rejects any step raising f beyond its round-off; samples are read off
the continuous extension on a geometric output grid. Both flows step the
field of f^ = f / |v|^4 on the unit sphere. The stages are real, on the
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
    samples and the ends of the steps that hold none, in the trajectory's
    clock) in ``knots`` and ``g_knots``; ``lift_residual`` is max |g v0 - v|
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


# Dormand-Prince 5(4) tableau (Hairer, Norsett and Wanner, Solving ODEs I,
# II.5); the fifth-order solution is propagated. Row i of _DP_A holds the
# weights of stages 0..i-1 in stage i. The seventh stage is the slope at the
# new state, which is also the first stage of the next step (first same as
# last), so _DP_B has a zero there and _DP_E = b5 - b4 spans all seven stages.
# The fourth-order continuous extension (II.6) is y(t + theta h) = y + h
# sum_p theta^p (_DP_P[p - 1] @ ks), p = 1..4; it meets the step's ends in
# value and slope. The flow is autonomous, so the nodes c_i are not needed.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = _DP_B - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                          -92097 / 339200, 187 / 2100, 1 / 40])
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])
_E0, _E6 = np.eye(7)[[0, 6]]
_DP_P = np.array([_E0, 3 * _DP_B - 2 * _E0 - _E6 + _DP_D,
                  _E0 + _E6 - 2 * _DP_B - 2 * _DP_D, _DP_D])
_DP_B6 = _DP_B[:6]
_POWERS = np.arange(1, 5)


def _rkf45_step(energy, y, h, k1):
    """One Dormand-Prince step from the complex y (n,), whose slope k1 =
    -grad is known, in real arithmetic on the layout y.view(float).

    Returns (y_new, f_new, ks, fs, err): the fifth-order solution (through
    :func:`_projective_gauge`), its energy, the seven stages (7, n), the
    energies of the five inner stages and the embedded error estimate, the
    arrays as complex views. The last stage is the slope at y_new, so a step
    makes six energy calls, each writing its slope into the stage buffer. A
    non-finite y_new is not evaluated: f_new and the last stage are NaN.
    """
    x = y.view(float)
    ks = np.empty((7, x.size))
    ks[0] = k1.view(float)
    ha = h * _DP_A
    fs = [energy(x + ha[i, :i].dot(ks[:i]), ks[i]) for i in range(1, 6)]
    y_new = (x + h * _DP_B6.dot(ks[:6])).view(complex)
    f_new, ks[6] = np.nan, np.nan
    if np.isfinite(y_new).all():
        y_new = _projective_gauge(y_new)
        f_new = energy(y_new.view(float), ks[6])
    return y_new, f_new, ks.view(complex), fs, (h * _DP_E.dot(ks)).view(complex)


# Weights of the polar quadratures: _POLAR_W takes dl/ds at the stages to l
# at the six stages that feed a step and at its end; _POLAR_C takes the stage
# slopes of l or t to the increment, the error estimate and the extension.
_POLAR_W = np.zeros((7, 7))
_POLAR_W[:6, :5], _POLAR_W[6, :6] = _DP_A, _DP_B6
_POLAR_C = np.column_stack([_DP_B, _DP_E, _DP_P.T])


def _polar_step(l, t, h, fs, opts, nxt):
    """l = log|v|^2 and t after a polar step h from (l, t), from f^ at the
    seven stages (dl/ds = -8 f^, dt/ds = e^-l); the larger of their local
    errors over rtol and atol + rtol t (inf if not finite); and the step's
    rows on the t grid of ``opts``: their t from the grid point ``nxt`` on,
    step fractions theta and l off the extension, then the grid point after
    them and whether the step reaches ``t_max``, its last row. A grid point
    within round-off of the step's end is no row of it (:func:`_walk_grid`).
    The t quadrature weighs e^-l_i - e^-l, and adds h e^-l to the increment
    and to the extension's linear term, so a step at constant l advances t
    by exactly h e^-l."""
    dl = -8.0 * np.array(fs)
    ls = l + h * (_POLAR_W @ dl)
    rate = math.exp(-l)
    (_, l_err, *cl), (t_inc, t_err, *ct) = (
        h * (np.array([dl, np.exp(-ls) - rate]) @ _POLAR_C)).tolist()
    ct[0] += h * rate
    l_new, t_new = float(ls[6]), t + (h * rate + t_inc)
    err = max(abs(l_err) / opts.rtol, abs(t_err) / (opts.atol + opts.rtol * t_new))
    last = t_new >= opts.t_max * (1 - 1e-15)
    ts, nxt = _walk_grid(nxt, opts.t_max if last else t_new, opts.initial_step)
    ts += [opts.t_max] if last else []
    thetas = [_theta_in_step(x, t, t_new, ct) for x in ts]
    rows = ts, thetas, [l + x * (cl[0] + x * (cl[1] + x * (cl[2] + x * cl[3]))) for x in thetas]
    return l_new, t_new, err if math.isfinite(l_new + t_new + err) else math.inf, rows, nxt, last


def _theta_in_step(target, t0, t1, ct):
    """The fraction theta of a polar step where t0 + sum_p theta^p ct[p - 1]
    meets ``target`` in (t0, t1]: Newton on the convex t(theta), in floats."""
    c1, c2, c3, c4 = ct
    theta = (target - t0) / (t1 - t0)
    for _ in range(50):
        resid = t0 + theta * (c1 + theta * (c2 + theta * (c3 + theta * c4))) - target
        slope = c1 + theta * (2.0 * c2 + theta * (3.0 * c3 + theta * 4.0 * c4))
        step = min(max(theta - resid / slope, 0.0), 1.0) - theta
        theta += step
        if not abs(step) > 1e-12:
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
    (:func:`_walk_grid`) are read off its
    continuous extension as one block, with one stacked ``energy`` call; a
    step end is a sample only on the grid, the final state always. The end
    of a step that holds no sample is a lift knot only, a row listed in
    ``samples["knots_only"]``. A step is rejected when its new state is not
    finite (``"nonfinite"``, also on a silent overflow), when the error test
    fails (``"error"``) or when f would rise, by more than 1e-12 of it and
    its round-off eps |y| |grad f|, |y| = 1, at its end or at a sample
    (``"energy"``).
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

    def finish(reason):
        # a polar run that ends t_max has its last sample inside its last step
        if samples["t"][-1] != clock and not (polar and reason == "t_max"):
            knots_only.append(len(samples["t"]))
            emit_state()
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
        f = energy(y.view(float), k1.view(float)) if evaluations else np.nan
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
            evaluations += 6
            s_new = clock_new = s + h_eff
            if aff and not end_a:
                l_new, t_new, err_t, rows_t, nxt_t, last_t = _polar_step(
                    l, t, h_eff, [f, *fs_in, f_new], aff, grid_t)
            if polar:    # the affine flow's error is tested, and its rows are the run's
                clock_new, err_lt, (inside, thetas, l_in), nxt, last = (
                    t_new, err_t, rows_t, nxt_t, last_t)
            else:
                (inside, nxt), last = _walk_grid(grid, clock_new, opts.initial_step), False
                thetas = [(x - s) / h_eff for x in inside]
            if not (math.isfinite(f_new) and math.isfinite(err_lt)
                    and np.isfinite(err).all()):
                evaluations -= not np.isfinite(y_new).all()    # then not evaluated
                rejected["nonfinite"] += 1
                h = 0.5 * h_eff
                continue
            abs_new = np.abs(y_new)
            scale = opts.atol + opts.rtol * np.maximum(abs_y, abs_new)
            err_norm = max(float((np.abs(err) / scale).max()), err_lt)
            if err_norm > 1.0:
                rejected["error"] += 1
                h = h_eff * max(0.2, 0.9 * err_norm ** -0.2)
                continue

            # f along the step, from the lower of the state and the last sample
            fs = [min(f, samples["f"][-1])]
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
            if aff and not end_a:
                if not polar:    # the ride's rows in this step, off its extension
                    ts, ths, ls = rows_t
                    if ts:
                        ride(ts, [s + x * h_eff for x in ths], ls,
                             _projective_gauge(_extension(y, h_eff, ks, np.array(ths)[:, None])))
                    end_a = "t_max" if last_t else None
                t, l, grid_t = t_new, l_new, nxt_t
            s, y, f, k1, abs_y = s_new, y_new, f_new, ks[6].copy(), abs_new
            k1_norm, clock = _norm(k1), clock_new
            if last:    # its end lies past t_max, and is no row
                return finish("t_max")
            if nxt <= clock:    # the step ends on a grid point
                emit_state()
            elif not inside:    # a step that holds no sample ends at a lift knot
                knots_only.append(len(samples["t"]))
                emit_state()
            grid = _grid_after(nxt, opts.initial_step) if nxt <= clock else nxt
            if polar:    # the t grid is the output grid
                grid_t = grid
            h = h_eff * (5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2)))


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
    x = y.view(float) + h * (theta ** _POWERS @ _DP_P.dot(ks.view(float)))
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
    knots = g_knots = residual = None
    if lift is not None:
        knots, g_knots = t, _lift_path(lift, s, _step_extension(records, v.shape[1]))
        residual = _lift_residual(g_knots, v, not polar)
    g = g_knots
    if samples["knots_only"]:
        keep = np.ones(len(t), dtype=bool)
        keep[samples["knots_only"]] = False
        t, v, f, grad_norm, s = t[keep], v[keep], f[keep], grad_norm[keep], s[keep]
        g = None if g is None else g[keep]
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
    c): step starts and sizes (S,), start states (S, n) and the rows c (S, 4,
    n) of y(t0 + theta h) = y + sum_p theta^p c[p - 1]. The starts are the
    running sums of the sizes, which are the integrator's clock bit for bit."""
    h = np.array(records["h"])
    t0 = np.concatenate([[0.0], np.cumsum(h)[:-1]])
    c = h[:, None, None] * (_DP_P @ np.array(records["ks"]).reshape(-1, 7, n))
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
        nodes = ys[k] + theta * (c[..., 0, :] + theta * (
            c[..., 1, :] + theta * (c[..., 2, :] + theta * c[..., 3, :])))   # (2, b - a, n)
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
