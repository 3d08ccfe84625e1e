"""Numerical integration of the moment-map energy flow and its diagnostics.

The downward gradient flow of f = |mu|^2 is integrated with the embedded
Dormand-Prince 5(4) pair. On top of the local-error controller sits an
energy-monotonicity guard: any step that increases f beyond its round-off
is rejected outright, which enforces the one structural property the
convergence analysis relies on. The controller and the guard alone set the
step; samples are read off the pair's continuous extension on a geometric
output grid, all grid
points inside a step as one stacked block with one energy evaluation (a
single grid point as one state, which gives the same bits). Every
evaluation runs the energy kernel bound to the presentation once per flow,
and the step casts its tableau rows to complex once, so a step's numpy
calls are its arithmetic; the samples' |grad| and the clock s are taken
once per trajectory, from their slopes and states. The projectivized flow
runs on the unit-sphere representative, renormalized at every state; f^ is
U(1)-invariant, so the flow has no phase drift to remove. A trajectory can
keep its accepted steps, stages and stage energies; a lifted one always
does. The group lift g(t) is computed from the finished trajectory over its
knots, the samples and the ends of the steps that hold none: each Magnus
exponent depends only on the states at the two Gauss nodes of a knot
interval, read off the continuous extension of the steps that hold them, so
the whole lift takes one batched generator call and one stacked exponential
per block of knots, and lift consistency holds to integrator accuracy
however sparse the samples are. From a projective trajectory's steps
:func:`affine_read_off` reads the affine flow with no integration of its
own: log|v|^2 and t are quadratures of the stage energies in the clock s.
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
    "affine_read_off",
    "fit_lojasiewicz",
    "check_rates",
]


@dataclass(frozen=True)
class FlowOptions:
    """Knobs of the adaptive integrator.

    ``t_max`` is in the flow's own clock (t for affine, s for projective).
    The output grid t_0 = 0, t_{j+1} = t_j + max(initial_step, SAMPLE_GROWTH
    t_j) is not a step cap: log-log fits over the final decade always have
    enough samples, whatever step the error controller takes.
    """

    t_max: float = 1e4
    eps_grad: float = 1e-10
    initial_step: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-12


@dataclass
class FlowTrajectory:
    """Time-stamped samples of the flow and (optionally) its group lift.

    ``kind`` is ``affine`` or ``projective``; ``clock`` names the meaning of
    ``t`` it implies: the affine flow time t or the reparametrized time s of
    the projectivized flow. ``s`` holds s at every sample: the integral of
    |v|^2 dt by :func:`_s_clock` for an integrated affine trajectory, the
    projective clock for one read off by :func:`affine_read_off`, and ``t``
    itself for a projective one. ``steps`` counts the accepted integrator
    steps, which differ from the samples; ``rejected`` counts the rejected
    ones by cause (``error``, ``energy``, ``nonfinite``); ``evaluations``
    counts the energy calls of the integration, rejected steps included;
    ``h_min`` and ``h_max`` bound the accepted step sizes (NaN with no
    accepted step); a read-off has none of these of its own.
    The samples lie on the output grid of :class:`FlowOptions`, plus the
    final state. A lifted trajectory holds g at the samples in ``g``, and
    in ``knots`` and ``g_knots`` the clock and g at the knots of the lift:
    the samples and the ends of the steps that hold no sample (None
    without the lift). ``lift_residual`` is the lift's own check, set with
    ``g``: max |g v0 - v| / |v0| over the lift's knots, and for a projective
    trajectory the distance of g v0 / |g v0| from v up to phase.
    ``step_records`` holds the accepted steps of a lifted trajectory or of a
    projective one integrated with ``record``, for the lift and for
    :func:`affine_read_off`, else None: the lists ``y`` (start states),
    ``h`` (sizes), ``ks`` (the seven stages) and ``f`` (the stages'
    energies, seven per step, flat), and for a projective trajectory
    ``l0``, log|v0|^2 of the unnormalized start.
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
    step_records: dict | None = field(default=None, repr=False, compare=False)
    knots: np.ndarray | None = field(default=None, repr=False, compare=False)
    g_knots: np.ndarray | None = field(default=None, repr=False, compare=False)

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
# The stages are complex: the rows are cast once here, not at every product.
_DP_A, _DP_B6, _DP_E, _DP_P = (x.astype(complex) for x in (_DP_A, _DP_B[:6], _DP_E, _DP_P))
_POWERS = np.arange(1, 5)


def _rkf45_step(energy, y, h, k1, postprocess=None):
    """One Dormand-Prince step from y, whose slope k1 = -grad is known.

    Returns (y_new, f_new, ks, fs, err): the fifth-order solution (passed
    through ``postprocess(y)``), its energy, the seven stages, the energies
    of the five inner stages and the embedded error estimate. The last stage
    is the slope at y_new, so a step makes six energy calls. A non-finite
    y_new is not evaluated: f_new and the last stage are NaN.
    """
    ks = np.empty((7, y.size), dtype=complex)
    ks[0] = k1
    ha = h * _DP_A
    fs = []
    for i in range(1, 6):
        f, grad = energy(y + ha[i, :i] @ ks[:i])
        fs.append(f)
        np.negative(grad, out=ks[i])
    y_new = y + h * (_DP_B6 @ ks[:6])
    f_new, ks[6] = np.nan, np.nan
    if np.isfinite(y_new).all():
        if postprocess is not None:
            y_new = postprocess(y_new)
        f_new, grad = energy(y_new)
        np.negative(grad, out=ks[6])
    return y_new, f_new, ks, fs, h * (_DP_E @ ks)


def _adaptive_flow(energy, y0, opts, postprocess=None, record=False):
    """Shared integrator of y' = -grad; returns (samples, stats), where stats
    holds the ``terminated_reason``, ``steps``, ``rejected``,
    ``evaluations``, ``h_min``, ``h_max`` and ``step_records`` fields of the
    trajectory.

    ``energy(y) -> (f, grad)`` takes a state (n,) or a stack (q, n), which
    gives (q,) energies. The error controller and the energy guard alone set
    the step. Samples lie on the output grid t_0 = 0, t_{j+1} = t_j +
    max(initial_step, SAMPLE_GROWTH t_j): the q grid points inside an
    accepted step are read off the continuous extension as one (q, n) block,
    which takes one ``postprocess`` and one stacked ``energy`` call (q
    evaluations) for the samples' f and slope d = -grad. A step end is a
    sample only when it is a grid point; the final state always is. The end
    of a step that holds no sample is a knot of the group lift only: it is a
    row too, and ``samples["knots_only"]`` lists its row index. ``energy`` is
    evaluated once per accepted state, which feeds the energy guard and the
    first stage of the next step. A step is rejected when its new state is
    not finite (``rejected["nonfinite"]``, also when a state overflows, which
    warns nothing), when the local error test fails (``"error"``) or when f
    would rise, by more than 1e-12 of it and more than its round-off eps |y|
    |grad f| at the step's start, at its end or at any sample it emits
    (``"energy"``). ``samples`` holds the lists ``t`` and ``f`` and per-step
    (m, n) blocks of ``v`` and ``d`` over all rows, which :func:`_pack`
    concatenates; it derives |grad|, the clock s and the group lift from
    them. With ``record`` each accepted step also keeps its start state,
    size, stages and stage energies in ``step_records`` (None without
    ``record``), which :func:`affine_read_off` integrates and the lift reads
    its Gauss nodes off. They go into flat lists, so a long flow leaves no
    per-step Python container for the garbage collector.
    """
    samples = {"t": [], "f": [], "v": [], "d": []}
    knots_only, hs = [], []
    records = dict(y=[], h=hs, ks=[], f=[]) if record else None

    def emit(ts, fs, vs, ds):    # consecutive rows; vs, ds are (m, n)
        for key, part in zip(samples, (ts, fs, [vs], [ds]), strict=True):
            samples[key] += part

    def emit_state():
        emit([t], [f], y[None], k1[None])

    def finish(reason):
        if samples["t"][-1] != t:
            emit_state()
        elif knots_only[-1:] == [len(samples["t"]) - 1]:
            knots_only.pop()    # the final state is a sample
        samples["knots_only"] = knots_only
        return samples, dict(terminated_reason=reason, steps=steps, rejected=rejected,
                             evaluations=evaluations, h_min=min(hs, default=np.nan),
                             h_max=max(hs, default=np.nan), step_records=records)

    # an overflowing state, the start included, ends as "nonfinite" silently
    with np.errstate(over="ignore", invalid="ignore"):
        t, y = 0.0, np.array(y0, dtype=complex)
        evaluations = int(np.isfinite(y).all())
        f, grad = energy(y) if evaluations else (np.nan, np.full_like(y, np.nan))
        k1 = -grad
        k1_norm, abs_y = _norm(k1), np.abs(y)
        emit_state()
        steps, rejected = 0, {"error": 0, "energy": 0, "nonfinite": 0}
        if not (math.isfinite(f) and np.isfinite(grad).all()):
            return finish("nonfinite")
        grid = opts.initial_step    # the next output-grid point
        h = opts.initial_step
        while True:
            if steps and k1_norm < opts.eps_grad:
                return finish("gradient_small")
            if t >= opts.t_max * (1 - 1e-15):
                return finish("t_max")
            if h < MIN_STEP:
                return finish("step_underflow")
            if steps + sum(rejected.values()) >= MAX_STEPS:
                raise DiagnosticError("integrator exceeded the step budget")

            h_eff = min(h, opts.t_max - t)
            y_new, f_new, ks, fs_in, err = _rkf45_step(energy, y, h_eff, k1, postprocess)
            evaluations += 6
            if not (math.isfinite(f_new) and np.isfinite(err).all()):
                evaluations -= not np.isfinite(y_new).all()    # then not evaluated
                rejected["nonfinite"] += 1
                h = 0.5 * h_eff
                continue
            abs_new = np.abs(y_new)
            scale = opts.atol + opts.rtol * np.maximum(abs_y, abs_new)
            err_norm = float((np.abs(err) / scale).max())
            if err_norm > 1.0:
                rejected["error"] += 1
                h = h_eff * max(0.2, 0.9 * err_norm ** -0.2)
                continue

            t_new, inside, nxt = t + h_eff, [], grid
            while nxt < t_new:
                inside.append(nxt)
                nxt = _grid_after(nxt, opts.initial_step)
            # f along the step, from the lower of the state and the last sample
            fs = [min(f, samples["f"][-1])]
            if inside:
                theta = (np.array(inside)[:, None] - t) / h_eff
                dense, f_in, d_in = _read_grid(energy, y, h_eff, ks, theta, postprocess)
                evaluations += len(inside)
                fs += f_in
            fs.append(f_new)
            # f is known only to its round-off: rounding y moves f by up to
            # eps |y| |grad f|, more than the relative slack near a zero of mu
            if not (_never_rises(fs) or _never_rises(fs, _EPS * _norm(y) * k1_norm)):
                rejected["energy"] += 1
                h = 0.5 * h_eff
                continue
            steps += 1
            hs.append(h_eff)
            if record:
                records["y"].append(y)
                records["ks"].append(ks)
                records["f"] += (f, *fs_in, f_new)
            t, y, f, k1, abs_y = t_new, y_new, f_new, ks[6].copy(), abs_new
            k1_norm = _norm(k1)
            if inside:
                emit(inside, f_in, dense, d_in)
            if nxt == t:    # the step ends on a grid point
                emit_state()
            elif not inside:    # a step that holds no sample ends at a lift knot
                knots_only.append(len(samples["t"]))
                emit_state()
            grid = _grid_after(nxt, opts.initial_step) if nxt == t else nxt
            growth = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            h = h_eff * growth


def _never_rises(fs, slack=0.0):
    """Whether no energy of the list ``fs`` exceeds the one before it by more
    than 1e-12 of it plus ``slack``; a NaN rises."""
    return all(b <= a * (1 + 1e-12) + slack for a, b in zip(fs, fs[1:]))


def _grid_after(tg, initial_step):
    """The output-grid point that follows the grid point tg (FlowOptions)."""
    return tg + max(initial_step, SAMPLE_GROWTH * tg)


def _read_grid(energy, y, h, ks, theta, postprocess=None):
    """States (q, n), energy list and slopes d = -grad (q, n) of the samples at
    step fractions ``theta`` (q, 1) of the continuous extension; one row goes
    in as a state (n,), for the kernels' cheaper one-state branch (same bits)."""
    dense = y + h * (theta ** _POWERS @ (_DP_P @ ks))
    x = dense[0] if len(dense) == 1 else dense
    if postprocess is not None:
        x = postprocess(x)
    f, grad = energy(x)
    return x.reshape(dense.shape), np.atleast_1d(f).tolist(), -grad.reshape(dense.shape)


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


def _s_clock(t, v, f):
    """s(t) = integral of |v|^2 dt at the affine flow's samples, by the
    trapezoid rule with its end correction -h^2/12 [d|v|^2/dt], where Euler's
    identity gives d|v|^2/dt = -8 f. An overflow makes s non-finite from
    there on, silently."""
    c, r = _scaled_norms(v)
    h = np.diff(t)
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = (c * r) ** 2
        ds = 0.5 * (n2[1:] + n2[:-1]) * h + (2.0 / 3.0) * h * h * np.diff(f)
        return np.concatenate([[0.0], np.cumsum(ds)])


def _pack(samples, stats, *, kind, eps_grad, lift=None):
    """Concatenate the row blocks into a trajectory of the samples with its
    clock s; with a presentation ``lift`` the group lift over the knots (all
    rows) fills ``g``, ``knots``, ``g_knots`` and ``lift_residual``."""
    t = np.array(samples["t"])
    v, d = np.concatenate(samples["v"]), np.concatenate(samples["d"])
    f = np.array(samples["f"])
    projective = kind == "projective"
    s = t.copy() if projective else _s_clock(t, v, f)    # over all rows
    knots = g_knots = residual = None
    if lift is not None:
        steps = _step_extension(stats["step_records"], v.shape[1])
        knots, g_knots = t, _lift_path(lift, t, steps, projective)
        residual = _lift_residual(g_knots, v, projective)
    g = g_knots
    if samples["knots_only"]:
        keep = np.ones(len(t), dtype=bool)
        keep[samples["knots_only"]] = False
        t, v, d, f, s = t[keep], v[keep], d[keep], f[keep], s[keep]
        if g is not None:
            g = g[keep]
    with np.errstate(over="ignore", invalid="ignore"):    # |d|^2 overflows to inf
        grad_norm = row_norms(d)
    return FlowTrajectory(t=t, v=v, f=f, grad_norm=grad_norm, s=s, g=g, kind=kind,
                          eps_grad=eps_grad, lift_residual=residual, knots=knots,
                          g_knots=g_knots, **stats)


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


def integrate_kempf_ness(p, v0, opts=None):
    """Downward gradient flow of f = |mu|^2 from v0, affine clock."""
    opts = opts or FlowOptions()
    samples, stats = _adaptive_flow(energy_kernel(p), v0, opts)
    return _pack(samples, stats, kind="affine", eps_grad=opts.eps_grad)


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


def _lift_path(p, t, steps, projective):
    """Group lift at the knots ``t`` by fourth-order Magnus steps.

    g(0) = id and g' = A(v) g with A = flow_generator(p, v), divided by
    |v|^2 for the projective flow. The propagator over knot interval k is
    exp(Omega_k) with the two-node Gauss Magnus exponent; the state at each
    Gauss node is read off the continuous extension of the integrator step
    that holds it, from ``steps`` = (t0, h, y, c) of :func:`_step_extension`,
    in Horner form. Omega_k never depends on g, so each block of intervals
    takes one ``searchsorted``, one batched generator call and one stacked
    ``expm``, and g_{k+1} = exp(Omega_k) g_k is then a running product.
    Errors sit in the exponent (O(h^5) per interval) and vanish once the
    generator has converged, so the logarithms of the lift stay accurate
    over arbitrarily long horizons, unlike additive updates, which lose the
    tiny entries of g.
    """
    t0, hs, ys, cs = steps
    m, n = len(t), ys.shape[1]
    g = np.empty((m, n, n), dtype=complex)
    g[0] = np.eye(n)
    for a in range(0, m - 1, _LIFT_BLOCK):
        b = min(a + _LIFT_BLOCK, m - 1)
        h = t[a + 1:b + 1] - t[a:b]
        tau = t[a:b] + _GAUSS * h                                   # (2, b - a)
        k = np.searchsorted(t0, tau, side="right") - 1              # the step of a node
        theta, c = ((tau - t0[k]) / hs[k])[..., None], cs[k]
        nodes = ys[k] + theta * (c[..., 0, :] + theta * (
            c[..., 1, :] + theta * (c[..., 2, :] + theta * c[..., 3, :])))   # (2, b - a, n)
        gens = flow_generator(p, nodes)
        if projective:
            n2 = np.einsum("...i,...i->...", nodes.conj(), nodes).real
            gens = gens / n2[..., None, None]
        a1, a2 = gens
        h = h[:, None, None]
        omega = 0.5 * h * (a1 + a2) + (np.sqrt(3) * h * h / 12.0) * (a2 @ a1 - a1 @ a2)
        for i, step in enumerate(expm(omega), start=a):
            np.matmul(step, g[i], out=g[i + 1])
    return g


def cointegrate_group(p, v0, opts=None):
    """Affine flow with the group lift: g(0) = id, g' = 2i mu(v)^ g.

    v and g evolve by the same generator, so g(t) v0 = v(t) along the
    continuous flow; the trajectory invariant |g v0 - v| <= tau_lift |v0|
    holds to integrator accuracy. The lift is computed from the finished
    trajectory and its recorded steps by :func:`_lift_path`.
    """
    opts = opts or FlowOptions()
    samples, stats = _adaptive_flow(energy_kernel(p), v0, opts, record=True)
    return _pack(samples, stats, kind="affine", eps_grad=opts.eps_grad, lift=p)


def _projective_kernel(energy):
    """Energy and ambient gradient of f^ = |mu^|^2 (degree-0 homogeneous)
    from the bound kernel ``energy`` of f, of a state (n,) or, bit for bit
    row by row, of a stack (q, n)."""
    def projective(v):
        if v.ndim == 2:    # per row: np.vdot, and the powers of a Python float
            n2 = (v.conj()[:, None] @ v[..., None])[:, 0, 0].real.tolist()
            n2_2, n2_3 = np.array([x**2 for x in n2]), np.array([x**3 for x in n2])
            f, grad = energy(v)
            return f / n2_2, grad / n2_2[:, None] - (4.0 * f / n2_3)[:, None] * v
        n2 = float(np.vdot(v, v).real)
        f, grad = energy(v)
        return f / n2**2, grad / n2**2 - (4.0 * f / n2**3) * v

    return projective


def _projective_gauge(y):
    """The representative y / |y| with |v| = 1 of a state (n,) or, bit for
    bit row by row, of a stack (q, n). No phase is fixed: f^ is
    U(1)-invariant, so Re<grad f^(v), iv> = 0 and the flow has no phase
    drift along J0 v."""
    if y.ndim == 1:
        return y / _norm(y)
    return y / row_norms(y)[:, None]


def integrate_projective(p, v0, opts=None, cointegrate=False, record=False):
    """Projectivized flow on the unit-sphere representative, clock s.

    Every state, the start included, goes through :func:`_projective_gauge`
    (|v| = 1). With ``cointegrate`` the trajectory also carries the
    reparametrized group lift g' = 2i mu^ g, computed from the finished
    trajectory and its recorded steps by :func:`_lift_path`; then [g(s) v0]
    = [v(s)]. With ``record`` or ``cointegrate`` it keeps its accepted steps
    and log|v0|^2 in ``step_records``, which :func:`affine_read_off` reads;
    they grow with the steps. A finite v0
    whose 2-norm under- or overflows is first divided by its largest real or
    imaginary part.
    """
    opts = opts or FlowOptions(t_max=PROJECTIVE_T_MAX)
    v0 = np.asarray(v0, dtype=complex)
    (c,), (norm0,) = _scaled_norms(v0[None])
    if norm0 == 0.0:
        raise DiagnosticError("projective flow needs a nonzero start vector")
    u0 = _projective_gauge(v0 / c) if np.isfinite(norm0) else v0   # ends as "nonfinite"
    record = record or cointegrate    # the lift reads the steps too
    samples, stats = _adaptive_flow(_projective_kernel(energy_kernel(p)), u0, opts,
                                    postprocess=_projective_gauge, record=record)
    if record:    # l = log|v|^2 at the start, where the read-off's l begins
        stats["step_records"]["l0"] = 2.0 * (np.log(c) + np.log(norm0))
    return _pack(samples, stats, kind="projective", eps_grad=opts.eps_grad,
                 lift=p if cointegrate else None)


def affine_read_off(p, traj, opts):
    """The affine flow from v0, read off the projective trajectory ``traj`` of
    [v0], integrated with ``record``, without a step of its own.

    Write u = v/|v|, l = log|v|^2 and ds = |v|^2 dt. Euler's identity
    Re<grad f(v), v> = 4 f(v) gives dl/ds = -8 f^(u) and dt/ds = e^-l, so l
    and t are quadratures, from l0 = log|v0|^2, of the stage energies in
    ``traj.step_records``: each step integrates them with its own weights
    and continuous extension, outside the error control. The read-off ends
    at the first of t = ``opts.t_max`` (reason ``t_max``), a step end where
    |grad f(v)| < ``opts.eps_grad`` (``gradient_small``) and the end of
    ``traj`` (its reason). A ``traj`` that ends ``gradient_small`` has stopped at a
    critical point u_e of f^, where v still collapses along u_e: past its
    end l follows the closed form e^-l = e^-l_e + 8 f^(u_e) (t - t_e) until
    t = ``opts.t_max`` or until |grad f(v)| falls to ``opts.eps_grad``
    (``gradient_small``). Its samples are t = 0, the points of the output grid of
    ``opts.initial_step`` before the end, and the end. One stacked energy
    call at the gauged u gives v = e^(l/2) u, f(v) = e^(2l) f(u) and
    |grad f(v)| = e^(3l/2) |grad f(u)|; ``s`` is the clock of ``traj``.
    """
    records, n = traj.step_records, traj.v.shape[1]
    h = np.array(records["h"])
    dl = -8.0 * np.array(records["f"]).reshape(-1, 7)               # dl/ds at the stages
    grad_hat = row_norms(np.array([ks[6] for ks in records["ks"]]).reshape(-1, n))
    a, b, pp = _DP_A.real, _DP_B6.real, _DP_P.real
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        l_end = np.cumsum(np.concatenate([[records["l0"]], h * (dl[:, :6] @ b)]))
        l_stage = np.column_stack([l_end[:-1, None] + h[:, None] * (dl[:, :5] @ a.T),
                                   l_end[1:]])
        dt = np.exp(-l_stage)                                           # dt/ds at the stages
        t_end = np.concatenate([[0.0], np.cumsum(h * (dt[:, :6] @ b))])
        # on the unit sphere grad f = grad f^ + 4 f^ u, and Re<grad f^, u> = 0
        grad_end = np.exp(1.5 * l_end[1:]) * np.hypot(grad_hat, 0.5 * dl[:, 6])

    t_e, l_e = t_end[-1], l_end[-1]    # where the primary ends
    # the first step that ends past the horizon, or with a small gradient
    k_cross = next(iter(np.flatnonzero(~(t_end[1:] < opts.t_max))), len(h))
    k_small = next(iter(np.flatnonzero(grad_end < opts.eps_grad)), len(h))
    if k_cross < len(h) and k_cross <= k_small:
        reason, t_final = "t_max", opts.t_max
    elif k_small < len(h):
        reason, t_final = "gradient_small", t_end[k_small + 1]
    elif traj.terminated_reason == "gradient_small":
        # [v] has stopped at a critical point of f^, yet v keeps collapsing
        # along it: past the primary's end, e^-l = e^-l_e + 8 f^ (t - t_e)
        f_e = np.float64(records["f"][-1])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            l_small = (2.0 / 3.0) * np.log(opts.eps_grad / np.hypot(grad_hat[-1], 4.0 * f_e))
            t_small = t_e + np.exp(-l_e) * np.expm1(l_e - l_small) / (8.0 * f_e)
        reason, t_final = ("gradient_small", t_small) if t_small < opts.t_max else (
            "t_max", opts.t_max)
    else:
        reason, t_final = traj.terminated_reason, t_e
    targets, tg = [], opts.initial_step
    while tg < t_final:
        targets.append(tg)
        tg = _grid_after(tg, opts.initial_step)
    targets = np.array(targets + [t_final] if t_final > 0 else targets)

    # each sample's step k, and the fraction theta where the step's t meets it:
    # Newton on the convex t(theta), clipped to the step, to round-off
    k = np.clip(np.searchsorted(t_end, targets, side="right") - 1, 0, max(len(h) - 1, 0))
    hk, t0 = h[k], t_end[k]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ct = dt[k] @ pp.T
        theta = np.clip((targets - t0) / (t_end[k + 1] - t0), 0.0, 1.0)
        for _ in range(50):
            tp = theta[:, None] ** np.arange(5)
            resid = t0 + hk * np.sum(ct * tp[:, 1:], axis=1) - targets
            step = np.clip(theta - resid / (hk * np.sum(ct * _POWERS * tp[:, :4], axis=1)),
                           0.0, 1.0) - theta
            theta += step
            if not np.abs(step).max(initial=0.0) > 1e-12:
                break
    theta[targets == t_end[k + 1]] = 1.0    # a step end keeps the clock's bits
    tp = theta[:, None] ** _POWERS
    ks = np.array([records["ks"][i] for i in k]).reshape(-1, 7, n)
    y = np.array([records["y"][i] for i in k]).reshape(-1, n)
    dense = y + hk[:, None] * (tp[:, None] @ (_DP_P @ ks))[:, 0]
    u = np.concatenate([traj.v[:1], _projective_gauge(dense)])
    ell = np.concatenate([l_end[:1], l_end[k] + hk * np.sum(tp * (dl @ pp.T)[k], axis=1)])
    s = np.concatenate([[0.0], np.cumsum(np.concatenate([[0.0], h]))[k] + theta * hk])
    past = np.concatenate([[False], targets > t_e])    # only past a gradient_small end
    with np.errstate(over="ignore", invalid="ignore"):
        if past.any():
            dt_e = np.exp(l_e) * (targets[past[1:]] - t_e)    # s - s_e for f^ = 0
            x = 8.0 * f_e * dt_e
            u[past], ell[past] = traj.v[-1], l_e - np.log1p(x)
            s[past] = traj.t[-1] + dt_e * np.where(x > 0, np.log1p(x) / x, 1.0)
        f_u, grad_u = energy_kernel(p)(u)
        return FlowTrajectory(t=np.concatenate([[0.0], targets]), s=s,
                              v=np.exp(0.5 * ell)[:, None] * u, f=np.exp(2.0 * ell) * f_u,
                              grad_norm=np.exp(1.5 * ell) * row_norms(grad_u),
                              terminated_reason=reason, kind="affine", eps_grad=opts.eps_grad)


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
