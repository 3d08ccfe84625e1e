"""Numerical integration of the moment-map energy flow and its diagnostics.

The downward gradient flow of f = |mu|^2 is integrated with an embedded
Runge-Kutta-Fehlberg 4(5) pair. On top of the local-error controller sits an
energy-monotonicity guard: any step that increases f is rejected outright,
which enforces the one structural property the convergence analysis relies
on. The projectivized flow runs on the unit-sphere representative with a
per-step renormalization and phase gauge. The group lift g(t) is computed
from the finished trajectory: each step's Magnus exponent depends only on the
states and slopes at its two ends, so the whole lift takes one batched
generator call and one stacked exponential per block of steps, and lift
consistency holds to integrator accuracy.
"""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.linalg

from .errors import DiagnosticError
from .representation import energy_and_gradient, flow_generator

__all__ = [
    "FlowOptions",
    "FlowTrajectory",
    "LojasiewiczFit",
    "RateReport",
    "integrate_kempf_ness",
    "cointegrate_group",
    "integrate_projective",
    "reparametrize",
    "fit_lojasiewicz",
    "check_rates",
]


@dataclass(frozen=True)
class FlowOptions:
    """Knobs of the adaptive integrator.

    ``t_max`` is in the flow's own clock (t for affine, s for projective).
    ``sample_growth`` caps the step at that fraction of the current time so
    log-log fits over the final decade always have enough samples.
    """

    t_max: float = 1e4
    eps_grad: float = 1e-10
    initial_step: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-12
    min_step: float = 1e-14
    sample_growth: float = 0.04
    max_steps: int = 2_000_000


@dataclass
class FlowTrajectory:
    """Time-stamped samples of the flow and (optionally) its group lift.

    ``clock`` names the meaning of ``t``: the affine flow time or the
    reparametrized time s of the projectivized flow. ``s`` is filled by
    :func:`reparametrize` for affine trajectories and coincides with ``t``
    for projective ones.
    """

    t: np.ndarray
    v: np.ndarray
    f: np.ndarray
    grad_norm: np.ndarray
    terminated_reason: str
    s: np.ndarray | None = None
    g: np.ndarray | None = None
    clock: str = "t"
    kind: str = "affine"
    eps_grad: float = 1e-10

    def __len__(self):
        return len(self.t)

    @property
    def v_norm(self):
        return np.linalg.norm(self.v, axis=1)

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
        s = self.s if self.s is not None else np.full_like(self.t, np.nan)
        table = np.column_stack([self.t, s, self.f, self.grad_norm, self.v_norm]
                                + blocks)
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            # tolist() gives Python floats, whose repr round-trips; one row
            # at a time, so no Python copy of the whole table is held
            fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in table)


# Fehlberg 4(5) tableau; the fifth-order solution is propagated. Row i of
# _RKF_A holds the weights of stages 0..i-1 in stage i; _RKF_E = b5 - b4
# gives the embedded error estimate. The flow is autonomous, so the nodes
# c_i are not needed.
_RKF_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 4, 0.0, 0.0, 0.0, 0.0],
    [3 / 32, 9 / 32, 0.0, 0.0, 0.0],
    [1932 / 2197, -7200 / 2197, 7296 / 2197, 0.0, 0.0],
    [439 / 216, -8.0, 3680 / 513, -845 / 4104, 0.0],
    [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40],
])
_RKF_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
_RKF_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_RKF_E = _RKF_B5 - _RKF_B4


def _rkf45_step(rhs, y, h, k1):
    """One Fehlberg step from y with first stage k1 = rhs(y) already known;
    returns (fifth-order solution, error estimate)."""
    ks = np.empty((6, y.size), dtype=complex)
    ks[0] = k1
    for i in range(1, 6):
        ks[i] = rhs(y + h * (_RKF_A[i, :i] @ ks[:i]))
    return y + h * (_RKF_B5 @ ks), h * (_RKF_E @ ks)


def _adaptive_flow(energy, y0, opts, postprocess=None):
    """Shared integrator of y' = -grad; returns (samples, terminated_reason).

    ``energy(y) -> (f, grad)`` is evaluated once per accepted state, and that
    one evaluation feeds the sample (t, v, f, grad_norm and the slope
    d = -grad), the energy guard and the first stage of the next step. The
    group lift is not integrated here: :func:`_lift_path` computes it
    afterwards from the sampled states and slopes.
    """
    def rhs(y):
        return -energy(y)[1]

    def record(t, y, f, slope):
        return {"t": t, "v": y, "f": f, "grad_norm": float(np.linalg.norm(slope)),
                "d": slope}

    t, y = 0.0, np.array(y0, dtype=complex)
    f, grad = energy(y) if np.all(np.isfinite(y)) else (np.nan, np.full_like(y, np.nan))
    k1 = -grad
    samples = [record(t, y, f, k1)]
    if not (np.isfinite(f) and np.all(np.isfinite(grad))):
        return samples, "nonfinite"
    h = opts.initial_step
    steps = 0
    while True:
        if len(samples) >= 2 and samples[-1]["grad_norm"] < opts.eps_grad:
            return samples, "gradient_small"
        if t >= opts.t_max * (1 - 1e-15):
            return samples, "t_max"
        if h < opts.min_step:
            return samples, "step_underflow"
        steps += 1
        if steps > opts.max_steps:
            raise DiagnosticError("integrator exceeded the step budget")

        cap = max(opts.initial_step, opts.sample_growth * t)
        h_eff = min(h, cap, opts.t_max - t)
        y_new, err = _rkf45_step(rhs, y, h_eff, k1)
        if not np.all(np.isfinite(y_new)):
            h = 0.5 * h_eff
            continue
        scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.max(np.abs(err) / scale))
        if err_norm > 1.0:
            h = h_eff * max(0.2, 0.9 * err_norm ** -0.2)
            continue
        if postprocess is not None:
            y_new = postprocess(y_new, y)
        f_new, grad_new = energy(y_new)
        if not f_new <= f + 1e-12 * max(1.0, f):   # also rejects a NaN energy
            h = 0.5 * h_eff
            continue
        t, y, f, k1 = t + h_eff, y_new, f_new, -grad_new
        samples.append(record(t, y, f, k1))
        growth = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        h = h_eff * growth


def _pack(samples, reason, *, clock, kind, eps_grad, lift=None):
    """Stack the sample records into a trajectory; with a presentation
    ``lift`` the group lift of the trajectory fills ``g``."""
    t = np.array([o["t"] for o in samples])
    v = np.array([o["v"] for o in samples])
    f = np.array([o["f"] for o in samples])
    gn = np.array([o["grad_norm"] for o in samples])
    g = None
    if lift is not None:
        d = np.array([o["d"] for o in samples])
        g = _lift_path(lift, t, v, d, projective=kind == "projective")
    s = t.copy() if clock == "s" else None
    return FlowTrajectory(t=t, v=v, f=f, grad_norm=gn, terminated_reason=reason,
                          s=s, g=g, clock=clock, kind=kind, eps_grad=eps_grad)


def integrate_kempf_ness(p, v0, opts=None):
    """Downward gradient flow of f = |mu|^2 from v0, affine clock."""
    opts = opts or FlowOptions()
    samples, reason = _adaptive_flow(partial(energy_and_gradient, p), v0, opts)
    return _pack(samples, reason, clock="t", kind="affine", eps_grad=opts.eps_grad)


# Steps per batched Magnus pass: one generator call and one stacked expm per
# block, while the temporaries stay a fixed size however long the flow runs.
_LIFT_BLOCK = 64

# The two Gauss nodes on [0, 1], shaped (node, step, component), and the
# cubic Hermite weights of y_prev, y_new, h d_prev and h d_new at them.
_C = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])[:, None, None]
_C2, _C3 = _C * _C, _C * _C * _C
_H00, _H01 = 1 - 3 * _C2 + 2 * _C3, 3 * _C2 - 2 * _C3
_H10, _H11 = _C - 2 * _C2 + _C3, _C3 - _C2


def _lift_path(p, t, v, d, projective):
    """Group lift of a finished trajectory by fourth-order Magnus steps.

    g(0) = id and g' = A(v) g with A = flow_generator(p, v), divided by
    |v|^2 for the projective flow. The propagator over step k is
    exp(Omega_k) with the two-node Gauss Magnus exponent; the states at the
    Gauss nodes come from cubic Hermite interpolation of the sampled states
    ``v`` and slopes ``d`` at the step's ends. Omega_k never depends on g, so
    each block of steps takes one batched generator call and one stacked
    ``expm``, and g_{k+1} = exp(Omega_k) g_k is then a running product.
    Errors sit in the exponent (O(h^5) per step) and vanish once the
    generator has converged, so the logarithms of the lift stay accurate
    over arbitrarily long horizons, unlike additive updates, which lose the
    tiny entries of g.
    """
    m, n = v.shape
    g = np.empty((m, n, n), dtype=complex)
    g[0] = np.eye(n)
    for a in range(0, m - 1, _LIFT_BLOCK):
        b = min(a + _LIFT_BLOCK, m - 1)
        h = (t[a + 1:b + 1] - t[a:b])[:, None]
        nodes = (_H00 * v[a:b] + _H01 * v[a + 1:b + 1]
                 + h * _H10 * d[a:b] + h * _H11 * d[a + 1:b + 1])   # (2, b - a, n)
        gens = flow_generator(p, nodes)
        if projective:
            n2 = np.einsum("...i,...i->...", nodes.conj(), nodes).real
            gens = gens / n2[..., None, None]
        a1, a2 = gens
        h = h[:, :, None]
        omega = 0.5 * h * (a1 + a2) + (np.sqrt(3) * h * h / 12.0) * (a2 @ a1 - a1 @ a2)
        for k, step in enumerate(scipy.linalg.expm(omega), start=a):
            np.matmul(step, g[k], out=g[k + 1])
    return g


def cointegrate_group(p, v0, opts=None):
    """Affine flow with the group lift: g(0) = id, g' = 2i mu(v)^ g.

    v and g evolve by the same generator, so g(t) v0 = v(t) along the
    continuous flow; the trajectory invariant |g v0 - v| <= tau_lift |v0|
    holds to integrator accuracy. The lift is computed from the finished
    trajectory by :func:`_lift_path`.
    """
    opts = opts or FlowOptions()
    samples, reason = _adaptive_flow(partial(energy_and_gradient, p), v0, opts)
    return _pack(samples, reason, clock="t", kind="affine", eps_grad=opts.eps_grad,
                 lift=p)


def projective_energy_gradient(p, v):
    """Energy and ambient gradient of f^ = |mu^|^2 (degree-0 homogeneous)."""
    n2 = float(np.vdot(v, v).real)
    f, grad = energy_and_gradient(p, v)
    fhat = f / n2**2
    ghat = grad / n2**2 - (4.0 * f / n2**3) * v
    return fhat, ghat


def integrate_projective(p, v0, opts=None, cointegrate=False):
    """Projectivized flow on the unit-sphere representative, clock s.

    Gauge: after every accepted step the representative is renormalized to
    |v| = 1 and the phase drift along J0 v is removed (alignment with the
    previous sample). With ``cointegrate`` the trajectory also carries the
    reparametrized group lift g' = 2i mu^ g, computed from the finished
    trajectory by :func:`_lift_path`; then [g(s) v0] = [v(s)].
    """
    opts = opts or FlowOptions(t_max=1e6)
    v0 = np.asarray(v0, dtype=complex)
    norm0 = np.linalg.norm(v0)
    if norm0 == 0.0:
        raise DiagnosticError("projective flow needs a nonzero start vector")
    u0 = v0 / norm0 if np.isfinite(norm0) else v0   # ends as "nonfinite"

    def postprocess(y_new, y_prev):
        v = y_new / np.linalg.norm(y_new)
        overlap = np.vdot(y_prev, v)
        if abs(overlap) > 0:
            v = v * (overlap.conjugate() / abs(overlap))
        return v

    samples, reason = _adaptive_flow(partial(projective_energy_gradient, p), u0, opts,
                                     postprocess=postprocess)
    return _pack(samples, reason, clock="s", kind="projective", eps_grad=opts.eps_grad,
                 lift=p if cointegrate else None)


def reparametrize(traj):
    """Fill the reparametrized clock s(t) = integral of |v|^2 dt (trapezoid)."""
    n2 = traj.v_norm**2
    dt = np.diff(traj.t)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (n2[1:] + n2[:-1]) * dt)])
    return replace(traj, s=s)


@dataclass
class LojasiewiczFit:
    alpha_hat: float
    decay_exponent: float
    fit_quality: float        # R^2 of log f against log t (power law)
    semilog_quality: float    # R^2 of log f against t (exponential)

    @property
    def power_law_preferred(self):
        return self.fit_quality >= self.semilog_quality


def _r_squared(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return slope, 1.0
    return slope, 1.0 - float(np.sum(resid**2)) / ss_tot


def fit_lojasiewicz(traj, min_samples=50):
    """Fit the tail decay rate of f and translate it into an exponent estimate.

    The slope m of log f against log t over the final decade of t gives
    decay_exponent = -m and alpha_hat = (1 + 1/decay_exponent) / 2. Requires
    at least two decades of decreasing f in the tail, else raises
    :class:`DiagnosticError`.
    """
    t, f = traj.t, traj.f
    pos = (t > 0) & (f > 0)
    if pos.sum() < min_samples:
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
    if window.sum() < min_samples:
        raise DiagnosticError(
            f"final decade holds {int(window.sum())} samples; need {min_samples}"
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


def check_rates(traj, alpha, limit=None):
    """Plateau check of the polynomial decay rates implied by exponent alpha.

    Over the final decade, f(t) * t^(1/(2a-1)) and |v(t) - v_inf| * t^((1-a)/(2a-1))
    must flatten out; the report carries their max/min ratios. For a
    stationary trajectory the report is flagged not applicable.

    ``limit`` overrides the limit point: 'origin', an explicit vector, or
    None for auto-detection (a still-collapsing trajectory whose norm keeps
    shrinking is attributed to the origin).
    """
    if len(traj) < 10 or traj.f[0] <= 0 or traj.f[-1] >= traj.f[0] * (1 - 1e-9):
        return RateReport(applicable=False)
    t = traj.t
    e_f = 1.0 / (2 * alpha - 1)
    e_d = (1 - alpha) / (2 * alpha - 1)

    vn = traj.v_norm
    if limit is None:
        tail = vn[len(vn) // 2:]
        still_shrinking = np.all(np.diff(tail) <= 1e-12 * vn[0])
        limit_is_origin = (vn[-1] <= 1e-2 * vn[0] and still_shrinking
                           and not traj.converged()) or vn[-1] <= 1e-6 * vn[0]
    else:
        limit_is_origin = isinstance(limit, str) and limit == "origin"
    if limit_is_origin:
        v_inf = np.zeros_like(traj.v[-1])
    elif limit is None or isinstance(limit, str):
        v_inf = traj.v[-1]
    else:
        v_inf = np.asarray(limit, dtype=complex)

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
