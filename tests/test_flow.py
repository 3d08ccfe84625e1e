import gc
import itertools
import math
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as DOP853
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import packed, random_presentation, random_vector
from momentflow import flow
from momentflow.algebra import (direct_sum_presentation, su2_sym_presentation,
                                torus_presentation, un_presentation)
from momentflow.builtins import get_builtin
from momentflow.errors import DiagnosticError
from momentflow.flow import (FlowOptions, FlowTrajectory, check_rates,
                             cointegrate_group, fit_lojasiewicz,
                             integrate_kempf_ness, integrate_projective)
from momentflow.representation import (energy_and_gradient, energy_kernel,
                                       moment_coefficients, moment_map)
from momentflow.runner import Run


def u1():
    return torus_presentation([[1]])


def flow_generator(p, v):
    """The matrix 2i mu^#(v) on V, the flow's generator: v' = flow_generator(p, v) @ v."""
    return 2j * p.matrix(moment_coefficients(p, v)[0])


def _affine_reference(p, v0, t_eval):
    """The affine flow v' = -grad f(v) in the clock t, with s' = |v|^2, at
    the times ``t_eval`` by scipy's DOP853 at tight tolerances, the
    independent reference: the states (m, n) and s (m,)."""
    n = p.dim_v
    v0 = np.asarray(v0, dtype=complex)

    def rhs(_, y):
        v = y[:n] + 1j * y[n:2 * n]
        grad = energy_and_gradient(p, v)[1]
        return np.concatenate([-grad.real, -grad.imag, [np.vdot(v, v).real]])

    sol = solve_ivp(rhs, (0.0, t_eval[-1]), np.concatenate([v0.real, v0.imag, [0.0]]),
                    method="DOP853", t_eval=t_eval, rtol=1e-12, atol=1e-14)
    assert sol.success
    return (sol.y[:n] + 1j * sol.y[n:2 * n]).T, sol.y[2 * n]


def test_zero_start_is_stationary():
    # the origin is a fixed point, with no polar form: the start is the only sample
    traj = integrate_kempf_ness(u1(), np.zeros(1, dtype=complex),
                                FlowOptions(t_max=10.0))
    assert traj.terminated_reason == "gradient_small"
    assert np.all(traj.f == 0.0)
    assert len(traj) == 1 and traj.steps == 0


def test_critical_start_moves_negligibly():
    p = torus_presentation([[1], [-1]])
    v0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    assert np.linalg.norm(moment_map(p, v0)) <= 1e-15
    traj = integrate_kempf_ness(p, v0, FlowOptions(t_max=10.0))
    assert traj.terminated_reason == "gradient_small"
    assert np.linalg.norm(traj.v[-1] - v0) <= 1e-12


def test_a_step_at_a_zero_of_mu_advances_t_by_exactly_h():
    # at a zero of mu, l = log|v|^2 stays put, and a polar step advances t by
    # exactly h e^-l: mgs_su2's one step of h = 1e-3 from a unit start ends
    # at t = 1e-3 to the bit, not an ulp short
    primary = Run(get_builtin("mgs_su2"), 0).primary
    assert primary.steps == 1 and primary.h_max == 1e-3
    assert primary.t.tolist() == [0.0, 1e-3]


def test_scalar_flow_matches_closed_form():
    # d|v|^2/dt = -2|v|^4 under the fixed convention: |v(t)|^2 = 1/(1+2t)
    traj = integrate_kempf_ness(u1(), np.array([1.0 + 0j]), FlowOptions(t_max=100.0))
    t = traj.t[-1]
    assert abs(traj.v_norm[-1] ** 2 - 1.0 / (1.0 + 2.0 * t)) <= 1e-4 / (1.0 + 2.0 * t)


def test_scalar_flow_matches_tiny_step_reference():
    # independent oracle: fixed-step RK4 with a very small step
    p = u1()
    v = np.array([1.0 + 0j])
    h, t_end = 1e-4, 2.0
    from momentflow.representation import energy_and_gradient

    def rhs(y):
        return -energy_and_gradient(p, y)[1]

    steps = int(t_end / h)
    for _ in range(steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    traj = integrate_kempf_ness(p, np.array([1.0 + 0j]), FlowOptions(t_max=t_end))
    assert abs(traj.v[-1][0] - v[0]) <= 1e-8


def test_energy_monotone_along_samples():
    p = torus_presentation([[1, 0], [0, 1], [1, 1]])
    v0 = np.array([1.0, 0.8, 1.2], dtype=complex)
    traj = integrate_kempf_ness(p, v0, FlowOptions(t_max=50.0))
    assert np.all(np.diff(traj.f) <= 1e-12 * np.maximum(1.0, traj.f[:-1]))
    assert np.all(np.diff(traj.t) > 0)


def test_cointegrate_critical_point_keeps_identity():
    p = torus_presentation([[1], [-1]])
    v0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    traj = cointegrate_group(p, v0, FlowOptions(t_max=5.0))
    assert np.linalg.norm(traj.g[-1] - np.eye(2)) <= 1e-10


def test_cointegrate_lift_consistency():
    p = torus_presentation([[1], [2]])
    v0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    traj = cointegrate_group(p, v0, FlowOptions(t_max=100.0))
    worst = max(np.linalg.norm(traj.g[i] @ v0 - traj.v[i]) for i in range(len(traj)))
    assert worst <= 1e-6 * np.linalg.norm(v0)


def _reference_lift_residual(traj, states):
    """The lift's residual one knot at a time, the knots' ``states`` v:
    |g v0 - v| / |v0|, or for a projective trajectory |e^{i theta} w - v|
    with w = g v0 / |g v0| and the phase e^{i theta} of <v, w>, conjugated."""
    v0, worst = traj.v[0], 0.0
    for g, v in zip(traj.g_knots, states, strict=True):
        w = g @ v0
        if traj.kind == "projective":
            w = w / np.linalg.norm(w)
            c = np.vdot(w, v)
            worst = max(worst, np.linalg.norm(w * c / abs(c) - v))
        else:
            worst = max(worst, np.linalg.norm(w - v) / np.linalg.norm(v0))
    return worst


def test_lift_residual_is_the_lift_check():
    p = su2_sym_presentation(3)
    v0 = np.array([1.0, 0.3 - 0.2j, -0.5, 0.7j])
    opts = FlowOptions(t_max=50.0)
    with packed() as knots_of:
        trajs = (cointegrate_group(p, v0, opts),
                 integrate_projective(p, v0, opts, cointegrate=True))
    for traj in trajs:
        want = _reference_lift_residual(traj, knots_of(traj)[1])
        assert 0 < want <= 1e-6
        assert traj.lift_residual == pytest.approx(want, rel=1e-6)
        # the samples are knots, and g at a sample is g at its knot
        at = np.searchsorted(traj.knots, traj.t)
        np.testing.assert_array_equal(traj.knots[at], traj.t)
        np.testing.assert_array_equal(traj.g_knots[at], traj.g)
    # a trajectory without its lift has no lift residual
    assert integrate_kempf_ness(p, v0, opts).lift_residual is None
    assert integrate_projective(p, v0, opts).lift_residual is None


def test_cointegrate_abelian_diagonal_log_quadrature(monkeypatch):
    # g stays diagonal; log g equals the quadrature of the diagonal generator
    # (dense sampling + Simpson so the reference quadrature is good to 1e-6)
    from scipy.integrate import cumulative_simpson

    p = torus_presentation([[1], [2]])
    v0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    monkeypatch.setattr(flow, "SAMPLE_GROWTH", 5e-4)
    traj = cointegrate_group(p, v0, FlowOptions(t_max=20.0))
    off = max(abs(traj.g[i][0, 1]) + abs(traj.g[i][1, 0]) for i in range(len(traj)))
    assert off == 0.0
    gens = np.array([np.diagonal(flow_generator(p, v)).real for v in traj.v])
    integral = cumulative_simpson(gens, x=traj.t, axis=0, initial=0.0)
    logs = np.log(np.abs(np.array([np.diagonal(g) for g in traj.g])))
    assert np.max(np.abs(logs - integral)) <= 1e-6


def test_cointegrate_scalar_collapse_linear_in_s():
    # H(t) = g*g has log H = -2s with s = log(1 + 2t) / 2 in closed form
    traj = cointegrate_group(u1(), np.array([1.0 + 0j]), FlowOptions(t_max=1000.0))
    logh = np.array([2.0 * np.log(abs(g[0, 0])) for g in traj.g])
    s_exact = 0.5 * np.log(1.0 + 2.0 * traj.t)
    np.testing.assert_allclose(logh, -2.0 * s_exact, atol=1e-6)
    assert logh[-1] < -5.0  # escapes linearly in s


def test_projective_single_weight_line_is_fixed():
    p = torus_presentation([[1], [2]])
    v0 = np.array([1.0, 0.0], dtype=complex)
    traj = integrate_projective(p, v0, FlowOptions(t_max=10.0))
    assert traj.terminated_reason == "gradient_small"
    assert np.linalg.norm(np.abs(traj.v[-1]) - np.abs(traj.v[0])) <= 1e-12


def test_projective_two_weights_collapse_to_vertex():
    p = torus_presentation([[1], [2]])
    v0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    traj = integrate_projective(p, v0, FlowOptions(t_max=1e6))
    assert traj.terminated_reason == "gradient_small"
    assert abs(traj.v[-1][1]) <= 1e-4


def test_projective_c3_limit_direction():
    p = torus_presentation([[1, 0], [0, 1], [1, 1]])
    v0 = np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)
    traj = integrate_projective(p, v0, FlowOptions(t_max=1e6))
    mu_hat = moment_map(p, traj.v[-1])
    direction = mu_hat / np.linalg.norm(mu_hat)
    np.testing.assert_allclose(direction, [1, 1] / np.sqrt(2), atol=1e-6)


def test_projective_matches_affine_through_clock(monkeypatch):
    # pushing the affine flow through normalization and the clock s reproduces
    # the projectivized flow on overlapping s-ranges; the affine flow is
    # scipy's, integrated in t
    p = torus_presentation([[1], [2]])
    v0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    monkeypatch.setattr(flow, "SAMPLE_GROWTH", 0.002)
    t = np.concatenate([[0.0], np.geomspace(1e-3, 2e3, 4000)])
    v, s = _affine_reference(p, v0, t)
    proj = integrate_projective(p, v0, FlowOptions(t_max=s[-1]))
    s_common = np.linspace(0.2, min(s[-1], proj.t[-1]) * 0.95, 40)
    for i in range(2):
        aff_curve = np.interp(s_common, s, np.abs(v[:, i]) / np.linalg.norm(v, axis=1))
        proj_curve = np.interp(s_common, proj.t, np.abs(proj.v[:, i]))
        assert np.max(np.abs(aff_curve - proj_curve)) <= 1e-5


@pytest.mark.parametrize("case", ["u1_weight1", "u3", "u4"])
def test_collapse_along_a_critical_point_takes_at_most_two_steps(case, rng):
    # f^ is constant on the sphere of u(1) and of the standard rep of u(n):
    # [v] sits at a critical point from the start, and v collapses in closed
    # form once the polar steps have seen it (the affine steps took 100-129)
    if case == "u1_weight1":
        exp = get_builtin(case)
        traj = integrate_kempf_ness(exp.presentation, exp.v0, exp.flow_opts)
    else:
        p = un_presentation(int(case[1]))
        traj = cointegrate_group(p, random_vector(rng, p.dim_v), FlowOptions(t_max=1e3))
        assert traj.lift_residual <= 1e-12
    assert traj.steps <= 2
    assert traj.terminated_reason == "t_max" and traj.rejected["error"] == 0
    assert np.all(np.diff(traj.f) < 0)


def test_tolerance_halving_convergence():
    p = torus_presentation([[1], [2]])
    v0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    t1 = integrate_kempf_ness(p, v0, FlowOptions(t_max=10.0))
    t2 = integrate_kempf_ness(p, v0, FlowOptions(t_max=10.0, rtol=0.5e-8,
                                                 atol=0.5e-12))
    assert np.linalg.norm(t1.v[-1] - t2.v[-1]) <= 10 * 1e-8 * np.linalg.norm(v0)


def test_step_underflow_reported():
    p = u1()
    assert flow.MIN_STEP == 1e-14
    traj = integrate_kempf_ness(p, np.array([1.0 + 0j]),
                                FlowOptions(t_max=1.0, initial_step=1e-15))
    assert traj.terminated_reason == "step_underflow"


# -- the clock s --------------------------------------------------------------

def test_s_clock_constant_norm_gives_identity_clock():
    # d|v|^2/dt = -8 f, so at a zero of mu |v| = 1 stays put and s = t
    traj = integrate_kempf_ness(torus_presentation([[1], [-1]]), [1.0, 1.0] / np.sqrt(2),
                                FlowOptions(t_max=5.0))
    assert traj.t[-1] > 0
    np.testing.assert_allclose(traj.s, traj.t, rtol=1e-12, atol=0)


def test_s_clock_known_integral():
    # u(1) from |v0| = 1: |v|^2 = 1/(1 + 2t) and s = integral of |v|^2 dt =
    # log(1 + 2t) / 2 in closed form; the polar steps carry both to round-off
    traj = integrate_kempf_ness(u1(), np.array([1.0 + 0j]), FlowOptions(t_max=1e4))
    t = traj.t
    assert traj.terminated_reason == "t_max" and t[-1] == 1e4
    assert np.abs(traj.s - 0.5 * np.log1p(2.0 * t)).max() <= 1e-12
    assert np.abs(traj.v_norm**2 * (1.0 + 2.0 * t) - 1.0).max() <= 1e-12
    assert traj.s[0] == 0.0 and np.all(np.diff(traj.s) > 0)


def test_logarithmic_clock_on_collapse():
    traj = integrate_kempf_ness(u1(), np.array([1.0 + 0j]), FlowOptions(t_max=1e4))
    win = traj.t >= traj.t[-1] / 10
    lt = np.log(traj.t[win])
    slope, intercept = np.polyfit(lt, traj.s[win], 1)
    resid = traj.s[win] - (slope * lt + intercept)
    r2 = 1 - resid @ resid / np.sum((traj.s[win] - traj.s[win].mean()) ** 2)
    assert r2 >= 0.99


# -- rate fitting -------------------------------------------------------------

def test_fit_lojasiewicz_scalar_example():
    traj = integrate_kempf_ness(u1(), np.array([1.0 + 0j]), FlowOptions(t_max=1e4))
    fit = fit_lojasiewicz(traj)
    assert fit.decay_exponent == pytest.approx(2.0, abs=0.05)
    assert fit.alpha_hat == pytest.approx(0.75, abs=0.02)
    assert fit.fit_quality >= 0.999
    assert fit.fit_quality >= fit.semilog_quality


def test_fit_pointwise_gradient_energy_inequality():
    traj = integrate_kempf_ness(u1(), np.array([1.0 + 0j]), FlowOptions(t_max=1e4))
    win = traj.t >= traj.t[-1] / 10
    ratio = traj.grad_norm[win] ** 4 / traj.f[win] ** 3
    assert ratio.min() >= 1.0  # the scalar closed form gives exactly 64


def test_fit_rejects_power_law_on_exponential_decay():
    t = np.linspace(1.0, 1000.0, 5000)
    f = np.exp(-t / 50.0)
    v = np.sqrt(f)[:, None].astype(complex)
    traj = FlowTrajectory(t=t, v=v, f=f, grad_norm=f.copy(),
                          terminated_reason="t_max", s=t)
    fit = fit_lojasiewicz(traj)
    assert fit.fit_quality < fit.semilog_quality


def test_fit_requires_decay_span():
    t = np.linspace(5.0, 9.0, 300)  # under two decades of time
    f = 1.0 / (1 + t) ** 2
    traj = FlowTrajectory(t=t, v=np.ones((300, 1), dtype=complex), f=f,
                          grad_norm=f.copy(), terminated_reason="t_max", s=t)
    with pytest.raises(DiagnosticError):
        fit_lojasiewicz(traj)


def test_check_rates_scalar_plateaus():
    traj = integrate_kempf_ness(u1(), np.array([1.0 + 0j]), FlowOptions(t_max=1e4))
    report = check_rates(traj, 0.75)
    assert report.applicable
    assert report.limit_is_origin
    assert report.f_plateau_ratio <= 1.05
    assert report.dist_plateau_ratio <= 1.05  # the |v| t^(1/2) collapse plateau


def test_check_rates_stationary_not_applicable():
    traj = integrate_kempf_ness(u1(), np.zeros(1, dtype=complex),
                                FlowOptions(t_max=1.0))
    assert not check_rates(traj, 0.75).applicable


def test_v_norm_is_finite_where_only_its_square_overflows():
    v = np.array([[1e200, 0.0], [3.0, 4j], [1e308, 1e308j], [1e-200, 0.0], [0.0, 0.0]])
    t = np.arange(5.0)
    traj = FlowTrajectory(t=t, v=v, f=np.zeros(5), grad_norm=np.zeros(5),
                          terminated_reason="t_max", s=t)
    norms = traj.v_norm
    assert norms[0] == 1e200 and norms[2] == pytest.approx(1e308 * np.sqrt(2.0), rel=1e-15)
    assert norms[3] == 1e-200    # |v|^2 underflows to 0
    # every other row keeps np.linalg.norm's value
    assert np.array_equal(norms[[1, 4]], np.linalg.norm(v[[1, 4]], axis=1))


def test_trajectory_csv_round_trip(tmp_path):
    p = torus_presentation([[1], [2]])
    v0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    traj = cointegrate_group(p, v0, FlowOptions(t_max=5.0))
    path = tmp_path / "trajectory.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["t", "s", "f", "grad_norm", "v_norm"]
    assert "v0_re" in header and "v1_im" in header
    assert "g00_re" in header and "g11_im" in header
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(data[:, 0], traj.t)  # full round-trip precision
    np.testing.assert_array_equal(data[:, 1], traj.s)
    np.testing.assert_array_equal(data[:, 2], traj.f)


# -- one energy evaluation per flow state -------------------------------------

def test_one_energy_evaluation_per_state(monkeypatch):
    # the bound energy kernel counts evaluated states: one per one-state
    # call, a row per state of a stacked call
    calls = {"energy": 0, "stacked": 0, "moment_coefficients": 0, "_rkf45_step": 0, "expm": 0}
    step_sizes, step_ends = [], set()

    def counting_kernel(p, projective, _bind=flow.energy_kernel):
        kernel = _bind(p, projective)

        def energy(x, out):
            calls["energy"] += len(x) if x.ndim == 2 else 1
            calls["stacked"] += x.ndim == 2
            return kernel(x, out)
        return energy

    monkeypatch.setattr(flow, "energy_kernel", counting_kernel)
    for owner, name in ((flow, "moment_coefficients"), (flow, "_rkf45_step"), (flow, "expm")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            if _name == "_rkf45_step":
                step_sizes.append(args[2])
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)

    def polar_step(*args, _fn=flow._polar_step):
        out = _fn(*args)
        step_ends.add(out[1])    # t at the step's end; no step is rejected here
        return out
    monkeypatch.setattr(flow, "_polar_step", polar_step)
    traj = cointegrate_group(torus_presentation([[1], [2]]), [1.0, 1.0] / np.sqrt(2),
                             FlowOptions(t_max=1e3))
    samples, intervals = len(traj) - 1, len(traj.knots) - 1
    assert traj.terminated_reason == "t_max"
    assert intervals > 2 * flow._LIFT_BLOCK   # the lift spans several blocks
    assert traj.rejected == {"error": 0, "energy": 0, "nonfinite": 0}
    assert calls["_rkf45_step"] == traj.steps
    assert traj.steps <= 2 * samples / 3     # the output grid does not set the step
    # the polar steps give t at every step end; no sample after t = 0 lies
    # on one here, the last at t_max included: each was read off a step's
    # continuous extension
    interior = sum(t not in step_ends for t in traj.t[1:])
    assert interior == samples
    # the start state, then per step eleven new stages, the new state and
    # the three stages of the extension, and one evaluation per interior
    # grid sample, a row of at most one stacked call per accepted step
    assert calls["energy"] == 1 + 15 * traj.steps + interior
    assert 0 < calls["stacked"] <= traj.steps
    assert traj.evaluations == calls["energy"]
    assert (traj.h_min, traj.h_max) == (min(step_sizes), max(step_sizes))
    # the lift makes one coefficient call (both Gauss nodes of every knot
    # interval of a block) per block of intervals, and a torus lift is
    # entrywise, with no expm
    assert calls["moment_coefficients"] == math.ceil(intervals / flow._LIFT_BLOCK)
    assert calls["expm"] == 0


def test_lift_takes_one_coefficient_call_and_one_expm_per_block(monkeypatch):
    # a non-torus lift: one coefficient call and one stacked expm per block
    # of knot intervals; this stable start ends at a zero of mu, with no
    # collapse past its last step
    calls = {"moment_coefficients": 0, "expm": 0}
    for name in calls:
        def counted(*args, _fn=getattr(flow, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(flow, name, counted)
    traj = cointegrate_group(su2_sym_presentation(3), np.full(4, 0.5, dtype=complex),
                             FlowOptions(t_max=1e3))
    intervals = len(traj.knots) - 1
    assert traj.terminated_reason == "gradient_small"
    assert intervals > 2 * flow._LIFT_BLOCK   # the lift spans several blocks
    blocks = math.ceil(intervals / flow._LIFT_BLOCK)
    assert calls == {"moment_coefficients": blocks, "expm": blocks}
    assert traj.lift_residual < 1e-6


def _rk4_reference(p, v0, times, h=1e-3):
    """Fixed-step RK4 of y' = -grad from v0, landing on each of ``times``."""
    def rhs(y):
        return -energy_and_gradient(p, y)[1]

    out, v, t = [], np.array(v0, dtype=complex), 0.0
    for t_next in times:
        n = max(1, math.ceil((t_next - t) / h))
        dt = (t_next - t) / n
        for _ in range(n):
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * dt * k1)
            k3 = rhs(v + 0.5 * dt * k2)
            k4 = rhs(v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(v)
        t = t_next
    return np.array(out)


def test_dense_output_matches_tiny_step_reference():
    p = su2_sym_presentation(3)
    v0 = np.array([1.0, 0.3 - 0.2j, -0.5, 0.7j])
    traj = integrate_kempf_ness(p, v0, FlowOptions(t_max=3.0))
    assert traj.terminated_reason == "t_max"
    assert len(traj) - 1 > 4 * traj.steps   # most samples are interior
    ref = _rk4_reference(p, v0, traj.t[1:])
    rel = np.linalg.norm(traj.v[1:] - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert rel.max() <= 1e-8


def test_samples_lie_on_the_output_grid():
    opts = FlowOptions(t_max=50.0)
    traj = integrate_kempf_ness(u1(), np.array([1.0 + 0j]), opts)
    grid = [0.0]
    while grid[-1] < opts.t_max:
        grid.append(grid[-1] + max(opts.initial_step, flow.SAMPLE_GROWTH * grid[-1]))
    np.testing.assert_array_equal(traj.t, grid[:-1] + [opts.t_max])


# -- rejected steps, by cause ------------------------------------------------

def _quadratic(x, out):
    """f = |y_0|^2, and the slope -(grad f - 4 f y) written into ``out``, on
    the real layout x of a state (n,) or of each row of a stack (q, n): on
    the unit sphere, which every step is gauged to, the energy f^ = |y_0|^2
    / |y|^2 and its gradient, whose flow from ``_NEAR_E1`` decays as y_0' =
    -2 y_0 without crossing zero."""
    f = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
    np.multiply((4.0 * f)[..., None], x, out=out)
    out[..., :2] -= 2.0 * x[..., :2]
    return f


# A unit start near the minimum e_1 of ``_quadratic`` on the sphere.
_NEAR_E1 = np.array([1e-3, 1.0]) / np.hypot(1e-3, 1.0)


def _undefined_below_zero(x, out):
    """``_quadratic``, NaN on each state with a real part below zero."""
    f = _quadratic(x, out)
    bad = (x[..., ::2] < 0).any(axis=-1)
    np.copyto(out, np.nan, where=bad[..., None])
    return np.where(bad, np.nan, f)


def test_rejection_by_local_error_is_counted():
    traj = integrate_kempf_ness(u1(), np.array([1.0 + 0j]),
                                FlowOptions(t_max=5.0, initial_step=1.0))
    assert traj.terminated_reason == "t_max"
    assert traj.rejected["error"] >= 1
    assert traj.rejected["energy"] == traj.rejected["nonfinite"] == 0


def test_rejection_by_energy_increase_is_counted():
    # h = 4 puts -2h = -8 outside the real stability interval [-6.39, 0] of
    # the pair, so |y_0| grows; a loose atol lets the error test pass, the
    # guard rejects
    samples, stats = flow._adaptive_flow(
        _quadratic, _NEAR_E1, FlowOptions(t_max=4.0, initial_step=4.0, atol=1e3))
    assert stats["rejected"] == {"error": 0, "energy": 1, "nonfinite": 0}
    assert stats["steps"] == 2 and samples["t"][-1] == 4.0


def test_rejection_by_nonfinite_state_is_counted():
    # the twelfth stage of a step of 2 overshoots below zero, where this
    # energy is undefined; the half step stays positive
    samples, stats = flow._adaptive_flow(
        _undefined_below_zero, _NEAR_E1, FlowOptions(t_max=2.0, initial_step=2.0, atol=1e3))
    assert stats["rejected"] == {"error": 0, "energy": 0, "nonfinite": 1}
    assert stats["steps"] == 2 and samples["t"][-1] == 2.0


@pytest.mark.parametrize("cause, opts, nonfinite_below_zero", [
    ("energy", FlowOptions(t_max=4.0, initial_step=4.0, atol=1e3), False),
    ("nonfinite", FlowOptions(t_max=2.0, initial_step=2.0, atol=1e3), True),
])
def test_evaluations_count_rejected_steps(cause, opts, nonfinite_below_zero):
    # the two forced rejections above, with every evaluated state counted
    calls = []

    def energy(x, out):
        calls.append(1 if x.ndim == 1 else len(x))
        return (_undefined_below_zero if nonfinite_below_zero else _quadratic)(x, out)

    _, stats = flow._adaptive_flow(energy, _NEAR_E1, opts)
    assert stats["rejected"][cause] == 1
    assert stats["evaluations"] == sum(calls)
    # the accepted steps are the two halves of the rejected first step
    assert stats["h_min"] == stats["h_max"] == 0.5 * opts.initial_step


def test_polystable_torus_converges_in_few_samples(monkeypatch):
    # a polystable start: f falls below 1e-12 long before the gradient
    # reaches eps_grad, so the energy guard must be relative to f; the step
    # budget makes a regression fail fast instead of running for minutes
    p = torus_presentation([[0, 1], [2, 0], [-1, 1], [1, -2]])
    v0 = np.array([1j, 2j, -1 + 2j, -1 - 1j])
    monkeypatch.setattr(flow, "MAX_STEPS", 5000)
    affine = FlowOptions(t_max=300.0)
    projective = FlowOptions(t_max=1e6)
    for traj in (integrate_kempf_ness(p, v0, affine),
                 integrate_projective(p, v0, projective)):
        assert traj.terminated_reason == "gradient_small"
        assert len(traj) <= 1000
        assert np.all(traj.f[1:] <= traj.f[:-1] * (1 + 1e-12))


def test_projective_flow_from_a_zero_of_mu_ends_gradient_small():
    # v0 = (1, 1) has mu = 0, so f^ is round-off (1.25e-34) and rises to
    # 4.55e-34 over the first step; that is within f's round-off
    # eps |v| |grad f^|, so the energy guard keeps the step
    traj = integrate_projective(torus_presentation([[1], [-1]]), [1.0, 1.0],
                                FlowOptions(t_max=50.0))
    assert traj.terminated_reason == "gradient_small"
    assert traj.steps == 1
    assert traj.rejected == {"error": 0, "energy": 0, "nonfinite": 0}
    assert traj.f[-1] <= 1e-30


def test_random_starts_of_any_scale_end_by_a_declared_reason(monkeypatch):
    # forty seeded presentations and starts of scale 10^[-3, 3]. Draw 32, a
    # polystable su(2) start on Sym^3 of |v0| = 1175, settles at the
    # round-off floor |grad f^| = 2.7e-18, above eps_grad / |v|^3 = 6e-20,
    # and ran out the step budget before the critical-point test had a
    # floor. The small budget makes such a regression fail fast instead of
    # running for minutes
    monkeypatch.setattr(flow, "MAX_STEPS", 20000)
    rng = np.random.default_rng(5)
    ends = {}
    for i in range(40):
        p = random_presentation(rng)
        v0 = random_vector(rng, p.dim_v, 10 ** rng.uniform(-3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = cointegrate_group(p, v0, FlowOptions(t_max=100))
        ends[i] = traj.terminated_reason
        assert traj.terminated_reason in ("gradient_small", "t_max"), i
        assert traj.lift_residual <= 1e-6, i
        if i == 32:
            assert traj.steps <= 200
    assert [i for i, end in ends.items() if end == "gradient_small"] == [0, 7, 19, 20, 23]


# -- the group lift against the per-step Magnus update --------------------------

def _list_sum_extension(y, h, ks, theta):
    """The continuous extension of one recorded step at the fraction theta,
    as Python sums over its sixteen stages in Hairer's contd8 form with
    scipy's DOP853 coefficients, the independent oracle: y + theta (r1 + (1
    - theta) (r2 + theta (r3 + (1 - theta) (r4 + theta (r5 + (1 - theta)
    (r6 + theta r7)))))) with r1 = h sum b_i k_i, r2 = h k_1 - r1, r3 = 2 r1
    - h (k_1 + k_13) and r4..r7 = h sum d_i k_i over the rows of D."""
    r1 = h * sum(b * k for b, k in zip(DOP853.B, ks))
    rows = [r1, h * ks[0] - r1, 2 * r1 - h * (ks[0] + ks[12])]
    rows += [h * sum(d * k for d, k in zip(d_row, ks)) for d_row in DOP853.D]
    acc = 0.0
    for i, r in enumerate(reversed(rows)):
        acc = (acc + r) * (theta if i % 2 == 0 else 1 - theta)
    return y + acc


def _per_step_magnus_lift(p, knots, records):
    """The lift one fourth-order Magnus step at a time, the independent oracle.

    The knots are in the integrator's clock s, where the generator is
    flow_generator(p, x) / |x|^2 for the affine flow too. Each knot interval
    makes its own two generator calls at its Gauss nodes, each node's state
    read off the extension of the recorded step that holds it by
    :func:`_list_sum_extension` (past the last step, its end), one
    commutator and one ``expm``, and multiplies g from the left.
    """
    starts = list(itertools.accumulate(records["h"][:-1], initial=0.0))
    c_nodes = (0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6)

    def state_at(tau):
        j = max(i for i, t0 in enumerate(starts) if t0 <= tau)
        h = records["h"][j]
        return _list_sum_extension(records["y"][j], h, list(records["ks"][j]),
                                   min((tau - starts[j]) / h, 1.0))

    def gen_at(x):
        return flow_generator(p, x) / float(np.vdot(x, x).real)

    gs = [np.eye(records["y"][0].size, dtype=complex)]
    for t0, t1 in zip(knots[:-1], knots[1:]):
        h = t1 - t0
        a1, a2 = (gen_at(state_at(t0 + c * h)) for c in c_nodes)
        omega = 0.5 * h * (a1 + a2) + (np.sqrt(3) * h * h / 12.0) * (a2 @ a1 - a1 @ a2)
        gs.append(scipy.linalg.expm(omega) @ gs[-1])
    return np.array(gs)


def _lift_error(g, ref):
    scale = np.maximum(1.0, np.linalg.norm(ref, axis=(1, 2)))
    return float(np.max(np.linalg.norm(g - ref, axis=(1, 2)) / scale))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_lift_matches_per_step_magnus(seed):
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    v0 = random_vector(rng, p.dim_v)
    with packed() as knots_of:
        trajs = (cointegrate_group(p, v0, FlowOptions(t_max=0.5)),
                 integrate_projective(p, v0, FlowOptions(t_max=2.0), cointegrate=True))
    for traj in trajs:
        records, _, clocks = knots_of(traj)
        ref = _per_step_magnus_lift(p, clocks, records)
        assert _lift_error(traj.g_knots, ref) <= 1e-12


@pytest.mark.parametrize("n, seed", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_collapse_tail_lift_is_the_exponential_of_the_final_generator(n, seed):
    # u(n) holds the centre, so every affine flow collapses past a critical
    # point of f^; past the last step end every node reads the final state u_e,
    # and the closed form must match a per-knot product of expm(h A_e)
    p = un_presentation(n)
    v0 = random_vector(np.random.default_rng(seed), n)
    with packed() as knots_of:
        traj = cointegrate_group(p, v0, FlowOptions(t_max=1e3))
    records, _, clocks = knots_of(traj)
    e = int(np.searchsorted(clocks, list(itertools.accumulate(records["h"]))[-1]))
    assert len(clocks) - e > 0.9 * len(clocks)    # most knots lie past the last step
    u = traj.v[-1]
    a_e = flow_generator(p, u) / float(np.vdot(u, u).real)
    want = traj.g_knots[e]
    for h, g in zip(np.diff(clocks[e:]), traj.g_knots[e + 1:]):
        want = scipy.linalg.expm(h * a_e) @ want
        assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want)
    assert traj.lift_residual <= 1e-12


@pytest.mark.parametrize("weights", [[[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [1, -2]],
                                     [[1, 0], [1, 1], [1, -1]]])
def test_torus_lift_is_the_exponential_of_its_running_exponent_sum(monkeypatch, weights):
    # a torus lift is diagonal, g = exp(sum of the exponents' diagonals
    # -h (c1 + c2) w), from a polystable start, an unstable one and one at
    # a critical point of f^, which collapses past its only step
    p = torus_presentation(weights)
    coefficients = []

    def spy(p, v, _fn=flow.moment_coefficients):
        mu, n2 = _fn(p, v)
        coefficients.append(mu / n2[..., None])
        return mu, n2
    monkeypatch.setattr(flow, "moment_coefficients", spy)
    with packed() as knots_of:
        traj = cointegrate_group(p, np.array([0.6, 0.5j, -0.4 + 0.3j]), FlowOptions(t_max=1e3))
    clocks = knots_of(traj)[2]
    c = np.concatenate(coefficients, axis=1)
    logs = np.cumsum(-np.diff(clocks)[:, None] * ((c[0] + c[1]) @ np.array(weights).T), axis=0)
    g = traj.g_knots
    diagonal = np.diagonal(g, axis1=1, axis2=2)
    np.testing.assert_array_equal(g - diagonal[..., None] * np.eye(3), 0.0)
    np.testing.assert_array_equal(diagonal.imag, 0.0)
    np.testing.assert_array_equal(diagonal[0], 1.0)
    np.testing.assert_allclose(np.log(diagonal[1:].real), logs, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("projective", [False, True])
def test_batched_lift_at_block_boundaries(projective):
    p = su2_sym_presentation(3)
    v0 = np.array([1.0, 0.3 - 0.2j, -0.5, 0.7j])
    with packed() as knots_of:
        if projective:
            traj = integrate_projective(p, v0, FlowOptions(t_max=50.0), cointegrate=True)
        else:
            traj = cointegrate_group(p, v0, FlowOptions(t_max=50.0))
    records, _, clocks = knots_of(traj)
    steps = flow._step_extension(records, 4)
    block = flow._LIFT_BLOCK
    assert len(traj.knots) > block + 2
    for intervals in (1, block - 1, block, block + 1):
        knots = clocks[:intervals + 1]
        g = flow._lift_path(p, knots, steps)
        assert g.shape == (intervals + 1, 4, 4)
        ref = _per_step_magnus_lift(p, knots, records)
        assert _lift_error(g, ref) <= 1e-12


def test_lift_knots_are_the_samples_and_the_step_ends():
    # every step end is a knot, a sample only on the output grid; su2_symd's
    # long steps leave most samples inside a step
    exp = get_builtin("su2_symd")
    opts = exp.flow_opts
    with packed() as knots_of:
        traj = integrate_projective(exp.presentation, exp.v0, opts, cointegrate=True)
    ends = list(itertools.accumulate(knots_of(traj)[0]["h"]))
    grid = [0.0]
    while grid[-1] < traj.t[-1]:
        grid.append(flow._grid_after(grid[-1], opts.initial_step))
    np.testing.assert_array_equal(traj.t, grid[:-1] + [traj.t[-1]])
    assert traj.knots.tolist() == sorted(set(traj.t.tolist()) | set(ends))
    assert len(traj.knots) > len(traj) > len(ends)


def test_lift_of_the_seed_7_wide_start_stays_within_its_bound():
    # the sym2_sym4 start of the perfbench wide workload at seed 7, where the
    # lift once read its Gauss nodes off sparse samples and drifted to 1.10e-6
    p = direct_sum_presentation([su2_sym_presentation(2), su2_sym_presentation(4)])
    v0 = np.array([-0.15802246501467784 + 0.23269648741306803j,
                   -0.030245723666209468 + 0.03231768911023899j,
                   0.02991056077522717 - 0.17369201121779565j,
                   0.017270297664820033 + 0.5416561331581813j,
                   -0.33171041454019384 + 0.20639833681889475j,
                   0.020616617493586606 - 0.32473346135912223j,
                   0.3679308899993981 + 0.020176883863353264j,
                   -0.41892295148406755 + 0.15615120285548983j])
    traj = cointegrate_group(p, v0, FlowOptions(t_max=1e3))
    drift = np.linalg.norm(traj.g @ v0 - traj.v, axis=1).max()
    assert drift <= 1e-6 * np.linalg.norm(v0)
    assert traj.lift_residual <= 1e-6


@pytest.mark.parametrize("projective", [False, True])
def test_lifted_run_releases_its_stages(monkeypatch, projective):
    # the lift reads the recorded steps while the trajectory is packed; no
    # returned trajectory keeps a step's stages alive
    stages = []

    def step(*args, _fn=flow._rkf45_step):
        out = _fn(*args)
        stages.append(weakref.ref(out[2]))
        return out

    monkeypatch.setattr(flow, "_rkf45_step", step)
    p = su2_sym_presentation(3)
    v0 = np.array([1.0, 0.3 - 0.2j, -0.5, 0.7j])
    if projective:
        traj = integrate_projective(p, v0, FlowOptions(t_max=5.0), cointegrate=True)
    else:
        traj = cointegrate_group(p, v0, FlowOptions(t_max=5.0))
    gc.collect()
    assert traj.g is not None and len(stages) >= traj.steps > 1
    assert all(ref() is None for ref in stages)


@pytest.mark.parametrize("projective", [False, True])
def test_single_sample_lift_is_identity(tmp_path, projective):
    p = torus_presentation([[1], [2]])
    v0 = np.array([np.nan, 1.0], dtype=complex)
    if projective:
        traj = integrate_projective(p, v0, FlowOptions(t_max=5.0), cointegrate=True)
    else:
        traj = cointegrate_group(p, v0, FlowOptions(t_max=5.0))
    assert traj.terminated_reason == "nonfinite"
    assert len(traj) == 1
    np.testing.assert_array_equal(traj.g, [np.eye(2)])
    path = tmp_path / "trajectory.csv"
    traj.to_csv(path)
    header, row = path.read_text().splitlines()
    cols = header.split(",")
    values = row.split(",")
    assert len(values) == len(cols)
    assert [float(values[cols.index(f"g{i}{j}_re")]) for i in range(2)
            for j in range(2)] == [1.0, 0.0, 0.0, 1.0]


def _list_sum_dopri_step(energy, y, h):
    """The DOP853 step as Python sums over stages with scipy's coefficients,
    the independent oracle: twelve stages, the eighth-order solution gauged
    to the unit sphere, its energy and slope as the thirteenth stage, the
    extension's three, and per component the larger of Hairer's combined
    estimate and the peak of the extension's last term."""
    a = DOP853.A
    ks = [-energy(y)[1]]
    for i in range(1, 12):
        ks.append(-energy(y + h * sum(a[i, j] * k for j, k in enumerate(ks)))[1])
    y8 = y + h * sum(b * k for b, k in zip(DOP853.B, ks))
    y8 = y8 / np.linalg.norm(y8)
    f8, grad8 = energy(y8)
    ks.append(-grad8)
    for i in range(13, 16):
        ks.append(-energy(y + h * sum(a[i, j] * k for j, k in enumerate(ks)))[1])
    err5, err3, r7 = (h * sum(e * k for e, k in zip(row, ks))
                      for row in (DOP853.E5, DOP853.E3, DOP853.D[3]))
    combined = np.abs(err5) ** 2 / np.hypot(np.abs(err5), 0.1 * np.abs(err3))
    peak = (4 / 7) ** 4 * (3 / 7) ** 3    # of theta^4 (1 - theta)^3, r7's weight
    return y8, f8, np.maximum(combined, peak * np.abs(r7)), ks


def test_rkf45_tableau_products_match_list_sums(rng):
    for p in (su2_sym_presentation(4), un_presentation(3),
              torus_presentation([[1, 0], [0, 1], [1, 1]])):
        energy = partial(energy_and_gradient, p)
        for h in (1e-3, 1e-2, 1e-1):
            y = rng.standard_normal(p.dim_v) + 1j * rng.standard_normal(p.dim_v)
            y8, f8, ks, _, err = flow._rkf45_step(energy_kernel(p, False), y, h,
                                                  -energy(y)[1])
            ref_y8, ref_f8, ref_err, ref_ks = _list_sum_dopri_step(energy, y, h)
            assert np.linalg.norm(y8 - ref_y8) <= 1e-14 * np.linalg.norm(ref_y8)
            assert abs(f8 - ref_f8) <= 1e-14 * ref_f8
            # err cancels between stages; measure it against its terms
            scale = h * max(np.linalg.norm(k) for k in ref_ks)
            assert np.linalg.norm(err - ref_err) <= 1e-14 * scale


def test_tableau_row_sums_are_scipys_nodes():
    # stage i sits at the node c_i = sum_j a_ij: the twelve stages, the new
    # state (c = 1) and the extension's three, against scipy's own c
    np.testing.assert_allclose(flow._A.sum(axis=1), DOP853.C, rtol=0, atol=2e-15)


def test_weights_integrate_polynomials_to_order_eight():
    # sum_i b_i c_i^(q - 1) = 1/q for q = 1..8, the quadrature conditions of
    # an eighth-order solution, with scipy's nodes c_i
    for q in range(1, 9):
        assert abs(flow._B @ DOP853.C[:12] ** (q - 1) - 1.0 / q) <= 2e-15


def test_extension_meets_the_step_ends_in_value_and_slope(rng):
    # theta = 0 gives y and slope h k1, theta = 1 the step's solution before
    # its gauge and slope h k13, the slope at the gauged new state
    p = su2_sym_presentation(4)
    energy = energy_kernel(p, True)
    y = random_vector(rng, p.dim_v)
    y /= np.linalg.norm(y)
    k1 = np.empty_like(y)
    energy(y.view(float), k1.view(float))
    h = 0.3
    y_new, _, ks, _, _ = flow._rkf45_step(energy, y, h, k1)
    ends = flow._extension(y, h, ks, np.array([[0.0], [1.0]]))
    x1 = (y.view(float) + h * (DOP853.B @ ks.view(float)[:12])).view(complex)
    assert np.array_equal(ends[0], y)
    assert np.abs(ends[1] - x1).max() <= 1e-13
    np.testing.assert_allclose(ends[1] / np.linalg.norm(ends[1]), y_new, rtol=0, atol=1e-13)
    slopes = np.array([flow._P[0], flow._POWERS @ flow._P]) @ ks    # d/dtheta / h
    scale = np.abs(ks).max()
    assert np.array_equal(slopes[0], k1)
    assert np.abs(slopes[1] - ks[12]).max() <= 1e-12 * scale


def _projected_quadratic(x, out):
    """f^ = |y_0|^2 / |y|^2 and the slope -grad f^ on the real layout x of a
    state: tangent to every sphere, so on the unit circle y = (cos phi, sin
    phi) it is phi' = sin 2 phi, with the closed form tan phi = tan phi_0
    e^(2t)."""
    n2 = x @ x
    f = (x[0] * x[0] + x[1] * x[1]) / n2
    np.multiply(2.0 * f / n2, x, out=out)
    out[:2] -= 2.0 * x[:2] / n2
    return f


def test_fixed_steps_show_eighth_order():
    # the step gauges every state to the unit sphere, so the closed form lives
    # on it; halving the step from 1/4 to 1/8 over t = 2 shrinks the global
    # error by at least 2^7.5 (it reads 254)
    phi0, t_end = 0.3, 2.0
    exact = np.arctan(np.tan(phi0) * np.exp(2.0 * t_end))

    def error(n):
        y = np.array([np.cos(phi0), np.sin(phi0)], dtype=complex)
        k1 = np.empty_like(y)
        _projected_quadratic(y.view(float), k1.view(float))
        for _ in range(n):
            y, _, ks, _, _ = flow._rkf45_step(_projected_quadratic, y, t_end / n, k1)
            k1 = ks[12].copy()
        return abs(np.angle(y[0] + 1j * y[1]) - exact)

    assert error(8) >= 2 ** 7.5 * error(16) > 0.0


@pytest.mark.parametrize("name", ["torus_12", "torus_c3"])
def test_affine_read_off_matches_the_affine_flow(name):
    # the rates of a projective run read the affine flow the primary carries
    # off its steps; on the final decade it tracks scipy's tight integration of the
    # affine flow, and its fits agree with those of the polar affine run
    exp = get_builtin(name)
    read = Run(exp, 0).affine
    assert read.kind == "affine" and read.terminated_reason == "t_max"
    tail = read.t >= 1e3
    assert tail.sum() >= 50
    v, _ = _affine_reference(exp.presentation, exp.v0, read.t[tail])
    f = np.array([energy_and_gradient(exp.presentation, x)[0] for x in v])
    assert np.abs(np.log(read.f[tail]) - np.log(f)).max() <= 1e-7
    assert np.abs(2 * np.log(read.v_norm[tail] / np.linalg.norm(v, axis=1))).max() <= 1e-7

    leg = integrate_kempf_ness(exp.presentation, exp.v0, FlowOptions(t_max=1e4))
    fit, fit_leg = fit_lojasiewicz(read), fit_lojasiewicz(leg)
    for field_ in ("alpha_hat", "decay_exponent", "fit_quality", "semilog_quality"):
        assert getattr(fit, field_) == pytest.approx(getattr(fit_leg, field_), rel=1e-6)
    for alpha in (fit.alpha_hat, 0.75):
        got, want = check_rates(read, alpha), check_rates(leg, alpha)
        assert got.applicable and want.applicable
        assert got.limit_is_origin == want.limit_is_origin
        assert got.f_plateau_ratio == pytest.approx(want.f_plateau_ratio, rel=1e-6)
        assert got.dist_plateau_ratio == pytest.approx(want.dist_plateau_ratio, rel=1e-6)


@pytest.mark.parametrize("scale", [1e-200, 1e-50])
def test_carried_affine_flow_ends_as_the_affine_run(scale):
    # a start whose |v|^3 underflows is at rest for the affine flow at once;
    # a small one that does not runs on to t = 1e4, on the same grid
    p, v0 = torus_presentation([[2], [4]]), scale * np.array([0.6, 0.8])
    carried = integrate_projective(p, v0, FlowOptions(t_max=200),
                                   affine=FlowOptions(t_max=1e4)).affine
    traj = integrate_kempf_ness(p, v0, FlowOptions(t_max=1e4))
    assert carried.terminated_reason == traj.terminated_reason
    assert len(carried) == len(traj) and np.all(np.isfinite(carried.t))
    np.testing.assert_allclose(carried.t, traj.t, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["torus_12", "torus_c3"])
def test_integrated_s_clock_matches_the_read_off(name):
    # the carried affine flow's s is the projective primary's own clock, and
    # the polar affine run's s is its integrator's; both meet s = integral of
    # |v|^2 dt from scipy's tight integration of the affine flow
    exp = get_builtin(name)
    read = Run(exp, 0).affine
    traj = integrate_kempf_ness(exp.presentation, exp.v0, FlowOptions(t_max=1e4))
    for got in (read, traj):
        assert len(got) >= 300
        _, s = _affine_reference(exp.presentation, exp.v0, got.t)
        np.testing.assert_allclose(got.s, s, rtol=1e-6, atol=0)
