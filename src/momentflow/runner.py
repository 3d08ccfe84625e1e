"""Experiment execution: flows, analyses, CSV and report emission.

``run_experiment`` drives one experiment to completion: it integrates the
configured flow, runs the enabled analyses, writes ``trajectory.csv`` (plus
``ray.csv`` and ``degeneration.csv`` for those analyses) and a plain-text
``report.txt`` with fixed section order, and returns the exit status the
checks decide. One ``Run`` owns what the analyses share, so a run integrates
each flow at most once and solves the torus oracle at most once. In
projective mode the primary carries the affine flow the rates read; only
``degeneration`` in affine or cointegrate mode integrates a second,
projective leg. Everything is deterministic given the experiment and its
seed; the seed only feeds the randomized verification samples of the
normal-form analysis.
"""

import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .algebra import GroupPresentation
from .degeneration import (ANGLE_TOL, diagonal_torus, hermitian_generator,
                           limit_direction, oracle_angle, torus_oracle)
from .errors import DiagnosticError, DomainError, RayDivergenceError
from .flow import (FlowOptions, _r_squared, check_rates, cointegrate_group,
                   fit_lojasiewicz, integrate_kempf_ness, integrate_projective)
from .normal_form import build_model, verify_closedness, verify_moment_identity
from .symmetric_space import extract_asymptotic_ray

SECTIONS = ("CONFIG", "FLOW", "RATES", "RAY", "DEGENERATION", "NORMAL_FORM",
            "VERDICT")

# Horizon (clock t) of the affine flow a projective primary carries for the
# rates analysis, and horizon (clock s) of the projective leg of the
# degeneration analysis in affine or cointegrate mode. Neither is an option.
AFFINE_READ_OFF_T_MAX = 1e4
PROJECTIVE_LEG_S_MAX = 200.0

RAY_CLOCK_START, RAY_CLOCK_GROWTH = 0.5, 1.05  # clocks of the ray's samples

LIFT_TOL = 1e-6  # bound of the lift's relative residual, flow.lift_residual

INF = float("inf")


@dataclass(frozen=True)
class Experiment:
    """A presentation, a start vector, the flow to run and its analyses.

    ``checks`` holds (check name, lo, hi) bounds that tighten the report's
    checks.
    """

    name: str
    presentation: GroupPresentation
    v0: np.ndarray
    flow_opts: FlowOptions
    mode: str
    analyses: tuple
    checks: tuple = ()


@dataclass(frozen=True)
class Run:
    """One run of an experiment: its seed and what its analyses share, each
    computed at most once, on first use.

    ``primary`` is the configured flow, cointegrated when the ray analysis
    needs the group lift. ``affine`` and ``projective`` are the primary
    flow when its kind matches. Otherwise ``affine`` is the one the
    projective primary carries, and ``projective`` is a leg of its own.
    """

    exp: Experiment
    seed: int

    @cached_property
    def primary(self):
        exp = self.exp
        p, v0, opts = exp.presentation, exp.v0, exp.flow_opts
        lift = "ray" in exp.analyses
        if exp.mode == "projective":    # carrying the affine flow of the rates
            affine = (replace(opts, t_max=AFFINE_READ_OFF_T_MAX)
                      if "rates" in exp.analyses else None)
            return integrate_projective(p, v0, opts, cointegrate=lift, affine=affine)
        if exp.mode == "cointegrate" or lift:
            return cointegrate_group(p, v0, opts)
        return integrate_kempf_ness(p, v0, opts)

    @cached_property
    def affine(self):
        """Affine trajectory, for the rates analysis."""
        return self.primary.affine if self.exp.mode == "projective" else self.primary

    @cached_property
    def projective(self):
        """Projectivized trajectory, for the degeneration analysis."""
        exp = self.exp
        if exp.mode == "projective":
            return self.primary
        opts = replace(exp.flow_opts, t_max=PROJECTIVE_LEG_S_MAX)
        return integrate_projective(exp.presentation, exp.v0, opts)

    @cached_property
    def torus(self):
        """Weights, support and embedding of the oracle's torus."""
        return diagonal_torus(self.exp.presentation, self.exp.v0)

    @cached_property
    def oracle(self):
        """The torus oracle's answer, or None when the run has no oracle."""
        if "oracle" not in self.exp.analyses:
            return None
        weights, support, _ = self.torus
        return torus_oracle(weights, support=support)

    @cached_property
    def oracle_spectrum(self):
        """Sorted spectrum of the generator of a destabilizing oracle beta,
        the conjugacy invariant the degeneration and ray spectra meet."""
        p, beta = self.exp.presentation, self.torus[2] @ self.oracle.beta
        return np.linalg.eigvalsh(hermitian_generator(p, p.lower(beta)))


def _num(x):
    return repr(float(x))


def _vec(x):
    return "[" + ", ".join(_num(v) for v in np.asarray(x, dtype=float)) + "]"


def _rational(approx):
    if approx is None:
        return "  rational = none (certification failed honestly)"
    ints, den = approx
    return f"  rational = {list(ints)} / {den}"


def _scale_bounds(lo, hi, scale):
    """Uniform tolerance relaxation of a check interval."""
    if scale == 1.0:
        return lo, hi
    if np.isfinite(lo) and np.isfinite(hi):
        mid = 0.5 * (lo + hi)
        return mid - scale * (mid - lo), mid + scale * (hi - mid)
    if np.isfinite(hi):
        return lo, hi * scale
    return lo / scale, hi


def _measure(lines, checks, name, value, lo, hi):
    """Write ``value`` once: as the line of ``name``'s key, and as its check."""
    lines.append(f"  {name.partition('.')[2]} = {_num(value)}")
    checks.append((name, value, lo, hi))


def _failure(name, err, lines=(), checks=()):
    """A failed analysis's result: its error line over the lines it reported, .ok FAIL."""
    return ([f"  error = {type(err).__name__}: {err}", *lines],
            [*checks, (f"{name}.ok", 0.0, 1.0, 1.0)], None)


def _subsample_geometric(clocks):
    idx, target = [], RAY_CLOCK_START
    for i, s in enumerate(clocks):
        if s >= target:
            idx.append(i)
            target = max(target, s) * RAY_CLOCK_GROWTH
    if idx and idx[-1] != len(clocks) - 1:
        idx.append(len(clocks) - 1)
    return np.array(idx, dtype=int)


def _rates(run):
    affine = run.affine
    # the span of the trajectory fitted, which a short projective run ends early
    lines = [f"  samples = {len(affine)}", f"  final_time = {_num(affine.t[-1])}"]
    try:
        fit = fit_lojasiewicz(affine)
    except DiagnosticError as err:    # the span stays beside the error it explains
        return _failure("rates", err, lines)
    lines += [f"  decay_exponent = {_num(fit.decay_exponent)}",
              f"  alpha_hat = {_num(fit.alpha_hat)}",
              f"  fit_quality = {_num(fit.fit_quality)}",
              f"  semilog_quality = {_num(fit.semilog_quality)}"]
    checks = [("rates.fit_quality", fit.fit_quality, 0.98, 1.0),
              ("rates.decay_exponent", fit.decay_exponent, -INF, INF),
              ("rates.alpha_hat", fit.alpha_hat, 0.5, 1.0)]

    rates = check_rates(affine, fit.alpha_hat)
    if rates.applicable:
        _measure(lines, checks, "rates.f_plateau_ratio", rates.f_plateau_ratio, 1.0, 1.5)
        _measure(lines, checks, "rates.dist_plateau_ratio", rates.dist_plateau_ratio, 1.0, 1.5)
        # the collapse-rate plateau |v| * sqrt(t) at the stated exponent
        half = check_rates(affine, 0.75)
        if half.limit_is_origin:
            _measure(lines, checks, "rates.v_plateau_ratio", half.dist_plateau_ratio, 1.0, 1.5)
    # pointwise |grad f|^4 >= c f^3 on the final decade
    win = affine.t >= affine.t[-1] / 10.0
    with np.errstate(divide="ignore"):
        ratio = affine.grad_norm[win] ** 4 / affine.f[win] ** 3
    _measure(lines, checks, "rates.grad4_over_f3_min", ratio.min(), 1e-2, INF)
    # the logarithmic clock: s against log t over the final decade
    slope, r2 = _r_squared(np.log(affine.t[win]), affine.s[win])
    _measure(lines, checks, "rates.s_logt_r2", r2, 0.99, 1.0)
    lines.append(f"  s_logt_slope = {_num(slope)}")
    return lines, checks, None


def _degeneration(run):
    p, proj = run.exp.presentation, run.projective
    report = limit_direction(p, proj)
    lines = [f"  limit_direction = {_vec(report.limit_direction)}",
             f"  spectrum = {_vec(report.spectrum)}",
             _rational(report.rational_approx),
             f"  limit_mu_norm = {_num(report.mu_norm)}"]
    checks = [("degeneration.limit_nonzero",
               float(report.mu_norm >= 10.0 * proj.eps_grad), 1.0, 1.0)]

    oracle = run.oracle
    if oracle is None:
        lines.append("  oracle = not run")
    elif oracle.semistable:   # yet the flow's limit is unstable (nonzero)
        report.verdict = "mismatch"
        lines += ["  oracle = semi-stable (origin in hull)", f"  verdict = {report.verdict}"]
        checks.append(("degeneration.oracle_destabilizes", 0.0, 1.0, 1.0))
    else:
        beta = oracle.beta
        lines += [f"  oracle_beta = {_vec(beta)}",
                  f"  oracle_face = {list(oracle.support_face)}"]
        if p.kind == "torus":
            angle = oracle_angle(report.limit_direction, beta)
            report.verdict = "match" if angle <= ANGLE_TOL else "mismatch"
            # collapse onto the minimizing face: mass off the face must vanish
            off_mass = max((abs(report.limit_point[j]) for j in range(p.dim_v)
                            if j not in oracle.support_face), default=0.0)
            lines.append(f"  verdict = {report.verdict}")
            _measure(lines, checks, "degeneration.oracle_angle", angle, 0.0, 1e-3)
            _measure(lines, checks, "degeneration.off_face_mass", off_mass, 0.0, 1e-4)
        else:
            # nonabelian validation goes through conjugacy invariants
            err = float(np.max(np.abs(report.spectrum - run.oracle_spectrum)))
            report.verdict = "match" if err <= 1e-2 else "mismatch"
            _measure(lines, checks, "degeneration.spectrum_vs_oracle", err, 0.0, 1e-2)

    table = [("spectrum", report.spectrum), ("direction", report.limit_direction),
             ("verdict", [report.verdict])]
    return lines, checks, table


def _ray_diagnostics(diag):
    """Report lines and checks of ray diagnostics, a diverging ray's too."""
    lines, checks = [f"  tail_samples = {len(diag.distances)}",
                     f"  final_distance = {_num(diag.distances[-1])}"], []
    _measure(lines, checks, "ray.final_angle", diag.angles[-1], 0.0, 1e-3)
    lines.append(f"  residuals = {_vec(diag.residuals)}")
    # Cauchy decrease is asserted on the final stretch (the transit toward
    # the limit set may legitimately swing the chord first), with a slack at
    # the arccos round-off floor, far below the 1e-3 criterion.
    angles_tail = diag.angles[-8:]
    monotone = float(np.all(np.diff(angles_tail) <= 1e-6)) if len(angles_tail) > 1 else 1.0
    resid_dec = float(np.all(np.diff(diag.residuals) <= 1e-6)) if len(diag.residuals) > 1 else 1.0
    checks += [("ray.angles_monotone", monotone, 1.0, 1.0),
               ("ray.residuals_decreasing", resid_dec, 1.0, 1.0),
               ("ray.residual_last", diag.residuals[-1], 0.0, 1e-2)]
    return lines, checks


def _ray(run):
    traj = run.primary
    try:
        ray, diag = extract_asymptotic_ray(traj.g_knots[_subsample_geometric(traj.knots)])
    except RayDivergenceError as err:    # the partial diagnostics stay beside it
        if err.diagnostics is None:
            raise
        return _failure("ray", err, *_ray_diagnostics(err.diagnostics))
    lines, checks = _ray_diagnostics(diag)
    lines += [f"  spectrum = {_vec(diag.spectrum)}", _rational(ray.rational_approx)]

    if run.oracle is not None and not run.oracle.semistable:
        err = float(np.max(np.abs(diag.spectrum - run.oracle_spectrum)))
        _measure(lines, checks, "ray.spectrum_vs_oracle", err, 0.0, 1e-2)

    table = [("eigenvalue", diag.spectrum), ("angle", diag.angles),
             ("residual", diag.residuals), ("distance", diag.distances)]
    return lines, checks, table


def _normal_form(run):
    p = run.exp.presentation
    rng = np.random.default_rng(run.seed)
    model = build_model(p, run.exp.v0)
    lines = [f"  dim_g0 = {model.dim_g0}",
             f"  dim_m = {model.dim_m}",
             f"  dim_N_real = {model.dim_n}"]
    checks = [("normal_form.dim_split",
               float(2 * model.dim_m + model.dim_n == 2 * p.dim_v), 1.0, 1.0)]

    # One array per draw: numpy fills it from the stream in row order, so a
    # row holds the values one sample at a time would have drawn.
    n_samples, dm = 100, model.dim_m
    scale = np.array([0.3] * dm + [0.5] * (dm + model.dim_n))
    draws = rng.standard_normal((n_samples, model.dim_chart + p.dim_g))
    samples = list(zip(scale * draws[:, :model.dim_chart], draws[:, model.dim_chart:]))
    resid_mu = verify_moment_identity(model, samples)
    _measure(lines, checks, "normal_form.moment_identity", resid_mu, 0.0, 1e-5)

    draws = rng.standard_normal((n_samples, 4, model.dim_chart))
    draws[:, 0] *= scale
    resid_d, resid_neg = verify_closedness(model, list(draws))
    _measure(lines, checks, "normal_form.closedness", resid_d, 0.0, 1e-4)

    if model.dim_m > 1 and model.dim_g0 > 0:   # nonabelian
        _measure(lines, checks, "normal_form.negative_control", resid_neg, 1e-2, INF)
    else:
        lines.append("  negative_control = skipped (abelian model)")
    return lines, checks, None


# Each analysis maps a Run to (report lines, checks as (name, value, lo, hi),
# optional CSV table of (kind, values)). A failed analysis returns _failure's
# section with the lines it reported, or raises and gets a bare one. Run order
# is the VERDICT order; sections print in SECTIONS order.
ANALYSES = {"rates": _rates, "degeneration": _degeneration, "ray": _ray,
            "normal_form": _normal_form}


def run_experiment(exp, out_dir, *, seed=0, tol_scale=1.0, quiet=False):
    """Execute one experiment; returns (exit_status, report_path).

    Exit status 0 means every enabled check passed its documented tolerance
    (scaled by ``tol_scale``, a positive finite number, else DomainError); 1
    means a check failed, an analysis raised, a declared bound's check never
    ran, or the primary flow ended by ``step_underflow`` or ``nonfinite``.
    """
    if not 0 < tol_scale < INF:
        raise DomainError(f"tol_scale must be a positive finite number, got {tol_scale!r}")
    os.makedirs(out_dir, exist_ok=True)
    run = Run(exp, seed)
    opts = exp.flow_opts
    sections = {"CONFIG": [
        f"  name = {exp.name}",
        f"  group_kind = {exp.presentation.kind}",
        f"  dim_V = {exp.presentation.dim_v}",
        f"  dim_g = {exp.presentation.dim_g}",
        f"  mode = {exp.mode}",
        f"  t_max = {_num(opts.t_max)}",
        f"  eps_grad = {_num(opts.eps_grad)}",
        f"  initial_step = {_num(opts.initial_step)}",
        f"  analyses = {', '.join(exp.analyses) if exp.analyses else 'none'}",
        f"  seed = {seed}",
        f"  tol_scale = {_num(tol_scale)}"]}

    traj = run.primary
    traj.to_csv(os.path.join(out_dir, "trajectory.csv"))
    fdiff = np.diff(traj.f)
    sections["FLOW"] = [
        f"  clock = {traj.clock}",
        f"  samples = {len(traj)}",
        f"  steps = {traj.steps}",
        f"  evaluations = {traj.evaluations}",
        f"  h_min = {_num(traj.h_min)}",
        f"  h_max = {_num(traj.h_max)}",
        "  rejected = " + ", ".join(f"{cause} {n}" for cause, n in traj.rejected.items()),
        f"  terminated = {traj.terminated_reason}",
        f"  final_time = {_num(traj.t[-1])}",
        f"  final_f = {_num(traj.f[-1])}",
        f"  final_grad = {_num(traj.grad_norm[-1])}",
        f"  max_f_increase = {_num(max(0.0, fdiff.max()) if len(fdiff) else 0.0)}"]

    # a flow that did not run cannot pass, even with no analysis enabled
    found = []
    if traj.terminated_reason in ("step_underflow", "nonfinite"):
        found.append(("flow.ok", 0.0, 1.0, 1.0))
    if traj.g is not None:    # the lift checks itself: |g v0 - v| <= 1e-6 |v0|
        _measure(sections["FLOW"], found, "flow.lift_residual", traj.lift_residual, 0.0, LIFT_TOL)
    for name, analysis in ANALYSES.items():
        if name not in exp.analyses:
            sections[name.upper()] = ["  disabled"]
            continue
        try:
            lines, checks, table = analysis(run)
        except (ValueError, RuntimeError) as err:
            lines, checks, table = _failure(name, err)
        sections[name.upper()] = lines
        found += checks
        if table is not None:
            _write_table(os.path.join(out_dir, f"{name}.csv"), table)

    # declared bounds tighten the emitted checks; one never emitted fails
    bounds = {name: (lo, hi) for name, lo, hi in exp.checks}
    emitted = {check[0] for check in found}
    found += [(name, float("nan"), -INF, INF) for name in bounds if name not in emitted]
    verdict, ok = [], True
    for name, value, lo, hi in found:
        blo, bhi = bounds.get(name, (lo, hi))
        lo, hi = _scale_bounds(max(lo, blo), min(hi, bhi), tol_scale)
        passed = lo <= value <= hi and np.isfinite(value)
        ok = ok and passed
        verdict.append(f"  {name} = {_num(value)}  in [{_num(lo)}, {_num(hi)}]  "
                       f"{'PASS' if passed else 'FAIL'}")
    sections["VERDICT"] = verdict + [f"  overall = {'OK' if ok else 'FAIL'}"]

    text = "".join(f"[{section}]\n" + "".join(f"{line}\n" for line in sections[section]) + "\n"
                   for section in SECTIONS)
    report_path = os.path.join(out_dir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write(text)
    if not quiet:
        print(text, end="")
    return (0 if ok else 1), report_path


def _write_table(path, table):
    with open(path, "w") as fh:
        fh.write("kind,index,value\n")
        for kind, values in table:
            for i, x in enumerate(values):
                fh.write(f"{kind},{i},{x if isinstance(x, str) else _num(x)}\n")
