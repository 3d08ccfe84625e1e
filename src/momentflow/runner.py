"""Experiment execution: flows, analyses, CSV and report emission.

``run_experiment`` drives one experiment to completion: it integrates the
configured flow, runs the enabled analyses, writes ``trajectory.csv`` (plus
``ray.csv`` and ``degeneration.csv`` for those analyses) and a plain-text
``report.txt`` with fixed section order, and returns the exit status the
checks decide. A run integrates each flow at most once (``Legs``) and
solves the torus oracle at most once (``Oracle``). Everything is
deterministic given the experiment and its seed; the seed only feeds the
randomized verification samples of the normal-form analysis.
"""

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import GroupPresentation
from .degeneration import (ANGLE_TOL, hermitian_generator, limit_direction,
                           oracle_angle, torus_oracle)
from .flow import (FlowOptions, check_rates, cointegrate_group, fit_lojasiewicz,
                   integrate_kempf_ness, integrate_projective, reparametrize)
from .normal_form import (ModelPoint, build_model, model_symplectic_form,
                          verify_closedness, verify_moment_identity)
from .representation import projective_moment_map
from .symmetric_space import SymmetricSpacePoint, extract_asymptotic_ray

SECTIONS = ("CONFIG", "FLOW", "RATES", "RAY", "DEGENERATION", "NORMAL_FORM",
            "VERDICT")

# Horizons of the two legs that differ from the primary flow: the affine leg
# of the rates analysis in projective mode (clock t) and the projective leg
# of the degeneration analysis in affine or cointegrate mode (clock s).
AFFINE_LEG_T_MAX = 1e4
PROJECTIVE_LEG_S_MAX = 200.0

INF = float("inf")


@dataclass(frozen=True)
class Experiment:
    """A presentation, a start vector, the flow to run and its analyses.

    ``checks`` holds (check name, lo, hi) bounds that tighten the report's
    checks. ``oracle_embedding`` maps oracle coordinates into g-coordinates
    (None: identity).
    """

    name: str
    presentation: GroupPresentation
    v0: np.ndarray
    flow_opts: FlowOptions
    mode: str
    analyses: tuple
    weights: list | None = None
    oracle_support: tuple | None = None
    oracle_embedding: np.ndarray | None = None
    checks: tuple = ()


@dataclass(frozen=True)
class Legs:
    """The flows of one run, each integrated at most once, on first use.

    ``primary`` is the configured flow, cointegrated when the ray analysis
    needs the group lift. ``affine`` and ``projective`` are the primary
    flow when its kind matches, and a leg of their own only otherwise.
    """

    exp: Experiment

    @cached_property
    def primary(self):
        exp = self.exp
        p, v0, opts = exp.presentation, exp.v0, exp.flow_opts
        lift = "ray" in exp.analyses
        if exp.mode == "projective":
            return integrate_projective(p, v0, opts, cointegrate=lift)
        if exp.mode == "cointegrate" or lift:
            return cointegrate_group(p, v0, opts)
        return integrate_kempf_ness(p, v0, opts)

    @cached_property
    def affine(self):
        """Affine trajectory with its s clock, for the rates analysis."""
        exp = self.exp
        if exp.mode != "projective":
            return reparametrize(self.primary)
        opts = FlowOptions(t_max=AFFINE_LEG_T_MAX, eps_grad=exp.flow_opts.eps_grad,
                           initial_step=exp.flow_opts.initial_step)
        return reparametrize(integrate_kempf_ness(exp.presentation, exp.v0, opts))

    @cached_property
    def projective(self):
        """Projectivized trajectory, for the degeneration analysis."""
        exp = self.exp
        if exp.mode == "projective":
            return self.primary
        opts = FlowOptions(t_max=PROJECTIVE_LEG_S_MAX, eps_grad=exp.flow_opts.eps_grad)
        return integrate_projective(exp.presentation, exp.v0, opts)


@dataclass(frozen=True)
class Oracle:
    """The torus oracle of one run and the spectrum of its direction on V,
    each computed at most once, on first use."""

    exp: Experiment

    @cached_property
    def result(self):
        """The oracle's answer, or None when the run has no oracle."""
        exp = self.exp
        if "oracle" not in exp.analyses or exp.weights is None:
            return None
        return torus_oracle(exp.weights, support=exp.oracle_support)

    @cached_property
    def spectrum(self):
        """Sorted spectrum of the generator of a destabilizing oracle beta,
        the conjugacy invariant the degeneration and ray spectra meet."""
        p, beta = self.exp.presentation, self.result.beta
        if self.exp.oracle_embedding is not None:
            beta = self.exp.oracle_embedding @ beta
        return np.linalg.eigvalsh(hermitian_generator(p, p.lower(beta)))


def _num(x):
    x = float(x)
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


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


def _subsample_geometric(clocks, start=0.5, growth=1.05):
    idx, target = [], start
    for i, s in enumerate(clocks):
        if s >= target:
            idx.append(i)
            target = max(target * growth, s * growth)
    if idx and idx[-1] != len(clocks) - 1:
        idx.append(len(clocks) - 1)
    return np.array(idx, dtype=int)


def _rates(exp, legs, oracle, seed):
    affine = legs.affine
    fit = fit_lojasiewicz(affine)
    lines = [f"  decay_exponent = {_num(fit.decay_exponent)}",
             f"  alpha_hat = {_num(fit.alpha_hat)}",
             f"  fit_quality = {_num(fit.fit_quality)}",
             f"  semilog_quality = {_num(fit.semilog_quality)}"]
    checks = [("rates.fit_quality", fit.fit_quality, 0.98, 1.0),
              ("rates.decay_exponent", fit.decay_exponent, -INF, INF),
              ("rates.alpha_hat", fit.alpha_hat, 0.5, 1.0)]

    rates = check_rates(affine, fit.alpha_hat)
    if rates.applicable:
        lines += [f"  f_plateau_ratio = {_num(rates.f_plateau_ratio)}",
                  f"  dist_plateau_ratio = {_num(rates.dist_plateau_ratio)}"]
        checks += [("rates.f_plateau_ratio", rates.f_plateau_ratio, 1.0, 1.5),
                   ("rates.dist_plateau_ratio", rates.dist_plateau_ratio, 1.0, 1.5)]
        # the collapse-rate plateau |v| * sqrt(t) at the stated exponent
        half = check_rates(affine, 0.75)
        if half.limit_is_origin:
            lines.append(f"  v_plateau_ratio = {_num(half.dist_plateau_ratio)}")
            checks.append(("rates.v_plateau_ratio", half.dist_plateau_ratio, 1.0, 1.5))
    # pointwise |grad f|^4 >= c f^3 on the final decade
    win = affine.t >= affine.t[-1] / 10.0
    with np.errstate(divide="ignore"):
        ratio = affine.grad_norm[win] ** 4 / affine.f[win] ** 3
    lines.append(f"  grad4_over_f3_min = {_num(ratio.min())}")
    checks.append(("rates.grad4_over_f3_min", ratio.min(), 1e-2, INF))
    # the logarithmic clock: s against log t over the final decade
    st = affine.s[win]
    lt = np.log(affine.t[win])
    slope, intercept = np.polyfit(lt, st, 1)
    resid = st - (slope * lt + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((st - st.mean()) ** 2))
    lines += [f"  s_logt_r2 = {_num(r2)}", f"  s_logt_slope = {_num(slope)}"]
    checks.append(("rates.s_logt_r2", r2, 0.99, 1.0))
    return lines, checks, None


def _degeneration(exp, legs, oracle, seed):
    p, proj = exp.presentation, legs.projective
    report = limit_direction(p, proj)
    mu_norm = p.norm_lowered(projective_moment_map(p, report.limit_point))
    lines = [f"  limit_direction = {_vec(report.limit_direction)}",
             f"  spectrum = {_vec(report.spectrum)}",
             _rational(report.rational_approx),
             f"  limit_mu_norm = {_num(mu_norm)}"]
    checks = [("degeneration.limit_nonzero",
               float(mu_norm >= 10.0 * proj.eps_grad), 1.0, 1.0)]

    if oracle.result is None:
        lines.append("  oracle = not run")
    elif oracle.result.semistable:
        lines.append("  oracle = semi-stable (origin in hull)")
    else:
        beta = oracle.result.beta
        lines += [f"  oracle_beta = {_vec(beta)}",
                  f"  oracle_face = {list(oracle.result.support_face)}"]
        if p.kind == "torus" and exp.oracle_embedding is None:
            angle = oracle_angle(report.limit_direction, beta)
            report.verdict = "match" if angle <= ANGLE_TOL else "mismatch"
            # collapse onto the minimizing face: mass off the face must vanish
            off = [abs(report.limit_point[j]) for j in range(p.dim_v)
                   if j not in oracle.result.support_face]
            off_mass = max(off) if off else 0.0
            lines += [f"  verdict = {report.verdict}",
                      f"  oracle_angle = {_num(angle)}",
                      f"  off_face_mass = {_num(off_mass)}"]
            checks += [("degeneration.oracle_angle", angle, 0.0, 1e-3),
                       ("degeneration.off_face_mass", off_mass, 0.0, 1e-4)]
        else:
            # nonabelian validation goes through conjugacy invariants
            err = float(np.max(np.abs(report.spectrum - oracle.spectrum)))
            report.verdict = "match" if err <= 1e-2 else "mismatch"
            lines.append(f"  spectrum_vs_oracle = {_num(err)}")
            checks.append(("degeneration.spectrum_vs_oracle", err, 0.0, 1e-2))

    table = [("spectrum", report.spectrum), ("direction", report.limit_direction),
             ("verdict", [report.verdict])]
    return lines, checks, table


def _ray_diagnostics(diag):
    """Report lines of ray diagnostics, also written when the ray diverges."""
    return [f"  tail_samples = {len(diag.distances)}",
            f"  final_distance = {_num(diag.distances[-1])}",
            f"  final_angle = {_num(diag.angles[-1])}",
            f"  residuals = {_vec(diag.residuals)}"]


def _ray(exp, legs, oracle, seed):
    traj = legs.primary
    idx = _subsample_geometric(traj.t)
    pts = [SymmetricSpacePoint.from_group(traj.g[i]) for i in idx]
    base = SymmetricSpacePoint.from_matrix(np.eye(exp.presentation.dim_v))
    ray, diag = extract_asymptotic_ray(pts, base, traj.t[idx])
    lines = _ray_diagnostics(diag) + [f"  spectrum = {_vec(diag.spectrum)}",
                                      _rational(ray.rational_approx)]
    # Cauchy decrease is asserted on the final stretch (the transit toward
    # the limit set may legitimately swing the chord first), with a slack at
    # the arccos round-off floor, far below the 1e-3 criterion.
    angles_tail = diag.angles[-8:]
    monotone = float(np.all(np.diff(angles_tail) <= 1e-6)) if len(angles_tail) > 1 else 1.0
    resid_dec = float(np.all(np.diff(diag.residuals) <= 1e-6)) if len(diag.residuals) > 1 else 1.0
    checks = [("ray.final_angle", diag.angles[-1], 0.0, 1e-3),
              ("ray.angles_monotone", monotone, 1.0, 1.0),
              ("ray.residuals_decreasing", resid_dec, 1.0, 1.0),
              ("ray.residual_last", diag.residuals[-1], 0.0, 1e-2)]

    if oracle.result is not None and not oracle.result.semistable:
        err = float(np.max(np.abs(diag.spectrum - oracle.spectrum)))
        lines.append(f"  spectrum_vs_oracle = {_num(err)}")
        checks.append(("ray.spectrum_vs_oracle", err, 0.0, 1e-2))

    table = [("eigenvalue", diag.spectrum), ("angle", diag.angles),
             ("residual", diag.residuals), ("distance", diag.distances)]
    return lines, checks, table


def _normal_form(exp, legs, oracle, seed):
    p = exp.presentation
    rng = np.random.default_rng(seed)
    model = build_model(p, exp.v0)
    lines = [f"  dim_g0 = {model.dim_g0}",
             f"  dim_m = {model.dim_m}",
             f"  dim_N_real = {model.dim_n}"]
    checks = [("normal_form.dim_split",
               float(2 * model.dim_m + model.dim_n == 2 * p.dim_v), 1.0, 1.0)]

    def rand_point():
        return ModelPoint(xi_m=0.3 * rng.standard_normal(model.dim_m),
                          rho=0.5 * rng.standard_normal(model.dim_m),
                          v=0.5 * rng.standard_normal(model.dim_n))

    def rand_tangent():
        return (rng.standard_normal(model.dim_m),
                rng.standard_normal(model.dim_m),
                rng.standard_normal(model.dim_n))

    n_samples = 100
    samples = [(rand_point(), rng.standard_normal(p.dim_g))
               for _ in range(n_samples)]
    resid_mu = verify_moment_identity(model, samples)
    lines.append(f"  moment_identity = {_num(resid_mu)}")
    checks.append(("normal_form.moment_identity", resid_mu, 0.0, 1e-5))

    triples = [(rand_point(), rand_tangent(), rand_tangent(), rand_tangent())
               for _ in range(n_samples)]
    resid_d = verify_closedness(model, triples)
    lines.append(f"  closedness = {_num(resid_d)}")
    checks.append(("normal_form.closedness", resid_d, 0.0, 1e-4))

    if model.dim_m > 1 and model.dim_g0 > 0:   # nonabelian
        def corrupted(m, at, x1, x2):
            return model_symplectic_form(m, at, x1, x2, include_bracket=False)

        resid_neg = verify_closedness(model, triples, form=corrupted)
        lines.append(f"  negative_control = {_num(resid_neg)}")
        checks.append(("normal_form.negative_control", resid_neg, 1e-2, INF))
    else:
        lines.append("  negative_control = skipped (abelian model)")
    return lines, checks, None


# Each analysis maps (exp, legs, oracle, seed) to (report lines, checks as
# (name, value, lo, hi), optional CSV table of (kind, values)). Run order,
# which is the order of the VERDICT lines; sections print in SECTIONS order.
ANALYSES = {"rates": _rates, "degeneration": _degeneration, "ray": _ray,
            "normal_form": _normal_form}


def run_experiment(exp, out_dir, *, seed=0, tol_scale=1.0, quiet=False):
    """Execute one experiment; returns (exit_status, report_path).

    Exit status 0 means every enabled check passed its documented tolerance
    (scaled by ``tol_scale``); 1 means a check failed, an analysis raised,
    a declared bound's check never ran, or the primary flow ended by
    ``step_underflow`` or ``nonfinite``.
    """
    os.makedirs(out_dir, exist_ok=True)
    legs, oracle = Legs(exp), Oracle(exp)
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

    traj = legs.primary
    traj.to_csv(os.path.join(out_dir, "trajectory.csv"))
    fdiff = np.diff(traj.f)
    sections["FLOW"] = [
        f"  clock = {traj.clock}",
        f"  samples = {len(traj)}",
        f"  terminated = {traj.terminated_reason}",
        f"  final_time = {_num(traj.t[-1])}",
        f"  final_f = {_num(traj.f[-1])}",
        f"  final_grad = {_num(traj.grad_norm[-1])}",
        f"  max_f_increase = {_num(max(0.0, fdiff.max()) if len(fdiff) else 0.0)}"]

    # a flow that did not run cannot pass, even with no analysis enabled
    found = []
    if traj.terminated_reason in ("step_underflow", "nonfinite"):
        found.append(("flow.ok", 0.0, 1.0, 1.0))
    for name, analysis in ANALYSES.items():
        if name not in exp.analyses:
            sections[name.upper()] = ["  disabled"]
            continue
        try:
            lines, checks, table = analysis(exp, legs, oracle, seed)
        except (ValueError, RuntimeError) as err:
            lines = [f"  error = {type(err).__name__}: {err}"]
            if getattr(err, "diagnostics", None) is not None:
                lines += _ray_diagnostics(err.diagnostics)
            checks, table = [(f"{name}.ok", 0.0, 1.0, 1.0)], None
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

    report_path = os.path.join(out_dir, "report.txt")
    with open(report_path, "w") as fh:
        for section in SECTIONS:
            fh.write(f"[{section}]\n")
            for line in sections[section]:
                fh.write(line + "\n")
            fh.write("\n")
    if not quiet:
        with open(report_path) as fh:
            print(fh.read(), end="")
    return (0 if ok else 1), report_path


def _write_table(path, table):
    with open(path, "w") as fh:
        fh.write("kind,index,value\n")
        for kind, values in table:
            for i, x in enumerate(values):
                fh.write(f"{kind},{i},{x if isinstance(x, str) else _num(x)}\n")
