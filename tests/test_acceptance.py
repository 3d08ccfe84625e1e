"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is pinned here, not deferred. The tests recompute the
quantities from scratch through the public API so the suite stays an
independent gate over the whole pipeline.
"""

import time
from pathlib import Path

import numpy as np
import scipy.linalg

from conftest import fd_gradient, random_presentation, random_vector
from momentflow.algebra import su2_presentation, torus_presentation
from momentflow.builtins import BUILTIN_NAMES, get_builtin
from momentflow.degeneration import (ANGLE_TOL, hermitian_generator,
                                     limit_direction, oracle_angle, torus_oracle)
from momentflow.flow import (FlowOptions, check_rates, cointegrate_group,
                             fit_lojasiewicz, integrate_kempf_ness, integrate_projective)
from momentflow.normal_form import (build_model, verify_closedness,
                                    verify_moment_identity)
from momentflow.representation import energy_and_gradient, kempf_ness_value
from momentflow.runner import _subsample_geometric, run_experiment
from momentflow.symmetric_space import (SymmetricSpacePoint, distance,
                                        extract_asymptotic_ray, geodesic,
                                        geodesic_path)


def _report(criterion, name, checks):
    ok = all(passed for _, passed in checks)
    print(f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'}")
    for desc, passed in checks:
        if not passed:
            print(f"    failed: {desc}")
    assert ok, f"criterion {criterion} failed: " + "; ".join(
        d for d, p in checks if not p)


def test_criterion_1_gradient_consistency():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(110):
        p = random_presentation(rng)
        v = random_vector(rng, p.dim_v)
        _, grad = energy_and_gradient(p, v)
        ref = fd_gradient(p, v)
        denom = max(np.linalg.norm(ref), 1e-12)
        worst = max(worst, np.linalg.norm(grad - ref) / denom)
    elapsed = time.time() - t0
    _report(1, "gradient consistency", [
        (f"max relative error {worst:.2e} <= 1e-6", worst <= 1e-6),
        (f"runtime {elapsed:.1f}s < 10s", elapsed < 10.0),
    ])


def test_criterion_2_scalar_rates():
    t0 = time.time()
    p = torus_presentation([[1]])
    traj = integrate_kempf_ness(p, np.array([1.0 + 0j]), FlowOptions(t_max=1e4))
    fit = fit_lojasiewicz(traj)
    rates = check_rates(traj, 0.75)
    win = traj.t >= traj.t[-1] / 10.0
    c_pointwise = float(np.min(traj.grad_norm[win] ** 4 / traj.f[win] ** 3))
    elapsed = time.time() - t0
    _report(2, "scalar rate reproduction", [
        (f"decay exponent {fit.decay_exponent:.4f} = 2 +- 0.05",
         abs(fit.decay_exponent - 2.0) <= 0.05),
        (f"alpha_hat {fit.alpha_hat:.4f} = 0.75 +- 0.02",
         abs(fit.alpha_hat - 0.75) <= 0.02),
        (f"|v| sqrt(t) plateau ratio {rates.dist_plateau_ratio:.4f} <= 1.05",
         rates.limit_is_origin and rates.dist_plateau_ratio <= 1.05),
        (f"pointwise |grad f|^4 / f^3 >= {c_pointwise:.2f}, bounded away from 0",
         c_pointwise >= 1.0),
        (f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0),
    ])


def test_criterion_3_logarithmic_clock():
    checks = []
    cases = [
        ("u1_weight1", torus_presentation([[1]]), np.array([1.0 + 0j])),
        ("torus_12", torus_presentation([[1], [2]]),
         np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)),
        ("torus_c3", torus_presentation([[1, 0], [0, 1], [1, 1]]),
         np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)),
    ]
    for name, p, v0 in cases:
        traj = integrate_kempf_ness(p, v0, FlowOptions(t_max=1e4))
        win = traj.t >= traj.t[-1] / 10.0
        lt = np.log(traj.t[win])
        st = traj.s[win]
        slope, intercept = np.polyfit(lt, st, 1)
        resid = st - (slope * lt + intercept)
        r2 = 1.0 - float(resid @ resid) / float(np.sum((st - st.mean()) ** 2))
        checks.append((f"{name}: s ~ log t with R^2 {r2:.6f} >= 0.99", r2 >= 0.99))
    _report(3, "logarithmic clock", checks)


def test_criterion_4_degeneration_vs_oracle():
    t0 = time.time()
    p3 = torus_presentation([[1, 0], [0, 1], [1, 1]])
    v3 = np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)
    traj3 = integrate_projective(p3, v3, FlowOptions(t_max=1e6))
    rep3 = limit_direction(p3, traj3)
    beta3 = torus_oracle([[1, 0], [0, 1], [1, 1]]).beta
    cosang = float(rep3.limit_direction @ beta3) / (
        np.linalg.norm(rep3.limit_direction) * np.linalg.norm(beta3))
    angle3 = float(np.arccos(np.clip(cosang, -1, 1)))
    t3 = time.time() - t0

    t0 = time.time()
    p2 = torus_presentation([[1], [2]])
    v2 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    traj2 = integrate_projective(p2, v2, FlowOptions(t_max=1e6))
    off_line = abs(traj2.v[-1][1])
    t2 = time.time() - t0

    _report(4, "optimal degeneration vs oracle", [
        (f"torus_c3 angle to oracle {angle3:.2e} <= 1e-3", angle3 <= 1e-3),
        ("torus_c3 verdict match",
         oracle_angle(rep3.limit_direction, beta3) <= ANGLE_TOL),
        (f"torus_12 off-line residual {off_line:.2e} <= 1e-4", off_line <= 1e-4),
        (f"runtimes {t3:.1f}s, {t2:.1f}s < 60s each", t3 < 60 and t2 < 60),
    ])


def test_criterion_5_asymptotic_ray():
    p = torus_presentation([[1, 0], [0, 1], [1, 1]])
    v0 = np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)
    traj = integrate_projective(p, v0, FlowOptions(t_max=200.0), cointegrate=True)
    ray, diag = extract_asymptotic_ray(traj.g_knots[_subsample_geometric(traj.knots)])

    angles_tail = diag.angles[-8:]
    monotone = bool(np.all(np.diff(angles_tail) <= 1e-6))
    resid_dec = bool(np.all(np.diff(diag.residuals) <= 1e-6))
    beta = torus_oracle([[1, 0], [0, 1], [1, 1]]).beta
    spec_oracle = np.linalg.eigvalsh(hermitian_generator(p, beta))
    spec_err = float(np.max(np.abs(diag.spectrum - spec_oracle)))

    _report(5, "asymptotic ray", [
        (f"final chord angle {diag.angles[-1]:.2e} <= 1e-3",
         diag.angles[-1] <= 1e-3),
        ("successive angles monotonically Cauchy", monotone),
        (f"probe residuals decrease to {diag.residuals[-1]:.2e} <= 1e-2",
         resid_dec and diag.residuals[-1] <= 1e-2),
        (f"ray spectrum vs oracle {spec_err:.2e} <= 1e-3", spec_err <= 1e-3),
    ])


def test_criterion_6_nonabelian_conjugacy():
    exp = get_builtin("su2_symd")
    traj = integrate_projective(exp.presentation, exp.v0, exp.flow_opts,
                                cointegrate=True)
    ray, diag = extract_asymptotic_ray(traj.g_knots[_subsample_geometric(traj.knots)])
    # the maximal torus: i sigma_z / 2, the third generator, has the weights
    # 2, 1, 0, -1, -2 on Sym^4; v0 has mass on the first two weight lines only
    beta = torus_oracle([[2], [1], [0], [-1], [-2]], support=(0, 1)).beta
    coords = np.array([[0.0], [0.0], [1.0]]) @ beta
    spec_oracle = np.linalg.eigvalsh(
        hermitian_generator(exp.presentation, exp.presentation.lower(coords)))
    spec_err = float(np.max(np.abs(diag.spectrum - spec_oracle)))
    _report(6, "nonabelian conjugacy", [
        (f"sorted ray spectrum vs torus oracle {spec_err:.2e} <= 1e-2",
         spec_err <= 1e-2),
    ])


def _matched_clock_flow_pair(p, v0, h, t_max):
    """The group lifts of two flows of one orbit, from v0 and h v0, at the
    times they share: every flow samples the same output grid in t, so the
    clocks match exactly there."""
    opts = FlowOptions(t_max=t_max)
    a, b = cointegrate_group(p, v0, opts), cointegrate_group(p, h @ v0, opts)
    _, i, j = np.intersect1d(a.t, b.t, return_indices=True)
    assert len(i) >= 100
    return a.g[i], b.g[j]


def test_criterion_7_convexity_and_distance_decrease():
    rng = np.random.default_rng(7)

    def rand_pd(n):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return a.conj().T @ a + 0.5 * np.eye(n)

    worst = 0.0
    for _ in range(50):
        pa = geodesic_path(rand_pd(4), rand_pd(4), 17)
        pb = geodesic_path(rand_pd(4), rand_pd(4), 17)
        d = np.array([distance(x, y) for x, y in zip(pa, pb)])
        second = d[:-2] - 2 * d[1:-1] + d[2:]
        worst = min(worst, float(second.min()) / max(1.0, d.max()))

    # two flows started in one orbit: matched-clock distance non-increasing
    p = su2_presentation()
    from momentflow.algebra import direct_sum_presentation
    psum = direct_sum_presentation([p, p])
    v0 = np.array([1.0, 0.2, -0.1, 0.8], dtype=complex)
    herm = 1j * psum.matrix([0.2, -0.3, 0.4])
    h = scipy.linalg.expm(herm)
    lift1, lift2 = _matched_clock_flow_pair(psum, v0, h, t_max=40.0)
    dists = []
    for g1, g2 in zip(lift1, lift2):
        h1 = SymmetricSpacePoint.from_group(g1)
        h2 = SymmetricSpacePoint.from_group(g2 @ h)
        dists.append(distance(h1, h2))
    dists = np.array(dists)
    increase = float(np.diff(dists).max())

    _report(7, "convexity and distance decrease", [
        (f"min scaled second difference {worst:.2e} >= -1e-8", worst >= -1e-8),
        (f"matched-clock distance increase {increase:.2e} <= 1e-6",
         increase <= 1e-6),
        (f"distance actually decreased ({dists[0]:.3f} -> {dists[-1]:.3f})",
         dists[-1] < dists[0]),
    ])


def test_criterion_8_kempf_ness_function():
    rng = np.random.default_rng(8)
    checks = []
    cases = [
        ("u1_weight1", torus_presentation([[1]]), np.array([1.0 + 0j])),
        ("torus_12", torus_presentation([[1], [2]]),
         np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)),
        ("torus_c3", torus_presentation([[1, 0], [0, 1], [1, 1]]),
         np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)),
    ]
    for name, p, v0 in cases:
        gen = (p.matrix(rng.standard_normal(p.dim_g))
               + 1j * p.matrix(rng.standard_normal(p.dim_g)))
        path = [scipy.linalg.expm(t * gen) for t in np.linspace(0, 1, 1501)]
        val = kempf_ness_value(p, v0, path)
        w = path[-1] @ v0
        exact = float(np.log(np.vdot(w, w).real) - np.log(np.vdot(v0, v0).real))
        err = abs(val - exact)
        checks.append(
            (f"{name}: quadrature vs log|g.v|^2 error {err:.2e} <= 1e-6",
             err <= 1e-6))

    p = torus_presentation([[1, 0], [0, 1], [1, 1]])
    v0 = np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h1 = a.conj().T @ a + 0.5 * np.eye(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h2 = a.conj().T @ a + 0.5 * np.eye(3)
        grid = np.linspace(0, 1, 21)
        vals = np.array([
            np.log(np.vdot(v0, geodesic(h1, h2, u).H @ v0).real)
            for u in grid])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        worst = min(worst, float(second.min()) / max(1.0, np.abs(vals).max()))
    checks.append(
        (f"E second differences along 20 geodesics {worst:.2e} >= -1e-8",
         worst >= -1e-8))
    _report(8, "Kempf-Ness function", checks)


def test_criterion_9_mgs_model_verification():
    checks = []
    for name in ("mgs_u1", "mgs_su2"):
        exp = get_builtin(name)
        rng = np.random.default_rng(9)
        model = build_model(exp.presentation, exp.v0)

        def rand_point():
            return np.concatenate([0.3 * rng.standard_normal(model.dim_m),
                                   0.5 * rng.standard_normal(model.dim_m),
                                   0.5 * rng.standard_normal(model.dim_n)])

        def rand_tan():
            return rng.standard_normal(model.dim_chart)

        samples = [(rand_point(), rng.standard_normal(exp.presentation.dim_g))
                   for _ in range(100)]
        resid_mu = verify_moment_identity(model, samples)
        triples = [(rand_point(), rand_tan(), rand_tan(), rand_tan())
                   for _ in range(100)]
        resid_d, resid_neg = verify_closedness(model, triples)
        checks.append((f"{name}: moment identity {resid_mu:.2e} <= 1e-5",
                       resid_mu <= 1e-5))
        checks.append((f"{name}: closedness {resid_d:.2e} <= 1e-4",
                       resid_d <= 1e-4))
        if name == "mgs_su2":
            checks.append(
                (f"{name}: dropped-bracket control {resid_neg:.2e} >= 1e-2",
                 resid_neg >= 1e-2))
    _report(9, "MGS model verification", checks)


# Ceilings on each builtin's [FLOW] steps, evaluations and samples at seed 0.
# Work may fall below them; a change that spends more work raises this table
# on purpose and says why. A DOP853 step makes 15 evaluations where a
# Dormand-Prince 5(4) step made 6, so the flows of u1_weight1, mgs_u1 and
# mgs_su2, one step at a critical point, cost 9 more. torus_12 and torus_c3
# stop at the first step end with |grad f^| < eps_grad; their longer steps
# end there later, one output-grid point past the old end, so each holds one
# more sample.
FLOW_COUNTER_CEILINGS = {
    "u1_weight1": (1, 17, 355),
    "torus_12": (51, 964, 202),
    "torus_c3": (49, 950, 218),
    "su2_symd": (94, 1624, 217),
    "mgs_u1": (1, 16, 2),
    "mgs_su2": (1, 16, 2),
}


def _flow_counters(report):
    """(steps, evaluations, samples) of a report's [FLOW] section."""
    section = report.split("[FLOW]\n")[1].split("\n\n")[0]
    fields = dict(line.strip().split(" = ", 1) for line in section.splitlines())
    return tuple(int(fields[key]) for key in ("steps", "evaluations", "samples"))


def test_criterion_10_reproducibility(tmp_path):
    checks = []
    for name in BUILTIN_NAMES:
        dirs = [tmp_path / name / run for run in ("run1", "run2")]
        (s1, p1), (s2, _) = (run_experiment(get_builtin(name), d, seed=0, quiet=True)
                             for d in dirs)
        files = sorted(x.name for x in dirs[0].iterdir())
        same = files == sorted(x.name for x in dirs[1].iterdir()) and all(
            (dirs[0] / x).read_bytes() == (dirs[1] / x).read_bytes() for x in files)
        checks.append((f"{name}: exit 0 twice, byte-identical {', '.join(files)}",
                       s1 == 0 and s2 == 0 and same))
        report = Path(p1).read_bytes()
        counters, ceilings = _flow_counters(report.decode()), FLOW_COUNTER_CEILINGS[name]
        checks.append((f"{name}: [FLOW] steps, evaluations, samples {counters} "
                       f"within {ceilings}",
                       all(c <= m for c, m in zip(counters, ceilings))))
    _report(10, "reproducibility", checks)
