import os
from dataclasses import replace

import numpy as np
import pytest

from momentflow.builtins import BUILTIN_NAMES, get_builtin
from momentflow.cli import ConfigError, main, parse_config
from momentflow.degeneration import ORACLE_MAX_WEIGHTS
from momentflow.errors import RayDivergenceError
from momentflow.flow import FlowOptions
from momentflow import runner
from momentflow.runner import run_experiment
from momentflow.symmetric_space import RayDiagnostics

GOOD_CONFIG = """\
# two-weight torus, projectivized
group.kind = torus
group.weights = 1; 2
initial_vector = 0.7071:0, 0.7071:0
flow.mode = projective
flow.t_max = 200
flow.eps_grad = 1e-10
analyses = degeneration, oracle
seed = 5
"""


def test_list_builtins_contains_and_stable(capsys):
    assert main(["--list-builtins"]) == 0
    out1 = capsys.readouterr().out
    assert "torus_c3" in out1.splitlines()
    main(["--list-builtins"])
    assert capsys.readouterr().out == out1


def test_builtin_names_cover_required_set():
    required = {"u1_weight1", "torus_12", "torus_c3", "su2_symd", "mgs_u1",
                "mgs_su2"}
    assert required.issubset(set(BUILTIN_NAMES))


def test_parse_config_round_trip():
    exp, out_dir, seed = parse_config(GOOD_CONFIG)
    assert exp.mode == "projective"
    assert exp.presentation.dim_v == 2
    assert seed == 5
    assert exp.flow_opts.t_max == 200.0
    np.testing.assert_allclose(exp.v0, [0.7071, 0.7071])


def test_parse_config_dimension_mismatch_names_line():
    bad = GOOD_CONFIG.replace("initial_vector = 0.7071:0, 0.7071:0",
                              "initial_vector = 1:0, 0:0, 0:0")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "line 4" in str(err.value)
    assert "initial_vector" in str(err.value)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD_CONFIG + "flow.timestep = 2\n")
    assert "flow.timestep" in str(err.value)


def test_parse_config_rejects_bad_mode_and_tmax():
    with pytest.raises(ConfigError):
        parse_config(GOOD_CONFIG.replace("flow.mode = projective",
                                         "flow.mode = sideways"))
    with pytest.raises(ConfigError):
        parse_config(GOOD_CONFIG.replace("flow.t_max = 200", "flow.t_max = -1"))


def test_cli_config_file_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
    assert (out / "report.txt").exists()
    assert (out / "trajectory.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG.replace("group.kind = torus", "group.kind = cube"))
    assert main(["--config", str(bad), "--quiet"]) == 2


def test_cli_out_dir_env_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(GOOD_CONFIG)
    monkeypatch.setenv("MOMENTFLOW_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "envout" / "report.txt").exists()


def test_report_reproducible_and_deterministic(tmp_path):
    exp = get_builtin("torus_12")
    s1, p1 = run_experiment(exp, tmp_path / "a", seed=3, quiet=True)
    s2, p2 = run_experiment(get_builtin("torus_12"), tmp_path / "b", seed=3,
                            quiet=True)
    assert s1 == s2 == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_impossible_tolerance_flips_status(tmp_path):
    exp = get_builtin("torus_12")
    status, _ = run_experiment(exp, tmp_path / "x", tol_scale=1e-9, quiet=True)
    assert status == 1


def test_tol_scale_relaxes(tmp_path):
    # a relaxed run can only pass where the strict run passes
    exp = get_builtin("u1_weight1")
    strict, _ = run_experiment(exp, tmp_path / "s", quiet=True)
    loose, _ = run_experiment(get_builtin("u1_weight1"), tmp_path / "l",
                              tol_scale=10.0, quiet=True)
    assert strict == 0 and loose == 0


def test_su2_sym_sum_config_kind():
    cfg = ("group.kind = su2_sym_sum\n"
           "group.degrees = 2, 2\n"
           "initial_vector = 0:0, 1:0, 0:0, 0:0, 0:0, 0:0\n"
           "flow.mode = affine\n"
           "flow.t_max = 1\n"
           "analyses = normal_form\n")
    exp, _, _ = parse_config(cfg)
    assert exp.presentation.dim_v == 6
    assert exp.presentation.dim_g == 3


def test_cli_seed_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(GOOD_CONFIG)
    out1, out2, out3 = (tmp_path / x for x in "abc")
    assert main(["--config", str(cfg), "--out-dir", str(out1), "--quiet",
                 "--seed", "11"]) == 0
    assert main(["--config", str(cfg), "--out-dir", str(out2), "--quiet",
                 "--seed", "11"]) == 0
    text1 = (out1 / "report.txt").read_text()
    assert "seed = 11" in text1
    assert text1 == (out2 / "report.txt").read_text()


def test_basis_file_config_kind(tmp_path):
    import json

    from momentflow.algebra import su2_presentation

    p = su2_presentation()
    payload = {"basis": [[[ [c.real, c.imag] for c in row] for row in mat]
                         for mat in p.basis]}
    basis_path = tmp_path / "su2.json"
    basis_path.write_text(json.dumps(payload))
    cfg = (f"group.kind = basis_file\n"
           f"group.basis_path = {basis_path}\n"
           "initial_vector = 1:0, 0:0.3\n"
           "flow.mode = affine\n"
           "flow.t_max = 5\n")
    exp, _, _ = parse_config(cfg)
    assert exp.presentation.dim_v == 2
    np.testing.assert_allclose(exp.presentation.basis, p.basis, atol=1e-15)
    out = tmp_path / "out"
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(cfg)
    assert main(["--config", str(cfg_file), "--out-dir", str(out), "--quiet"]) == 0


def test_report_sections_fixed_order(tmp_path):
    _, path = run_experiment(get_builtin("mgs_u1"), tmp_path / "m", quiet=True)
    text = open(path).read()
    order = [text.index(f"[{s}]") for s in
             ("CONFIG", "FLOW", "RATES", "RAY", "DEGENERATION", "NORMAL_FORM",
              "VERDICT")]
    assert order == sorted(order)
    assert "[RATES]\n  disabled" in text


@pytest.mark.parametrize("group", [
    "group.kind = su2_sym\ngroup.degree = abc",
    "group.kind = su2_sym\ngroup.degree = 0",
    "group.kind = su2_sym_sum\ngroup.degrees = 2,x",
    "group.kind = torus\ngroup.weights = 1,0; 1",
    "group.kind = basis_file\ngroup.basis_path = {bad_json}",
], ids=["degree_abc", "degree_0", "degrees_2x", "ragged_weights", "bad_json"])
def test_malformed_group_exits_2_with_line(tmp_path, capsys, group):
    bad_json = tmp_path / "basis.json"
    bad_json.write_text('{"basis": [')
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(group.format(bad_json=bad_json) + "\ninitial_vector = 1:0, 0:0\n")
    assert main(["--config", str(cfg), "--quiet"]) == 2
    assert "line 2: invalid group." in capsys.readouterr().err


@pytest.mark.parametrize("lines, line_no", [
    ("flow.t_max = -3", 5),
    ("flow.t_max = nan", 5),
    ("flow.eps_grad = nan", 5),
    ("flow.initial_step = -1", 5),
    ("initial_vector = nan:0, 1:0", 5),
    ("group.weights = nan\ninitial_vector = 1:0", 5),
    ("initial_vector = 0:0, 0:0", 5),
    ("flow.initial_step = 1e-20", 5),
], ids=["t_max_negative", "t_max_nan", "eps_grad_nan", "initial_step_negative",
        "vector_nan", "weights_nan", "zero_vector_projective",
        "initial_step_below_min_step"])
def test_malformed_number_exits_2_with_line(tmp_path, capsys, lines, line_no):
    # later keys override earlier ones, so the bad line is always line 5
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = torus\ngroup.weights = 1; 2\n"
                   "initial_vector = 0.7:0, 0.7:0\nflow.mode = projective\n"
                   + lines + "\n")
    assert main(["--config", str(cfg), "--quiet"]) == 2
    assert f"line {line_no}: " in capsys.readouterr().err


def test_oracle_weight_limit_exits_2_with_line(tmp_path, capsys):
    weights = "; ".join(str(k) for k in range(1, ORACLE_MAX_WEIGHTS + 2))
    vector = ", ".join(["0.3:0"] * (ORACLE_MAX_WEIGHTS + 1))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"group.kind = torus\ngroup.weights = {weights}\n"
                   f"initial_vector = {vector}\nflow.mode = projective\n"
                   "analyses = degeneration, oracle\n")
    assert main(["--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"line 5: the oracle supports at most {ORACLE_MAX_WEIGHTS} weights" in err


_NO_ANALYSIS = {"mode": "affine", "analyses": ()}


@pytest.mark.parametrize("name, changes, opts, v0, reason", [
    ("torus_12", _NO_ANALYSIS, FlowOptions(initial_step=1e-20), [1.0, 1.0],
     "step_underflow"),
    ("torus_12", _NO_ANALYSIS, FlowOptions(), [np.nan, 1.0], "nonfinite"),
    ("su2_symd", {}, FlowOptions(initial_step=1e-20), [1.0, 0.01, 0, 0, 0],
     "step_underflow"),
    ("su2_symd", {}, FlowOptions(), [np.nan, 0.01, 0, 0, 0], "nonfinite"),
], ids=["initial_step_below_min_step", "nan_start",
        "su2_symd_initial_step_below_min_step", "su2_symd_nan_start"])
def test_flow_that_did_not_run_fails(tmp_path, name, changes, opts, v0, reason):
    # torus_12 runs no analysis, so only the flow check can fail the run;
    # su2_symd keeps its ray analysis, which reads the one-sample flow
    exp = replace(get_builtin(name), v0=np.array(v0, dtype=complex),
                  flow_opts=opts, checks=(), **changes)
    status, path = run_experiment(exp, tmp_path / reason, quiet=True)
    text = open(path).read()
    assert status == 1
    assert f"terminated = {reason}" in text
    assert "flow.ok = 0.0  in [1.0, 1.0]  FAIL" in text
    if "ray" in exp.analyses:
        assert "error = NotAsymptoticError: path has no samples" in text
        assert "ray.ok = 0.0  in [1.0, 1.0]  FAIL" in text
    assert text.rstrip().endswith("overall = FAIL")
    if exp.analyses:
        return

    healthy = replace(exp, v0=np.array([1.0, 1.0], dtype=complex),
                      flow_opts=FlowOptions(t_max=10.0))
    status, path = run_experiment(healthy, tmp_path / "healthy", quiet=True)
    assert status == 0
    assert "flow.ok" not in open(path).read()


def test_failing_analysis_is_a_fail_check_in_the_report(tmp_path):
    # the projective flow stops at s = 5 before converging, so the
    # degeneration analysis raises DomainError; the run still reports
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = torus\ngroup.weights = 1,0; 0,1; 1,1\n"
                   "initial_vector = 0.577:0, 0.577:0, 0.577:0\n"
                   "flow.mode = projective\nflow.t_max = 5\n"
                   "analyses = rates, degeneration, oracle, ray\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 1
    text = (out / "report.txt").read_text()
    degeneration = text.split("[DEGENERATION]\n", 1)[1].split("\n\n", 1)[0]
    assert degeneration.startswith("  error = DomainError: ")
    assert "degeneration.ok = 0.0  in [1.0, 1.0]  FAIL" in text
    assert "rates.s_logt_r2" in text    # the other analyses still ran
    assert text.rstrip().endswith("overall = FAIL")


def test_ray_divergence_diagnostics_in_the_report(tmp_path, monkeypatch):
    diag = RayDiagnostics(clocks=np.array([1.0, 2.0]), distances=np.array([11.0, 12.5]),
                          angles=np.array([0.25]), residuals=np.array([0.5, 0.125]),
                          spectrum=np.zeros(1), probe=1.0, escaped=True)

    def diverging(*args, **kwargs):
        raise RayDivergenceError("chord directions not Cauchy", diagnostics=diag)

    monkeypatch.setattr(runner, "extract_asymptotic_ray", diverging)
    exp = replace(get_builtin("u1_weight1"), analyses=("ray",), checks=())
    status, path = run_experiment(exp, tmp_path / "ray", quiet=True)
    text = open(path).read()
    ray = text.split("[RAY]\n", 1)[1].split("\n\n", 1)[0]
    assert ray.splitlines() == [
        "  error = RayDivergenceError: chord directions not Cauchy",
        "  tail_samples = 2", "  final_distance = 12.5", "  final_angle = 0.25",
        "  residuals = [0.5, 0.125]"]
    assert "ray.ok = 0.0  in [1.0, 1.0]  FAIL" in text
    assert status == 1


def test_declared_bound_without_its_check_fails(tmp_path):
    # mgs_u1 runs only normal_form, so a rates bound can never be checked
    exp = replace(get_builtin("mgs_u1"),
                  checks=(("rates.alpha_hat", 0.73, 0.77),))
    status, path = run_experiment(exp, tmp_path / "m", quiet=True)
    text = open(path).read()
    assert status == 1
    assert "rates.alpha_hat = nan  in [0.73, 0.77]  FAIL" in text
    assert text.rstrip().endswith("overall = FAIL")


AFFINE_RATES_RAY = """\
group.kind = torus
group.weights = 1; 2
initial_vector = 0.6:0.2, 0.7:-0.1
flow.mode = affine
flow.t_max = 1e4
analyses = rates, ray
"""


@pytest.mark.parametrize("case, integrations", [
    ("u1_weight1", 1), ("affine_rates_ray", 1), ("torus_12", 2),
    ("torus_c3", 2), ("su2_symd", 1), ("mgs_u1", 1), ("mgs_su2", 1),
])
def test_each_flow_runs_once_per_run(tmp_path, monkeypatch, case, integrations):
    calls = []
    for name in ("integrate_kempf_ness", "integrate_projective",
                 "cointegrate_group"):
        def counted(*args, _fn=getattr(runner, name), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(runner, name, counted)
    if case == "affine_rates_ray":
        exp = parse_config(AFFINE_RATES_RAY)[0]
    else:
        exp = get_builtin(case)
    status, _ = run_experiment(exp, tmp_path / case, quiet=True)
    assert status == 0
    assert len(calls) == integrations, calls
