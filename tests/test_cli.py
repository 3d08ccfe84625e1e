import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from momentflow import algebra, degeneration
from momentflow.algebra import DiagnosticsReport, sym_power_generator
from momentflow.builtins import BUILTIN_NAMES, get_builtin
from momentflow import cli, flow
from momentflow.cli import MAX_SYM_DEGREE, ConfigError, main, parse_config
from momentflow.degeneration import ORACLE_MAX_WEIGHTS, torus_oracle
from momentflow.errors import DiagnosticError, DomainError, RayDivergenceError
from momentflow.flow import FlowOptions
from momentflow.linalg import expm
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


@pytest.mark.parametrize("source", ["README", "cli_docstring"])
def test_documented_example_config_exits_0(tmp_path, source):
    # the example config of README's CLI section and the one in the cli
    # module docstring, each read where it is documented
    if source == "README":
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Config files are flat", 1)[1].split("```")[1]
    else:
        block = cli.__doc__.split("Example::", 1)[1].split("\n\n")[1]
    assert "group.kind = torus" in block and "analyses = " in block
    config = tmp_path / "example.cfg"
    config.write_text(block)
    assert main(["--config", str(config), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 0


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


_TORUS_LINES = "group.kind = torus\ngroup.weights = 1\ninitial_vector = 1:0\n"


def _fail_primary_flow(*args, **kwargs):
    raise DiagnosticError("integrator exceeded the step budget")


@pytest.mark.parametrize("config, args, code, stderr", [
    ("group.kind = torus\nnot an assignment\n", ["--config", "{cfg}"], 2,
     "config error: line 2: expected 'key = value', got 'not an assignment'"),
    ("initial_vector = 1:0\n", ["--config", "{cfg}"], 2,
     "config error: missing required key 'group.kind'"),
    (_TORUS_LINES + "analyses = rates, bogus\n", ["--config", "{cfg}"], 2,
     "config error: line 4: unknown analysis 'bogus'; known: "
     "rates, ray, degeneration, oracle, normal_form"),
    (_TORUS_LINES + "seed = x\n", ["--config", "{cfg}"], 2,
     "config error: line 4: seed must be a nonnegative integer, got 'x'"),
    (None, ["--builtin", "mgs_u1", "--seed", "abc"], 2,
     "momentflow: error: argument --seed: must be a nonnegative integer, got 'abc'"),
    (None, [], 2,
     "momentflow: error: exactly one of --config or --builtin is required"),
    (_TORUS_LINES, ["--config", "{cfg}", "--builtin", "mgs_u1"], 2,
     "momentflow: error: exactly one of --config or --builtin is required"),
    (None, ["--builtin", "nope"], 2,
     "config error: unknown builtin 'nope'; known: " + ", ".join(BUILTIN_NAMES)),
    (None, ["--builtin", "u1_weight1", "--tol-scale", "2"], 0, None),
    (None, ["--builtin", "u1_weight1"], 1,
     "numerical failure: DiagnosticError: integrator exceeded the step budget"),
])
def test_cli_exit_paths(tmp_path, capsys, monkeypatch, config, args, code, stderr):
    cfg = tmp_path / "exp.cfg"
    if config is not None:
        cfg.write_text(config)
    if code == 1:    # the primary affine flow raises
        monkeypatch.setattr(runner, "integrate_kempf_ness", _fail_primary_flow)
    argv = [a.replace("{cfg}", str(cfg)) for a in args]
    argv += ["--out-dir", str(tmp_path / "out"), "--quiet"]
    try:
        status = main(argv)
    except SystemExit as exc:    # argparse's usage errors
        status = exc.code
    assert status == code
    err = capsys.readouterr().err.splitlines()
    assert (err[-1] if err else None) == stderr


def test_output_directory_that_cannot_be_written_exits_2(tmp_path, capsys):
    # a regular file where a directory should go: an output error, not a
    # numerical failure, and no traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["--builtin", "mgs_u1", "--out-dir", str(blocker / "x"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and "Traceback" not in err


def test_model_without_m_passes_the_moment_identity(tmp_path, capsys):
    # the weight-zero circle fixes z0, so the normal-form model has dim_m = 0
    cfg = tmp_path / "trivial.cfg"
    cfg.write_text("group.kind = torus\ngroup.weights = 0\ninitial_vector = 1:0\n"
                   "flow.t_max = 1\nanalyses = normal_form\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert "  dim_m = 0\n" in report
    assert "normal_form.moment_identity = 0.0  in [0.0, 1e-05]  PASS" in report


def test_config_run_with_normal_form_validates_its_presentation_once(tmp_path, monkeypatch):
    # parse_config and build_model both ask for the report; it is computed once
    reports = []

    def counted(*args, **kwargs):
        reports.append(DiagnosticsReport(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(algebra, "DiagnosticsReport", counted)
    cfg = tmp_path / "mgs.cfg"
    cfg.write_text("group.kind = su2_sym_sum\ngroup.degrees = 2, 2\n"
                   "initial_vector = 0:0, 1:0, 0:0, 0:0, 0:0, 0:0\n"
                   "flow.t_max = 1\nanalyses = normal_form\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(reports) == 1 and reports[0].ok


def test_config_that_is_not_utf8_exits_2_with_line(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"group.kind = torus\ngroup.weights = 1; 2\n"
                    b"initial_vector = 0.7:0, 0.7\xff:0\n")
    assert main(["--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "line 3: " in err and "Traceback" not in err


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
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


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


@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
def test_run_experiment_refuses_tol_scale(tmp_path, value):
    # a library caller meets the same rule as the CLI, before any output
    out = tmp_path / "out"
    with pytest.raises(DomainError, match="tol_scale must be a positive finite number"):
        run_experiment(get_builtin("u1_weight1"), out, tol_scale=value, quiet=True)
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "nan", "-1", "inf"])
def test_tol_scale_must_be_positive_finite(tmp_path, capsys, value):
    # 0 divided a bound by zero, inf widened every bound to [-inf, inf]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--builtin", "u1_weight1", "--out-dir", str(out), "--quiet",
              f"--tol-scale={value}"])
    assert exc.value.code == 2
    assert "--tol-scale: must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--builtin", "mgs_u1", "--out-dir", str(out), "--quiet", "--seed=-1"])
    assert exc.value.code == 2
    assert "--seed: must be a nonnegative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


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
    text = Path(path).read_text()
    order = [text.index(f"[{s}]") for s in
             ("CONFIG", "FLOW", "RATES", "RAY", "DEGENERATION", "NORMAL_FORM",
              "VERDICT")]
    assert order == sorted(order)
    assert "[RATES]\n  disabled" in text


def test_flow_section_counts_steps_beside_samples(tmp_path):
    # a polystable torus whose projective flow rejects steps for both
    # causes, and ends once its gradient is small
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = torus\n"
                   "group.weights = 0, 1; 2, 0; -1, 1; 1, -2\n"
                   "initial_vector = 0:1, 0:2, -1:2, -1:-1\n"
                   "flow.mode = projective\n"
                   "analyses = rates\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) in (0, 1)
    flow_lines = (out / "report.txt").read_text().split("[FLOW]\n")[1].split("\n\n")[0]
    fields = dict(line.strip().split(" = ") for line in flow_lines.splitlines())
    assert fields["terminated"] == "gradient_small"
    assert int(fields["samples"]) <= 1000
    assert 0 < int(fields["steps"]) < int(fields["samples"])
    rejected = dict(part.split() for part in fields["rejected"].split(", "))
    assert list(rejected) == ["error", "energy", "nonfinite"]
    assert int(rejected["error"]) > 0 and int(rejected["energy"]) > 0


@pytest.mark.parametrize("s_max, final_time", [(200.0, 1e4), (2.0, None)])
def test_rates_section_reports_the_span_it_fits(tmp_path, s_max, final_time):
    # the rates of a projective run read the affine flow off the primary,
    # so a short primary ends their span early, and the report shows it
    exp = replace(get_builtin("torus_12"), flow_opts=FlowOptions(t_max=s_max))
    _, path = run_experiment(exp, tmp_path / "out", quiet=True)
    rates = Path(path).read_text().split("[RATES]\n")[1].split("\n\n")[0].splitlines()
    fields = dict(line.strip().split(" = ", 1) for line in rates)
    affine = runner.Run(exp, 0).affine
    assert int(fields["samples"]) == len(affine)
    assert float(fields["final_time"]) == affine.t[-1]
    if final_time is not None:
        assert affine.t[-1] == final_time and affine.terminated_reason == "t_max"
    else:    # the primary's end, at s = 2
        assert affine.t[-1] < 1e4 and affine.s[-1] == 2.0


@pytest.mark.parametrize("weights, initial_vector", [("1", "1:0"), ("1; 2", "1:0, 0:0")])
def test_rates_continue_past_a_projective_critical_point(tmp_path, weights, initial_vector):
    # a 1-dim representation and a torus weight vector start at a critical
    # point of f^: the projective flow stops after one step, while v keeps
    # collapsing along it, f ~ t^-2, and the rates follow it to t = 1e4
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = torus\n"
                   f"group.weights = {weights}\n"
                   f"initial_vector = {initial_vector}\n"
                   "flow.mode = projective\n"
                   "flow.t_max = 200\n"
                   "analyses = rates\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    text = (out / "report.txt").read_text()
    assert "  terminated = gradient_small\n  final_time = 0.001" in text
    rates = text.split("[RATES]\n")[1].split("\n\n")[0].splitlines()
    fields = dict(line.strip().split(" = ", 1) for line in rates)
    assert float(fields["final_time"]) == 1e4
    assert float(fields["decay_exponent"]) == pytest.approx(2.0, abs=1e-3)
    affine = runner.Run(parse_config(cfg.read_text())[0], 0).affine
    assert affine.terminated_reason == "t_max" and not affine.converged()


def test_rates_read_off_steps_whose_clock_overflows(tmp_path):
    # with eps_grad = 1e-30 the projective flow runs on to s = 200, long after
    # the rates' t = 1e4; there l = log|v|^2 has fallen so far that dt/ds =
    # e^-l overflows. The affine flow stops riding at t = 1e4, integrates
    # none of those steps and warns nothing (a RuntimeWarning is an error
    # under this suite's filter).
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = torus\n"
                   "group.weights = 2; 4\n"
                   "initial_vector = 0.6:0, 0.8:0\n"
                   "flow.mode = projective\n"
                   "flow.t_max = 200\n"
                   "flow.eps_grad = 1e-30\n"
                   "analyses = rates\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    text = (out / "report.txt").read_text()
    assert "  terminated = t_max\n" in text and "  final_time = 10000.0\n" in text
    verdict = text.split("[VERDICT]\n")[1].splitlines()
    rates = [line for line in verdict if line.startswith("  rates.")]
    assert rates and all(line.endswith("PASS") for line in rates)


@pytest.mark.parametrize("name, analyses, recorded", [
    ("torus_12", None, False),
    ("torus_c3", None, True),
    ("su2_symd", None, True),
    ("su2_symd", ("degeneration", "oracle"), False),
    ("u1_weight1", None, False),
    ("u1_weight1", ("rates", "ray"), True),
], ids=["torus_12-rates", "torus_c3-rates_ray", "su2_symd-ray", "su2_symd-neither",
        "u1_weight1-affine_rates", "u1_weight1-cointegrated_ray"])
def test_primary_records_its_steps_only_for_the_rates_or_the_lift(monkeypatch, name, analyses,
                                                                   recorded):
    # the integrator records the steps only for the lift, which reads them
    # while the trajectory is packed
    exp = get_builtin(name)
    if analyses is not None:
        exp = replace(exp, analyses=analyses)
    records = []

    def adaptive_flow(*args, record=False, _fn=flow._adaptive_flow, **kwargs):
        records.append(record)
        return _fn(*args, record=record, **kwargs)

    monkeypatch.setattr(flow, "_adaptive_flow", adaptive_flow)
    primary = runner.Run(exp, 0).primary
    assert records == [recorded]
    assert (primary.g is not None) == ("ray" in exp.analyses)


def test_projective_leg_keeps_the_flow_options_but_its_horizon(monkeypatch):
    # degeneration in affine mode integrates a projective leg to s = 200 with
    # the experiment's own initial_step, rtol and atol
    calls = []
    monkeypatch.setattr(runner, "integrate_projective",
                        lambda p, v0, opts=None, **kw: calls.append(opts))
    exp = replace(get_builtin("su2_symd"), mode="affine")
    runner.Run(exp, 0).projective
    assert calls == [replace(exp.flow_opts, t_max=runner.PROJECTIVE_LEG_S_MAX)]
    assert (calls[0].rtol, calls[0].atol) == (1e-10, 1e-14)


def test_projective_flow_from_a_zero_of_mu_exits_0(tmp_path):
    # f^ starts at round-off; its rise over the first step stays within it
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = torus\n"
                   "group.weights = 1; -1\n"
                   "initial_vector = 1:0, 1:0\n"
                   "flow.mode = projective\n"
                   "flow.t_max = 50\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    text = (out / "report.txt").read_text()
    assert "  steps = 1\n" in text
    assert "  rejected = error 0, energy 0, nonfinite 0\n" in text
    assert "  terminated = gradient_small\n" in text
    assert "  flow.ok" not in text and "  overall = OK\n" in text


def test_large_affine_start_steps_without_overflow(tmp_path, capsys):
    # |v0| = 60: the polar steps carry u = v/|v| and l = log|v|^2, so no
    # stage overflows (the affine state once did, a nonfinite rejection);
    # every warning is an error here
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = torus\n"
                   "group.weights = 1, 0; 0, 1; 1, 1; -2, 3\n"
                   "initial_vector = 30:0, 30:0, 30:0, 30:0\n"
                   "flow.mode = affine\n"
                   "analyses = rates\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    flow_lines = (out / "report.txt").read_text().split("[FLOW]\n")[1].split("\n\n")[0]
    fields = dict(line.strip().split(" = ") for line in flow_lines.splitlines())
    assert fields["terminated"] == "t_max" and float(fields["final_time"]) == 1e4
    rejected = dict(part.split() for part in fields["rejected"].split(", "))
    assert rejected["nonfinite"] == "0"


def test_start_whose_energy_overflows_still_flows(tmp_path, capsys):
    # |mu(v0)|^2 = |v0|^4 / 4 overflows at v0 = 1e200, yet the polar state
    # does not: the first sample reports f = inf, and the flow collapses as
    # |v|^2 = 1 / (|v0|^-2 + 2t), silently under the suite's filter
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = torus\n"
                   "group.weights = 1\n"
                   "initial_vector = 1e200:0\n"
                   "flow.mode = affine\n"
                   "analyses = rates\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    report = (out / "report.txt").read_text()
    assert "  terminated = t_max\n" in report and "  overall = OK\n" in report
    # |v|^2 overflows, |v| = 1e200 does not
    header, *rows = (out / "trajectory.csv").read_text().splitlines()
    first, second = (dict(zip(header.split(","), row.split(","))) for row in rows[:2])
    assert first["v_norm"] == "1e+200" and first["f"] == "inf"
    assert float(second["v_norm"]) ** 2 == pytest.approx(1.0 / (2 * float(second["t"])),
                                                         rel=1e-12)


@pytest.mark.parametrize("scale", ["1e-200", "1e200"])
def test_projective_start_whose_norm_under_or_overflows(tmp_path, capsys, scale):
    # |v0|^2 leaves the float range; the run must match the unit start
    def run(entry):
        cfg = tmp_path / f"{entry}.cfg"
        cfg.write_text("group.kind = torus\n"
                       "group.weights = 1\n"
                       f"initial_vector = {entry}:0\n"
                       "flow.mode = projective\n"
                       "analyses = degeneration\n")
        out = tmp_path / entry
        status = main(["--config", str(cfg), "--out", str(out), "--quiet"])
        report = (out / "report.txt").read_text().split("[FLOW]")[1]   # not [CONFIG]
        return status, report, (out / "trajectory.csv").read_text()

    assert run(scale) == run("1") and run("1")[0] == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("group", [
    "group.kind = su2_sym\ngroup.degree = abc",
    "group.kind = su2_sym\ngroup.degree = 0",
    "group.kind = su2_sym_sum\ngroup.degrees = 2,x",
    "group.kind = su2_sym\ngroup.degree = 1000000000000000000",
    "group.kind = su2_sym_sum\ngroup.degrees = 2, 1000000",
    "group.kind = su2_sym_sum\ngroup.degrees = 40, 40",
    "group.kind = torus\ngroup.weights = 1,0; 1",
    "group.kind = basis_file\ngroup.basis_path = {bad_json}",
    "group.kind = basis_file\ngroup.basis_path = {singular_metric}",
    "group.kind = basis_file\ngroup.basis_path = {negative_metric}",
], ids=["degree_abc", "degree_0", "degrees_2x", "degree_1e18", "degrees_1e6",
        "degrees_sum_over_limit", "ragged_weights", "bad_json",
        "singular_metric", "negative_metric"])
def test_malformed_group_exits_2_with_line(tmp_path, capsys, group):
    files = {"bad_json": '{"basis": ['}
    # a u(1) generator with a metric that is not positive-definite: [[0]]
    # ended in a singular-matrix error, [[-1]] ran to overall = OK
    u1 = '{"basis": [[[[0, 1], [0, 0]], [[0, 0], [0, -1]]]], "metric": %s}'
    files["singular_metric"] = u1 % "[[0.0]]"
    files["negative_metric"] = u1 % "[[-1.0]]"
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(group.format(**paths) + "\ninitial_vector = 1:0, 0:0\n")
    assert main(["--config", str(cfg), "--quiet"]) == 2
    assert "line 2: invalid group." in capsys.readouterr().err


def test_degree_limit_is_checked_before_any_matrix_is_built(monkeypatch):
    vector = ", ".join(["1:0"] * (MAX_SYM_DEGREE + 1))
    exp = parse_config(f"group.kind = su2_sym\ngroup.degree = {MAX_SYM_DEGREE}\n"
                       f"initial_vector = {vector}\n")[0]
    assert exp.presentation.dim_v == MAX_SYM_DEGREE + 1
    built = []
    monkeypatch.setattr(cli, "su2_sym_presentation", built.append)
    for group in (f"su2_sym\ngroup.degree = {MAX_SYM_DEGREE + 1}",
                  f"su2_sym_sum\ngroup.degrees = {MAX_SYM_DEGREE}, 1"):
        with pytest.raises(ConfigError, match="line 2: invalid group.degree"):
            parse_config(f"group.kind = {group}\ninitial_vector = 1:0\n")
    assert built == []


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


def test_huge_torus_weight_exits_2_with_line_and_no_warning(tmp_path, capsys):
    # the brackets of a weight 1e200 overflow; the validation reports them
    # as non-finite and warns nothing (a RuntimeWarning is an error under
    # this suite's filter)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = torus\ngroup.weights = 1e200\ninitial_vector = 1:0\n")
    assert main(["--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "line 2: group presentation fails validation" in err and "bracket=nan" in err


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
    assert f"(got {ORACLE_MAX_WEIGHTS + 1})" in err


def test_oracle_weight_limit_counts_the_support(tmp_path):
    # eleven weights, two of them in the support of v0: the oracle sees two
    weights = "; ".join(str(k) for k in range(1, ORACLE_MAX_WEIGHTS + 2))
    vector = ", ".join(["0.3:0"] * 2 + ["0:0"] * (ORACLE_MAX_WEIGHTS - 1))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"group.kind = torus\ngroup.weights = {weights}\n"
                   f"initial_vector = {vector}\nflow.mode = projective\n"
                   "analyses = degeneration, oracle\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
    lines = (out / "report.txt").read_text().splitlines()
    assert "  oracle_face = [0]" in lines
    assert "  oracle_angle = 0.0" in lines


ZERO_ENTRY_CONFIG = """\
group.kind = torus
group.weights = 1,-1; 1,1; 0.5,0.5
initial_vector = 0.6:0, 0.8:0, 0:0
flow.mode = projective
flow.t_max = 200
flow.eps_grad = 1e-8
analyses = degeneration, oracle
"""


def test_config_run_builds_the_oracle_torus_once(tmp_path, monkeypatch):
    # parse_config counts the support from the start vector; only the run
    # builds the torus
    calls, original = [], degeneration.diagonal_torus

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (degeneration, cli, runner):
        if getattr(module, "diagonal_torus", None) is original:
            monkeypatch.setattr(module, "diagonal_torus", counted)
    cfg = tmp_path / "t.cfg"
    cfg.write_text("group.kind = torus\ngroup.weights = 1; 2\n"
                   "initial_vector = 0.6:0.2, 0.7:-0.1\nflow.mode = projective\n"
                   "flow.t_max = 200\nanalyses = degeneration, oracle\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(calls) == 1


def test_oracle_sees_only_the_support_of_the_start_vector(tmp_path):
    # the weight (0.5, 0.5) has no mass in v0: over the full weight set the
    # oracle would answer (0.6, 0.2) and the flow would read as a mismatch
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(ZERO_ENTRY_CONFIG)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
    lines = (out / "report.txt").read_text().splitlines()
    assert "  oracle_face = [0, 1]" in lines
    assert "  oracle_beta = [1.0, 0.0]" in lines
    assert "  verdict = match" in lines
    angle, = (line for line in lines if line.startswith("  oracle_angle = "))
    assert float(angle.split("=")[1]) <= 1e-3


def test_semistable_oracle_beside_an_unstable_limit_is_a_mismatch(tmp_path):
    # off the weight lines of the diagonal torus: its oracle sees the origin
    # in the hull, while the flow's limit keeps |mu| = 0.158
    exp = get_builtin("su2_symd")
    a = 0.35j * np.array([[0, 1], [1, 0]]) + 0.15j * np.diag([1.0, -1.0])
    exp = replace(exp, v0=expm(sym_power_generator(a, 4)) @ exp.v0,
                  analyses=("degeneration", "oracle"), checks=())
    status, path = run_experiment(exp, tmp_path, quiet=True)
    lines = Path(path).read_text().splitlines()
    assert status == 1
    assert "  oracle = semi-stable (origin in hull)" in lines
    assert "  verdict = mismatch" in lines
    assert any(line.startswith("  degeneration.oracle_destabilizes = ")
               and line.endswith("FAIL") for line in lines)
    assert "verdict,0,mismatch" in (tmp_path / "degeneration.csv").read_text()


@pytest.mark.parametrize("name, residual", [("torus_c3", 1.11e-10), ("su2_symd", 3.25e-7)],
                         ids=["torus_c3", "su2_symd"])
def test_lifted_builtins_report_their_lift_residual(tmp_path, name, residual):
    # both lifts are projective, so the residual is taken up to phase
    status, path = run_experiment(get_builtin(name), tmp_path, quiet=True)
    assert status == 0
    lines = Path(path).read_text().splitlines()
    flow_lines = lines[lines.index("[FLOW]"):lines.index("[RATES]")]
    value = [float(line.split(" = ")[1]) for line in flow_lines
             if line.startswith("  lift_residual = ")]
    assert value == [pytest.approx(residual, rel=5e-3)]
    assert any(line.startswith("  flow.lift_residual = ")
               and line.endswith("in [0.0, 1e-06]  PASS") for line in lines)


def test_lift_residual_gates_the_run(tmp_path, monkeypatch):
    exp = replace(get_builtin("torus_12"), mode="cointegrate", analyses=(), checks=())
    status, path = run_experiment(exp, tmp_path / "ok", quiet=True)
    assert status == 0
    assert "flow.lift_residual" in Path(path).read_text()
    monkeypatch.setattr(flow, "_lift_residual", lambda g, v, projective: 2e-6)
    status, path = run_experiment(exp, tmp_path / "drift", quiet=True)
    assert status == 1
    assert "  flow.lift_residual = 2e-06  in [0.0, 1e-06]  FAIL" in Path(path).read_text()
    # an unlifted run neither prints nor checks a lift residual
    status, path = run_experiment(replace(exp, mode="affine"), tmp_path / "affine",
                                  quiet=True)
    assert status == 0 and "lift_residual" not in Path(path).read_text()


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
    text = Path(path).read_text()
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
    assert "flow.ok" not in Path(path).read_text()


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


def test_failing_rates_fit_keeps_its_span_in_the_report(tmp_path):
    # the projective flow stops at s = 0.05, too early for the rates' tail
    # fit; the span it fitted stays under the error line
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = torus\ngroup.weights = 1; 2\n"
                   "initial_vector = 0.7071:0, 0.7071:0\n"
                   "flow.mode = projective\nflow.t_max = 0.05\nanalyses = rates\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 1
    text = (out / "report.txt").read_text()
    rates = text.split("[RATES]\n", 1)[1].split("\n\n", 1)[0]
    assert rates.splitlines() == [
        "  error = DiagnosticError: not enough positive samples for a tail fit",
        "  samples = 47", "  final_time = 0.055963336307619994"]
    assert "rates.ok = 0.0  in [1.0, 1.0]  FAIL" in text
    assert text.rstrip().endswith("overall = FAIL")


def test_su2_symd_as_a_config_steps_at_the_default_tolerances(tmp_path):
    # a config cannot set rtol or atol: su2_symd's start, horizon and
    # eps_grad at the defaults rtol = 1e-8, atol = 1e-12 leave the unstable
    # stratum sooner, and the lift drifts past its bound
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("group.kind = su2_sym\ngroup.degree = 4\n"
                   "initial_vector = 0.9999500037496877:0, 0.009999500037496877:0, "
                   "0:0, 0:0, 0:0\nflow.mode = projective\nflow.t_max = 300\n"
                   "flow.eps_grad = 1e-5\nanalyses = degeneration, ray\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 1
    lines = (out / "report.txt").read_text().splitlines()
    check = next(line for line in lines if line.startswith("  flow.lift_residual = "))
    assert float(check.split()[2]) == pytest.approx(4.387e-6, rel=1e-3)
    assert check.endswith("in [0.0, 1e-06]  FAIL")


def _diverging_ray_report(tmp_path, monkeypatch, diag):
    """Status, report text and [RAY] lines of u1_weight1 whose ray raises
    RayDivergenceError carrying ``diag``, with a declared ray.final_angle."""
    def diverging(*args, **kwargs):
        raise RayDivergenceError("chord directions not Cauchy", diagnostics=diag)

    monkeypatch.setattr(runner, "extract_asymptotic_ray", diverging)
    exp = replace(get_builtin("u1_weight1"), analyses=("ray",),
                  checks=(("ray.final_angle", 0.0, 1e-3),))
    status, path = run_experiment(exp, tmp_path / "ray", quiet=True)
    text = Path(path).read_text()
    return status, text, text.split("[RAY]\n", 1)[1].split("\n\n", 1)[0].splitlines()


def test_ray_divergence_diagnostics_in_the_report(tmp_path, monkeypatch):
    diag = RayDiagnostics(distances=np.array([11.0, 12.5]), angles=np.array([0.25]),
                          residuals=np.array([0.5, 0.125]), spectrum=np.zeros(1))
    status, text, ray = _diverging_ray_report(tmp_path, monkeypatch, diag)
    assert ray == [
        "  error = RayDivergenceError: chord directions not Cauchy",
        "  tail_samples = 2", "  final_distance = 12.5", "  final_angle = 0.25",
        "  residuals = [0.5, 0.125]"]
    # the diagnostics' checks are emitted, so a declared bound reads its value
    assert "ray.final_angle = 0.25  in [0.0, 0.001]  FAIL" in text
    assert "ray.residual_last = 0.125  in [0.0, 0.01]  FAIL" in text
    assert "ray.ok = 0.0  in [1.0, 1.0]  FAIL" in text
    assert status == 1


def test_ray_divergence_without_diagnostics_reports_its_error_alone(tmp_path, monkeypatch):
    status, text, ray = _diverging_ray_report(tmp_path, monkeypatch, None)
    assert ray == ["  error = RayDivergenceError: chord directions not Cauchy"]
    assert "ray.ok = 0.0  in [1.0, 1.0]  FAIL" in text
    # no diagnostics, so the declared bound's check never ran
    assert "ray.final_angle = nan  in [0.0, 0.001]  FAIL" in text
    assert status == 1


@pytest.mark.parametrize("case", ["u1_weight1", "cointegrate", "torus_12"])
def test_trajectory_csv_fills_the_s_column(tmp_path, case):
    # affine and cointegrated flows carry s = int |v|^2 dt; the projective
    # flow runs in s, so its column repeats t
    if case == "cointegrate":
        cfg = tmp_path / "c.cfg"
        cfg.write_text("group.kind = torus\ngroup.weights = 1; 2\n"
                       "initial_vector = 0.6:0.2, 0.7:-0.1\nflow.mode = cointegrate\n"
                       "flow.t_max = 100\n")
        argv, out = ["--config", str(cfg), "--out-dir", str(tmp_path / "c")], tmp_path / "c"
    else:
        argv, out = ["--builtin", case, "--out-dir", str(tmp_path)], tmp_path / case
    assert main(argv + ["--quiet"]) == 0
    with open(out / "trajectory.csv") as fh:
        assert fh.readline().split(",")[:2] == ["t", "s"]
        t, s = np.loadtxt(fh, delimiter=",", usecols=(0, 1), unpack=True)
    if case == "torus_12":
        assert np.array_equal(s, t)
    else:
        assert np.isfinite(s).all() and s[0] == 0.0 and s[-1] > 0.0
        assert np.all(np.diff(s) >= 0)


def test_declared_bound_without_its_check_fails(tmp_path):
    # mgs_u1 runs only normal_form, so a rates bound can never be checked
    exp = replace(get_builtin("mgs_u1"),
                  checks=(("rates.alpha_hat", 0.73, 0.77),))
    status, path = run_experiment(exp, tmp_path / "m", quiet=True)
    text = Path(path).read_text()
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

# the shape of the benchmark's projective config: the rates read the primary
PROJECTIVE_RATES_DEGENERATION = """\
group.kind = torus
group.weights = 1; 2
initial_vector = 0.8:0.1, 0.5:-0.3
flow.mode = projective
flow.t_max = 200
analyses = rates, degeneration, oracle
"""

CONFIGS = {"affine_rates_ray": AFFINE_RATES_RAY,
           "projective_rates_degeneration": PROJECTIVE_RATES_DEGENERATION}


@pytest.mark.parametrize("case, integrations", [
    ("u1_weight1", 1), ("affine_rates_ray", 1), ("torus_12", 1),
    ("torus_c3", 1), ("su2_symd", 1), ("mgs_u1", 1), ("mgs_su2", 1),
    ("projective_rates_degeneration", 1),
])
def test_each_flow_runs_once_per_run(tmp_path, monkeypatch, case, integrations):
    calls = []
    for name in ("integrate_kempf_ness", "integrate_projective",
                 "cointegrate_group"):
        def counted(*args, _fn=getattr(runner, name), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(runner, name, counted)
    exp = parse_config(CONFIGS[case])[0] if case in CONFIGS else get_builtin(case)
    status, _ = run_experiment(exp, tmp_path / case, quiet=True)
    assert status == 0
    assert len(calls) == integrations, calls


@pytest.mark.parametrize("case", ["torus_c3", "su2_symd"])
def test_torus_oracle_is_solved_once_per_run(tmp_path, monkeypatch, case):
    # degeneration and ray both compare against the oracle
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return torus_oracle(*args, **kwargs)

    monkeypatch.setattr(runner, "torus_oracle", counted)
    status, _ = run_experiment(get_builtin(case), tmp_path / case, quiet=True)
    assert status == 0
    assert len(calls) == 1
