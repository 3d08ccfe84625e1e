"""Property tests: any config text built from the real keys either parses to
a runnable experiment or raises ConfigError, never another exception; and a
config file run through ``cli.main`` exits 0, 1 or 2, never with a traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momentflow.cli import ConfigError, main, parse_config

VALID = ["1", "2", "0.5", "-1", "1e-3", "200"]
# valid numbers, zero, negatives, non-finite values and junk
NUMBERS = st.sampled_from(VALID + ["0", "-0", "-3", "nan", "-nan", "inf",
                                   "-inf", "1e999", "abc", "", "1,", ":"])
# mostly valid, so that parsing often gets past the first entries
ENTRIES = st.sampled_from(VALID) | NUMBERS
# small degrees, and huge ones: su2_sym of degree d builds (d+1) x (d+1)
# matrices, so the parser must refuse those before building anything
DEGREES = (st.integers(-2, 4).map(str)
           | st.sampled_from([str(10**6), str(10**18)]) | NUMBERS)


@st.composite
def config_text(draw):
    kind = draw(st.sampled_from(["torus", "su2_sym", "su2_sym_sum",
                                 "basis_file", "cube"]))
    rows = st.lists(ENTRIES, min_size=1, max_size=2).map(", ".join)
    pairs = st.tuples(ENTRIES, ENTRIES).map(":".join)
    vector = st.lists(pairs, min_size=1, max_size=4).map(", ".join)
    group = {
        "group.weights": st.lists(rows, min_size=1, max_size=3).map("; ".join),
        "group.degree": DEGREES,
        "group.degrees": st.lists(DEGREES, min_size=1, max_size=2).map(", ".join),
        "group.basis_path": st.sampled_from(["missing.json", "", "nan"]),
    }
    optional = {
        "flow.mode": st.sampled_from(["affine", "projective", "cointegrate",
                                      "sideways"]),
        "flow.t_max": NUMBERS,
        "flow.eps_grad": NUMBERS,
        "flow.initial_step": NUMBERS,
        "analyses": st.lists(st.sampled_from(["rates", "ray", "degeneration",
                                              "oracle", "normal_form", "junk"]),
                             max_size=3).map(", ".join),
        "output_dir": st.sampled_from(["out", ""]),
        "seed": NUMBERS,
        "flow.timestep": NUMBERS,
    }
    # the group key of the drawn kind (or, for an unknown kind, any one)
    key = {"torus": "group.weights", "su2_sym": "group.degree",
           "su2_sym_sum": "group.degrees", "basis_file": "group.basis_path"
           }.get(kind) or draw(st.sampled_from(sorted(group)))
    lines = [f"group.kind = {kind}", f"{key} = {draw(group[key])}",
             f"initial_vector = {draw(vector)}"]
    for name in draw(st.lists(st.sampled_from(sorted(optional)), unique=True,
                              max_size=4)):
        lines.append(f"{name} = {draw(optional[name])}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(config_text())
def test_parse_config_raises_only_config_error(text):
    try:
        exp, _, seed = parse_config(text)
    except ConfigError:
        return
    opts = exp.flow_opts
    for x in (opts.t_max, opts.eps_grad, opts.initial_step):
        assert np.isfinite(x) and x > 0
    assert len(exp.v0) == exp.presentation.dim_v
    assert np.all(np.isfinite(exp.v0))
    assert exp.mode != "projective" or np.any(exp.v0)
    assert seed >= 0


# Largest flow horizon a fuzzed run may ask for, so that the runs stay short;
# the parser's handling of t_max itself is fuzzed above.
T_MAX_CAP = 1.0
SMALL = st.sampled_from(["0", "1", "-1", "0.5", "2", "1e-3"])


@st.composite
def runnable_config_text(draw):
    """Config text that mostly parses, so that the run and its analyses are
    fuzzed too: small groups, a vector of the right length, any analyses
    (the oracle still needs a torus, the projective flow a nonzero vector)."""
    kind = draw(st.sampled_from(["torus", "su2_sym", "su2_sym_sum"]))
    if kind == "torus":
        k = draw(st.integers(1, 2))
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                             min_size=1, max_size=4))
        group, dim = "; ".join(", ".join(map(str, r)) for r in rows), len(rows)
    elif kind == "su2_sym":
        degree = draw(st.integers(1, 3))
        group, dim = str(degree), degree + 1
    else:
        degrees = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
        group, dim = ", ".join(map(str, degrees)), sum(degrees) + len(degrees)
    key = {"torus": "group.weights", "su2_sym": "group.degree",
           "su2_sym_sum": "group.degrees"}[kind]
    pairs = draw(st.lists(st.tuples(SMALL, SMALL).map(":".join),
                          min_size=dim, max_size=dim))
    analyses = draw(st.lists(st.sampled_from(["rates", "ray", "degeneration",
                                              "oracle", "normal_form"]),
                             unique=True, max_size=3))
    return "\n".join([
        f"group.kind = {kind}", f"{key} = {group}",
        f"initial_vector = {', '.join(pairs)}",
        f"flow.mode = {draw(st.sampled_from(['affine', 'projective', 'cointegrate']))}",
        f"flow.t_max = {draw(st.sampled_from(['0.1', '1']))}",
        f"analyses = {', '.join(analyses)}",
        f"seed = {draw(st.integers(0, 9))}"]) + "\n"


def _capped(text):
    """The config with a finite flow.t_max above T_MAX_CAP lowered to it, and
    the cap appended when the key is absent (the defaults are 1e4 and 1e6)."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key, _, value = line.partition("=")
        if key.strip() == "flow.t_max":
            try:
                if T_MAX_CAP < float(value) < np.inf:
                    lines[i] = f"flow.t_max = {T_MAX_CAP}"
            except ValueError:   # junk stays, for the parser to refuse
                pass
            return "\n".join(lines) + "\n"
    return text + f"flow.t_max = {T_MAX_CAP}\n"


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=(config_text() | runnable_config_text()).map(_capped))
def test_config_file_through_main_exits_cleanly(text, tmp_path, monkeypatch):
    monkeypatch.delenv("MOMENTFLOW_OUT", raising=False)
    out = io.StringIO()
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_text(text)
        # a relative output_dir (or the default) lands inside tmp; the next
        # example starts from tmp_path, so the cwd never names a removed tmp
        monkeypatch.chdir(tmp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            status = main(["--config", str(cfg)])
        monkeypatch.chdir(tmp_path)
    assert status in (0, 1, 2), out.getvalue()
    assert "Traceback" not in out.getvalue()
