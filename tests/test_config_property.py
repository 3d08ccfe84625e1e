"""Property test: any config text built from the real keys either parses to
a runnable experiment or raises ConfigError, never another exception."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from momentflow.cli import ConfigError, parse_config

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
