"""Command-line entry point and the flat key = value config format.

Config files are plain text with dotted keys, one assignment per line,
``#`` comments. Complex vectors are comma-separated ``re:im`` pairs.
Example::

    group.kind = torus
    group.weights = 1,0; 0,1; 1,1
    initial_vector = 0.577:0, 0.577:0, 0.577:0
    flow.mode = projective
    flow.t_max = 200
    flow.eps_grad = 1e-10
    flow.initial_step = 1e-3
    analyses = rates, degeneration, oracle, ray
    output_dir = out
    seed = 7

Exit status: 0 all enabled checks pass; 1 a numerical check failed, an
analysis raised or the flow failed; 2 invalid configuration (the message
names the offending line) or an output directory that cannot be written.
"""

import argparse
import json
import os
import sys

import numpy as np

from .algebra import (direct_sum_presentation, matrix_presentation,
                      su2_sym_presentation, torus_presentation,
                      validate_presentation)
from .builtins import BUILTIN_NAMES, get_builtin
from .degeneration import ORACLE_MAX_WEIGHTS
from .flow import MIN_STEP, PROJECTIVE_T_MAX, FlowOptions
from .runner import Experiment, run_experiment

ANALYSES = ("rates", "ray", "degeneration", "oracle", "normal_form")

# Largest total degree of su2_sym / su2_sym_sum: Sym^d builds (d+1) x (d+1)
# matrices, so a larger value is refused before anything is allocated.
MAX_SYM_DEGREE = 64


class ConfigError(Exception):
    def __init__(self, message, line_no=None):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


def _parse_assignments(text):
    """key = value lines with line numbers; later keys override earlier."""
    out = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", no)
        key, value = line.split("=", 1)
        out[key.strip()] = (value.strip(), no)
    return out


def _pop(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg.pop(key)
    if required:
        raise ConfigError(f"missing required key {key!r}")
    return (default, None)


def _finite(strings):
    """The entries as floats, or None unless each one is a finite number."""
    try:
        xs = [float(x) for x in strings]
    except ValueError:
        return None
    return xs if np.all(np.isfinite(xs)) else None


def _parse_positive(cfg, key, default, minimum=0.0):
    value, no = _pop(cfg, key, default=None)
    if value is None:
        return default
    x = _finite([value])
    if x is None or x[0] <= 0 or x[0] < minimum:
        least = f" >= {minimum!r}" if minimum else ""
        raise ConfigError(
            f"{key} must be a positive finite number{least}, got {value!r}", no)
    return x[0]


def _parse_weights(value, no):
    rows = [_finite(row.split(",")) for row in value.split(";") if row.strip()]
    if None in rows:
        raise ConfigError(f"group.weights must be finite 'a,b; c,d; ...', got {value!r}", no)
    return rows


def _parse_vector(value, no):
    pairs = [_finite(pair.split(":")) for pair in value.split(",")]
    if any(pair is None or len(pair) != 2 for pair in pairs):
        raise ConfigError(f"initial_vector entries must be finite 're:im', got {value!r}", no)
    return np.array([complex(re, im) for re, im in pairs])


def _parse_degrees(entries, key, no):
    """The symmetric-power degrees, each >= 1 and summing to at most
    MAX_SYM_DEGREE."""
    shown = ",".join(entries)
    try:
        degrees = [int(d) for d in entries]
    except ValueError:
        raise ConfigError(f"invalid {key}: expected integers, got {shown!r}", no)
    if min(degrees) < 1 or sum(degrees) > MAX_SYM_DEGREE:
        raise ConfigError(f"invalid {key}: degrees must be >= 1 and sum to at most "
                          f"{MAX_SYM_DEGREE}, got {shown!r}", no)
    return degrees


def _load_basis_file(path, no):
    if not os.path.exists(path):
        raise ConfigError(f"basis file {path!r} does not exist", no)
    with open(path) as fh:
        data = json.load(fh)
    basis = np.array([[[complex(c[0], c[1]) for c in row] for row in mat]
                      for mat in data["basis"]])
    metric = np.array(data["metric"], dtype=float) if "metric" in data else None
    return matrix_presentation(basis, metric=metric)


def _positive_finite(text):
    x = _finite([text])
    if x is None or x[0] <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return x[0]


def _nonnegative_int(text):
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return n


def parse_config(text):
    """Build an experiment from config text. Raises ConfigError on problems."""
    cfg = _parse_assignments(text)

    kind, kind_no = _pop(cfg, "group.kind", required=True)
    keys = {"torus": "group.weights", "su2_sym": "group.degree",
            "su2_sym_sum": "group.degrees", "basis_file": "group.basis_path"}
    if kind not in keys:
        raise ConfigError(
            f"group.kind must be torus | su2_sym | su2_sym_sum | basis_file, "
            f"got {kind!r}", kind_no)
    value, no = _pop(cfg, keys[kind], required=True)
    try:
        if kind == "torus":
            presentation = torus_presentation(_parse_weights(value, no))
        elif kind == "su2_sym":
            degree, = _parse_degrees([value], keys[kind], no)
            presentation = su2_sym_presentation(degree)
        elif kind == "su2_sym_sum":
            degrees = _parse_degrees(value.split(","), keys[kind], no)
            presentation = direct_sum_presentation(
                [su2_sym_presentation(d) for d in degrees])
        else:
            presentation = _load_basis_file(value, no)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as err:
        # StructuralError and json.JSONDecodeError are ValueErrors; the
        # others come from a basis file whose JSON has the wrong layout or
        # that cannot be read
        raise ConfigError(f"invalid {keys[kind]}: {err}", no)

    report = validate_presentation(presentation)
    if not report.ok:
        raise ConfigError(f"group presentation fails validation: {report}", no)

    value, v0_no = _pop(cfg, "initial_vector", required=True)
    v0 = _parse_vector(value, v0_no)
    if len(v0) != presentation.dim_v:
        raise ConfigError(
            f"initial_vector has {len(v0)} entries, the group acts on "
            f"C^{presentation.dim_v}", v0_no)

    mode, no = _pop(cfg, "flow.mode", default="affine")
    if mode not in ("affine", "projective", "cointegrate"):
        raise ConfigError(f"flow.mode must be affine | projective | cointegrate, "
                          f"got {mode!r}", no)
    if mode == "projective" and not np.any(v0):
        raise ConfigError("the projective flow needs a nonzero initial_vector", v0_no)
    t_max = _parse_positive(cfg, "flow.t_max", PROJECTIVE_T_MAX if mode == "projective"
                            else FlowOptions.t_max)
    eps_grad = _parse_positive(cfg, "flow.eps_grad", FlowOptions.eps_grad)
    # a first step below the integrator's smallest step would underflow at once
    initial_step = _parse_positive(cfg, "flow.initial_step", FlowOptions.initial_step,
                                   minimum=MIN_STEP)
    opts = FlowOptions(t_max=t_max, eps_grad=eps_grad, initial_step=initial_step)

    value, no = _pop(cfg, "analyses", default="")
    analyses = tuple(a.strip() for a in value.split(",") if a.strip())
    for a in analyses:
        if a not in ANALYSES:
            raise ConfigError(f"unknown analysis {a!r}; known: {', '.join(ANALYSES)}", no)
    if "oracle" in analyses and presentation.kind != "torus":
        raise ConfigError("the oracle analysis needs a torus weight system", no)
    support = np.count_nonzero(v0) if "oracle" in analyses else 0
    if support > ORACLE_MAX_WEIGHTS:
        raise ConfigError(f"the oracle supports at most {ORACLE_MAX_WEIGHTS} "
                          f"weights (got {support})", no)

    out_dir, _ = _pop(cfg, "output_dir", default=None)
    value, no = _pop(cfg, "seed", default="0")
    try:
        seed = _nonnegative_int(value)
    except argparse.ArgumentTypeError:
        raise ConfigError(f"seed must be a nonnegative integer, got {value!r}", no)

    if cfg:
        key = sorted(cfg)[0]
        raise ConfigError(f"unknown key {key!r}", cfg[key][1])

    exp = Experiment(name="config", presentation=presentation, v0=v0,
                     flow_opts=opts, mode=mode, analyses=analyses)
    return exp, out_dir, seed


_PARSER = argparse.ArgumentParser(
    prog="momentflow",
    description="Moment-map flow experiments: integrate, analyze, report.")
_PARSER.add_argument("--config", metavar="PATH", help="experiment config file")
_PARSER.add_argument("--builtin", metavar="NAME", help="run a named builtin experiment")
_PARSER.add_argument("--list-builtins", action="store_true",
                     help="print the builtin experiment names and exit")
_PARSER.add_argument("--out-dir", metavar="PATH",
                     help="output directory (fallback: config value, then "
                          "MOMENTFLOW_OUT, then ./momentflow_out)")
_PARSER.add_argument("--tol-scale", type=_positive_finite, default=1.0, metavar="FLOAT",
                     help="uniform tolerance relaxation for exploratory runs")
_PARSER.add_argument("--seed", type=_nonnegative_int, default=None,
                     help="override the experiment seed")
_PARSER.add_argument("--quiet", action="store_true",
                     help="suppress the report echo on stdout")


def main(argv=None):
    args = _PARSER.parse_args(argv)

    if args.list_builtins:
        for name in BUILTIN_NAMES:
            print(name)
        return 0

    if bool(args.config) == bool(args.builtin):
        _PARSER.error("exactly one of --config or --builtin is required")

    try:
        if args.builtin:
            exp = get_builtin(args.builtin)
            cfg_out, seed = None, 0
        else:
            with open(args.config, "rb") as fh:
                data = fh.read()
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as err:
                raise ConfigError("not valid UTF-8", err.object[:err.start].count(b"\n") + 1)
            exp, cfg_out, seed = parse_config(text)
    except (ConfigError, KeyError, OSError) as err:    # a KeyError's str() quotes it
        print(f"config error: {err.args[0] if isinstance(err, KeyError) else err}",
              file=sys.stderr)
        return 2

    if args.seed is not None:
        seed = args.seed
    out_dir = (args.out_dir or cfg_out or os.environ.get("MOMENTFLOW_OUT")
               or "momentflow_out")
    out_dir = os.path.join(out_dir, exp.name) if args.builtin else out_dir

    try:
        status, _ = run_experiment(exp, out_dir, seed=seed,
                                   tol_scale=args.tol_scale, quiet=args.quiet)
    except OSError as err:    # the output directory or a file in it cannot be written
        print(f"output error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # the flow itself failed; a failing analysis
        # is a FAIL check in the report instead
        print(f"numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
