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

Exit status: 0 all enabled checks pass, 1 a numerical check failed,
2 invalid configuration (the message names the offending line).
"""

import argparse
import json
import os
import sys

import numpy as np

from .algebra import (direct_sum_presentation, matrix_presentation,
                      su2_sym_presentation, torus_presentation,
                      validate_presentation)
from .builtins import BUILTIN_NAMES, BuiltinExperiment, get_builtin
from .flow import FlowOptions
from .runner import run_experiment

ANALYSES = ("rates", "ray", "degeneration", "oracle", "normal_form")


class ConfigError(Exception):
    def __init__(self, message, line_no=None):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


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


def _parse_float(cfg, key, default):
    value, no = _pop(cfg, key, default=None)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", no)


def _parse_weights(value, no):
    try:
        rows = [r for r in value.split(";") if r.strip()]
        return [[float(x) for x in row.split(",")] for row in rows]
    except ValueError:
        raise ConfigError(f"group.weights must be 'a,b; c,d; ...', got {value!r}", no)


def _parse_vector(value, no):
    try:
        out = []
        for pair in value.split(","):
            re_s, im_s = pair.split(":")
            out.append(complex(float(re_s), float(im_s)))
        return np.array(out)
    except ValueError:
        raise ConfigError(f"initial_vector entries must be 're:im', got {value!r}", no)


def _load_basis_file(path, no):
    if not os.path.exists(path):
        raise ConfigError(f"basis file {path!r} does not exist", no)
    with open(path) as fh:
        data = json.load(fh)
    basis = np.array([[[complex(c[0], c[1]) for c in row] for row in mat]
                      for mat in data["basis"]])
    metric = np.array(data["metric"], dtype=float) if "metric" in data else None
    return matrix_presentation(basis, metric=metric)


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
    weights = None
    try:
        if kind == "torus":
            weights = _parse_weights(value, no)
            presentation = torus_presentation(weights)
        elif kind == "su2_sym":
            presentation = su2_sym_presentation(int(value))
        elif kind == "su2_sym_sum":
            presentation = direct_sum_presentation(
                [su2_sym_presentation(int(d)) for d in value.split(",")])
        else:
            presentation = _load_basis_file(value, no)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        # StructuralError and json.JSONDecodeError are ValueErrors; the
        # others come from a basis file whose JSON has the wrong layout
        raise ConfigError(f"invalid {keys[kind]}: {err}", no)

    report = validate_presentation(presentation)
    if not report.ok:
        raise ConfigError(f"group presentation fails validation: {report}")

    value, no = _pop(cfg, "initial_vector", required=True)
    v0 = _parse_vector(value, no)
    if len(v0) != presentation.dim_v:
        raise ConfigError(
            f"initial_vector has {len(v0)} entries, the group acts on "
            f"C^{presentation.dim_v}", no)

    mode, no = _pop(cfg, "flow.mode", default="affine")
    if mode not in ("affine", "projective", "cointegrate"):
        raise ConfigError(f"flow.mode must be affine | projective | cointegrate, "
                          f"got {mode!r}", no)
    t_max = _parse_float(cfg, "flow.t_max", 1e6 if mode == "projective" else 1e4)
    if t_max <= 0:
        raise ConfigError("flow.t_max must be positive")
    eps_grad = _parse_float(cfg, "flow.eps_grad", 1e-10)
    if eps_grad <= 0:
        raise ConfigError("flow.eps_grad must be positive")
    initial_step = _parse_float(cfg, "flow.initial_step", 1e-3)
    opts = FlowOptions(t_max=t_max, eps_grad=eps_grad, initial_step=initial_step)

    value, no = _pop(cfg, "analyses", default="")
    analyses = tuple(a.strip() for a in value.split(",") if a.strip())
    for a in analyses:
        if a not in ANALYSES:
            raise ConfigError(f"unknown analysis {a!r}; known: {', '.join(ANALYSES)}", no)
    if "oracle" in analyses and weights is None:
        raise ConfigError("the oracle analysis needs a torus weight system", no)

    out_dir, _ = _pop(cfg, "output_dir", default=None)
    value, no = _pop(cfg, "seed", default="0")
    try:
        seed = int(value)
        if seed < 0:
            raise ValueError
    except ValueError:
        raise ConfigError(f"seed must be a nonnegative integer, got {value!r}", no)

    if cfg:
        key = sorted(cfg)[0]
        raise ConfigError(f"unknown key {key!r}", cfg[key][1])

    exp = BuiltinExperiment(name="config", presentation=presentation, v0=v0,
                            flow_opts=opts, mode=mode, analyses=analyses,
                            weights=weights)
    return exp, out_dir, seed


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="momentflow",
        description="Moment-map flow experiments: integrate, analyze, report.")
    parser.add_argument("--config", metavar="PATH", help="experiment config file")
    parser.add_argument("--builtin", metavar="NAME",
                        help="run a named builtin experiment")
    parser.add_argument("--list-builtins", action="store_true",
                        help="print the builtin experiment names and exit")
    parser.add_argument("--out-dir", metavar="PATH",
                        help="output directory (fallback: config value, then "
                             "MOMENTFLOW_OUT, then ./momentflow_out)")
    parser.add_argument("--tol-scale", type=float, default=1.0, metavar="FLOAT",
                        help="uniform tolerance relaxation for exploratory runs")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment seed")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the report echo on stdout")
    args = parser.parse_args(argv)

    if args.list_builtins:
        for name in BUILTIN_NAMES:
            print(name)
        return 0

    if bool(args.config) == bool(args.builtin):
        parser.error("exactly one of --config or --builtin is required")

    try:
        if args.builtin:
            exp = get_builtin(args.builtin)
            cfg_out, seed = None, 0
        else:
            with open(args.config) as fh:
                text = fh.read()
            exp, cfg_out, seed = parse_config(text)
    except (ConfigError, KeyError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    if args.seed is not None:
        seed = args.seed
    out_dir = (args.out_dir or cfg_out or os.environ.get("MOMENTFLOW_OUT")
               or "momentflow_out")
    out_dir = os.path.join(out_dir, exp.name) if args.builtin else out_dir

    try:
        status, _ = run_experiment(exp, out_dir, seed=seed,
                                   tol_scale=args.tol_scale, quiet=args.quiet)
    except Exception as err:  # numerical failure: name the failing stage
        print(f"numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
