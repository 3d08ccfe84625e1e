"""The benchmark's workloads: seeded inputs, the tasks that run them, and the
checks that decide whether each task's output is correct.

A workload is built in two steps. ``make_inputs(name, seed)`` is pure: it
turns the seed into plain data (config text, start vectors, weights, seeds),
so two seeds can be compared and a fresh interpreter can time it.
``prepare(name, inputs, out_root)`` turns that data into ``Task`` objects.
A pass over a workload runs its task list once, in order.

Tasks call into momentflow through module attributes (``cli.main``,
``algebra.validate_presentation``...) so that the tracer's rebinding of those
attributes sees every call. The checks use functions bound at import time, so
checking a result never shows up in the trace.
"""

import os
import re
import shutil

import numpy as np

from momentflow import algebra, cli, degeneration, flow
from momentflow.representation import energy_and_gradient as _energy_and_gradient

WORKLOADS = ("flows", "normal_form", "wide")

# su2_symd, the slowest case, runs twice per pass so that the tail
# percentile (ten samples beyond it) falls inside its samples rather than on
# the boundary between it and torus_c3.
FLOW_BUILTINS = ("u1_weight1", "torus_12", "torus_c3", "su2_symd", "su2_symd")

# Each builtin's declared bounds (momentflow/builtins.py), copied so that a
# change to the program cannot loosen what the benchmark accepts.
BUILTIN_BOUNDS = {
    "u1_weight1": {
        "rates.decay_exponent": (1.95, 2.05),
        "rates.alpha_hat": (0.73, 0.77),
        "rates.v_plateau_ratio": (1.0, 1.05),
        "rates.grad4_over_f3_min": (1.0, float("inf")),
        "rates.s_logt_r2": (0.99, 1.0),
    },
    "torus_12": {
        "degeneration.oracle_angle": (0.0, 1e-3),
        "degeneration.off_face_mass": (0.0, 1e-4),
        "rates.s_logt_r2": (0.99, 1.0),
    },
    "torus_c3": {
        "degeneration.oracle_angle": (0.0, 1e-3),
        "ray.final_angle": (0.0, 1e-3),
        "ray.residual_last": (0.0, 1e-2),
        "ray.spectrum_vs_oracle": (0.0, 1e-3),
        "rates.s_logt_r2": (0.99, 1.0),
    },
    "su2_symd": {
        "ray.spectrum_vs_oracle": (0.0, 1e-2),
    },
    "mgs_u1": {
        "normal_form.moment_identity": (0.0, 1e-5),
        "normal_form.closedness": (0.0, 1e-4),
    },
    "mgs_su2": {
        "normal_form.moment_identity": (0.0, 1e-5),
        "normal_form.closedness": (0.0, 1e-4),
        "normal_form.negative_control": (1e-2, float("inf")),
    },
}

# wide: the torus weights lie in the half-plane w_1 >= 1, so the origin is
# never in their hull and the oracle always returns a direction.
WIDE_TORUS_WEIGHTS = 10
WIDE_T_MAX = 1e3
FD_STEP = 1e-5
FD_TOL = 1e-6
LIFT_TOL = 1e-6
ORACLE_SLACK = 1e-9

_VERDICT = re.compile(r"^\s*(\S+) = (\S+)  in \[(\S+), (\S+)\]  (PASS|FAIL)$")


def _unit_full_support(rng, n):
    """Unit vector whose magnitudes lie in [0.3, 1] before normalization and
    whose phases are uniform."""
    mags = rng.uniform(0.3, 1.0, n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    v = mags * np.exp(1j * phases)
    return v / np.linalg.norm(v)


def _unit_gaussian(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _vector_text(v):
    return ", ".join(f"{float(z.real)!r}:{float(z.imag)!r}" for z in v)


def make_inputs(name, seed):
    """Plain-data inputs of workload ``name``, a function of ``seed`` only."""
    rng = np.random.default_rng(seed)
    if name == "flows":
        u1 = _unit_full_support(rng, 1)
        t12 = _unit_full_support(rng, 2)
        configs = {
            "config_u1_weight1": (
                "group.kind = torus\n"
                "group.weights = 1\n"
                f"initial_vector = {_vector_text(u1)}\n"
                "flow.mode = affine\n"
                "flow.t_max = 1e4\n"
                "analyses = rates\n"),
            "config_torus_12": (
                "group.kind = torus\n"
                "group.weights = 1; 2\n"
                f"initial_vector = {_vector_text(t12)}\n"
                "flow.mode = projective\n"
                "flow.t_max = 200\n"
                "analyses = rates, degeneration, oracle\n"),
        }
        return {"builtins": FLOW_BUILTINS, "configs": configs}
    if name == "normal_form":
        # mgs_su2 runs at two seeds per pass, so it is two thirds of the
        # tasks and the median task is the case normal_form time goes to.
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
        return {"runs": [("mgs_u1", seeds[0]), ("mgs_su2", seeds[1]),
                         ("mgs_su2", seeds[2])]}
    if name == "wide":
        weights = np.column_stack([
            rng.integers(1, 4, size=WIDE_TORUS_WEIGHTS),
            rng.integers(-3, 4, size=WIDE_TORUS_WEIGHTS)])
        dims = {"u3": 3, "u4": 4, "sym6": 7, "sym2_sym4": 8,
                "torus10": WIDE_TORUS_WEIGHTS}
        starts = {case: _unit_gaussian(rng, n) for case, n in dims.items()}
        return {"weights": weights, "starts": starts}
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def inputs_differ(a, b):
    """True when two input sets differ in some generated value."""
    if isinstance(a, dict):
        return a.keys() != b.keys() or any(inputs_differ(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) != len(b) or any(inputs_differ(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape != b.shape or not np.array_equal(a, b)
    return a != b


def _files_size(root):
    total = 0
    for dirpath, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


class Task:
    """One unit of closed-loop work: ``reset`` and ``check`` are untimed."""

    case = ""
    out_dir = None

    def reset(self):
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        raise NotImplementedError

    def check(self):
        """None when the output is correct, else a one-line reason."""
        raise NotImplementedError

    def bytes_written(self):
        return _files_size(self.out_dir) if self.out_dir else 0


class CliTask(Task):
    """One ``momentflow`` command run in-process through ``cli.main``."""

    def __init__(self, case, argv, out_dir, report_dir, bounds):
        self.case = case
        self.argv = argv
        self.out_dir = out_dir
        self.report_dir = report_dir
        self.bounds = bounds
        self.status = None

    def run(self):
        self.status = cli.main(self.argv)

    def check(self):
        if self.status != 0:
            return f"exit status {self.status}"
        report = os.path.join(self.report_dir, "report.txt")
        trajectory = os.path.join(self.report_dir, "trajectory.csv")
        if not os.path.isfile(report):
            return "no report.txt"
        with open(trajectory) as fh:
            if sum(1 for _ in fh) < 2:
                return "trajectory.csv holds no samples"
        with open(report) as fh:
            lines = fh.read().splitlines()
        try:
            start = lines.index("[VERDICT]")
        except ValueError:
            return "report has no VERDICT section"
        verdict = [ln for ln in lines[start + 1:] if ln.strip()]
        if not verdict or verdict[-1].strip() != "overall = OK":
            return "report does not end with overall = OK"
        values = {}
        for line in verdict[:-1]:
            m = _VERDICT.match(line)
            if m is None:
                return f"unparsed verdict line {line.strip()!r}"
            name, value, lo, hi = m.group(1), *map(float, m.group(2, 3, 4))
            if not (np.isfinite(value) and lo <= value <= hi):
                return f"{name} = {value} outside its printed [{lo}, {hi}]"
            values[name] = value
        for name, (lo, hi) in self.bounds.items():
            if name not in values:
                return f"declared check {name} missing from the report"
            if not lo <= values[name] <= hi:
                return f"{name} = {values[name]} outside declared [{lo}, {hi}]"
        return None


class WideTask(Task):
    """Library calls on a fresh presentation: validate, lift, (oracle)."""

    def __init__(self, case, build, v0, weights=None):
        self.case = case
        self.build = build
        self.v0 = v0
        self.weights = weights
        self.result = None

    def run(self):
        p = self.build()
        diag = algebra.validate_presentation(p)
        traj = flow.cointegrate_group(p, self.v0, flow.FlowOptions(t_max=WIDE_T_MAX))
        oracle = None
        if self.weights is not None:
            oracle = degeneration.torus_oracle(self.weights,
                                               max_support=WIDE_TORUS_WEIGHTS)
        self.result = (p, diag, traj, oracle)

    def check(self):
        p, diag, traj, oracle = self.result
        if not diag.ok:
            return f"presentation fails validation: {diag}"
        v0 = self.v0
        _, grad = _energy_and_gradient(p, v0)
        fd = np.zeros_like(v0)
        for i in range(len(v0)):
            for unit in (1.0, 1j):
                e = np.zeros_like(v0)
                e[i] = unit
                fp = _energy_and_gradient(p, v0 + FD_STEP * e)[0]
                fm = _energy_and_gradient(p, v0 - FD_STEP * e)[0]
                fd[i] += (fp - fm) / (2 * FD_STEP) * unit
        fd_err = float(np.linalg.norm(fd - grad))
        if fd_err > FD_TOL * max(1.0, float(np.linalg.norm(grad))):
            return f"finite-difference gradient off by {fd_err:.2e}"
        if traj.terminated_reason not in ("t_max", "gradient_small"):
            return f"flow terminated by {traj.terminated_reason}"
        rise = np.diff(traj.f) - 1e-12 * np.maximum(1.0, traj.f[:-1])
        if len(rise) and rise.max() > 0:
            return f"f increases by {rise.max():.2e} between samples"
        lift = np.linalg.norm(traj.g @ v0 - traj.v, axis=1).max()
        if lift > LIFT_TOL * np.linalg.norm(v0):
            return f"|g v0 - v| reaches {lift:.2e}"
        if oracle is not None:
            if oracle.semistable:
                return "oracle calls a half-plane weight set semi-stable"
            beta = oracle.beta
            slack = (np.asarray(self.weights, float) @ beta - beta @ beta).min()
            if slack < -ORACLE_SLACK:
                return f"oracle optimality fails: min beta.w_j - |beta|^2 = {slack:.2e}"
        return None


def prepare(name, inputs, out_root):
    """Task list of one pass; writes the config files under ``out_root``."""
    tasks = []
    if name == "flows":
        for i, builtin in enumerate(inputs["builtins"]):
            out = os.path.join(out_root, f"{builtin}_{i}")
            tasks.append(CliTask(
                builtin, ["--builtin", builtin, "--out-dir", out, "--quiet"],
                out, os.path.join(out, builtin), BUILTIN_BOUNDS[builtin]))
        os.makedirs(out_root, exist_ok=True)
        for case, text in inputs["configs"].items():
            path = os.path.join(out_root, case + ".cfg")
            with open(path, "w") as fh:
                fh.write(text)
            out = os.path.join(out_root, case)
            tasks.append(CliTask(
                case, ["--config", path, "--out-dir", out, "--quiet"],
                out, out, {}))
    elif name == "normal_form":
        for i, (builtin, seed) in enumerate(inputs["runs"]):
            out = os.path.join(out_root, f"{builtin}_{i}")
            tasks.append(CliTask(
                builtin, ["--builtin", builtin, "--out-dir", out,
                          "--seed", str(seed), "--quiet"],
                out, os.path.join(out, builtin), BUILTIN_BOUNDS[builtin]))
    elif name == "wide":
        starts, weights = inputs["starts"], inputs["weights"]
        builds = {
            "u3": lambda: algebra.un_presentation(3),
            "u4": lambda: algebra.un_presentation(4),
            "sym6": lambda: algebra.su2_sym_presentation(6),
            "sym2_sym4": lambda: algebra.direct_sum_presentation(
                [algebra.su2_sym_presentation(2), algebra.su2_sym_presentation(4)]),
            "torus10": lambda: algebra.torus_presentation(weights),
        }
        for case, build in builds.items():
            tasks.append(WideTask(case, build, starts[case],
                                  weights if case == "torus10" else None))
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return tasks
