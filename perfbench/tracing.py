"""Spans around calls into momentflow, recorded from outside the package.

``Tracer.install`` rebinds the public functions of each layer module (its
``__all__``, or the names in ``PUBLIC`` for modules without one), a few named
private kernels and methods, in every momentflow module that holds a
reference to them; ``uninstall`` puts the originals back. Each call records a
span (name, start, end, parent span, task id) in memory. The helper modules
``linalg``, ``rational``, ``builtins`` and ``errors`` are not wrapped: their
time counts toward the layer that calls them.
"""

import functools
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("algebra", "representation", "flow", "symmetric_space",
          "degeneration", "normal_form", "runner", "cli")

# Modules without __all__: their public entry points.
PUBLIC = {"runner": ("run_experiment",), "cli": ("main", "parse_config")}

# Private kernels worth a span of their own.
PRIVATE = {"flow": ("_rkf45_step",), "normal_form": ("_dexp_left", "_ad_matrix")}

# (module, class, method) pairs wrapped on the class.
METHODS = (("algebra", "GroupPresentation", "coords_of"),
           ("algebra", "GroupPresentation", "sharp"),
           ("symmetric_space", "SymmetricSpacePoint", "from_group"),
           ("flow", "FlowTrajectory", "to_csv"))

INTEGRATIONS = ("flow.integrate_kempf_ness", "flow.integrate_projective",
                "flow.cointegrate_group")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, task id]
        self.counts = {}     # (task id, counter name) -> value
        self.task = -1
        self._stack = []
        self._undo = []

    def count(self, name, value):
        key = (self.task, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name, fn, after=None):
        """``fn`` wrapped so each call records a span; ``after(result, args,
        kwargs)`` may add counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task < 0:    # outside a traced task, e.g. in a check
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def install(self):
        """Wrap every traced name; a name missing from the package is skipped
        (its metrics read 0) so that a refactored version still runs."""
        import momentflow  # noqa: F401  (loads the layer modules)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "momentflow" or n.startswith("momentflow.")]
        hooks = {
            "flow.integrate_kempf_ness": self._accepted,
            "flow.integrate_projective": self._accepted,
            "flow.cointegrate_group": self._accepted,
            "degeneration.torus_oracle": self._faces,
        }
        for layer in LAYERS:
            mod = sys.modules.get("momentflow." + layer)
            if mod is None:
                continue
            names = list(getattr(mod, "__all__", None) or PUBLIC.get(layer, ()))
            for n in names + list(PRIVATE.get(layer, ())):
                orig = getattr(mod, n, None)
                if inspect.isfunction(orig) and orig.__module__ == mod.__name__:
                    name = f"{layer}.{n}"
                    self._rebind(modules, orig, self.span(name, orig, hooks.get(name)))
        lift = getattr(sys.modules.get("momentflow.flow"), "_magnus_lift", None)
        if lift is not None:
            @functools.wraps(lift)
            def traced_lift(*args, **kwargs):
                return self.span("flow.magnus_update", lift(*args, **kwargs))

            self._rebind(modules, lift, traced_lift)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get("momentflow." + layer), cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                continue
            name = f"{layer}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(name, raw.__func__))
            else:
                wrapped = self.span(name, raw)
            setattr(cls, meth, wrapped)
            self._undo.append((cls, meth, raw))

    def _rebind(self, modules, orig, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _accepted(self, traj, args, kwargs):
        self.count("flow.accepted_steps", len(traj) - 1)

    def _faces(self, result, args, kwargs):
        weights = np.atleast_2d(np.asarray(
            getattr(args[0], "weights", args[0]), dtype=float))
        support = kwargs.get("support", args[1] if len(args) > 1 else None)
        size = weights.shape[0] if support is None else len(set(support))
        self.count("degeneration.torus_oracle.faces", 2**size - 1)

    def write(self, path):
        """Spans as CSV: index, name, start, end, parent, task."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,task\n")
            for i, (name, t0, t1, parent, task) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{task}\n")


def summarize(spans, counts, tasks):
    """Per-name and per-layer totals over the spans of the given task ids.

    Returns ``(by_name, counters)``: ``by_name[name] = [calls, total_s,
    self_s]``; ``counters`` holds the ``Tracer.count`` values and the calls
    of every span name, summed over ``tasks``.
    """
    tasks = set(tasks)
    picked = [i for i, s in enumerate(spans) if s[4] in tasks]
    child = {}
    for i in picked:
        parent = spans[i][3]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + spans[i][2] - spans[i][1]
    by_name = {}
    for i in picked:
        name, t0, t1 = spans[i][0], spans[i][1], spans[i][2]
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += t1 - t0
        entry[2] += t1 - t0 - child.get(i, 0.0)
    counters = {f"{name}.calls": entry[0] for name, entry in by_name.items()}
    for (task, name), value in counts.items():
        if task in tasks:
            counters[name] = counters.get(name, 0) + value
    return by_name, counters


def layer_metrics(by_name, counters, passes, tasks_per_pass):
    """The per-layer metrics from totals over ``passes`` traced passes."""
    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    def mean(name, scale):
        c, total, _ = by_name.get(name, (0, 0.0, 0.0))
        return scale * total / c if c else 0.0

    def layer_self(layer):
        return sum(e[2] for n, e in by_name.items()
                   if n.startswith(layer + ".")) / passes

    rkf = calls("flow._rkf45_step")
    accepted = counters.get("flow.accepted_steps", 0)
    cli_main = by_name.get("cli.main", (0, 0.0, 0.0))
    m = {
        "representation.energy_and_gradient.calls":
            calls("representation.energy_and_gradient") / passes,
        "representation.energy_and_gradient.us_per_call":
            mean("representation.energy_and_gradient", 1e6),
        "representation.flow_generator.calls":
            calls("representation.flow_generator") / passes,
        "representation.flow_generator.us_per_call":
            mean("representation.flow_generator", 1e6),
        "flow.integrations_per_task":
            sum(calls(n) for n in INTEGRATIONS) / (passes * tasks_per_pass),
        "flow.rkf45_step.calls": rkf / passes,
        "flow.accepted_steps": accepted / passes,
        "flow.step_accept_ratio": accepted / rkf if rkf else 0.0,
        "flow.magnus_update.calls": calls("flow.magnus_update") / passes,
        "flow.magnus_update.us_per_call": mean("flow.magnus_update", 1e6),
        "flow.to_csv.ms": mean("flow.to_csv", 1e3),
        "algebra.coords_of.calls": calls("algebra.coords_of") / passes,
        "algebra.coords_of.us_per_call": mean("algebra.coords_of", 1e6),
        "algebra.sharp.calls": calls("algebra.sharp") / passes,
        "algebra.validate_presentation.ms": mean("algebra.validate_presentation", 1e3),
        "normal_form.verify_moment_identity.s":
            mean("normal_form.verify_moment_identity", 1.0),
        "normal_form.verify_closedness.s": mean("normal_form.verify_closedness", 1.0),
        "normal_form._dexp_left.calls": calls("normal_form._dexp_left") / passes,
        "normal_form._dexp_left.us_per_call": mean("normal_form._dexp_left", 1e6),
        "normal_form._ad_matrix.calls": calls("normal_form._ad_matrix") / passes,
        "normal_form.build_model.ms": mean("normal_form.build_model", 1e3),
        "symmetric_space.extract_asymptotic_ray.ms":
            mean("symmetric_space.extract_asymptotic_ray", 1e3),
        "symmetric_space.from_group.calls": calls("symmetric_space.from_group") / passes,
        "degeneration.torus_oracle.ms": mean("degeneration.torus_oracle", 1e3),
        "degeneration.torus_oracle.faces":
            counters.get("degeneration.torus_oracle.faces", 0) / passes,
        "degeneration.limit_direction.ms": mean("degeneration.limit_direction", 1e3),
        "runner.bytes_written": counters.get("runner.bytes_written", 0) / passes,
        "cli.parse_config.ms": mean("cli.parse_config", 1e3),
        "cli.main.self_ms": 1e3 * cli_main[2] / cli_main[0] if cli_main[0] else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m


def loc_metrics(src_dir):
    """``wc -l`` of each layer module and of the whole package."""
    def lines(path):
        if not os.path.isfile(path):
            return 0
        with open(path, "rb") as fh:
            return fh.read().count(b"\n")

    pkg = os.path.join(src_dir, "momentflow")
    m = {f"{layer}.loc": lines(os.path.join(pkg, layer + ".py")) for layer in LAYERS}
    m["src.loc"] = sum(lines(os.path.join(pkg, f))
                       for f in os.listdir(pkg) if f.endswith(".py"))
    return m
