"""momentflow benchmark: one workload, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flows --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it stamp the environment and break the run down by case. Workloads, metric
definitions and known exclusions are described in perfbench/NOTES.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload, seed):
    """Median fresh-interpreter set-up time over SETUP_REPS interpreters."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), SRC,
           workload, str(seed)]
    walls, scaled = [], []
    for _ in range(SETUP_REPS):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S)
        wall, ref = map(float, out.stdout.split()[-2:])
        walls.append(wall)
        scaled.append(wall * speed.REFERENCE_S / ref)
    print(f"# setup: median {statistics.median(walls):.4f}s wall over {SETUP_REPS} "
          f"interpreters, {statistics.median(scaled):.4f}s at reference speed")
    return statistics.median(scaled)


def tail(times):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; the maximum when that percentile would fall below the median."""
    xs = sorted(times)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Loop:
    """Closed-loop task runner that records times and checks every output."""

    def __init__(self, tasks, tracer=None):
        self.tasks = tasks
        self.tracer = tracer
        self.attempted = 0
        self.failures = []   # tasks whose output failed a check
        self.problems = []   # failed self-checks of the benchmark itself
        self.task_id = 0

    def run_task(self, task, traced=False):
        """Run one task; returns (wall seconds, seconds at reference speed)
        when its output was verified, else None."""
        task.reset()
        self.attempted += 1
        self.task_id += 1
        if self.tracer is not None:
            self.tracer.task = self.task_id if traced else -1
        try:
            # a trace run keeps speed samples out of its spans: wall time only
            clock = speed.timed if self.tracer is None else speed.wall
            elapsed, reason = clock(task.run), None
        except Exception as err:  # any failure of the program counts, the run goes on
            elapsed, reason = None, f"{type(err).__name__}: {err}"
        if traced:
            self.tracer.count("runner.bytes_written", task.bytes_written())
            self.tracer.task = -1
        if reason is None:
            try:
                reason = task.check()
            except Exception as err:  # a malformed output is a failed check
                reason = f"check raised {type(err).__name__}: {err}"
        if reason is not None:
            self.failures.append(f"{task.case}: {reason}")
            return None
        return elapsed

    def one_pass(self, traced=False):
        """(task ids, [(case, run_task result)]) of one pass over the tasks."""
        first = self.task_id + 1
        if traced:
            self.tracer.install()
        try:
            times = [(t.case, self.run_task(t, traced)) for t in self.tasks]
        finally:
            if traced:
                self.tracer.uninstall()
        return range(first, self.task_id + 1), times


def busy(times):
    """Summed wall seconds of the verified tasks of a pass."""
    return sum(r[0] for _, r in times if r is not None)


def task_metrics(times):
    """tasks_per_s, task_p50_s and task_tail_s of verified task times."""
    n = len(times)
    metrics = {"tasks_per_s": n / sum(times) if n else 0.0}
    if n:
        metrics["task_p50_s"] = statistics.median(times)
        metrics["task_tail_s"], pct = tail(times)
        metrics["tail_percentile"] = pct
    return metrics


def untraced_run(loop, seconds):
    samples, cases = [], {}
    start, pass_walls = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        _, times = loop.one_pass()
        pass_walls.append(time.perf_counter() - t0)
        for case, r in times:
            cases.setdefault(case, []).append(r)
        samples.extend(r for _, r in times if r is not None)
        if time.perf_counter() - start + 0.5 * statistics.median(pass_walls) >= seconds:
            break
    metrics = task_metrics([r[1] for r in samples])
    wall = task_metrics([r[0] for r in samples])
    if samples:
        for label, m in (("at reference speed", metrics), ("wall", wall)):
            print(f"# tasks {label}: n={len(samples)} over {len(pass_walls)} passes, "
                  f"{m['tasks_per_s']:.4f}/s, p50 {m['task_p50_s']:.4f}s, "
                  f"tail p{m['tail_percentile']:.1f} {m['task_tail_s']:.4f}s")
    for case, rs in cases.items():
        good = [r for r in rs if r is not None]
        med = (f"{statistics.median(r[1] for r in good):.4f}s at reference speed, "
               f"{statistics.median(r[0] for r in good):.4f}s wall" if good else "-")
        print(f"# case {case}: n={len(good)} median {med}")
    return metrics


def traced_run(loop, tracer, seconds):
    import tracing
    untraced, traced, counters = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(busy(loop.one_pass()[1]))
        ids, times = loop.one_pass(traced=True)
        traced.append((ids, busy(times)))
        counters.append(tracing.summarize(tracer.spans, tracer.counts, ids)[1])
        if len(traced) >= 2 and time.perf_counter() - start >= seconds:
            break
    stable = all(c == counters[0] for c in counters[1:])
    if not stable:
        diff = sorted(k for k in set(counters[0]) | set(counters[1])
                      if counters[0].get(k) != counters[1].get(k))
        loop.problems.append(f"trace: counters differ between traced passes: {diff}")
    all_ids = [i for ids, _ in traced for i in ids]
    by_name, totals = tracing.summarize(tracer.spans, tracer.counts, all_ids)
    metrics = tracing.layer_metrics(by_name, totals, len(traced), len(loop.tasks))
    metrics.update(tracing.loc_metrics(SRC))
    metrics["trace.overhead_s"] = (statistics.median(t for _, t in traced)
                                   - statistics.median(untraced))
    metrics["trace.spans"] = sum(e[0] for e in by_name.values()) / len(traced)
    print(f"# trace: {len(traced)} traced and {len(untraced)} untraced passes, "
          f"counters identical across traced passes: {stable}")
    print(f"# trace: overhead {metrics['trace.overhead_s']:.4f}s wall per pass "
          f"(untraced pass {statistics.median(untraced):.4f}s)")
    first = list(traced[0][0])
    for task, tid in zip(loop.tasks, first):
        _, c = tracing.summarize(tracer.spans, tracer.counts, [tid])
        integrations = sum(c.get(f"{n}.calls", 0) for n in tracing.INTEGRATIONS)
        print(f"# case {task.case}: integrations={integrations} "
              f"accepted_steps={c.get('flow.accepted_steps', 0)} "
              f"coords_of.calls={c.get('algebra.coords_of.calls', 0)} "
              f"_dexp_left.calls={c.get('normal_form._dexp_left.calls', 0)} "
              f"bytes_written={c.get('runner.bytes_written', 0)}")
    return metrics


def stamp(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "momentflow", "__init__.py")):
        print(f"perfbench: no momentflow sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, SRC)
    import momentflow
    if not os.path.abspath(momentflow.__file__).startswith(SRC + os.sep):
        print(f"perfbench: momentflow imported from {momentflow.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import workloads

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(args.workload, args.seed)
    inputs = workloads.make_inputs(args.workload, args.seed)
    seed_ok = workloads.inputs_differ(
        inputs, workloads.make_inputs(args.workload, args.seed + 1))
    tasks = workloads.prepare(args.workload, inputs,
                              os.path.join(OUT, args.workload))
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    loop = Loop(tasks, tracer)
    if not seed_ok:
        loop.problems.append("inputs: seed and seed + 1 generate the same inputs")
    print("# stamp " + json.dumps(stamp(args), sort_keys=True))

    loop.one_pass()  # warm-up: lazy imports and first-call set-up, untimed
    if args.trace:
        metrics.update(traced_run(loop, tracer, args.seconds))
        tracer.write(os.path.join(OUT, args.workload, "spans.csv"))
    else:
        metrics.update(untraced_run(loop, args.seconds))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:  # no task was verified
        loop.problems.append(f"metrics not computed: {missing}")
    failed = len(loop.failures)
    for reason in loop.failures + loop.problems:
        print(f"# FAIL {reason}")
    print(f"# failed_frac = {failed}/{loop.attempted}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in declared if m["name"] in metrics}
    summary = {"stamp": stamp(args), "metrics": metrics,
               "failures": loop.failures + loop.problems}
    os.makedirs(os.path.join(OUT, args.workload), exist_ok=True)
    with open(os.path.join(OUT, args.workload,
                           f"summary_trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    correct = failed == 0 and not loop.problems
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
