"""Benchmark of circlesys: end-to-end verification runs in fresh processes.

    python3 perfbench/run.py --workload grid3|scan2|smooth8 --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from
`src/`.  The seed generates the workload's input files (see
workloads.py) in a scratch directory under `.perfbench_tmp/`.  One
untimed warm-up child fills the page cache and byte-code cache; then
children run one at a time (closed loop, one client) for S seconds, at
least three of them.  Every child's output is validated; a run of
`grid3` also makes the over-cap probe.  With --trace 0 the last stdout
line holds the end-to-end metrics (medians over the children); with
--trace 1, untraced and traced children alternate and it holds the
per-layer metrics of the traced children plus the tracing overhead.
The lines before it print every metric with its unit, the failure
fraction and the environment.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from tracer import CHECK_NAMES
from workloads import (CAP_MESSAGE, CAP_PROBE_ATOMS, CAP_PROBE_WORKLOAD,
                       WORKLOADS)

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 170           # the whole run, warm-up and probe included
MIN_CHILDREN = 3

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _layer(span, *keys, better="lower"):
    return [(span + "." + key, "s" if key in ("s", "total_s") else "count",
             better, span, key) for key in keys]


# (metric, unit, better, span name in the trace summary, key); the
# spans are defined in tracer.SPANS.  Derived metrics have span None.
PER_LAYER = (
    _layer("ratarith.dyn_order", "calls", "s", "table_entries")
    + _layer("words.parse", "calls", "s", "offsets")
    + _layer("words.parse", "hits", better="higher")
    + _layer("words.circ", "calls", "s", "letters")
    + _layer("words.boundary_stats", "s")
    + _layer("consys.build_sequence", "s")
    + _layer("consys.check_unique_readability", "s")
    + _layer("consys.check_unique_readability", "pairs", better="higher")
    + _layer("consys.verify_uniformity", "s")
    + _layer("consys.estimate_cylinder", "s")
    + _layer("procsim.lift", "calls", "s", "atoms")
    + _layer("procsim.compose", "s")
    + _layer("procsim.inverse", "s")
    + _layer("procsim.compose_stage", "s")
    + _layer("procsim.rotation_perm", "s")
    + _layer("procsim.tower", "calls")
    + _layer("names.q_labels", "calls", "s", "atoms")
    + _layer("names.simulate_tower_name", "calls")
    + _layer("names.crosscheck_tower", "s")
    + _layer("names.name_stability", "s")
    + _layer("names.distinct_names", "s")
    + [("names.oracle_mismatches", "count", "lower",
        "names.crosscheck_tower", "error.OracleMismatch")]
    + _layer("factor.rho_trace", "calls", "s")
    + [("factor.coherent_points", "count", "higher",
        "factor.coherent_points", "count")]
    + _layer("smoothreal.realize_perm", "s", "total_s", "attempts")
    + _layer("smoothreal.perm_to_swaps", "swaps")
    + _layer("smoothreal.CellSwap.forward", "calls", "s", "points")
    + [("smoothreal.swap.useful_frac", "ratio", "higher", None, None)]
    + [m for name in CHECK_NAMES
       for m in _layer("cli.check." + name, "s", "total_s")]
    + _layer("cli.obedience_table", "s", "total_s")
    + [("trace.overhead_s", "s", "lower", None, None)]
)


def child_env(src):
    env = dict(os.environ)
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(env, tmp, argv, traced, deadline):
    """Run one child to completion; its wall, set-up and peak RSS."""
    marks = os.path.join(tmp, "marks.json")
    if os.path.exists(marks):
        os.remove(marks)
    out_path = os.path.join(tmp, "stdout.txt")
    err_path = os.path.join(tmp, "stderr.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, marks, "1" if traced else "0"] + argv,
            stdout=out, stderr=err, env=env, cwd=tmp)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage, not a high-water
            # mark over all children as RUSAGE_CHILDREN would
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGTERM or ^C): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    child = {"code": proc.returncode, "stdout": stdout, "stderr": stderr,
             "wall_s": t1 - t0, "peak_rss_mb": usage.ru_maxrss / 1024.0,
             "cpu_s": usage.ru_utime + usage.ru_stime,
             "traced": traced, "setup_s": None, "trace": None}
    if os.path.exists(marks):
        with open(marks) as fh:
            got = json.load(fh)
        child["setup_s"] = got["setup_done"] - t0
        child["trace"] = got.get("trace")
    return child


def layer_metrics(summary):
    """Per-layer metrics of one traced child from its span summary."""
    def value(span, key):
        return summary.get(span, {}).get(key, 0)

    metrics = {name: {"value": value(span, key), "unit": unit}
               for name, unit, _, span, key in PER_LAYER if span is not None}
    offered = value("smoothreal.CellSwap.forward", "points")
    metrics["smoothreal.swap.useful_frac"] = {
        "value": value("smoothreal.swap", "inside") / offered if offered
        else 0, "unit": "ratio"}
    return metrics


def per_layer(traced, untraced):
    """Medians over the traced children, plus the tracing overhead:
    median traced wall time minus median untraced wall time."""
    each = [layer_metrics(c["trace"]) for c in traced]
    metrics = {name: {"value": statistics.median(m[name]["value"]
                                                 for m in each),
                      "unit": got["unit"]}
               for name, got in each[0].items()}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(c["wall_s"] for c in traced)
        - statistics.median(c["wall_s"] for c in untraced), "unit": "s"}
    return metrics


def environment():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1"}


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


def run(workload, seed, seconds, trace, root, tmp):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    env = child_env(os.path.join(root, "src"))
    argv = workload.generate(seed, tmp)
    problems = []

    warm = spawn(env, tmp, argv, False, deadline)
    error = workload.validate(warm["code"], warm["stdout"])
    if error:
        problems.append("warm-up: " + error)
    reference = warm["stdout"]

    children = []
    timed_from = time.monotonic()
    modes = [False, True] if trace else [False]
    while (time.monotonic() - timed_from < seconds
           or len(children) < MIN_CHILDREN * len(modes)):
        for traced in modes:
            child = spawn(env, tmp, argv, traced, deadline)
            child["error"] = (workload.validate(child["code"], child["stdout"])
                              or (child["stdout"] != reference
                                  and "report differs from the warm-up's"))
            children.append(child)
        if time.monotonic() > deadline:
            problems.append("run limit of %d s reached" % RUN_LIMIT_S)
            break

    if workload.name == CAP_PROBE_WORKLOAD:
        cap_argv = ["cli", "run"] + workload.generate(seed, tmp,
                                                      cap=CAP_PROBE_ATOMS)[1:]
        probe = spawn(env, tmp, cap_argv, False, deadline)
        if probe["code"] != 3 or not CAP_MESSAGE.search(probe["stderr"]):
            problems.append("over-cap probe: exit %d, stderr %r"
                            % (probe["code"], probe["stderr"][-300:]))
    return children, problems


def report(workload, seed, trace, children, problems):
    """Print the readable summary, then the result line."""
    failed = [c for c in children if c["error"]]
    untraced = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    print("env " + json.dumps(environment(), sort_keys=True))
    print("workload %s seed %d: %s" % (workload.name, seed, workload.why))
    for i, c in enumerate(children):
        print("child %d%s: exit %d wall_s %.4f cpu_s %.4f setup_s %s "
              "peak_rss_mb %.2f%s"
              % (i, " traced" if c["traced"] else "", c["code"], c["wall_s"],
                 c["cpu_s"],
                 "-" if c["setup_s"] is None else "%.4f" % c["setup_s"],
                 c["peak_rss_mb"], " FAILED: %s; stderr %r"
                 % (c["error"], c["stderr"][-300:]) if c["error"] else ""))
    for p in problems:
        print("PROBLEM " + p)
    print("failed_frac %.4f (%d of %d children)"
          % (len(failed) / len(children), len(failed), len(children)))
    metrics = {}
    if not trace:
        ok = [c for c in untraced if c["setup_s"] is not None]
        for name, unit in END_TO_END if ok else []:
            vals = [c[name] for c in ok]
            q1, q3 = quartiles(vals)
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
            print("%-12s %.4f %s (median of %d; quartiles %.4f .. %.4f)"
                  % (name, metrics[name]["value"], unit, len(vals), q1, q3))
    else:
        traced_ok = [c for c in traced if c["trace"] is not None]
        if traced_ok and untraced:
            metrics = per_layer(traced_ok, untraced)
        for name, unit, _, _, _ in PER_LAYER:
            if name in metrics:
                print("%-44s %.6g %s" % (name, metrics[name]["value"], unit))
    correct = not failed and not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(children),
                      "failed": len(failed), "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so that the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "circlesys", "cli.py")):
        print("error: no src/circlesys here; run from the root of a "
              "circlesys checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        workload = WORKLOADS[args.workload]
        children, problems = run(workload, args.seed, args.seconds,
                                 args.trace, root, tmp)
        report(workload, args.seed, args.trace, children, problems)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
