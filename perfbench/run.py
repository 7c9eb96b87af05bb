"""Benchmark of the isocount count -> exchange -> chain pipeline.

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the benchmark imports isocount from
src/ beside it and nothing else.  One process runs one workload as library
calls and checks every output against frozen values (perfbench/expected.json).

--trace 0 cycles through the workload's operations until --seconds have
passed (at least one full pass) and prints the end-to-end metrics:

  setup_s        median over fresh interpreters of: import isocount (numpy and
                 mpmath already loaded), build inputs
  wall_s         time to a checked result for the whole workload: sum over its
                 operations of the median time of each
  cpu_s          the same sum for user+sys CPU of this process and its children
  peak_rss_mb    peak resident set of this process
  success_ratio  1 - failed operations / attempted operations

--trace 1 runs one untraced pass, then one pass with every layer wrapped
(see tracing.py), and prints the per-layer metrics, the tracing overhead
(traced minus untraced pass time) and the share of the traced pass that
top-level spans cover, which must be at least 95%.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A result file that also records the machine goes to
perfbench/results/.  Exit status: 0 when every output is correct, 1 when an
output check fails, 2 when there is no isocount source to run.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_SAMPLES = 9
MIN_COVERAGE = 0.95

# Times set-up in a fresh interpreter: argv = root, workload, seed.  The
# third-party dependencies are imported before the clock starts: their
# import is the noisiest part of set-up and no change to isocount moves it.
SETUP_PROBE = """
import os, sys, time
root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import mpmath, numpy
import workloads
t0 = time.perf_counter()
workloads.build(workload, seed)
print(repr(time.perf_counter() - t0))
"""


def cpu_of(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cpu_seconds():
    """User+sys CPU seconds of this process and its waited-for children."""
    return cpu_of(resource.RUSAGE_SELF) + cpu_of(resource.RUSAGE_CHILDREN)


def setup_seconds(workload, seed):
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, ROOT, workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples), samples


def run_op(op, expected):
    """(wall seconds, CPU seconds, problems) of one call and its check."""
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an operation that raises counts as failed
        problems = ["%s: %s: %s" % (op.key, type(exc).__name__, exc)]
    else:
        problems = workloads.check(op, result, expected)
    return time.perf_counter() - t0, cpu_seconds() - cpu0, problems


def measure(ops, expected, seconds):
    """Cycle through ops for `seconds` (at least one full pass); start an
    operation only if its median so far still fits."""
    walls = [[] for _ in ops]
    cpus = [[] for _ in ops]
    problems = []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        k = i % len(ops)
        if i >= len(ops) and time.perf_counter() + statistics.median(walls[k]) > deadline:
            break
        wall, cpu, bad = run_op(ops[k], expected)
        walls[k].append(wall)
        cpus[k].append(cpu)
        failed += bool(bad)
        problems += bad
        i += 1
    metrics = {
        "wall_s": sum(statistics.median(w) for w in walls),
        "cpu_s": sum(statistics.median(c) for c in cpus),
    }
    detail = [{"key": op.key, "wall_s": w, "cpu_s": c} for op, w, c in zip(ops, walls, cpus)]
    return metrics, i, failed, problems, detail


def run_pass(ops, expected, tracer=None):
    """One pass over ops: (wall seconds, failed ops, problems)."""
    failed = 0
    problems = []
    t0 = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k
        bad = run_op(op, expected)[2]
        failed += bool(bad)
        problems += bad
    return time.perf_counter() - t0, failed, problems


def walk_probe(instances):
    """Time enum_norm_vectors on each exact column target t * Q_jj."""
    from isocount import enumeration

    seconds = 0.0
    vectors = 0
    for inst in instances:
        t = inst.target.rational
        for j in range(inst.n):
            t0 = time.perf_counter()
            vectors += len(enumeration.enum_norm_vectors(inst.q, t * inst.q[j, j]))
            seconds += time.perf_counter() - t0
    return seconds, vectors


def traced(ops, expected, workload):
    import tracing

    untraced_wall, failed, problems = run_pass(ops, expected)
    children0 = cpu_of(resource.RUSAGE_CHILDREN)
    with tracing.Tracer() as tracer:
        traced_wall, failed2, problems2 = run_pass(ops, expected, tracer)
    children_cpu = cpu_of(resource.RUSAGE_CHILDREN) - children0
    walk_s, walk_vectors = walk_probe(tracer.exact_instances.values())
    totals, top_level = tracer.span_totals()
    coverage = top_level / traced_wall
    if coverage < MIN_COVERAGE:
        problems2.append("top-level spans cover %.3f of the traced pass, below %.2f"
                         % (coverage, MIN_COVERAGE))
    os.makedirs(RESULTS, exist_ok=True)
    tracer.save(os.path.join(RESULTS, "spans-%s.npz" % workload))
    metrics = tracing.layer_metrics(tracer, totals, walk_s, walk_vectors, children_cpu,
                                    traced_wall - untraced_wall, coverage)
    detail = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.start),
        "missing_wraps": tracer.missing,
        "span_totals": {name: {"calls": c, "s": s, "self_s": own}
                        for name, (c, s, own) in totals.items()},
        "layer_map": [{"name": n, "unit": u, "better": b, "moves": m, "on": w}
                      for n, u, b, m, w in tracing.PER_LAYER],
    }
    return metrics, 2 * len(ops), failed + failed2, problems + problems2, detail


def git_revision():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine(workload):
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu_model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "workers": workloads.WORKERS[workload],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "isocount", "__init__.py")):
        print("no isocount source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup_s, setup_samples = (None, None) if args.trace else setup_seconds(args.workload, args.seed)
    ops = workloads.build(args.workload, args.seed)
    import isocount

    if not os.path.abspath(isocount.__file__).startswith(SRC + os.sep):
        print("isocount imported from %s, not from %s" % (isocount.__file__, SRC), file=sys.stderr)
        return 2
    expected = workloads.load_expected()

    if args.trace:
        metrics, attempted, failed, problems, detail = traced(ops, expected, args.workload)
    else:
        timed, attempted, failed, problems, detail = measure(ops, expected, args.seconds)
        values = {
            "setup_s": setup_s,
            "wall_s": timed["wall_s"],
            "cpu_s": timed["cpu_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_ratio": 1 - failed / attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                 "success_ratio": "1"}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        detail = {"ops": detail, "setup_samples_s": setup_samples}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for line in problems:
        print("check failed: " + line, file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "why": workloads.WHY[args.workload],
                   "machine": machine(args.workload), "problems": problems,
                   "detail": detail, "result": result}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
