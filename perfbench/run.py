#!/usr/bin/env python3
"""Fixed-seed benchmark of the mstat command line.

    python3 perfbench/run.py --workload portfolio_verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop with one client in one process and no worker
threads: the next operation starts when the previous one returns. An
operation is an in-process call of mstat.cli.main(argv) with its output
captured, so interpreter start-up stays out of the timings. Inputs come from
--seed and every answer is checked against one the benchmark knows on its
own.

A run makes round(--seconds / PASS_SECONDS) passes, at least MIN_PASSES, over
the workload's pool of distinct operations, each pass in a fresh seeded
order. The pass count depends on --seconds only, never on how fast the
passes ran, so every run takes its minimum over the same number of samples.

The host CPU speed drifts by up to 1.8x, for seconds or for minutes, so the
gated timings are in reference units: next to every execution the benchmark
times a fixed reference kernel, and an execution's reference time is its
wall time scaled to a host on which that kernel takes REF_KERNEL_S. An
operation's latency is the smallest reference time of its executions. The
same figures in plain wall-clock units are printed and reported as well.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes over the same operations and prints the per-layer metrics. The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A full report, with the workload census and the environment, goes to
perfbench/out/.
"""

import os
import sys
import time

# Pin BLAS/OpenMP pools before numpy loads so lstsq cannot oversubscribe the
# cores, and leave MSTAT_THREADS at its default (unset, one thread).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MSTAT_THREADS", None)

import argparse
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("portfolio_verify", "coderivative_queries", "newsvendor_pipeline")
PASS_SECONDS = 10.0        # nominal length of one pass over a pool
REF_KERNEL_S = 0.0005      # reference-kernel time that defines the reference units
MIN_PASSES = 3
SETUP_REPEATS = 3
PASS_LIMIT_S = 120.0       # start no pass after this, to end well inside 180 s
CAP_MESSAGE = "exceeds cap"

END_TO_END_UNITS = {"ops_per_ref_s": "1/ref_s", "latency_p50_ref_ms": "ref_ms",
                    "latency_p95_ref_ms": "ref_ms", "ok_ratio": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MB"}
WALL_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many operations (smoke tests only)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# operations

def run_op(cli, op):
    """Time one mstat.cli.main call; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception as exc:  # a raise is a failed operation, not a crash
            code = "raised %s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
    return code, out.getvalue(), err.getvalue(), t1 - t0


_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((6, 6))


def kernel_seconds():
    """Wall time of a fixed piece of interpreter and small-matrix numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i
    for _ in range(10):
        np.linalg.lstsq(_KERNEL_MATRIX, _KERNEL_MATRIX[0], rcond=None)
    return time.perf_counter() - t0


def judge(op, code, stdout, stderr):
    """None when the operation gave the known answer, else the failure cause."""
    reason = op.check(code, stdout)
    if reason is None or code != 1:
        return reason
    message = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return "cap" if CAP_MESSAGE in message else "exit 1: " + message


class Runner:
    """Runs passes over a workload's pool and keeps what each execution returned."""

    def __init__(self, cli, workload, seed, tracer=None):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.records = []        # (op index, failure cause or None, seconds,
                                 #  reference-kernel seconds around it, traced)
        self.first_output = {}   # op index -> (exit code, stdout) of its first execution

    def one_pass(self, indices, traced=False):
        ops = self.workload.ops
        if traced:
            self.tracer.patch()
        t0 = time.perf_counter()
        try:
            for i in indices:
                if traced:
                    self.tracer.op_id = i
                before = kernel_seconds()
                code, out, err, seconds = run_op(self.cli, ops[i])
                kernel = 0.5 * (before + kernel_seconds())
                self.records.append((i, judge(ops[i], code, out, err), seconds, kernel, traced))
                self.first_output.setdefault(i, (code, out))
        finally:
            if traced:
                self.tracer.unpatch()
        return time.perf_counter() - t0

    def run(self, seconds, ops_wanted, trace):
        """A fixed number of passes; with --trace each is an untraced-traced pair."""
        if ops_wanted is not None:
            indices = range(min(ops_wanted, len(self.workload.ops)))
            wall = self.one_pass(indices)
            return wall + (self.one_pass(indices, traced=True) if trace else 0.0)
        passes = max(MIN_PASSES, round(seconds / PASS_SECONDS))
        if trace:
            passes = max(1, passes // 2)
        wall = 0.0
        for k in range(passes):
            order = np.random.default_rng([self.seed, k]).permutation(len(self.workload.ops))
            wall += self.one_pass(order)
            if trace:
                wall += self.one_pass(order, traced=True)
            if wall > PASS_LIMIT_S:
                break
        return wall


# ---------------------------------------------------------------------------
# metrics

def unexpected_failures(ops, records):
    """Failures other than the known 8-row cap, as 'cell: cause' strings."""
    return sorted({ops[i].cell + ": " + cause for i, cause, *_ in records
                   if cause is not None and not (cause == "cap" and ops[i].cap)})


def timings(best, right):
    """(ops per second, p50 ms, p95 ms) from one time per distinct operation."""
    ok_ms = [best[i] * 1e3 for i in best if right[i]] or [float("nan")]
    return (sum(right.values()) / sum(best.values()),
            float(np.percentile(ok_ms, 50)), float(np.percentile(ok_ms, 95)))


def end_to_end(records, setup_s):
    """Metrics over distinct operations, each timed by its fastest execution.

    Returns the declared metrics, in reference units, and the same timings in
    wall-clock units.
    """
    best, best_ref, right = {}, {}, {}
    for i, cause, seconds, kernel, _ in records:
        ref = seconds * REF_KERNEL_S / kernel
        best[i] = min(best.get(i, seconds), seconds)
        best_ref[i] = min(best_ref.get(i, ref), ref)
        right[i] = right.get(i, True) and cause is None
    ops, p50, p95 = timings(best_ref, right)
    declared = {"ops_per_ref_s": ops, "latency_p50_ref_ms": p50, "latency_p95_ref_ms": p95,
                "ok_ratio": sum(right.values()) / len(best), "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return declared, dict(zip(WALL_UNITS, timings(best, right))), sum(right.values())


def per_layer(tracer, records):
    """Per-layer metrics from the traced passes, normalised per traced operation."""
    from tracer import DIST, ID, LP, NAMES, NW, POLY, SOLVE

    traced = [r for r in records if r[4]]
    untraced_s = sum(r[2] for r in records if not r[4])
    traced_s = sum(r[2] for r in traced)
    n = len(traced)
    _, self_t = tracer.self_times()
    names = tracer.arrays()["name"]
    calls = np.bincount(names, minlength=len(NAMES))
    selfs = np.bincount(names, weights=self_t, minlength=len(NAMES))

    def c(key):
        return int(calls[ID[key]])

    def per_op_self(key):
        return (float(selfs[ID[key]]) / n, "s/op")

    lp_calls, dist_calls, poly_calls = calls[LP], calls[DIST], calls[POLY]
    rows = list(tracer.dist_rows)
    m = {
        "lp.linear_feasible.calls": (lp_calls / n, "calls/op"),
        "lp.linear_feasible.self_s": per_op_self("lp.linear_feasible"),
        "lp.linear_feasible.feasible_ratio": (
            sum(tracer.lp_feasible) / lp_calls if lp_calls else 0.0, "ratio"),
        "lp.linear_feasible.vars_mean": (
            sum(tracer.lp_vars) / lp_calls if lp_calls else 0.0, "vars"),
        "cones.distance_to_normal_cone.calls": (dist_calls / n, "calls/op"),
        "cones.distance_to_normal_cone.self_s": per_op_self("cones.distance_to_normal_cone"),
        "cones.distance_to_normal_cone.lp_per_call": (
            tracer.owner_counts(LP, DIST) / dist_calls if dist_calls else 0.0, "calls/call"),
        "cones.distance_to_normal_cone.errors": (
            tracer.errors[DIST] / n, "errors/op"),
        "cones.active_rows_mean": (sum(rows) / len(rows) if rows else 0.0, "rows"),
        "cones.active_rows_max": (max(rows, default=0), "rows"),
        "graph_normals.polyhedron_membership.calls": (poly_calls / n, "calls/op"),
        "graph_normals.polyhedron_membership.self_s":
            per_op_self("graph_normals.polyhedron_membership"),
        "graph_normals.polyhedron_membership.lp_per_call": (
            tracer.owner_counts(LP, POLY) / poly_calls if poly_calls else 0.0, "calls/call"),
        "graph_normals.polyhedron_membership.errors": (
            tracer.errors[POLY] / n, "errors/op"),
        "graph_normals.simplex_membership.self_s":
            per_op_self("graph_normals.simplex_membership"),
        "graph_normals.orthant_membership.self_s":
            per_op_self("graph_normals.orthant_membership"),
        "stationarity.verify_certificate.self_s":
            per_op_self("stationarity.verify_certificate"),
        "stationarity.verify_certificate_penalized.self_s":
            per_op_self("stationarity.verify_certificate_penalized"),
        "stationarity.value_function.self_s": per_op_self("stationarity.value_function"),
        "portfolio.solve_simplex_qp.calls": (c("portfolio.solve_simplex_qp") / n, "calls/op"),
        "portfolio.solve_simplex_qp.self_s": per_op_self("portfolio.solve_simplex_qp"),
        "newsvendor.nw_weights.calls": (c("newsvendor.nw_weights") / n, "calls/op"),
        "newsvendor.nw_weights.self_s": per_op_self("newsvendor.nw_weights"),
        "newsvendor.nw_weights.calls_per_solve": (
            tracer.owner_counts(NW, SOLVE) / calls[SOLVE] if calls[SOLVE] else 0.0,
            "calls/call"),
        "newsvendor.conditional_cdf.self_s": per_op_self("newsvendor.conditional_cdf"),
        "newsvendor.solve_newsvendor.calls": (calls[SOLVE] / n, "calls/op"),
        "newsvendor.solve_newsvendor.self_s": per_op_self("newsvendor.solve_newsvendor"),
        "newsvendor.KernelModel.builds": (c("newsvendor.KernelModel") / n, "builds/op"),
        "cli.main.self_s": per_op_self("cli.main"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "trace.self_coverage": (float(selfs.sum()) / traced_s, "ratio"),
    }
    return {k: (float(v), u) for k, (v, u) in m.items()}


def anchors(tracer, ops):
    """Time shares that ROADMAP quotes, measured on the traced passes."""
    from tracer import DIST, ID, LP, NW

    s = tracer.arrays()
    dur, self_t = tracer.self_times()
    main = s["name"] == ID["cli.main"]
    out = {}
    for label, pick in (("d8_vertex_verify", lambda op: op.cell.startswith("d8-vertex")),
                        ("gridsearch", lambda op: op.cell.startswith("gridsearch"))):
        ids = np.array([i for i, op in enumerate(ops) if pick(op)], dtype=np.int32)
        mine = np.isin(s["op"], ids)
        runs = int((main & mine).sum())
        if not runs:
            continue
        total = float(dur[main & mine].sum())
        out[label] = {
            "executions": runs,
            "op_seconds": total,
            "distance_to_normal_cone_inclusive_share":
                float(dur[mine & (s["name"] == DIST)].sum()) / total,
            "distance_to_normal_cone_self_share":
                float(self_t[mine & (s["name"] == DIST)].sum()) / total,
            "linear_feasible_self_share": float(self_t[mine & (s["name"] == LP)].sum()) / total,
            "linear_feasible_calls_per_op": int((mine & (s["name"] == LP)).sum()) / runs,
            "nw_weights_self_share": float(self_t[mine & (s["name"] == NW)].sum()) / total,
            "nw_weights_calls_per_op": int((mine & (s["name"] == NW)).sum()) / runs,
        }
    return out


# ---------------------------------------------------------------------------
# one workload

def environment(scipy):
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "MSTAT_THREADS": os.environ.get("MSTAT_THREADS", "unset"),
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def timed(fn):
    """(result, wall seconds, reference seconds) of one call of fn."""
    before = kernel_seconds()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return result, seconds, seconds * REF_KERNEL_S / (0.5 * (before + kernel_seconds()))


def fresh_import():
    """A fresh interpreter that imports what an operation needs."""
    # No timeout: with one, subprocess polls and rounds the wait up to 50 ms.
    subprocess.run([sys.executable, "-c", "import numpy, scipy.special, mstat.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)


def set_up(cli, workloads, name, seed):
    """Generate inputs, reference answers and files, then warm up."""
    wl = workloads.build(name, seed, OUT / "inputs" / name)
    for op in wl.warmup:
        run_op(cli, op)
    return wl


def run_workload(args):
    if not (SRC / "mstat" / "__init__.py").is_file():
        print("error: no mstat sources at %s; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scipy
    import mstat
    from mstat import cli
    import tracer as tracing
    import workloads
    if not Path(mstat.__file__).resolve().is_relative_to(SRC.resolve()):
        print("error: imported mstat from %s, not from %s" % (mstat.__file__, SRC),
              file=sys.stderr)
        return 2

    # Set-up time: a fresh interpreter's imports plus generation, reference
    # answers, input files and warm-up, each the median of SETUP_REPEATS, in
    # reference seconds like the operation timings.
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(timed(fresh_import)[1:])
        wl, *spent = timed(lambda: set_up(cli, workloads, args.workload, args.seed))
        builds.append(spent)
    setup_s, setup_wall_s = (statistics.median(x[k] for x in imports)
                             + statistics.median(x[k] for x in builds) for k in (1, 0))

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(cli, wl, args.seed, tracer)
    wall_s = runner.run(args.seconds, args.ops, args.trace)
    records = runner.records
    unexpected = unexpected_failures(wl.ops, records)
    failed = sum(cause is not None for _, cause, *_ in records)

    first = runner.first_output
    digest = hashlib.sha256()
    for i in sorted(first):
        code, out = first[i]
        digest.update(("%s\0%s\0%s\0" % (" ".join(wl.ops[i].argv[:2]), code, out)).encode())

    if args.trace:
        layer = per_layer(tracer, records)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        wall_metrics, n_ok = {}, None
    else:
        e2e, wall, n_ok = end_to_end(records, setup_s)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
        wall_metrics = {k: {"value": v, "unit": WALL_UNITS[k]} for k, v in wall.items()}

    by_cause = {}
    for i, cause, *_ in records:
        if cause is not None:
            key = "%s: %s" % (wl.ops[i].cell, cause)
            by_cause[key] = by_cause.get(key, 0) + 1
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(scipy),
        "census": wl.census(),
        "attempted": len(records), "failed": failed,
        "fail_ratio": failed / len(records),
        "failures_by_cell_and_cause": by_cause,
        "unexpected_failures": unexpected,
        "latency_samples": n_ok,
        "passes": len(records) // len(first) if args.ops is None else 1,
        "timed_wall_s": wall_s,
        "wall_clock_metrics": wall_metrics,
        "kernel_ms": {"min": 1e3 * min(r[3] for r in records),
                      "median": 1e3 * statistics.median(r[3] for r in records)},
        "setup_wall_s": setup_wall_s,
        "import_s": [x[0] for x in imports], "build_s": [x[0] for x in builds],
        "output_digest": {"sha256": digest.hexdigest(), "distinct_ops": len(first)},
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    if args.trace:
        report["anchors"] = anchors(tracer, wl.ops)
        tracer.save(OUT / ("spans-%s.npz" % wl.name))
    stem = "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print("workload %s seed %d: %d executions of %d operations, %d failed (fail_ratio %.4f)"
          % (wl.name, args.seed, len(records), len(first), failed, failed / len(records)))
    if n_ok is not None:
        print("  latency percentiles over %d operations, each the fastest of its executions"
              % n_ok)
    for cause, count in sorted(by_cause.items()):
        print("  failure %s x%d" % (cause, count))
    for key, m in {**metrics, **wall_metrics}.items():
        print("  %-52s %14.6g %s" % (key, m["value"], m["unit"]))
    print(json.dumps({"correct": not unexpected, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# all workloads

def run_all(args):
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.ops is not None:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = m
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
