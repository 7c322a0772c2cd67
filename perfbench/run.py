"""Benchmark of the blockshrink command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rates-readme --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times single-thread verdicts with tracing off and
prints every end-to-end metric; with ``--trace 1`` it runs a traced
single-thread verdict between two untraced ones, then one untraced verdict at
two threads, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit and describe the machine.

The package is imported from ``src/`` of the current directory; without it
the benchmark exits with code 2.  Scratch files go to ``.perfbench_work/``
and are removed at exit.

The wall time of the Tier-1 test suite (about 117 s on 2 cores) and
pytest-benchmark are deliberately not part of this benchmark: the suite's
time measures the tests, not a user's wait for a verdict.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy is first imported, which happens in main(); the setup
# probes inherit the setting.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"
THREADS = 2
SETUP_REPEATS = 7
SELF_SUM_TOL = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
}

# Public functions wrapped in the traced run, by "module.function".
TRACED = (
    "cli.main",
    "harness.run_rate_experiment",
    "harness.check_moment_bound",
    "harness.check_concentration",
    "harness.lp_risk",
    "estimator.blockshrink",
    "estimator.term_threshold",
    "estimator.empirical_coefficients",
    "estimator.empirical_detail_level",
    "basis.make_basis",
    "basis.synthesize",
    "besov.make_test_function",
    "design.generate_sample",
    "design.read_sample_csv",
)

COMPUTED_UNITS = {
    "estimator.coeff_terms": "count",
    "estimator.coeff_distinct_ratio": "ratio",
    "estimator.blocks_kept_frac": "ratio",
    "basis.synth_evals": "count",
    "design.distinct_sample_ratio": "ratio",
    "cli.bytes_read": "bytes",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac": "ratio",
    "wall_2t_s": "s",
}

PER_LAYER_UNITS = {
    **{f"{t}.{k}": u for t in TRACED for k, u in (("calls", "count"), ("self_s", "s"))},
    **COMPUTED_UNITS,
}

SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from blockshrink import density_from_spec, make_basis, make_test_function
family, density, signal, jmax = json.loads(sys.argv[1])
basis = make_basis(family)
density_from_spec(density)
make_test_function(signal, basis, jmax)
print(time.perf_counter() - start)
"""


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _sample_key(sample):
    return (sample.n, float(sample.x[0]), float(sample.x[-1]),
            float(sample.y[0]), float(sample.y[-1]))


def _count_coefficient_levels(tracer, args, kwargs, levels):
    sample, basis = _arg(args, kwargs, 0, "sample"), _arg(args, kwargs, 2, "basis")
    tracer.counts["estimator.coeff_terms"] += sample.n * (basis.support_length + 1) * levels
    tracer.counts["coeff_computations"] += 1
    tracer.distinct("coeff_samples", _sample_key(sample))


def _count_coefficients(tracer, args, kwargs, tree):
    # detail levels plus the scaling level
    _count_coefficient_levels(tracer, args, kwargs, tree.jmax - tree.j0 + 2)


def _count_detail_level(tracer, args, kwargs, beta):
    _count_coefficient_levels(tracer, args, kwargs, 1)


def _count_blocks(tracer, args, kwargs, est):
    tracer.counts["blocks_kept"] += int(sum(int(m.sum()) for m in est.kept))
    tracer.counts["blocks"] += int(sum(m.size for m in est.kept))


def _count_synthesis(tracer, args, kwargs, values):
    basis, tree = _arg(args, kwargs, 0, "basis"), _arg(args, kwargs, 1, "tree")
    grid = _arg(args, kwargs, 2, "grid_size")
    levels = tree.jmax - tree.j0 + 2
    tracer.counts["basis.synth_evals"] += grid * (basis.support_length + 1) * levels


def _count_samples(tracer, args, kwargs, sample):
    tracer.distinct("design_samples", _sample_key(sample))


def _count_cli_bytes(tracer, args, kwargs, rc):
    argv = list(_arg(args, kwargs, 0, "argv"))
    for flag in ("--input", "--config"):
        if flag in argv:
            tracer.counts["cli.bytes_read"] += Path(argv[argv.index(flag) + 1]).stat().st_size
    out = Path(argv[argv.index("--out-dir") + 1])
    tracer.counts["cli.bytes_written"] += sum(f.stat().st_size for f in out.iterdir() if f.is_file())


COUNT_HOOKS = {
    "cli.main": _count_cli_bytes,
    "estimator.blockshrink": _count_blocks,
    "estimator.empirical_coefficients": _count_coefficients,
    "estimator.empirical_detail_level": _count_detail_level,
    "basis.synthesize": _count_synthesis,
    "design.generate_sample": _count_samples,
}


def _ratio(num, den) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def per_layer_metrics(tracer, traced_wall: float, untraced_wall: float,
                      wall_2t: float) -> dict:
    totals = tracer.totals()
    out = {}
    for target in TRACED:
        calls, self_s = totals.get(target, (0, 0.0))
        out[f"{target}.calls"] = calls
        out[f"{target}.self_s"] = self_s
    counts = tracer.counts
    out["estimator.coeff_terms"] = counts["estimator.coeff_terms"]
    out["estimator.coeff_distinct_ratio"] = _ratio(
        len(tracer.seen.get("coeff_samples", ())), counts["coeff_computations"])
    out["estimator.blocks_kept_frac"] = _ratio(counts["blocks_kept"], counts["blocks"])
    out["basis.synth_evals"] = counts["basis.synth_evals"]
    out["design.distinct_sample_ratio"] = _ratio(
        len(tracer.seen.get("design_samples", ())), out["design.generate_sample.calls"])
    out["cli.bytes_read"] = counts["cli.bytes_read"]
    out["cli.bytes_written"] = counts["cli.bytes_written"]
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.self_sum_frac"] = sum(s.self_s for s in tracer.spans) / traced_wall
    out["wall_2t_s"] = wall_2t
    return out


def tail(values) -> tuple:
    """(value, percentile): the highest order statistic with ten values above it.

    Below 21 values that statistic would lie under the median, which is no
    tail, so the maximum is returned as the 100th percentile instead.
    """
    xs = sorted(values)
    if len(xs) < 21:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def measure_setup(workload) -> float:
    """Median over fresh interpreters of cold import plus the workload's set-up calls."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, json.dumps(workload.setup), str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_untraced(workload, work: Path, seconds: float) -> tuple:
    """Single-thread verdicts for as long as the next one still fits into
    ``seconds``; at least one.

    Verdicts at THREADS threads are timed in the traced run instead: on a
    host that lends the benchmark only nproc = THREADS cores, their wall time
    follows how much of the second core the host gives, which varied by a
    quarter between runs of the same code.
    """
    from workloads import check_ops

    start = time.perf_counter()
    walls, ops = [], []
    while True:
        wall, verdict_ops = workload.verdict(work / str(len(walls)), 1)
        walls.append(wall)
        ops += verdict_ops
        if time.perf_counter() - start + wall > seconds:
            break
    failed = check_ops(workload, ops)
    latencies = [op.seconds * 1e3 for op in ops]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": measure_setup(workload),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = len(ops)
    metrics["passed_frac"] = 1.0 - failed / attempted
    notes = {"verdict_walls_s": walls, "ops": attempted,
             "op_tail_percentile": tail_pct, "failed_frac": failed / attempted}
    return metrics, END_TO_END_UNITS, attempted, failed, notes


def run_traced(workload, work: Path) -> tuple:
    from spans import Tracer, patch
    from workloads import check_ops

    # Untraced verdicts before and after the traced one, so that the first
    # call's warm-up is not counted as tracing overhead.
    before_wall, before_ops = workload.verdict(work / "before", 1)
    tracer = Tracer()
    restore = patch(tracer, {t: COUNT_HOOKS.get(t) for t in TRACED})
    try:
        traced_wall, traced_ops = workload.verdict(work / "traced", 1)
    finally:
        restore()
    after_wall, after_ops = workload.verdict(work / "after", 1)
    # Untraced, and checked byte for byte against the single-thread outputs.
    wall_2t, ops_2t = workload.verdict(work / "2t", THREADS)
    untraced_wall = (before_wall + after_wall) / 2.0
    ops = before_ops + traced_ops + after_ops + ops_2t
    failed = check_ops(workload, ops)
    metrics = per_layer_metrics(tracer, traced_wall, untraced_wall, wall_2t)
    # The self times of all spans must account for the traced wall time.
    attempted = len(ops) + 1
    failed += abs(metrics["trace.self_sum_frac"] - 1.0) > SELF_SUM_TOL
    notes = {"spans": len(tracer.spans), "traced_wall_s": traced_wall,
             "untraced_wall_s": [before_wall, after_wall]}
    return metrics, PER_LAYER_UNITS, attempted, failed, notes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else "unknown"


def environment(args) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blockshrink" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'blockshrink'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blockshrink
    from workloads import WORKLOADS

    if Path(blockshrink.__file__).resolve().parent != (SRC / "blockshrink").resolve():
        print(f"error: imported blockshrink from {blockshrink.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.prepare(work, args.seed)
        with open(work / "cli.log", "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log):
            if args.trace:
                result = run_traced(workload, work)
            else:
                result = run_untraced(workload, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    metrics, units, attempted, failed, notes = result

    print("# env " + json.dumps(environment(args), sort_keys=True))
    print("# notes " + json.dumps(notes, sort_keys=True))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
