#!/usr/bin/env python3
"""rlcm benchmark: one closed-loop caller driving ``rlcm.cli.main`` in-process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fit-dina-large --seed 1 --seconds 35 --trace 0

The process builds its inputs from ``--seed``, calls the CLI subcommands
of one operation in turn (each waits for the previous), checks every
output, and repeats until ``--seconds`` have passed.  The last line of
standard output is the JSON result.  ``--trace 0`` reports the end-to-end
metrics, whose times are divided by the run's speed index (``speed.py``);
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics.  ``--smoke`` shrinks every size for a quick
self-test.  Work files, the environment record and the traced run's spans
go to ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUPS_PER_OPERATION = 2   # set-ups timed after each operation
SPEED_REPEATS = 4     # runs of each speed-index kernel after each operation
MAX_OPERATIONS = 50   # bounds a run whose operations take microseconds (--smoke)

# CLI call label -> per-layer metric carrying its fastest untraced wall time
STEP_METRICS = {"simulate": "simulate_s", "fit": "fit_s", "experiment": "experiment_s",
                "counterexample": "counterexample_s", "verify-pair": "verify_pair_s",
                "tmatrix": "tmatrix_s"}
SUBCOMMANDS = ("simulate", "fit", "experiment", "counterexample", "verify-pair",
               "check", "tmatrix")
SELF_TIMES = (
    "fileio.write_response_csv", "fileio.read_response_csv", "fileio.write_fit_json",
    "fileio.read_pair_json", "inference.em_fit", "inference.simulate",
    "identifiability.distributions_equal", "identifiability.c1_only_counterexample",
    "identifiability.verdict", "tmatrix.response_distribution",
    "tmatrix.build_tmatrix", "tmatrix.marginal_vector", "models.theta_from_params",
) + tuple(f"cli.{sub}" for sub in SUBCOMMANDS)
CALL_COUNTS = ("inference.em_fit", "identifiability.distributions_equal",
               "tmatrix.response_distribution")


class Operation(NamedTuple):
    seconds: float          # untraced or traced wall time of all CLI calls
    steps: dict             # CLI call label -> wall seconds
    op_id: object           # trace operation id, None when untraced
    counts: object          # LayerCounters.finish() of a traced operation


def pin_blas_threads() -> int:
    """Run BLAS on one thread; return the core count for the record.

    On a 2-vCPU shared machine a fixed loop of Python and BLAS work took
    0.22-0.46 s with a two-thread BLAS and 0.28-0.31 s with one thread, so
    one thread (below the nproc cap) keeps the figures steady.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def git_sha(root: Path):
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, ncpu: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # the record is informative only
        blas = {"error": repr(exc)}
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"git_sha": git_sha(root), "nproc": ncpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "src_lines": src_lines, "platform": platform.platform()}


def import_program():
    """Import rlcm afresh, so each set-up pays the package's import cost."""
    import importlib
    for name in [m for m in sys.modules if m == "rlcm" or m.startswith("rlcm.")]:
        del sys.modules[name]
    rlcm = importlib.import_module("rlcm")
    importlib.import_module("rlcm.cli")
    return rlcm


def run_operation(rlcm, workload, tracer=None):
    """Call each CLI step in turn.

    Returns [(label, seconds, error or None)] and the trace's operation id
    (None when untraced).
    """
    results = []
    captured = io.StringIO()
    op = tracer.operation() if tracer else contextlib.nullcontext()
    with op as op_id:
        for label, argv, expected in workload.steps():
            span = tracer.span(f"cli.{label}") if tracer else contextlib.nullcontext()
            error = None
            captured.seek(0)
            captured.truncate()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured), \
                        contextlib.redirect_stderr(captured), span:
                    code = rlcm.cli.main(argv)
            except (Exception, SystemExit):  # a traceback or argparse exit fails the call
                code, error = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
            if error is None and code != expected:
                error = f"exit code {code}, expected {expected}: {captured.getvalue()[-500:]}"
            results.append((label, seconds, error))
    return results, op_id


def check_operation(workload, results, quality):
    """Check each call's outputs; return the number of failed calls."""
    failed = 0
    for label, _, error in results:
        if error is None:
            try:
                for key, value in workload.check(label).items():
                    quality.setdefault(key, []).append(value)
            except Exception as exc:  # any failing or crashing check fails the call
                error = f"check failed: {exc!r}"
        if error is not None:
            failed += 1
            print(f"[{workload.name}] {label}: {error}", file=sys.stderr)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "rlcm" / "cli.py").is_file():
        print(f"error: no rlcm sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    ncpu = pin_blas_threads()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy  # noqa: F401  (imported before set-up timing starts)
    from speed import SpeedIndex
    from tracing import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = Path(__file__).resolve().parent / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    setup_times = []

    def set_up():
        start = time.perf_counter()
        rlcm = import_program()
        workload = WORKLOADS[args.workload](rlcm, work, args.seed, args.smoke)
        workload.write_inputs()
        setup_times.append(time.perf_counter() - start)
        return rlcm, workload

    def more_set_ups(count):
        """Time further set-ups, leaving the operations' modules in place."""
        for _ in range(count):
            set_up()

    rlcm, workload = set_up()
    if not Path(rlcm.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported rlcm from {rlcm.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer:
        counters = LayerCounters()
        tracer.on_return.update(counters.callbacks())
        tracer.install(rlcm, [n for n in SELF_TIMES if not n.startswith("cli.")])

    attempted = failed = 0
    quality = {}
    untraced, traced = [], []   # Operation records
    peak_rss = None
    speed = SpeedIndex()
    start = time.perf_counter()
    while len(untraced) + len(traced) < MAX_OPERATIONS:
        use_trace = tracer is not None and len(traced) < len(untraced)
        if use_trace:
            counters.begin()
        results, op_id = run_operation(rlcm, workload, tracer if use_trace else None)
        if peak_rss is None:
            # read before any check runs: every operation repeats the same
            # calls, so this is the program's peak, not the checks'
            peak_rss = peak_rss_mib()
        op_failed = check_operation(workload, results, quality)
        more_set_ups(SETUPS_PER_OPERATION)
        speed.sample(SPEED_REPEATS)
        attempted += len(results)
        failed += op_failed
        if not op_failed:
            steps = {label: seconds for label, seconds, _ in results}
            record = Operation(sum(steps.values()), steps, op_id,
                               counters.finish() if use_trace else None)
            (traced if use_trace else untraced).append(record)
        measured = untraced and (tracer is None or traced)
        if (measured or op_failed) and time.perf_counter() - start >= args.seconds:
            break

    # Times are means over the run, after the first (warm-up) operation and
    # set-up, divided by the speed index measured over the same stretch:
    # see speed.py.
    index = speed.value()
    metrics = {}
    if tracer is None:
        if untraced:
            op_s = statistics.fmean(r.seconds for r in after_warm_up(untraced)) / index
            metrics["op_s"] = {"value": op_s, "unit": "s"}
        setup_s = statistics.fmean(after_warm_up(setup_times)) / index
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mib"] = {"value": peak_rss, "unit": "MiB"}
    elif untraced and traced:
        metrics = per_layer_metrics(workload, tracer, untraced, traced, quality)
        metrics["bench.speed_index"] = {"value": index, "unit": "ratio"}

    env = environment(root, ncpu)
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    stem = work / f"seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "smoke": args.smoke, "environment": env, "setups": setup_times,
         "speed_index": index, "speed_samples": speed.times,
         "operations": [{"seconds": r.seconds, "steps": r.steps, "traced": r.op_id is not None}
                        for r in untraced + traced],
         "result": result},
        indent=2) + "\n")
    if tracer:
        tracer.write(f"{stem}-spans.jsonl")
    print(f"[{args.workload}] {attempted} calls, {failed} failed "
          f"(fail_frac {failed / max(attempted, 1):.3f}), "
          f"{len(untraced)} untraced + {len(traced)} traced operations", file=sys.stderr)
    print("# environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


def after_warm_up(values):
    """All but the first value, which pays one-time costs, if there are more."""
    return values[1:] or values


def fastest_operation(records):
    """Sum over an operation's CLI calls of each call's fastest run."""
    return sum(min(r.steps[label] for r in records) for label in records[0].steps)


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LayerCounters:
    """Counts taken at layer boundaries from arguments and return values."""

    def __init__(self):
        self.begin()

    def begin(self):
        self.fits = []          # (iterations of the best restart, restarts, data)
        self.table_bytes = 0
        self.csv_bytes = 0

    def callbacks(self):
        def em_fit(args, kwargs, fit):
            self.fits.append((len(fit.loglik_trace) - 1, len(fit.restart_logliks), args[0]))

        def table(args, kwargs, result):
            theta = args[0]
            self.table_bytes = max(self.table_bytes,
                                   8 << (theta.n_items + theta.n_attributes))

        def csv(args, kwargs, result):
            self.csv_bytes = max(self.csv_bytes, os.path.getsize(args[0]))

        return {"inference.em_fit": em_fit,
                "tmatrix.response_distribution": table,
                "tmatrix.build_tmatrix": table,
                "fileio.write_response_csv": csv,
                "fileio.read_response_csv": csv}

    def finish(self):
        """Counts of one operation, computed after its timing ended."""
        import numpy as np
        n = max(len(self.fits), 1)
        return {
            "inference.em_iters": (sum(f[0] for f in self.fits) / n, "count"),
            "inference.restarts": (sum(f[1] for f in self.fits) / n, "count"),
            "inference.distinct_patterns": (
                sum(np.unique(f[2].codes).size for f in self.fits) / n, "count"),
            "tmatrix.table_mib": (self.table_bytes / 2**20, "MiB"),
            "fileio.response_csv_mib": (self.csv_bytes / 2**20, "MiB"),
        }


def per_layer_metrics(workload, tracer, untraced, traced, quality):
    metrics = {}

    def put(name, values, unit):
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}

    per_op = [tracer.self_times(r.op_id) for r in traced]
    for name in SELF_TIMES:
        put(f"{name}.self_s", [t.get(name, (0.0, 0))[0] for t in per_op], "s")
    for name in CALL_COUNTS:
        put(f"{name}.calls", [t.get(name, (0.0, 0))[1] for t in per_op], "count")
    counts = [r.counts for r in traced]
    for name, (_, unit) in counts[0].items():
        put(name, [c[name][0] for c in counts], unit)
    for label, name in STEP_METRICS.items():
        times = [r.steps[label] for r in untraced if label in r.steps]
        metrics[name] = {"value": min(times, default=0.0), "unit": "s"}
    put("loglik_gain", quality.get("loglik_gain", []), "nats")
    put("recovery_err", quality.get("recovery_err", []), "abs")
    probes = workload.probes()
    for name in ("inference.loglik_probe_s", "inference.em_iter_probe_s"):
        metrics[name] = {"value": probes.get(name, 0.0), "unit": "s"}
    overhead = fastest_operation(traced) / fastest_operation(untraced) - 1.0
    metrics["bench.trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
