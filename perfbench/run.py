"""facekeys benchmark: one workload, one run, one JSON line at the end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study-raw --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
traces one set-up, then alternates untraced and traced units and reports
the per-layer metrics plus the tracing overhead. Both modes check the
program's outputs; a failed check makes the exit code 1. Spans go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: One BLAS thread: a single closed-loop client, least exposed to other
#: processes on a shared machine. Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import facekeys from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "facekeys" / "__init__.py").is_file():
        sys.exit(f"perfbench: error: no facekeys package under {src}")
    sys.path.insert(0, str(src))
    import facekeys

    if Path(facekeys.__file__).resolve().parent != (src / "facekeys").resolve():
        sys.exit(f"perfbench: error: imported facekeys from {facekeys.__file__}")
    return facekeys


def probe() -> dict:
    """Fixed calibration work: a pure-Python loop and a 384^3 matmul x8."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    t1 = time.perf_counter()
    a = np.arange(384 * 384, dtype=np.float64).reshape(384, 384) / 1e5
    for _ in range(8):
        a = np.tanh(a @ a.T)
    t2 = time.perf_counter()
    return {"python_loop_ms": (t1 - t0) * 1e3, "matmul_ms": (t2 - t1) * 1e3}


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, -(-pct * n // 100))


def percentile(values: list[float], pct: int) -> float:
    return sorted(values)[rank(len(values), pct) - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    facekeys = import_package()
    import numpy as np

    import spans
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: error: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    print(f"perfbench: workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; facekeys {facekeys.__version__}, numpy {np.__version__}, "
          f"nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS}")
    probe_start = probe()

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tracer = spans.Tracer()
        checks = workloads.Checks()
        n_units = max(workloads.MIN_UNITS[args.workload],
                      round(args.seconds / workloads.NOMINAL_UNIT_S[args.workload]))

        full = spans.Instrumentation(tracer) if args.trace else None
        # fit_any is always observed, for the convergence check
        fit_observer = spans.Instrumentation(
            spans.Tracer(), targets=[t for t in spans.TARGETS if t[1] == "fit_any"])

        # set-up: SETUP_REPS untraced repetitions, or one traced
        setup_times = []
        state = None
        for rep in range(1 if args.trace else SETUP_REPS):
            rep_dir = work / f"setup-{rep}"
            rep_dir.mkdir()
            tracer.unit = "setup"
            if full:
                full.apply()
            t0 = time.perf_counter()
            try:
                rep_state = wl.setup(rep_dir, args.seed)
            finally:
                setup_times.append(time.perf_counter() - t0)
                if full:
                    full.restore()
            if state is None:
                state = rep_state
            else:
                shutil.rmtree(rep_dir)

        # timed phase; with tracing, the two units of a pair do the same work,
        # untraced first in even pairs and traced first in odd ones
        results, seconds, traced_flags = [], [], []
        units = 2 * max(2, n_units // 2) if args.trace else n_units
        for i in range(units):
            traced = bool(args.trace) and (i % 2 == 1) != ((i // 2) % 2 == 1)
            instr = full if traced else fit_observer
            tracer.unit = f"unit-{i}"
            instr.apply()
            t0 = time.perf_counter()
            try:
                results.append(wl.run_unit(state, i // 2 if args.trace else i, i, tracer))
            finally:
                seconds.append(time.perf_counter() - t0)
                instr.restore()
            traced_flags.append(traced)
        fits = [s for s in fit_observer.tracer.spans + tracer.spans if s.name.endswith(".fit")]
        wl.check(state, results, fits, checks)
        e2e = wl.end_to_end(state, results, seconds)
        probe_end = probe()
        print(f"probe: start python_loop_ms={probe_start['python_loop_ms']:.2f} "
              f"matmul_ms={probe_start['matmul_ms']:.2f}; end "
              f"python_loop_ms={probe_end['python_loop_ms']:.2f} "
              f"matmul_ms={probe_end['matmul_ms']:.2f} (diagnostic, not a metric)")

        if args.trace:
            untraced = [s for s, t in zip(seconds, traced_flags) if not t]
            traced = [s for s, t in zip(seconds, traced_flags) if t]
            overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
            metrics = spans.layer_metrics(tracer.spans, len(traced))
            metrics["eval.rmse1_px"] = e2e["rmse1_px"]
            metrics["eval.rmse2_px"] = e2e["rmse2_px"]
            metrics["trace.overhead_frac"] = overhead
            fired = {s.name for s in tracer.spans}
            for name in wl.expected_spans:
                if not any(k == name or k.startswith(name + ".") for k in fired):
                    print(f"perfbench: warning: span {name} never fired (count 0)",
                          file=sys.stderr)
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(trace_path)
            print(f"trace: {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}; "
                  f"{len(traced)} traced and {len(untraced)} untraced units; "
                  f"overhead {overhead:+.4f} of the untraced median")
            report = {k: {"value": metrics[k], "unit": unit}
                      for k, (unit, _) in spans.LAYER_METRICS.items()}
        else:
            req = e2e["request_seconds"]
            p90_beyond = len(req) - rank(len(req), 90)
            # a tail percentile needs at least ten samples beyond it; with
            # fewer (a study run has three calls) p90 reports the median
            p90 = percentile(req, 90 if p90_beyond >= 10 else 50)
            report = {
                "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
                "wall_s": {"value": e2e["wall_s"], "unit": "s"},
                "request_p50_ms": {"value": percentile(req, 50) * 1e3, "unit": "ms"},
                "request_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
                "images_per_s": {"value": e2e["images_per_s"], "unit": "1/s"},
                "rmse_px": {"value": e2e["rmse_px"], "unit": "px"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
            print(f"samples: {len(setup_times)} set-ups (median; plus {import_s:.3f} s of "
                  f"imports), {len(seconds)} timed units, {len(req)} request latencies "
                  f"({p90_beyond} beyond p90{'' if p90_beyond >= 10 else ', so p90 is the median'})")
        for name, m in report.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        frac = checks.failed / checks.attempted if checks.attempted else 0.0
        print(f"failed_frac {frac:.6g} ratio ({checks.failed} failed of "
              f"{checks.attempted} checks)")
        for message in checks.messages:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
        print(json.dumps({
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": report,
        }))
        return 0 if checks.failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
