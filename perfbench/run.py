"""Benchmark entry point for the hypersimplex package.

    python3 perfbench/run.py --workload project_1m --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: the package is imported from ``src/``
next to this directory and nowhere else. One process, one closed loop: each
op starts when the previous one has returned. Set-up is timed as the median
of SETUP_REPS imports of numpy and the package, each in a fresh interpreter,
plus the median of SETUP_REPS builds of the inputs with one warm-up op; then
the workload runs for ``--seconds``.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` the run measures half the time untraced and half traced,
writes the spans to ``.perfbench/`` and reports the per-layer metrics plus
both ops/s figures (the tracing overhead). A per-layer metric of a layer the
workload never calls reads 0.

The last stdout line is the result JSON; the line before it carries the
run metadata, sample counts, exact counts and check details.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "op_ms_p75": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "projection.project_us_p50": "us",
    "projection.hard_topk_us_p50": "us",
    "projection.active_frac": "ratio",
    "projection.degenerate_count": "count",
    "projection.max_sum_residual": "abs",
    "backward.vjp_us_p50": "us",
    "backward.grad_us_p50": "us",
    "losses.class_batch_us_p50": "us",
    "losses.multiclass_us_p50": "us",
    "losses.projection_calls_per_step": "count",
    "trainer.forward_us_p50": "us",
    "trainer.loss_layer_us_p50": "us",
    "trainer.backward_us_p50": "us",
    "trainer.update_us_p50": "us",
    "trainer.eval_ms_p50": "ms",
    "trainer.best_test_acc": "ratio",
    "oracle.brute_force_ms_p50": "ms",
    "oracle.patterns_per_s": "1/s",
    "oracle.max_y_gap": "abs",
    "oracle.max_theta_gap": "abs",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
}


def import_program():
    """Import hypersimplex from this tree's src/; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "hypersimplex", "__init__.py")):
        raise SystemExit(f"no hypersimplex package under {SRC}; run from a source tree")
    sys.path.insert(0, SRC)
    import hypersimplex

    if not os.path.abspath(hypersimplex.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported hypersimplex from {hypersimplex.__file__}, not {SRC}")
    return hypersimplex


_IMPORT_PROBE = """
import sys, time
t = time.perf_counter()
import numpy
sys.path.insert(0, sys.argv[1])
import hypersimplex
print(time.perf_counter() - t)
"""


def import_seconds():
    """Seconds to import numpy and the package, in SETUP_REPS fresh
    interpreters (interpreter start-up excluded)."""
    reps = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                             capture_output=True, text=True, timeout=60, check=True)
        reps.append(float(out.stdout))
    return reps


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest():
    """sha256 over the package sources; identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "hypersimplex", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_metadata(hs, seed):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": hs.get_backend().name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _pct_ms(latencies_ns, q):
    return float(np.percentile(latencies_ns, q)) / 1e6


def run_workload(name, seed, seconds, trace, hs, import_reps=(0.0,), trace_dir=None, **options):
    """Set up, time and check one workload; returns (detail, result).

    ``options`` go to the workload's constructor (sizes, an injected
    ``project``), so tests can run tiny instances.
    """
    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[name]
    setup_reps = []
    for _ in range(SETUP_REPS):
        w = None  # free the previous inputs before building the next
        t = time.perf_counter()
        w = cls(seed, **options)
        w.warmup()
        setup_reps.append(time.perf_counter() - t)
    setup_s = statistics.median(import_reps) + statistics.median(setup_reps)

    tracer = Tracer() if trace else None
    phases = [w.run(seconds / 2 if trace else seconds)]
    if trace:
        phases.append(w.run(seconds / 2, tracer))
    checks = w.finish()
    timed = phases[0]

    attempted, failed = w.attempted, w.failed
    if trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(w.layer_metrics(tracer))
        metrics["trace.untraced_ops_per_s"] = phases[0].ops_per_s
        metrics["trace.traced_ops_per_s"] = phases[1].ops_per_s
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "op_ms_p75": _pct_ms(timed.latencies_ns, 75),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    detail = {
        "workload": name,
        "trace": int(trace),
        "meta": run_metadata(hs, seed),
        "samples": {
            "ops_per_phase": [p.ops for p in phases],
            "seconds_per_phase": [p.elapsed_s for p in phases],
            "ops_per_s_per_phase": [p.ops_per_s for p in phases],
            "op_ms_percentiles": {
                f"p{q}": _pct_ms(timed.latencies_ns, q) for q in (10, 25, 50, 75, 90)
            },
            "setup_reps_s": setup_reps,
            "import_reps_s": list(import_reps),
        },
        "failed_ops_frac": failed / max(attempted, 1),
        "exact_counts": w.exact_counts(),
        "checks": checks,
        "errors": w.errors,
    }
    if name == "train_b32":
        detail["best_test_acc"] = w.best_test_acc()
        detail["trace_valid"] = checks["replay_matches_train_one"]
    if trace and trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"trace-{name}-seed{seed}.json")
        tracer.write(path, {"workload": name, "seed": seed, "meta": detail["meta"]})
        detail["trace_file"] = os.path.relpath(path, ROOT)

    result = {
        "correct": failed == 0 and bool(checks["passed"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("project_1m", "train_b32", "verify_n12"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    hs = import_program()
    import_reps = import_seconds()
    detail, result = run_workload(
        args.workload, args.seed, args.seconds, args.trace, hs,
        import_reps=import_reps, trace_dir=os.path.join(ROOT, ".perfbench"),
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
