"""Microbenchmarks for the projection forward and backward paths.

Times the full projection, its sort and threshold-solve phases, the jvp
and PAV over a size ladder, for every available kernel backend, and
derives doubling ratios (time at 2n over time at n). The forward pass is
sort-dominated, so its ratio should sit near 2 log(2n)/log(n); the
backward pass is linear, ratio near 2. Timings are wall-clock medians
and inherently machine-dependent; everything else in the output is
deterministic.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .backward import jvp
from .projection import HypersimplexSpec, _prefix_sums, project

DEFAULT_SIZES = tuple(2**p for p in range(14, 23))

CSV_HEADER = "op,backend,n,median_ns"


@dataclass
class BenchRow:
    op: str
    backend: str
    n: int
    median_ns: int


def _median_ns(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(np.median(times))


def _resolve_backends(backends):
    if backends is None or backends == "all":
        return _kernels.available_backends()
    if isinstance(backends, str):
        backends = (backends,)
    return tuple(_kernels.get_backend(b).name for b in backends)


def bench_projection(sizes, reps, seed=0, backends=None):
    """Rows for the full projection plus its sort / theta-solve phases."""
    rows = []
    rng = np.random.default_rng(seed)
    for name in _resolve_backends(backends):
        be = _kernels.get_backend(name)
        for n in sizes:
            x = rng.normal(0.0, 1.0, n)
            spec = HypersimplexSpec(n, n // 4, 1.0)
            project(x, spec, backend=be)  # warm caches and JIT before timing
            rows.append(
                BenchRow("project", name, n,
                         _median_ns(lambda: project(x, spec, backend=be), reps))
            )
            u = x / spec.tau
            rows.append(
                BenchRow("project_sort", name, n,
                         _median_ns(lambda: np.sort(u)[::-1], reps))
            )
            u_sorted = np.sort(u)[::-1]
            prefix = _prefix_sums(u_sorted)
            k = float(spec.k)
            rows.append(
                BenchRow("project_theta_solve", name, n,
                         _median_ns(lambda: be.theta_from_sorted(u_sorted, prefix, k), reps))
            )
    return rows


def bench_jvp(sizes, reps, seed=0, backends=None):
    """Rows for the backward path (centering on the active set)."""
    rows = []
    rng = np.random.default_rng(seed)
    for name in _resolve_backends(backends):
        be = _kernels.get_backend(name)
        for n in sizes:
            x = rng.normal(0.0, 1.0, n)
            res = project(x, HypersimplexSpec(n, n // 4, 1.0), backend=be)
            v = rng.normal(0.0, 1.0, n)
            jvp(res, v, backend=be)
            rows.append(
                BenchRow("jvp", name, n, _median_ns(lambda: jvp(res, v, backend=be), reps))
            )
    return rows


def bench_pav(sizes, reps, seed=0, backends=None):
    """Rows for isotonic regression on random (worst-case pooling) input."""
    rows = []
    rng = np.random.default_rng(seed)
    for name in _resolve_backends(backends):
        be = _kernels.get_backend(name)
        for n in sizes:
            v = rng.normal(0.0, 1.0, n)
            be.pav_decreasing(v)
            rows.append(
                BenchRow("pav", name, n, _median_ns(lambda: be.pav_decreasing(v), reps))
            )
    return rows


def run_bench(sizes=DEFAULT_SIZES, reps=5, seed=0, ops=("project", "jvp", "pav"),
              backends=None):
    _kernels.warmup()
    rows = []
    if "project" in ops:
        rows.extend(bench_projection(sizes, reps, seed, backends))
    if "jvp" in ops:
        rows.extend(bench_jvp(sizes, reps, seed, backends))
    if "pav" in ops:
        rows.extend(bench_pav(sizes, reps, seed, backends))
    return rows


def doubling_ratios(rows):
    """(op, backend, n_small, ratio) for consecutive size doublings."""
    by_key = {}
    for r in rows:
        by_key.setdefault((r.op, r.backend), []).append(r)
    out = []
    for (op, backend), group in sorted(by_key.items()):
        group = sorted(group, key=lambda r: r.n)
        for lo, hi in zip(group, group[1:]):
            if hi.n == 2 * lo.n and lo.median_ns > 0:
                out.append((op, backend, lo.n, hi.median_ns / lo.median_ns))
    return out


def rows_to_csv_lines(rows):
    yield CSV_HEADER
    for r in rows:
        yield f"{r.op},{r.backend},{r.n},{r.median_ns}"
