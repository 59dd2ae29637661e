"""Microbenchmarks for the projection forward and backward paths.

Times the full projection, its sort and threshold-solve phases, the jvp
and PAV over a size ladder, and derives doubling ratios (time at 2n over
time at n). The forward pass is sort-dominated, so its ratio should sit
near 2 log(2n)/log(n); the backward pass is linear, ratio near 2. Timings
are wall-clock medians and inherently machine-dependent; everything else
in the output is deterministic.
"""

import time
from dataclasses import dataclass

import numpy as np

from .backward import jvp
from .isotonic import _pav_decreasing
from .projection import (
    HypersimplexSpec,
    _prefix_sums,
    _sort_desc,
    _theta_from_sorted_numpy,
    project,
)

DEFAULT_SIZES = tuple(2**p for p in range(14, 23))

CSV_HEADER = "op,n,median_ns"


@dataclass
class BenchRow:
    op: str
    n: int
    median_ns: int


def _median_ns(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(np.median(times))


def bench_projection(sizes, reps, seed=0):
    """Rows for the full projection, the sort it runs (``_sort_desc``) and
    the theta solve of its numpy route, the one project takes above n = 64."""
    rows = []
    rng = np.random.default_rng(seed)
    for n in sizes:
        x = rng.normal(0.0, 1.0, n)
        spec = HypersimplexSpec(n, n // 4, 1.0)
        project(x, spec)  # warm caches before timing
        rows.append(BenchRow("project", n, _median_ns(lambda: project(x, spec), reps)))
        u = x / spec.tau
        rows.append(BenchRow("project_sort", n, _median_ns(lambda: _sort_desc(u), reps)))
        u_sorted = np.sort(u)[::-1]
        prefix = _prefix_sums(u_sorted)
        k = float(spec.k)
        rows.append(
            BenchRow("project_theta_solve", n, _median_ns(
                lambda: _theta_from_sorted_numpy(u_sorted, prefix, k), reps))
        )
    return rows


def bench_jvp(sizes, reps, seed=0):
    """Rows for the backward path (centering on the active set)."""
    rows = []
    rng = np.random.default_rng(seed)
    for n in sizes:
        x = rng.normal(0.0, 1.0, n)
        res = project(x, HypersimplexSpec(n, n // 4, 1.0))
        v = rng.normal(0.0, 1.0, n)
        jvp(res, v)
        rows.append(BenchRow("jvp", n, _median_ns(lambda: jvp(res, v), reps)))
    return rows


def bench_pav(sizes, reps, seed=0):
    """Rows for isotonic regression on random (worst-case pooling) input."""
    rows = []
    rng = np.random.default_rng(seed)
    for n in sizes:
        v = rng.normal(0.0, 1.0, n)
        _pav_decreasing(v)
        rows.append(BenchRow("pav", n, _median_ns(lambda: _pav_decreasing(v), reps)))
    return rows


# Every bench op, in the order its rows are emitted.
OPS = {"project": bench_projection, "jvp": bench_jvp, "pav": bench_pav}


def run_bench(sizes=DEFAULT_SIZES, reps=5, seed=0, ops=("project", "jvp")):
    """Rows for each op in ops, in OPS order; pav (an interpreted loop) runs
    only when asked. Unknown ops, sizes that are not integers >= 1 and
    reps < 1 raise ValueError before anything is timed."""
    for op in ops:
        if op not in OPS:
            raise ValueError(f"unknown bench op {op!r}; expected some of {', '.join(OPS)}")
    for n in sizes:
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError(f"bench sizes must be integers >= 1, got {n!r}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    rows = []
    for op, bench_op in OPS.items():
        if op in ops:
            rows.extend(bench_op(sizes, reps, seed))
    return rows


def doubling_ratios(rows):
    """(op, n_small, ratio) for consecutive size doublings."""
    by_op = {}
    for r in rows:
        by_op.setdefault(r.op, []).append(r)
    out = []
    for op, group in sorted(by_op.items()):
        group = sorted(group, key=lambda r: r.n)
        for lo, hi in zip(group, group[1:]):
            if hi.n == 2 * lo.n and lo.median_ns > 0:
                out.append((op, lo.n, hi.median_ns / lo.median_ns))
    return out


def rows_to_csv_lines(rows):
    yield CSV_HEADER
    for r in rows:
        yield f"{r.op},{r.n},{r.median_ns}"
