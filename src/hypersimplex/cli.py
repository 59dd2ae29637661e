"""Command-line front end.

Subcommands: project (one-shot projection or hard top-k), verify
(randomized property suite vs the oracles), gradcheck (finite-difference
Jacobian audit), bench (scaling microbenchmarks), sweep (training grid
from a JSON config) and report (paired-t-test summary table of a sweep
CSV). Exit codes: 0 success, 1 verification failure, 2 usage or format
error. All randomness flows from the --seed flags, so reruns with
identical arguments reproduce their output byte for byte (timings in
bench excepted).
"""

import argparse
import json
import sys

import numpy as np

from . import bench
from .oracle import MAX_ORACLE_N
from .projection import HypersimplexSpec, hard_topk, project
from .trainer import (
    SweepConfig,
    paired_t_test,
    read_records_csv,
    sweep,
    write_records_csv,
)
from .verify import corrupted_project, run_gradcheck, run_verify


class UsageError(ValueError):
    """Bad arguments or malformed input files; mapped to exit code 2."""


def _parse_vector(args):
    if (args.x is None) == (args.file is None):
        raise UsageError("provide exactly one of --x or --file")
    if args.x is not None:
        items = [s for s in args.x.split(",") if s.strip()]
    else:
        with open(args.file) as fh:
            items = [line for line in (l.strip() for l in fh) if line]
    try:
        values = [float(s) for s in items]
    except ValueError as exc:
        raise UsageError(f"bad vector entry: {exc}") from None
    if not values:
        raise UsageError("empty input vector")
    return np.array(values)


def cmd_project(args):
    x = _parse_vector(args)
    if args.hard:
        y = hard_topk(x, args.k)
        print(json.dumps({"y": y.tolist(), "k": int(args.k)}))
        return 0
    spec = HypersimplexSpec(x.size, args.k, args.tau)
    res = project(x, spec)
    out = {
        "y": res.y.tolist(),
        "theta": res.theta,
        "active": res.active.tolist(),
        "at_one": res.at_one.tolist(),
        "at_zero": res.at_zero.tolist(),
    }
    print(json.dumps(out))
    return 0


def cmd_verify(args):
    project_fn = corrupted_project if args.corrupt_theta else project
    results = run_verify(
        num_oracle=args.num,
        num_vectors=args.vectors,
        num_aux=args.aux,
        seed=args.seed,
        n_max=args.n,
        project_fn=project_fn,
    )
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<26} {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_gradcheck(args):
    report = run_gradcheck(num=args.num, seed=args.seed, tol=args.tol)
    print(
        f"checked {report.num_points} screened points, "
        f"worst relative error {report.worst_rel_err:.3e} (tolerance {report.tol:g})"
    )
    return 0 if report.passed else 1


def cmd_bench(args):
    sizes = tuple(int(s) for s in args.sizes.split(","))
    ops = tuple(s.strip() for s in args.ops.split(","))
    rows = bench.run_bench(sizes=sizes, reps=args.reps, seed=args.seed, ops=ops)
    lines = list(bench.rows_to_csv_lines(rows))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    for op, n_small, ratio in bench.doubling_ratios(rows):
        print(f"# doubling {op} n={n_small}->{2 * n_small}: {ratio:.2f}x")
    return 0


def cmd_sweep(args):
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.config}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"{args.config}: config must be a JSON object")
    config = SweepConfig.from_dict(raw)
    if args.out:
        config.out_csv = args.out
    records = sweep(config)
    write_records_csv(records, config.out_csv)
    failed = sum(r.failed for r in records)
    print(f"wrote {len(records)} records to {config.out_csv}"
          + (f" ({failed} failed runs)" if failed else ""))
    return 0


def cmd_report(args):
    records = read_records_csv(args.csv)
    cells = {}
    for r in records:
        if r.loss in ("ce", "hypersimplex"):
            cells.setdefault((r.batch, r.loss), {})[r.seed] = r.best_test_acc
    batches = sorted({b for b, _ in cells})
    if not batches:
        raise UsageError(f"{args.csv}: no ce/hypersimplex records to compare")
    print(f"{'Batch':>6}  {'CE':>8}  {'HS':>8}  {'Δ':>9}  {'t-stat':>8}  {'p-val':>8}")
    for batch in batches:
        ce = cells.get((batch, "ce"))
        hs = cells.get((batch, "hypersimplex"))
        if ce is None or hs is None:
            raise UsageError(f"batch {batch}: need both ce and hypersimplex records")
        if set(ce) != set(hs):
            raise UsageError(f"batch {batch}: seed sets differ between losses")
        seeds = sorted(ce)
        if len(seeds) < 2:
            raise UsageError(f"batch {batch}: need at least 2 seeds for the t-test")
        a = np.array([ce[s] for s in seeds])
        b = np.array([hs[s] for s in seeds])
        t = paired_t_test(a, b)
        mark = " *" if t.significant_at_10pct else ""
        print(
            f"{batch:>6}  {a.mean():8.4f}  {b.mean():8.4f}  {t.mean_delta:+9.4f}  "
            f"{t.t_stat:8.3f}  {t.p_value:8.4f}{mark}"
        )
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hypersimplex",
        description="Differentiable top-k via Euclidean projection onto the "
                    "(n,k)-hypersimplex: solvers, verification, benchmarks and "
                    "a training harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project a vector (or take its hard top-k)")
    p.add_argument("--x", help="comma-separated scores")
    p.add_argument("--file", help="file with one score per line")
    p.add_argument("--k", type=int, required=True, help="cardinality target")
    p.add_argument("--tau", type=float, default=1.0, help="temperature (default 1)")
    p.add_argument("--hard", action="store_true", help="print hard top-k instead")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("verify", help="run the randomized property suite")
    p.add_argument("--num", type=int, default=300, help="oracle comparisons (default 300)")
    p.add_argument("--vectors", type=int, default=2000,
                   help="instances for bulk properties (default 2000)")
    p.add_argument("--aux", type=int, default=500,
                   help="instances for the remaining properties (default 500)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=12,
                   help=f"max dimension for oracle comparisons, in [2, {MAX_ORACLE_N}]")
    p.add_argument("--corrupt-theta", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the Jacobian")
    p.add_argument("--num", type=int, default=500, help="screened points (default 500)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5,
                   help="relative-error tolerance (default 1e-5)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="scaling microbenchmarks (CSV + doubling ratios)")
    p.add_argument("--sizes", default=",".join(str(n) for n in bench.DEFAULT_SIZES),
                   help="comma-separated n values (default 2^14..2^22)")
    p.add_argument("--reps", type=int, default=5, help="repetitions per point (default 5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ops", default="project,jvp",
                   help=f"subset of {','.join(bench.OPS)} (default project,jvp; the "
                        "interpreted pav loop adds about 50 s on the default sizes)")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="run a training grid from a JSON config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", help="override the config's out_csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="paired-t-test summary of a sweep CSV")
    p.add_argument("--csv", required=True, help="records CSV from sweep")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
