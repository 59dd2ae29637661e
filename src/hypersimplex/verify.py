"""Randomized verification suites behind the verify/gradcheck commands.

Each check draws seeded random instances, exercises one advertised
property of the projection (oracle agreement, feasibility, order
preservation, invariances, Lipschitz continuity, solver agreement, the
hard limit) and reports a pass/fail plus the worst observed violation.
Checks accept the projection as a parameter so a deliberately corrupted
solver can be injected to exercise the failure paths.
"""

from dataclasses import dataclass

import numpy as np

from . import oracle
from .backward import jvp
from .projection import (
    HypersimplexSpec,
    _as_count,
    _as_positive,
    _as_scaled,
    _classify,
    _clip_shifted,
    _is_integer,
    hard_topk,
    project,
    project_bisect,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def corrupted_project(x, spec):
    """Projection with the threshold nudged off its solve; testing hook for
    the failure paths of the verify command."""
    res = project(x, spec)
    u = _as_scaled(x, spec)[1]
    theta = res.theta + 1e-3
    return _classify(_clip_shifted(u, theta), theta, spec)


def _draws(num, seed):
    """Yield one generator seeded with seed, num times. num must be an
    integer >= 1, so that no check passes without checking anything, and
    seed an integer >= 0; both are checked before the first draw."""
    num = _as_count(num, "num", 1)
    rng = np.random.default_rng(_as_count(seed, "seed", 0))
    for _ in range(num):
        yield rng


def _random_instance(rng, n_hi, taus):
    """(spec, x): n in [2, n_hi], k in [0, n], tau from taus, then x ~
    N(0, 3^2)^n, drawn in that order."""
    n = int(rng.integers(2, n_hi + 1))
    k = int(rng.integers(0, n + 1))
    tau = float(taus[rng.integers(0, len(taus))])
    return HypersimplexSpec(n, k, tau), rng.normal(0.0, 3.0, n)


def check_oracle_agreement(num=1000, seed=0, n_max=12, project_fn=project):
    """Fast solver vs 3^n KKT enumeration on random instances, n in [2, n_max]."""
    if not (_is_integer(n_max) and 2 <= n_max <= oracle.MAX_ORACLE_N):
        raise ValueError(f"n_max must be in [2, {oracle.MAX_ORACLE_N}]: oracle comparisons "
                         f"are capped at n = {oracle.MAX_ORACLE_N}, got {n_max}")
    worst_y = 0.0
    worst_theta = 0.0
    for rng in _draws(num, seed):
        spec, x = _random_instance(rng, n_max, (0.1, 1.0, 10.0))
        res = project_fn(x, spec)
        cert = oracle.brute_force_project(x, spec)
        worst_y = max(worst_y, float(np.max(np.abs(res.y - cert.y))))
        if res.active.size:
            worst_theta = max(worst_theta, abs(res.theta - cert.theta))
    passed = worst_y <= 1e-8 and worst_theta <= 1e-8
    return CheckResult(
        "oracle_agreement", passed,
        f"{num} instances, worst |y| gap {worst_y:.3e}, worst theta gap {worst_theta:.3e}",
    )


def check_feasibility(num=10000, seed=1, project_fn=project):
    """sum(y) = k within 1e-9 and y inside [0, 1] exactly."""
    worst = 0.0
    box_ok = True
    for rng in _draws(num, seed):
        spec, x = _random_instance(rng, 256, (0.1, 0.5, 1.0, 2.0, 10.0))
        y = project_fn(x, spec).y
        worst = max(worst, abs(float(y.sum()) - spec.k))
        box_ok = box_ok and bool(np.all(y >= 0.0) and np.all(y <= 1.0))
    passed = worst <= 1e-9 and box_ok
    return CheckResult(
        "feasibility", passed,
        f"{num} instances, worst |sum - k| {worst:.3e}, box respected: {box_ok}",
    )


def check_order_preservation(num=10000, seed=2, project_fn=project):
    """x_i >= x_j implies y_i >= y_j, checked over all pairs."""
    inversions = 0
    for rng in _draws(num, seed):
        spec, x = _random_instance(rng, 16, (0.5, 1.0, 2.0))
        y = project_fn(x, spec).y
        bad = (x[:, None] >= x[None, :]) & (y[:, None] < y[None, :] - 1e-12)
        inversions += int(np.count_nonzero(bad))
    return CheckResult(
        "order_preservation", inversions == 0,
        f"{num} vectors, {inversions} pairwise inversions",
    )


def check_translation_invariance(num=2000, seed=3, project_fn=project):
    """Adding c to every score leaves y unchanged (theta absorbs c/tau)."""
    worst = 0.0
    for rng in _draws(num, seed):
        spec, x = _random_instance(rng, 64, (0.5, 1.0, 2.0))
        c = float(rng.uniform(-50.0, 50.0))
        y0 = project_fn(x, spec).y
        y1 = project_fn(x + c, spec).y
        worst = max(worst, float(np.max(np.abs(y0 - y1))))
    return CheckResult(
        "translation_invariance", worst <= 1e-9,
        f"{num} instances, worst shift discrepancy {worst:.3e}",
    )


def check_lipschitz(num=10000, seed=4, project_fn=project):
    """||F(x) - F(z)|| <= ||x - z|| / tau on random pairs."""
    violations = 0
    worst = -np.inf
    for rng in _draws(num, seed):
        spec, x = _random_instance(rng, 32, (0.5, 1.0, 2.0))
        z = x + rng.normal(0.0, 10.0 ** rng.uniform(-3, 1), spec.n)
        dy = float(np.linalg.norm(project_fn(x, spec).y - project_fn(z, spec).y))
        bound = float(np.linalg.norm(x - z)) / spec.tau
        excess = dy - bound
        worst = max(worst, excess)
        if excess > 1e-9:
            violations += 1
    return CheckResult(
        "lipschitz", violations == 0,
        f"{num} pairs, {violations} violations, worst excess {worst:.3e}",
    )


def check_solver_agreement(num=10000, seed=5, project_fn=project):
    """Breakpoint-scan solver vs the independent bisection solver."""
    worst = 0.0
    for rng in _draws(num, seed):
        spec, x = _random_instance(rng, 32, (0.1, 1.0, 10.0))
        ya = project_fn(x, spec).y
        yb = project_bisect(x, spec).y
        worst = max(worst, float(np.max(np.abs(ya - yb))))
    return CheckResult(
        "solver_agreement", worst <= 1e-9,
        f"{num} instances, worst solver gap {worst:.3e}",
    )


def check_permutation_equivariance(num=2000, seed=6, project_fn=project):
    """project(P x).y equals P project(x).y."""
    worst = 0.0
    for rng in _draws(num, seed):
        spec, x = _random_instance(rng, 64, (0.5, 1.0, 2.0))
        p = rng.permutation(spec.n)
        y = project_fn(x, spec).y
        yp = project_fn(x[p], spec).y
        worst = max(worst, float(np.max(np.abs(yp - y[p]))))
    return CheckResult(
        "permutation_equivariance", worst <= 1e-12,
        f"{num} instances, worst equivariance gap {worst:.3e}",
    )


def check_idempotence(num=2000, seed=7, project_fn=project):
    """Points already on the hypersimplex are fixed points at tau = 1.

    Feasible points are sampled as vertex/uniform mixtures, which stay
    inside the polytope by convexity and do not consult the solver.
    """
    worst = 0.0
    for rng in _draws(num, seed):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(0, n + 1))
        vertex = np.zeros(n)
        vertex[rng.permutation(n)[:k]] = 1.0
        alpha = float(rng.uniform(0.0, 1.0))
        x = alpha * vertex + (1.0 - alpha) * (k / n)
        y = project_fn(x, HypersimplexSpec(n, k, 1.0)).y
        worst = max(worst, float(np.max(np.abs(y - x))))
    return CheckResult(
        "idempotence", worst <= 1e-9,
        f"{num} feasible points, worst movement {worst:.3e}",
    )


def check_hard_limit(num=2000, seed=8, project_fn=project):
    """At tau far below the smallest score gap, y rounds to hard_topk."""
    failures = 0
    for rng in _draws(num, seed):
        n = int(rng.integers(2, 33))
        k = int(rng.integers(0, n + 1))
        x = rng.normal(0.0, 3.0, n)
        gap = float(np.min(np.diff(np.sort(x))))
        if gap < 1e-9:
            continue  # astronomically unlikely collision; skip rather than bias
        tau = 1e-8 * gap * float(rng.uniform(0.1, 1.0))
        y = project_fn(x, HypersimplexSpec(n, k, tau)).y
        if not np.array_equal((y >= 0.5).astype(np.int64), hard_topk(x, k)):
            failures += 1
    return CheckResult(
        "hard_limit", failures == 0,
        f"{num} instances, {failures} rounding mismatches",
    )


def check_result_consistency(num=2000, seed=9, project_fn=project):
    """Partition and clip-form invariants of the returned result object."""
    bad = 0
    for rng in _draws(num, seed):
        spec, x = _random_instance(rng, 64, (0.1, 1.0, 10.0))
        res = project_fn(x, spec)
        u = x / spec.tau
        parts = np.concatenate((res.active, res.at_one, res.at_zero))
        ok = np.array_equal(np.sort(parts), np.arange(spec.n))
        ok = ok and bool(np.all(u[res.at_one] - res.theta >= 1.0 - 1e-9))
        ok = ok and bool(np.all(u[res.at_zero] - res.theta <= 1e-9))
        ok = ok and bool(
            np.all(np.abs(res.y[res.active] - (u[res.active] - res.theta)) <= 1e-9)
        )
        if not ok:
            bad += 1
    return CheckResult(
        "result_consistency", bad == 0,
        f"{num} instances, {bad} malformed results",
    )


def run_verify(num_oracle=1000, num_vectors=10000, num_aux=2000, seed=0,
               n_max=12, project_fn=project):
    """Full property suite; returns one CheckResult per property.

    Seeds are offset per check so the suites draw independent streams but
    stay reproducible from the single given seed. Every instance count must
    be an integer >= 1, so that no check passes without checking anything,
    and seed an integer >= 0; all are checked before any check runs.
    """
    for name, count in (("num_oracle", num_oracle), ("num_vectors", num_vectors),
                        ("num_aux", num_aux)):
        _as_count(count, name, 1)
    s = _as_count(seed, "seed", 0)
    return [
        check_oracle_agreement(num_oracle, s, n_max, project_fn=project_fn),
        check_feasibility(num_vectors, s + 1, project_fn=project_fn),
        check_order_preservation(num_vectors, s + 2, project_fn=project_fn),
        check_translation_invariance(num_aux, s + 3, project_fn=project_fn),
        check_lipschitz(num_vectors, s + 4, project_fn=project_fn),
        check_solver_agreement(num_vectors, s + 5, project_fn=project_fn),
        check_permutation_equivariance(num_aux, s + 6, project_fn=project_fn),
        check_idempotence(num_aux, s + 7, project_fn=project_fn),
        check_hard_limit(num_aux, s + 8, project_fn=project_fn),
        check_result_consistency(num_aux, s + 9, project_fn=project_fn),
    ]


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradcheckReport:
    worst_rel_err: float
    num_points: int
    tol: float

    @property
    def passed(self):
        return self.worst_rel_err < self.tol


def _boundary_margin(u, theta):
    d = u - theta
    return float(np.min(np.minimum(np.abs(d), np.abs(d - 1.0))))


def run_gradcheck(num=500, seed=0, tol=1e-5):
    """Analytic jvp vs central finite differences at screened points.

    Points whose coordinates land within 1e-3 of an active-set change are
    resampled: the map is only directionally differentiable there, so an
    FD comparison would be meaningless. The FD step is taken in x-space,
    whose Jacobian carries a 1/tau factor relative to the analytic jvp.
    num must be at least 1 and tol positive and finite.
    """
    tol = _as_positive(tol, "tol")
    worst = 0.0
    for rng in _draws(num, seed):
        while True:
            n = int(rng.integers(4, 33))
            k = int(rng.integers(1, n))
            tau = float((0.5, 1.0, 2.0)[rng.integers(0, 3)])
            spec = HypersimplexSpec(n, k, tau)
            x = rng.normal(0.0, 3.0, n)
            res = project(x, spec)
            if _boundary_margin(x / tau, res.theta) > 1e-3:
                break
        v = rng.normal(0.0, 1.0, n)
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
        yp = project(x + h * v, spec).y
        ym = project(x - h * v, spec).y
        fd = (yp - ym) / (2.0 * h)
        analytic = jvp(res, v) / tau
        denom = max(float(np.linalg.norm(fd)), float(np.linalg.norm(analytic)), 1e-9)
        worst = max(worst, float(np.linalg.norm(analytic - fd)) / denom)
    return GradcheckReport(worst_rel_err=worst, num_points=num, tol=tol)
