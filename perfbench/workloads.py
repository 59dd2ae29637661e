"""The benchmark's three workloads, driven through hypersimplex's public API.

Each workload builds its inputs from a seed, runs one op at a time in a
closed loop for a fixed number of seconds, checks every op's output and
counts the ops that fail instead of raising. Given a ``Tracer``, the same
loop records spans around each layer call; the program itself is never
modified.

- ``project_1m``: ``project`` then ``vjp`` at n = 2^20, round-robin over a
  seeded pool of three score vectors (Gaussian at tau 1 and 0.01, and a
  tied variant).
- ``train_b32``: one SGD step of ``train_one``'s loop with the
  hypersimplex loss at batch 32 on the default ``SweepConfig`` data.
- ``verify_n12``: one 3^12 KKT-oracle comparison plus ``project`` on the
  same instance.
"""

import math
import time
from contextlib import ExitStack
from dataclasses import dataclass
from types import SimpleNamespace
from unittest import mock

import numpy as np

import hypersimplex as hs
from hypersimplex import backward, losses, oracle, projection, trainer
from hypersimplex.trainer import MlpModel, SweepConfig

# |sum(y) - k| allowed at n = 2^20, k = n/4; the worst seen is ~1e-7 (tau 0.01).
SUM_TOL = 1e-6
# max |y - y_bisect|: the bound of the verify command's solver_agreement check.
AGREE_TOL = 1e-9
# y gap, theta gap and KKT violation against the oracle, as in criterion 1.
ORACLE_TOL = 1e-8


def p50(values):
    return float(np.percentile(values, 50)) if len(values) else 0.0


def _projection_counts(res):
    return {
        "active_frac": res.active.size / res.spec.n,
        "degenerate": int(res.is_degenerate_saturated),
        "sum_residual": abs(float(np.sum(res.y)) - res.spec.k),
    }


class ProjStats:
    """Active fraction, degenerate count and worst |sum(y) - k| over a set of
    projections."""

    def __init__(self):
        self.calls = 0
        self.active_frac_sum = 0.0
        self.degenerate = 0
        self.max_sum_residual = 0.0

    def add(self, counts):
        self.calls += 1
        self.active_frac_sum += counts["active_frac"]
        self.degenerate += counts["degenerate"]
        self.max_sum_residual = max(self.max_sum_residual, counts["sum_residual"])

    def metrics(self):
        return {
            "projection.active_frac": self.active_frac_sum / max(self.calls, 1),
            "projection.degenerate_count": self.degenerate,
            "projection.max_sum_residual": self.max_sum_residual,
        }


@dataclass
class Phase:
    """Per-op latencies and the wall time of one timed region."""

    latencies_ns: list
    elapsed_s: float

    @property
    def ops(self):
        return len(self.latencies_ns)

    @property
    def ops_per_s(self):
        return self.ops / self.elapsed_s


class PoolWorkload:
    """An op applied round-robin to a fixed pool of inputs.

    The first op on each pool entry records that entry's exact counts;
    every later op on it must reproduce them, or it fails.
    """

    def __init__(self, pool):
        self.pool = pool
        self.first = [None] * len(pool)
        self.ops_per_item = [0] * len(pool)
        self.failed_per_item = [0] * len(pool)
        self.errors = []

    @property
    def attempted(self):
        return sum(self.ops_per_item)

    @property
    def failed(self):
        return sum(self.failed_per_item)

    def warmup(self):
        self._op(self.pool[0], self._calls(None))

    def run(self, seconds, tracer=None):
        calls = self._calls(tracer)
        lat = []
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        i = 0
        while True:
            j = i % len(self.pool)
            if tracer is not None:
                tracer.op = self.attempted
            t0 = time.perf_counter_ns()
            try:
                out = self._op(self.pool[j], calls)
            except Exception as exc:  # a failing op is counted, not raised
                out = None
                if len(self.errors) < 5:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter_ns()
            lat.append(t1 - t0)
            self.ops_per_item[j] += 1
            if out is None or not self._record(j, out):
                self.failed_per_item[j] += 1
            i += 1
            if t1 >= deadline:
                break
        elapsed = (time.perf_counter_ns() - start) / 1e9
        if tracer is not None:
            tracer.op = -1
            self._after_traced(tracer)
        return Phase(lat, elapsed)

    def _record(self, j, out):
        ok, counts = self._check(j, out)
        if self.first[j] is None:
            self.first[j] = counts
            return ok
        return ok and counts == self.first[j]

    def _after_traced(self, tracer):
        pass

    def finish(self):
        return {"passed": True}

    def _first_stats(self):
        stats = ProjStats()
        for counts in self.first:
            if counts is not None:
                stats.add(counts)
        return stats

    def exact_counts(self):
        return {"per_item": self.first}


class ProjectOneM(PoolWorkload):
    name = "project_1m"

    def __init__(self, seed, n=2**20, project=hs.project):
        rng = np.random.default_rng(seed)
        k = n // 4
        gauss_1 = rng.standard_normal(n)
        gauss_001 = rng.standard_normal(n)
        tied = np.round(rng.standard_normal(n) * 4.0) / 4.0
        # tau 1 leaves ~30% of n active, tau 0.01 ~0.3%; the tied variant has
        # only ~30 distinct values
        super().__init__([
            SimpleNamespace(x=x, spec=hs.HypersimplexSpec(n, k, tau), v=rng.standard_normal(n))
            for x, tau in ((gauss_1, 1.0), (gauss_001, 0.01), (tied, 1.0))
        ])
        self.project = project
        self.first_y = [None] * len(self.pool)
        self.bisect_gaps = []

    def _calls(self, tracer):
        calls = SimpleNamespace(project=self.project, vjp=hs.vjp)
        if tracer is not None:
            calls.project = tracer.wrap("projection.project", calls.project)
            calls.vjp = tracer.wrap("backward.vjp", calls.vjp)
        return calls

    def _op(self, item, calls):
        res = calls.project(item.x, item.spec)
        return res, calls.vjp(res, item.v)

    def _check(self, j, out):
        res, g = out
        y = res.y
        if self.first_y[j] is None:
            self.first_y[j] = y  # for the bisection check in finish
        counts = _projection_counts(res)
        ok = (
            bool(np.all(np.isfinite(y)))
            and bool(np.all(np.isfinite(g)))
            and float(y.min()) >= 0.0
            and float(y.max()) <= 1.0
            and counts["sum_residual"] <= SUM_TOL
        )
        return ok, counts

    def _after_traced(self, tracer):
        # control: one stable argsort, not part of the op
        topk = tracer.wrap("projection.hard_topk", hs.hard_topk)
        for _ in range(3):
            for item in self.pool:
                topk(item.x, item.spec.k)

    def finish(self):
        """Agreement with the independent bisection solver on every pool
        input; ops on an input that disagrees count as failed."""
        for j, item in enumerate(self.pool):
            if self.first_y[j] is None:
                self.bisect_gaps.append(None)
                continue
            y_b = hs.project_bisect(item.x, item.spec).y
            gap = float(np.max(np.abs(self.first_y[j] - y_b)))
            self.bisect_gaps.append(gap)
            if not gap <= AGREE_TOL:
                self.failed_per_item[j] = self.ops_per_item[j]
        passed = all(g is not None and g <= AGREE_TOL for g in self.bisect_gaps)
        return {"passed": passed, "bisect_max_gap": self.bisect_gaps}

    def layer_metrics(self, tracer):
        return {
            "projection.project_us_p50": p50(tracer.durations_ns("projection.project")) / 1e3,
            "backward.vjp_us_p50": p50(tracer.durations_ns("backward.vjp")) / 1e3,
            "projection.hard_topk_us_p50": p50(tracer.durations_ns("projection.hard_topk")) / 1e3,
            **self._first_stats().metrics(),
        }


class VerifyN12(PoolWorkload):
    name = "verify_n12"
    TAUS = (0.1, 1.0, 10.0)
    POOL_SIZE = 8

    def __init__(self, seed, n=12, project=hs.project):
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(self.POOL_SIZE):
            # k, tau, then x: the order check_oracle_agreement draws them in
            k = int(rng.integers(0, n + 1))
            tau = float(self.TAUS[rng.integers(0, len(self.TAUS))])
            x = rng.normal(0.0, 3.0, n)
            pool.append(SimpleNamespace(x=x, spec=hs.HypersimplexSpec(n, k, tau)))
        super().__init__(pool)
        self.n = n
        self.project = project

    def _calls(self, tracer):
        calls = SimpleNamespace(brute_force=oracle.brute_force_project, project=self.project)
        if tracer is not None:
            calls.brute_force = tracer.wrap("oracle.brute_force", calls.brute_force)
            calls.project = tracer.wrap("projection.project", calls.project)
        return calls

    def _op(self, item, calls):
        return calls.brute_force(item.x, item.spec), calls.project(item.x, item.spec)

    def _check(self, j, out):
        cert, res = out
        y_gap = float(np.max(np.abs(res.y - cert.y)))
        theta_gap = abs(res.theta - cert.theta) if res.active.size else 0.0
        counts = dict(
            _projection_counts(res),
            y_gap=y_gap,
            theta_gap=theta_gap,
            patterns=3**self.n,
        )
        ok = y_gap <= ORACLE_TOL and theta_gap <= ORACLE_TOL and cert.max_violation <= ORACLE_TOL
        return ok, counts

    def layer_metrics(self, tracer):
        bf_ns = tracer.durations_ns("oracle.brute_force")
        seen = [c for c in self.first if c is not None]
        return {
            "oracle.brute_force_ms_p50": p50(bf_ns) / 1e6,
            "oracle.patterns_per_s": 3**self.n * len(bf_ns) / (sum(bf_ns) / 1e9) if bf_ns else 0.0,
            "projection.project_us_p50": p50(tracer.durations_ns("projection.project")) / 1e3,
            "oracle.max_y_gap": max((c["y_gap"] for c in seen), default=0.0),
            "oracle.max_theta_gap": max((c["theta_gap"] for c in seen), default=0.0),
            **self._first_stats().metrics(),
        }


def _record_key(best_acc, final_loss, failed):
    """Bitwise identity of a run's outcome (float.hex also matches NaN)."""
    return (float(best_acc).hex(), float(final_loss).hex(), bool(failed))


class TrainB32:
    """SGD steps of ``train_one``'s loop, replayed from its public pieces.

    The timed region cycles through a fixed list of (seed) cells, each a
    full ``train_one`` run of ``epochs`` epochs. The first cycle always
    completes, so its records are fixed by the seed; later cycles repeat
    them and must reproduce them bit for bit, and the run is cut at the
    deadline only then.
    """

    name = "train_b32"
    LOSS = "hypersimplex"
    BATCH = 32
    CELLS = 2

    def __init__(self, seed, **config):
        self.cfg = SweepConfig(**config)
        cfg = self.cfg
        self.dataset = hs.make_synthetic(
            cfg.classes, cfg.m_train + cfg.m_test, cfg.dims, cfg.separation,
            cfg.data_seed, m_train=cfg.m_train,
        )
        d = self.dataset
        self.X_train = d.features[d.train_idx]
        self.y_train = d.labels[d.train_idx]
        self.X_test = d.features[d.test_idx]
        self.y_test = d.labels[d.test_idx]
        rng = np.random.default_rng(seed)
        self.cell_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.CELLS)]
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_cycles = []
        self.proj_stats = ProjStats()
        self._observing = False

    def warmup(self):
        model = MlpModel.init(self.X_train.shape[1], self.cfg.hidden,
                              self.dataset.num_classes, np.random.default_rng(0))
        self._step(model, np.arange(self.BATCH), self._calls(None))

    def _calls(self, tracer):
        calls = SimpleNamespace(
            forward=MlpModel.forward,
            loss=trainer.loss_layer,
            backward=MlpModel.backward,
            update=MlpModel.sgd_step,
            eval=MlpModel.scores,
        )
        if tracer is not None:
            for attr, name in (("forward", "trainer.forward"), ("loss", "trainer.loss_layer"),
                               ("backward", "trainer.backward"), ("update", "trainer.update"),
                               ("eval", "trainer.eval")):
                setattr(calls, attr, tracer.wrap(name, getattr(calls, attr)))
        return calls

    def _patch_program(self, stack, tracer):
        """Span the calls the loss layer makes inside the package."""
        class_batch = SimpleNamespace(
            from_labels=tracer.wrap("losses.class_batch", losses.ClassBatch.from_labels)
        )
        traced_project = tracer.wrap("projection.project", projection.project)

        def observed_project(x, spec):
            res = traced_project(x, spec)
            if self._observing:
                self.proj_stats.add(_projection_counts(res))
            return res

        for module, attr, replacement in (
            (trainer, "ClassBatch", class_batch),
            (trainer, "hypersimplex_loss_multiclass",
             tracer.wrap("losses.multiclass", losses.hypersimplex_loss_multiclass)),
            (losses, "project", observed_project),
            (losses, "loss_grad_from_residual",
             tracer.wrap("backward.grad", backward.loss_grad_from_residual)),
        ):
            stack.enter_context(mock.patch.object(module, attr, replacement))

    def _step(self, model, idx, calls):
        """One SGD step; False when the scores, the loss or the updated
        parameters are not finite."""
        scores, cache = calls.forward(model, self.X_train[idx])
        if not np.all(np.isfinite(scores)):
            return False
        ev = calls.loss(self.LOSS, scores, self.y_train[idx], self.cfg.tau)
        if not math.isfinite(ev.value):
            return False
        calls.update(model, calls.backward(model, cache, ev.grad), self.cfg.lr)
        return model.params_finite()

    def _cell(self, seed, calls, tracer, lat, deadline):
        """Replay train_one(seed, ...) and return its outcome key, or None
        when cut at the deadline. Mirrors train_one statement for statement."""
        cfg, d = self.cfg, self.dataset
        rng = np.random.default_rng(seed)
        model = MlpModel.init(self.X_train.shape[1], cfg.hidden, d.num_classes, rng)
        best_acc = 1.0 - hs.zero_one_loss(calls.eval(model, self.X_test), self.y_test)
        failed = False
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(cfg.epochs):
                perm = rng.permutation(d.m_train)
                for start in range(0, d.m_train, self.BATCH):
                    if tracer is not None:
                        tracer.op = self.attempted
                    t0 = time.perf_counter_ns()
                    try:
                        ok = self._step(model, perm[start : start + self.BATCH], calls)
                    except Exception as exc:  # a failing op is counted, not raised
                        ok = False
                        if len(self.errors) < 5:
                            self.errors.append(f"{type(exc).__name__}: {exc}")
                    t1 = time.perf_counter_ns()
                    lat.append(t1 - t0)
                    self.attempted += 1
                    if tracer is not None:
                        tracer.op = -1
                    if not ok:
                        self.failed += 1
                        failed = True
                        break
                    if deadline is not None and t1 >= deadline:
                        return None
                if failed:
                    break
                test_scores = calls.eval(model, self.X_test)
                if not np.all(np.isfinite(test_scores)):
                    failed = True
                    break
                best_acc = max(best_acc, 1.0 - hs.zero_one_loss(test_scores, self.y_test))

            final_train_loss = float("nan")
            if not failed:
                final_scores = model.scores(self.X_train)
                if np.all(np.isfinite(final_scores)):
                    value = trainer.loss_layer(self.LOSS, final_scores, self.y_train, cfg.tau).value
                    if math.isfinite(value):
                        final_train_loss = value
                    else:
                        failed = True
                else:
                    failed = True
        return _record_key(best_acc, final_train_loss, failed)

    def run(self, seconds, tracer=None):
        calls = self._calls(tracer)
        lat = []
        first_cycle = []
        n_cells = len(self.cell_seeds)
        with ExitStack() as stack:
            if tracer is not None:
                self._patch_program(stack, tracer)
            start = time.perf_counter_ns()
            deadline = start + int(seconds * 1e9)
            i = 0
            while True:
                in_first = i < n_cells
                self._observing = tracer is not None and in_first
                before = self.attempted
                key = self._cell(self.cell_seeds[i % n_cells], calls, tracer, lat,
                                 None if in_first else deadline)
                if in_first:
                    first_cycle.append(key)
                elif key is not None and key != first_cycle[i % n_cells]:
                    # a repeated cell that does not reproduce fails all its steps
                    self.failed += self.attempted - before
                    self.errors.append(f"cell {i % n_cells} did not repeat: {key}")
                i += 1
                if key is None or (i >= n_cells and time.perf_counter_ns() >= deadline):
                    break
            elapsed = (time.perf_counter_ns() - start) / 1e9
        self._observing = False
        self.first_cycles.append(first_cycle)
        return Phase(lat, elapsed)

    def finish(self):
        """Compare each phase's first cycle with train_one itself."""
        cfg = self.cfg
        reference = []
        for seed in self.cell_seeds:
            rec = hs.train_one(seed, self.dataset, self.LOSS, self.BATCH, cfg.tau,
                               cfg.lr, cfg.epochs, hidden=cfg.hidden)
            reference.append(_record_key(rec.best_test_acc, rec.final_train_loss, rec.failed))
        matches = all(cycle == reference for cycle in self.first_cycles)
        return {"passed": matches, "replay_matches_train_one": matches,
                "train_one_records": reference}

    def best_test_acc(self):
        return float(np.mean([float.fromhex(k[0]) for k in self.first_cycles[0]]))

    def exact_counts(self):
        return {"cells": self.first_cycles[0], "cell_seeds": self.cell_seeds}

    def layer_metrics(self, tracer):
        def step_us(name):
            return p50(tracer.durations_ns(name, in_ops_only=True)) / 1e3

        steps = tracer.count("trainer.loss_layer", in_ops_only=True)
        return {
            "trainer.forward_us_p50": step_us("trainer.forward"),
            "trainer.loss_layer_us_p50": step_us("trainer.loss_layer"),
            "trainer.backward_us_p50": step_us("trainer.backward"),
            "trainer.update_us_p50": step_us("trainer.update"),
            "losses.class_batch_us_p50": step_us("losses.class_batch"),
            "losses.multiclass_us_p50": step_us("losses.multiclass"),
            "projection.project_us_p50": step_us("projection.project"),
            "backward.grad_us_p50": step_us("backward.grad"),
            "trainer.eval_ms_p50": p50(tracer.durations_ns("trainer.eval")) / 1e6,
            "losses.projection_calls_per_step":
                tracer.count("projection.project", in_ops_only=True) / max(steps, 1),
            "trainer.best_test_acc": self.best_test_acc(),
            **self.proj_stats.metrics(),
        }


WORKLOADS = {w.name: w for w in (ProjectOneM, TrainB32, VerifyN12)}
