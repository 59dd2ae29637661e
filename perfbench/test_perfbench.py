"""Tests of the benchmark harness itself, on tiny instances.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

hs = run.import_program()

from hypersimplex.verify import corrupted_project  # noqa: E402

TINY = {
    "project_1m": {"n": 64},
    "train_b32": {"m_train": 256, "m_test": 64, "epochs": 2},
    "verify_n12": {"n": 6},
}

EXACT = (
    "projection.active_frac",
    "projection.degenerate_count",
    "projection.max_sum_residual",
    "losses.projection_calls_per_step",
    "trainer.best_test_acc",
    "oracle.max_y_gap",
    "oracle.max_theta_gap",
)


def tiny_run(name, seed=0, trace=0, **extra):
    return run.run_workload(name, seed, 0.2, trace, hs, **TINY[name], **extra)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", (0, 1))
def test_clean_run_reports_every_metric(name, trace):
    detail, result = tiny_run(name, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert detail["failed_ops_frac"] == 0.0
    for key in ("backend", "python", "numpy", "blas", "cpu_count", "blas_threads",
                "git_revision", "source_sha256", "seed"):
        assert key in detail["meta"]


@pytest.mark.parametrize("name", ("project_1m", "verify_n12"))
def test_corrupted_project_fails_ops(name):
    detail, result = tiny_run(name, project=corrupted_project)
    assert not result["correct"]
    assert result["failed"] > 0
    assert detail["failed_ops_frac"] > 0.0


def test_train_replay_matches_train_one():
    detail, result = tiny_run("train_b32", trace=1)
    assert detail["trace_valid"]
    assert detail["exact_counts"]["cells"] == detail["checks"]["train_one_records"]
    assert result["metrics"]["losses.projection_calls_per_step"]["value"] == 5.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counts_repeat_across_runs(name):
    first_detail, first = tiny_run(name, seed=3, trace=1)
    again_detail, again = tiny_run(name, seed=3, trace=1)
    assert first_detail["exact_counts"] == again_detail["exact_counts"]
    for key in EXACT:
        assert first["metrics"][key] == again["metrics"][key]
    # a held-out seed yields the full metric set, with its own inputs
    held_detail, held = tiny_run(name, seed=12345, trace=1)
    assert held["correct"]
    assert set(held["metrics"]) == set(run.PER_LAYER)
    assert held_detail["meta"]["seed"] == 12345


def test_benchmark_json_matches_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(TINY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_n12", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
