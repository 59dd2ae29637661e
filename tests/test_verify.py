import numpy as np
import pytest

from hypersimplex.verify import (
    CheckResult,
    GradcheckReport,
    check_feasibility,
    check_hard_limit,
    check_idempotence,
    check_lipschitz,
    check_oracle_agreement,
    check_order_preservation,
    check_permutation_equivariance,
    check_result_consistency,
    check_solver_agreement,
    check_translation_invariance,
    corrupted_project,
    run_gradcheck,
    run_verify,
)

# sample sizes here are scaled down; the acceptance suite runs the checks at
# their full advertised sizes

EXPECTED_CHECKS = [
    "oracle_agreement",
    "feasibility",
    "order_preservation",
    "translation_invariance",
    "lipschitz",
    "solver_agreement",
    "permutation_equivariance",
    "idempotence",
    "hard_limit",
    "result_consistency",
]


class TestIndividualChecks:
    def test_each_check_passes_on_the_real_projection(self):
        results = [
            check_oracle_agreement(num=50, seed=0),
            check_feasibility(num=300, seed=1),
            check_order_preservation(num=300, seed=2),
            check_translation_invariance(num=100, seed=3),
            check_lipschitz(num=300, seed=4),
            check_solver_agreement(num=300, seed=5),
            check_permutation_equivariance(num=100, seed=6),
            check_idempotence(num=100, seed=7),
            check_hard_limit(num=100, seed=8),
            check_result_consistency(num=100, seed=9),
        ]
        for res in results:
            assert isinstance(res, CheckResult)
            assert res.passed, f"{res.name}: {res.detail}"
            assert res.detail

    def test_checks_are_deterministic_per_seed(self):
        a = check_feasibility(num=100, seed=42)
        b = check_feasibility(num=100, seed=42)
        assert a == b


class TestRunVerify:
    def test_returns_every_check_in_order(self):
        results = run_verify(num_oracle=30, num_vectors=200, num_aux=60, seed=0)
        assert [r.name for r in results] == EXPECTED_CHECKS
        assert all(r.passed for r in results)

    def test_corrupted_projection_is_caught(self):
        results = run_verify(num_oracle=30, num_vectors=200, num_aux=60, seed=0,
                             project_fn=corrupted_project)
        failed = {r.name for r in results if not r.passed}
        # a shifted threshold breaks optimality and the sum constraint
        assert "oracle_agreement" in failed
        assert "feasibility" in failed

    def test_n_cap_respected_by_oracle_check(self):
        res = check_oracle_agreement(num=20, seed=0, n_max=5)
        assert res.passed

    @pytest.mark.parametrize("n_max", [-1, 0, 1, 13])
    def test_oracle_check_rejects_n_max_outside_its_range(self, n_max):
        with pytest.raises(ValueError, match="capped at n = 12"):
            check_oracle_agreement(num=5, seed=0, n_max=n_max)

    @pytest.mark.parametrize("counts", [(0, 10, 10), (10, 0, 10), (10, 10, 0), (10, 10, -1)])
    def test_rejects_instance_counts_below_one(self, counts):
        num_oracle, num_vectors, num_aux = counts
        with pytest.raises(ValueError, match="must be >= 1"):
            run_verify(num_oracle=num_oracle, num_vectors=num_vectors, num_aux=num_aux)


class TestGradcheck:
    def test_passes_at_default_tolerance(self):
        report = run_gradcheck(num=40, seed=0)
        assert isinstance(report, GradcheckReport)
        assert report.num_points == 40
        assert report.passed
        assert report.worst_rel_err < 1e-5

    def test_passed_property_follows_tolerance(self):
        report = run_gradcheck(num=10, seed=0)
        tight = GradcheckReport(report.worst_rel_err, 10, report.worst_rel_err / 2)
        assert not tight.passed

    def test_deterministic_per_seed(self):
        a = run_gradcheck(num=15, seed=3)
        b = run_gradcheck(num=15, seed=3)
        assert a.worst_rel_err == b.worst_rel_err

    @pytest.mark.parametrize("num", [0, -1])
    def test_rejects_num_below_one(self, num):
        with pytest.raises(ValueError, match="num must be >= 1"):
            run_gradcheck(num=num)

    @pytest.mark.parametrize("tol", [0.0, -1e-5, float("inf"), float("nan")])
    def test_rejects_tolerance_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            run_gradcheck(num=5, tol=tol)


class TestCorruptedProject:
    def test_shifted_threshold_breaks_the_sum(self):
        from hypersimplex import HypersimplexSpec

        rng = np.random.default_rng(97)
        x = rng.normal(0, 2, 8)
        spec = HypersimplexSpec(8, 3, 1.0)
        res = corrupted_project(x, spec)
        assert abs(float(res.y.sum()) - 3.0) > 1e-6
