import numpy as np
import pytest

from hypersimplex import (
    HypersimplexSpec,
    jvp,
    loss_grad_from_residual,
    project,
    vjp,
)


def worked_result(tau=1.0):
    return project(np.array([3.0, 1.0, 0.5, -2.0]), HypersimplexSpec(4, 2, tau))


class TestJvp:
    def test_centers_tangent_on_active_set(self):
        out = jvp(worked_result(), np.array([5.0, 2.0, 4.0, 7.0]))
        np.testing.assert_allclose(out, [0.0, -1.0, 1.0, 0.0], atol=1e-12)

    def test_annihilates_constants(self):
        out = jvp(worked_result(), np.ones(4))
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-12)

    def test_empty_active_set_gives_zero(self):
        res = project(np.array([1.0, 2.0, 3.0]), HypersimplexSpec(3, 0, 1.0))
        assert jvp(res, np.array([4.0, 5.0, 6.0])).tolist() == [0.0, 0.0, 0.0]
        res = project(np.array([1.0, 2.0, 3.0]), HypersimplexSpec(3, 3, 1.0))
        assert jvp(res, np.array([4.0, 5.0, 6.0])).tolist() == [0.0, 0.0, 0.0]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            jvp(worked_result(), np.ones(5))

    def test_rejects_non_result_input(self):
        with pytest.raises(TypeError):
            jvp(np.ones(4), np.ones(4))

    def test_rejects_nonfinite_tangent(self):
        with pytest.raises(ValueError):
            jvp(worked_result(), np.array([1.0, np.inf, 0.0, 0.0]))

    def test_output_sums_to_zero(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            res = project(rng.normal(0, 2, n),
                          HypersimplexSpec(n, int(rng.integers(0, n + 1)), 1.0))
            assert jvp(res, rng.normal(0, 5, n)).sum() == pytest.approx(0.0, abs=1e-9)

    def test_idempotent_on_its_range(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            res = project(rng.normal(0, 2, n),
                          HypersimplexSpec(n, int(rng.integers(1, n + 1)), 1.0))
            v = rng.normal(0, 3, n)
            once = jvp(res, v)
            np.testing.assert_allclose(jvp(res, once), once, atol=1e-12)

    def test_matches_finite_differences_away_from_boundaries(self):
        rng = np.random.default_rng(52)
        checked = 0
        while checked < 50:
            n = int(rng.integers(4, 16))
            k = int(rng.integers(1, n))
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            spec = HypersimplexSpec(n, k, tau)
            x = rng.normal(0, 3, n)
            res = project(x, spec)
            d = x / tau - res.theta
            if np.min(np.minimum(np.abs(d), np.abs(d - 1.0))) <= 1e-3:
                continue
            v = rng.normal(0, 1, n)
            h = 1e-6
            fd = (project(x + h * v, spec).y - project(x - h * v, spec).y) / (2 * h)
            np.testing.assert_allclose(jvp(res, v) / tau, fd, atol=1e-6)
            checked += 1


class TestVjp:
    def test_matches_jvp_by_symmetry(self):
        out = vjp(worked_result(), np.array([5.0, 2.0, 4.0, 7.0]))
        np.testing.assert_allclose(out, [0.0, -1.0, 1.0, 0.0], atol=1e-12)

    def test_cotangent_off_active_set_gives_zero(self):
        out = vjp(worked_result(), np.array([9.0, 0.0, 0.0, -4.0]))
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-12)

    def test_single_active_indicator_splits_evenly(self):
        out = vjp(worked_result(), np.array([0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, -0.5, 0.0], atol=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            res = project(rng.normal(0, 2, n),
                          HypersimplexSpec(n, int(rng.integers(0, n + 1)), 1.0))
            v = rng.normal(0, 1, n)
            u = rng.normal(0, 1, n)
            assert np.dot(jvp(res, v), u) == pytest.approx(np.dot(v, vjp(res, u)), abs=1e-9)


class TestLossGradFromResidual:
    def test_worked_example(self):
        res = worked_result()
        grad = loss_grad_from_residual(res, res.y - np.array([1.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(grad, [0.0, -0.25, 0.25, 0.0], atol=1e-12)

    def test_zero_residual_gives_zero_gradient(self):
        res = worked_result()
        np.testing.assert_allclose(
            loss_grad_from_residual(res, np.zeros(4)), np.zeros(4), atol=1e-12
        )

    def test_scales_by_the_temperature_of_the_result(self):
        res = worked_result(tau=2.0)
        resid = np.array([0.5, -0.25, 0.25, -0.5])
        assert res.spec.tau == 2.0
        np.testing.assert_array_equal(
            loss_grad_from_residual(res, resid), jvp(res, resid) / res.spec.tau)
