import numpy as np
import pytest

import hypersimplex as hs
from hypersimplex.backward import _center_on_active
from hypersimplex.isotonic import _pav_decreasing
from hypersimplex.projection import (
    BOUNDARY_TOL,
    _prefix_sums,
    _theta_from_sorted_numpy,
    _theta_from_sorted_py,
)


def _center_on_active_py(v, active_idx, n):
    # the scalar centring loop, the oracle for backward._center_on_active
    out = np.zeros(n, dtype=np.float64)
    m = active_idx.shape[0]
    if m == 0:
        return out
    s = 0.0
    for j in range(m):
        s += v[active_idx[j]]
    mean = s / m
    for j in range(m):
        i = active_idx[j]
        out[i] = v[i] - mean
    return out


def sorted_case(rng, n):
    u = np.sort(rng.normal(0, 3, n))[::-1].copy()
    prefix = np.concatenate(([0.0], np.cumsum(u)))
    return u, prefix


def clip_sum(u, theta):
    return float(np.sum(np.clip(u - theta, 0.0, 1.0)))


def test_get_backend_names_numpy():
    # the benchmark records this name in the metadata of every run
    assert hs.get_backend().name == "numpy"


class TestThetaFromSorted:
    def test_backends_agree_and_are_feasible(self):
        rng = np.random.default_rng(80)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            u, prefix = sorted_case(rng, n)
            k = float(rng.integers(0, n + 1))
            th = _theta_from_sorted_numpy(u, prefix, k)
            assert abs(th - _theta_from_sorted_py(u, prefix, k)) <= 1e-12
            assert clip_sum(u, th) == pytest.approx(k, abs=1e-9)

    @pytest.mark.parametrize("n", [65, 1000, 10**4, 10**5])
    def test_large_n_matches_scalar_walk(self, n):
        # sizes the n < 40 cases above never reach: above n = 128 a 128-way
        # search brackets each window; inputs sorted and summed as in project
        rng = np.random.default_rng(n)
        inputs = {
            "gaussian": rng.normal(0, 1, n),
            "ties": np.round(rng.normal(0, 1, n) * 4.0) / 4.0,
            "offset": 1e3 + rng.normal(0, 1, n),
        }
        for name, x in inputs.items():
            for tau in (1e-3, 1.0, 10.0):
                u_sorted = np.sort(x / tau)[::-1]
                prefix = _prefix_sums(u_sorted)
                for k in (1, n // 4, n - 1):
                    case = (name, tau, k)
                    th = _theta_from_sorted_numpy(u_sorted, prefix, float(k))
                    th_ref = _theta_from_sorted_py(u_sorted, prefix, float(k))
                    y = np.clip(u_sorted - th, 0.0, 1.0)
                    y_ref = np.clip(u_sorted - th_ref, 0.0, 1.0)
                    assert y.tobytes() == y_ref.tobytes(), case
                    interior = (y > BOUNDARY_TOL) & (y < 1.0 - BOUNDARY_TOL)
                    if interior.any():
                        assert abs(th - th_ref) <= 1e-12, case

    @pytest.mark.parametrize("level,n,k", [
        (1.0 / 3.0, 3000, 300),
        (0.1, 4000, 100),
        # found by a seeded search: the first event that reaches k lies
        # more than a window below the one the bracketing lands on
        (0.6862394816939799, 3000, 43),
        (0.11899844600539033, 10000, 2134),
        (1.843007580560939, 1000, 12),
    ])
    def test_plateau_at_k_matches_scalar_walk(self, level, n, k):
        # k entries at level + 1 over n - k tied at level: the clip sum equals
        # k along the whole tied run, and rounding moves it to either side
        u = np.full(n, level)
        u[:k] += 1.0
        prefix = _prefix_sums(u)
        th = _theta_from_sorted_numpy(u, prefix, float(k))
        assert th == _theta_from_sorted_py(u, prefix, float(k))

    def test_equals_scalar_walk_exactly_up_to_n_200(self):
        # every k in [1, n - 1], and each n with one of three input kinds:
        # Gaussian, ties on a 0.25 grid and a 1e3 offset; sorted and summed
        # as project does, and compared with ==, not a tolerance. The walk
        # gives the same theta on arrays and on their lists of Python floats
        rng = np.random.default_rng(83)
        cases = 0
        for n in range(1, 201):
            x = rng.normal(0, 1, n)
            x = (x, np.round(x * 4.0) / 4.0, 1e3 + x)[n % 3]
            u_sorted = np.sort(x)[::-1]
            prefix = _prefix_sums(u_sorted)
            u_list, prefix_list = u_sorted.tolist(), prefix.tolist()
            for k in range(1, n):
                th = _theta_from_sorted_numpy(u_sorted, prefix, float(k))
                assert th == _theta_from_sorted_py(u_sorted, prefix, float(k)), (n, k)
                assert th == _theta_from_sorted_py(u_list, prefix_list, float(k)), (n, k)
                cases += 1
        assert cases == 199 * 200 // 2

    def test_duplicate_values(self):
        u = np.array([2.0, 2.0, 2.0, 0.0])
        prefix = np.concatenate(([0.0], np.cumsum(u)))
        th = _theta_from_sorted_numpy(u, prefix, 2.0)
        assert clip_sum(u, th) == pytest.approx(2.0, abs=1e-12)

    def test_interior_fractional_segment(self):
        # clip(u - theta) is strictly between 0 and 1 for the middle entries
        u = np.array([3.0, 1.0, 0.5, -2.0])
        prefix = np.concatenate(([0.0], np.cumsum(u)))
        th = _theta_from_sorted_numpy(u, prefix, 2.0)
        assert th == pytest.approx(0.25, abs=1e-12)


class TestPrefixSums:
    def test_same_bytes_as_cumsum_after_zero(self):
        rng = np.random.default_rng(84)
        for n in (1, 2, 7, 32, 1000):
            for v in (rng.normal(0, 1, n), 1e3 + rng.normal(0, 1, n),
                      np.round(rng.normal(0, 1, n) * 4.0) / 4.0):
                expected = np.array([0.0, *np.cumsum(v)])
                assert _prefix_sums(v).tobytes() == expected.tobytes()


class TestCenterOnActive:
    def test_backends_agree(self):
        rng = np.random.default_rng(81)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            v = rng.normal(0, 2, n)
            m = int(rng.integers(0, n + 1))
            active = np.sort(rng.permutation(n)[:m]).astype(np.int64)
            np.testing.assert_allclose(_center_on_active(v, active, np.zeros(n)),
                                       _center_on_active_py(v, active, n),
                                       atol=1e-15)

    def test_same_bytes_as_scatter_of_centred_gather(self):
        # into a zeroed vector, as jvp calls it, and into column c of a
        # zeroed C-contiguous (n, C) array, as the multiclass loss does: that
        # column gets the same bytes and every other entry stays 0.0
        rng = np.random.default_rng(85)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            v = rng.normal(0, 2, n) + float(rng.choice([0.0, 1e3]))
            m = int(rng.integers(0, n + 1))
            active = np.sort(rng.permutation(n)[:m]).astype(np.int64)
            expected = np.zeros(n)
            if m:
                expected[active] = v[active] - v[active].mean()
            out = _center_on_active(v, active, np.zeros(n))
            assert out.tobytes() == expected.tobytes()
            C = int(rng.integers(2, 6))
            c = int(rng.integers(0, C))
            grad = np.zeros((n, C))
            _center_on_active(v, active, grad[:, c])
            assert grad[:, c].tobytes() == expected.tobytes()
            others = np.delete(grad, c, axis=1)
            assert others.tobytes() == np.zeros_like(others).tobytes()

    def test_zero_mean_on_active_and_zero_off_active(self):
        rng = np.random.default_rng(82)
        v = rng.normal(0, 1, 10)
        active = np.array([1, 4, 7], dtype=np.int64)
        out = _center_on_active(v, active, np.zeros(10))
        assert out[active].sum() == pytest.approx(0.0, abs=1e-12)
        mask = np.ones(10, dtype=bool)
        mask[active] = False
        np.testing.assert_array_equal(out[mask], 0.0)

    def test_empty_active_set(self):
        out = _center_on_active(
            np.array([1.0, 2.0]), np.empty(0, dtype=np.int64), np.zeros(2))
        np.testing.assert_array_equal(out, [0.0, 0.0])


class TestPavDecreasing:
    def test_pooling_example(self):
        fit, starts, means = _pav_decreasing(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(fit, [3.0, 1.5, 1.5], atol=1e-15)
        assert list(starts) == [0, 1]
        np.testing.assert_allclose(means, [3.0, 1.5], atol=1e-15)
        assert (fit.dtype, starts.dtype, means.dtype) == (np.float64, np.int64, np.float64)
