import itertools

import numpy as np
import pytest

from hypersimplex import (
    HypersimplexSpec,
    pav_decreasing,
    project,
    project_sorted_via_isotonic,
)


def brute_force_decreasing_fit(v):
    """Best nonincreasing fit by trying every contiguous block partition."""
    n = v.size
    best = None
    best_sse = np.inf
    for cuts in itertools.product([False, True], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        fitted = np.empty(n)
        means = []
        for lo, hi in zip(bounds, bounds[1:]):
            m = v[lo:hi].mean()
            means.append(m)
            fitted[lo:hi] = m
        if any(a < b - 1e-12 for a, b in zip(means, means[1:])):
            continue
        sse = float(np.sum((v - fitted) ** 2))
        if sse < best_sse:
            best_sse = sse
            best = fitted
    return best, best_sse


class TestPavDecreasing:
    def test_pools_single_violation(self):
        fit = pav_decreasing(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(fit.fitted, [3.0, 1.5, 1.5], atol=1e-12)
        assert fit.blocks == [(0, 1, 3.0), (1, 3, 1.5)]

    def test_identity_on_monotone_input(self):
        fit = pav_decreasing(np.array([5.0, 4.0, 3.0]))
        np.testing.assert_allclose(fit.fitted, [5.0, 4.0, 3.0], atol=1e-12)
        assert len(fit.blocks) == 3

    def test_fit_of_nonincreasing_input_is_the_input_bit_for_bit(self):
        # the fact project_sorted_via_isotonic rests on: it solves on its
        # sorted input without running PAV
        rng = np.random.default_rng(48)
        for _ in range(600):
            n = int(rng.integers(1, 80))
            v = rng.choice([rng.normal(0, 2, n), np.round(rng.normal(0, 1, n) * 4) / 4,
                            rng.choice([0.0, -0.0, 1.0, -1.0], n)])
            v = np.sort(v)[::-1] / float(rng.choice([1e-3, 0.5, 1.0, 3.0]))
            fit = pav_decreasing(v)
            assert fit.fitted.tobytes() == v.tobytes()
            assert len(fit.blocks) == n

    def test_constant_input(self):
        fit = pav_decreasing(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(fit.fitted, [1.0, 1.0, 1.0], atol=1e-12)

    def test_increasing_input_pools_to_global_mean(self):
        fit = pav_decreasing(np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(fit.fitted, np.full(4, 2.5), atol=1e-12)
        assert fit.blocks == [(0, 4, 2.5)]

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            pav_decreasing(np.array([1.0, np.nan]))

    def test_output_is_nonincreasing(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            v = rng.normal(0, 2, int(rng.integers(1, 50)))
            fit = pav_decreasing(v)
            assert np.all(np.diff(fit.fitted) <= 1e-12)

    def test_blocks_tile_the_index_range_with_their_means(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            v = rng.normal(0, 1, int(rng.integers(1, 30)))
            fit = pav_decreasing(v)
            assert fit.blocks[0][0] == 0
            assert fit.blocks[-1][1] == v.size
            for (s0, e0, m0), (s1, e1, m1) in zip(fit.blocks, fit.blocks[1:]):
                assert e0 == s1
                assert m0 >= m1 - 1e-12
            for s, e, m in fit.blocks:
                assert m == pytest.approx(v[s:e].mean(), abs=1e-9)
                np.testing.assert_allclose(fit.fitted[s:e], m, atol=1e-12)

    def test_matches_brute_force_partition_search(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            v = rng.normal(0, 1, int(rng.integers(1, 7)))
            fit = pav_decreasing(v)
            _, best_sse = brute_force_decreasing_fit(v)
            sse = float(np.sum((v - fit.fitted) ** 2))
            assert sse <= best_sse + 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            v = rng.normal(0, 3, int(rng.integers(1, 40)))
            once = pav_decreasing(v).fitted
            twice = pav_decreasing(once).fitted
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_preserves_mean(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            v = rng.normal(0, 3, int(rng.integers(1, 40)))
            assert pav_decreasing(v).fitted.sum() == pytest.approx(v.sum(), abs=1e-9)


class TestProjectSortedViaIsotonic:
    def test_worked_example(self):
        y = project_sorted_via_isotonic(np.array([3.0, 1.0, 0.5, -2.0]),
                                        HypersimplexSpec(4, 2, 1.0))
        np.testing.assert_allclose(y, [1.0, 0.75, 0.25, 0.0], atol=1e-9)

    def test_constant_input_gives_uniform(self):
        y = project_sorted_via_isotonic(np.full(4, 2.0), HypersimplexSpec(4, 3, 1.0))
        np.testing.assert_allclose(y, np.full(4, 0.75), atol=1e-12)

    def test_full_cardinality_gives_all_ones(self):
        y = project_sorted_via_isotonic(np.array([2.0, 1.0]), HypersimplexSpec(2, 2, 1.0))
        assert y.tolist() == [1.0, 1.0]

    def test_rejects_unsorted_input(self):
        with pytest.raises(ValueError):
            project_sorted_via_isotonic(np.array([1.0, 2.0]), HypersimplexSpec(2, 1, 1.0))

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("x", [[1e300, 1e300, 0.0], [1e300, 0.0, -1e300]])
    def test_rejects_overflowing_scaled_input(self, k, x):
        with pytest.raises(ValueError, match="overflows"):
            project_sorted_via_isotonic(np.array(x), HypersimplexSpec(3, k, 1e-10))

    def test_equals_general_projection_on_sorted_input(self):
        rng = np.random.default_rng(46)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            spec = HypersimplexSpec(n, int(rng.integers(0, n + 1)),
                                    float(rng.choice([0.2, 1.0, 5.0])))
            x = np.sort(rng.normal(0, 2, n))[::-1].copy()
            y_iso = project_sorted_via_isotonic(x, spec)
            y_gen = project(x, spec).y
            np.testing.assert_allclose(y_iso, y_gen, atol=1e-9)

    @pytest.mark.parametrize("n", [40, 300])  # either side of the scalar walk's cut-off
    def test_solves_on_its_fit_without_sorting_it(self, monkeypatch, n):
        def no_sort(u):
            raise AssertionError("the isotonic route sorted its nonincreasing fit")

        monkeypatch.setattr("hypersimplex.projection._sort_desc", no_sort)
        # a name imported into isotonic would hold its own reference
        monkeypatch.setattr("hypersimplex.isotonic._sort_desc", no_sort, raising=False)
        x = np.sort(np.random.default_rng(n).normal(0, 2, n))[::-1].copy()
        spec = HypersimplexSpec(n, n // 3, 0.5)
        y = project_sorted_via_isotonic(x, spec)
        monkeypatch.undo()
        np.testing.assert_array_equal(y, project(x, spec).y)

    @pytest.mark.parametrize("n", [1, 40, 300])  # either side of the scalar walk's cut-off
    def test_runs_no_pav_pass(self, monkeypatch, n):
        def no_pav(v):
            raise AssertionError("the isotonic route ran PAV on its sorted input")

        monkeypatch.setattr("hypersimplex.isotonic._pav_decreasing", no_pav)
        x = np.sort(np.round(np.random.default_rng(n).normal(0, 2, n) * 4) / 4)[::-1].copy()
        for k in range(n + 1):
            spec = HypersimplexSpec(n, k, 0.5)
            assert project_sorted_via_isotonic(x, spec).tobytes() == project(x, spec).y.tobytes()

    def test_output_is_monotone_and_feasible(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(0, n + 1))
            x = np.sort(rng.normal(0, 2, n))[::-1].copy()
            y = project_sorted_via_isotonic(x, HypersimplexSpec(n, k, 1.0))
            assert np.all(np.diff(y) <= 1e-12)
            assert abs(y.sum() - k) <= 1e-9
            assert np.all((y >= 0.0) & (y <= 1.0))
