import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from hypersimplex import HypersimplexSpec, hard_topk, jvp, project
from hypersimplex.oracle import (
    MAX_ORACLE_N,
    _patterns,
    brute_force_project,
    exhaustive_topk,
    fd_jacobian,
)


def kkt_enumeration(x, spec):
    """(y, theta, max_violation) of the first least-violating boundary pattern,
    scored coordinate by coordinate in plain Python.

    itertools.product varies its last factor fastest, so with each tuple
    reversed (digit i weighs 3^i) the patterns come in increasing code order.
    Digits: 0 pins y_i = 0, 1 leaves y_i = u_i - theta interior, 2 pins y_i = 1.
    """
    u = [float(v) / spec.tau for v in x]
    best = None
    for pattern in itertools.product((0, 1, 2), repeat=spec.n):
        digits = pattern[::-1]
        act = [u[i] for i, g in enumerate(digits) if g == 1]
        n_one = digits.count(2)
        if act:
            theta = (n_one + sum(act) - spec.k) / len(act)
        else:
            lo = max((u[i] for i, g in enumerate(digits) if g == 0), default=-math.inf)
            hi = min((u[i] for i, g in enumerate(digits) if g == 2), default=math.inf) - 1.0
            if math.isfinite(lo) and math.isfinite(hi):
                theta = 0.5 * (lo + hi)
            else:
                theta = lo if math.isfinite(lo) else hi
        breaches = []
        for ui, g in zip(u, digits):
            d = ui - theta
            if g == 0:
                breaches.append(max(d, 0.0))
            elif g == 1:
                breaches.append(max(-d, 0.0) + max(d - 1.0, 0.0))
            else:
                breaches.append(max(1.0 - d, 0.0))
        gap = abs(n_one + sum(a - theta for a in act) - spec.k)
        total = sum(breaches) + gap
        if best is None or total < best[0]:
            y = [ui - theta if g == 1 else float(g == 2) for ui, g in zip(u, digits)]
            best = (total, y, theta, max(max(breaches), gap))
    return np.array(best[1]), best[2], best[3]


class TestPatternTable:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_are_base3_digits_of_their_code(self, n):
        digits, m, n_one = _patterns(n)
        codes = np.arange(3**n)
        expected = np.stack([(codes // 3**i) % 3 for i in range(n)], axis=1)
        assert digits.dtype == m.dtype == n_one.dtype == np.int8
        np.testing.assert_array_equal(digits, expected)
        np.testing.assert_array_equal(m, np.count_nonzero(expected == 1, axis=1))
        np.testing.assert_array_equal(n_one, np.count_nonzero(expected == 2, axis=1))

    def test_shared_table_is_read_only(self):
        for a in _patterns(3):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_not_built_at_import(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import hypersimplex.oracle as o; print(o._patterns.cache_info().currsize)"],
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "0"


class TestBruteForceProject:
    def test_worked_example(self):
        cert = brute_force_project(np.array([3.0, 1.0, 0.5, -2.0]),
                                   HypersimplexSpec(4, 2, 1.0))
        np.testing.assert_allclose(cert.y, [1.0, 0.75, 0.25, 0.0], atol=1e-12)
        assert cert.theta == pytest.approx(0.25, abs=1e-12)
        assert cert.max_violation <= 1e-8

    def test_constant_input_gives_uniform(self):
        cert = brute_force_project(np.full(5, 2.0), HypersimplexSpec(5, 2, 1.0))
        np.testing.assert_allclose(cert.y, np.full(5, 0.4), atol=1e-10)

    def test_full_cardinality_gives_all_ones(self):
        cert = brute_force_project(np.array([4.0, -1.0, 0.5]), HypersimplexSpec(3, 3, 1.0))
        np.testing.assert_allclose(cert.y, np.ones(3), atol=1e-10)

    def test_zero_cardinality_gives_all_zeros(self):
        cert = brute_force_project(np.array([4.0, -1.0]), HypersimplexSpec(2, 0, 1.0))
        np.testing.assert_allclose(cert.y, np.zeros(2), atol=1e-10)

    def test_refuses_large_dimension(self):
        with pytest.raises(ValueError):
            brute_force_project(np.zeros(MAX_ORACLE_N + 1),
                                HypersimplexSpec(MAX_ORACLE_N + 1, 1, 1.0))

    @pytest.mark.parametrize("x", [[1e300, -1e300, 0.0], [1e300, 1e300, 0.0]])
    def test_overflowing_scaled_input_rejected(self, x):
        with pytest.raises(ValueError, match="overflows"):
            brute_force_project(np.array(x), HypersimplexSpec(3, 1, 1e-10))

    @pytest.mark.parametrize("x, k", [([0.0, -2.0**54], 2), ([2.0**54], 1),
                                      ([0.0, 2.0**53], 1)])
    def test_refuses_scaled_input_from_2_to_53(self, x, k):
        # u - 1 == u there: it returned y = [2, 0] and y = [0] for the first two
        with pytest.raises(ValueError, match="2\\^53"):
            brute_force_project(np.array(x), HypersimplexSpec(len(x), k, 1.0))

    def test_accepts_scaled_input_just_below_2_to_53(self):
        cert = brute_force_project(np.array([0.0, -(2.0**53 - 2.0)]), HypersimplexSpec(2, 2, 1.0))
        assert cert.y.tolist() == [1.0, 1.0]
        assert cert.max_violation == 0.0

    def test_requires_spec_object(self):
        with pytest.raises(TypeError):
            brute_force_project(np.zeros(3), (3, 1, 1.0))

    def test_agrees_with_fast_solver(self):
        rng = np.random.default_rng(30)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(0, n + 1))
            tau = float(rng.choice([0.1, 1.0, 10.0]))
            x = rng.normal(0, 3, n)
            spec = HypersimplexSpec(n, k, tau)
            cert = brute_force_project(x, spec)
            res = project(x, spec)
            worst = max(worst, float(np.max(np.abs(cert.y - res.y))))
            assert cert.max_violation <= 1e-8
            if res.active.size:
                assert abs(cert.theta - res.theta) <= 1e-8
        assert worst <= 1e-8

    def test_matches_plain_enumeration(self):
        # Gaussian scores and 0.25-grid ties (exact boundary hits); every
        # fourth instance has k = 0 and every fourth k = n
        rng = np.random.default_rng(32)
        for i in range(200):
            n = int(rng.integers(1, 7))
            k = (0, n, int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1)))[i % 4]
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            x = rng.normal(0, 2, n) if i % 2 else rng.integers(-8, 9, n) * 0.25
            spec = HypersimplexSpec(n, k, tau)
            cert = brute_force_project(x, spec)
            y, theta, violation = kkt_enumeration(x, spec)
            np.testing.assert_allclose(cert.y, y, rtol=0, atol=1e-12)
            assert cert.theta == pytest.approx(theta, rel=0, abs=1e-12)
            assert cert.max_violation == pytest.approx(violation, rel=0, abs=1e-12)

    def test_results_do_not_depend_on_call_order(self):
        rng = np.random.default_rng(33)
        small, large = HypersimplexSpec(3, 1, 1.0), HypersimplexSpec(MAX_ORACLE_N, 5, 1.0)
        xs, xl = rng.normal(0, 3, 3), rng.normal(0, 3, MAX_ORACLE_N)
        _patterns.cache_clear()
        certs = [brute_force_project(x, spec)
                 for x, spec in ((xs, small), (xl, large), (xs, small), (xl, large))]
        for a, b in ((certs[0], certs[2]), (certs[1], certs[3])):
            np.testing.assert_array_equal(a.y, b.y)
            assert (a.theta, a.max_violation) == (b.theta, b.max_violation)
        assert certs[1].max_violation <= 1e-8
        np.testing.assert_allclose(certs[1].y, project(xl, large).y, rtol=0, atol=1e-8)

    def test_certificate_reports_genuine_violations(self):
        # a feasible but suboptimal pattern cannot beat the minimizer, so the
        # winning certificate of a clean solve always scores ~0
        cert = brute_force_project(np.array([2.0, 1.0, 1.0, 0.0]),
                                   HypersimplexSpec(4, 2, 1.0))
        assert cert.max_violation <= 1e-12
        np.testing.assert_allclose(cert.y, [1.0, 0.5, 0.5, 0.0], atol=1e-10)


class TestExhaustiveTopk:
    def test_single_maximum(self):
        assert exhaustive_topk(np.array([0.1, 1.6, 1.0]), 1).tolist() == [0, 1, 0]

    def test_zero_cardinality(self):
        assert exhaustive_topk(np.array([3.0, 1.0]), 0).tolist() == [0, 0]

    def test_tie_break_matches_fast_path(self):
        assert exhaustive_topk(np.array([1.0, 1.0, 0.0]), 1).tolist() == [1, 0, 0]

    def test_refuses_large_dimension(self):
        with pytest.raises(ValueError):
            exhaustive_topk(np.zeros(17), 3)

    @pytest.mark.parametrize("k", [1.5, 1.0, True, None])
    def test_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            exhaustive_topk(np.array([3.0, 1.0, 2.0]), k)

    def test_matches_fast_path_on_tie_heavy_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            x = rng.choice([-1.0, 0.0, 0.5, 1.0], n)
            for k in range(n + 1):
                assert np.array_equal(exhaustive_topk(x, k), hard_topk(x, k))


class TestFdJacobian:
    def test_column_of_worked_example(self):
        J = fd_jacobian(np.array([3.0, 1.0, 0.5, -2.0]), HypersimplexSpec(4, 2, 1.0))
        np.testing.assert_allclose(J[:, 1], [0.0, 0.5, -0.5, 0.0], atol=1e-6)

    def test_saturated_columns_vanish(self):
        J = fd_jacobian(np.array([3.0, 1.0, 0.5, -2.0]), HypersimplexSpec(4, 2, 1.0))
        np.testing.assert_allclose(J[:, 0], 0.0, atol=1e-6)
        np.testing.assert_allclose(J[:, 3], 0.0, atol=1e-6)

    def test_symmetry(self):
        J = fd_jacobian(np.array([3.0, 1.0, 0.5, -2.0]), HypersimplexSpec(4, 2, 1.0))
        np.testing.assert_allclose(J, J.T, atol=1e-4)

    def test_carries_temperature_factor(self):
        x = np.array([3.0, 1.0, 0.5, -2.0])
        spec = HypersimplexSpec(4, 2, 2.0)
        J = fd_jacobian(x, spec)
        res = project(x, spec)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            np.testing.assert_allclose(J[:, j], jvp(res, e) / spec.tau, atol=1e-6)
