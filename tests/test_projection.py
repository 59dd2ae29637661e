import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hypersimplex import (
    BOUNDARY_TOL,
    HypersimplexSpec,
    hard_topk,
    hypersimplex_loss,
    project,
    project_bisect,
)
from hypersimplex.isotonic import project_sorted_via_isotonic
from hypersimplex.oracle import brute_force_project, fd_jacobian
from hypersimplex.projection import _prefix_sums, _theta_from_sorted_numpy
from hypersimplex.verify import corrupted_project


class TestHypersimplexSpec:
    def test_accepts_valid_triples(self):
        spec = HypersimplexSpec(4, 2, 0.5)
        assert (spec.n, spec.k, spec.tau) == (4, 2, 0.5)

    def test_accepts_boundary_cardinalities(self):
        HypersimplexSpec(3, 0, 1.0)
        HypersimplexSpec(3, 3, 1.0)

    @pytest.mark.parametrize("n,k,tau", [
        (0, 0, 1.0),
        (3, -1, 1.0),
        (3, 4, 1.0),
        (3, 1, 0.0),
        (3, 1, -1.0),
        (3, 1, float("nan")),
        (3, 1, float("inf")),
        (3, 1, True),
        (3, 1, None),
        (3, 1, "0.5"),
    ])
    def test_rejects_bad_triples(self, n, k, tau):
        with pytest.raises(ValueError):
            HypersimplexSpec(n, k, tau)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError):
            HypersimplexSpec(3.0, 1, 1.0)
        with pytest.raises(ValueError):
            HypersimplexSpec(3, 1.5, 1.0)

    @pytest.mark.parametrize("entry", [
        project,
        project_bisect,
        project_sorted_via_isotonic,
        brute_force_project,
        fd_jacobian,
        lambda x, spec: hypersimplex_loss(x, np.array([1.0, 0.0, 0.0, 0.0]), spec),
    ], ids=["project", "project_bisect", "project_sorted_via_isotonic",
            "brute_force_project", "fd_jacobian", "hypersimplex_loss"])
    @pytest.mark.parametrize("spec", [
        SimpleNamespace(n=4, k=7, tau=1.0),  # y = [1, 1, 1, 1], summing to 4
        SimpleNamespace(n=4, k=2, tau=-1.0),  # the ranking reversed
        (4, 2, 1.0),
        None,
    ], ids=["k-above-n", "negative-tau", "tuple", "none"])
    @pytest.mark.parametrize("x", [[4.0, 3.0, 2.0, 1.0], [4.0, float("nan"), 2.0, 1.0]],
                             ids=["finite", "nan"])
    def test_every_entry_point_rejects_what_is_not_a_spec(self, entry, spec, x):
        # before the score vector is looked at
        with pytest.raises(TypeError) as exc:
            entry(np.array(x), spec)
        assert str(exc.value) == "spec must be a HypersimplexSpec"


class TestHardTopk:
    def test_selects_single_maximum(self):
        assert hard_topk([0.1, 1.6, 1], 1).tolist() == [0, 1, 0]

    def test_full_selection(self):
        assert hard_topk([3.0, -1.0, 2.0], 3).tolist() == [1, 1, 1]

    def test_empty_selection(self):
        assert hard_topk([3.0, -1.0], 0).tolist() == [0, 0]

    def test_threshold_ties_admit_smallest_index_first(self):
        assert hard_topk([1, 1, 0], 1).tolist() == [1, 0, 0]
        assert hard_topk([0, 2, 2, 2], 2).tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("k", [1.5, 1.0, True, False, "1", None])
    def test_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            hard_topk([3.0, 1.0, 2.0], k)

    def test_accepts_numpy_integer_k(self):
        assert hard_topk([3.0, 1.0, 2.0], np.int64(2)).tolist() == [1, 0, 1]

    def test_matches_stable_argsort_on_ties_and_signed_zeros(self):
        # the formula it replaced: the first k indices of a stable argsort of -x
        rng = np.random.default_rng(8)
        cases = [rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], int(rng.integers(1, 40)))
                 for _ in range(300)]
        cases += [rng.integers(-3, 4, 5000) * 0.5, np.where(rng.random(5000) < 0.5, -0.0, 0.0)]
        for x in cases:
            ks = range(x.size + 1) if x.size < 40 else rng.integers(0, x.size + 1, 20)
            for k in ks:
                expected = np.zeros(x.size, dtype=np.int64)
                expected[np.argsort(-x, kind="stable")[:k]] = 1
                y = hard_topk(x, k)
                assert y.dtype == np.int64
                np.testing.assert_array_equal(y, expected)

    def test_always_selects_exactly_k(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            x = rng.choice([-1.0, 0.0, 1.0], n)  # heavy ties
            for k in range(n + 1):
                y = hard_topk(x, k)
                assert y.sum() == k
                assert set(np.unique(y)) <= {0, 1}


class TestProject:
    def test_interior_solution(self):
        res = project(np.array([3.0, 1.0, 0.5, -2.0]), HypersimplexSpec(4, 2, 1.0))
        np.testing.assert_allclose(res.y, [1.0, 0.75, 0.25, 0.0], atol=1e-12)
        assert res.theta == pytest.approx(0.25, abs=1e-12)
        assert res.active.tolist() == [1, 2]
        assert res.at_one.tolist() == [0]
        assert res.at_zero.tolist() == [3]

    def test_temperature_flattens_solution(self):
        res = project(np.array([3.0, 1.0, 0.5, -2.0]), HypersimplexSpec(4, 2, 2.0))
        np.testing.assert_allclose(res.y, [1.0, 0.625, 0.375, 0.0], atol=1e-12)
        assert res.theta == pytest.approx(-0.125, abs=1e-12)

    def test_constant_input_gives_uniform(self):
        for n, k, tau in [(5, 2, 1.0), (4, 0, 0.3), (6, 6, 2.0), (3, 1, 10.0)]:
            res = project(np.full(n, 1.7), HypersimplexSpec(n, k, tau))
            np.testing.assert_allclose(res.y, np.full(n, k / n), atol=1e-12)

    def test_tiny_temperature_recovers_hard_selection(self):
        res = project(np.array([0.1, 1.6, 1.0]), HypersimplexSpec(3, 1, 1e-9))
        assert res.y.tolist() == [0.0, 1.0, 0.0]

    def test_cardinality_zero(self):
        res = project(np.array([5.0, -1.0]), HypersimplexSpec(2, 0, 1.0))
        assert res.y.tolist() == [0.0, 0.0]
        assert res.active.size == 0

    def test_cardinality_n(self):
        res = project(np.array([5.0, -1.0]), HypersimplexSpec(2, 2, 1.0))
        assert res.y.tolist() == [1.0, 1.0]
        assert res.active.size == 0

    def test_duplicates_spanning_threshold_split_equally(self):
        res = project(np.array([2.0, 1.0, 1.0, 0.0]), HypersimplexSpec(4, 2, 1.0))
        np.testing.assert_allclose(res.y, [1.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_fully_saturated_vertex_solution_is_flagged(self):
        # gap far above the temperature: the k=1 solution is exactly a vertex
        res = project(np.array([5.0, 0.0]), HypersimplexSpec(2, 1, 0.01))
        assert res.is_degenerate_saturated
        assert res.y.tolist() == [1.0, 0.0]

    def test_rejects_nan_and_inf(self):
        spec = HypersimplexSpec(2, 1, 1.0)
        with pytest.raises(ValueError):
            project(np.array([1.0, np.nan]), spec)
        with pytest.raises(ValueError):
            project(np.array([1.0, np.inf]), spec)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            project(np.array([1.0, 2.0]), HypersimplexSpec(3, 1, 1.0))

    def test_rejects_non_vector_input(self):
        with pytest.raises(ValueError):
            project(np.ones((2, 2)), HypersimplexSpec(4, 1, 1.0))

    def test_feasibility_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, n + 1))
            tau = float(10.0 ** rng.uniform(-2, 2))
            res = project(rng.normal(0, 5, n), HypersimplexSpec(n, k, tau))
            assert abs(res.y.sum() - k) <= 1e-9
            assert np.all(res.y >= 0.0) and np.all(res.y <= 1.0)

    def test_partition_and_clip_form(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(0, n + 1))
            spec = HypersimplexSpec(n, k, 1.0)
            x = rng.normal(0, 3, n)
            res = project(x, spec)
            parts = np.concatenate((res.active, res.at_one, res.at_zero))
            assert np.array_equal(np.sort(parts), np.arange(n))
            u = x / spec.tau
            assert np.all(u[res.at_one] - res.theta >= 1.0 - 1e-9)
            assert np.all(u[res.at_zero] - res.theta <= 1e-9)
            np.testing.assert_allclose(
                res.y[res.active], u[res.active] - res.theta, atol=1e-9
            )
            assert np.all(res.y[res.active] > BOUNDARY_TOL)
            assert np.all(res.y[res.active] < 1.0 - BOUNDARY_TOL)

    def test_y_has_the_bytes_of_the_clip_form(self):
        # y is clip(x / tau - theta, 0, 1) bit for bit, -0.0 included, for
        # 0 < k < n (k = 0 and k = n return the exact corner)
        rng = np.random.default_rng(18)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            x = rng.normal(0, 2, n)
            if rng.integers(0, 2):
                x = np.round(x * 4.0) / 4.0
            tau = float(rng.choice([0.1, 1.0, 3.0]))
            res = project(x, HypersimplexSpec(n, int(rng.integers(1, n)), tau))
            expected = np.clip(x / tau - res.theta, 0.0, 1.0)
            assert res.y.tobytes() == expected.tobytes()

    def test_negative_zero_survives_the_clip(self):
        x = np.array([0.5, 0.5, -0.0, -0.0])
        res = project(x, HypersimplexSpec(4, 1, 1.0))
        assert res.theta == 0.0
        assert res.y.tobytes() == np.clip(x - res.theta, 0.0, 1.0).tobytes()
        assert list(np.signbit(res.y)) == [False, False, True, True]

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            spec = HypersimplexSpec(n, int(rng.integers(0, n + 1)), 2.0)
            x = rng.normal(0, 2, n)
            c = float(rng.uniform(-30, 30))
            np.testing.assert_allclose(
                project(x + c, spec).y, project(x, spec).y, atol=1e-9
            )

    def test_permutation_equivariance_is_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            spec = HypersimplexSpec(n, int(rng.integers(0, n + 1)), 0.7)
            x = rng.normal(0, 2, n)
            p = rng.permutation(n)
            assert np.array_equal(project(x[p], spec).y, project(x, spec).y[p])

    def test_order_preservation(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            n = int(rng.integers(2, 15))
            spec = HypersimplexSpec(n, int(rng.integers(0, n + 1)), 1.0)
            x = rng.normal(0, 1, n)
            y = project(x, spec).y
            bad = (x[:, None] >= x[None, :]) & (y[:, None] < y[None, :] - 1e-12)
            assert not bad.any()

    def test_idempotent_on_feasible_points_at_unit_temperature(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            k = int(rng.integers(0, n + 1))
            vertex = np.zeros(n)
            vertex[rng.permutation(n)[:k]] = 1.0
            alpha = float(rng.uniform(0, 1))
            x = alpha * vertex + (1 - alpha) * k / n
            np.testing.assert_allclose(
                project(x, HypersimplexSpec(n, k, 1.0)).y, x, atol=1e-9
            )

    def test_backends_agree(self):
        # the projection against the clip at the numpy kernel's threshold;
        # below n = 40 project itself solves with the scalar walk
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            spec = HypersimplexSpec(n, int(rng.integers(0, n + 1)), 1.3)
            x = rng.normal(0, 2, n)
            u = x / spec.tau
            u_sorted = np.sort(u)[::-1]
            theta_ref = _theta_from_sorted_numpy(
                u_sorted, _prefix_sums(u_sorted), float(spec.k))
            np.testing.assert_allclose(
                project(x, spec).y, np.clip(u - theta_ref, 0.0, 1.0), atol=1e-12)

    @pytest.mark.parametrize("solver", [project, project_bisect])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("x", [[1e300, 1e300, 0.0], [1e300, -1e300, 0.0]])
    def test_overflowing_scaled_input_rejected(self, solver, k, x):
        # finite scores whose x / tau overflows float64
        with pytest.raises(ValueError, match="overflows"):
            solver(np.array(x), HypersimplexSpec(3, k, 1e-10))

    def test_same_bits_as_the_numpy_kernel_route(self):
        # up to n = 64 project divides, sorts, sums and walks on Python
        # floats; its theta and y must equal those of numpy's x / tau, sort,
        # _prefix_sums and the kernel to the bit
        # on both sides of that cutoff, for every 0 < k < n. At tau = 1 the
        # grid and the 0.25 plateau tie activations with saturations exactly;
        # at |u| ~ 1e12 the walk's rounding bound reaches 1 from n = 32 on,
        # and at |u| ~ 1e17 for every n, so it walks from the first event
        # instead of from b = k; past 2^53 the sums round by more than 1, and
        # starting at b = k would miss the first hit. Every k at tau = 1, four
        # draws at the other temperatures
        rng = np.random.default_rng(86)
        for tau, n in itertools.product((1.0, 0.5, 1e-3, 3.0), range(1, 81)):
            g = rng.normal(0, 1, n)
            signed_zeros = g.copy()
            signed_zeros[rng.permutation(n)[:n // 2]] = 0.0
            signed_zeros[rng.permutation(n)[:n // 3]] = -0.0
            # all entries <= 0, the largest a mix of 0.0 and -0.0: the order
            # a sort leaves tied zeros in sets the sign of the first running
            # sum, and that of theta when theta is one of them
            nonpositive = -np.abs(g)
            zeros = rng.permutation(n)[:max(n // 3, 1)]
            nonpositive[zeros[0::2]] = -0.0
            nonpositive[zeros[1::2]] = 0.0
            kinds = {"gaussian": g, "grid": np.round(g * 4.0) / 4.0,
                     "offset": 1e3 + g, "signed-zeros": signed_zeros,
                     "nonpositive-zeros": nonpositive,
                     "huge": 1e12 * tau * g, "huge-offset": 1e12 * tau + g,
                     "beyond-2^53": 1e17 * tau * g,
                     "offset-beyond-2^53": 1e17 * tau + 20.0 * tau * g}
            ks = range(1, n) if tau == 1.0 or n < 2 else set(rng.integers(1, n, 4).tolist())
            for k in ks:
                for level in (0.25, 1.0 / 3.0):
                    # k entries at level + 1: the clip sum is k on a whole run
                    kinds[f"plateau-{level}"] = np.full(n, level)
                    kinds[f"plateau-{level}"][rng.permutation(n)[:k]] += 1.0
                for name, x in kinds.items():
                    spec = HypersimplexSpec(n, k, tau)
                    res = project(x, spec)
                    u = x / spec.tau
                    u_sorted = np.sort(u)[::-1]
                    theta = _theta_from_sorted_numpy(
                        u_sorted, _prefix_sums(u_sorted), float(k))
                    case = (name, tau, n, k)
                    # bytes, so that 0.0 and -0.0 differ
                    assert np.float64(res.theta).tobytes() == np.float64(theta).tobytes(), case
                    assert res.y.tobytes() == (u - theta).clip(0.0, 1.0).tobytes(), case


SCORE_ERRORS = {
    "nan": "score vector contains NaN or Inf",
    "length": "score vector has length {m}, spec.n is {n}",
    "scaled": "x / tau overflows float64; raise tau or rescale x",
    "sums": "running sums of x / tau overflow float64; raise tau or rescale x",
    "2-D": "expected a 1-D score vector, got shape (2, {n})",
    "empty": "score vector must be non-empty",
}


def _bad_scores(n):
    """(name, x, tau, key of the SCORE_ERRORS message) for inputs project
    rejects at 0 < k < n."""
    def with_entries(*pairs):
        x = np.linspace(-1.0, 1.0, n)
        for i, v in pairs:
            x[i] = v
        return x

    half_max = np.finfo(np.float64).max / 2
    yield "nan", with_entries((n // 2, np.nan)), 1.0, "nan"
    yield "+inf", with_entries((n - 1, np.inf)), 1.0, "nan"
    yield "-inf", with_entries((0, -np.inf)), 1.0, "nan"
    yield "+inf-and--inf", with_entries((1, np.inf), (2, -np.inf)), 1.0, "nan"
    yield "nan-ahead-of-overflow", with_entries((0, 1e300), (1, np.nan)), 1e-10, "nan"
    yield "scaled-overflow", with_entries((3, 1e300)), 1e-10, "scaled"
    yield "scaled-overflow-negative", with_entries((3, -1e300)), 1e-10, "scaled"
    yield "running-sums", with_entries((0, half_max), (1, half_max)), 0.5, "sums"
    yield "nan-and-wrong-length", np.full(n + 1, np.nan), 1.0, "nan"
    yield "wrong-length", np.zeros(n - 1), 1.0, "length"
    yield "2-D", np.zeros((2, n)), 1.0, "2-D"
    yield "empty", np.zeros(0), 1.0, "empty"


class TestErrorPrecedence:
    # project checks the shape up front and the values only once the last
    # running sum is non-finite; each input must still get the message and
    # the precedence that _as_score_vector gives it, with no numpy warning
    @pytest.mark.parametrize("n", [32, 100])  # the list route and the numpy route
    @pytest.mark.parametrize("k", ["0", "1", "n"])
    def test_same_message_as_the_up_front_checks(self, n, k):
        k = {"0": 0, "1": 1, "n": n}[k]
        for name, x, tau, key in _bad_scores(n):
            if key == "sums" and k in (0, n):
                key = None  # the corners read no running sum
            spec = HypersimplexSpec(n, k, tau)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if key is None:
                    assert project(x, spec).y.tolist() == [float(k == n)] * n, name
                    continue
                with pytest.raises(ValueError) as info:
                    project(x, spec)
            assert str(info.value) == SCORE_ERRORS[key].format(n=n, m=x.size), name


# at tau = 0.5, EDGE / tau is the largest finite float64 and PAST_EDGE / tau
# overflows
EDGE = np.finfo(np.float64).max / 2
PAST_EDGE = np.nextafter(EDGE, np.inf)


def _overflow_boundary_cases():
    solvers = [("project", project), ("project_bisect", project_bisect),
               ("isotonic", project_sorted_via_isotonic), ("oracle", brute_force_project)]
    edges = [("positive", [EDGE, 0.0], [PAST_EDGE, 0.0]),
             ("negative", [0.0, -EDGE], [0.0, -PAST_EDGE])]
    for (name, solver), (side, x, past), k in itertools.product(solvers, edges, (0, 1, 2)):
        # u_i - 1 == u_i once |u_i| >= 2^53, so patterns tie: the oracle
        # refuses the edge, where it returned y = [2, 0] for negative-2
        edge_error = "2\\^53" if name == "oracle" else None
        yield pytest.param(solver, x, past, k, edge_error, id=f"{name}-{side}-{k}")


class TestOverflowBoundary:
    # every solver that scales x by 1/tau shares the one overflow check
    @pytest.mark.parametrize("solver, x, past, k, edge_error", _overflow_boundary_cases())
    def test_accepts_the_edge_and_rejects_one_ulp_past_it(self, solver, x, past, k, edge_error):
        spec = HypersimplexSpec(2, k, 0.5)
        with pytest.raises(ValueError, match="x / tau overflows float64"):
            solver(np.array(past), spec)
        if edge_error is not None:
            with pytest.raises(ValueError, match=edge_error):
                solver(np.array(x), spec)
            return
        out = solver(np.array(x), spec)
        y = out if isinstance(out, np.ndarray) else out.y
        assert y.tolist() == [1.0] * k + [0.0] * (2 - k)


class TestRunningSumOverflow:
    # finite x / tau whose running sums overflow float64: rejected, with no
    # numpy warning (pytest turns RuntimeWarning into an error)
    @pytest.mark.parametrize("solver", [project, project_sorted_via_isotonic,
                                        project_bisect, brute_force_project])
    @pytest.mark.parametrize("x", [[EDGE, EDGE, 0.0], [EDGE, EDGE, EDGE, 0.0]])
    def test_rejected(self, solver, x):
        with pytest.raises(ValueError, match="running sums of x / tau overflow"):
            solver(np.array(x), HypersimplexSpec(len(x), 1, 0.5))


DBL_MAX = float(np.finfo(np.float64).max)


def _clip_overflow_cases():
    # finite x whose x / tau - theta overflows float64 in a clip: in
    # project's or the isotonic route's last one, or in project_bisect's
    # clip sums and snap
    solvers = [("project", project), ("project_bisect", project_bisect),
               ("isotonic", project_sorted_via_isotonic)]
    inputs = [([DBL_MAX, 1.0, 1e-6, -DBL_MAX], 3), ([DBL_MAX, 1.0, 0.0, -DBL_MAX], 1),
              ([DBL_MAX, 1.0, 0.0, -DBL_MAX], 3),
              *(([DBL_MAX] + [0.0] * (n - 2) + [-DBL_MAX], n - 1) for n in (4, 65, 200))]
    for (name, solver), (i, (x, k)) in itertools.product(solvers, enumerate(inputs)):
        yield pytest.param(solver, x, k, id=f"{name}-{i}-n{len(x)}-k{k}")


class TestWarningFreeClip:
    # the overflow goes only to an infinity that the clip maps to the bound
    # it should, so the solvers return that bound with no warning of any kind
    @pytest.mark.parametrize("solver, x, k", _clip_overflow_cases())
    def test_no_warning_and_y_at_the_bounds(self, solver, x, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solver(np.array(x), HypersimplexSpec(len(x), k, 1.0))
        y = out if isinstance(out, np.ndarray) else out.y
        assert y.tolist() == [1.0] * k + [0.0] * (len(x) - k)

    # the verify command's corrupted solver clips as project does, and the
    # finite-difference Jacobian projects perturbed copies of x
    @pytest.mark.parametrize("hook", [corrupted_project, fd_jacobian])
    @pytest.mark.parametrize("x", [[DBL_MAX, 1.0, 1e-6, -DBL_MAX], [DBL_MAX, 1.0, 0.0, -DBL_MAX]])
    def test_no_warning_from_the_hooks(self, hook, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hook(np.array(x), HypersimplexSpec(4, 3, 1.0))


class TestComplexInput:
    # one cast turns an array argument into float64; a complex array, or a
    # sequence numpy reads as one, is refused before numpy's ComplexWarning
    @pytest.mark.parametrize("x", [np.array([1 + 2j, 2, 3]), np.array([1, 2, 3], dtype=np.complex64),
                                   [np.complex128(1), 2.0, 3.0], [1 + 0j, 2.0, 3.0]],
                             ids=["complex128", "complex64", "numpy-scalars", "python-complex"])
    @pytest.mark.parametrize("solver", [project, project_bisect, hard_topk])
    def test_raises_type_error_that_names_the_dtype(self, solver, x):
        arg = 1 if solver is hard_topk else HypersimplexSpec(3, 1, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match=r"^score vector must be real, got dtype complex"):
                solver(x, arg)

    def test_a_ragged_sequence_keeps_numpys_value_error(self):
        with pytest.raises(ValueError, match="sequence"):
            project([[1.0, 2.0], [3.0]], HypersimplexSpec(2, 1, 1.0))


class TestProjectBisect:
    def test_matches_scan_solver_on_worked_example(self):
        x = np.array([3.0, 1.0, 0.5, -2.0])
        spec = HypersimplexSpec(4, 2, 1.0)
        np.testing.assert_allclose(
            project_bisect(x, spec).y, [1.0, 0.75, 0.25, 0.0], atol=1e-9
        )

    def test_degenerate_cardinalities(self):
        assert project_bisect(np.array([1.0, 2.0]), HypersimplexSpec(2, 0, 1.0)).y.tolist() == [0.0, 0.0]
        assert project_bisect(np.array([1.0, 2.0]), HypersimplexSpec(2, 2, 1.0)).y.tolist() == [1.0, 1.0]

    def test_constant_input_gives_uniform(self):
        res = project_bisect(np.full(5, -3.2), HypersimplexSpec(5, 3, 0.4))
        np.testing.assert_allclose(res.y, np.full(5, 0.6), atol=1e-9)

    def test_agrees_with_scan_solver_on_random_instances(self):
        rng = np.random.default_rng(18)
        for _ in range(400):
            n = int(rng.integers(2, 30))
            spec = HypersimplexSpec(n, int(rng.integers(0, n + 1)),
                                    float(rng.choice([0.1, 1.0, 10.0])))
            x = rng.normal(0, 3, n)
            np.testing.assert_allclose(
                project_bisect(x, spec).y, project(x, spec).y, atol=1e-9
            )
