import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hypersimplex import HypersimplexSpec, hard_topk, jvp, oracle, project
from hypersimplex.oracle import (
    MAX_ORACLE_N,
    brute_force_project,
    exhaustive_topk,
    fd_jacobian,
)


def left_sum(values):
    """Sum accumulated left to right: builtin sum compensates from Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def kkt_winner(x, spec):
    """(code, y, theta, max_violation) of the first least-violating boundary
    pattern, scored coordinate by coordinate in plain Python.

    itertools.product varies its last factor fastest, so with each tuple
    reversed (digit i weighs 3^i) the patterns come in increasing code order.
    Digits: 0 pins y_i = 0, 1 leaves y_i = u_i - theta interior, 2 pins y_i = 1.
    """
    u = [float(v) / spec.tau for v in x]
    best = None
    for code, pattern in enumerate(itertools.product((0, 1, 2), repeat=spec.n)):
        digits = pattern[::-1]
        act = [u[i] for i, g in enumerate(digits) if g == 1]
        n_one = digits.count(2)
        if act:
            theta = (n_one + left_sum(act) - spec.k) / len(act)
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
        gap = abs(n_one + left_sum(a - theta for a in act) - spec.k)
        total = left_sum(breaches) + gap
        if best is None or total < best[0]:
            y = [ui - theta if g == 1 else float(g == 2) for ui, g in zip(u, digits)]
            best = (total, code, y, theta, max(max(breaches), gap))
    return best[1], np.array(best[2]), best[3], best[4]


def kkt_enumeration(x, spec):
    """(y, theta, max_violation) of kkt_winner."""
    return kkt_winner(x, spec)[1:]


def forced_seeds(n, seed):
    """Patterns to force as the one scored first: every pattern up to n = 5;
    above it the all-zero digits and one pattern drawn from `seed`. A poor
    first pattern can make the search score most of the 3^n patterns."""
    if n <= 5:
        return [list(p) for p in itertools.product((0, 1, 2), repeat=n)]
    return [[0] * n, np.random.default_rng(seed).integers(0, 3, n).tolist()]


# Tie-heavy inputs at k = n // 2: each leaves many patterns with equal or
# near-equal totals
TIE_HEAVY = {
    "zeros": lambda n: [0.0] * n,
    "zeros_ones": lambda n: [0.0] * (n // 2) + [1.0] * (n - n // 2),
    "p7_1p7": lambda n: [0.7] * (n // 2) + [1.7] * (n - n // 2),
    "offset_1e6": lambda n: [1e6 + 0.1] * (n // 2) + [1e6 + 1.1] * (n - n // 2),
    "grid": lambda n: [0.75, 1.25, -2.0, 1.25, -0.25, 0.0, 0.5, -1.0, 2.0, -2.0, -1.0, -0.5][:n],
}


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
        # fourth instance has k = 0 and every fourth k = n. The next 12 have
        # n = 9. The last 12 have n = 9 and tau = 10, where the winner's
        # sum-constraint gap, added in any order but coordinate order, misses
        # on some draws.
        rng = np.random.default_rng(32)
        cases = []
        for i in range(212):
            n = int(rng.integers(1, 7)) if i < 200 else 9
            k = (0, n, int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1)))[i % 4]
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            x = rng.normal(0, 2, n) if i % 2 else rng.integers(-8, 9, n) * 0.25
            cases.append((x, HypersimplexSpec(n, k, tau)))
        rng = np.random.default_rng(34)
        for _ in range(12):
            n = 9
            k = int(rng.integers(1, n))
            cases.append((rng.normal(0, 2, n), HypersimplexSpec(n, k, 10.0)))
        for x, spec in cases:
            cert = brute_force_project(x, spec)
            y, theta, violation = kkt_enumeration(x, spec)
            np.testing.assert_array_equal(cert.y, y)
            assert (cert.theta, cert.max_violation) == (theta, violation)

    @pytest.mark.parametrize("x", [
        # code 1 (y_0 interior at d = 1, theta 2) beats code 2 + 3^8 (y_0 at
        # one, y_8 interior at d = 0, theta 0), in another block of 3^8 codes
        [3.0] + [-5.0] * 7 + [0.0],
        # code 3^8 (y_8 interior at d = 1, theta 2) beats code 2 * 3^8 (y_8
        # at one, theta 1 by the midpoint rule) and later ones
        [0.0] * 8 + [3.0],
    ])
    def test_tie_across_blocks_goes_to_the_smallest_code(self, x):
        # every zero-violation pattern gives the same y, but each its own theta
        spec = HypersimplexSpec(9, 1, 1.0)
        cert = brute_force_project(np.array(x), spec)
        assert cert.theta == 2.0
        assert cert.max_violation == 0.0
        y, theta, violation = kkt_enumeration(x, spec)
        np.testing.assert_array_equal(cert.y, y)
        assert (cert.theta, cert.max_violation) == (theta, violation)

    @pytest.mark.parametrize("x, k, tau", [
        ([-1.0, 1.0, 3.0, 2.0, -1.0, 2.0, -3.0, 1.0, -4.0], 8, 0.5),
        ([-0.5, 1.75, -0.25, -2.0, 0.0, -1.5, 2.0, -1.75, 0.25], 2, 0.5),
        ([-4.0, -4.0, -2.0, -1.0, -4.0, -1.0, -4.0, 3.0, 1.0], 1, 1.0),
        ([-1.5, -1.5, -1.5, -2.0, 0.5, -2.0, -1.25, 0.0, 1.75], 1, 1.0),
        ([-1.0, 4.0, 0.0, -3.0, -4.0, -1.0, 3.0, 4.0, 4.0, 1.0], 5, 0.5),
        ([1.5, 2.0, 0.0, -1.5, -1.75, -0.25, 0.0, 0.0, 0.75, 1.0], 4, 0.5),
        ([-3.0, 1.0, -3.0, 2.0, 3.0, 1.0, 4.0, 2.0, 3.0, -1.0], 8, 1.0),
        ([-0.25, -1.25, -0.75, -2.0, 1.75, -1.75, 0.0, -0.5, 0.5, -1.75], 1, 1.0),
    ])
    def test_tie_with_an_earlier_block_than_the_seed_goes_to_the_smallest_code(self, x, k, tau):
        # the seed's pattern is scored first, and on these draws a pattern
        # with a smaller code has the same least total: keeping the first
        # pattern scored instead gives another certificate on every one
        x = np.array(x)
        spec = HypersimplexSpec(x.size, k, tau)
        code, y, theta, violation = kkt_winner(x, spec)
        u = (x / tau).tolist()
        seed = oracle._seed(u, oracle._breakpoints(u), float(k))
        assert sum(g * 3**i for i, g in enumerate(seed)) > code
        cert = brute_force_project(x, spec)
        np.testing.assert_array_equal(cert.y, y)
        assert (cert.theta, cert.max_violation) == (theta, violation)

    @pytest.mark.parametrize("n, draws", [(3, 4), (5, 2), (9, 6), (10, 4), (MAX_ORACLE_N, 2)])
    def test_certificate_does_not_depend_on_the_seed(self, n, draws, monkeypatch):
        # the cuts are exact whichever pattern is scored first, a poor one too
        rng = np.random.default_rng(37 + n)
        for j in range(draws):
            x = rng.normal(0, 2, n) if j % 2 == 0 else rng.integers(-8, 9, n) * 0.25
            spec = HypersimplexSpec(n, int(rng.integers(0, n + 1)),
                                    float(rng.choice([0.1, 1.0, 10.0])))
            ref = brute_force_project(x, spec)
            for seed in forced_seeds(n, (n, j)):
                monkeypatch.setattr(oracle, "_seed", lambda u, points, k, p=seed: list(p))
                cert = brute_force_project(x, spec)
                assert cert.y.tobytes() == ref.y.tobytes()
                assert cert.theta.hex() == ref.theta.hex()
                assert cert.max_violation.hex() == ref.max_violation.hex()
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("kind", ["near_2_to_53", "tiny_tau", "grid_k_1", "grid_k_n_minus_1",
                                      "mixed_1e-6_1e6"])
    def test_exact_at_the_edge_of_the_filter_slack(self, n, kind, monkeypatch):
        # the interval filter's rounding slack is widest against the values
        # here: |x / tau| just under the 2^53 refusal, tau = 1e-3, exact
        # 0.25-grid ties at k = 1 and k = n - 1, and 1e-6 next to 1e6. Poor
        # patterns are forced as the one scored first, so the cuts start
        # from their best totals
        rng = np.random.default_rng(41 + n)
        x, k, tau = rng.normal(0, 2, n), n // 2, 1.0
        if kind == "near_2_to_53":
            x *= (2.0**53 - 2.0) / np.max(np.abs(x))
        elif kind == "tiny_tau":
            tau = 1e-3
        elif kind.startswith("grid"):
            x = rng.integers(-8, 9, n) * 0.25
            k = 1 if kind == "grid_k_1" else n - 1
        else:
            x *= np.where(np.arange(n) % 2, 1e6, 1e-6)
        spec = HypersimplexSpec(n, k, tau)
        y, theta, violation = kkt_enumeration(x, spec)
        for seed in forced_seeds(n, n):
            monkeypatch.setattr(oracle, "_seed", lambda u, points, k, p=seed: list(p))
            cert = brute_force_project(x, spec)
            np.testing.assert_array_equal(cert.y, y)
            assert (cert.theta, cert.max_violation) == (theta, violation)

    def test_exact_where_the_slack_needs_its_rounding_term(self):
        # the winner, code 19 (y_0 interior, y_1 at zero, y_2 at one), has
        # theta -0.6000000000000001, one ulp below its interior bound
        # 0.4 - 1 = -0.6 as rounded; its breaches are all 0, and so is the
        # total of a larger code scored before it. A slack of B alone cuts
        # it, so the certificate needs the slack's rounding term
        x, spec = np.array([0.2, -0.7000000000000001, 0.5]), HypersimplexSpec(3, 2, 0.5)
        code, y, theta, violation = kkt_winner(x, spec)
        assert code == 19 and violation == 0.0
        assert theta < 0.2 / 0.5 - 1.0
        cert = brute_force_project(x, spec)
        np.testing.assert_array_equal(cert.y, y)
        assert (cert.theta, cert.max_violation) == (theta, violation)

    def test_exact_where_the_window_needs_its_rounding_term(self):
        # the winner, code 13 (every y interior), totals 0: its d, 1.1e-16,
        # 1 and 1.1e-16, sum to 1 left to right, but the clip sum rounded
        # once is 1 + 2.2e-16. A theta window of |g - k| <= B alone leaves
        # it out, so the certificate needs the window's rounding term
        x, spec = np.array([0.2, 0.7, 0.2]), HypersimplexSpec(3, 1, 0.5)
        code, y, theta, violation = kkt_winner(x, spec)
        assert code == 13 and violation == 0.0
        assert math.fsum(min(max(v / 0.5 - theta, 0.0), 1.0) for v in x) > 1.0
        cert = brute_force_project(x, spec)
        np.testing.assert_array_equal(cert.y, y)
        assert (cert.theta, cert.max_violation) == (theta, violation)

    def test_results_do_not_depend_on_call_order(self):
        rng = np.random.default_rng(33)
        small, large = HypersimplexSpec(3, 1, 1.0), HypersimplexSpec(MAX_ORACLE_N, 5, 1.0)
        xs, xl = rng.normal(0, 3, 3), rng.normal(0, 3, MAX_ORACLE_N)
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

    def test_breaches_are_summed_in_coordinate_order(self):
        # all three digits 0 at theta 0 breach by 2^52, 0.5 and 0.5. Left to
        # right each 0.5 ties half an ulp of 2^52 and rounds to even, so the
        # total stays 2^52; right to left the halves make 1 first and the
        # total is 2^52 + 1. The plain enumeration sums left to right
        total, theta, worst = oracle._score([2.0**52, 0.5, 0.5], [oracle._ZERO] * 3, 0, 0.0, 0.0,
                                            math.inf, (-math.inf, math.inf))
        assert (total, theta, worst) == (2.0**52, 0.0, 2.0**52)
        assert left_sum([0.5, 0.5, 2.0**52]) == 2.0**52 + 1


class TestTieHeavyInputs:
    # Coordinates tied at a breakpoint each leave two zero-breach digits, so
    # many patterns tie with the winner; the theta window and the stop at a
    # zero total keep the search small on them

    @pytest.mark.parametrize("name", TIE_HEAVY)
    def test_matches_plain_enumeration_at_9(self, name):
        x, spec = np.array(TIE_HEAVY[name](9)), HypersimplexSpec(9, 4, 1.0)
        cert = brute_force_project(x, spec)
        y, theta, violation = kkt_enumeration(x, spec)
        np.testing.assert_array_equal(cert.y, y)
        assert (cert.theta, cert.max_violation) == (theta, violation)

    @pytest.mark.parametrize("name, y, theta", [
        ("zeros", [0.5] * 12, "-0x1.0000000000000p-1"),
        ("zeros_ones", [0.0] * 6 + [1.0] * 6, "0x0.0p+0"),
        ("p7_1p7", [0.0] * 6 + [1.0] * 6, "0x1.6666666666666p-1"),
        ("offset_1e6", [0.0] * 6 + [1.0] * 6, "0x1.e848033333333p+19"),
        ("grid", [1.0, 1.0, 0.0, 1.0, float.fromhex("0x1.5555555555556p-2"),
                  float.fromhex("0x1.2aaaaaaaaaaabp-1"), 1.0, 0.0, 1.0, 0.0, 0.0,
                  float.fromhex("0x1.5555555555558p-4")], "-0x1.2aaaaaaaaaaabp-1"),
    ])
    def test_certificate_at_12_is_pinned(self, name, y, theta):
        # the bits of the 3^8-code block oracle that this search replaced
        cert = brute_force_project(np.array(TIE_HEAVY[name](12)), HypersimplexSpec(12, 6, 1.0))
        assert cert.y.tobytes() == np.array(y).tobytes()
        assert cert.theta.hex() == theta
        assert cert.max_violation.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("name", TIE_HEAVY)
    def test_patterns_scored_at_12_are_few(self, name, monkeypatch):
        # 2-66 scorings here; without the window, or without the stop at a
        # zero total, some of these inputs reach 4,097 of the 531,441
        calls = []
        score = oracle._score

        def counted(*args):
            calls.append(None)
            return score(*args)
        monkeypatch.setattr(oracle, "_score", counted)
        brute_force_project(np.array(TIE_HEAVY[name](12)), HypersimplexSpec(12, 6, 1.0))
        assert len(calls) <= 100


def bracket_inputs(seed, count):
    """Seeded score lists u (x / tau) at n 1-12 where float rounding in g is
    at its worst: ties, a 0.25 grid, plateaus of g between repeated values,
    1e6 offsets, scales from 1e-6 to 1e6 and |u| near 2^53."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, 13))
        kind = i % 6
        if kind == 0:
            u = rng.choice([-1.0, 0.0, 0.5, 2.0], n)
        elif kind == 1:
            u = rng.integers(-8, 9, n) * 0.25
        elif kind == 2:  # two clusters more than 1 apart: g is flat between them
            u = np.where(rng.random(n) < 0.5, 0.7, 3.7) + rng.integers(0, 2, n) * 1e-9
        elif kind == 3:
            u = 1e6 + rng.normal(0, 2, n)
        elif kind == 4:
            u = rng.normal(0, 1, n) * 10 ** rng.uniform(-6, 6, n)
        else:
            u = rng.normal(0, 1, n)
            u *= (2.0**53 - 2.0) / np.max(np.abs(u))
        yield u.tolist()


def bracket_levels(n, k, rng):
    """The levels the search asks g to cross: k, k +- r and the float below
    k - r, for a tiny, a small and a large r, kept where 0 <= level < n."""
    levels = {float(k), math.nextafter(float(n), 0.0)}
    for r in (2.0**-52 * (n + 2) ** 2 * 3.0, float(rng.uniform(0, 1)), float(rng.uniform(1, n + 1))):
        levels |= {k + r, k - r, math.nextafter(k - r, 0.0)}
    return sorted(v for v in levels if 0.0 <= v < n)


class TestThresholdBrackets:
    # The window's and the seed's thresholds come from _crossing's brackets,
    # so the cuts are exact only if every bracket keeps g(lo) > level >= g(hi)

    def test_crossing_brackets_the_level(self):
        rng = np.random.default_rng(50)
        for u in bracket_inputs(51, 600):
            n, points = len(u), oracle._breakpoints(u)
            for k in range(n + 1):
                for level in bracket_levels(n, k, rng):
                    lo, hi = oracle._crossing(u, points, level)
                    assert lo < hi
                    assert oracle._clip_sum(u, lo) > level >= oracle._clip_sum(u, hi)

    def test_crossing_at_level_zero_ends_where_g_does(self):
        u = [0.25, -1.0, 0.25]
        lo, hi = oracle._crossing(u, oracle._breakpoints(u), 0.0)
        assert (lo, hi) == (math.nextafter(0.25, 0.0), 0.25)

    @pytest.mark.parametrize("u", [[0.25, -1.0, 0.25], [1e6 + 0.1, 1e6 + 1.1], [0.0] * 5])
    def test_seed_at_levels_0_and_n_is_the_corner(self, u):
        # g <= n everywhere, so at k = n the seed takes the end below every
        # breakpoint, where every digit is one; at k = 0 every digit is zero
        points = oracle._breakpoints(u)
        assert oracle._seed(u, points, 0.0) == [oracle._ZERO] * len(u)
        assert oracle._seed(u, points, float(len(u))) == [oracle._ONE] * len(u)
        assert oracle._theta_window(u, points, float(len(u)), 0.0)[0] == -math.inf

    def test_window_holds_every_theta_within_r_of_k(self):
        # checked at every breakpoint, at each finite end and at the floats
        # on both sides of it, in exact arithmetic
        rng = np.random.default_rng(52)
        for u in bracket_inputs(53, 300):
            n, points = len(u), oracle._breakpoints(u)
            for k in range(n + 1):
                for r in (0.0, 2.0**-52 * (n + 2) ** 2 * 3.0, float(rng.uniform(0, 2))):
                    lo, hi = oracle._theta_window(u, points, float(k), r)
                    thetas = list(points)
                    for end in (lo, hi):
                        if math.isfinite(end):
                            thetas += [math.nextafter(end, -math.inf), end,
                                       math.nextafter(end, math.inf)]
                    for theta in thetas:
                        if abs(Fraction(oracle._clip_sum(u, theta)) - k) <= Fraction(r):
                            assert lo < theta < hi

    def test_clip_sums_per_call_are_few(self, monkeypatch):
        # the breakpoint search takes ~19 per call on this pool; three
        # 40-step bisections per call took ~114
        calls = []
        clip_sum = oracle._clip_sum

        def counted(u, theta):
            calls.append(None)
            return clip_sum(u, theta)
        monkeypatch.setattr(oracle, "_clip_sum", counted)
        rng = np.random.default_rng(54)
        for _ in range(60):
            spec = HypersimplexSpec(MAX_ORACLE_N, int(rng.integers(0, MAX_ORACLE_N + 1)),
                                    float(rng.choice([0.1, 1.0, 10.0])))
            brute_force_project(rng.normal(0, 3, MAX_ORACLE_N), spec)
        assert len(calls) / 60 <= 48


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

    def test_matches_fast_path_on_signed_zero_ties(self):
        # -0.0 == 0.0, so both tie at a zero threshold and enter by index
        rng = np.random.default_rng(36)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            x = rng.choice([-1.0, -0.0, 0.0, 1.0], n)
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
