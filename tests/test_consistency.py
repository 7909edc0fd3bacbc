import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import betainc

from conmult.consistency import (
    CellIndex,
    ConvergenceTable,
    _beta_level_set_prob,
    _beta_tails,
    cell_index,
    check_prior_conditions,
    continuized_density,
    convergence_experiment,
    enumerate_lattice,
    exact_conflict_pvalue,
    lattice_masses,
    lattice_pvalue,
    limiting_pvalue,
    log_dirichlet_multinomial,
)
from conmult.core import CountVector, DirichletParams, SimplexPoint
from conmult.prior_check import RawDirichletPrior, TrinePrior, conflict_pvalue
from conmult.sampling import RngStream, sample_multinomial_array

from conftest import TRINE_SYMMETRIC, mp_level_set_prob


class TestExactPredictive:
    def test_two_cell_flat_prior_uniform(self):
        alphas = DirichletParams(np.ones(2))
        n = 9
        for t1 in range(n + 1):
            m = np.exp(log_dirichlet_multinomial(np.array([t1, n - t1]), alphas.alphas))
            assert m == pytest.approx(1 / (n + 1), abs=1e-14)

    def test_hand_evaluated_beta22(self):
        alphas = DirichletParams(np.array([2.0, 2.0]))
        masses = [
            np.exp(log_dirichlet_multinomial(np.array([t1, 2 - t1]), alphas.alphas))
            for t1 in range(3)
        ]
        np.testing.assert_allclose(masses, [0.3, 0.4, 0.3], atol=1e-14)

    def test_normalizes_over_lattice(self, rng):
        for k in (1, 2):
            for n in (7, 33, 60):
                alphas = DirichletParams(rng.uniform(0.5, 4.0, size=k + 1))
                lattice = enumerate_lattice(k, n)
                total = np.exp(log_dirichlet_multinomial(lattice, alphas.alphas)).sum()
                assert total == pytest.approx(1.0, abs=1e-12)


class TestLatticeEnumeration:
    def test_sizes(self):
        assert enumerate_lattice(1, 10).shape == (11, 2)
        assert enumerate_lattice(2, 10).shape == (66, 3)
        assert enumerate_lattice(3, 5).shape == (math.comb(8, 3), 4)

    def test_rows_sum_to_n(self):
        lat = enumerate_lattice(2, 13)
        assert np.all(lat.sum(axis=1) == 13)
        assert np.all(lat >= 0)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_lattice(3, 5000)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_lexicographic_order_of_filtered_product(self, k):
        for n in range(7):
            expect = np.array([head + (n - sum(head),)
                               for head in itertools.product(range(n + 1), repeat=k)
                               if sum(head) <= n])
            got = enumerate_lattice(k, n)
            assert got.dtype == expect.dtype
            np.testing.assert_array_equal(got, expect)


class TestExactConflictPvalue:
    def test_flat_two_cell_always_one(self):
        alphas = DirichletParams(np.ones(2))
        for t1 in (0, 3, 10):
            p = exact_conflict_pvalue(CountVector(np.array([t1, 10 - t1])), alphas)
            assert p == pytest.approx(1.0, abs=1e-12)

    def test_beta22_hand_values(self):
        alphas = DirichletParams(np.array([2.0, 2.0]))
        assert exact_conflict_pvalue(
            CountVector(np.array([1, 1])), alphas
        ) == pytest.approx(1.0, abs=1e-12)
        assert exact_conflict_pvalue(
            CountVector(np.array([2, 0])), alphas
        ) == pytest.approx(0.6, abs=1e-12)

    def test_matches_monte_carlo(self, rng):
        # cross-check the estimator against enumeration on random cases
        for case in range(20):
            alphas = rng.uniform(1.0, 4.0, size=3)
            theta = rng.dirichlet(alphas)
            t = CountVector(rng.multinomial(25, theta))
            exact = exact_conflict_pvalue(t, DirichletParams(alphas))
            rep = conflict_pvalue(t, RawDirichletPrior(DirichletParams(alphas)),
                                  400, 4000, RngStream(500 + case))
            se = math.sqrt(max(exact * (1 - exact), 1e-4) / 400)
            assert abs(rep.pvalue - exact) < 3 * se + 0.03


    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 3), n=st.integers(1, 9),
           alphas=st.lists(st.floats(0.3, 6.0), min_size=4, max_size=4))
    def test_cached_lattice_bitwise_equal_at_every_point(self, k, n, alphas):
        prior = DirichletParams(np.array(alphas[:k + 1]))
        masses = lattice_masses(k, n, prior)
        lattice = enumerate_lattice(k, n)
        log_m = log_dirichlet_multinomial(lattice, prior.alphas)
        for row in lattice:
            t = CountVector(row)
            cached = lattice_pvalue(masses, t, prior)
            # the mask-then-exponentiate form, evaluated from scratch
            log_obs = log_dirichlet_multinomial(row, prior.alphas)
            fresh = float(np.exp(log_m[log_m <= log_obs + 1e-9]).sum())
            assert cached == exact_conflict_pvalue(t, prior) == fresh

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            exact_conflict_pvalue(CountVector(np.array([1, 2, 3])),
                                  DirichletParams(np.array([2.0, 2.0])))


def mp_beta_tails(a, b, x):
    """(I_x(a, b), 1 - I_x(a, b)) in 40 digits, each tail integrated on its own."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return (float(mpmath.betainc(a, b, 0, x, regularized=True)),
                float(mpmath.betainc(b, a, 0, 1 - x, regularized=True)))


def assert_tails_close(got, want, rel=2e-13):
    # relative where a tail is below 0.01, within a few ulp of 1 above
    for g, w in zip(got, want):
        assert abs(g - w) <= rel * min(w, 0.01) + 4e-15, (got, want)


def x_near_the_bulk(a, b, z):
    """The point z standard deviations from the mean of Beta(a, b)."""
    mean = a / (a + b)
    return mean + z * math.sqrt(mean * (1.0 - mean) / (a + b + 1.0))


class TestIncompleteBeta:
    @settings(max_examples=150, deadline=None)
    @given(a=st.floats(0.1, 1000.0), b=st.floats(0.1, 1000.0), z=st.floats(-8.0, 8.0))
    def test_matches_mpmath(self, a, b, z):
        x = x_near_the_bulk(a, b, z)
        assume(0.0 < x < 1.0)
        assert_tails_close(_beta_tails(a, b, x), mp_beta_tails(a, b, x))

    @settings(max_examples=150, deadline=None)
    @given(small=st.floats(0.1, 10.0), large=st.floats(10.0, 1000.0), swap=st.booleans(),
           z=st.floats(-8.0, 8.0))
    def test_skewed_shapes_match_mpmath(self, small, large, swap, z):
        # one shape at most 10, the other up to 1000: Gamma(a + b) overflows past a + b = 171
        a, b = (large, small) if swap else (small, large)
        x = x_near_the_bulk(a, b, z)
        assume(0.0 < x < 1.0)
        assert_tails_close(_beta_tails(a, b, x), mp_beta_tails(a, b, x))

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.1, 1000.0), b=st.floats(0.1, 1000.0), x=st.floats(1e-6, 1.0 - 1e-6))
    def test_anywhere_in_the_interval(self, a, b, x):
        # far out, x^a y^b / B(a, b) is exp of a large exponent whose rounding grows with it
        assert_tails_close(_beta_tails(a, b, x), mp_beta_tails(a, b, x), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.1, 1000.0), b=st.floats(0.1, 1000.0), x=st.floats(0.0, 1.0))
    def test_tails_sum_to_one(self, a, b, x):
        lower, upper = _beta_tails(a, b, x)
        assert 0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0
        assert abs(lower + upper - 1.0) <= 2.0 * np.finfo(float).eps

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(0.1, 1000.0), x=st.floats(1e-6, 1.0 - 1e-6))
    def test_closed_forms(self, s, x):
        # I_x(s, 1) = x^s and I_x(1, s) = 1 - (1 - x)^s, in 40 digits
        with mpmath.workdps(40):
            x_s, y_s = mpmath.mpf(x) ** s, (1 - mpmath.mpf(x)) ** s
            want_s1, want_1s = (float(x_s), float(1 - x_s)), (float(1 - y_s), float(y_s))
        assert_tails_close(_beta_tails(s, 1.0, x), want_s1, rel=1e-12)
        assert_tails_close(_beta_tails(1.0, s, x), want_1s, rel=1e-12)

    @pytest.mark.parametrize("a, b", [(0.1, 0.1), (2.0, 2.0), (2.0, 500.0), (1000.0, 0.5)])
    def test_ends_of_the_interval(self, a, b):
        assert _beta_tails(a, b, 0.0) == (0.0, 1.0)
        assert _beta_tails(a, b, 1.0) == (1.0, 0.0)

    def test_near_the_switch_of_sides(self):
        # at x = (a + 1) / (a + b + 2) the continued fraction changes sides; both
        # neighbours must agree with the integral to the same accuracy
        for a, b in ((5.75, 777.68), (777.68, 5.75), (300.0, 400.0), (8.5, 0.13)):
            switch = (a + 1.0) / (a + b + 2.0)
            for x in (np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1.0)):
                assert_tails_close(_beta_tails(a, b, float(x)), mp_beta_tails(a, b, float(x)))


class TestBetaLevelSet:
    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(1.2, 8.0), b=st.floats(1.2, 8.0), x0=st.floats(0.02, 0.98))
    def test_matches_mpmath(self, a, b, x0):
        mode = (a - 1.0) / (a + b - 2.0)
        assume(abs(x0 - mode) > 0.05)
        # the other root must lie in the bracket the bisection searches
        log_pdf = (a - 1.0) * math.log(x0) + (b - 1.0) * math.log1p(-x0)
        assume(log_pdf > (a - 1.0) * math.log(1e-12) + (b - 1.0) * math.log1p(-1e-12))
        assume(log_pdf > (b - 1.0) * math.log(1e-12) + (a - 1.0) * math.log1p(-1e-12))
        assert _beta_level_set_prob(a, b, x0) == pytest.approx(mp_level_set_prob(a, b, x0),
                                                               abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(1.2, 20.0), x0=st.floats(0.02, 0.45))
    def test_symmetric_prior_mirrors_the_root(self, a, x0):
        # for Beta(a, a) the second root is x2 = 1 - x0, so the level set has mass 2 I_x0(a, a)
        assert _beta_level_set_prob(a, a, x0) == pytest.approx(2.0 * betainc(a, a, x0),
                                                               abs=1e-14)
        assert _beta_level_set_prob(a, a, 1.0 - x0) == pytest.approx(
            2.0 * betainc(a, a, x0), abs=1e-14)

    def test_beta22_limit_to_the_last_digits(self):
        assert abs(_beta_level_set_prob(2.0, 2.0, 0.3) - 0.432) <= 1e-16

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.15, 0.95), b=st.floats(0.15, 0.95), x0=st.floats(0.02, 0.98))
    def test_u_shape_middle_interval_matches_mpmath(self, a, b, x0):
        antimode = (1.0 - a) / (2.0 - a - b)
        assume(abs(x0 - antimode) > 0.05)
        # the other root must lie in the bracket the bisection searches
        log_pdf = (a - 1.0) * math.log(x0) + (b - 1.0) * math.log1p(-x0)
        assume(log_pdf < (a - 1.0) * math.log(1e-12) + (b - 1.0) * math.log1p(-1e-12))
        assume(log_pdf < (b - 1.0) * math.log(1e-12) + (a - 1.0) * math.log1p(-1e-12))
        assert _beta_level_set_prob(a, b, x0) == pytest.approx(mp_level_set_prob(a, b, x0),
                                                               abs=1e-14)

    @pytest.mark.parametrize("a, b, x0, want", [
        (0.5, 0.5, 0.2, 0.4097), (0.5, 0.5, 0.7, 0.2620), (0.3, 0.8, 0.4, 0.2744)])
    def test_u_shape_is_not_the_two_tails(self, a, b, x0, want):
        p = _beta_level_set_prob(a, b, x0)
        assert p == pytest.approx(mp_level_set_prob(a, b, x0), abs=1e-14)
        assert p == pytest.approx(want, abs=1e-4)

    @pytest.mark.parametrize("a, b, want", [(2.0, 2.0, 0.0), (3.0, 2.0, 0.0), (2.0, 5.0, 0.0),
                                            (0.5, 0.5, 1.0)])
    def test_ends_of_the_interval(self, a, b, want):
        # density 0 at an end of a unimodal Beta (a null level set), unbounded
        # at an end of a U-shaped one (everything lies below it)
        assert _beta_level_set_prob(a, b, 0.0) == want
        assert _beta_level_set_prob(a, b, 1.0) == want

    def test_at_the_mode_and_the_antimode(self):
        assert _beta_level_set_prob(0.5, 0.5, 0.5) == 0.0
        assert _beta_level_set_prob(2.0, 2.0, 0.5) == 1.0


class TestContinuizedDensity:
    def test_cell_index(self):
        idx = cell_index(SimplexPoint(np.array([0.31, 0.69])), 10)
        assert idx.indices == (3,)
        with pytest.raises(ValueError):
            CellIndex(n=5, indices=(3, 3))

    def test_constant_on_cells(self):
        alphas = DirichletParams(np.array([2.0, 2.0]))
        a = continuized_density(SimplexPoint(np.array([0.301, 0.699])), 10, alphas)
        b = continuized_density(SimplexPoint(np.array([0.349, 0.651])), 10, alphas)
        assert a == b
        c = continuized_density(SimplexPoint(np.array([0.351, 0.649])), 10, alphas)
        assert c != a

    def test_integrates_to_one_over_cover(self):
        # cell volume is n^-k, so the cell sums recover the lattice masses
        for k, n in ((1, 12), (2, 9)):
            alphas = DirichletParams(np.full(k + 1, 2.0))
            lattice = enumerate_lattice(k, n)
            total = 0.0
            for row in lattice:
                center = np.concatenate([row[:k] / n, [max(1 - row[:k].sum() / n, 0)]])
                if center[-1] == 0:
                    center = center + 1e-9
                    center /= center.sum()
                total += continuized_density(SimplexPoint(center), n, alphas) / n**k
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_pvalue_equivalence_with_discrete(self):
        # the continuized event mass equals the discrete p-value
        alphas = DirichletParams(np.array([2.0, 3.0]))
        n = 10
        t_obs = CountVector(np.array([2, 8]))
        discrete = exact_conflict_pvalue(t_obs, alphas)
        lattice = enumerate_lattice(1, n)
        dens_obs = continuized_density(SimplexPoint(np.array([0.2, 0.8])), n, alphas)
        mass = 0.0
        for row in lattice:
            center = np.array([row[0] / n, 1 - row[0] / n])
            d = continuized_density(SimplexPoint(center), n, alphas)
            if d <= dens_obs * (1 + 1e-12):
                mass += d / n  # cell volume 1/n
        assert mass == pytest.approx(discrete, abs=1e-12)

    def test_pointwise_convergence_to_prior_density(self):
        # Beta(2, 2) density at 0.3 is 1.26
        alphas = DirichletParams(np.array([2.0, 2.0]))
        r = SimplexPoint(np.array([0.3, 0.7]))
        errs = [abs(continuized_density(r, n, alphas) - 1.26)
                for n in (100, 1000, 10_000)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-3


class TestLimitingPvalue:
    def test_mode_gives_one(self):
        prior = DirichletParams(np.array([2.0, 3.0, 2.0]))
        mode = SimplexPoint(np.array([0.25, 0.5, 0.25]))
        p = limiting_pvalue(prior, mode, 100_000, RngStream(600))
        assert p == pytest.approx(1.0, abs=1e-3)

    def test_beta22_closed_form(self):
        p = limiting_pvalue(DirichletParams(np.array([2.0, 2.0])),
                            SimplexPoint(np.array([0.3, 0.7])), 10, RngStream(0))
        assert p == pytest.approx(0.432, abs=1e-6)

    def test_flat_prior_gives_one(self):
        p = limiting_pvalue(DirichletParams(np.ones(2)),
                            SimplexPoint(np.array([0.41, 0.59])), 10, RngStream(0))
        assert p == 1.0

    def test_monte_carlo_agrees_with_trine_closed_form(self):
        # the sampler's polar map gives q = r ~ Beta(1, 3/2) and the density
        # (1 - q)^(1/2) falls as q grows, so P(pi <= pi(theta)) = (1 - q)^(3/2)
        # while the ellipse lies inside the simplex (at a = 1/3 the inscribed circle)
        prior = TrinePrior(1.0 / 3.0)
        theta = SimplexPoint(TRINE_SYMMETRIC / TRINE_SYMMETRIC.sum())
        q = float(prior.region.quad_form_array(theta.probs[None, :2])[0])
        exact = (1.0 - q) ** 1.5
        assert exact == pytest.approx(0.712106, abs=1e-6)
        n_draws = 400_000
        p = limiting_pvalue(prior, theta, n_draws, RngStream(601))
        se = math.sqrt(p * (1.0 - p) / n_draws)
        assert abs(p - exact) <= 4 * se


class TestGuards:
    def test_unbounded_density_rejected(self):
        with pytest.raises(ValueError, match="A1"):
            check_prior_conditions(DirichletParams(np.array([0.5, 2.0])))

    def test_flat_prior_rejected(self):
        with pytest.raises(ValueError, match="A3"):
            check_prior_conditions(DirichletParams(np.ones(3)))

    def test_experiment_rejects_flat(self):
        with pytest.raises(ValueError, match="A3"):
            convergence_experiment(DirichletParams(np.ones(2)),
                                   SimplexPoint(np.array([0.3, 0.7])),
                                   [10], RngStream(0), replications=2)


class TestConvergenceExperiment:
    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 2), schedule=st.lists(st.integers(1, 30), min_size=1, max_size=3),
           alphas=st.lists(st.floats(1.0, 5.0), min_size=3, max_size=3),
           theta=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
           seed=st.integers(0, 10**6))
    def test_rows_bitwise_equal_to_lattice_pvalue(self, k, schedule, alphas, theta, seed):
        # every replication's observed mass comes from one batched call per n;
        # each p-value must be lattice_pvalue's for that replication's counts
        prior = DirichletParams(np.array(alphas[:k + 1]))
        assume(np.any(prior.alphas != 1.0))
        th = np.array(theta[:k + 1]) / sum(theta[:k + 1])
        rng = RngStream(seed)
        table = convergence_experiment(prior, SimplexPoint(th), schedule, rng, replications=7)
        want = []
        for ni, n in enumerate(schedule):
            counts = sample_multinomial_array(n, th, 7, rng.substream(1 + ni).generator())
            masses = lattice_masses(k, n, prior)
            want += [(n, rep, lattice_pvalue(masses, CountVector(row), prior))
                     for rep, row in enumerate(counts)]
        assert [(r.n, r.replication, r.pvalue) for r in table.rows] == want
        assert all(r.abs_error == abs(r.pvalue - table.limit) for r in table.rows)

    def test_rejects_an_empty_total(self):
        with pytest.raises(ValueError, match="total count"):
            convergence_experiment(DirichletParams(np.array([2.0, 2.0])),
                                   SimplexPoint(np.array([0.3, 0.7])), [10, 0],
                                   RngStream(0), replications=2)

    def test_beta22_small_schedule(self):
        table = convergence_experiment(
            DirichletParams(np.array([2.0, 2.0])),
            SimplexPoint(np.array([0.3, 0.7])),
            [100, 1000], RngStream(602), replications=60,
        )
        assert table.limit == pytest.approx(0.432, abs=1e-6)
        meds = table.medians()
        assert len(meds) == 2
        assert meds[1][2] <= meds[0][2] + 0.02  # error roughly shrinking
        assert table.sandwich_ok(slack=0.06)

    def test_medians_from_the_rows_once(self):
        table = convergence_experiment(
            DirichletParams(np.array([3.0, 1.5])), SimplexPoint(np.array([0.6, 0.4])),
            [40, 90], RngStream(604), replications=25,
        )
        want = []
        for n in (40, 90):
            ps = np.array([r.pvalue for r in table.rows if r.n == n])
            want.append((n, float(np.median(ps)), float(np.median(np.abs(ps - table.limit)))))
        assert list(table.medians()) == want
        assert table.medians() is table.medians()

    def test_mode_case_tends_to_one(self):
        table = convergence_experiment(
            DirichletParams(np.array([2.0, 3.0, 2.0])),
            SimplexPoint(np.array([0.25, 0.5, 0.25])),
            [50, 200], RngStream(603), replications=40,
        )
        meds = dict((n, p) for n, p, _ in table.medians())
        assert meds[200] > 0.8
        assert meds[200] >= meds[50] - 0.05
