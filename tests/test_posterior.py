import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from conmult.core import CountVector, DirichletParams, chain_log_integrals, ordered_from_weights_array
from conmult import posterior
from conmult.posterior import (autocorrelation_time, has_exact_draws, run_gibbs,
                               sample_ordered_posterior)
from conmult.sampling import RngStream, sample_ordered_prior_array

from conftest import FLY_COUNTS, chain_ordered_log_predictive, same_bits


class TestRunGibbs:
    def test_states_stay_in_cone_and_simplex(self):
        counts = CountVector(np.array([8, 5, 3, 1]))
        prior = DirichletParams(np.ones(4))
        samples, act = run_gibbs(counts, prior, 500, 50, None, RngStream(300))
        assert samples.shape == (450, 4)
        assert np.all(samples[:, :-1] >= samples[:, 1:] - 1e-12)
        np.testing.assert_allclose(samples.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(act >= 1.0)

    def test_deterministic_under_seed(self):
        counts = CountVector(np.array([8, 5, 3, 1]))
        prior = DirichletParams(np.ones(4))
        a, _ = run_gibbs(counts, prior, 200, 20, None, RngStream(301))
        b, _ = run_gibbs(counts, prior, 200, 20, None, RngStream(301))
        np.testing.assert_array_equal(a, b)

    def test_posterior_means_match_rejection_oracle(self, rng):
        # flat prior on the cone: posterior = Dirichlet(t+1) conditioned on order
        counts = CountVector(np.array([3, 2, 1]))
        prior = DirichletParams(np.ones(3))
        samples, act = run_gibbs(counts, prior, 12_000, 1000, None, RngStream(302))
        draws = rng.dirichlet(counts.counts + 1.0, size=400_000)
        cone = draws[np.all(draws[:, :-1] >= draws[:, 1:], axis=1)]
        mean_oracle = cone.mean(axis=0)
        se_oracle = cone.std(axis=0) / np.sqrt(len(cone))
        n_eff = samples.shape[0] / act
        se_gibbs = samples.std(axis=0) / np.sqrt(n_eff)
        gap = np.abs(samples.mean(axis=0) - mean_oracle)
        assert np.all(gap < 3 * np.sqrt(se_oracle**2 + se_gibbs**2))

    def test_nine_cell_means_match_rejection_oracle(self, rng):
        # grouped abundance counts: the flat-cone posterior has ~4% cone mass,
        # so direct rejection from Dirichlet(t+1) is a feasible oracle
        counts = CountVector(np.array([241, 64, 31, 8, 7, 5, 3, 2, 2]))
        prior = DirichletParams(np.ones(9))
        samples, act = run_gibbs(counts, prior, 8_000, 800, None, RngStream(306))
        draws = rng.dirichlet(counts.counts + 1.0, size=500_000)
        cone = draws[np.all(draws[:, :-1] >= draws[:, 1:], axis=1)]
        assert len(cone) > 10_000
        mean_oracle = cone.mean(axis=0)
        se_oracle = cone.std(axis=0) / np.sqrt(len(cone))
        n_eff = samples.shape[0] / act
        se_gibbs = samples.std(axis=0) / np.sqrt(n_eff)
        gap = np.abs(samples.mean(axis=0) - mean_oracle)
        assert np.all(gap < 3.5 * np.sqrt(se_oracle**2 + se_gibbs**2))

    def test_zero_data_chain_matches_prior(self):
        # no counts: the chain must leave the ordered prior invariant. 100k
        # sweeps thinned by 10 against 10k direct draws, 0.0025 per coordinate
        # (family-wise size about 1%)
        k1 = 4
        alphas = np.ones(k1)
        alphas[-1] += 2.0
        prior = DirichletParams(alphas)
        init = sample_ordered_prior_array(prior, 1, RngStream(303))[0]
        samples, _ = run_gibbs(None, prior, 100_000, 0, init, RngStream(304))
        thinned = samples[::10]
        direct = sample_ordered_prior_array(prior, thinned.shape[0], RngStream(305))
        for j in range(k1):
            assert ks_2samp(thinned[:, j], direct[:, j]).pvalue > 0.0025

    def test_input_validation(self):
        prior = DirichletParams(np.ones(3))
        with pytest.raises(ValueError):
            run_gibbs(None, prior, 0, 0, None, RngStream(0))
        with pytest.raises(ValueError):
            run_gibbs(None, prior, 10, 10, None, RngStream(0))
        with pytest.raises(ValueError):
            run_gibbs(CountVector(np.array([1, 1])), prior, 10, 1, None, RngStream(0))


# last weight parameter of the README elicitation's flat-mode prior
FLY_ALPHA_LAST = 3.837129592895508


def exact_posterior_means(t, alpha_last):
    """E[theta_i | t] = (t_i + 1)/(n + 1) * m(t + e_i)/m(t) from chain-integral masses.

    theta_i m(t) is (t_i + 1)/(n + 1) times the mass of t + e_i, whose
    multinomial coefficient has one more count in cell i.
    """
    t = np.asarray(t)
    log_m = chain_ordered_log_predictive(t, alpha_last)
    shifted = np.array([chain_ordered_log_predictive(t + np.eye(t.size, dtype=int)[i],
                                                     alpha_last) for i in range(t.size)])
    return (t + 1) / (t.sum() + 1) * np.exp(shifted - log_m)


@pytest.fixture(scope="module")
def means():
    return exact_posterior_means(FLY_COUNTS, FLY_ALPHA_LAST)


class TestExactMeansOracle:
    def test_means_sum_to_one(self, means):
        assert abs(means.sum() - 1.0) < 1e-6
        assert np.all(means[:-1] >= means[1:])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fly_chain_matches_exact_means(self, means, seed):
        # se of each coordinate's mean corrected by its autocorrelation time
        alphas = np.ones(18)
        alphas[-1] = FLY_ALPHA_LAST
        samples, act = run_gibbs(CountVector(FLY_COUNTS), DirichletParams(alphas),
                                  21_000, 1000, None, RngStream(seed))
        se = samples.std(axis=0) * np.sqrt(act / samples.shape[0])
        assert np.all(np.abs(samples.mean(axis=0) - means) <= 4 * se)


def flat_mode_prior(k1, alpha_last):
    alphas = np.ones(k1)
    alphas[-1] = alpha_last
    return DirichletParams(alphas)


def stacked_chain(powers, level=0):
    """``chain_log_integrals`` with its rows, handed out last cell first, stacked as G_1, ..., G_K."""
    x, rows = chain_log_integrals(powers, level)
    return x, np.stack(list(rows)[::-1])


def rejection_oracle(counts, n_draws, gen):
    """Means and their se under the flat cone prior: Dirichlet(t + 1) draws kept in the cone."""
    draws = gen.dirichlet(np.asarray(counts) + 1.0, size=n_draws)
    cone = draws[np.all(draws[:, :-1] >= draws[:, 1:], axis=1)]
    return cone.mean(axis=0), cone.std(axis=0) / np.sqrt(len(cone)), len(cone)


class TestExactSampler:
    """Backward sampling on the chain integrals against independent oracles."""

    def test_forward_log_mass_matches_chain_oracle(self):
        # the oracle's stated grid error is about 6e-4 nats; the forward pass's is
        # about 2e-4 against the same extrapolated value
        t = FLY_COUNTS
        k1, n, a = t.size, int(t.sum()), FLY_ALPHA_LAST
        a0 = k1 - 1 + a
        powers = t.astype(float)
        powers[-1] += a - 1.0
        _, log_g = stacked_chain(powers)
        lg = math.lgamma
        log_m = (lg(n + 1) - sum(lg(v + 1) for v in t) + lg(k1 + 1) + lg(a0) - lg(a)
                 + (a - 1.0) * math.log(k1) + log_g[0, -1] - lg(n + a0))
        assert abs(log_m - chain_ordered_log_predictive(t, a)) < 1e-3

    def test_grid_rule(self):
        # x = L u^3 over [0, L], L = 2(n + A) + 50, N = max(4096, 40 sqrt(L), 53 K^1.5)
        for counts, n_grid in (([5, 3, 1], 4096), ([10**6, 0, 0], 56569)):
            x, log_g = stacked_chain(np.array(counts, dtype=float))
            length = 2.0 * (sum(counts) + 3) + 50.0
            assert log_g.shape == (3, n_grid) and x.size == n_grid
            assert x[0] == 0.0 and x[-1] == length
            np.testing.assert_allclose(np.cbrt(x / length), np.linspace(0, 1, n_grid),
                                       atol=1e-14)
            # each level doubles the grid; the default level's values keep their bits
            x2, log_g2 = stacked_chain(np.array(counts, dtype=float), level=1)
            assert x2.size == 2 * n_grid and x2[-1] == length and log_g2.shape == (3, 2 * n_grid)
            assert same_bits(stacked_chain(np.array(counts, dtype=float), level=0)[1], log_g)

    def test_resumed_rows_keep_their_bits(self):
        powers = np.array([5.0, 0.0, 3.0, 1.0, 0.0, 2.0, 7.0])
        _, full = stacked_chain(powers)
        for i in (7, 5, 2):
            _, rows = chain_log_integrals(powers, resume=(i, full[i - 1]))
            assert same_bits(np.stack(list(rows))[::-1], full[:i - 1])

    @pytest.mark.parametrize("cells, segment", [(18, 4), (18, 5), (60, None), (60, 7)])
    def test_segments_keep_the_draws_bits(self, monkeypatch, cells, segment):
        counts = CountVector(np.random.default_rng(cells).integers(0, 5, cells))
        prior = flat_mode_prior(cells, 3.85)
        if segment is not None:
            monkeypatch.setattr(posterior, "CHAIN_SEGMENT", segment)
        got = sample_ordered_posterior(counts, prior, 200, RngStream(7))
        monkeypatch.setattr(posterior, "CHAIN_SEGMENT", cells)  # one pass, every row held
        assert same_bits(got, sample_ordered_posterior(counts, prior, 200, RngStream(7)))

    def test_many_cell_draws_hold_segments(self):
        # at 200 cells a row is 149 906 points, 1.2 MB: every row at once was 250 MB
        counts = CountVector(np.random.default_rng(200).integers(0, 5, 200))
        tracemalloc.start()
        try:
            samples = sample_ordered_posterior(counts, flat_mode_prior(200, 3.85), 100,
                                               RngStream(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert np.all(samples[:, :-1] >= samples[:, 1:])
        np.testing.assert_allclose(samples.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cells", [50, 171, 200])
    def test_grid_grows_with_the_cells(self, cells):
        # the trapezoid error grows as K^3 / N^2, so past 18 cells N = 53 K^1.5;
        # at t = 0 the chain's G_1(L) is 1/K!
        assert chain_log_integrals(np.zeros(18))[0].size == 4096
        x, rows = chain_log_integrals(np.zeros(cells))
        assert x.size == int(53.0 * cells ** 1.5)
        for log_g1 in rows:
            pass
        assert abs(log_g1[-1] + math.lgamma(cells + 1)) <= 2e-3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fly_means_match_exact_means(self, means, seed):
        samples = sample_ordered_posterior(CountVector(FLY_COUNTS),
                                           flat_mode_prior(18, FLY_ALPHA_LAST), 200_000,
                                           RngStream(seed))
        se = samples.std(axis=0) / np.sqrt(samples.shape[0])
        assert np.all(np.abs(samples.mean(axis=0) - means) <= 4 * se)

    @pytest.mark.parametrize("counts, n_oracle", [
        ([3, 2, 1], 400_000),
        # about 4% of the flat-cone posterior's Dirichlet(t + 1) mass lies in the cone
        ([241, 64, 31, 8, 7, 5, 3, 2, 2], 500_000),
    ])
    def test_means_match_rejection_oracle(self, rng, counts, n_oracle):
        mean_oracle, se_oracle, _ = rejection_oracle(counts, n_oracle, rng)
        samples = sample_ordered_posterior(CountVector(np.array(counts)),
                                           DirichletParams(np.ones(len(counts))), 100_000,
                                           RngStream(320))
        se = samples.std(axis=0) / np.sqrt(samples.shape[0])
        gap = np.abs(samples.mean(axis=0) - mean_oracle)
        assert np.all(gap < 3.5 * np.sqrt(se_oracle**2 + se**2))

    def test_marginals_match_thinned_gibbs_chain(self):
        # thinned to twice the chain's largest autocorrelation time; 9 coordinates at
        # 0.001 each keep the family-wise size below 1%
        counts = CountVector(np.array([241, 64, 31, 8, 7, 5, 3, 2, 2]))
        prior = DirichletParams(np.ones(9))
        chain, act = run_gibbs(counts, prior, 40_000, 1000, None, RngStream(310))
        thinned = chain[::math.ceil(2 * act.max())]
        exact = sample_ordered_posterior(counts, prior, 20_000, RngStream(311))
        for j in range(9):
            assert ks_2samp(thinned[:, j], exact[:, j]).pvalue > 0.001

    def test_zero_data_draws_match_prior(self):
        prior = flat_mode_prior(4, 3.0)
        exact = sample_ordered_posterior(None, prior, 20_000, RngStream(312))
        direct = sample_ordered_prior_array(prior, 20_000, RngStream(313))
        for j in range(4):
            assert ks_2samp(exact[:, j], direct[:, j]).pvalue > 0.0025

    def test_large_n_matches_dirichlet(self):
        # n = 10^6 in strongly decreasing cells: the cone holds all but a
        # negligible share of Dirichlet(t + 1), which is then the posterior
        t = np.round(1e6 * 0.3 * 0.7 ** np.arange(18)).astype(np.int64)
        t[0] += 10**6 - t.sum()
        samples = sample_ordered_posterior(CountVector(t), DirichletParams(np.ones(18)),
                                           100_000, RngStream(314))
        direct = np.random.default_rng(315).dirichlet(t + 1.0, size=100_000)
        se = np.sqrt((samples.var(axis=0) + direct.var(axis=0)) / 100_000)
        assert np.all(np.abs(samples.mean(axis=0) - direct.mean(axis=0)) < 4 * se)
        # the sd ratio's se is about 0.3% at 100k draws each
        np.testing.assert_allclose(samples.std(axis=0), direct.std(axis=0), rtol=0.015)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        k1=st.integers(2, 24),
        alpha_last=st.floats(1.0, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_finite_decreasing_reproducible(self, data, k1, alpha_last, seed):
        # empty cells and totals from 1 to 10^6
        cells = st.one_of(st.just(0), st.integers(0, 10), st.integers(0, 10**6 // k1 - 1))
        counts = np.array(data.draw(st.lists(cells, min_size=k1, max_size=k1)))
        counts[data.draw(st.integers(0, k1 - 1))] += 1
        prior = flat_mode_prior(k1, alpha_last)
        samples = sample_ordered_posterior(CountVector(counts), prior, 50, RngStream(seed))
        assert samples.shape == (50, k1)
        assert np.all(np.isfinite(samples))
        assert np.all(samples[:, :-1] >= samples[:, 1:])
        np.testing.assert_allclose(samples.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        again = sample_ordered_posterior(CountVector(counts), prior, 50, RngStream(seed))
        assert np.array_equal(samples.view(np.int64), again.view(np.int64))

    def test_priors_outside_the_exact_family_are_refused(self):
        assert has_exact_draws(flat_mode_prior(3, 1.0))
        for alphas in ([1.0, 1.0, 0.5], [1.2, 1.0, 3.0], [0.1, 0.1, 0.1]):
            prior = DirichletParams(np.array(alphas))
            assert not has_exact_draws(prior)
            with pytest.raises(ValueError, match="exact draws need"):
                sample_ordered_posterior(None, prior, 10, RngStream(0))
        with pytest.raises(ValueError, match="dimensions differ"):
            sample_ordered_posterior(CountVector(np.array([1, 1])), flat_mode_prior(3, 1.0),
                                     10, RngStream(0))


def importance_oracle(counts, alpha, n_draws, seed):
    """Self-normalised IS posterior means under the ordered prior, proposing from the prior."""
    gen = np.random.default_rng(seed)
    theta = ordered_from_weights_array(gen.dirichlet(np.full(len(counts), alpha), size=n_draws))
    with np.errstate(divide="ignore"):
        log_w = (np.asarray(counts) * np.log(theta)).sum(axis=1)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    mean = w @ theta
    se = np.sqrt((w[:, None] ** 2 * (theta - mean) ** 2).sum(axis=0))
    return mean, se


class TestSmallConcentration:
    @pytest.mark.parametrize("counts", [[3, 0, 0, 0], [0, 7, 0, 2]])
    def test_means_match_importance_oracle(self, counts):
        # alpha = 0.1 puts the prior near the simplex faces
        mean_oracle, se_oracle = importance_oracle(counts, 0.1, 400_000, 11)
        prior = DirichletParams(np.full(4, 0.1))
        samples, act = run_gibbs(CountVector(np.array(counts)), prior, 20_000, 1000, None,
                                  RngStream(400))
        se_gibbs = samples.std(axis=0) / np.sqrt(samples.shape[0] / act)
        gap = np.abs(samples.mean(axis=0) - mean_oracle)
        assert np.all(gap < 3.5 * np.sqrt(se_oracle**2 + se_gibbs**2))

    @pytest.mark.xfail(strict=True, reason="Gibbs absorbed at a vertex at small alpha; "
                                           "ROADMAP item 4")
    def test_two_cell_mean_matches_the_exact_sum(self):
        # theta_1 = 1 - w / 2 with w ~ Beta(alpha, alpha), so E[theta_1 | t = (5, 0)] is
        # S(6) / S(5), S(m) = sum_j C(m, j) (-1/2)^j B(alpha + j, alpha)
        alpha = 1e-3

        def s(m):
            return sum(math.comb(m, j) * (-0.5) ** j
                       * math.exp(math.lgamma(alpha + j) + math.lgamma(alpha)
                                  - math.lgamma(2 * alpha + j)) for j in range(m + 1))

        exact = s(6) / s(5)
        assert exact == pytest.approx(0.9846081, abs=1e-7)
        samples, _ = run_gibbs(CountVector(np.array([5, 0])), DirichletParams(np.full(2, alpha)),
                               300, 100, None, RngStream(1))
        assert abs(samples[:, 0].mean() - exact) < 0.02


def assert_valid_rows(samples, k1, kept):
    assert samples.shape == (kept, k1)
    assert np.all(np.isfinite(samples))
    assert np.all(samples[:, :-1] >= samples[:, 1:])
    np.testing.assert_allclose(samples.sum(axis=1), 1.0, atol=1e-10)


class TestRowProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        k1=st.integers(2, 7),
        log_alpha=st.floats(np.log(1e-3), np.log(50.0)),
        prior_only=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_finite_decreasing_on_simplex(self, data, k1, log_alpha, prior_only, seed):
        # empty cells, totals up to 1e7, concentrations down to 1e-3, prior-only chains
        cells = st.one_of(st.just(0), st.integers(0, 10), st.integers(0, 10**7))
        counts = np.array(data.draw(st.lists(cells, min_size=k1, max_size=k1)))
        counts[data.draw(st.integers(0, k1 - 1))] += 1
        alphas = np.exp(log_alpha) * np.array(
            data.draw(st.lists(st.floats(0.5, 2.0), min_size=k1, max_size=k1)))
        samples, act = run_gibbs(None if prior_only else CountVector(counts),
                                  DirichletParams(alphas), 40, 10, None, RngStream(seed))
        assert_valid_rows(samples, k1, 30)
        assert np.all(np.isfinite(act))

    @pytest.mark.parametrize("counts", [None, [1, 0, 0, 0, 0], [10**7, 0, 0, 0, 3],
                                        [0, 0, 0, 0, 10**7]])
    def test_smallest_concentration(self, counts):
        # Gamma(1e-3) underflows to 0 in linear space; the chain must stay finite
        prior = DirichletParams(np.full(5, 1e-3))
        samples, _ = run_gibbs(None if counts is None else CountVector(np.array(counts)),
                               prior, 200, 0, None, RngStream(401))
        assert_valid_rows(samples, 5, 200)


class TestAutocorrelationTime:
    def test_iid_near_one(self):
        x = np.random.default_rng(402).standard_normal(20_000)
        assert autocorrelation_time(x) == pytest.approx(1.0, abs=0.1)

    def test_ar1_closed_form(self):
        # AR(1) with coefficient phi: tau = (1 + phi) / (1 - phi) = 19 at phi = 0.9
        gen = np.random.default_rng(403)
        x = np.empty(200_000)
        x[0] = 0.0
        eps = gen.standard_normal(x.size)
        for i in range(1, x.size):
            x[i] = 0.9 * x[i - 1] + eps[i]
        assert autocorrelation_time(x) == pytest.approx(19.0, rel=0.1)

    def test_correlation_beyond_lag_1000_counts(self):
        # blocks of 3000 equal values: rho(l) = 1 - l / 3000, so tau = 3000;
        # summing only the first 1000 lags would read about 1670
        x = np.repeat(np.random.default_rng(404).standard_normal(200), 3000)
        assert autocorrelation_time(x) == pytest.approx(3000.0, rel=0.2)
