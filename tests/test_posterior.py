import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from conmult.core import CountVector, DirichletParams, ordered_from_weights_array
from conmult.posterior import autocorrelation_time, run_gibbs
from conmult.sampling import RngStream, sample_ordered_prior_array


class TestRunGibbs:
    def test_states_stay_in_cone_and_simplex(self):
        counts = CountVector(np.array([8, 5, 3, 1]))
        prior = DirichletParams(np.ones(4))
        samples, diag = run_gibbs(counts, prior, 500, 50, None, RngStream(300))
        assert samples.shape == (450, 4)
        assert np.all(samples[:, :-1] >= samples[:, 1:] - 1e-12)
        np.testing.assert_allclose(samples.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(diag.autocorr_time >= 1.0)

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
        samples, diag = run_gibbs(counts, prior, 12_000, 1000, None, RngStream(302))
        draws = rng.dirichlet(counts.counts + 1.0, size=400_000)
        cone = draws[np.all(draws[:, :-1] >= draws[:, 1:], axis=1)]
        mean_oracle = cone.mean(axis=0)
        se_oracle = cone.std(axis=0) / np.sqrt(len(cone))
        n_eff = samples.shape[0] / diag.autocorr_time
        se_gibbs = samples.std(axis=0) / np.sqrt(n_eff)
        gap = np.abs(samples.mean(axis=0) - mean_oracle)
        assert np.all(gap < 3 * np.sqrt(se_oracle**2 + se_gibbs**2))

    def test_nine_cell_means_match_rejection_oracle(self, rng):
        # grouped abundance counts: the flat-cone posterior has ~4% cone mass,
        # so direct rejection from Dirichlet(t+1) is a feasible oracle
        counts = CountVector(np.array([241, 64, 31, 8, 7, 5, 3, 2, 2]))
        prior = DirichletParams(np.ones(9))
        samples, diag = run_gibbs(counts, prior, 8_000, 800, None, RngStream(306))
        draws = rng.dirichlet(counts.counts + 1.0, size=500_000)
        cone = draws[np.all(draws[:, :-1] >= draws[:, 1:], axis=1)]
        assert len(cone) > 10_000
        mean_oracle = cone.mean(axis=0)
        se_oracle = cone.std(axis=0) / np.sqrt(len(cone))
        n_eff = samples.shape[0] / diag.autocorr_time
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
        samples, diag = run_gibbs(CountVector(np.array(counts)), prior, 20_000, 1000, None,
                                  RngStream(400))
        se_gibbs = samples.std(axis=0) / np.sqrt(samples.shape[0] / diag.autocorr_time)
        gap = np.abs(samples.mean(axis=0) - mean_oracle)
        assert np.all(gap < 3.5 * np.sqrt(se_oracle**2 + se_gibbs**2))


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
        samples, diag = run_gibbs(None if prior_only else CountVector(counts),
                                  DirichletParams(alphas), 40, 10, None, RngStream(seed))
        assert_valid_rows(samples, k1, 30)
        assert np.all(np.isfinite(diag.autocorr_time))

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
