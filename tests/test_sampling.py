import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare, ks_2samp

from conmult.core import DirichletParams, OrderedCone, SimplexPoint, TrineEllipse
from conmult.elicitation import dirichlet_from_mode
from conmult.sampling import (
    RngStream,
    chunked_monte_carlo,
    sample_dirichlet_array,
    sample_multinomial_array,
    sample_ordered_prior_array,
    sample_trine_prior_array,
)

from conftest import same_bits


class TestRngStream:
    def test_identical_streams_identical_draws(self):
        a = RngStream(123, 4).generator().standard_normal(100)
        b = RngStream(123, 4).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator().standard_normal(100)
        b = RngStream(123, 1).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_substream_determinism(self):
        s = RngStream(7)
        a = s.substream(3).generator().uniform(size=10)
        b = s.substream(3).generator().uniform(size=10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, s.substream(4).generator().uniform(size=10))


class TestChunkedMonteCarlo:
    def test_worker_count_does_not_change_result(self):
        params = DirichletParams(np.array([2.0, 3.0, 4.0]))

        def chunk(stream, m):
            return sample_dirichlet_array(params, m, stream).sum(axis=0)

        base = RngStream(99)
        r1 = np.sum(chunked_monte_carlo(chunk, 230_000, base, workers=1), axis=0)
        r4 = np.sum(chunked_monte_carlo(chunk, 230_000, base, workers=4), axis=0)
        np.testing.assert_array_equal(r1, r4)

    def test_partition_covers_total(self):
        sizes = chunked_monte_carlo(lambda s, m: m, 250_001, RngStream(1))
        assert sum(sizes) == 250_001


class TestDirichlet:
    def test_symmetric_mean(self):
        th = sample_dirichlet_array(DirichletParams(np.ones(3)), 100_000, RngStream(0))
        se = math.sqrt((1 / 3) * (2 / 3) / 100_000)
        np.testing.assert_allclose(th.mean(axis=0), 1 / 3, atol=3 * se)

    def test_mode_concentration_mean(self):
        # coordinate mean (1 + tau*xi_i) / (tau + k + 1)
        xi = SimplexPoint(np.array([0.5, 0.3, 0.2]))
        tau = 12.0
        params = dirichlet_from_mode(xi, tau)
        np.testing.assert_allclose(params.alphas, [7.0, 4.6, 3.4])
        th = sample_dirichlet_array(params, 200_000, RngStream(5))
        expect = (1 + tau * xi.probs) / (tau + 3)
        np.testing.assert_allclose(th.mean(axis=0), expect, atol=4e-3)

    def test_large_tau_concentrates_at_mode(self):
        xi = SimplexPoint(np.array([0.5, 0.3, 0.2]))
        small = sample_dirichlet_array(dirichlet_from_mode(xi, 10.0),
                                       20_000, RngStream(6))
        large = sample_dirichlet_array(dirichlet_from_mode(xi, 10_000.0),
                                       20_000, RngStream(6))
        assert np.all(large.var(axis=0) < small.var(axis=0) / 100)
        np.testing.assert_allclose(large.mean(axis=0), xi.probs, atol=2e-3)

    def test_single_draw_api(self):
        p = sample_dirichlet_array(DirichletParams(np.array([2.0, 2.0])), 1, RngStream(1))
        assert p.shape == (1, 2)
        SimplexPoint(p[0])

    @staticmethod
    def numpy_dirichlet(alphas, size, gen):
        """The sampler with numpy's row sums, zero-row redraws included."""
        g = gen.standard_gamma(alphas, size=(size, alphas.size))
        s = g.sum(axis=1, keepdims=True)
        for i in np.flatnonzero(s[:, 0] == 0.0):
            while g[i].sum() == 0.0:
                g[i] = gen.standard_gamma(alphas)
            s[i, 0] = g[i].sum()
        return g / s

    @settings(max_examples=80, deadline=None)
    @given(k1=st.integers(2, 20), size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 3e-3, 0.1, 1.0, 50.0]), data=st.data())
    def test_bitwise_equal_to_numpy_row_sums(self, k1, size, seed, scale, data):
        # alphas near 1e-3 underflow whole gamma rows to zero, which are redrawn
        alphas = scale * np.array(data.draw(st.lists(st.floats(1.0, 4.0), min_size=k1,
                                                     max_size=k1)))
        got = sample_dirichlet_array(DirichletParams(alphas), size, np.random.default_rng(seed))
        assert same_bits(got, self.numpy_dirichlet(alphas, size, np.random.default_rng(seed)))

    def test_zero_rows_redrawn_as_with_numpy_row_sums(self):
        alphas = np.array([1e-3, 2e-3])
        zero_rows = np.random.default_rng(4).standard_gamma(alphas, size=(200, 2)).sum(axis=1) == 0
        assert zero_rows.sum() > 10
        got = sample_dirichlet_array(DirichletParams(alphas), 200, np.random.default_rng(4))
        assert same_bits(got, self.numpy_dirichlet(alphas, 200, np.random.default_rng(4)))
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=1e-15)

    def test_mode_concentration_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            dirichlet_from_mode(SimplexPoint(np.array([0.5, 0.5])), 0.0)


class TestMultinomial:
    def test_degenerate_cell(self):
        t = sample_multinomial_array(50, np.array([1.0, 0.0]), 1, RngStream(2))[0]
        assert t[0] == 50

    def test_single_trial_one_hot(self):
        t = sample_multinomial_array(1, np.array([0.3, 0.7]), 1, RngStream(3))[0]
        assert t.sum() == 1 and t.max() == 1

    def test_chi_square_goodness_of_fit(self):
        theta = np.array([0.5, 0.3, 0.2])
        draws = sample_multinomial_array(1, theta, 100_000, RngStream(4))
        observed = draws.sum(axis=0)
        stat = chisquare(observed, 100_000 * theta)
        assert stat.pvalue > 0.01

    def test_rejects_nonpositive_n(self):
        for n in (0, -3):
            with pytest.raises(ValueError, match="n must be"):
                sample_multinomial_array(n, np.array([0.5, 0.5]), 1, RngStream(0))

    def test_every_row_totals_n(self):
        t = sample_multinomial_array(37, np.array([0.1, 0.6, 0.3]), 500, RngStream(5))
        assert t.shape == (500, 3) and t.min() >= 0 and np.all(t.sum(axis=1) == 37)


class TestTrinePrior:
    def test_every_draw_in_region(self):
        for a in (1 / 3, 0.48445):
            th = sample_trine_prior_array(a, 50_000, RngStream(11))
            region = TrineEllipse(a)
            assert region.contains_array(th).all()
            assert (th > 0).all() and (th < 1).all()

    def test_zero_radius_is_center(self):
        region = TrineEllipse(1 / 3)
        # radius zero forces the center point by construction
        th = sample_trine_prior_array(1 / 3, 2000, RngStream(12))
        q = region.quad_form_array(th[:, :2])
        nearest = th[np.argmin(q)]
        center3 = np.array([*region.center, 1 - region.center.sum()])
        np.testing.assert_allclose(nearest, center3, atol=0.05)

    def test_matches_rejection_oracle(self, rng):
        # oracle: flat simplex draws thinned with probability (1 - Q)^(1/2)
        region = TrineEllipse(1 / 3)
        g = rng.standard_gamma(1.0, size=(400_000, 3))
        flat = g / g.sum(axis=1, keepdims=True)
        q = region.quad_form_array(flat[:, :2])
        keep = (q <= 1) & (rng.uniform(size=flat.shape[0]) < np.sqrt(np.clip(1 - q, 0, None)))
        oracle = flat[keep]
        draws = sample_trine_prior_array(1 / 3, 100_000, RngStream(13))
        m = min(len(oracle), len(draws))
        for j in range(3):
            assert ks_2samp(draws[:m, j], oracle[:m, j]).pvalue > 0.01

    def test_single_draw_api(self):
        p = sample_trine_prior_array(1 / 3, 1, RngStream(14))
        assert p.shape == (1, 3) and TrineEllipse(1 / 3).contains_array(p).all()

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            sample_trine_prior_array(0.6, 10, RngStream(0))


class TestOrderedPrior:
    def test_every_draw_in_cone(self):
        params = DirichletParams(np.ones(8))
        th = sample_ordered_prior_array(params, 20_000, RngStream(21))
        assert np.all(th[:, :-1] >= th[:, 1:])

    def test_flat_weights_give_uniform_cone_content(self, rng):
        # event content under the sampler vs a rejection oracle on the cone
        k1 = 4
        draws = sample_ordered_prior_array(DirichletParams(np.ones(k1)), 200_000,
                                           RngStream(22))
        g = rng.standard_gamma(1.0, size=(2_000_000, k1))
        flat = g / g.sum(axis=1, keepdims=True)
        cone = flat[np.all(flat[:, :-1] >= flat[:, 1:], axis=1)]
        # refinement event: the largest probability at least doubles the second
        p_draws = np.mean(draws[:, 0] >= 2 * draws[:, 1])
        p_oracle = np.mean(cone[:, 0] >= 2 * cone[:, 1])
        se = math.sqrt(p_oracle * (1 - p_oracle) * (1 / len(draws) + 1 / len(cone)))
        assert abs(p_draws - p_oracle) < 4 * se

    def test_large_tau_concentrates_at_uniform(self):
        k1 = 6
        alphas = np.ones(k1)
        alphas[-1] += 5000.0
        th = sample_ordered_prior_array(DirichletParams(alphas), 10_000, RngStream(23))
        np.testing.assert_allclose(th.mean(axis=0), 1 / k1, atol=2e-3)
        assert th.std(axis=0).max() < 0.01

    def test_single_draw_api(self):
        p = sample_ordered_prior_array(DirichletParams(np.ones(5)), 1, RngStream(24))
        assert p.shape == (1, 5) and OrderedCone(dim=5).contains_array(p).all()

    def test_bit_identical_reproducibility(self):
        a = sample_ordered_prior_array(DirichletParams(np.ones(5)), 100, RngStream(7, 3))
        b = sample_ordered_prior_array(DirichletParams(np.ones(5)), 100, RngStream(7, 3))
        np.testing.assert_array_equal(a, b)
