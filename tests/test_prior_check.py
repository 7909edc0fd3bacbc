import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from conmult.core import CountVector, DirichletParams, weights_from_ordered_array
from conmult.consistency import log_dirichlet_multinomial
from conmult.model_check import Strided
from conmult.prior_check import (
    OrderedDirichletPrior,
    ProposalSupportError,
    RawDirichletPrior,
    TrinePrior,
    conflict_pvalue,
    estimate_log_prior_predictive,
    grouped_bounds,
    grouped_conflict_check,
    predictive_in_region_rate,
    project_to_cone,
    proposal_for,
    reduce_ordered_prior,
    tune_tau,
)
from conmult.sampling import RngStream

from conftest import FLY_COUNTS, FLY_ELICITATION


def ordered_prior(tau, k1=18):
    alphas = np.ones(k1)
    alphas[-1] += tau
    return OrderedDirichletPrior(DirichletParams(alphas))


def compositions(total, parts):
    """Every way to write ``total`` as an ordered sum of ``parts`` non-negative integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def exact_ordered_log_predictive(t, alphas):
    """Exact log predictive mass of counts ``t`` under the ordered prior.

    theta_i = sum_{j>=i} omega_j / j, so prod_i theta_i^{t_i} expands over the
    allocations m_ij (j >= i) of each t_i into terms prod_j (omega_j / j)^{M_j}
    with M_j = sum_i m_ij, whose expectations are Dirichlet moments of omega.
    """
    k1 = len(t)
    terms = []
    for alloc in itertools.product(*(compositions(int(t[i]), k1 - i) for i in range(k1))):
        m = np.zeros(k1)
        log_c = 0.0
        for i, row in enumerate(alloc):
            for j, mij in enumerate(row, start=i):
                m[j] += mij
                log_c -= math.lgamma(mij + 1) + mij * math.log(j + 1)
        log_c += sum(math.lgamma(a + mj) - math.lgamma(a) for a, mj in zip(alphas, m))
        terms.append(log_c)
    n, a0 = int(sum(t)), float(sum(alphas))
    return math.lgamma(n + 1) + math.lgamma(a0) - math.lgamma(a0 + n) + logsumexp(terms)


def chain_ordered_log_predictive(t, alpha_last, n_grid=65536):
    """Log predictive mass of ``t`` under the ordered prior with weights Dirichlet(1, ..., 1, alpha_last).

    With x_i independent unit-rate gammas and theta = x / sum(x), the mass is
    n!/prod t_i! * K! Gamma(A)/Gamma(alpha_last) * K^(alpha_last - 1) * J / Gamma(n + A)
    for K cells and A = K - 1 + alpha_last, where J integrates
    prod x_i^t_i e^-x_i * x_K^(alpha_last - 1) over x_1 >= ... >= x_K >= 0. With
    every other weight parameter 1, J is a chain of running integrals:
    H_K(x) = x^(t_K + alpha_last - 1) e^-x, H_i(x) = x^t_i e^-x int_0^x H_{i+1},
    J = int_0^inf H_1. Each runs by the trapezoid rule on a uniform grid, in log
    space with one rescale per step.
    """
    t = np.asarray(t, dtype=float)
    k1, n = t.size, float(t.sum())
    a0 = k1 - 1 + alpha_last
    x = np.linspace(0.0, 2.0 * (n + a0) + 50.0, n_grid)  # sum(x) ~ Gamma(n + A)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x = np.log(x)

        def log_factor(power):
            return np.where(power != 0, power * log_x, 0.0) - x

        def log_running_integral(log_h):
            top = log_h.max()
            h = np.exp(log_h - top)
            steps = 0.5 * (h[1:] + h[:-1]) * np.diff(x)
            return np.log(np.concatenate([[0.0], np.cumsum(steps)])) + top

        log_h = log_factor(t[-1] + alpha_last - 1.0)
        for t_i in t[-2::-1]:
            log_h = log_factor(t_i) + log_running_integral(log_h)
        log_j = log_running_integral(log_h)[-1]
    lg = math.lgamma
    return (lg(n + 1) - sum(lg(v + 1) for v in t) + lg(k1 + 1) + lg(a0) - lg(alpha_last)
            + (alpha_last - 1.0) * math.log(k1) + log_j - lg(n + a0))


class TestChainOracle:
    @pytest.mark.parametrize("t, alpha_last", [
        ((5, 2, 1), 1.0),
        ((3, 0, 2), 2.5),
        ((0, 0, 6), 1.0),
        ((8, 0, 0), 4.0),
        ((4, 2, 1, 0), 3.0),
        ((1, 1, 1, 3), 1.7),
    ])
    def test_matches_exact_enumeration(self, t, alpha_last):
        alphas = [1.0] * (len(t) - 1) + [alpha_last]
        assert abs(chain_ordered_log_predictive(t, alpha_last)
                   - exact_ordered_log_predictive(t, alphas)) <= 1e-5

    def test_observed_fly_mass(self):
        # last weight parameter of the README elicitation's flat-mode prior (tau = 2.8371)
        log_m = chain_ordered_log_predictive(FLY_COUNTS, 3.837129592895508)
        assert log_m == pytest.approx(-48.740, abs=0.01)


class TestPredictiveEstimator:
    def test_flat_prior_closed_form(self):
        # flat prior on 3 cells: every count vector has mass n! k! / (n+k)!
        n, k = 10, 2
        expect = math.lgamma(n + 1) + math.lgamma(k + 1) - math.lgamma(n + k + 1)
        prior = RawDirichletPrior(DirichletParams(np.ones(3)))
        for i, t in enumerate([(10, 0, 0), (4, 3, 3), (0, 2, 8)]):
            tv = CountVector(np.array(t))
            prop = proposal_for(tv, prior, float(n))
            log_m, se = estimate_log_prior_predictive(tv, prior, prop, 20_000,
                                                      RngStream(60 + i))
            assert abs(log_m - expect) < 3 * se
            assert se < 0.05

    def test_two_cell_flat_prior_uniform_predictive(self):
        n = 12
        prior = RawDirichletPrior(DirichletParams(np.ones(2)))
        for t1 in (0, 5, 12):
            tv = CountVector(np.array([t1, n - t1]))
            prop = proposal_for(tv, prior, float(n))
            log_m, se = estimate_log_prior_predictive(tv, prior, prop, 20_000,
                                                      RngStream(70 + t1))
            assert abs(log_m - math.log(1 / (n + 1))) < 3 * se

    def test_matches_closed_form_random_cases(self, rng):
        # Dirichlet-multinomial closed form as the oracle, 30 random cases
        for case in range(30):
            k1 = int(rng.integers(2, 5))
            n = int(rng.integers(5, 31))
            alphas = rng.uniform(0.8, 5.0, size=k1)
            t = rng.multinomial(n, rng.dirichlet(alphas))
            prior = RawDirichletPrior(DirichletParams(alphas))
            tv = CountVector(t)
            prop = proposal_for(tv, prior, float(n))
            log_m, se = estimate_log_prior_predictive(tv, prior, prop, 8_000,
                                                      RngStream(1000 + case))
            exact = log_dirichlet_multinomial(t, alphas)
            assert abs(log_m - exact) < 3 * max(se, 1e-4)

    def test_trine_estimates_stable_across_tau(self):
        t = CountVector(np.array([3416, 1912, 1748]))
        prior = TrinePrior(1 / 3)
        vals, ses = [], []
        for i, tau in enumerate((t.n, t.n / 10, t.n / 100)):
            prop = proposal_for(t, prior, float(tau))
            log_m, se = estimate_log_prior_predictive(t, prior, prop, 10_000,
                                                      RngStream(80 + i))
            vals.append(log_m)
            ses.append(se)
        spread_tol = 5 * math.hypot(max(ses), max(ses))
        assert max(vals) - min(vals) < max(spread_tol, 0.05)

    def test_ordered_exact_oracle_normalizes(self):
        for alphas in ([1.0, 1.0, 1.0], [0.5, 3.0, 3.0]):
            total = sum(math.exp(exact_ordered_log_predictive(t, alphas))
                        for t in itertools.product(range(5), repeat=3) if sum(t) == 4)
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("i, t, alphas", [
        (0, (5, 2, 1), [1.0, 1.0, 1.0]),
        (1, (8, 0, 0), [2.0, 0.7, 1.5]),
        (2, (1, 2, 4), [1.5, 1.5, 4.0]),
        (3, (3, 3, 2), [0.7, 3.0, 3.0]),
        (4, (0, 0, 6), [0.9, 1.2, 2.5]),
    ])
    def test_ordered_matches_exact_enumeration(self, i, t, alphas):
        prior = OrderedDirichletPrior(DirichletParams(np.array(alphas)))
        tv = CountVector(np.array(t))
        prop = proposal_for(tv, prior, 1.0)
        # proposal alphas below twice the prior's keep the weight variance
        # finite, so the delta-method se is a valid error bar
        assert np.all(prop.alphas < 2 * np.array(alphas))
        log_m, se = estimate_log_prior_predictive(tv, prior, prop, 4_000,
                                                  RngStream(110 + i))
        assert abs(log_m - exact_ordered_log_predictive(t, alphas)) < 3 * se

    def test_all_zero_weights_raise(self):
        # proposal concentrated at a corner far outside the trine ellipse
        prior = TrinePrior(1 / 3)
        t = CountVector(np.array([1000, 1, 1]))
        prop = proposal_for(t, prior, 1e6)
        with pytest.raises(ProposalSupportError, match="proposal"):
            estimate_log_prior_predictive(t, prior, prop, 500, RngStream(90))


class TestProposals:
    def test_raw_prior_mode_at_frequencies(self):
        t = CountVector(np.array([6, 3, 1]))
        prop = proposal_for(t, RawDirichletPrior(DirichletParams(np.ones(3))), 10.0)
        np.testing.assert_allclose(prop.alphas, np.array([7.0, 4.0, 2.0]))

    def test_in_cone_frequencies_kept(self):
        prior = ordered_prior(2.85)
        t = CountVector(FLY_COUNTS)
        freqs = FLY_COUNTS / FLY_COUNTS.sum()
        # the observed frequencies are decreasing and inside the elicited interval
        assert np.all(np.diff(freqs) <= 0)
        assert freqs[-1] > FLY_ELICITATION["l"] and freqs[0] < FLY_ELICITATION["u"]
        prop = proposal_for(t, prior, 60.0)
        xi = weights_from_ordered_array(freqs)
        np.testing.assert_allclose(prop.alphas, 1 + 60.0 * xi, atol=1e-12)

    def test_projection_matches_closed_form(self):
        # oracle: the largest feasible mixing weight has the closed form
        # min over decreasing violations of e_i / (e_i - d_i)
        anchor = np.array([0.35, 0.25, 0.2, 0.12, 0.08])
        x = np.array([0.3, 0.34, 0.1, 0.2, 0.06])
        d = x[:-1] - x[1:]
        e = anchor[:-1] - anchor[1:]
        lam = min(e[i] / (e[i] - d[i]) for i in range(4) if d[i] < 0)
        expect = lam * x + (1 - lam) * anchor
        got = project_to_cone(x, anchor)
        np.testing.assert_allclose(got, expect, atol=1e-9)
        assert np.all(got[:-1] - got[1:] >= -1e-9)

    def test_ordered_mode_decreasing_with_small_alpha(self):
        # weights with alpha < 1 get no mode mass: xi = (0, 1/2, 1/2)
        mode = OrderedDirichletPrior(DirichletParams(np.array([0.5, 3.0, 3.0]))).theta_mode()
        np.testing.assert_allclose(mode, [5 / 12, 5 / 12, 1 / 6], atol=1e-15)

    def test_projection_boundary_has_tie(self):
        prior = ordered_prior(2.85)
        t = CountVector(np.array([35, 29, 20, 145, 96, 11, 4, 4, 4, 3, 3, 2, 2,
                                  1, 1, 1, 1, 1]))
        mode = project_to_cone(t.counts / t.n, prior.theta_mode())
        diffs = mode[:-1] - mode[1:]
        assert np.all(diffs >= -1e-15)
        assert diffs.min() <= 1e-9  # lands on the cone boundary

    def test_ordered_proposal_draws_stay_in_cone(self):
        prior = ordered_prior(2.85)
        t = CountVector(np.array([35, 29, 20, 145, 96, 11, 4, 4, 4, 3, 3, 2, 2,
                                  1, 1, 1, 1, 1]))
        prop = proposal_for(t, prior, 30.0)
        from conmult.sampling import sample_ordered_prior_array

        th = sample_ordered_prior_array(prop, 5_000, RngStream(91))
        assert np.all(th[:, :-1] >= th[:, 1:])

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            proposal_for(CountVector(np.array([1, 1])),
                         RawDirichletPrior(DirichletParams(np.ones(2))), 0.0)


class TestTuneTau:
    def test_selects_max_ess(self):
        prior = ordered_prior(2.85)
        t = CountVector(FLY_COUNTS)
        grid = [t.n / 100, t.n / 10, float(t.n)]
        tau, profile = tune_tau(t, prior, grid, RngStream(92), n_is=3000)
        # wide proposals dominate here; the pick must be the grid's ESS argmax
        assert [p[0] for p in profile] == grid
        best = max(profile, key=lambda p: p[1])[0]
        assert tau == best

    def test_singleton_grid(self):
        prior = RawDirichletPrior(DirichletParams(np.ones(3)))
        t = CountVector(np.array([5, 3, 2]))
        # a one-value grid needs no pilot run and has no profile
        assert tune_tau(t, prior, [7.5], RngStream(93)) == (7.5, None)

    def test_empty_grid_rejected(self):
        prior = RawDirichletPrior(DirichletParams(np.ones(3)))
        with pytest.raises(ValueError):
            tune_tau(CountVector(np.array([5, 3, 2])), prior, [], RngStream(94))


class TestConflictPvalue:
    def test_unnormalized_prior_invariance(self):
        class ScaledTrine(TrinePrior):
            def log_density_array(self, thetas):
                return super().log_density_array(thetas) + math.log(7.3)

        t = CountVector(np.array([341, 191, 175]))
        a = conflict_pvalue(t, TrinePrior(1 / 3), 200, 2000, RngStream(95))
        b = conflict_pvalue(t, ScaledTrine(1 / 3), 200, 2000, RngStream(95))
        assert a.pvalue == b.pvalue
        assert b.log_m_obs == pytest.approx(a.log_m_obs + math.log(7.3), abs=1e-9)

    def test_relabeling_invariance(self):
        perm = np.array([2, 0, 1])
        alphas = np.array([3.0, 2.0, 1.5])
        t = np.array([20, 12, 8])
        a = conflict_pvalue(CountVector(t),
                            RawDirichletPrior(DirichletParams(alphas)),
                            400, 3000, RngStream(96))
        b = conflict_pvalue(CountVector(t[perm]),
                            RawDirichletPrior(DirichletParams(alphas[perm])),
                            400, 3000, RngStream(97))
        se = math.sqrt(a.pvalue * (1 - a.pvalue) / 400)
        assert abs(a.pvalue - b.pvalue) < 4 * se + 0.02

    def test_report_fields(self):
        t = CountVector(np.array([30, 20, 10]))
        rep = conflict_pvalue(t, RawDirichletPrior(DirichletParams(np.ones(3))),
                              100, 1000, RngStream(98))
        assert 0 <= rep.pvalue <= 1
        assert rep.n_predictive == 100
        assert rep.log_m_pred.shape == (100,)
        assert rep.ess_min > 0
        assert not rep.unreliable
        assert rep.tau == t.n  # probability-space default

    def test_ordered_prior_tunes_tau_by_default(self):
        t = CountVector(FLY_COUNTS)
        rep = conflict_pvalue(t, ordered_prior(2.85), 60, 2000, RngStream(99))
        assert rep.tau_profile is not None
        taus = [tau for tau, _ in rep.tau_profile]
        assert rep.tau in taus

    def test_deterministic_under_fixed_stream(self):
        t = CountVector(np.array([30, 20, 10]))
        prior = RawDirichletPrior(DirichletParams(np.ones(3)))
        a = conflict_pvalue(t, prior, 50, 500, RngStream(11, 5))
        b = conflict_pvalue(t, prior, 50, 500, RngStream(11, 5))
        assert a.pvalue == b.pvalue
        np.testing.assert_array_equal(a.log_m_pred, b.log_m_pred)

    def test_workers_do_not_change_result(self):
        t = CountVector(np.array([30, 20, 10]))
        prior = RawDirichletPrior(DirichletParams(np.ones(3)))
        a = conflict_pvalue(t, prior, 80, 500, RngStream(12, 5))
        b = conflict_pvalue(t, prior, 80, 500, RngStream(12, 5), workers=4)
        np.testing.assert_array_equal(a.log_m_pred, b.log_m_pred)


class TestGroupedBounds:
    def test_pairs_formula(self):
        l, u = FLY_ELICITATION["l"], FLY_ELICITATION["u"]
        lred, ured = grouped_bounds(l, u, 17, 9)
        assert ured == pytest.approx(u + 1 / 10, abs=1e-12)
        assert lred == pytest.approx(l + 1 / 18, abs=1e-12)

    def test_triples_formula(self):
        l, u = FLY_ELICITATION["l"], FLY_ELICITATION["u"]
        lred, ured = grouped_bounds(l, u, 17, 6)
        assert ured == pytest.approx(u + 1 / 7 + 1 / 13, abs=1e-12)
        assert lred == pytest.approx(l + 1 / 12 + 1 / 18, abs=1e-12)

    def test_no_grouping_unchanged(self):
        assert grouped_bounds(0.1, 0.6, 17, 18) == (0.1, 0.6)

    def test_singleton_last_group_keeps_lower(self):
        # 5 cells in 3 strided groups: last group is {theta_3} alone
        lred, ured = grouped_bounds(0.05, 0.5, 4, 3)
        assert lred == 0.05
        assert ured == pytest.approx(0.5 + 1 / 4, abs=1e-12)

    def test_provable_directions_hold_on_draws(self, rng):
        # chain ordering always holds; the upper bound holds whenever
        # theta_1 < u; the lower bound is feasible at the elicited mode
        l, u, m, k1 = FLY_ELICITATION["l"], FLY_ELICITATION["u"], 6, 18
        lred, ured = grouped_bounds(l, u, k1 - 1, m)
        spec = Strided(m, k1)
        g = rng.standard_gamma(1.0, size=(100_000, k1))
        th = np.sort(g / g.sum(axis=1, keepdims=True), axis=1)[:, ::-1]
        keep = (th[:, 0] < u) & (th[:, -1] > l)
        grouped = spec.group_array(th[keep])
        assert np.all(grouped[:, :-1] >= grouped[:, 1:] - 1e-12)
        assert np.all(grouped[:, 0] < ured)
        mode_grouped = spec.group_array(np.full(k1, 1 / k1))
        assert mode_grouped[-1] > lred

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            grouped_bounds(0.5, 0.4, 17, 9)


class TestPredictiveRateAndGroupedCheck:
    def test_rate_no_grouping_is_one(self):
        prior = ordered_prior(2.85, k1=6)
        rate = predictive_in_region_rate(prior, Strided(1, 6), 100, 2000,
                                         RngStream(101))
        assert rate == 1.0

    def test_rate_increases_with_n(self):
        prior = ordered_prior(8.0, k1=6)
        spec = Strided(3, 6)
        small = predictive_in_region_rate(prior, spec, 60, 4000, RngStream(102))
        large = predictive_in_region_rate(prior, spec, 20_000, 4000, RngStream(103))
        assert large > small
        assert large > 0.95

    def test_reduced_prior_carries_concentration(self):
        prior = ordered_prior(2.85)
        red = reduce_ordered_prior(prior, 9)
        assert red.dim == 9
        assert float((red.omega_params.alphas - 1).sum()) == pytest.approx(2.85)

    def test_grouped_check_runs(self):
        t = CountVector(FLY_COUNTS)
        rep = grouped_conflict_check(t, ordered_prior(2.85), 9, 60, 2000,
                                     RngStream(104))
        assert 0 <= rep.pvalue <= 1
        assert rep.n_predictive == 60
