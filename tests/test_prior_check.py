import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp

from conmult.core import (
    CountVector,
    DirichletParams,
    gammaln,
    log_dirichlet_pdf_array,
    log_multinomial_pmf_array,
    ordered_from_weights_array,
    weights_from_ordered_array,
)
from conmult.consistency import log_dirichlet_multinomial
from conmult.model_check import Strided
from conmult.prior_check import (
    OrderedDirichletPrior,
    ProposalSupportError,
    RawDirichletPrior,
    TrinePrior,
    _is_log_predictive,
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
from conmult.sampling import RngStream, sample_dirichlet_array

from conftest import (FLY_COUNTS, FLY_COUNTS_PERMUTED, FLY_ELICITATION,
                      chain_ordered_log_predictive, same_bits)


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

    def test_nan_weights_count_as_zero(self):
        # proposal alphas 0.02 underflow coordinates to 0, where the log prior
        # and log proposal densities are both +inf; seed 7 draws such points
        prior = RawDirichletPrior(DirichletParams(np.array([0.5, 1.0, 2.0])))
        t = CountVector(np.array([3, 0, 0]))
        exact = log_dirichlet_multinomial(t.counts, prior.params.alphas)
        for seed in range(1, 9):
            log_m, se = estimate_log_prior_predictive(
                t, prior, DirichletParams(np.full(3, 0.02)), 4000, RngStream(seed))
            assert abs(log_m - exact) < 4 * se

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

    @pytest.mark.parametrize("make_prior, t_obs, tau", [
        (lambda: TrinePrior(1 / 3), (341, 191, 175), None),
        (lambda: RawDirichletPrior(DirichletParams(np.array([3.0, 2.0, 1.5]))), (20, 12, 8), None),
        (lambda: ordered_prior(2.85, k1=6), (9, 6, 4, 2, 1, 1), None),
        (lambda: ordered_prior(2.85, k1=6), (9, 6, 4, 2, 1, 1), 20.0),
    ])
    def test_gammaln_calls_do_not_grow_with_n_pred(self, monkeypatch, make_prior, t_obs, tau):
        # at n_is = 2000 a block holds 5 three-cell or 2 six-cell points, so the
        # larger n_pred runs 13 to 31 blocks where the smaller runs 1
        import conmult.core
        import conmult.prior_check

        calls = []

        def counted(x):
            calls.append(np.size(x))
            return gammaln(x)

        monkeypatch.setattr(conmult.core, "gammaln", counted)
        monkeypatch.setattr(conmult.prior_check, "gammaln", counted)
        per_run = []
        for n_pred in (2, 60):
            calls.clear()
            conflict_pvalue(CountVector(np.array(t_obs)), make_prior(), n_pred, 2000,
                            RngStream(13), tau=tau)
            per_run.append(len(calls))
        assert per_run[0] == per_run[1] <= 10


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


# ---------------------------------------------------------------------------
# the batched estimator against the point-by-point one
# ---------------------------------------------------------------------------

def scalar_project_to_cone(x, anchor):
    """One point's cone projection as a scalar bisection; the reference for ``project_to_cone``."""
    x = np.asarray(x, dtype=float)
    anchor = np.asarray(anchor, dtype=float)

    def feasible(lam):
        v = lam * x + (1.0 - lam) * anchor
        return (v[:-1] >= v[1:]).all()

    if feasible(1.0):
        return x
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo * x + (1.0 - lo) * anchor


def point_proposal(t, prior, tau):
    """One point's proposal parameters, computed on its own."""
    freqs = t / t.sum()
    if isinstance(prior, OrderedDirichletPrior):
        mode = scalar_project_to_cone(freqs, prior.theta_mode())
        xi = np.clip(weights_from_ordered_array(mode), 0.0, None)
        return 1.0 + tau * (xi / xi.sum())
    return 1.0 + tau * freqs


def point_log_predictive(t, prior, alphas, n_is, rng):
    """One point's importance estimate on draws-by-cells arrays, with scipy's logsumexp.

    ``_is_log_predictive`` evaluates blocks of points in a cells-by-draws
    layout and must return the same bits.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    draws = sample_dirichlet_array(DirichletParams(alphas), n_is, gen)
    if isinstance(prior, OrderedDirichletPrior):
        th = ordered_from_weights_array(draws)
        log_prior = log_dirichlet_pdf_array(draws, prior.omega_params.alphas)
    else:
        th, log_prior = draws, prior.log_density_array(draws)
    log_q = log_dirichlet_pdf_array(draws, alphas)
    log_w = log_multinomial_pmf_array(np.asarray(t, dtype=float), th) + log_prior - log_q
    log_w[np.isnan(log_w)] = -np.inf  # a zero coordinate's inf - inf is a zero weight
    lse = logsumexp(log_w)
    if not np.isfinite(lse):
        return -np.inf, np.nan, 0.0
    lse2 = logsumexp(2.0 * log_w)
    ess = float(np.exp(2.0 * lse - lse2))
    rel_var = max(n_is * math.exp(lse2 - 2.0 * lse) - 1.0, 0.0) / n_is
    return float(lse - math.log(n_is)), math.sqrt(rel_var), ess


def point_conflict_pvalue(t_obs, prior, n_pred, n_is, rng, tau=None):
    """``conflict_pvalue`` one point at a time: (pvalue, tau, tau_profile, obs, pred rows)."""
    gen = rng.substream(0).generator()
    t_pred = gen.multinomial(t_obs.n, prior.sample_array(n_pred, gen))
    profile = None
    if tau is None:
        grid = prior.tau_grid(t_obs.n)
        if len(grid) == 1:
            tau = float(grid[0])
        else:
            pilot = rng.substream(1)
            profile = tuple(
                (float(g), point_log_predictive(t_pred[0], prior,
                                                point_proposal(t_pred[0], prior, float(g)),
                                                min(n_is, 4000), pilot.substream(i))[2])
                for i, g in enumerate(grid))
            tau = max((p for p in profile if p[1] > 0), key=lambda p: p[1])[0]
    obs = point_log_predictive(t_obs.counts, prior, point_proposal(t_obs.counts, prior, tau),
                               n_is, rng.substream(2))
    pred = [point_log_predictive(t, prior, point_proposal(t, prior, tau), n_is,
                                 rng.substream(3 + j)) for j, t in enumerate(t_pred)]
    pvalue = float(np.mean(np.array([r[0] for r in pred]) <= obs[0]))
    return pvalue, tau, profile, obs, pred


def assert_report_matches_points(rep, want):
    pvalue, tau, profile, obs, pred = want
    assert rep.pvalue == pvalue and rep.tau == tau
    assert rep.tau_profile == profile  # tuples of floats compare exactly
    assert same_bits([rep.log_m_obs, rep.se_obs], obs[:2])
    assert same_bits(rep.log_m_pred, [r[0] for r in pred])
    assert same_bits(rep.se_pred, [r[1] for r in pred])
    ess = np.array([r[2] for r in pred] + [obs[2]])
    assert same_bits([rep.ess_min, rep.ess_median], [ess.min(), np.median(ess)])
    assert rep.n_failed == sum(not np.isfinite(r[0]) for r in pred + [obs])


class TestBatchedEstimatorBitwise:
    """Blocks of points give every point the bits it gets when estimated on its own."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case, t_obs, prior, n_pred, n_is, tau", [
        # 32768 // (300 * 3) = 36 points per block: 51 points fill one and a part
        ("trine", (341, 191, 175), TrinePrior(1 / 3), 50, 300, None),
        ("trine-one-point", (341, 191, 175), TrinePrior(1 / 3), 1, 300, None),
        # a concentrated proposal far outside the ellipse: all-zero weights
        ("trine-miss", (40, 2, 1), TrinePrior(1 / 3), 60, 300, 4000.0),
        ("raw", (20, 12, 8, 3), RawDirichletPrior(DirichletParams(np.array([3.0, 2.0, 1.5, 0.7]))),
         41, 250, None),
        # 18 cells: 6 points per block, tau tuned over the 7-value grid as one block
        ("ordered-fly", tuple(FLY_COUNTS), ordered_prior(2.85), 20, 300, None),
        ("ordered-one-point", tuple(FLY_COUNTS_PERMUTED), ordered_prior(2.85), 1, 300, None),
        ("ordered-small-alpha", (9, 6, 4, 1, 0),
         OrderedDirichletPrior(DirichletParams(np.array([0.5, 3.0, 1.0, 2.0, 0.8]))), 33, 400, None),
    ])
    def test_conflict_pvalue(self, case, t_obs, prior, n_pred, n_is, tau, workers):
        t = CountVector(np.array(t_obs))
        rep = conflict_pvalue(t, prior, n_pred, n_is, RngStream(31, 4), tau=tau, workers=workers)
        assert_report_matches_points(rep, point_conflict_pvalue(t, prior, n_pred, n_is,
                                                                RngStream(31, 4), tau=tau))
        if case == "trine-miss":
            assert rep.n_failed > 0

    @pytest.mark.parametrize("prior", [
        TrinePrior(1 / 3),
        RawDirichletPrior(DirichletParams(np.array([3.0, 2.0, 1.5]))),
        ordered_prior(2.85, k1=6),
    ])
    def test_every_point_estimate(self, prior):
        # the report keeps only ess_min and ess_median; compare every (log_m, se, ess)
        gen = np.random.default_rng(3)
        ts = gen.multinomial(300, prior.sample_array(150, gen))
        alphas = np.array([point_proposal(t, prior, 60.0) for t in ts])
        streams = [RngStream(8, j) for j in range(len(ts))]
        got = _is_log_predictive(ts, prior, alphas, 200, streams, workers=2)
        want = [point_log_predictive(t, prior, a, 200, s) for t, a, s in zip(ts, alphas, streams)]
        assert same_bits(got, want)

    def test_zero_row_redraws_consume_each_stream_as_alone(self):
        # tiny alphas underflow whole gamma rows to zero, which the sampler redraws
        alphas = np.array([[2e-3, 2e-3, 2e-3], [1.0, 2.0, 3.0], [1e-3, 5e-3, 1e-3],
                           [4.0, 4.0, 4.0], [2e-3, 1.0, 2e-3]])
        n_is = 200
        streams = [RngStream(7, j) for j in range(len(alphas))]
        zero_rows = (streams[0].generator().standard_gamma(alphas[0], size=(n_is, 3))
                     .sum(axis=1) == 0.0)
        assert zero_rows.any()
        ts = np.array([[3, 0, 0], [5, 2, 1], [0, 0, 4], [2, 2, 2], [1, 0, 1]])
        for prior in (RawDirichletPrior(DirichletParams(np.array([0.5, 1.0, 2.0]))),
                      TrinePrior(1 / 3),
                      OrderedDirichletPrior(DirichletParams(np.array([1.0, 2.0, 3.0])))):
            with np.errstate(invalid="ignore"):  # inf - inf where zero draws meet alpha < 1
                got = _is_log_predictive(ts, prior, alphas, n_is, streams)
                want = [point_log_predictive(t, prior, a, n_is, s)
                        for t, a, s in zip(ts, alphas, streams)]
            assert same_bits(got, want)

    def test_one_point_calls(self):
        prior = ordered_prior(2.85)
        t = CountVector(FLY_COUNTS)
        prop = proposal_for(t, prior, 40.0)
        assert same_bits(prop.alphas, point_proposal(t.counts, prior, 40.0))
        gen_a, gen_b = np.random.default_rng(5), np.random.default_rng(5)
        got = estimate_log_prior_predictive(t, prior, prop, 500, gen_a)
        assert same_bits(got, point_log_predictive(t.counts, prior, prop.alphas, 500, gen_b)[:2])
        grid = [t.n / 100, t.n / 10, float(t.n)]
        _, profile = tune_tau(t, prior, grid, RngStream(92), n_is=400)
        want = [point_log_predictive(t.counts, prior, point_proposal(t.counts, prior, g), 400,
                                     RngStream(92).substream(i))[2] for i, g in enumerate(grid)]
        assert profile == tuple(zip(grid, want))


def cone_rows(k1):
    unit = st.floats(0.0, 1.0, allow_nan=False)
    return st.lists(st.lists(unit, min_size=k1, max_size=k1).filter(lambda r: sum(r) > 0),
                    min_size=1, max_size=12)


class TestVectorisedProjection:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda k1: st.tuples(cone_rows(k1), cone_rows(k1))),
           st.booleans())
    def test_rows_bitwise_equal_scalar_bisection(self, rows_and_anchors, sort_some):
        raw, anchors = rows_and_anchors
        x = np.array(raw) / np.array(raw).sum(axis=1, keepdims=True)
        if sort_some:  # decreasing rows are in the cone and come back unchanged
            x[::2] = -np.sort(-x[::2], axis=1)
        anchor = -np.sort(-np.array(anchors[0]))
        anchor /= anchor.sum()
        got = project_to_cone(x, anchor)
        want = np.array([scalar_project_to_cone(row, anchor) for row in x])
        assert same_bits(got, want)
        assert same_bits([project_to_cone(row, anchor) for row in x], want)
        inside = (np.diff(x, axis=1) <= 0).all(axis=1)
        assert same_bits(got[inside], x[inside])

    def test_boundary_tie_rows(self):
        prior = ordered_prior(2.85)
        anchor = prior.theta_mode()
        x = np.array([FLY_COUNTS_PERMUTED, FLY_COUNTS, FLY_COUNTS_PERMUTED[::-1]], dtype=float)
        x /= x.sum(axis=1, keepdims=True)
        got = project_to_cone(x, anchor)
        assert same_bits(got, [scalar_project_to_cone(row, anchor) for row in x])
        assert same_bits(got[1], x[1])
        diffs = got[:, :-1] - got[:, 1:]
        assert np.all(diffs >= -1e-15) and np.all(diffs[[0, 2]].min(axis=1) <= 1e-9)
