import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, optimize
from scipy.special import logsumexp

from conmult.core import (
    CountVector,
    DirichletParams,
    TrineEllipse,
    gammaln,
    log_dirichlet_multinomial,
    group_sums,
    log_dirichlet_norm,
    ordered_from_weights_array,
    ordered_mode,
    strided,
    weights_from_ordered_array,
)
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

from conftest import (FLY_COUNTS, FLY_COUNTS_PERMUTED, FLY_ELICITATION, TRINE_ASYMMETRIC,
                      TRINE_ASYMMETRIC_A, TRINE_SYMMETRIC, chain_ordered_log_predictive,
                      same_bits)


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

    def test_projection_boundary_has_tie(self):
        prior = ordered_prior(2.85)
        t = CountVector(np.array([35, 29, 20, 145, 96, 11, 4, 4, 4, 3, 3, 2, 2,
                                  1, 1, 1, 1, 1]))
        mode = project_to_cone(t.counts / t.n, ordered_mode(prior.omega_params.alphas))
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

    def test_empty_grid_rejected(self):
        prior = RawDirichletPrior(DirichletParams(np.ones(3)))
        with pytest.raises(ValueError):
            tune_tau(CountVector(np.array([5, 3, 2])), prior, [], RngStream(94))

    def test_nonpositive_grid_rejected(self):
        prior = RawDirichletPrior(DirichletParams(np.ones(3)))
        with pytest.raises(ValueError, match="tau > 0"):
            tune_tau(CountVector(np.array([5, 3, 2])), prior, [1.0, 0.0], RngStream(94))


def scipy_trine_log_mass(t, a):
    """log of the trine predictive mass of ``t`` by nested ``scipy.integrate.quad``, and its error.

    The integrand is multinomial(t | theta) * sqrt(1 - q(theta)) over the
    ellipse (which lies inside the simplex). Along each chord 1 - q is
    C11 (y - lo)(hi - y), so its square root goes into QUADPACK's algebraic
    end weights, and the peak, found by Nelder-Mead, splits every range.
    Returns (log m, the relative error quad reports, summed over the pieces).
    """
    t = np.asarray(t, dtype=float)
    region = TrineEllipse(a)
    C, c = region.matrix, region.center
    det = C[0, 0] * C[1, 1] - C[0, 1] ** 2
    x_rad = math.sqrt(C[1, 1] / det)

    def log_lik(x, y):
        z = 1.0 - x - y
        if min(x, y, z) <= 0:
            return -math.inf
        return t[0] * math.log(x) + t[1] * math.log(y) + t[2] * math.log(z)

    def chord(x):
        dx = x - c[0]
        half = math.sqrt(max(C[1, 1] - det * dx * dx, 0.0))
        return c[1] + (-C[0, 1] * dx - half) / C[1, 1], c[1] + (-C[0, 1] * dx + half) / C[1, 1]

    def neg(v):
        q = region.quad_form_array(np.asarray(v))
        return -log_lik(*v) - 0.5 * math.log1p(-q) if q < 1 else math.inf

    px, py = optimize.minimize(neg, c, method="Nelder-Mead",
                               options=dict(xatol=1e-13, fatol=1e-13, maxiter=4000)).x
    top = log_lik(px, py)
    sd = math.sqrt(max(px * (1 - px), py * (1 - py)) / t.sum())
    errors = []

    def quad(f, lo, hi, **kw):
        value, err = integrate.quad(f, lo, hi, epsabs=0, epsrel=1e-12, limit=500, **kw)
        errors.append(err / value if value > 0 else 0.0)
        return value

    def inner(x):
        lo, hi = chord(x)
        cuts = sorted(min(max(v, lo), hi) for v in (py - 12 * sd, py + 12 * sd))
        g = lambda y: math.exp(log_lik(x, y) - top)  # noqa: E731
        total = 0.0
        if cuts[0] > lo:
            total += quad(lambda y: g(y) * math.sqrt(hi - y), lo, cuts[0],
                          weight="alg", wvar=(0.5, 0))
        if cuts[1] > cuts[0]:
            total += quad(lambda y: g(y) * math.sqrt(max((y - lo) * (hi - y), 0.0)),
                          cuts[0], cuts[1])
        if hi > cuts[1]:
            total += quad(lambda y: g(y) * math.sqrt(y - lo), cuts[1], hi,
                          weight="alg", wvar=(0, 0.5))
        return math.sqrt(C[1, 1]) * total

    edges = sorted({c[0] - x_rad, c[0] + x_rad,
                    *(min(max(v, c[0] - x_rad), c[0] + x_rad)
                      for v in (px - 12 * sd, px, px + 12 * sd))})
    errors_outer = []
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        value, err = integrate.quad(inner, lo, hi, epsabs=0, epsrel=1e-12, limit=500)
        total += value
        errors_outer.append(err)
    coef = math.lgamma(t.sum() + 1) - sum(math.lgamma(v + 1) for v in t)
    return coef + top + math.log(total), sum(errors_outer) / total + max(errors)


def benchmark_rows(seed, n_pred=400):
    """The observed symmetric counts and the predictive rows conflict_pvalue draws at ``seed``."""
    prior = TrinePrior(1 / 3)
    gen = RngStream(seed).substream(0).generator()
    t_pred = gen.multinomial(int(TRINE_SYMMETRIC.sum()), prior.sample_array(n_pred, gen))
    return np.vstack([TRINE_SYMMETRIC, t_pred])


def edge_row():
    """The seed-101 benchmark row with the largest q(t/n): its +-8 sd box crosses the edge."""
    rows = benchmark_rows(101)
    q = TrineEllipse(1 / 3).quad_form_array(rows[:, :2] / rows.sum(axis=1, keepdims=True))
    return rows[np.argmax(q)]


class TestTrineQuadrature:
    """Exact trine masses against scipy's adaptive quadrature, and their certificates."""

    @pytest.mark.parametrize("t, a", [
        pytest.param(tuple(TRINE_SYMMETRIC), 1 / 3, id="symmetric"),
        pytest.param(tuple(TRINE_ASYMMETRIC), TRINE_ASYMMETRIC_A, id="asymmetric"),
        pytest.param(None, 1 / 3, id="edge-row"),
        pytest.param((40, 2, 1), 1 / 3, id="outside"),  # t/n lies outside the ellipse
        pytest.param((40, 2, 1), TRINE_ASYMMETRIC_A, id="outside-thin"),
    ])
    def test_matches_scipy_within_certificate(self, t, a):
        t = edge_row() if t is None else np.array(t)
        ref, ref_err = scipy_trine_log_mass(t, a)
        for level in range(TrinePrior.exact_levels):
            [log_m], [cert] = TrinePrior(a).exact_log_predictive(t[None], level)
            assert np.isfinite(log_m)
            assert abs(log_m - ref) <= cert + 2 * ref_err
        assert cert < 1e-9

    def test_edge_row_crosses_the_edge(self):
        t = edge_row()
        theta = (t + 0.5) / (t.sum() + 1.5)
        sd = np.sqrt(theta * (1 - theta) / (t.sum() + 1.5))
        corners = theta[:2] + 8 * sd[:2] * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])
        inside = TrineEllipse(1 / 3).contains_array(corners)
        assert inside.any() and not inside.all()

    def test_observed_mass(self):
        [log_m], _ = TrinePrior(1 / 3).exact_log_predictive(TRINE_SYMMETRIC[None])
        assert log_m == pytest.approx(-17.842807, abs=1e-6)

    def test_equal_rows_get_equal_bits_in_any_block(self):
        rows = benchmark_rows(102)
        for j in (7, 150, 399):  # each in another block of the 32-node rule
            rows[j] = TRINE_SYMMETRIC
        for level in range(TrinePrior.exact_levels):
            log_m, cert = TrinePrior(1 / 3).exact_log_predictive(rows, level)
            assert same_bits(log_m[[7, 150, 399]], [log_m[0]] * 3)
            assert same_bits(cert[[7, 150, 399]], [cert[0]] * 3)
        rep = conflict_pvalue(CountVector(TRINE_SYMMETRIC), TrinePrior(1 / 3), 400, 100,
                              RngStream(5), predictive_counts=rows[1:])
        assert same_bits(rep.log_m_pred[[6, 149, 398]], [rep.log_m_obs] * 3)
        assert rep.pvalue == np.mean(rep.log_m_pred <= rep.log_m_obs)

    def test_importance_estimates_agree_at_interior_rows(self):
        rows = benchmark_rows(103)
        q = TrineEllipse(1 / 3).quad_form_array(rows[:, :2] / rows.sum(axis=1, keepdims=True))
        interior = rows[np.argsort(q)[:3]]
        prior = TrinePrior(1 / 3)
        exact, _ = prior.exact_log_predictive(interior)
        for i, t in enumerate(interior):
            tv = CountVector(t)
            log_m, se = estimate_log_prior_predictive(tv, prior, proposal_for(tv, prior, tv.n),
                                                      20_000, RngStream(700 + i))
            assert abs(log_m - exact[i]) <= 4 * se

    def test_benchmark_pvalues(self):
        # the trine-session check-prior answers, seeds 101-104 at npred 400
        got = [conflict_pvalue(CountVector(TRINE_SYMMETRIC), TrinePrior(1 / 3), 400, 2000,
                               RngStream(seed)) for seed in (101, 102, 103, 104)]
        assert [rep.pvalue for rep in got] == [0.6925, 0.7, 0.7, 0.69]
        assert all(rep.method == "quadrature" and not rep.unreliable for rep in got)

    def test_unresolved_rank_is_flagged(self):
        # the symmetric prior gives a permutation of the observed counts the same mass,
        # which no certificate can separate from it
        t = CountVector(np.array([40, 25, 25]))
        rep = conflict_pvalue(t, TrinePrior(1 / 3), 3, 100, RngStream(6),
                              predictive_counts=np.array([[25, 40, 25], [40, 25, 25], [30, 30, 30]]))
        assert rep.unreliable and rep.n_failed == 0


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
        assert rep.log_m_pred.shape == (100,)
        # closed-form masses: no sampler, so no effective sample sizes
        assert rep.method == "closed_form"
        assert rep.ess_min is None and rep.ess_median is None
        assert not rep.unreliable
        assert rep.tau == t.n  # echoed, as n when not given
        rep = conflict_pvalue(CountVector(FLY_COUNTS[:6]), ordered_prior(2.85, k1=6), 30, 500,
                              RngStream(98))
        assert rep.method == "importance_sampling"
        assert rep.ess_min > 0

    def test_counts_permuted_among_equal_alphas_rank_as_ties(self):
        prior = RawDirichletPrior(DirichletParams(np.array([2.0, 2.0, 2.0])))
        log_m, cert = prior.exact_log_predictive(np.array([[30, 20, 10], [10, 20, 30]]))
        assert same_bits(log_m[0], log_m[1]) and not cert.any()
        np.testing.assert_allclose(log_m[0], -7.05051667107621, rtol=1e-14)
        # only cells of equal alpha exchange counts
        mixed = RawDirichletPrior(DirichletParams(np.array([2.0, 5.0, 2.0, 5.0])))
        rows = np.array([[30, 7, 10, 1], [10, 1, 30, 7], [10, 7, 30, 1]])
        log_m, _ = mixed.exact_log_predictive(rows)
        assert same_bits(log_m[0], log_m[1]) and same_bits(log_m[0], log_m[2])
        np.testing.assert_allclose(log_m, log_dirichlet_multinomial(rows, mixed.params.alphas),
                                   rtol=1e-14)
        perms = np.array(list(itertools.permutations([30, 20, 10])))
        rep = conflict_pvalue(CountVector(np.array([30, 20, 10])), prior, len(perms), 100,
                              RngStream(0), predictive_counts=perms)
        assert rep.pvalue == 1.0 and not rep.unreliable

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
        # each log-gamma term is computed for all points in one call, so 61
        # points call gammaln as often as 3
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

    @pytest.mark.parametrize("prior", [TrinePrior(1 / 3),
                                       RawDirichletPrior(DirichletParams(np.ones(3))),
                                       ordered_prior(2.85)], ids=["trine", "raw", "fly"])
    def test_prior_cells_checked_before_drawing(self, prior):
        class NoDraws:
            def substream(self, i):
                raise AssertionError("drew before checking the cells")

        t = CountVector(np.array([10, 8, 4, 2]))
        msg = f"prior has {prior.dim} cells, counts have 4"
        with pytest.raises(ValueError, match=msg):
            conflict_pvalue(t, prior, 20, 100, NoDraws())
        if isinstance(prior, OrderedDirichletPrior):
            with pytest.raises(ValueError, match=msg):
                grouped_conflict_check(t, prior, strided(2, 4), 20, 100, NoDraws())


def grouped_bounds_reference(l, u, k, m):
    """The strided m-group interval as ``grouped_bounds`` computed it from k and m, before labels."""
    k1 = k + 1
    g_first = math.ceil(k1 / m)
    g_last = k1 // m
    u_red = u + sum(1.0 / (1 + (j - 1) * m) for j in range(2, g_first + 1))
    l_red = l + sum(1.0 / (j * m) for j in range(2, g_last + 1))
    return l_red, u_red


class TestGroupedBounds:
    def test_pairs_formula(self):
        l, u = FLY_ELICITATION["l"], FLY_ELICITATION["u"]
        lred, ured = grouped_bounds(l, u, strided(9, 18))
        assert ured == pytest.approx(u + 1 / 10, abs=1e-12)
        assert lred == pytest.approx(l + 1 / 18, abs=1e-12)

    def test_triples_formula(self):
        l, u = FLY_ELICITATION["l"], FLY_ELICITATION["u"]
        lred, ured = grouped_bounds(l, u, strided(6, 18))
        assert ured == pytest.approx(u + 1 / 7 + 1 / 13, abs=1e-12)
        assert lred == pytest.approx(l + 1 / 12 + 1 / 18, abs=1e-12)

    def test_no_grouping_unchanged(self):
        assert grouped_bounds(0.1, 0.6, strided(18, 18)) == (0.1, 0.6)

    def test_singleton_last_group_keeps_lower(self):
        # 5 cells in 3 strided groups: last group is {theta_3} alone
        lred, ured = grouped_bounds(0.05, 0.5, strided(3, 5))
        assert lred == 0.05
        assert ured == pytest.approx(0.5 + 1 / 4, abs=1e-12)

    @pytest.mark.parametrize("l, u", [(FLY_ELICITATION["l"], FLY_ELICITATION["u"]),
                                      (0.0, 1.0), (0.013, 0.37)])
    def test_same_bits_as_the_stride_formula(self, l, u):
        for k1 in range(2, 31):
            for m in range(2, k1 + 1):
                assert same_bits(grouped_bounds(l, u, strided(m, k1)),
                                 grouped_bounds_reference(l, u, k1 - 1, m))

    def test_provable_directions_hold_on_draws(self, rng):
        # chain ordering always holds; the upper bound holds whenever
        # theta_1 < u; the lower bound is feasible at the elicited mode
        l, u, m, k1 = FLY_ELICITATION["l"], FLY_ELICITATION["u"], 6, 18
        labels = strided(m, k1)
        lred, ured = grouped_bounds(l, u, labels)
        g = rng.standard_gamma(1.0, size=(100_000, k1))
        th = np.sort(g / g.sum(axis=1, keepdims=True), axis=1)[:, ::-1]
        keep = (th[:, 0] < u) & (th[:, -1] > l)
        grouped = group_sums(th[keep], labels)
        assert np.all(grouped[:, :-1] >= grouped[:, 1:] - 1e-12)
        assert np.all(grouped[:, 0] < ured)
        mode_grouped = group_sums(np.full(k1, 1 / k1), labels)
        assert mode_grouped[-1] > lred

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            grouped_bounds(0.5, 0.4, strided(9, 18))


class TestPredictiveRateAndGroupedCheck:
    def test_rate_without_grouping_reads_the_counts(self):
        # strided(6, 6) is every cell in its own group: the rate is the share of
        # predictive count vectors that are themselves decreasing
        prior = ordered_prior(2.85, k1=6)
        rate = predictive_in_region_rate(prior, strided(6, 6), 100, 2000, RngStream(101))
        gen = RngStream(101).generator()
        t = gen.multinomial(100, prior.sample_array(2000, gen))
        assert rate == np.mean(np.all(t[:, :-1] >= t[:, 1:], axis=1))
        assert 0 < rate < 1

    def test_rate_increases_with_n(self):
        prior = ordered_prior(8.0, k1=6)
        labels = strided(3, 6)
        small = predictive_in_region_rate(prior, labels, 60, 4000, RngStream(102))
        large = predictive_in_region_rate(prior, labels, 20_000, 4000, RngStream(103))
        assert large > small
        assert large > 0.95

    def test_reduced_prior_carries_concentration(self):
        prior = ordered_prior(2.85)
        red = reduce_ordered_prior(prior, strided(9, 18))
        assert red.dim == 9
        assert float((red.omega_params.alphas - 1).sum()) == pytest.approx(2.85)

    def test_grouped_check_runs(self):
        t = CountVector(FLY_COUNTS)
        rep = grouped_conflict_check(t, ordered_prior(2.85), strided(9, 18), 60, 2000,
                                     RngStream(104))
        assert 0 <= rep.pvalue <= 1
        assert rep.log_m_pred.shape == (60,)

    def test_labels_must_cover_the_cells(self):
        with pytest.raises(ValueError, match="group layout covers 16 cells, counts have 18"):
            grouped_conflict_check(CountVector(FLY_COUNTS), ordered_prior(2.85), strided(8, 16),
                                   60, 2000, RngStream(104))


# ---------------------------------------------------------------------------
# the estimator against a draws-by-cells estimate of each point
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
        mode = scalar_project_to_cone(freqs, ordered_mode(prior.omega_params.alphas))
        xi = np.clip(weights_from_ordered_array(mode), 0.0, None)
        return 1.0 + tau * (xi / xi.sum())
    return 1.0 + tau * freqs


def cell_sums(terms):
    """Sum a draws-by-cells array over its cells, one cell after another."""
    return functools.reduce(np.add, terms.T)


def point_log_predictive(t, prior, alphas, n_is, rng):
    """One point's importance estimate on draws-by-cells arrays, with scipy's logsumexp.

    ``_is_log_predictive`` evaluates each point in a cells-by-draws layout and
    must return the same bits, so every sum over cells adds them in order.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    draws = sample_dirichlet_array(DirichletParams(alphas), n_is, gen)
    t = np.asarray(t, dtype=float)

    def log_dirichlet(al):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(al != 1.0, (al - 1.0) * np.log(draws), 0.0)
        return log_dirichlet_norm(al) + cell_sums(terms)

    if isinstance(prior, OrderedDirichletPrior):
        th = ordered_from_weights_array(draws)
        log_prior = log_dirichlet(prior.omega_params.alphas)
    else:
        th, log_prior = draws, prior.log_density_array(draws)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t > 0, t * np.log(th), 0.0)
    coef = gammaln(t.sum() + 1) - gammaln(t + 1).sum()
    log_w = coef + cell_sums(terms) + log_prior - log_dirichlet(alphas)
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
        pilot = rng.substream(1)
        profile = tuple(
            (float(g), point_log_predictive(t_pred[0], prior,
                                            point_proposal(t_pred[0], prior, float(g)),
                                            min(n_is, 4000), pilot.substream(i))[2])
            for i, g in enumerate(prior.tau_grid(t_obs.n)))
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


class TestGaussLegendreMaps:
    def test_end_maps_keep_their_bits(self):
        # the trine rule's tables, built as before the rule moved to core.gauss_legendre
        from conmult.core import _end_maps

        for n in (16, 32, 64, 128):
            k = np.arange(1.0, n)
            off = k / np.sqrt(4.0 * k * k - 1.0)
            x, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
            s, h = 0.5 * (x + 1.0), 0.25 * np.pi * (x + 1.0)
            g = np.array([s, 1.0 - np.cos(h), np.sin(h), 0.5 - 0.5 * np.cos(2.0 * h)])
            dg = np.array([np.full(n, 2.0 / np.pi), np.sin(h), np.cos(h), np.sin(2.0 * h)])
            got = _end_maps(n)
            assert same_bits(got[0], g)
            assert same_bits(got[1], np.log(0.5 * np.pi * dg * vecs[0] ** 2))


class TestLogDirichletByCells:
    @pytest.mark.parametrize("alphas", [
        [1.0] * 17 + [3.85],  # the fly prior: one live cell
        [0.5, 1.0, 2.0, 1.0, 0.8],
        [1.0, 1.0, 1.0],  # no live cell
    ])
    def test_skipping_unit_alphas_keeps_the_bits(self, alphas):
        # the cell-ordered sum over every cell, unit cells contributing exact zeros
        from conmult.prior_check import _log_dirichlet_by_cells

        al = np.array(alphas)
        gen = np.random.default_rng(7)
        log_x = np.log(gen.dirichlet(np.full(al.size, 2.0), 500).T)
        log_x[0, 0] = -np.inf  # an empty cell
        log_x[:, 1] = -np.inf  # a vertex
        log_x[0, 1] = 0.0
        norm = float(log_dirichlet_norm(al))
        with np.errstate(invalid="ignore"):  # the vertex meets alpha < 1 and > 1: inf - inf
            terms = (al[:, None] - 1.0) * log_x
            np.copyto(terms, 0.0, where=al[:, None] == 1.0)
            assert same_bits(_log_dirichlet_by_cells(log_x, al, norm),
                             norm + np.add.reduce(terms, axis=0))


class TestBatchedEstimatorBitwise:
    """The estimator gives every point the bits of a draws-by-cells estimate on its own."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case, t_obs, prior, n_pred, n_is, tau", [
        # 18 cells, whose sums a cell at a time differ from numpy's pairwise row
        # sums; tau tuned over the 7-value grid
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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case, t_obs, prior, n_pred, n_is, tau", [
        # three and four cells, which numpy's row sums also add in order
        ("trine", (341, 191, 175), TrinePrior(1 / 3), 50, 300, 707.0),
        ("trine-one-point", (341, 191, 175), TrinePrior(1 / 3), 1, 300, 707.0),
        # a concentrated proposal far outside the ellipse: all-zero weights
        ("trine-miss", (40, 2, 1), TrinePrior(1 / 3), 60, 300, 4000.0),
        ("raw", (20, 12, 8, 3), RawDirichletPrior(DirichletParams(np.array([3.0, 2.0, 1.5, 0.7]))),
         41, 250, 43.0),
    ])
    def test_simplex_priors_on_conflict_streams(self, case, t_obs, prior, n_pred, n_is, tau,
                                                workers):
        # conflict_pvalue takes exact masses for these priors; the estimator that
        # estimate_log_prior_predictive runs for them keeps its bits on the streams
        # and proposals the importance-sampled check would give each point
        gen = RngStream(31, 4).substream(0).generator()
        ts = np.vstack([t_obs, gen.multinomial(sum(t_obs), prior.sample_array(n_pred, gen))])
        alphas = np.array([point_proposal(t, prior, tau) for t in ts])
        streams = [RngStream(31, 4).substream(2)] + [RngStream(31, 4).substream(3 + j)
                                                     for j in range(n_pred)]
        got = _is_log_predictive(ts, prior, alphas, n_is, streams, workers)
        assert same_bits(got, [point_log_predictive(t, prior, a, n_is, s)
                               for t, a, s in zip(ts, alphas, streams)])
        if case == "trine-miss":
            assert any(log_m == -np.inf for log_m, _, _ in got)

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
        anchor = ordered_mode(prior.omega_params.alphas)
        x = np.array([FLY_COUNTS_PERMUTED, FLY_COUNTS, FLY_COUNTS_PERMUTED[::-1]], dtype=float)
        x /= x.sum(axis=1, keepdims=True)
        got = project_to_cone(x, anchor)
        assert same_bits(got, [scalar_project_to_cone(row, anchor) for row in x])
        assert same_bits(got[1], x[1])
        diffs = got[:, :-1] - got[:, 1:]
        assert np.all(diffs >= -1e-15) and np.all(diffs[[0, 2]].min(axis=1) <= 1e-9)
