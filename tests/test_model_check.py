import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conmult.core import (
    CountVector,
    MeasureZeroRegionError,
    OrderedCone,
    TrineEllipse,
    _row_sums,
    crosshairs_region,
    tetrahedron_region,
    zm_log_probs_array,
)
from conmult.model_check import (
    BetaGrid,
    CheckReport,
    Strided,
    alpha_upper_bounds,
    build_zm_table,
    consecutive_blocks,
    group_counts,
    kl_uniform_to_zm,
    rb_distance_check,
    rb_grouped_check,
    rb_region_check,
    zm_distance_batch,
)
from conmult.sampling import RngStream, sample_dirichlet_array
from conmult.core import DirichletParams

from conftest import (FLY_COUNTS, TRINE_ASYMMETRIC, TRINE_ASYMMETRIC_A, TRINE_SYMMETRIC,
                      same_bits)


class TestGroupSpecs:
    def test_consecutive_construction(self):
        spec = consecutive_blocks(18, 5)
        assert spec.group_array(np.ones(18)).tolist() == [4, 4, 4, 4, 2]
        assert consecutive_blocks(18, 9).group_array(np.ones(18)).tolist() == [2] * 9

    def test_rejects_nonequal_blocks(self):
        with pytest.raises(ValueError):
            consecutive_blocks(18, 7)  # no equal-block cover exists
        with pytest.raises(ValueError):
            consecutive_blocks(2, 0)

    def test_strided_sizes_non_increasing(self):
        spec = Strided(5, 18)
        grouped = spec.group_array(np.ones(18))
        assert grouped.tolist() == [4, 4, 4, 3, 3]

    def test_group_counts_values(self):
        t = CountVector(FLY_COUNTS)
        pairs = group_counts(t, consecutive_blocks(18, 9))
        np.testing.assert_array_equal(pairs.counts, [241, 64, 31, 8, 7, 5, 3, 2, 2])
        strided = group_counts(t, Strided(9, 18))
        np.testing.assert_array_equal(strided.counts, [148, 99, 37, 31, 21, 12, 5, 5, 5])

    def test_group_counts_dimension_check(self):
        with pytest.raises(ValueError):
            group_counts(CountVector(FLY_COUNTS), consecutive_blocks(16, 8))

    def test_order_preservation_both_layouts(self, rng):
        # decreasing inputs stay decreasing after grouping, for every layout
        for _ in range(200):
            th = np.sort(rng.dirichlet(np.ones(18)))[::-1]
            for spec in (consecutive_blocks(18, 5), Strided(7, 18)):
                g = spec.group_array(th)
                assert np.all(np.diff(g) <= 1e-15)


class TestRegionCheck:
    def test_symmetric_trine(self):
        rep = rb_region_check(CountVector(TRINE_SYMMETRIC), TrineEllipse(1 / 3),
                              100_000, RngStream(42))
        assert rep.prior_prob == pytest.approx(0.6046, abs=1e-4)
        assert rep.post_prob > 0.999
        assert rep.rb == pytest.approx(1.6540, abs=2e-3)
        assert rep.strength == rep.post_prob
        assert rep.verdict() == "favor"

    def test_asymmetric_trine(self):
        rep = rb_region_check(CountVector(TRINE_ASYMMETRIC),
                              TrineEllipse(TRINE_ASYMMETRIC_A),
                              100_000, RngStream(43))
        assert rep.prior_prob == pytest.approx(0.2684, abs=1e-4)
        assert rep.rb == pytest.approx(3.7258, abs=5e-3)

    def test_ordered_cone_prior_mass_exact(self):
        rep = rb_region_check(CountVector(np.arange(18, 0, -1)), OrderedCone(18),
                              2_000, RngStream(44))
        assert rep.prior_prob == pytest.approx(1.5619e-16, rel=1e-4)
        assert rep.prior_prob_analytic

    def test_measure_zero_region_redirects(self):
        t = CountVector(np.array([25, 25, 25, 25]))
        with pytest.raises(MeasureZeroRegionError, match="rb_distance_check"):
            rb_region_check(t, crosshairs_region(), 5_000, RngStream(45))

    def test_quadball_mc_prior(self):
        t = CountVector(np.array([25, 25, 25, 25]))
        rep = rb_region_check(t, tetrahedron_region(), 50_000, RngStream(46))
        assert not rep.prior_prob_analytic
        assert 0 < rep.prior_prob < 1
        assert rep.rb > 1  # uniform-ish counts sit well inside the ball

    def test_workers_do_not_change_report(self):
        t = CountVector(TRINE_SYMMETRIC)
        a = rb_region_check(t, TrineEllipse(1 / 3), 150_000, RngStream(47), workers=1)
        b = rb_region_check(t, TrineEllipse(1 / 3), 150_000, RngStream(47), workers=4)
        assert a == b

    def test_zero_hits_in_a_tiny_region_are_undefined(self):
        # fly counts in the 18-cell cone: prior content 1/18! is far below 3 / n_draws
        rep = rb_region_check(CountVector(FLY_COUNTS), OrderedCone(18), 2_000, RngStream(48))
        assert rep.post_prob == 0.0
        assert rep.verdict() == "undefined"

    @pytest.mark.parametrize("prior_prob, n_draws, verdict", [
        (3e-3, 1000, "undefined"),  # the rule-of-three bound itself
        (3.0001e-3, 1000, "against"),
        (0.6046, 5000, "against"),
    ])
    def test_zero_hit_verdict_against_rule_of_three(self, prior_prob, n_draws, verdict):
        rep = CheckReport(prior_prob=prior_prob, post_prob=0.0, rb=0.0, strength=0.0,
                          mc_se=0.0, n_draws=n_draws)
        assert rep.verdict() == verdict


class TestGroupedPriorMassLaw:
    @pytest.mark.parametrize("m", [4, 5])
    def test_aggregated_flat_prior_cone_mass(self, m):
        # grouping a flat prior gives the exchangeable Dirichlet(2, ..., 2),
        # so the ordered-cone mass is exactly 1/m!
        n_draws = 1_000_000
        th = sample_dirichlet_array(DirichletParams(np.full(m, 2.0)), n_draws,
                                    RngStream(100 + m))
        hit = np.mean(np.all(th[:, :-1] >= th[:, 1:], axis=1))
        expect = 1.0 / math.factorial(m)
        se = math.sqrt(expect * (1 - expect) / n_draws)
        assert abs(hit - expect) < 3 * se

    def test_grouped_check_example_values(self):
        # pairs: content near 0.040, ratio near 1.4726e4; triples: 0.40 / 285.6
        t = CountVector(FLY_COUNTS)
        rep = rb_grouped_check(t, consecutive_blocks(18, 9), 200_000, RngStream(48))
        assert rep.prior_prob == pytest.approx(1 / math.factorial(9), rel=1e-12)
        assert rep.post_prob == pytest.approx(0.040, abs=0.004)
        assert rep.rb == pytest.approx(14726, rel=0.15)
        rep3 = rb_grouped_check(t, consecutive_blocks(18, 6), 200_000, RngStream(49))
        assert rep3.post_prob == pytest.approx(0.40, abs=0.01)
        assert rep3.rb == pytest.approx(285.6312, rel=0.10)


@pytest.fixture(scope="module")
def fly_table():
    return build_zm_table(17, 0.02, BetaGrid())


def scalar_alpha_upper_bound(beta, delta, k1):
    """One-beta-at-a-time bisection that ``alpha_upper_bounds`` must reproduce."""
    if beta <= 0:
        return None
    lo = -1.0 + 1e-9
    if kl_uniform_to_zm(lo, beta, k1) < delta:
        return None
    hi = 1.0
    while kl_uniform_to_zm(hi, beta, k1) >= delta:
        hi *= 2.0
        if hi > 1e12:
            return None
    for _ in range(200):
        if kl_uniform_to_zm(lo, beta, k1) <= delta * (1 + 1e-6):
            break
        mid = 0.5 * (lo + hi)
        if kl_uniform_to_zm(mid, beta, k1) >= delta:
            lo = mid
        else:
            hi = mid
    return float(lo)


def scalar_table(k, delta, grid):
    """(params, log_probs) of the ZM table built from the scalar bisection."""
    rows = [(0.0, 0.0)]
    for beta in grid.betas():
        amax = scalar_alpha_upper_bound(float(beta), delta, k + 1)
        if amax is None or amax <= grid.alpha_min:
            continue
        sweep = np.geomspace(1.0 + grid.alpha_min, 1.0 + amax, grid.n_alpha) - 1.0
        rows.extend((float(a), float(beta)) for a in sweep)
    params = np.array(rows)
    return params, zm_log_probs_array(params[:, 0], params[:, 1], k + 1)


class TestZmTable:
    def test_alpha_bound_bisection_contract(self):
        for amax, beta in zip(alpha_upper_bounds([0.1, 1.0, 5.0], 0.02, 18), (0.1, 1.0, 5.0)):
            val = kl_uniform_to_zm(amax, beta, 18)
            assert 0.02 <= val <= 0.02 * (1 + 1e-6)

    @pytest.mark.parametrize("k1,delta", [(18, 0.02), (4, 0.05), (41, 0.01), (2, 0.3)])
    def test_vector_bounds_equal_scalar_bisection(self, k1, delta):
        # beta <= 0 and lines too close to uniform (NaN), bounds near 1e9
        # (beta = 1e8), and doubling past 1e12 (NaN at beta = 1e13)
        betas = np.concatenate([[-1.0, 0.0, 1e-4, 1e-3, 1e8, 1e13],
                                np.geomspace(0.01, 60.0, 70)])
        got = alpha_upper_bounds(betas, delta, k1)
        want = [scalar_alpha_upper_bound(float(b), delta, k1) for b in betas]
        assert want[4] > 1e7 and want[5] is None
        assert np.isnan(got).tolist() == [w is None for w in want]
        assert same_bits(got[~np.isnan(got)], [w for w in want if w is not None])

    @pytest.mark.parametrize("k,delta,grid", [
        (17, 0.02, BetaGrid()),
        (3, 0.05, BetaGrid()),
        (40, 0.01, BetaGrid()),
        (17, 0.02, BetaGrid(beta_min=0.01, beta_max=60.0, n_beta=90, n_alpha=10,
                            alpha_min=-0.99)),
    ])
    def test_table_equals_scalar_build(self, k, delta, grid):
        table = build_zm_table(k, delta, grid)
        params, log_probs = scalar_table(k, delta, grid)
        assert same_bits(table.params, params)
        assert same_bits(table.log_probs, log_probs)

    def test_beta_zero_single_uniform_entry(self, fly_table):
        zero_rows = fly_table.params[fly_table.params[:, 1] == 0.0]
        assert zero_rows.shape[0] == 1
        np.testing.assert_allclose(
            np.exp(fly_table.log_probs[0]), 1 / 18, atol=1e-12
        )

    def test_entries_respect_redundancy_bound(self, fly_table):
        pos = fly_table.params[:, 1] > 0
        vals = kl_uniform_to_zm(fly_table.params[pos, 0], fly_table.params[pos, 1], 18)
        assert np.all(vals >= 0.02 * (1 - 1e-9))

    def test_coverage_of_random_family_members(self, fly_table, rng):
        # raw table scan alone stays within 2 delta of any family member
        betas = np.exp(rng.uniform(np.log(0.05), np.log(25.0), 200))
        thetas = []
        for b, amax in zip(betas, alpha_upper_bounds(betas, 0.02, 18)):
            if np.isnan(amax):
                continue
            lo = -0.95 if amax > -0.95 else -1.0 + 1e-6
            a = rng.uniform(lo, amax)
            thetas.append(np.exp(zm_log_probs_array(a, b, 18)))
        d, _, _ = zm_distance_batch(np.array(thetas), fly_table, refine=False)
        assert d.max() <= 2 * 0.02

    def test_self_consistency_under_refinement(self, fly_table):
        d, _, _ = zm_distance_batch(np.exp(fly_table.log_probs), fly_table)
        assert d.max() <= 0.02 / 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            build_zm_table(3, 0.05, BetaGrid(n_beta=0))
        with pytest.raises(ValueError):
            build_zm_table(3, 0.0)


class TestKlToZm:
    def test_uniform_hits_zero(self, fly_table):
        d, alpha, beta = zm_distance_batch(np.full((1, 18), 1 / 18), fly_table)
        assert d[0] <= 1e-12
        assert beta[0] == 0.0 or alpha[0] > 10

    def test_table_entry_refines_to_zero(self, fly_table):
        entry = np.exp(fly_table.log_probs[37])
        d, _, _ = zm_distance_batch(entry[None, :], fly_table)
        assert d[0] <= 1e-6

    def test_refined_never_worse_than_scan(self, fly_table, rng):
        th = rng.dirichlet(np.ones(18), size=200)
        raw, _, _ = zm_distance_batch(th, fly_table, refine=False)
        ref, _, _ = zm_distance_batch(th, fly_table, refine=True)
        assert np.all(ref <= raw + 1e-15)

    def test_dimension_check(self, fly_table):
        with pytest.raises(ValueError):
            zm_distance_batch(np.array([[0.5, 0.5]]), fly_table)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: arrays(
    np.float64, (3, n),
    elements=st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from([0.0, -0.0]))))
@example(np.full((2, 9), -0.0))
@example(np.arange(3 * 136, dtype=float).reshape(3, 136) * 1e-3)
@example(np.linspace(-1.0, 1.0, 3 * 300).reshape(3, 300) ** 3)
def test_row_sums_bitwise_equal_numpy(x):
    # numpy sums n < 8 in order, up to 128 in 8 lanes plus a tail, and
    # splits longer rows at n/2 rounded down to a multiple of 8
    assert same_bits(_row_sums(np.ascontiguousarray(x.T)), np.sum(x, axis=-1))
    assert same_bits(_row_sums(x.T), np.sum(x, axis=-1))


def draws_by_cells_search(thetas, table, refine=True, n_iters=50, step_alpha=0.5,
                          step_beta=0.1):
    """The pattern search written on (draws, cells) arrays with ``np.sum``.

    ``zm_distance_batch`` reorganises this computation and must return the
    same bits.
    """
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    k1 = th.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_ent = np.sum(np.where(th > 0, th * np.log(th), 0.0), axis=1)
    dists = neg_ent[:, None] - th @ table.log_probs.T
    j = np.argmin(dists, axis=1)
    best = dists[np.arange(th.shape[0]), j]
    alpha = table.params[j, 0].copy()
    beta = table.params[j, 1].copy()
    if not refine:
        return best, alpha, beta

    def kl_at(a, b):
        return neg_ent - np.sum(th * zm_log_probs_array(a, b, k1), axis=1)

    sa = np.full(th.shape[0], step_alpha)
    sb = np.full(th.shape[0], step_beta)
    for _ in range(n_iters):
        improved = np.zeros(th.shape[0], dtype=bool)
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a2 = np.maximum(alpha + da * sa, -1.0 + 1e-9)
            b2 = np.maximum(beta + db * sb, 0.0)
            val = kl_at(a2, b2)
            gain = val < best
            alpha[gain], beta[gain], best[gain] = a2[gain], b2[gain], val[gain]
            improved |= gain
        sa[~improved] *= 0.5
        sb[~improved] *= 0.5
    return np.maximum(best, 0.0), alpha, beta


class TestPatternSearchBitwise:
    @pytest.mark.parametrize("refine", [True, False])
    @pytest.mark.parametrize("prior", ["flat", "posterior"])
    @pytest.mark.parametrize("k1", [2, 3, 7, 8, 9, 18, 20])
    def test_equals_draws_by_cells_search(self, k1, prior, refine):
        table = build_zm_table(k1 - 1, 0.02)
        gen = np.random.default_rng(9000 + k1)
        # fewer than ZM_SCAN_ROWS draws, so the scan is one block in both
        a = np.ones(k1) if prior == "flat" else gen.integers(0, 60, k1) + 1.0
        th = gen.dirichlet(a, 600)
        got = zm_distance_batch(th, table, refine=refine)
        want = draws_by_cells_search(th, table, refine=refine)
        for g, w in zip(got, want):
            assert same_bits(g, w)

    def test_table_rows_and_uniform(self, fly_table):
        th = np.vstack([np.exp(fly_table.log_probs[::7]), np.full((1, 18), 1 / 18)])
        for g, w in zip(zm_distance_batch(th, fly_table), draws_by_cells_search(th, fly_table)):
            assert same_bits(g, w)


@pytest.fixture(scope="module")
def small_table():
    return build_zm_table(3, 0.05, BetaGrid(n_beta=40, n_alpha=16))


class TestDistanceCheck:
    def test_histograms_normalize(self, small_table):
        t = CountVector(np.array([40, 30, 20, 10]))
        rep = rb_distance_check(t, 0.05, small_table, 20_000, RngStream(50))
        assert rep.prior_hist.sum() == pytest.approx(1.0, abs=1e-9)
        assert rep.post_hist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zm_like_data_favors(self, small_table):
        # counts proportional to a family member, large n
        probs = np.exp(zm_log_probs_array(0.0, 1.0, 4))
        t = CountVector(np.round(probs * 4000).astype(int))
        rep = rb_distance_check(t, 0.05, small_table, 30_000, RngStream(51))
        assert not rep.prior_first_bin_empty
        assert rep.rb_zero > 1
        assert rep.verdict() == "favor"

    def test_far_from_family_data_against(self, small_table):
        # a markedly non-monotone profile cannot be fit by any family member
        theta = np.array([0.5, 0.01, 0.02, 0.47])
        t = CountVector(np.round(theta * 2000).astype(int))
        rep = rb_distance_check(t, 0.05, small_table, 30_000, RngStream(52))
        assert rep.rb_zero < 1
        assert rep.verdict() == "against"

    def test_strength_bins_below_rb_zero(self, small_table):
        probs = np.exp(zm_log_probs_array(0.5, 1.5, 4))
        t = CountVector(np.round(probs * 4000).astype(int))
        rep = rb_distance_check(t, 0.05, small_table, 30_000, RngStream(53))
        assert 0 <= rep.strength <= 1

    def test_rejects_bad_inputs(self, small_table):
        t = CountVector(np.array([40, 30, 20, 10]))
        with pytest.raises(ValueError):
            rb_distance_check(t, 0.0, small_table, 1000, RngStream(0))
        with pytest.raises(ValueError):
            rb_distance_check(CountVector(np.array([1, 1])), 0.05, small_table,
                              1000, RngStream(0))
