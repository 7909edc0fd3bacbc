import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conmult.core import (
    CountVector,
    OrderedCone,
    QuadBall,
    TrineEllipse,
    chain_log_integrals,
    consecutive_blocks,
    gammaln,
    group_counts,
    group_sums,
    strided,
    tetrahedron_region,
    zm_log_probs_array,
)
from conmult.model_check import (
    ALPHA_FLOOR,
    SEARCH_ITERS,
    SEARCH_TOL,
    STEP_ALPHA,
    STEP_BETA,
    ZM_SCAN_ROWS,
    ZM_SEARCH_COLS,
    ZM_ALPHA_MIN,
    ZM_BETAS,
    ZM_MAX_BINS,
    ZM_N_ALPHA,
    CheckReport,
    _ball_w_rule,
    alpha_upper_bounds,
    build_zm_table,
    kl_uniform_to_zm,
    ordered_cone_log_content,
    rb_distance_check,
    rb_region_check,
    region_log_content,
    zm_distance_batch,
    _kl_closed,
    _pattern_search,
)
from conmult import model_check
from conmult.sampling import RngStream, sample_dirichlet_array
from conmult.core import DirichletParams

from conftest import (FLY_COUNTS, TRINE_ASYMMETRIC, TRINE_ASYMMETRIC_A, TRINE_SYMMETRIC,
                      same_bits)


def no_draws(monkeypatch):
    """Make any Dirichlet draw in ``model_check`` fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("a region check drew samples")

    monkeypatch.setattr(model_check, "sample_dirichlet_array", refuse)


class TestRegionCheck:
    def test_symmetric_trine(self):
        rep = rb_region_check(CountVector(TRINE_SYMMETRIC), TrineEllipse(1 / 3))
        assert rep.prior_prob == pytest.approx(0.6046, abs=1e-4)
        assert rep.post_prob > 0.999
        assert rep.rb == pytest.approx(1.6540, abs=2e-3)
        assert rep.verdict() == "favor"
        # the content is exact: 1 + 1e-11 by the rule, capped at 1
        assert rep.post_prob == 1.0
        assert rep.rb == pytest.approx(1.65399, abs=5e-6) and rep.log_cert < 1e-4

    def test_asymmetric_trine(self):
        rep = rb_region_check(CountVector(TRINE_ASYMMETRIC), TrineEllipse(TRINE_ASYMMETRIC_A))
        assert rep.prior_prob == pytest.approx(0.2684, abs=1e-4)
        assert rep.rb == pytest.approx(3.7258, abs=5e-3)
        assert rep.log_cert < 1e-4
        assert rep.rb == pytest.approx(3.72581, abs=5e-6)

    def test_ordered_cone_prior_mass_exact(self):
        rep = rb_region_check(CountVector(np.arange(18, 0, -1)), OrderedCone(18))
        assert rep.prior_prob == pytest.approx(1.5619e-16, rel=1e-4)

    def test_tetrahedron_prior_content_exact(self, rng):
        # the tetrahedron region is the simplex's inscribed ball, radius^2 = 1/12
        exact = math.pi / (6 * math.sqrt(3))
        assert tetrahedron_region().prior == pytest.approx(exact, rel=1e-14)
        inside = tetrahedron_region().contains_array(rng.dirichlet(np.ones(4), 1_000_000))
        assert abs(inside.mean() - exact) < 4 * math.sqrt(exact * (1 - exact) / inside.size)
        t = CountVector(np.array([25, 25, 25, 25]))
        rep = rb_region_check(t, tetrahedron_region())
        assert rep.prior_prob == tetrahedron_region().prior
        # uniform-ish counts sit well inside the ball: the content is 1 - 4.99677e-7
        assert abs(rep.post_prob - (1 - 4.99677e-7)) <= rep.mc_se < 0.01
        assert rep.rb == pytest.approx(3.30797, abs=5e-6)

    def test_inscribed_disk_is_the_symmetric_trine(self):
        # sum theta^2 <= 1/2 on three cells is the trine ellipse at overlap 1/3
        assert QuadBall(dim=3, bound=0.5).prior == pytest.approx(
            TrineEllipse(1 / 3).prior, rel=1e-14)
        assert TrineEllipse(1 / 3).prior == pytest.approx(math.pi / (3 * math.sqrt(3)), rel=1e-14)

    def test_balls_beyond_four_cells_are_refused(self, monkeypatch):
        # fly counts against a ball of squared radius 1e-3 about the centroid of the
        # 17-simplex: its prior content, about 1e-12, is positive, but no exact route
        # reaches a ball on 18 cells, and none is drawn
        no_draws(monkeypatch)
        region = QuadBall(dim=18, bound=1 / 18 + 1e-3)
        assert 0 < region.prior < 1e-10
        with pytest.raises(ValueError, match="no exact posterior content for a ball on 18 cells"):
            rb_region_check(CountVector(FLY_COUNTS), region)

    @pytest.mark.parametrize("log_post, log_cert, mc_se", [
        (-9.6e5, 1175.5, 0.0),  # post_prob (e^log_cert - 1) underflows
        (-200.0, 800.0, math.exp(600.0)),  # e^log_cert overflows, the product does not
        (-1.0, 800.0, None),  # the product overflows
        (-1.0, 700.0, math.exp(-1.0) * math.expm1(700.0)),  # the expression as it always was
    ])
    def test_a_huge_certificate_keeps_the_report(self, monkeypatch, log_post, log_cert, mc_se):
        monkeypatch.setattr(model_check, "region_log_content",
                            lambda t, region: (log_post, log_cert))
        rep = rb_region_check(CountVector(TRINE_SYMMETRIC), TrineEllipse(1 / 3))
        assert rep.mc_se == mc_se and rep.log_cert == log_cert
        assert rep.verdict() == ("against" if log_post < -log_cert else "undefined")


class TestExactBallContent:
    """A ball's posterior content through the trine quadrature, against closed forms and draws."""

    def test_flat_content_is_the_prior_content(self):
        for region in (tetrahedron_region(), QuadBall(4, 0.3), QuadBall(3, 0.4)):
            log_content, cert = region_log_content(np.zeros(region.dim), region)
            assert abs(log_content - math.log(region.prior)) <= cert < 1e-12

    @pytest.mark.parametrize("counts, seed", [
        ([10, 20, 30, 40], 81),  # 0.9297165
        ([40, 10, 10, 5], 82),  # 0.0326447
        ([2, 30, 1, 7], 83),  # 0.00036180
        ([60, 50, 45, 20], 84),  # 0.9998964
    ])
    def test_contents_match_dirichlet_monte_carlo(self, counts, seed):
        # 2M Dirichlet(t + 1) draws, sampled here with numpy's own sampler
        draws = np.random.default_rng(seed).dirichlet(np.array(counts) + 1.0, 2_000_000)
        hit = tetrahedron_region().contains_array(draws).mean()
        exact = math.exp(region_log_content(counts, tetrahedron_region())[0])
        assert abs(hit - exact) < 4 * math.sqrt(exact * (1 - exact) / draws.shape[0])

    @pytest.mark.parametrize("region, counts, seed", [
        (QuadBall(4, 0.3), [3, 4, 5, 6], 85),
        (QuadBall(4, 0.26), [3, 4, 5, 6], 86),  # the range in w is [0.15, 0.35]
        (QuadBall(3, 0.4), [3, 4, 5], 87),
    ])
    def test_other_bounds_match_dirichlet_monte_carlo(self, region, counts, seed):
        draws = np.random.default_rng(seed).dirichlet(np.array(counts) + 1.0, 1_000_000)
        hit = region.contains_array(draws).mean()
        exact = math.exp(region_log_content(counts, region)[0])
        assert abs(hit - exact) < 4 * math.sqrt(exact * (1 - exact) / draws.shape[0])

    @pytest.mark.parametrize("counts", [[5, 5, 5], [40, 2, 1], [10, 30, 2], [0, 0, 9], [1, 0, 0]])
    def test_three_cell_ball_is_the_symmetric_trine(self, counts):
        ball, ball_cert = region_log_content(counts, QuadBall(3, 0.5))
        trine, trine_cert = region_log_content(counts, TrineEllipse(1 / 3))
        assert abs(ball - trine) <= ball_cert + trine_cert

    @pytest.mark.parametrize("counts", [[10, 20, 30, 40], [40, 10, 10, 5], [0, 100, 0, 0],
                                        [1, 1, 1, 1000], [25, 25, 25, 25]])
    def test_certificate_covers_the_finest_rule(self, counts, monkeypatch):
        # the rule at the last level, with 64 nodes per piece in w and 128 per axis in the
        # disc, against the certificate of the level the check stops at
        value, cert = region_log_content(counts, tetrahedron_region())
        # a NaN prior content is never decided against, so every level runs
        monkeypatch.setattr(QuadBall, "log_prior", math.nan)
        finest, _ = region_log_content(counts, tetrahedron_region())
        assert abs(value - finest) <= cert

    @pytest.mark.parametrize("counts", [[1000, 1, 1, 1], [5000, 0, 0, 0], [1000000, 10, 10, 10],
                                        [40, 10, 10, 5]])
    def test_every_order_of_the_counts_gets_the_same_bits(self, counts):
        # the ball and the flat prior are symmetric in the cells; a dominant count outside
        # the w slot leaves the level-0 rule far off, with certificates of up to 5305
        reports = [rb_region_check(CountVector(np.array(p)), tetrahedron_region())
                   for p in itertools.permutations(counts)]
        assert len(reports) == 24 and reports[0].log_cert < 1e-6
        assert all(same_bits(rep, reports[0]) for rep in reports)

    def test_content_underflows_but_the_logs_decide(self):
        rep = rb_region_check(CountVector(np.array([0, 0, 0, 5000])), tetrahedron_region())
        assert (rep.post_prob, rep.rb) == (0.0, 0.0)
        assert rep.log_rb == pytest.approx(-3457.22, abs=0.01) and rep.log_cert < 1e-9
        assert rep.verdict() == "against"

    def test_many_counts_decide_at_the_first_level(self, monkeypatch):
        # the content is 1 - 1.3e-8; with a max over the nodes the certificate read 86 nats
        levels = []
        real = model_check.trine_log_integrals

        def spy(t, region, log_density, log_coef, level, scale):
            levels.append(level)
            return real(t, region, log_density, log_coef, level, scale)

        monkeypatch.setattr(model_check, "trine_log_integrals", spy)
        rep = rb_region_check(CountVector(np.array([1, 2, 3, 4]) * 10**6), tetrahedron_region())
        assert levels == [0] and rep.log_cert < 1e-4 and rep.verdict() == "favor"

    def test_w_rule_grades_toward_the_end_the_mass_lies_beyond(self):
        # Beta(5001, 3) sits near w = 1, past the range's end at 1/2: dyadic pieces toward
        # it, and the scale 1/(6 rho^2) grows without bound at both ends
        scale, log_weight, n = _ball_w_rule(np.zeros(4), 1 / 3, 0)
        # t = 0: two pieces, meeting at the Beta(1, 3) mean, and the integral of (1 - w)^2
        assert n == 2 * 16 and len(scale) == 2 * 24
        weight = np.exp(log_weight)
        assert weight[:n].sum() == pytest.approx(7 / 24, rel=1e-14) == weight[n:].sum()
        scale, log_weight, n = _ball_w_rule(np.array([0.0, 0.0, 0.0, 5000.0]), 1 / 3, 1)
        # 16 pieces (41 when the grading ran to 2^-40 of the range): [0, 1/4] and 15 more
        assert n == 16 * 32 and len(scale) == 16 * 48 and (scale > 1 - 1e-12).all()
        # the last, [1/2 - 2^-16, 1/2], is the first piece within a quarter of the log
        # integrand's scale 1/|slope| at w = 1/2, slope = 5000/(1/2) - 2/(1/2)
        assert 2.0**-16 <= 1 / (4 * 9996) < 2.0**-15

    @pytest.mark.parametrize("counts, graded_to_2_40", [
        ([1, 1, 1, 1000], -672.0717945111177),
        ([0, 0, 0, 5000], -3458.4148453560183),
    ])
    def test_w_grading_keeps_the_finest_rule(self, counts, graded_to_2_40, monkeypatch):
        # every level forced; the value the rules graded to 2^-40 of the range gave, with
        # 41 pieces in w, 3936 rows at the last level
        rows = []
        real = model_check.trine_log_integrals

        def spy(t, region, log_density, log_coef, level, scale):
            rows.append(len(t))
            return real(t, region, log_density, log_coef, level, scale)

        monkeypatch.setattr(model_check, "trine_log_integrals", spy)
        monkeypatch.setattr(QuadBall, "log_prior", math.nan)
        value, cert = region_log_content(counts, tetrahedron_region())
        assert abs(value - graded_to_2_40) <= cert < 1e-10
        assert len(rows) == 3 and rows[-1] < 41 * 96

    @pytest.mark.parametrize("counts", [[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0]])
    def test_a_single_count_leaves_the_content_at_the_prior(self, counts):
        # the posterior density is 4 theta_i and the ball is symmetric about the centroid,
        # so its content is the prior's and the ratio is exactly 1
        rep = rb_region_check(CountVector(np.array(counts)), tetrahedron_region())
        assert abs(rep.log_rb) <= rep.log_cert < 1e-12
        assert rep.verdict() == "undefined"

    def test_draws_nothing(self, monkeypatch):
        no_draws(monkeypatch)
        rep = rb_region_check(CountVector(np.array([10, 20, 30, 40])), tetrahedron_region())
        assert rep.verdict() == "favor"


class TestExactConeContent:
    """The ordered cone's contents from the chain integrals, against independent oracles."""

    @pytest.mark.parametrize("cells", [2, 3, 5, 9, 18])
    def test_flat_content_is_one_over_k_factorial(self, cells):
        log_content, cert = ordered_cone_log_content(np.zeros(cells))
        assert abs(log_content + math.lgamma(cells + 1)) <= cert
        assert cert < 1e-4

    def test_content_keeps_one_running_row(self):
        # at 200 cells the doubled grid has 299 812 points: every row at once is 480 MB
        tracemalloc.start()
        try:
            log_content, cert = ordered_cone_log_content(np.zeros(200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert abs(log_content + math.lgamma(201)) <= cert

    @pytest.mark.parametrize("m, seed", [(9, 61), (6, 62)])
    def test_grouped_contents_match_dirichlet_monte_carlo(self, m, seed):
        # a million Dirichlet(grouped t + 1) draws, sampled here with numpy's own sampler
        grouped = group_counts(CountVector(FLY_COUNTS), consecutive_blocks(18, m))
        draws = np.random.default_rng(seed).dirichlet(grouped.counts + 1.0, 1_000_000)
        hit = OrderedCone(m).contains_array(draws).mean()
        exact = math.exp(ordered_cone_log_content(grouped.counts)[0])
        assert abs(hit - exact) < 4 * math.sqrt(exact * (1 - exact) / draws.shape[0])

    @pytest.mark.parametrize("counts", [
        group_sums(FLY_COUNTS, consecutive_blocks(18, 9)),
        group_sums(FLY_COUNTS, consecutive_blocks(18, 6)),
        FLY_COUNTS,
        np.array([7, 3]),
        np.zeros(18, dtype=int),
    ])
    def test_certificate_bounds_the_error(self, counts):
        # reference: Richardson on grids of 8 and 16 times the default, N >= 32768
        value, cert = ordered_cone_log_content(counts)
        powers = np.asarray(counts, dtype=float)
        fine, finer = (list(chain_log_integrals(powers, level)[1])[-1][-1] for level in (3, 4))
        ref = finer + (finer - fine) / 3.0 - float(gammaln(powers + 1.0).sum())
        assert abs(value - ref) <= cert

    def test_fly_contents_and_ratios(self):
        # pairs and triples meet criterion 2; the ungrouped cone is decided too
        t = CountVector(FLY_COUNTS)
        for labels, post, rb in ((consecutive_blocks(18, 9), 0.0404213, 14668.1),
                                 (consecutive_blocks(18, 6), 0.397446, 286.161),
                                 (strided(18, 18), 2.90549e-7, 1.86020e9)):
            grouped = group_counts(t, labels)
            rep = rb_region_check(grouped, OrderedCone(len(grouped)))
            assert rep.post_prob == pytest.approx(post, rel=1e-5)
            assert rep.rb == pytest.approx(rb, rel=1e-5)
            assert rep.mc_se < 1e-4 * rep.post_prob and rep.verdict() == "favor"

    def test_draws_nothing(self, monkeypatch):
        no_draws(monkeypatch)
        rep = rb_region_check(CountVector(FLY_COUNTS), OrderedCone(18))
        assert rep.verdict() == "favor"

    @pytest.mark.parametrize("log_rb, cert, verdict", [
        (1e-9, 1e-9, "undefined"),  # log RB within the certificate of 0
        (-1e-9, 1e-9, "undefined"),
        (2e-9, 1e-9, "favor"),
        (-2e-9, 1e-9, "against"),
        (-800.0, 1e-4, "against"),  # the ratio itself underflows to 0
        (math.nan, 1e-4, "undefined"),
    ])
    def test_exact_verdict_against_the_certificate(self, log_rb, cert, verdict):
        # the contents are 0, as from 171 cells on: the logs alone decide
        rep = CheckReport(prior_prob=0.0, post_prob=0.0, rb=math.exp(log_rb), mc_se=0.0,
                          log_rb=log_rb, log_cert=cert)
        assert rep.verdict() == verdict


class TestExactTrineContent:
    """The trine ellipse's posterior content by quadrature, against closed forms and draws."""

    @pytest.mark.parametrize("a", [0.1, 0.2, 1 / 3, 0.45, 0.48445])
    def test_one_count_contents_are_closed_form(self, a):
        # Dirichlet(2, 1, 1) has density 6 theta_1 on (theta_1, theta_2), and the
        # ellipse's centroid is its centre (a, (1 - a)/2), with area m(a)/2
        m = TrineEllipse(a).prior
        for cell, want in enumerate((3 * a * m, 1.5 * (1 - a) * m, 1.5 * (1 - a) * m)):
            counts = np.zeros(3, dtype=int)
            counts[cell] = 1
            log_content, cert = region_log_content(counts, TrineEllipse(a))
            assert math.exp(log_content) == pytest.approx(want, rel=1e-12)
            assert abs(log_content - math.log(want)) <= cert < 1e-10

    @pytest.mark.parametrize("counts, seed", [
        ([40, 2, 1], 71),  # content 8.4e-5
        ([10, 30, 2], 72),
        ([0, 0, 9], 73),
        ([5, 5, 5], 74),
    ])
    def test_contents_match_dirichlet_monte_carlo(self, counts, seed):
        # 400k Dirichlet(t + 1) draws, sampled here with numpy's own sampler
        draws = np.random.default_rng(seed).dirichlet(np.array(counts) + 1.0, 400_000)
        hit = TrineEllipse(1 / 3).contains_array(draws).mean()
        exact = math.exp(region_log_content(counts, TrineEllipse(1 / 3))[0])
        assert abs(hit - exact) < 4 * math.sqrt(exact * (1 - exact) / draws.shape[0])

    @pytest.mark.parametrize("counts", [[7000, 10, 10], [10**9, 1, 1]])
    def test_underflowing_contents_read_against(self, counts):
        rep = rb_region_check(CountVector(np.array(counts)), TrineEllipse(1 / 3))
        assert (rep.post_prob, rep.rb) == (0.0, 0.0)
        assert rep.log_rb < -1000 and rep.log_cert < 1e-3 * -rep.log_rb
        assert rep.verdict() == "against"

    def test_draws_nothing(self, monkeypatch):
        no_draws(monkeypatch)
        rep = rb_region_check(CountVector(TRINE_SYMMETRIC), TrineEllipse(1 / 3))
        assert rep.verdict() == "favor"


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
        rep = rb_region_check(group_counts(t, consecutive_blocks(18, 9)), OrderedCone(9))
        assert rep.prior_prob == pytest.approx(1 / math.factorial(9), rel=1e-12)
        assert rep.post_prob == pytest.approx(0.040, abs=0.004)
        assert rep.rb == pytest.approx(14726, rel=0.15)
        rep3 = rb_region_check(group_counts(t, consecutive_blocks(18, 6)), OrderedCone(6))
        assert rep3.post_prob == pytest.approx(0.40, abs=0.01)
        assert rep3.rb == pytest.approx(285.6312, rel=0.10)


@pytest.fixture(scope="module")
def fly_table():
    return build_zm_table(17, 0.02)


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


def scalar_table(k, delta):
    """(params, log_probs) of the ZM table built from the scalar bisection."""
    rows = [(0.0, 0.0)]
    for beta in ZM_BETAS:
        amax = scalar_alpha_upper_bound(float(beta), delta, k + 1)
        if amax is None or amax <= ZM_ALPHA_MIN:
            continue
        sweep = np.geomspace(1.0 + ZM_ALPHA_MIN, 1.0 + amax, ZM_N_ALPHA) - 1.0
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

    @pytest.mark.parametrize("k,delta", [(17, 0.02), (3, 0.05), (40, 0.01)])
    def test_table_equals_scalar_build(self, k, delta):
        table = build_zm_table(k, delta)
        params, log_probs = scalar_table(k, delta)
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

    def test_nonpositive_delta_rejected(self):
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


def draws_by_cells_search(thetas, table, refine=True):
    """The pattern search written on (draws, cells) arrays with ``np.sum``.

    Every trial is valued with ``zm_log_probs_array``, the oracle that
    ``zm_distance_batch``'s closed-form search is checked against.
    """
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    k1 = th.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_ent = np.sum(np.where(th > 0, th * np.log(th), 0.0), axis=1)
    # scanned in zm_distance_batch's blocks of rows: the scan's last bits follow
    # the BLAS partition, and so the block shape
    blocks = [slice(i, i + ZM_SCAN_ROWS) for i in range(0, th.shape[0], ZM_SCAN_ROWS)]
    dists = np.vstack([neg_ent[b, None] - th[b] @ table.log_probs.T for b in blocks])
    j = np.argmin(dists, axis=1)
    best = dists[np.arange(th.shape[0]), j]
    alpha = table.params[j, 0].copy()
    beta = table.params[j, 1].copy()
    if not refine:
        return best, alpha, beta

    def kl_at(a, b):
        return neg_ent - np.sum(th * zm_log_probs_array(a, b, k1), axis=1)

    # 50 iterations from steps of 0.5 in alpha and 0.1 in beta
    sa = np.full(th.shape[0], 0.5)
    sb = np.full(th.shape[0], 0.1)
    for _ in range(50):
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


def assert_agrees_with_oracle(th, table):
    """Refined distances match ``draws_by_cells_search`` and never exceed the scan's.

    Only draws whose scan starts at beta > 0 are compared. From the uniform
    (beta = 0) entry the closed form's alpha trials, all of one value at
    beta = 0, can differ from the scan's bits in the last place and send the
    search down another path.
    """
    got, _, _ = zm_distance_batch(th, table)
    want, _, _ = draws_by_cells_search(th, table)
    scan, _, beta = zm_distance_batch(th, table, refine=False)
    assert np.all(got <= np.maximum(scan, 0.0))
    start = beta > 0
    np.testing.assert_allclose(got[start], want[start], rtol=0, atol=1e-11)


def oracle_draws(k1, prior):
    """600 flat or posterior-like draws, scanned in several blocks of ZM_SCAN_ROWS rows."""
    gen = np.random.default_rng(9000 + k1)
    a = np.ones(k1) if prior == "flat" else gen.integers(0, 60, k1) + 1.0
    return gen.dirichlet(a, 600)


class TestPatternSearchOracle:
    @pytest.mark.parametrize("prior", ["flat", "posterior"])
    @pytest.mark.parametrize("k1", [2, 3, 7, 8, 9, 18, 20])
    def test_scan_equals_draws_by_cells_scan(self, k1, prior):
        th, table = oracle_draws(k1, prior), build_zm_table(k1 - 1, 0.02)
        got = zm_distance_batch(th, table, refine=False)
        want = draws_by_cells_search(th, table, refine=False)
        for g, w in zip(got, want):
            assert same_bits(g, w)

    @pytest.mark.parametrize("prior", ["flat", "posterior"])
    @pytest.mark.parametrize("k1", [2, 3, 7, 8, 9, 18, 20])
    def test_refined_agrees_with_draws_by_cells_search(self, k1, prior):
        assert_agrees_with_oracle(oracle_draws(k1, prior), build_zm_table(k1 - 1, 0.02))

    def test_no_draws(self, fly_table):
        for refine in (True, False):
            assert [x.shape for x in zm_distance_batch(np.empty((0, 18)), fly_table,
                                                       refine=refine)] == [(0,)] * 3

    def test_table_rows_and_uniform(self, fly_table):
        th = np.vstack([np.exp(fly_table.log_probs[::7]), np.full((1, 18), 1 / 18)])
        assert_agrees_with_oracle(th, fly_table)


def fifty_iteration_search(th_t, neg_ent, best, alpha, beta):
    """The search as it was before draws could leave it: every iteration on every draw.

    A copy of that loop, which also records for each draw the first iteration
    after which its steps met the stopping rule (-1 if none did) and its
    (best, alpha, beta) then. Returns the final (best, alpha, beta), the
    iterations and the recorded values.
    """
    k1, n = th_t.shape
    cells = np.arange(1, k1 + 1, dtype=float)[:, None]
    mass = np.add.reduce(th_t, axis=0)
    log_a = np.log(alpha + cells)
    m_sum = np.einsum("ij,ij->j", th_t, log_a)
    work = np.empty_like(th_t)
    sa = np.full(n, STEP_ALPHA)
    sb = np.full(n, STEP_BETA)
    first = np.full(n, -1)
    at_first = [np.empty(n) for _ in range(3)]
    for it in range(SEARCH_ITERS):
        improved = np.zeros(n, dtype=bool)
        for sign in (1, -1):
            a2 = np.maximum(alpha + sign * sa, ALPHA_FLOOR)
            log_t = np.log(np.add(a2, cells, out=work), out=work)
            m_t = np.einsum("ij,ij->j", th_t, log_t)
            val = _kl_closed(beta, log_t, m_t, neg_ent, mass, out=work)
            g = np.flatnonzero(val < best)
            best[g], alpha[g], m_sum[g] = val[g], a2[g], m_t[g]
            improved[g] = True
        np.log(np.add(alpha, cells, out=log_a), out=log_a)
        for sign in (1, -1):
            b2 = np.maximum(beta + sign * sb, 0.0)
            val = _kl_closed(b2, log_a, m_sum, neg_ent, mass, out=work)
            g = np.flatnonzero(val < best)
            best[g], beta[g] = val[g], b2[g]
            improved[g] = True
        halve = np.where(improved, 1.0, 0.5)
        sa *= halve
        sb *= halve
        met = ((first < 0) & (sa <= SEARCH_TOL * (1.0 + np.abs(alpha)))
               & (sb <= SEARCH_TOL * (1.0 + beta)))
        first[met] = it
        for rec, v in zip(at_first, (best, alpha, beta)):
            rec[met] = v[met]
    return (best, alpha, beta), first, at_first


def search_inputs(th, table):
    """Cells-by-draws theta, neg_ent and the table scan's (best, alpha, beta)."""
    th_t, neg_ent = cells_by_draws(th)
    return th_t, neg_ent, zm_distance_batch(th, table, refine=False)


class TestStoppingRule:
    """Draws leave the search once their steps are at most SEARCH_TOL relative to alpha and beta."""

    @pytest.fixture(scope="class")
    def flat(self, fly_table):
        th = sample_dirichlet_array(DirichletParams(np.ones(18)), 3000, RngStream(301))
        return th, search_inputs(th, fly_table)

    @pytest.mark.parametrize("prior", ["flat", "posterior"])
    def test_draws_stop_where_the_rule_first_holds(self, fly_table, flat, prior):
        if prior == "flat":
            th, (th_t, neg_ent, scan) = flat
        else:
            th = sample_dirichlet_array(DirichletParams(FLY_COUNTS + 1.0), 3000, RngStream(302))
            th_t, neg_ent, scan = search_inputs(th, fly_table)
        want, first, at_first = fifty_iteration_search(th_t, neg_ent, *(v.copy() for v in scan))
        left = first >= 0
        if prior == "flat":
            # more than 1/8 leave, so the live draws are gathered at least once
            assert 1 / 8 < left.mean() < 1
        else:
            # posterior draws still gain at most iterations, and none of these leaves
            assert not left.any()
        got = _pattern_search(th_t, neg_ent, *(v.copy() for v in scan))
        for g, w, rec in zip(got, want, at_first):
            assert same_bits(g[~left], w[~left])
            assert same_bits(g[left], rec[left])
        assert np.all(got[0] <= scan[0])
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-11)

    @pytest.mark.parametrize("pick", ["half", "every-third", "random", "two", "five", "300"])
    def test_any_column_subset_keeps_its_bits(self, flat, pick):
        # a lone column goes through numpy's one-column reduction loops, so
        # subsets have at least two; the search never gathers fewer either
        th, (th_t, neg_ent, scan) = flat
        n = th.shape[0]
        gen = np.random.default_rng(7)
        cols = {"half": np.arange(n // 2), "every-third": np.arange(0, n, 3),
                "random": np.flatnonzero(gen.random(n) < 0.4), "two": np.array([4, 1717]),
                "five": np.sort(gen.choice(n, 5, replace=False)),
                "300": np.sort(gen.choice(n, 300, replace=False))}[pick]
        whole = _pattern_search(th_t, neg_ent, *(v.copy() for v in scan))
        part = _pattern_search(np.ascontiguousarray(th_t[:, cols]), neg_ent[cols],
                               *(v[cols].copy() for v in scan))
        assert all(same_bits(w[cols], p) for w, p in zip(whole, part))

    def test_writes_in_place(self, flat):
        _, (th_t, neg_ent, scan) = flat
        start = [v.copy() for v in scan]
        got = _pattern_search(th_t, neg_ent, *start)
        assert all(g is s for g, s in zip(got, start))


class TestBlocks:
    """zm_distance_batch scans and searches in blocks whose size does not grow with the batch."""

    @pytest.fixture(scope="class")
    def many(self):
        return sample_dirichlet_array(DirichletParams(np.ones(18)), 2 * ZM_SEARCH_COLS + 1,
                                      RngStream(303))

    @pytest.mark.parametrize("n", [1, 2, ZM_SEARCH_COLS - 1, ZM_SEARCH_COLS, ZM_SEARCH_COLS + 1,
                                   2 * ZM_SEARCH_COLS + 1])
    def test_blocked_search_equals_one_search(self, fly_table, many, n):
        th_t, neg_ent, scan = search_inputs(many[:n], fly_table)
        whole = _pattern_search(th_t, neg_ent, *(v.copy() for v in scan))
        got = zm_distance_batch(many[:n], fly_table)
        assert same_bits(got[0], np.maximum(whole[0], 0.0))
        assert same_bits(got[1], whole[1]) and same_bits(got[2], whole[2])

    @pytest.mark.parametrize("prior", ["flat", "posterior"])
    def test_memory_of_a_10k_chunk(self, fly_table, prior):
        # above the 1.44 MB of draws: the scan's 128-row blocks (1.2 MB) and then
        # the search's arrays of at most 4096 draws (0.6 MB each)
        alphas = np.ones(18) if prior == "flat" else FLY_COUNTS + 1.0
        th = sample_dirichlet_array(DirichletParams(alphas), 10_000, RngStream(304))
        tracemalloc.start()
        try:
            zm_distance_batch(th, fly_table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6


@functools.lru_cache(maxsize=None)
def table_for(k1):
    return build_zm_table(k1 - 1, 0.02)


def draws(gen, k1, conc, shape, size):
    """Dirichlet draws, optionally with exact zeros or near a vertex."""
    th = gen.dirichlet(np.full(k1, conc), size)
    if shape == "zeros":
        keep = gen.random(k1) < 0.6
        keep[gen.integers(k1)] = True
        th = th * keep
        th[th.sum(axis=1) == 0.0, np.flatnonzero(keep)[0]] = 1.0
        th /= th.sum(axis=1, keepdims=True)
    elif shape == "vertex":
        spike = np.zeros(k1)
        spike[gen.integers(k1)] = 1.0
        th = (1.0 - 1e-9) * spike + 1e-9 * th
    return th


def cells_by_draws(th):
    """theta transposed to cells by draws, and each draw's sum of theta log theta."""
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_ent = np.sum(np.where(th > 0, th * np.log(th), 0.0), axis=1)
    return np.ascontiguousarray(th.T), neg_ent


@settings(max_examples=60, deadline=None)
@given(k1=st.integers(2, 24), conc=st.floats(0.05, 500.0),
       shape=st.sampled_from(["plain", "zeros", "vertex"]), seed=st.integers(0, 2 ** 32 - 1))
@example(k1=18, conc=1.0, shape="plain", seed=0)
@example(k1=18, conc=0.05, shape="zeros", seed=1)
def test_search_agrees_with_draws_by_cells_search(k1, conc, shape, seed):
    th = draws(np.random.default_rng(seed), k1, conc, shape, 40)
    assert_agrees_with_oracle(th, table_for(k1))


class TestClosedForm:
    @pytest.mark.parametrize("k1", [2, 18, 24])
    def test_matches_zm_log_probs_at_the_extremes(self, k1):
        # the search reaches alpha down to ALPHA_FLOOR and up to the table's
        # largest alpha plus 50 alpha steps, and beta up to the grid's
        # largest beta plus 50 beta steps; at beta = 65 and ALPHA_FLOOR
        # the unshifted sum of (alpha + i)^-beta overflows
        with np.errstate(over="ignore"):
            assert np.isinf(np.float64(ALPHA_FLOOR + 1.0) ** -65.0)
        gen = np.random.default_rng(k1)
        th = np.vstack([draws(gen, k1, c, shape, 200) for c, shape in
                        ((1.0, "plain"), (0.05, "zeros"), (1.0, "zeros"), (5.0, "vertex"))])
        th_t, neg_ent = cells_by_draws(th)
        mass = np.add.reduce(th_t, axis=0)
        cells = np.arange(1, k1 + 1, dtype=float)[:, None]
        alpha_max = table_for(k1).params[:, 0].max() + 50 * 0.5
        beta_max = ZM_BETAS[-1] + 50 * 0.1
        for a in (ALPHA_FLOOR, -1.0 + 1e-6, -0.5, 0.0, 3.0, alpha_max):
            log_a = np.log(np.full(th.shape[0], a) + cells)
            m_sum = np.einsum("ij,ij->j", th_t, log_a)
            for b in (0.0, 1e-3, 0.7, 5.0, beta_max, 65.0):
                bb = np.full(th.shape[0], b)
                val = _kl_closed(bb, log_a, m_sum, neg_ent, mass)
                want = neg_ent - np.sum(th * zm_log_probs_array(a, b, k1), axis=1)
                np.testing.assert_allclose(val, want, rtol=0, atol=1e-12, err_msg=f"{a}, {b}")
                # the search passes log(alpha + i) itself as the scratch
                scratch = log_a.copy()
                assert same_bits(_kl_closed(bb, scratch, m_sum, neg_ent, mass, out=scratch), val)

    def test_value_at_beta_zero_ignores_alpha(self):
        gen = np.random.default_rng(3)
        th_t, neg_ent = cells_by_draws(draws(gen, 18, 0.5, "zeros", 300))
        mass = np.add.reduce(th_t, axis=0)
        cells = np.arange(1, 19, dtype=float)[:, None]
        alpha = np.concatenate([[ALPHA_FLOOR, -0.95, 0.0, 637.9],
                                gen.uniform(ALPHA_FLOOR, 50.0, 296)])
        log_a = np.log(alpha + cells)
        val = _kl_closed(np.zeros(300), log_a, np.einsum("ij,ij->j", th_t, log_a), neg_ent, mass)
        assert same_bits(val, neg_ent + mass * np.log(18.0))


class TestDistanceCheck:
    def test_histograms_normalize(self):
        t = CountVector(np.array([40, 30, 20, 10]))
        rep = rb_distance_check(t, 0.05, 20_000, RngStream(50))
        assert rep.prior_hist.sum() == pytest.approx(1.0, abs=1e-9)
        assert rep.post_hist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zm_like_data_favors(self):
        # counts proportional to a family member, large n
        probs = np.exp(zm_log_probs_array(0.0, 1.0, 4))
        t = CountVector(np.round(probs * 4000).astype(int))
        rep = rb_distance_check(t, 0.05, 30_000, RngStream(51))
        assert not rep.prior_first_bin_empty
        assert rep.rb_zero > 1
        assert rep.verdict() == "favor"

    def test_far_from_family_data_against(self):
        # a markedly non-monotone profile cannot be fit by any family member
        theta = np.array([0.5, 0.01, 0.02, 0.47])
        t = CountVector(np.round(theta * 2000).astype(int))
        rep = rb_distance_check(t, 0.05, 30_000, RngStream(52))
        assert rep.rb_zero < 1
        assert rep.verdict() == "against"

    def test_a_ratio_of_one_is_undefined(self):
        # every distance is at most log 4 < 1.4, so every draw lies in the first bin
        rep = rb_distance_check(CountVector(np.array([40, 30, 20, 10])), 1.4, 1000, RngStream(54))
        assert (rep.rb_zero, rep.prior_first_bin_empty) == (1.0, False)
        assert rep.verdict() == "undefined"

    def test_strength_bins_below_rb_zero(self):
        probs = np.exp(zm_log_probs_array(0.5, 1.5, 4))
        t = CountVector(np.round(probs * 4000).astype(int))
        rep = rb_distance_check(t, 0.05, 30_000, RngStream(53))
        assert 0 <= rep.strength <= 1

    def test_workers_do_not_change_report(self):
        # two chunks of 10 000 draws on each side, run on one thread and on four
        t = CountVector(FLY_COUNTS)
        a = rb_distance_check(t, 0.02, 20_000, RngStream(47), workers=1)
        b = rb_distance_check(t, 0.02, 20_000, RngStream(47), workers=4)
        assert same_bits(a.prior_hist, b.prior_hist) and same_bits(a.post_hist, b.post_hist)
        assert a.post_hist[0] > 0

    def test_rejects_bad_inputs(self):
        t = CountVector(np.array([40, 30, 20, 10]))
        with pytest.raises(ValueError):
            rb_distance_check(t, 0.0, 1000, RngStream(0))

    def test_refuses_a_delta_past_the_bin_cap_before_drawing(self):
        class NoDraws:
            def substream(self, i):
                raise AssertionError("drew")

        t = CountVector(FLY_COUNTS)
        edge = math.log(18) / ZM_MAX_BINS
        with pytest.raises(ValueError, match="distance bins"):
            rb_distance_check(t, edge * (1 - 1e-9), 1000, NoDraws())
        for delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                rb_distance_check(t, delta, 1000, NoDraws())
        with pytest.raises(AssertionError, match="drew"):
            rb_distance_check(t, edge * (1 + 1e-9), 1000, NoDraws())
