import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln as scipy_gammaln, logsumexp as scipy_logsumexp

from conmult.core import (
    CountVector,
    DirichletParams,
    OrderedCone,
    QuadBall,
    SimplexPoint,
    TrineEllipse,
    consecutive_blocks,
    gammaln,
    gauss_legendre,
    group_counts,
    group_sums,
    logsumexp,
    median,
    ordered_from_weights_array,
    ordered_mode,
    quantiles,
    strided,
    tetrahedron_region,
    trine_log_integrals,
    weights_from_ordered_array,
    zm_log_probs_array,
)
from conmult.model_check import ZmTable, kl_uniform_to_zm, zm_distance_batch

from conftest import FLY_COUNTS, same_bits


def random_simplex(rng, k1, size=1):
    g = rng.standard_gamma(1.0, size=(size, k1))
    return g / g.sum(axis=1, keepdims=True)


def lower_weight_matrix(k1):
    # explicit upper-triangular map: column j spreads weight j over rows 1..j
    A = np.zeros((k1, k1))
    for j in range(k1):
        A[: j + 1, j] = 1.0 / (j + 1)
    return A


class TestSimplexTypes:
    def test_valid_point(self):
        p = SimplexPoint(np.array([0.2, 0.3, 0.5]))
        assert p.k == 2
        assert len(p) == 3

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SimplexPoint(np.array([0.2, 0.3, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint(np.array([-0.1, 0.6, 0.5]))

    def test_rejects_scalarish(self):
        with pytest.raises(ValueError):
            SimplexPoint(np.array([1.0]))

    def test_counts(self):
        t = CountVector(np.array([3, 0, 2]))
        assert t.n == 5
        assert t.k == 2

    def test_counts_reject_negative_or_empty_total(self):
        with pytest.raises(ValueError):
            CountVector(np.array([1, -1]))
        with pytest.raises(ValueError):
            CountVector(np.array([0, 0]))

    @pytest.mark.parametrize("counts", [[2**62, 2**62, 5], [1e19, 5, 5]], ids=["int", "float"])
    def test_counts_reject_a_total_beyond_int64(self, counts):
        # the int sum would wrap negative and the float cast is invalid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="does not fit in a 64-bit integer"):
                CountVector(np.array(counts))

    def test_arrays_are_read_only_copies(self):
        # the value types guard their arrays, not their attributes
        source = np.array([0.2, 0.3, 0.5])
        point = SimplexPoint(source)
        source[0] = 0.9
        assert point.probs[0] == 0.2
        trine = TrineEllipse(1 / 3)
        for arr in (point.probs, CountVector(np.array([3, 0, 2])).counts,
                    DirichletParams(np.ones(3)).alphas, trine.center, trine.matrix):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


class TestOrderedWeightsBijection:
    def test_all_mass_last_gives_uniform(self):
        k1 = 5
        omega = np.zeros(k1)
        omega[-1] = 1.0
        theta = ordered_from_weights_array(omega)
        np.testing.assert_allclose(theta, np.full(k1, 1 / k1), atol=1e-15)

    def test_corner_fixed_point(self):
        theta = ordered_from_weights_array(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(theta, [1.0, 0.0, 0.0], atol=1e-15)

    def test_matches_explicit_matrix_product(self, rng):
        # oracle: multiply by the explicit triangular matrix
        omega = np.array([0.1, 0.2, 0.3, 0.4])
        expect = lower_weight_matrix(4) @ omega
        np.testing.assert_allclose(expect, [0.4, 0.3, 0.2, 0.1], atol=1e-15)
        got = ordered_from_weights_array(omega)
        np.testing.assert_allclose(got, expect, atol=1e-14)
        for k1 in (2, 5, 9):
            om = random_simplex(rng, k1)[0]
            np.testing.assert_allclose(
                ordered_from_weights_array(om),
                lower_weight_matrix(k1) @ om,
                atol=1e-13,
            )

    def test_inverse_matches_bidiagonal_matrix(self):
        theta = np.array([0.4, 0.3, 0.2, 0.1])
        Ainv = np.linalg.inv(lower_weight_matrix(4))
        expect = Ainv @ theta
        np.testing.assert_allclose(expect, [0.1, 0.2, 0.3, 0.4], atol=1e-12)
        got = weights_from_ordered_array(theta)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_uniform_maps_to_last_corner(self):
        k1 = 6
        om = weights_from_ordered_array(np.full(k1, 1 / k1))
        expect = np.zeros(k1)
        expect[-1] = 1.0
        np.testing.assert_allclose(om, expect, atol=1e-14)

    def test_round_trip_many_dimensions(self, rng):
        for _ in range(50):
            k1 = int(rng.integers(2, 22))
            om = random_simplex(rng, k1, 20)
            for row in om:
                theta = ordered_from_weights_array(row)
                back = weights_from_ordered_array(theta)
                np.testing.assert_allclose(back, row, atol=1e-12)

    def test_forward_output_always_in_cone(self, rng):
        cone_checked = 0
        for k1 in (2, 7, 15):
            om = random_simplex(rng, k1, 200)
            cone = OrderedCone(dim=k1)
            for row in om:
                theta = ordered_from_weights_array(row)
                assert cone.contains_array(theta)
                cone_checked += 1
        assert cone_checked == 600


class TestOrderedMode:
    @staticmethod
    def theta_mode_reference(alphas):
        """The arithmetic of ``OrderedDirichletPrior.theta_mode``, which ``ordered_mode`` replaced."""
        excess = np.maximum(alphas - 1.0, 0.0)
        tau = float(excess.sum())
        if tau <= 0:
            xi = np.zeros(alphas.size)
            xi[-1] = 1.0
        else:
            xi = excess / tau
        return ordered_from_weights_array(xi)

    def test_decreasing_with_small_alpha(self):
        # weights with alpha < 1 get no mode mass: xi = (0, 1/2, 1/2)
        mode = ordered_mode(np.array([0.5, 3.0, 3.0]))
        np.testing.assert_allclose(mode, [5 / 12, 5 / 12, 1 / 6], atol=1e-15)

    @pytest.mark.parametrize("alphas", [
        [0.5, 3.0, 3.0],
        [1.0] * 17 + [3.85],
        [0.2, 1.7, 0.9, 1.0, 2.5, 0.01],
        [1.084, 1.169, 1.253, 1.338, 4.967],
        [1.0, 1.0, 1.0],
        [0.5, 1.0, 0.3, 0.99],
        [0.05] * 18,
    ])
    def test_same_bits_as_the_prior_method(self, alphas):
        alphas = np.array(alphas)
        assert same_bits(ordered_mode(alphas), self.theta_mode_reference(alphas))

    def test_no_alpha_above_one_anchors_at_uniform(self):
        np.testing.assert_allclose(ordered_mode(np.array([0.5, 1.0, 0.3, 0.99])), np.full(4, 0.25),
                                   atol=1e-15)


class TestGroupings:
    @staticmethod
    def group_array_reference(t, labels):
        """The arithmetic of ``Grouping.group_array``, which ``group_sums`` replaced."""
        t = np.asarray(t)
        cells = np.asarray(labels)
        return np.stack([t[..., cells == g].sum(axis=-1) for g in range(max(labels) + 1)],
                        axis=-1)

    def test_labels(self):
        assert consecutive_blocks(7, 3) == (0, 0, 0, 1, 1, 1, 2)
        assert strided(3, 7) == (0, 1, 2, 0, 1, 2, 0)
        assert strided(7, 7) == consecutive_blocks(7, 7) == tuple(range(7))

    def test_consecutive_construction(self):
        assert group_sums(np.ones(18), consecutive_blocks(18, 5)).tolist() == [4, 4, 4, 4, 2]
        assert group_sums(np.ones(18), consecutive_blocks(18, 9)).tolist() == [2] * 9

    def test_rejects_nonequal_blocks(self):
        with pytest.raises(ValueError, match="cannot form 7 equal consecutive blocks"):
            consecutive_blocks(18, 7)
        with pytest.raises(ValueError, match="cannot form"):
            consecutive_blocks(3, 4)

    @pytest.mark.parametrize("make", [lambda g: consecutive_blocks(6, g), lambda g: strided(g, 6)],
                             ids=["consecutive", "strided"])
    @pytest.mark.parametrize("groups", [1, 0, -2])
    def test_one_group_or_fewer_refused(self, make, groups):
        with pytest.raises(ValueError, match=f"need at least 2 groups, got {groups}"):
            make(groups)

    def test_strided_needs_a_cell_per_group(self):
        with pytest.raises(ValueError, match="need at most 18 groups, got 19"):
            strided(19, 18)

    def test_strided_sizes_non_increasing(self):
        assert group_sums(np.ones(18), strided(5, 18)).tolist() == [4, 4, 4, 3, 3]

    def test_group_counts_values(self):
        t = CountVector(FLY_COUNTS)
        pairs = group_counts(t, consecutive_blocks(18, 9))
        np.testing.assert_array_equal(pairs.counts, [241, 64, 31, 8, 7, 5, 3, 2, 2])
        stride = group_counts(t, strided(9, 18))
        np.testing.assert_array_equal(stride.counts, [148, 99, 37, 31, 21, 12, 5, 5, 5])

    def test_group_counts_dimension_check(self):
        with pytest.raises(ValueError, match="group layout covers 16 cells, counts have 18"):
            group_counts(CountVector(FLY_COUNTS), consecutive_blocks(16, 8))

    def test_order_preservation_both_layouts(self, rng):
        # decreasing inputs stay decreasing after grouping, for every layout
        for _ in range(200):
            th = np.sort(rng.dirichlet(np.ones(18)))[::-1]
            for labels in (consecutive_blocks(18, 5), strided(7, 18)):
                assert np.all(np.diff(group_sums(th, labels)) <= 1e-15)

    @pytest.mark.parametrize("n_cells", [2, 5, 18, 23])
    def test_same_bits_as_the_grouping_method(self, rng, n_cells):
        # both layouts, every group count, on probabilities and counts, 1-D and 2-D
        probs = random_simplex(rng, n_cells, 50)
        counts = rng.multinomial(500, probs[0], size=50)
        for groups in range(2, n_cells + 1):
            layouts = [strided(groups, n_cells)]
            assert layouts[0] == tuple(i % groups for i in range(n_cells))
            size = math.ceil(n_cells / groups)
            if n_cells - size * (groups - 1) >= 1:
                layouts.append(consecutive_blocks(n_cells, groups))
                assert layouts[1] == tuple(i // size for i in range(n_cells))
            for labels in layouts:
                for t in (probs, probs[0], counts, counts[0]):
                    assert same_bits(group_sums(t, labels), self.group_array_reference(t, labels))


class TestZipfMandelbrot:
    def test_beta_zero_is_uniform(self):
        for alpha in (-0.5, 0.0, 3.0):
            p = np.exp(zm_log_probs_array(alpha, 0.0, 5))
            np.testing.assert_allclose(p, 0.2, atol=1e-15)

    def test_hand_evaluated_case(self):
        # alpha=0, beta=1, k=2: weights 1, 1/2, 1/3 normalize by 11/6
        p = np.exp(zm_log_probs_array(0.0, 1.0, 3))
        np.testing.assert_allclose(p, [6 / 11, 3 / 11, 2 / 11], atol=1e-14)

    def test_large_alpha_approaches_uniform(self):
        p = np.exp(zm_log_probs_array(1e8, 2.0, 4))
        np.testing.assert_allclose(p, 0.25, atol=1e-6)

    def test_strictly_decreasing_iff_beta_positive(self, rng):
        for _ in range(20):
            alpha = float(rng.uniform(-0.9, 5.0))
            beta = float(rng.uniform(0.05, 8.0))
            p = np.exp(zm_log_probs_array(alpha, beta, 7))
            assert np.all(np.diff(p) < 0)
        p0 = np.exp(zm_log_probs_array(2.0, 0.0, 7))
        assert np.all(np.diff(p0) == 0)

    def test_broadcast_rows_normalize(self, rng):
        alpha = rng.uniform(-0.9, 10.0, size=(4, 5))
        beta = rng.uniform(0.0, 30.0, size=(4, 5))
        lp = zm_log_probs_array(alpha, beta, 9)
        assert lp.shape == (4, 5, 9)
        np.testing.assert_allclose(np.exp(lp).sum(axis=-1), 1.0, atol=1e-14)
        np.testing.assert_array_equal(lp[2, 3], zm_log_probs_array(alpha[2, 3], beta[2, 3], 9))

    def test_two_cells_is_the_smallest_family(self):
        # alpha=0, beta=1: weights 1, 1/2 normalize by 3/2
        np.testing.assert_allclose(zm_log_probs_array(0.0, 1.0, 2),
                                   np.log([2 / 3, 1 / 3]), atol=1e-15)

    def test_rejects_bad_k(self):
        for k1 in (1, 0):
            with pytest.raises(ValueError, match="k1"):
                zm_log_probs_array(0.0, 1.0, k1)


def scan_kl(theta, p):
    """KL(theta || p) as the ZM distance's table scan computes it, p a one-row table."""
    with np.errstate(divide="ignore"):
        table = ZmTable(params=np.zeros((1, 2)), log_probs=np.log(np.atleast_2d(p)))
    return float(zm_distance_batch(theta, table, refine=False)[0][0])


class TestKlDivergence:
    """The two KL divergences of the ZM check: the redundancy KL(uniform || ZM)
    and the table scan's KL(theta || p)."""

    def test_identity_is_zero(self, rng):
        # ZM(alpha, 0) is the uniform distribution itself
        for _ in range(10):
            alpha = float(rng.uniform(-0.9, 5.0))
            k1 = int(rng.integers(2, 30))
            assert kl_uniform_to_zm(alpha, 0.0, k1) == 0.0

    def test_hand_value(self):
        v = scan_kl(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert v == pytest.approx(math.log(2), abs=1e-14)
        # ZM(0, 1) on two cells is (2/3, 1/3)
        assert kl_uniform_to_zm(0.0, 1.0, 2) == pytest.approx(0.5 * math.log(9 / 8), abs=1e-15)

    def test_support_mismatch_is_inf(self):
        v = scan_kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert v == math.inf

    def test_nonnegative_zero_only_at_equality(self, rng):
        for _ in range(200):
            p = random_simplex(rng, 4)[0]
            q = random_simplex(rng, 4)[0]
            v = scan_kl(p, q)
            assert v >= 0
            assert v > 0  # distinct random pairs almost surely

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scan_kl(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))

    def test_scan_matches_definition(self, rng):
        for _ in range(50):
            p, q = random_simplex(rng, 6, 2)
            p[int(rng.integers(6))] = 0.0  # a zero cell adds 0 log 0 = 0
            p /= p.sum()
            want = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)
            assert scan_kl(p, q) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_scan_takes_the_nearest_row(self):
        probs = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]])
        table = ZmTable(params=np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]]),
                        log_probs=np.log(probs))
        theta = np.array([[0.45, 0.35, 0.2], [0.1, 0.3, 0.6]])
        dist, alpha, beta = zm_distance_batch(theta, table, refine=False)
        for row, want in zip(range(2), (0, 1)):
            assert dist[row] == pytest.approx(scan_kl(theta[row], probs[want]), rel=1e-14)
            assert (alpha[row], beta[row]) == tuple(table.params[want])


class TestTrineGeometry:
    def test_prior_mass_values(self):
        assert TrineEllipse(1 / 3).prior == pytest.approx(0.6046, abs=5e-5)
        assert TrineEllipse(0.48445).prior == pytest.approx(0.2684, abs=5e-5)

    def test_prior_mass_vanishes_at_half(self):
        assert TrineEllipse(0.4999999).prior < 1e-3

    def test_prior_mass_domain(self):
        for a in (0.0, 0.5, -0.2, 1.0):
            with pytest.raises(ValueError):
                TrineEllipse(a).prior

    def test_prior_mass_matches_monte_carlo(self, rng):
        # independent geometric validation: flat draws on the 2-simplex
        n = 1_000_000
        th = random_simplex(rng, 3, n)
        region = TrineEllipse(1 / 3)
        hit = region.contains_array(th).mean()
        mass = region.prior
        se = math.sqrt(mass * (1 - mass) / n)
        assert abs(hit - mass) < 3 * se

    @pytest.mark.xfail(strict=True, reason="thin-ellipse quadrature unresolved; ROADMAP item 14")
    def test_thin_ellipse_content_converges(self):
        # flat density, counts (0, 1000, 0) on a = 0.49: levels 0, 1 and 2 read log contents
        # -722.954, -706.978 and -694.062 with certificates 18.23, 15.98 and 12.92
        _, cert = trine_log_integrals(np.array([[0.0, 1000.0, 0.0]]), TrineEllipse(0.49),
                                      lambda theta: np.zeros(len(theta)), np.zeros(1), 2)
        assert cert[0] < 1e-6


class TestRegions:
    def test_trine_center_inside(self):
        region = TrineEllipse(1 / 3)
        assert region.contains_array(np.array([1 / 3, 1 / 3, 1 / 3]))

    def test_trine_corner_outside(self):
        region = TrineEllipse(1 / 3)
        assert not region.contains_array(np.array([1.0, 0.0, 0.0]))

    def test_sphere_cap_form_agrees_at_symmetric_overlap(self, rng):
        # the sum-of-squares form and the ellipse form define the same set
        ellipse = TrineEllipse(1 / 3)
        cap = QuadBall(dim=3, bound=0.5)
        th = random_simplex(rng, 3, 20_000)
        np.testing.assert_array_equal(
            ellipse.contains_array(th), cap.contains_array(th)
        )

    def test_ordered_cone(self):
        cone = OrderedCone(dim=4)
        assert cone.contains_array(np.array([0.4, 0.3, 0.2, 0.1]))
        assert not cone.contains_array(np.array([0.3, 0.4, 0.2, 0.1]))
        # ties are inside the closed cone
        assert cone.contains_array(np.array([0.3, 0.3, 0.2, 0.2]))

    def test_tetrahedron_membership(self):
        region = tetrahedron_region()
        assert region.contains_array(np.full(4, 0.25))
        assert not region.contains_array(np.array([0.7, 0.1, 0.1, 0.1]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            TrineEllipse(1 / 3).contains_array(np.full(4, 0.25))
        # (theta_1, theta_2) alone places a point of the 2-simplex
        assert TrineEllipse(1 / 3).contains_array(np.array([1 / 3, 1 / 3]))
        with pytest.raises(ValueError, match="dimension"):
            TrineEllipse(1 / 3).contains_array(np.array([1.0]))

    def test_trine_pairs_agree_with_full_points(self, rng):
        th = random_simplex(rng, 3, 5_000)
        region = TrineEllipse(0.48445)
        np.testing.assert_array_equal(region.contains_array(th[:, :2]),
                                      region.contains_array(th))

    def test_cone_and_ball_dimension_mismatch_rejected(self):
        for region in (OrderedCone(dim=4), tetrahedron_region(), QuadBall(dim=6, bound=0.2)):
            for width in (region.dim - 1, region.dim + 1):
                with pytest.raises(ValueError, match="dimension"):
                    region.contains_array(np.full((2, width), 1.0 / width))

    def test_quadball_validation(self):
        # only regions whose flat-prior content has a closed form
        with pytest.raises(ValueError, match="dim"):
            QuadBall(dim=1, bound=0.5)
        with pytest.raises(ValueError, match="leaves the simplex"):
            QuadBall(dim=4, bound=1.0 / 3.0 + 1e-12)
        # sum theta^2 >= 1/dim on the simplex, with equality at the centroid alone
        for bound in (0.0, 0.2, 0.25):
            with pytest.raises(ValueError, match="only the centroid, or nothing"):
                QuadBall(dim=4, bound=bound)
        # the inscribed ball itself, and a ball just past the centroid, are fine
        QuadBall(dim=4, bound=1.0 / 3.0)
        QuadBall(dim=4, bound=0.25 + 1e-12)

    @staticmethod
    def ball_content(dim, bound):
        d, r2 = dim - 1, bound - 1.0 / dim
        return ((math.pi * r2) ** (d / 2) / math.gamma(d / 2 + 1)
                * math.factorial(d) / math.sqrt(dim))

    @pytest.mark.parametrize("a", [1 / 3, 0.48445, 0.4999999])
    def test_ellipse_prior_keeps_its_closed_form(self, a):
        prior = float(a * np.pi * np.sqrt(1 - 2 * a))
        region = TrineEllipse(a)
        assert same_bits(region.prior, prior) and same_bits(region.log_prior, math.log(prior))

    @pytest.mark.parametrize("k", [2, 18, 170, 171, 178, 200])
    def test_cone_prior_keeps_its_closed_form(self, k):
        # 1/K! is a subnormal at 171 cells and 0 from 178 on, where its log still holds
        region = OrderedCone(k)
        assert same_bits(region.prior, 1 / math.factorial(k))
        assert same_bits(region.log_prior, -math.lgamma(k + 1))

    @pytest.mark.parametrize("dim, bound", [(3, 0.5), (4, 1 / 3), (4, 0.3), (18, 1 / 18 + 1e-3)])
    def test_ball_prior_keeps_its_closed_form(self, dim, bound):
        prior = self.ball_content(dim, bound)
        region = QuadBall(dim, bound)
        assert same_bits(region.prior, prior) and same_bits(region.log_prior, math.log(prior))

    def test_a_membership_cone_computes_no_factorial(self, monkeypatch):
        def refuse(k):
            raise AssertionError("computed a factorial")

        monkeypatch.setattr(math, "factorial", refuse)
        assert OrderedCone(dim=500).contains_array(np.arange(500.0, 0.0, -1.0))


class TestLogSumExp:
    # entries from a small pool, so ties at the maximum and -inf come up often
    entries = st.one_of(st.sampled_from([-np.inf, 0.0, -1.5, 3.25, 700.0]),
                        st.floats(-800.0, 800.0))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(entries, min_size=1, max_size=300))
    @example([2.0])
    @example([-np.inf])
    @example([-np.inf, -np.inf, -np.inf])
    @example([3.25, 3.25, -np.inf, 1.0])
    @example([-745.5, -746.0, -1000.0])
    def test_bitwise_equal_to_scipy(self, values):
        a = np.array(values)
        assert same_bits(logsumexp(a), scipy_logsumexp(a))
        assert same_bits(logsumexp(2.0 * a), scipy_logsumexp(2.0 * a))

    def test_bitwise_on_importance_sized_vectors(self, rng):
        for _ in range(50):
            a = rng.normal(-50.0, 20.0, size=2000)
            a[rng.random(2000) < 0.1] = -np.inf
            assert same_bits(logsumexp(a), scipy_logsumexp(a))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda cols, e=entries: arrays(
        np.float64, st.tuples(st.integers(1, 6), st.just(cols)), elements=e)))
    @example(np.full((3, 4), -np.inf))
    @example(np.array([[1.0, 1.0, -np.inf], [-np.inf, -np.inf, -np.inf], [700.0, 700.0, 700.0]]))
    @example(np.array([[-np.inf], [2.5], [0.0]]))
    @example(np.array([[3.25, 3.25, 1.0, -2.0]]))
    def test_rows_bitwise_equal_to_scipy(self, a):
        # one value per row, each bitwise scipy's along the last axis and
        # bitwise the 1-D call on that row alone
        got = logsumexp(a)
        assert same_bits(got, scipy_logsumexp(a, axis=-1))
        assert same_bits(got, [logsumexp(row) for row in a])
        assert same_bits(logsumexp(2.0 * a), scipy_logsumexp(2.0 * a, axis=-1))

    def test_rows_of_importance_sized_weights(self, rng):
        a = rng.normal(-50.0, 20.0, size=(7, 2000))
        a[rng.random(a.shape) < 0.1] = -np.inf
        a[3] = -np.inf
        assert same_bits(logsumexp(a), scipy_logsumexp(a, axis=-1))


class TestMedianAndQuantiles:
    """``median`` and ``quantiles`` against ``np.median`` and ``np.quantile``, bit for bit."""

    QS = [0.025, 0.5, 0.975]
    # a small pool, so ties, -0.0 beside 0.0 and several NaNs come up often
    entries = st.one_of(st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 2.5]),
                        st.floats(allow_nan=True, allow_infinity=True))

    @settings(max_examples=400, deadline=None)
    @given(arrays(np.float64, st.integers(1, 60), elements=entries))
    @example(np.array([0.0, -0.0]))
    @example(np.array([-0.0, 0.0, 0.0]))
    @example(np.array([np.inf, -np.inf]))
    @example(np.array([1.0, np.nan, 2.0, -np.nan]))
    def test_median_bitwise_equal_to_numpy(self, x):
        with np.errstate(invalid="ignore"):  # inf - inf, as numpy meets it
            assert same_bits(median(x), np.median(x))

    @settings(max_examples=400, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 50), st.integers(1, 18)),
                  elements=entries))
    @example(np.array([[0.5, -0.0, np.nan]]))
    @example(np.array([[0.0], [-0.0], [-0.0], [0.0]]))
    @example(np.array([[np.inf, 1.0], [-np.inf, np.inf], [1.0, -np.inf]]))
    def test_quantiles_bitwise_equal_to_numpy(self, x):
        with np.errstate(invalid="ignore"):  # inf - inf, as numpy meets it
            assert same_bits(quantiles(x, self.QS), np.quantile(x, self.QS, axis=0))

    @pytest.mark.parametrize("rows", [1, 2, 1399, 1400, 1401])
    def test_posterior_sized_columns(self, rng, rows):
        x = rng.dirichlet(np.ones(18), rows)
        x[rng.random(x.shape) < 0.01] = 0.0
        x[rng.random(x.shape) < 0.01] = -0.0
        x[:, 3] = 0.25  # a column of ties
        assert same_bits(quantiles(x, self.QS), np.quantile(x, self.QS, axis=0))
        assert same_bits([median(col) for col in x.T], np.median(x, axis=0))
        x[rng.integers(rows), 5] = np.nan
        x[rng.integers(rows), 7] = np.inf
        with np.errstate(invalid="ignore"):
            assert same_bits(quantiles(x, self.QS), np.quantile(x, self.QS, axis=0))
        assert same_bits(median(x[:, 5]), np.median(x[:, 5]))


class TestGammaln:
    """``gammaln`` against scipy's, bit for bit, on every Cephes branch and its edges."""

    # [lo, hi) of each branch: the recurrence up from (0, 2), the rational fit on
    # [2, 3), the recurrence down from [3, 13), the long and short Stirling series,
    # and Stirling's leading terms alone above 1e8 (up to the overflow bound)
    branches = [(0.0, 2.0), (2.0, 3.0), (3.0, 13.0), (13.0, 1000.0), (1000.0, 1e8),
                (1e8, 2.556348e305)]
    edges = [v for lo, hi in branches for v in (lo, np.nextafter(lo, 0.0), np.nextafter(lo, hi),
                                                 hi, np.nextafter(hi, 0.0))]
    values = st.one_of(
        *[st.floats(lo, hi, exclude_min=lo == 0.0) for lo, hi in branches],
        st.floats(1e-3, 1.0), st.floats(0.0, 1e-300), st.floats(1e300, 1.7e308),
        st.sampled_from(edges), st.integers(1, 20001).map(float),
        st.integers(0, 40000).map(lambda i: i + 0.5))

    @settings(max_examples=600, deadline=None)
    @given(arrays(np.float64, st.one_of(st.just(()), st.tuples(st.integers(1, 40)),
                                       st.tuples(st.integers(1, 6), st.integers(1, 20))),
                  elements=values))
    def test_bitwise_equal_to_scipy(self, x):
        got = gammaln(x)
        assert same_bits(got, scipy_gammaln(x))
        assert np.shape(got) == x.shape

    def test_bitwise_on_integers_half_integers_and_small_alphas(self):
        x = np.concatenate([np.arange(1, 20002.0), np.arange(0.5, 20001.0),
                            np.geomspace(1e-3, 1.0, 5000)])
        assert same_bits(gammaln(x), scipy_gammaln(x))
        assert same_bits(gammaln(x.reshape(2, -1)), scipy_gammaln(x).reshape(2, -1))

    def test_special_values(self):
        assert same_bits(gammaln(np.array([0.0, np.inf, np.nan])), [np.inf, np.inf, np.nan])
        assert isinstance(gammaln(5.0), np.float64)
        assert gammaln(5.0) == math.log(24.0)

    @pytest.mark.parametrize("x", [-1.0, -0.5, [2.0, -3.0], -np.inf])
    def test_negative_input_raises(self, x):
        with pytest.raises(ValueError, match=">= 0"):
            gammaln(x)


class TestTrineQuadForm:
    coords = st.floats(-2.0, 2.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 1 / 3])

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(3, 60), st.just(2)), elements=coords),
           st.sampled_from([1 / 3, 0.1, 0.48445]))
    def test_bitwise_equal_to_einsum_from_three_rows(self, theta12, a):
        # np.einsum adds the four terms in this order for three or more rows
        region = TrineEllipse(a)
        d = theta12 - region.center
        want = np.einsum("...i,ij,...j->...", d, region.matrix, d)
        assert same_bits(region.quad_form_array(theta12), want)

    def test_point_value_does_not_depend_on_the_batch(self, rng):
        region = TrineEllipse(1 / 3)
        theta = random_simplex(rng, 3, 500)
        batch = region.quad_form_array(theta)
        assert same_bits([region.quad_form_array(row) for row in theta], batch)
        assert same_bits(region.quad_form_array(theta[:2]), batch[:2])


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 9, 16, 32, 64])
    def test_exact_on_polynomials_of_degree_below_2n(self, n):
        x, w = gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and 0 < x[0] and x[-1] < 1 and np.all(w > 0)
        for degree in range(2 * n):
            assert (w * x**degree).sum() == pytest.approx(1.0 / (degree + 1), rel=1e-13)

    def test_symmetric_about_one_half(self):
        x, w = gauss_legendre(16)
        np.testing.assert_allclose(x + x[::-1], 1.0, atol=1e-15)
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)
