import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln as scipy_gammaln, logsumexp as scipy_logsumexp

from conmult.core import (
    CountVector,
    OrderedCone,
    QuadBall,
    SimplexPoint,
    TrineEllipse,
    ZmParams,
    crosshairs_region,
    gammaln,
    kl_divergence,
    log_multinomial_pmf,
    logsumexp,
    ordered_from_weights,
    pauli_region,
    region_contains,
    tetrahedron_region,
    trine_prior_mass,
    weights_from_ordered,
    zm_distribution,
)

from conftest import same_bits


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

    def test_zm_params_validation(self):
        with pytest.raises(ValueError):
            ZmParams(alpha=-1.0, beta=1.0)
        with pytest.raises(ValueError):
            ZmParams(alpha=0.0, beta=-0.5)


class TestOrderedWeightsBijection:
    def test_all_mass_last_gives_uniform(self):
        k1 = 5
        omega = np.zeros(k1)
        omega[-1] = 1.0
        theta = ordered_from_weights(SimplexPoint(omega))
        np.testing.assert_allclose(theta.probs, np.full(k1, 1 / k1), atol=1e-15)

    def test_corner_fixed_point(self):
        theta = ordered_from_weights(SimplexPoint(np.array([1.0, 0.0, 0.0])))
        np.testing.assert_allclose(theta.probs, [1.0, 0.0, 0.0], atol=1e-15)

    def test_matches_explicit_matrix_product(self, rng):
        # oracle: multiply by the explicit triangular matrix
        omega = np.array([0.1, 0.2, 0.3, 0.4])
        expect = lower_weight_matrix(4) @ omega
        np.testing.assert_allclose(expect, [0.4, 0.3, 0.2, 0.1], atol=1e-15)
        got = ordered_from_weights(SimplexPoint(omega))
        np.testing.assert_allclose(got.probs, expect, atol=1e-14)
        for k1 in (2, 5, 9):
            om = random_simplex(rng, k1)[0]
            np.testing.assert_allclose(
                ordered_from_weights(SimplexPoint(om)).probs,
                lower_weight_matrix(k1) @ om,
                atol=1e-13,
            )

    def test_inverse_matches_bidiagonal_matrix(self):
        theta = np.array([0.4, 0.3, 0.2, 0.1])
        Ainv = np.linalg.inv(lower_weight_matrix(4))
        expect = Ainv @ theta
        np.testing.assert_allclose(expect, [0.1, 0.2, 0.3, 0.4], atol=1e-12)
        got = weights_from_ordered(SimplexPoint(theta))
        np.testing.assert_allclose(got.probs, expect, atol=1e-12)

    def test_uniform_maps_to_last_corner(self):
        k1 = 6
        om = weights_from_ordered(SimplexPoint(np.full(k1, 1 / k1)))
        expect = np.zeros(k1)
        expect[-1] = 1.0
        np.testing.assert_allclose(om.probs, expect, atol=1e-14)

    def test_ordering_violation_reports_first_index(self):
        with pytest.raises(ValueError, match="index 1"):
            weights_from_ordered(SimplexPoint(np.array([0.3, 0.4, 0.3])))

    def test_round_trip_many_dimensions(self, rng):
        for _ in range(50):
            k1 = int(rng.integers(2, 22))
            om = random_simplex(rng, k1, 20)
            for row in om:
                theta = ordered_from_weights(SimplexPoint(row))
                back = weights_from_ordered(theta)
                np.testing.assert_allclose(back.probs, row, atol=1e-12)

    def test_forward_output_always_in_cone(self, rng):
        cone_checked = 0
        for k1 in (2, 7, 15):
            om = random_simplex(rng, k1, 200)
            cone = OrderedCone(dim=k1)
            for row in om:
                theta = ordered_from_weights(SimplexPoint(row))
                assert region_contains(cone, theta)
                cone_checked += 1
        assert cone_checked == 600


class TestZipfMandelbrot:
    def test_beta_zero_is_uniform(self):
        for alpha in (-0.5, 0.0, 3.0):
            p = zm_distribution(ZmParams(alpha, 0.0), k=4)
            np.testing.assert_allclose(p.probs, 0.2, atol=1e-15)

    def test_hand_evaluated_case(self):
        # alpha=0, beta=1, k=2: weights 1, 1/2, 1/3 normalize by 11/6
        p = zm_distribution(ZmParams(0.0, 1.0), k=2)
        np.testing.assert_allclose(p.probs, [6 / 11, 3 / 11, 2 / 11], atol=1e-14)

    def test_large_alpha_approaches_uniform(self):
        p = zm_distribution(ZmParams(1e8, 2.0), k=3)
        np.testing.assert_allclose(p.probs, 0.25, atol=1e-6)

    def test_strictly_decreasing_iff_beta_positive(self, rng):
        for _ in range(20):
            alpha = float(rng.uniform(-0.9, 5.0))
            beta = float(rng.uniform(0.05, 8.0))
            p = zm_distribution(ZmParams(alpha, beta), k=6).probs
            assert np.all(np.diff(p) < 0)
        p0 = zm_distribution(ZmParams(2.0, 0.0), k=6).probs
        assert np.all(np.diff(p0) == 0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            zm_distribution(ZmParams(0.0, 1.0), k=0)


class TestKlDivergence:
    def test_identity_is_zero(self, rng):
        for _ in range(10):
            p = SimplexPoint(random_simplex(rng, 5)[0])
            assert kl_divergence(p, p) == 0.0

    def test_hand_value(self):
        v = kl_divergence(SimplexPoint(np.array([1.0, 0.0])),
                          SimplexPoint(np.array([0.5, 0.5])))
        assert v == pytest.approx(math.log(2), abs=1e-14)

    def test_support_mismatch_is_inf(self):
        v = kl_divergence(SimplexPoint(np.array([0.5, 0.5])),
                          SimplexPoint(np.array([1.0, 0.0])))
        assert v == math.inf

    def test_nonnegative_zero_only_at_equality(self, rng):
        for _ in range(200):
            p = random_simplex(rng, 4)[0]
            q = random_simplex(rng, 4)[0]
            v = kl_divergence(SimplexPoint(p), SimplexPoint(q))
            assert v >= 0
            assert v > 0  # distinct random pairs almost surely

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(SimplexPoint(np.array([0.5, 0.5])),
                          SimplexPoint(np.array([0.3, 0.3, 0.4])))


class TestTrineGeometry:
    def test_prior_mass_values(self):
        assert trine_prior_mass(1 / 3) == pytest.approx(0.6046, abs=5e-5)
        assert trine_prior_mass(0.48445) == pytest.approx(0.2684, abs=5e-5)

    def test_prior_mass_vanishes_at_half(self):
        assert trine_prior_mass(0.4999999) < 1e-3

    def test_prior_mass_domain(self):
        for a in (0.0, 0.5, -0.2, 1.0):
            with pytest.raises(ValueError):
                trine_prior_mass(a)

    def test_prior_mass_matches_monte_carlo(self, rng):
        # independent geometric validation: flat draws on the 2-simplex
        n = 1_000_000
        th = random_simplex(rng, 3, n)
        region = TrineEllipse(1 / 3)
        hit = region.contains_array(th).mean()
        mass = trine_prior_mass(1 / 3)
        se = math.sqrt(mass * (1 - mass) / n)
        assert abs(hit - mass) < 3 * se


class TestRegions:
    def test_trine_center_inside(self):
        region = TrineEllipse(1 / 3)
        assert region_contains(region, SimplexPoint(np.array([1 / 3, 1 / 3, 1 / 3])))

    def test_trine_corner_outside(self):
        region = TrineEllipse(1 / 3)
        assert not region_contains(region, SimplexPoint(np.array([1.0, 0.0, 0.0])))

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
        assert region_contains(cone, SimplexPoint(np.array([0.4, 0.3, 0.2, 0.1])))
        assert not region_contains(cone, SimplexPoint(np.array([0.3, 0.4, 0.2, 0.1])))
        # ties are inside the closed cone
        assert region_contains(cone, SimplexPoint(np.array([0.3, 0.3, 0.2, 0.2])))

    def test_crosshairs_membership(self):
        region = crosshairs_region()
        good = SimplexPoint(np.array([0.3, 0.2, 0.26, 0.24]))
        assert region_contains(region, good)
        bad_sum = SimplexPoint(np.array([0.4, 0.2, 0.2, 0.2]))
        assert not region_contains(region, bad_sum)
        too_far = SimplexPoint(np.array([0.5, 0.0, 0.5, 0.0]))
        assert not region_contains(region, too_far)

    def test_pauli_membership(self):
        region = pauli_region()
        third = 1 / 3
        uniform = SimplexPoint(np.full(6, 1 / 6))
        assert region_contains(region, uniform)
        skew = SimplexPoint(np.array([third, 0.0, third, 0.0, third, 0.0]))
        assert not region_contains(region, skew)  # sum of squares 1/3 > 2/9

    def test_tetrahedron_membership(self):
        region = tetrahedron_region()
        assert region_contains(region, SimplexPoint(np.full(4, 0.25)))
        assert not region_contains(region, SimplexPoint(np.array([0.7, 0.1, 0.1, 0.1])))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            region_contains(TrineEllipse(1 / 3), SimplexPoint(np.full(4, 0.25)))

    def test_quadball_validation(self):
        with pytest.raises(ValueError):
            QuadBall(dim=3, bound=0.0)
        with pytest.raises(ValueError):
            QuadBall(dim=3, bound=0.5, equalities=(((0, 5), 0.5),))


class TestMultinomialPmf:
    def test_single_trial(self):
        theta = SimplexPoint(np.array([0.2, 0.5, 0.3]))
        for i in range(3):
            t = np.zeros(3, dtype=int)
            t[i] = 1
            v = log_multinomial_pmf(CountVector(t), theta)
            assert v == pytest.approx(math.log(theta.probs[i]), abs=1e-12)

    def test_hand_value(self):
        v = log_multinomial_pmf(CountVector(np.array([2, 0])),
                                SimplexPoint(np.array([0.5, 0.5])))
        assert v == pytest.approx(math.log(0.25), abs=1e-12)

    def test_zero_prob_positive_count_is_minus_inf(self):
        v = log_multinomial_pmf(CountVector(np.array([1, 1])),
                                SimplexPoint(np.array([1.0, 0.0])))
        assert v == -math.inf

    def test_normalizes_by_enumeration(self):
        from conmult.consistency import enumerate_lattice
        from conmult.core import log_multinomial_pmf_array

        rng = np.random.default_rng(17)
        for k in (1, 2, 3):
            theta = rng.dirichlet(np.ones(k + 1))
            for n in (3, 11, 20):
                lattice = enumerate_lattice(k, n)
                total = np.exp(log_multinomial_pmf_array(lattice, theta)).sum()
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_large_counts_no_overflow(self):
        t = CountVector(np.array([3416, 1912, 1748]))
        theta = SimplexPoint(np.array([0.48, 0.27, 0.25]))
        v = log_multinomial_pmf(t, theta)
        assert np.isfinite(v)


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
