import tracemalloc

import mpmath
import numpy as np
import pytest

import conmult.elicitation as elicitation
from conmult.core import SimplexPoint, ordered_from_weights_array, weights_from_ordered_array
from conmult.elicitation import (
    VC_NODES,
    ElicitationInput,
    _certainty_table,
    _exact_certainty,
    _spacing_law,
    dirichlet_from_mode,
    elicit_ordered_prior,
    equispaced_mode,
    find_tau_result,
)
from conmult.sampling import RngStream, sample_dirichlet_array


def certainty(inp, tau, n_nodes=2 * VC_NODES):
    """(P(theta_{k+1} > l, theta_1 < u), certificate) at tau, as the search evaluates it."""
    alphas = 1.0 + tau * inp.mode[1].probs
    return _exact_certainty(alphas[-1], _certainty_table(inp, n_nodes, alphas))


def drawn_certainty(inp, tau, n_draws=400_000, seed=4321, chunk=100_000):
    """The same probability and its binomial se from numpy's own Dirichlet draws."""
    gen = np.random.default_rng(seed)
    alphas = 1.0 + tau * inp.mode[1].probs
    cells = np.arange(1.0, inp.k + 2)
    hits = 0
    for _ in range(n_draws // chunk):
        om = gen.dirichlet(alphas, chunk)
        hits += np.count_nonzero((om[:, -1] / cells[-1] > inp.l) & (om @ (1.0 / cells) < inp.u))
    p = hits / n_draws
    return p, np.sqrt(p * (1.0 - p) / n_draws)


class TestEquispacedMode:
    def test_zero_spacing_is_uniform(self):
        theta, xi = equispaced_mode(4, 0.0)
        np.testing.assert_allclose(theta.probs, 0.2, atol=1e-15)
        np.testing.assert_allclose(xi.probs, [0, 0, 0, 0, 1], atol=1e-15)

    def test_maximal_spacing_case(self):
        k = 17
        theta, xi = equispaced_mode(k, 2.0 / (k * (k + 1)))
        assert theta.probs[0] == pytest.approx(1 / 9, abs=1e-12)
        assert xi.probs[-1] == pytest.approx(0.0, abs=1e-12)

    def test_consistent_with_weight_bijection(self):
        for k, delta in [(3, 0.05), (17, 2 / 306), (9, 0.0), (5, 0.02)]:
            theta, xi = equispaced_mode(k, delta)
            np.testing.assert_allclose(
                ordered_from_weights_array(xi.probs), theta.probs, atol=1e-12
            )
            np.testing.assert_allclose(
                weights_from_ordered_array(theta.probs), xi.probs, atol=1e-12
            )

    def test_spacing_is_exact(self):
        theta, _ = equispaced_mode(6, 0.01)
        np.testing.assert_allclose(np.diff(theta.probs), -0.01, atol=1e-14)

    def test_out_of_range_delta(self):
        with pytest.raises(ValueError):
            equispaced_mode(4, 0.2)


class TestDirichletFromMode:
    def test_uniform_mode_parameters(self):
        _, xi = equispaced_mode(5, 0.0)
        params = dirichlet_from_mode(xi, 7.0)
        np.testing.assert_allclose(params.alphas, [1, 1, 1, 1, 1, 8], atol=1e-12)

    def test_small_tau_near_flat(self):
        _, xi = equispaced_mode(5, 0.01)
        params = dirichlet_from_mode(xi, 1e-9)
        np.testing.assert_allclose(params.alphas, 1.0, atol=1e-9)

    def test_maximal_spacing_parameters(self):
        k, tau = 17, 3.0
        _, xi = equispaced_mode(k, 2.0 / (k * (k + 1)))
        params = dirichlet_from_mode(xi, tau)
        expect = 1.0 + tau * 2.0 * np.arange(1, 19) / (k * (k + 1))
        expect[-1] = 1.0
        np.testing.assert_allclose(params.alphas, expect, atol=1e-12)

    def test_empirical_mode_recovers_xi(self):
        # histogram-peak estimate per coordinate at strong concentration
        xi = SimplexPoint(np.array([0.4, 0.3, 0.2, 0.1]))
        params = dirichlet_from_mode(xi, 50.0)
        draws = sample_dirichlet_array(params, 1_000_000, RngStream(200))
        for j in range(4):
            hist, edges = np.histogram(draws[:, j], bins=150, range=(0, 1))
            peak = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
            assert abs(peak - xi.probs[j]) < 0.02

    def test_rejects_nonpositive_tau(self):
        _, xi = equispaced_mode(3, 0.0)
        with pytest.raises(ValueError):
            dirichlet_from_mode(xi, 0.0)


class TestFindTau:
    def test_mode_outside_interval_rejected(self):
        inp = ElicitationInput(k=4, delta=0.0, l=0.3, u=0.9, gamma=0.9)
        # uniform mode has theta_5 = 0.2 < l = 0.3
        with pytest.raises(ValueError, match="gamma"):
            find_tau_result(inp, 2000, RngStream(201)).tau

    def test_achieved_probability_contract(self):
        inp = ElicitationInput(k=5, delta=0.0, l=0.05, u=0.5, gamma=0.95)
        res = find_tau_result(inp, 20_000, RngStream(202))
        assert res.achieved >= inp.gamma
        assert res.achieved - inp.gamma <= 3 * res.mc_se + 1e-3

    def test_trace_monotone_in_tau_up_to_noise(self):
        inp = ElicitationInput(k=5, delta=0.0, l=0.05, u=0.5, gamma=0.95)
        res = find_tau_result(inp, 20_000, RngStream(203))
        pts = sorted(res.trace)
        for (t1, p1), (t2, p2) in zip(pts, pts[1:]):
            assert p2 >= p1 - 2 * res.mc_se

    @pytest.mark.parametrize("delta, l, u", [(0.0, 0.05, 0.5), (0.05, 0.02, 0.6)])
    def test_probability_tends_to_one(self, delta, l, u):
        inp = ElicitationInput(k=5, delta=delta, l=l, u=u, gamma=0.95)
        ps = [certainty(inp, tau)[0] for tau in (1.0, 10.0, 100.0, 1000.0)]
        assert ps[-1] > 0.999
        assert ps == sorted(ps)

    def test_quasi_deterministic(self):
        inp = ElicitationInput(k=4, delta=0.0, l=0.02, u=0.6, gamma=0.9)
        a = find_tau_result(inp, 5000, RngStream(204)).tau
        b = find_tau_result(inp, 5000, RngStream(204)).tau
        assert a == b

    def test_each_tau_evaluated_once(self):
        # the achieved probability is the one found when tau was last accepted,
        # and equals a fresh evaluation at tau
        inp = ElicitationInput(k=4, delta=0.02, l=0.02, u=0.6, gamma=0.9)
        res = find_tau_result(inp, 5000, RngStream(206))
        taus = [t for t, _ in res.trace]
        assert len(set(taus)) == len(taus)
        assert dict(res.trace)[res.tau] == res.achieved == certainty(inp, res.tau)[0]

    @pytest.mark.parametrize("k, delta, l, u, gamma", [
        (17, 0.0, 0.0, 0.9, 0.9),
        (5, 0.05, 0.0, 0.95, 0.99),
    ])
    def test_refuses_when_the_flat_prior_suffices(self, k, delta, l, u, gamma):
        # gamma holds at tau = 0 already, so no concentration is the least one
        inp = ElicitationInput(k=k, delta=delta, l=l, u=u, gamma=gamma)
        p_flat = certainty(inp, 0.0)[0]
        assert p_flat >= gamma
        with pytest.raises(ValueError, match=f"tau = 0.*{p_flat:.6g}"):
            find_tau_result(inp, 1000, RngStream(1))

    def test_elicit_returns_prior_params(self):
        inp = ElicitationInput(k=4, delta=0.0, l=0.02, u=0.6, gamma=0.9)
        params, res = elicit_ordered_prior(inp)
        np.testing.assert_allclose(params.alphas[:-1], 1.0, atol=1e-12)
        assert params.alphas[-1] == pytest.approx(1.0 + res.tau)


def mp_virtual_certainty(tau, k, l, u, dps=60):
    """P(theta_{k+1} > l, theta_1 < u) at delta = 0 from the divided-difference form of F_S.

    F_S(s) = 1 - sum_j (c_j - s)_+^m / prod_{i != j} (c_j - c_i), knots c_j = 1/j,
    j < K = k + 1, m = K - 2; it cancels catastrophically in float64, so it runs at
    ``dps`` digits, under mpmath's quadrature split at the knot crossings.
    """
    with mpmath.workdps(dps):
        k1, tau, l, u = k + 1, mpmath.mpf(tau), mpmath.mpf(l), mpmath.mpf(u)
        knots = [mpmath.mpf(1) / j for j in range(1, k1)]
        den = [mpmath.fprod(c - d for d in knots if d != c) for c in knots]

        def cdf(s):
            if k1 == 2:
                return mpmath.mpf(s > 1)
            return 1 - mpmath.fsum((c - s) ** (k1 - 2) / d for c, d in zip(knots, den) if c > s)

        log_beta = mpmath.loggamma(1 + tau) + mpmath.loggamma(k1 - 1) - mpmath.loggamma(k1 + tau)

        def f(w):
            return (mpmath.exp(tau * mpmath.log(w) + (k1 - 2) * mpmath.log1p(-w) - log_beta)
                    * cdf((u - w / k1) / (1 - w)))

        a = k1 * l
        cross = [(c - u) / (c - mpmath.mpf(1) / k1) for c in knots]
        return float(mpmath.quad(f, sorted({a, mpmath.mpf(1)} | {w for w in cross if a < w < 1})))


class TestExactVirtualCertainty:
    """The probability by quadrature on the characteristic-function law of S, and tau without draws."""

    FLY = ElicitationInput(k=17, delta=0.0, l=1 / 450, u=0.5, gamma=0.99)

    @pytest.mark.parametrize("tau", [1.0, 2.8, 3.0])
    def test_fly_setting_matches_the_mpmath_oracle(self, tau):
        assert certainty(self.FLY, tau)[0] == pytest.approx(
            mp_virtual_certainty(tau, 17, 1 / 450, 0.5), abs=1e-9)

    @pytest.mark.parametrize("k, l, u, tau", [
        (17, 0.0, 0.2, 0.3),  # l = 0: the w^tau end at 0
        (17, 0.0, 0.2, 500.0),  # the Beta law piled up at w = 1
        (5, 0.02, 0.6, 7.0),  # u below the knot 1: pieces between crossings
        (2, 0.1, 0.6, 2.0),  # S uniform on [1/2, 1]
        (1, 0.1, 0.95, 200.0),  # S = 1
    ])
    def test_other_settings_match_the_mpmath_oracle(self, k, l, u, tau):
        inp = ElicitationInput(k=k, delta=0.0, l=l, u=u, gamma=0.9)
        assert certainty(inp, tau)[0] == pytest.approx(
            mp_virtual_certainty(tau, k, l, u, dps=30), abs=1e-12)

    # the delta > 0 settings: ROADMAP's k = 17 case, the maximal spacing of
    # acceptance criterion 5, and a five-cell prior far from flat
    SPACED = [ElicitationInput(k=17, delta=0.004, l=0.002222, u=0.5, gamma=0.99),
              ElicitationInput(k=17, delta=2.0 / 306.0, l=0.0, u=0.25, gamma=0.99),
              ElicitationInput(k=5, delta=0.05, l=0.02, u=0.6, gamma=0.9)]

    @pytest.mark.parametrize("inp, tau", [(FLY, 1.0), (FLY, 2.8), (SPACED[0], 8.6365),
                                          (SPACED[1], 16.5158), (SPACED[2], 3.0),
                                          (SPACED[2], 15.7979)],
                             ids=["fly-1.0", "fly-2.8", "k17-8.6365", "maximal-16.5158",
                                  "k5-3.0", "k5-15.7979"])
    def test_agrees_with_monte_carlo(self, inp, tau):
        exact, cert = certainty(inp, tau)
        drawn, se = drawn_certainty(inp, tau)
        assert cert < 1e-12
        assert abs(drawn - exact) < 4 * se

    @pytest.mark.parametrize("inp, tau", [(SPACED[0], 8.636505), (SPACED[1], 16.515793),
                                          (SPACED[2], 15.797882)], ids=["k17", "maximal", "k5"])
    def test_spaced_tau_is_exact(self, inp, tau):
        res = find_tau_result(inp, 10_000, RngStream(3))
        assert res.tau == pytest.approx(tau, abs=1e-4)
        assert 0.0 <= res.achieved - inp.gamma < 1e-6 and res.mc_se < 1e-12

    @pytest.mark.parametrize("inp", [FLY, SPACED[0], SPACED[2],
                                     ElicitationInput(k=2, delta=0.0, l=0.1, u=0.6, gamma=0.9)],
                             ids=["fly", "k17", "k5", "three-cells"])
    def test_certificate_covers_the_doubled_rules(self, monkeypatch, inp):
        # twice the Gauss-Legendre nodes in w and twice the trapezoid points in v
        res = find_tau_result(inp, 1000, RngStream(1))
        monkeypatch.setattr(elicitation, "V_STEP", elicitation.V_STEP / 2)
        doubled = certainty(inp, res.tau, 4 * VC_NODES)[0]
        assert abs(doubled - res.achieved) <= res.mc_se

    def test_degenerate_spacing_laws(self):
        s = np.linspace(0.0, 1.5, 301)
        cdf, cert = _spacing_law(s, np.ones(1))
        np.testing.assert_array_equal(cdf, (s >= 1.0).astype(float))
        np.testing.assert_array_equal(cert, 0.0)
        cdf, cert = _spacing_law(s, np.ones(2))
        np.testing.assert_allclose(cdf, np.clip(2.0 * s - 1.0, 0.0, 1.0), atol=1e-15)
        assert cert.max() < 1e-13

    @pytest.mark.parametrize("alphas", [[2.3, 1.7], [1.0, 7.5], [40.2, 3.1]])
    def test_two_cells_follow_the_incomplete_beta(self, alphas):
        # S = 1/2 + phi_1 / 2 with phi_1 ~ Beta(alpha_1, alpha_2): any alpha, in closed form
        from scipy.special import betainc

        s = np.linspace(0.0, 1.5, 301)
        cdf, cert = _spacing_law(s, np.array(alphas))
        np.testing.assert_allclose(cdf, betainc(*alphas, np.clip(2.0 * s - 1.0, 0.0, 1.0)),
                                   rtol=0.0, atol=1e-14)
        assert cert.max() < 1e-13

    def test_spacing_cdf_of_eighteen_cells(self):
        s = np.linspace(0.05, 1.0, 40)
        knots = [mpmath.mpf(1) / j for j in range(1, 18)]
        with mpmath.workdps(60):
            den = [mpmath.fprod(c - d for d in knots if d != c) for c in knots]
            ref = [float(1 - mpmath.fsum((c - mpmath.mpf(x)) ** 16 / d
                                          for c, d in zip(knots, den) if c > x)) for x in s]
        cdf, cert = _spacing_law(s, np.ones(17))
        np.testing.assert_allclose(cdf, ref, atol=1e-13)
        assert cert.max() < 1e-13

    @pytest.mark.parametrize("l, tau", [(1 / 450, 2.8270359), (0.002222, 2.8268433)])
    def test_fly_tau_is_exact_and_seed_free(self, l, tau):
        inp = ElicitationInput(k=17, delta=0.0, l=l, u=0.5, gamma=0.99)
        res = find_tau_result(inp, 10, RngStream(1))
        assert res == find_tau_result(inp, 40_000, RngStream(2))
        assert res.tau == pytest.approx(tau, abs=2e-6)
        assert 0.0 <= res.achieved - inp.gamma < 1e-6 and res.mc_se < 1e-12
        assert len(res.trace) == 23  # tau = 1, 2, 4, then 20 bisections

    @pytest.mark.parametrize("delta", [0.0, 0.01])
    def test_draws_nothing(self, monkeypatch, delta):
        import conmult.sampling as sampling

        def no_draws(*args, **kwargs):
            raise AssertionError("the search drew samples")

        monkeypatch.setattr(sampling, "sample_dirichlet_array", no_draws)
        monkeypatch.setattr(RngStream, "substream", no_draws)
        monkeypatch.setattr(RngStream, "generator", no_draws)
        inp = ElicitationInput(k=5, delta=delta, l=0.02, u=0.6, gamma=0.9)
        find_tau_result(inp, 1000, RngStream(1))

    def test_many_cells_in_small_memory(self):
        # 101 cells: F_S's (s, v) arrays are blocked, so the search stays small
        inp = ElicitationInput(k=100, delta=0.0, l=0.002, u=0.05, gamma=0.99)
        tracemalloc.start()
        try:
            res = find_tau_result(inp, 1000, RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert res.tau == pytest.approx(98.88196, abs=1e-4)
        assert 0.0 <= res.achieved - inp.gamma < 1e-6 and res.mc_se < 1e-12


class TestElicitationInput:
    def test_validation(self):
        with pytest.raises(ValueError):
            ElicitationInput(k=0, delta=0.0, l=0.0, u=0.5, gamma=0.99)
        with pytest.raises(ValueError):
            ElicitationInput(k=4, delta=0.5, l=0.0, u=0.5, gamma=0.99)
        with pytest.raises(ValueError):
            ElicitationInput(k=4, delta=0.0, l=0.5, u=0.4, gamma=0.99)
        with pytest.raises(ValueError):
            ElicitationInput(k=4, delta=0.0, l=0.0, u=0.5, gamma=1.0)
