import mpmath
import numpy as np
import pytest

from conmult.core import (
    DirichletParams,
    SimplexPoint,
    ordered_from_weights_array,
    weights_from_ordered_array,
)
from conmult.elicitation import (
    VC_NODES,
    ElicitationInput,
    _certainty_table,
    _exact_certainty,
    _spacing_cdf,
    dirichlet_from_mode,
    elicit_ordered_prior,
    equispaced_mode,
    find_tau_result,
)
from conmult.sampling import RngStream, sample_dirichlet_array, sample_ordered_prior_array

from conftest import same_bits


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

    def test_probability_tends_to_one(self):
        inp = ElicitationInput(k=5, delta=0.0, l=0.05, u=0.5, gamma=0.95)
        from conmult.elicitation import _virtual_certainty, equispaced_mode

        _, xi = equispaced_mode(5, 0.0)
        ps = [_virtual_certainty(tau, xi, inp, seed=7, n_draws=20_000)
              for tau in (1.0, 10.0, 100.0, 1000.0)]
        assert ps[-1] > 0.999
        assert ps == sorted(ps)

    def test_quasi_deterministic(self):
        inp = ElicitationInput(k=4, delta=0.0, l=0.02, u=0.6, gamma=0.9)
        a = find_tau_result(inp, 5000, RngStream(204)).tau
        b = find_tau_result(inp, 5000, RngStream(204)).tau
        assert a == b

    def test_each_tau_evaluated_once(self):
        # the achieved probability is the one found when tau was last accepted,
        # and equals a fresh evaluation at tau on the same stream
        from conmult.elicitation import _virtual_certainty

        inp = ElicitationInput(k=4, delta=0.02, l=0.02, u=0.6, gamma=0.9)
        rng = RngStream(206)
        res = find_tau_result(inp, 5000, rng)
        taus = [t for t, _ in res.trace]
        assert len(set(taus)) == len(taus)
        assert dict(res.trace)[res.tau] == res.achieved
        _, xi = equispaced_mode(4, 0.02)
        assert res.achieved == _virtual_certainty(res.tau, xi, inp,
                                                  rng.substream(0).stream_id, 5000)

    # delta = 0.01 exceeds the k = 17 spacing range [0, 2 / (17 * 18)], so 0.005 stands in
    # there; delta = 0 takes no draws (TestExactVirtualCertainty)
    @pytest.mark.parametrize("k, delta", [(1, 0.01), (1, 0.5), (3, 0.01), (3, 0.05),
                                          (17, 0.001), (17, 0.005)])
    def test_search_equals_one_on_the_whole_ordered_map(self, monkeypatch, k, delta):
        # only theta_1 and theta_{k+1} are computed, with the bits of the full map, so
        # every evaluation of the search is unchanged
        import conmult.elicitation as elicitation

        om = sample_dirichlet_array(DirichletParams(np.geomspace(0.05, 20.0, k + 1)), 4000,
                                    RngStream(k))
        full = ordered_from_weights_array(om)
        assert same_bits(elicitation._end_coordinates(om), [full[:, 0], full[:, -1]])

        def whole_map(tau, xi, inp, seed, n_draws):
            th = sample_ordered_prior_array(dirichlet_from_mode(xi, tau), n_draws,
                                            RngStream(seed))
            return float(np.mean((th[:, -1] > inp.l) & (th[:, 0] < inp.u)))

        inp = ElicitationInput(k=k, delta=delta, l=0.002, u=0.8, gamma=0.9)
        res = find_tau_result(inp, 3000, RngStream(207))
        monkeypatch.setattr(elicitation, "_virtual_certainty", whole_map)
        assert find_tau_result(inp, 3000, RngStream(207)) == res
        assert len(res.trace) > 20

    def test_elicit_returns_prior_params(self):
        inp = ElicitationInput(k=4, delta=0.0, l=0.02, u=0.6, gamma=0.9)
        params, res = elicit_ordered_prior(inp, 5000, RngStream(205))
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
    """delta = 0: the probability by quadrature on the B-spline law of S, and tau without draws."""

    FLY = ElicitationInput(k=17, delta=0.0, l=1 / 450, u=0.5, gamma=0.99)

    @pytest.mark.parametrize("tau", [1.0, 2.8, 3.0])
    def test_fly_setting_matches_the_mpmath_oracle(self, tau):
        table = _certainty_table(self.FLY, 2 * VC_NODES)
        assert _exact_certainty(tau, table, 18) == pytest.approx(
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
        table = _certainty_table(inp, 2 * VC_NODES)
        assert _exact_certainty(tau, table, k + 1) == pytest.approx(
            mp_virtual_certainty(tau, k, l, u, dps=30), abs=1e-12)

    @pytest.mark.parametrize("tau", [1.0, 2.8])
    def test_agrees_with_monte_carlo(self, tau):
        from conmult.elicitation import _virtual_certainty

        table = _certainty_table(self.FLY, 2 * VC_NODES)
        exact = _exact_certainty(tau, table, 18)
        mc = _virtual_certainty(tau, self.FLY.mode[1], self.FLY, 4321, 400_000)
        assert abs(mc - exact) < 4 * np.sqrt(exact * (1 - exact) / 400_000)

    def test_degenerate_spacing_laws(self):
        s = np.linspace(0.0, 1.5, 301)
        np.testing.assert_array_equal(_spacing_cdf(s, 2), (s >= 1.0).astype(float))
        np.testing.assert_allclose(_spacing_cdf(s, 3), np.clip(2.0 * s - 1.0, 0.0, 1.0),
                                   atol=1e-15)

    def test_spacing_cdf_of_eighteen_cells(self):
        s = np.linspace(0.05, 1.0, 40)
        knots = [mpmath.mpf(1) / j for j in range(1, 18)]
        with mpmath.workdps(60):
            den = [mpmath.fprod(c - d for d in knots if d != c) for c in knots]
            ref = [float(1 - mpmath.fsum((c - mpmath.mpf(x)) ** 16 / d
                                          for c, d in zip(knots, den) if c > x)) for x in s]
        np.testing.assert_allclose(_spacing_cdf(s, 18), ref, atol=1e-13)

    @pytest.mark.parametrize("l, tau", [(1 / 450, 2.8270359), (0.002222, 2.8268433)])
    def test_fly_tau_is_exact_and_seed_free(self, l, tau):
        inp = ElicitationInput(k=17, delta=0.0, l=l, u=0.5, gamma=0.99)
        res = find_tau_result(inp, 10, RngStream(1))
        assert res == find_tau_result(inp, 40_000, RngStream(2))
        assert res.method == "exact" and res.tau == pytest.approx(tau, abs=2e-6)
        assert 0.0 <= res.achieved - inp.gamma < 1e-6 and res.mc_se < 1e-12
        assert len(res.trace) == 23  # tau = 1, 2, 4, then 20 bisections

    def test_delta_zero_draws_nothing(self, monkeypatch):
        import conmult.elicitation as elicitation

        def no_draws(*args, **kwargs):
            raise AssertionError("the delta = 0 search drew samples")

        monkeypatch.setattr(elicitation, "sample_dirichlet_array", no_draws)
        monkeypatch.setattr(RngStream, "substream", no_draws)
        assert find_tau_result(self.FLY, 1000, RngStream(1)).method == "exact"

    def test_still_refuses_no_draws(self):
        with pytest.raises(ValueError, match="at least one draw"):
            find_tau_result(self.FLY, 0, RngStream(1))

    def test_positive_delta_keeps_monte_carlo(self, monkeypatch):
        import conmult.elicitation as elicitation

        calls = []
        real = elicitation._virtual_certainty

        def spy(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(elicitation, "_virtual_certainty", spy)
        inp = ElicitationInput(k=5, delta=0.01, l=0.02, u=0.6, gamma=0.9)
        res = find_tau_result(inp, 2000, RngStream(3))
        assert res.method == "monte_carlo" and calls == [t for t, _ in res.trace]
        assert res.mc_se == pytest.approx(np.sqrt(res.achieved * (1 - res.achieved) / 2000))


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
