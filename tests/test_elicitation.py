import numpy as np
import pytest

from conmult.core import SimplexPoint, ordered_from_weights, weights_from_ordered
from conmult.elicitation import (
    ElicitationInput,
    dirichlet_from_mode,
    elicit_ordered_prior,
    equispaced_mode,
    find_tau_result,
)
from conmult.sampling import RngStream, sample_dirichlet_array


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
                ordered_from_weights(xi).probs, theta.probs, atol=1e-12
            )
            np.testing.assert_allclose(
                weights_from_ordered(theta).probs, xi.probs, atol=1e-12
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

        inp = ElicitationInput(k=4, delta=0.0, l=0.02, u=0.6, gamma=0.9)
        rng = RngStream(206)
        res = find_tau_result(inp, 5000, rng)
        taus = [t for t, _ in res.trace]
        assert len(set(taus)) == len(taus)
        assert dict(res.trace)[res.tau] == res.achieved
        _, xi = equispaced_mode(4, 0.0)
        assert res.achieved == _virtual_certainty(res.tau, xi, inp,
                                                  rng.substream(0).stream_id, 5000)

    def test_elicit_returns_prior_params(self):
        inp = ElicitationInput(k=4, delta=0.0, l=0.02, u=0.6, gamma=0.9)
        params, res = elicit_ordered_prior(inp, 5000, RngStream(205))
        np.testing.assert_allclose(params.alphas[:-1], 1.0, atol=1e-12)
        assert params.alphas[-1] == pytest.approx(1.0 + res.tau)


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
