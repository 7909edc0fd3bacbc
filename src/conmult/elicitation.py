"""Prior elicitation for ordered probabilities.

The investigator supplies an equispaced decreasing mode (spacing delta), an
interval (l, u) that should contain all cell probabilities with virtual
certainty gamma, and the search returns the least concentration achieving it.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import DirichletParams, SimplexPoint
from .sampling import RngStream, sample_ordered_prior_array


@dataclass(frozen=True)
class ElicitationInput:
    k: int
    delta: float
    l: float
    u: float
    gamma: float
    mode: tuple = field(init=False, repr=False, compare=False)  # equispaced_mode(k, delta)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "mode", equispaced_mode(self.k, self.delta))
        if not (0 <= self.l < self.u <= 1):
            raise ValueError(f"need 0 <= l < u <= 1, got ({self.l}, {self.u})")
        if not (0 < self.gamma < 1):
            raise ValueError("gamma must be in (0, 1)")


def equispaced_mode(k: int, delta: float):
    """Decreasing equispaced mode and its weight-space image.

    theta*_i = theta*_1 - (i-1) delta with theta*_1 = k delta / 2 + 1/(k+1);
    the corresponding weights are xi_i = i delta for i <= k and
    xi_{k+1} = 1 - k (k+1) delta / 2.
    """
    dmax = 2.0 / (k * (k + 1))
    if not (0 <= delta <= dmax):
        raise ValueError(f"delta must lie in [0, {dmax}], got {delta}")
    theta1 = k * delta / 2.0 + 1.0 / (k + 1)
    theta = np.clip(theta1 - delta * np.arange(k + 1), 0.0, None)
    xi = np.concatenate([delta * np.arange(1, k + 1), [1.0 - k * (k + 1) * delta / 2.0]])
    xi = np.clip(xi, 0.0, None)
    return SimplexPoint(theta), SimplexPoint(xi / xi.sum())


def dirichlet_from_mode(xi: SimplexPoint, tau: float) -> DirichletParams:
    """Dirichlet with mode xi under the concentration parameterization."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return DirichletParams(1.0 + tau * xi.probs)


@dataclass(frozen=True)
class TauSearchResult:
    tau: float
    achieved: float
    mc_se: float
    trace: tuple  # (tau, achieved) pairs in evaluation order


def _virtual_certainty(tau, xi, inp, seed, n_draws):
    th = sample_ordered_prior_array(dirichlet_from_mode(xi, tau), n_draws, RngStream(seed))
    return float(np.mean((th[:, -1] > inp.l) & (th[:, 0] < inp.u)))


def find_tau_result(inp: ElicitationInput, n_draws: int, rng: RngStream) -> TauSearchResult:
    """Smallest concentration giving the (l, u) event probability at least gamma.

    Geometric bracket expansion from tau = 1 followed by bisection; every
    evaluation reuses the same seed (common random numbers), so the probability
    found at the returned upper bracket end is its achieved value, within one
    Monte Carlo standard error above gamma.
    """
    if n_draws < 1:
        raise ValueError(f"need at least one draw, got {n_draws}")
    theta_star, xi_sp = inp.mode
    ts = theta_star.probs
    # l = 0 is always admissible: the event theta_{k+1} > 0 holds almost surely
    lower_ok = inp.l == 0.0 or inp.l < ts[-1]
    if not (lower_ok and ts[0] < inp.u):
        raise ValueError(
            "elicited mode lies outside the virtual-certainty interval: "
            f"need l < {ts[-1]:.6g} and {ts[0]:.6g} < u, got (l, u) = ({inp.l}, {inp.u}); "
            "no concentration can achieve gamma"
        )
    seed = rng.substream(0).stream_id
    trace = []

    def evaluate(tau):
        p = _virtual_certainty(tau, xi_sp, inp, seed, n_draws)
        trace.append((tau, p))
        return p

    lo, hi = 0.0, 1.0
    p_hi = evaluate(hi)
    while p_hi < inp.gamma:
        lo, hi = hi, hi * 2.0
        if hi > 1e9:
            raise RuntimeError("virtual-certainty search failed to bracket gamma")
        p_hi = evaluate(hi)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        p_mid = evaluate(mid)
        if p_mid >= inp.gamma:
            hi, p_hi = mid, p_mid
        else:
            lo = mid
    se = np.sqrt(max(p_hi * (1 - p_hi), 1e-12) / n_draws)
    return TauSearchResult(tau=float(hi), achieved=p_hi, mc_se=float(se),
                           trace=tuple(trace))


def elicit_ordered_prior(inp: ElicitationInput, n_draws: int, rng: RngStream):
    """Full elicitation: returns (omega Dirichlet params, tau search result)."""
    res = find_tau_result(inp, n_draws, rng)
    return dirichlet_from_mode(inp.mode[1], res.tau), res
