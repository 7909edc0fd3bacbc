"""Prior elicitation for ordered probabilities.

The investigator supplies an equispaced decreasing mode (spacing delta), an
interval (l, u) that should contain all cell probabilities with virtual
certainty gamma, and the search returns the least concentration achieving it.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import DirichletParams, SimplexPoint, gauss_legendre
from .sampling import RngStream, sample_dirichlet_array


class ElicitationInput:
    """The investigator's answers; ``mode`` is ``equispaced_mode(k, delta)``."""

    def __init__(self, k, delta, l, u, gamma):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.mode = equispaced_mode(k, delta)
        if not (0 <= l < u <= 1):
            raise ValueError(f"need 0 <= l < u <= 1, got ({l}, {u})")
        if not (0 < gamma < 1):
            raise ValueError("gamma must be in (0, 1)")
        self.k, self.delta, self.l, self.u, self.gamma = k, delta, l, u, gamma


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


class TauSearchResult(NamedTuple):
    tau: float
    achieved: float
    mc_se: float  # the achieved value's Monte Carlo se, or its quadrature certificate
    trace: tuple  # (tau, achieved) pairs in evaluation order
    method: str = "monte_carlo"  # or "exact", for delta = 0


def _end_coordinates(om):
    """theta_1 and theta_{k+1} of ``ordered_from_weights_array(om)``, bit for bit.

    theta_i = sum_{j >= i} omega_j / j; theta_1 is added in the order of that
    map's reversed cumsum, from the last cell to the first.
    """
    k1 = om.shape[1]
    last = om[:, -1] / k1
    first = last
    for j in range(k1 - 1, 0, -1):
        first = first + om[:, j - 1] / j
    return first, last


def _virtual_certainty(tau, xi, inp, seed, n_draws):
    """P(theta_{k+1} > l and theta_1 < u) over ``n_draws`` ordered-prior draws."""
    om = sample_dirichlet_array(dirichlet_from_mode(xi, tau), n_draws, RngStream(seed))
    first, last = _end_coordinates(om)
    return float(np.mean((last > inp.l) & (first < inp.u)))


def _spacing_cdf(s, k1):
    """P(S < s) at each entry of ``s``, for S = sum_{j<K} phi_j / j with phi uniform on K - 1 cells.

    S has the normalised B-spline density with knots 1/(K-1), ..., 1/2, 1
    (Curry & Schoenberg 1966), evaluated by the de Boor-Cox recursion. On a
    knot interval it is a polynomial of degree K - 3, which a Gauss-Legendre
    rule of K // 2 nodes integrates exactly. With K = 2, S = 1.
    """
    knots = 1.0 / np.arange(k1 - 1, 0, -1.0)
    cdf = (s >= 1.0).astype(float)
    inside = np.flatnonzero((s > knots[0]) & (s < 1.0))
    if not inside.size:
        return cdf

    def density(pts):
        pts = pts[..., None]
        m = np.where((knots[:-1] <= pts) & (pts < knots[1:]), 1.0 / np.diff(knots), 0.0)
        for order in range(2, k1 - 1):
            lo, hi = knots[:-order], knots[order:]
            m = order / ((order - 1) * (hi - lo)) * ((pts - lo) * m[..., :-1] + (hi - pts) * m[..., 1:])
        return m[..., 0]

    x, wx = gauss_legendre(k1 // 2)
    lo, width = knots[:-1], np.diff(knots)
    below = np.r_[0.0, np.cumsum(density(lo[:, None] + width[:, None] * x) @ wx * width)]
    j = np.searchsorted(knots, s[inside], side="right") - 1
    part = s[inside] - lo[j]
    cdf[inside] = below[j] + density(lo[j, None] + part[:, None] * x) @ wx * part
    return cdf


# Gauss-Legendre nodes per piece of the delta = 0 virtual-certainty integral;
# the rule with twice as many nodes is the one used, and this one certifies it
VC_NODES = 16


def _certainty_table(inp, n_nodes):
    """Nodes and tau-free weights of the exact delta = 0 virtual certainty; see ``_exact_certainty``.

    The pieces meet where (u - w/K)/(1 - w) crosses a knot of S, and at
    2^-i and 1 - 2^-i for i <= 40, so w^tau (1 - w)^(K-2) is smooth on each
    piece, for any tau, up to the last one at either end. Returns log w,
    log(1 - w) and the rule's weight times F_S, at the nodes where F_S > 0.
    """
    k1, a = inp.k + 1, (inp.k + 1) * inp.l
    j = np.arange(1.0, k1)
    ends = 2.0 ** -np.arange(1.0, 41.0)
    breaks = np.sort(np.r_[a, 1.0, (1.0 / j - inp.u) / (1.0 / j - 1.0 / k1), ends, 1.0 - ends])
    breaks = breaks[(breaks >= a) & (breaks <= 1.0)]  # a repeated break adds zero weights
    x, wx = gauss_legendre(n_nodes)
    lo, width = breaks[:-1, None], np.diff(breaks)[:, None]
    w = (lo + width * x).ravel()
    weight = (width * wx).ravel() * _spacing_cdf((inp.u - w / k1) / (1.0 - w), k1)
    keep = weight > 0.0
    return np.log(w[keep]), np.log1p(-w[keep]), weight[keep]


def _exact_certainty(tau, table, k1):
    """P(theta_{k+1} > l and theta_1 < u) under weights Dirichlet(1, ..., 1, 1 + tau), by quadrature.

    theta_K = w / K and theta_1 = w / K + (1 - w) S, where w = omega_K ~
    Beta(1 + tau, K - 1) is independent of S = sum_{j<K} phi_j / j, with phi
    uniform on the simplex. So the probability is the integral over w > K l
    of the Beta density times F_S((u - w/K)/(1 - w)): one weighted sum over
    ``_certainty_table``'s nodes. The Beta function is a product, not a ratio
    of Gamma functions, so a large tau loses no digits to cancellation.
    """
    log_w, log_1mw, weight = table
    log_beta = math.lgamma(k1 - 1.0) - np.log(1.0 + tau + np.arange(k1 - 1.0)).sum()
    return float(weight @ np.exp(tau * log_w + (k1 - 2) * log_1mw - log_beta))


def find_tau_result(inp: ElicitationInput, n_draws: int, rng: RngStream) -> TauSearchResult:
    """Smallest concentration giving the (l, u) event probability at least gamma.

    Geometric bracket expansion from tau = 1 followed by 20 bisections. With
    delta = 0 the probability is exact (``_exact_certainty``), ``n_draws`` and
    ``rng`` are unused, and ``mc_se`` is the distance to the coarser rule.
    Otherwise every evaluation reuses the same seed (common random numbers),
    so the probability found at the returned upper bracket end is its achieved
    value, within one Monte Carlo standard error above gamma.
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
    exact = inp.delta == 0.0
    if exact:
        coarse, fine = (_certainty_table(inp, n) for n in (VC_NODES, 2 * VC_NODES))
    else:
        seed = rng.substream(0).stream_id
    trace = []

    def evaluate(tau):
        if exact:
            p = _exact_certainty(tau, fine, inp.k + 1)
        else:
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
    if exact:
        return TauSearchResult(tau=float(hi), achieved=p_hi, trace=tuple(trace), method="exact",
                               mc_se=abs(p_hi - _exact_certainty(hi, coarse, inp.k + 1)))
    se = np.sqrt(max(p_hi * (1 - p_hi), 1e-12) / n_draws)
    return TauSearchResult(tau=float(hi), achieved=p_hi, mc_se=float(se),
                           trace=tuple(trace))


def elicit_ordered_prior(inp: ElicitationInput, n_draws: int, rng: RngStream):
    """Full elicitation: returns (omega Dirichlet params, tau search result)."""
    res = find_tau_result(inp, n_draws, rng)
    return dirichlet_from_mode(inp.mode[1], res.tau), res
