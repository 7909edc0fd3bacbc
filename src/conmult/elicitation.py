"""Prior elicitation for ordered probabilities.

The investigator supplies an equispaced decreasing mode (spacing delta), an
interval (l, u) that should contain all cell probabilities with virtual
certainty gamma, and the search returns the least concentration achieving it.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import DirichletParams, SimplexPoint, gauss_legendre


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
    mc_se: float  # the achieved value's quadrature certificate
    trace: tuple  # (tau, achieved) pairs in evaluation order


# F_S's trapezoid rule in v = log t: step V_STEP / sqrt(max(16, sum alpha)), ends where
# the tail bounds fall below V_TAIL (V_HI at most), (s, v) arrays of about V_BLOCK doubles
V_STEP, V_TAIL, V_HI, V_BLOCK = 0.25, 1e-17, 30.0, 2 ** 17


def _spacing_law(s, alphas):
    """P(S < s) and its certificate at each ``s``, S = sum_j phi_j / j, phi ~ Dirichlet(alphas).

    S < s exactly when D = sum_j c_j Y_j < 0, with c_j = 1/j - s and Y_j ~
    Gamma(alpha_j) independent. Gil-Pelaez (1951) inversion of D's characteristic
    function psi gives P(D < 0) = 1/2 - (1/pi) int Im psi(e^v) dv over the real
    line, Im psi(t) = exp(-1/2 sum alpha_j log1p(c_j^2 t^2)) sin(sum alpha_j atan(c_j t))
    (Provost & Cheong 2000), and the trapezoid rule in v converges geometrically.
    Below the grid Im psi(t) = t E D within t^3 E|D|^3 / 6, so the missing points
    sum as a geometric series; above it log |psi| is concave in v, so the tail is at
    most |psi| over its log's slope, and the grid ends at the first whole v where
    that is below V_TAIL. The certificate is the distance to the rule of twice the
    step plus both tail bounds. Off (1/J, 1) the probability is 0 or 1 exactly.
    """
    cdf, cert = (s >= 1.0).astype(float), np.zeros(len(s))
    inside = np.flatnonzero((s > 1.0 / len(alphas)) & (s < 1.0))
    h = V_STEP / math.sqrt(max(16.0, alphas.sum()))
    tops = np.arange(V_HI + 1.0)

    def upper_tail(ct):  # the tail bound above t, from c_j t along the last axis
        q = ct * ct
        return np.exp(-0.5 * (np.log1p(q) @ alphas)) / ((q / (1.0 + q)) @ alphas)

    n_rows = max(1, int(V_BLOCK * h / (V_HI + 40.0)))  # the grid starts above v = -40
    for start in range(0, inside.size, n_rows):
        rows = inside[start:start + n_rows]
        c = 1.0 / np.arange(1.0, len(alphas) + 1) - s[rows, None]
        p1, p2, p3 = (np.abs(c) ** n @ alphas for n in (1, 2, 3))
        cubic = (p1 ** 3 + 3.0 * p1 * p2 + 2.0 * p3) / 18.0  # E(sum_j |c_j| Y_j)^3 / 18
        v_lo = math.log(V_TAIL / cubic.max()) / 3.0
        small = (upper_tail(c[:, None] * np.exp(tops)[:, None]) < V_TAIL).all(axis=0)
        v_hi = tops[np.append(small[:-1], True).argmax()]
        # an even number of steps, so that every other point makes the coarser rule
        t = np.exp(v_lo + h * np.arange(2 * math.ceil((v_hi - v_lo) / (2 * h)) + 1))
        log_mod, phase, ct = (np.zeros((rows.size, t.size)) for _ in range(3))
        for cj, aj in zip(c.T, alphas):
            np.multiply(cj[:, None], t, out=ct)
            phase += aj * np.arctan(ct)
            log_mod += aj * np.log1p(ct * ct)
        f = np.exp(-0.5 * log_mod) * np.sin(phase)
        fine, coarse = (step * (f[:, ::n].sum(axis=1) + t[0] / math.expm1(step) * (c @ alphas))
                        for n, step in ((1, h), (2, 2.0 * h)))
        cdf[rows] = np.clip(0.5 - fine / np.pi, 0.0, 1.0)
        cert[rows] = (np.abs(fine - coarse) + cubic * t[0] ** 3 + upper_tail(c * t[-1])) / np.pi
    return cdf, cert


# Gauss-Legendre nodes per piece of the virtual-certainty integral in w;
# the rule with twice as many nodes is the one used, and this one certifies it
VC_NODES = 16


def _certainty_table(inp, n_nodes, alphas):
    """Nodes and weights of the virtual certainty under weights Dirichlet(alphas).

    The pieces meet where (u - w/K)/(1 - w) crosses a knot 1/j of S, at 1 - 2^-i
    and 2^-i for i <= 40 (the 2^-i only where the Beta density of w may be singular
    at 0: alpha_K != 1, or delta = 0, whose one table serves every tau) and, with
    delta > 0, where that density peaks inside (0, 1), at its mean and 4 and 8 sd
    either side. Returns log w, log(1 - w), the rule's weights times F_S and times
    its certificate, at the nodes where either is positive, and B = sum_{j<K} alpha_j.
    """
    k1, a, b = inp.k + 1, (inp.k + 1) * inp.l, alphas[:-1].sum()
    knots, ends = 1.0 / np.arange(1.0, k1), 2.0 ** -np.arange(1.0, 41.0)
    mean = alphas[-1] / alphas.sum()
    sd = math.sqrt(mean * (1.0 - mean) / (alphas.sum() + 1.0))
    peak = mean + sd * np.r_[-8.0, -4.0, 0.0, 4.0, 8.0] if inp.delta else []
    grade = [] if inp.delta and alphas[-1] == 1.0 else ends
    breaks = np.sort(np.r_[a, 1.0, (knots - inp.u) / (knots - 1.0 / k1), grade, 1.0 - ends, peak])
    breaks = breaks[(breaks >= a) & (breaks <= 1.0)]
    breaks = breaks[np.r_[True, np.diff(breaks) > 0.0]]
    x, wx = gauss_legendre(n_nodes)
    lo, width = breaks[:-1, None], np.diff(breaks)[:, None]
    w = (lo + width * x).ravel()
    cdf, cert = _spacing_law((inp.u - w / k1) / (1.0 - w), alphas[:-1])
    keep = (cdf > 0.0) | (cert > 0.0)
    weight = (width * wx).ravel()[keep]
    return np.log(w[keep]), np.log1p(-w[keep]), weight * cdf[keep], weight * cert[keep], b


def _exact_certainty(alpha_last, table):
    """P(theta_{k+1} > l and theta_1 < u) and its certificate, from ``_certainty_table``.

    The Dirichlet is neutral: w = omega_K ~ Beta(alpha_K, B) is independent of
    phi = omega_{<K} / (1 - w), and theta_K = w / K, theta_1 = w / K + (1 - w) S
    with S = sum_{j<K} phi_j / j. So the probability is the integral over w > K l
    of the Beta density times F_S((u - w/K)/(1 - w)). Gamma(alpha_K + B) /
    Gamma(alpha_K) is a product over B's whole part, so a large alpha_K loses no
    digits to cancellation when B is whole (delta = 0).
    """
    log_w, log_1mw, weight, cert, b = table
    n = math.floor(b)
    log_beta = (math.lgamma(b) + (math.lgamma(alpha_last) - math.lgamma(alpha_last + b - n))
                - np.log(alpha_last + b - n + np.arange(n)).sum())
    density = np.exp((alpha_last - 1.0) * log_w + (b - 1.0) * log_1mw - log_beta)
    return float(weight @ density), float(cert @ density)


def find_tau_result(inp: ElicitationInput, n_draws=None, rng=None) -> TauSearchResult:
    """Smallest concentration giving the (l, u) event probability at least gamma.

    Geometric bracket expansion from tau = 1, then 20 bisections, each on the
    exact probability; nothing is drawn, so ``n_draws`` and ``rng`` are unused,
    kept only for the positional call in ``perfbench/probes.py``.
    ``mc_se`` is the distance to the rule with half the nodes in w plus F_S's
    certificate. The flat prior, tau = 0, must fall short of gamma.
    """
    theta_star, xi = inp.mode
    ts = theta_star.probs
    # l = 0 is always admissible: the event theta_{k+1} > 0 holds almost surely
    lower_ok = inp.l == 0.0 or inp.l < ts[-1]
    if not (lower_ok and ts[0] < inp.u):
        raise ValueError(
            "elicited mode lies outside the virtual-certainty interval: "
            f"need l < {ts[-1]:.6g} and {ts[0]:.6g} < u, got (l, u) = ({inp.l}, {inp.u}); "
            "no concentration can achieve gamma"
        )
    tables = {}

    def certainty(tau, n_nodes=2 * VC_NODES):
        alphas = 1.0 + tau * xi.probs
        # with delta = 0, alpha_{<K} = 1 at every tau, so one table serves the whole search
        key = n_nodes, tau if inp.delta else 0.0
        if key not in tables:
            tables[key] = _certainty_table(inp, n_nodes, alphas)
        return _exact_certainty(alphas[-1], tables[key])

    p_flat = certainty(0.0)[0]
    if p_flat >= inp.gamma:
        raise ValueError(f"the flat prior (tau = 0) already gives the interval probability "
                         f"{p_flat:.6g} >= gamma = {inp.gamma}; no concentration is needed")
    trace = []

    def evaluate(tau):
        trace.append((tau, certainty(tau)[0]))
        return trace[-1][1]

    lo, hi = 0.0, 1.0
    while evaluate(hi) < inp.gamma:
        lo, hi = hi, hi * 2.0
        if hi > 1e9:
            raise RuntimeError("virtual-certainty search failed to bracket gamma")
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if evaluate(mid) >= inp.gamma else (mid, hi)
    p_hi = dict(trace)[hi]  # every tau is evaluated once
    cert = certainty(hi)[1] + abs(p_hi - certainty(hi, VC_NODES)[0])
    return TauSearchResult(tau=float(hi), achieved=p_hi, mc_se=cert, trace=tuple(trace))


def elicit_ordered_prior(inp: ElicitationInput):
    """Full elicitation: returns (omega Dirichlet params, tau search result)."""
    res = find_tau_result(inp)
    return dirichlet_from_mode(inp.mode[1], res.tau), res
