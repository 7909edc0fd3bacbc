"""Posterior draws under an ordered-probabilities prior.

With weights Dirichlet(1, ..., 1, alpha_K), alpha_K >= 1 (every prior
``elicit --delta 0`` writes), the draws are exact and iid: backward sampling
(Carter & Kohn 1994; Fruhwirth-Schnatter 1994) on the running integrals of
``core.chain_log_integrals``. Every other prior takes the Gibbs chain below.

The ordering map theta_i = sum_{j >= i} omega_j / j makes theta a mixture of
uniform distributions on {1..j} with weights omega. Each count in cell i is
given a latent component j >= i, drawn with probability proportional to
omega_j / j; given the component totals m, the weights are conjugate,
omega | m ~ Dirichlet(alpha + m). Alternating the two exact draws is data
augmentation (Tanner & Wong 1987), with no grid or truncation anywhere.
"""

import math

import numpy as np

from .core import (CountVector, DirichletParams, chain_log_integrals, ordered_from_weights_array,
                   ordered_mode, weights_from_ordered_array)
from .sampling import RngStream


def autocorrelation_time(x):
    """Integrated autocorrelation time by Geyer's initial monotone sequence.

    Autocovariances come from one FFT over every lag; sums of adjacent pairs
    are accumulated while positive and forced non-increasing.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return 1.0
    f = np.fft.rfft(x - x.mean(), n=2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    if acov[0] == 0:
        return 1.0
    rho = acov / acov[0]
    pairs = rho[:-1:2] + rho[1::2]
    negative = pairs < 0
    stop = int(np.argmax(negative)) if negative.any() else pairs.size
    pairs = np.minimum.accumulate(pairs[:stop])
    return float(max(-1.0 + 2.0 * pairs.sum(), 1.0))


def _log_dirichlet(shape, gen):
    """Unnormalised log of a Dirichlet(shape) draw.

    Gamma(a) = Gamma(a + 1) * U^(1/a) keeps every coordinate finite in log
    space, however small a is.
    """
    return np.log(gen.standard_gamma(shape + 1.0)) - gen.standard_exponential(shape.size) / shape


def _counts(counts, k1):
    if counts is None:
        return np.zeros(k1, dtype=np.int64)
    if len(counts) != k1:
        raise ValueError("counts and prior dimensions differ")
    return counts.counts


def check_sweeps(n_sweeps, burn_in):
    """The sweep budget rule: n_sweeps >= 1 and 0 <= burn_in < n_sweeps."""
    if n_sweeps < 1:
        raise ValueError("n_sweeps must be >= 1")
    if burn_in < 0 or burn_in >= n_sweeps:
        raise ValueError("need 0 <= burn_in < n_sweeps")


def has_exact_draws(prior: DirichletParams):
    """True when ``sample_ordered_posterior`` takes the prior: alpha_j = 1 for j < K, alpha_K >= 1."""
    al = prior.alphas
    return bool(np.all(al[:-1] == 1.0) and al[-1] >= 1.0)


# rows of the chain in one segment of the exact draws, or sqrt(K) when that is more
CHAIN_SEGMENT = 18


def sample_ordered_posterior(t, omega_params: DirichletParams, size: int, rng: RngStream):
    """``size`` iid posterior draws of theta, rows non-increasing and summing to 1.

    ``t`` may be None for prior draws. With G_i from ``core.chain_log_integrals``,
    z_1 inverts G_1 at U G_1(L) and z_{i+1} inverts G_{i+1} at U G_{i+1}(z_i),
    one uniform U per cell and draw; theta = z / sum(z). Between grid points
    log G is interpolated linearly, exact where G grows exponentially, except
    on the interval where G leaves 0, which is linear in G.

    The chain makes G_K first and the inversion reads G_1 first, so the rows
    are held in segments of s = max(CHAIN_SEGMENT, sqrt K) (Griewank 1992): a
    first pass keeps G_1, ..., G_{s+1} and every s-th row above, and each later
    segment is rebuilt in the same array, from the kept row above it, when the
    inversion reaches it. That holds about K / s + s rows, with the bits of a
    full pass, and up to CHAIN_SEGMENT cells makes one pass.
    """
    if not has_exact_draws(omega_params):
        raise ValueError("exact draws need alpha_j = 1 for j < K and alpha_K >= 1")
    al = omega_params.alphas
    k = al.size
    powers = _counts(t, k).astype(float)
    powers[-1] += al[-1] - 1.0
    seg = max(CHAIN_SEGMENT, math.isqrt(k))
    x, rows = chain_log_integrals(powers)
    # log_g: rows a..a+seg of the segment being read, filled in place (an array
    # per row fragments the heap: +0.35 MB RSS at 18 cells); kept: every seg-th row above
    log_g = np.empty((min(seg + 1, k), x.size))
    kept = {}
    for i, row in zip(range(k - 1, -1, -1), rows):
        if i < len(log_g):
            log_g[i] = row
        elif i % seg == 0:
            kept[i] = row
    gen = rng.generator()
    z = np.empty((size, k))
    log_top = np.full(size, log_g[0, -1])
    for i in range(k):
        a = i - i % seg
        if i == a and i:  # the next segment, rebuilt from the kept row above it
            top = min(a + seg, k)
            log_g[0] = log_g[seg]
            if top < k:
                log_g[seg] = kept.pop(top)
            _, rows = chain_log_integrals(powers, resume=(top + 1, log_g[seg]) if top < k else None)
            for r, row in zip(range(top - 1, a, -1), rows):
                log_g[r - a] = row
        log_gi = log_g[i - a]
        target = log_top + np.log1p(-gen.random(size))
        j = np.clip(np.searchsorted(log_gi, target) - 1, 0, x.size - 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo, hi = log_gi[j], log_gi[j + 1]
            frac = np.where(lo > -np.inf, (target - lo) / (hi - lo), np.exp(target - hi))
            frac = np.fmin(np.fmax(frac, 0.0), 1.0)  # rounding edges: just outside [0, 1], or NaN
            z[:, i] = x[j] + frac * (x[j + 1] - x[j])
            if i + 1 < k:
                lo, hi = log_g[i + 1 - a, j], log_g[i + 1 - a, j + 1]
                log_top = np.where(lo > -np.inf, lo + frac * (hi - lo), hi + np.log(frac))
    np.minimum.accumulate(z, axis=1, out=z)  # a rounding edge must not break the order
    z /= z.sum(axis=1, keepdims=True)
    return z


def run_gibbs(counts: CountVector | None, prior: DirichletParams, n_sweeps: int, burn_in: int,
              init, rng: RngStream):
    """Latent-allocation Gibbs on the weights, reported in probability space.

    ``counts`` may be None for a prior-only chain. ``init`` is a probability
    vector; it defaults to the probability-space image of the prior mode
    (``core.ordered_mode``). Its weights, averaged with equal weights, set the
    first sweep's allocation probabilities. Returns (samples array of kept
    sweeps, autocorrelation time of each coordinate).
    """
    al = prior.alphas
    k1 = len(prior)
    cnt = _counts(counts, k1)
    check_sweeps(n_sweeps, burn_in)
    theta0 = ordered_mode(al) if init is None else np.asarray(init, dtype=float)
    # averaging with equal weights lets every component receive counts in the first sweep
    log_omega = np.log(np.maximum(weights_from_ordered_array(theta0), 0.0) + 1.0 / k1)
    # row i of the allocation matrix may use components j >= i only
    blocked = np.tril(np.full((k1, k1), -np.inf), k=-1)
    log_j = np.log(np.arange(1, k1 + 1, dtype=float))
    gen = rng.generator()
    log_kept = np.empty((n_sweeps - burn_in, k1))
    for sweep in range(n_sweeps):
        logits = blocked + (log_omega - log_j)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        m = gen.multinomial(cnt, probs).sum(axis=0)
        log_omega = _log_dirichlet(al + m, gen)
        if sweep >= burn_in:
            log_kept[sweep - burn_in] = log_omega
    omega = np.exp(log_kept - log_kept.max(axis=1, keepdims=True))
    kept = ordered_from_weights_array(omega / omega.sum(axis=1, keepdims=True))
    act = np.array([autocorrelation_time(kept[:, j]) for j in range(k1)])
    return kept, act
