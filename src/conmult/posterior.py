"""Gibbs sampler for the posterior under an ordered-probabilities prior.

The ordering map theta_i = sum_{j >= i} omega_j / j makes theta a mixture of
uniform distributions on {1..j} with weights omega. Each count in cell i is
given a latent component j >= i, drawn with probability proportional to
omega_j / j; given the component totals m, the weights are conjugate,
omega | m ~ Dirichlet(alpha + m). Alternating the two exact draws is data
augmentation (Tanner & Wong 1987), with no grid or truncation anywhere.
"""

from dataclasses import dataclass

import numpy as np

from .core import (CountVector, DirichletParams, SimplexPoint, ordered_from_weights_array,
                   weights_from_ordered_array)
from .sampling import RngStream


@dataclass(frozen=True)
class GibbsDiagnostics:
    autocorr_time: np.ndarray
    n_sweeps: int
    burn_in: int


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


def run_gibbs(counts, prior: DirichletParams, n_sweeps: int, burn_in: int,
              init, rng: RngStream):
    """Latent-allocation Gibbs on the weights, reported in probability space.

    ``counts`` may be None for a prior-only chain. ``init`` is a probability
    vector; it defaults to the probability-space image of the prior mode. Its
    weights, averaged with equal weights, set the first sweep's allocation
    probabilities. Returns (samples array of kept sweeps, GibbsDiagnostics).
    """
    if n_sweeps < 1:
        raise ValueError("n_sweeps must be >= 1")
    if burn_in < 0 or burn_in >= n_sweeps:
        raise ValueError("need 0 <= burn_in < n_sweeps")
    al = prior.alphas
    k1 = len(prior)
    cnt = np.zeros(k1, dtype=np.int64)
    if counts is not None:
        cnt = counts.counts if isinstance(counts, CountVector) else np.asarray(counts)
        if len(cnt) != k1:
            raise ValueError("counts and prior dimensions differ")
    if init is None:
        from .prior_check import OrderedDirichletPrior

        theta0 = OrderedDirichletPrior(prior).theta_mode()
    else:
        theta0 = init.probs if isinstance(init, SimplexPoint) else np.asarray(init, dtype=float)
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
    return kept, GibbsDiagnostics(autocorr_time=act, n_sweeps=n_sweeps, burn_in=burn_in)
