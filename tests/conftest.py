import math

import mpmath
import numpy as np
import pytest

# click counts from the two interferometer experiments
TRINE_SYMMETRIC = np.array([3416, 1912, 1748])
TRINE_ASYMMETRIC = np.array([6192, 316, 248])
TRINE_ASYMMETRIC_A = 0.48445

# fly-diversity abundance counts (18 species, n = 363)
FLY_COUNTS = np.array([145, 96, 35, 29, 20, 11, 4, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1, 1])
FLY_COUNTS_PERMUTED = np.array([35, 29, 20, 145, 96, 11, 4, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1, 1])

FLY_ELICITATION = {"l": 1.0 / 450.0, "u": 0.5, "gamma": 0.99, "delta": 0.0}


def same_bits(x, y):
    """True when x and y have the same shape and the same float64 bit patterns.

    Unlike ``==`` this tells -0.0 from 0.0 and matches NaN with itself.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def chain_ordered_log_predictive(t, alpha_last, n_grid=65536):
    """Log predictive mass of ``t`` under the ordered prior with weights Dirichlet(1, ..., 1, alpha_last).

    With x_i independent unit-rate gammas and theta = x / sum(x), the mass is
    n!/prod t_i! * K! Gamma(A)/Gamma(alpha_last) * K^(alpha_last - 1) * J / Gamma(n + A)
    for K cells and A = K - 1 + alpha_last, where J integrates
    prod x_i^t_i e^-x_i * x_K^(alpha_last - 1) over x_1 >= ... >= x_K >= 0. With
    every other weight parameter 1, J is a chain of running integrals:
    H_K(x) = x^(t_K + alpha_last - 1) e^-x, H_i(x) = x^t_i e^-x int_0^x H_{i+1},
    J = int_0^inf H_1. Each runs by the trapezoid rule on a uniform grid, in log
    space with one rescale per step.
    """
    t = np.asarray(t, dtype=float)
    k1, n = t.size, float(t.sum())
    a0 = k1 - 1 + alpha_last
    x = np.linspace(0.0, 2.0 * (n + a0) + 50.0, n_grid)  # sum(x) ~ Gamma(n + A)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x = np.log(x)

        def log_factor(power):
            return np.where(power != 0, power * log_x, 0.0) - x

        def log_running_integral(log_h):
            top = log_h.max()
            h = np.exp(log_h - top)
            steps = 0.5 * (h[1:] + h[:-1]) * np.diff(x)
            return np.log(np.concatenate([[0.0], np.cumsum(steps)])) + top

        log_h = log_factor(t[-1] + alpha_last - 1.0)
        for t_i in t[-2::-1]:
            log_h = log_factor(t_i) + log_running_integral(log_h)
        log_j = log_running_integral(log_h)[-1]
    lg = math.lgamma
    return (lg(n + 1) - sum(lg(v + 1) for v in t) + lg(k1 + 1) + lg(a0) - lg(alpha_last)
            + (alpha_last - 1.0) * math.log(k1) + log_j - lg(n + a0))


def mp_level_set_prob(a, b, x0):
    """P(pi(X) <= pi(x0)) for X ~ Beta(a, b) with an interior mode or antimode, in 40 digits."""
    with mpmath.workdps(40):
        a, b, x0 = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x0)
        mode = (a - 1) / (a + b - 2)
        c = (a - 1) * mpmath.log(x0) + (b - 1) * mpmath.log1p(-x0)

        def level(x):
            return (a - 1) * mpmath.log(x) + (b - 1) * mpmath.log1p(-x) - c

        if x0 < mode:
            x1, x2 = x0, mpmath.findroot(level, (mode, 1 - mpmath.mpf(10) ** -30),
                                         solver="anderson")
        else:
            x1, x2 = mpmath.findroot(level, (mpmath.mpf(10) ** -30, mode),
                                     solver="anderson"), x0
        if a < 1:  # antimode: the level set is the middle interval
            return float(mpmath.betainc(a, b, x1, x2, regularized=True))
        tails = (mpmath.betainc(a, b, 0, x1, regularized=True)
                 + mpmath.betainc(a, b, x2, 1, regularized=True))
        return float(tails)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
