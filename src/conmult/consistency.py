"""Exact small-scale machinery for the conflict check and its large-n limit.

With a Dirichlet prior the predictive mass of a count vector is closed form,
the conflict p-value can be computed by full lattice enumeration, and the
limiting value is the prior probability of the density lower set at the true
parameter. The convergence experiment tabulates exact p-values against that
limit over a schedule of sample sizes.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln, gammaln, xlog1py, xlogy

from .core import CountVector, DirichletParams, SimplexPoint
from .sampling import RngStream, sample_multinomial_array

ENUMERATION_GUARD = 10**8
LOG_TIE_TOL = 1e-9


@dataclass(frozen=True)
class CellIndex:
    """Lattice point of the cell containing an interior point r at resolution n."""

    n: int
    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 for i in idx) or sum(idx) > self.n:
            raise ValueError(f"invalid cell index {idx} for n={self.n}")
        object.__setattr__(self, "indices", idx)


def cell_index(r, n: int) -> CellIndex:
    """Index n_i = floor(n r_i + 1/2) of the cell containing r (first k coordinates)."""
    rr = r.probs if isinstance(r, SimplexPoint) else np.asarray(r, dtype=float)
    idx = np.floor(n * rr[:-1] + 0.5).astype(int)
    return CellIndex(n=n, indices=tuple(idx))


def log_dirichlet_multinomial(counts, alphas) -> float:
    """Log predictive mass of counts under a Dirichlet prior (closed form)."""
    t = np.asarray(counts, dtype=float)
    al = np.asarray(alphas, dtype=float)
    n = t.sum(axis=-1)
    return (
        gammaln(n + 1)
        - gammaln(t + 1).sum(axis=-1)
        + gammaln(al.sum(axis=-1))
        - gammaln(al).sum(axis=-1)
        + gammaln(al + t).sum(axis=-1)
        - gammaln(al.sum(axis=-1) + n)
    )


def exact_prior_predictive(t: CountVector, alphas: DirichletParams) -> float:
    """Predictive mass of the counts under a Dirichlet prior."""
    if len(t) != len(alphas):
        raise ValueError("dimension mismatch")
    return float(np.exp(log_dirichlet_multinomial(t.counts, alphas.alphas)))


def enumerate_lattice(k: int, n: int) -> np.ndarray:
    """All count vectors with k+1 cells summing to n, as an array of rows."""
    size = math.comb(n + k, k)
    if size > ENUMERATION_GUARD:
        raise ValueError(f"lattice has {size} points, exceeding the {ENUMERATION_GUARD} guard")
    if k == 1:
        t1 = np.arange(n + 1)
        return np.column_stack([t1, n - t1])
    if k == 2:
        t1 = np.repeat(np.arange(n + 1), np.arange(n + 1, 0, -1))
        t2 = np.concatenate([np.arange(n - v + 1) for v in range(n + 1)])
        return np.column_stack([t1, t2, n - t1 - t2])
    rows = [
        comb + (n - sum(comb),)
        for comb in itertools.product(range(n + 1), repeat=k)
        if sum(comb) <= n
    ]
    return np.array(rows)


def exact_conflict_pvalue(t_obs: CountVector, alphas: DirichletParams) -> float:
    """Conflict p-value by full enumeration: total mass of count vectors no more probable.

    Log masses within LOG_TIE_TOL of the observed one count as ties (the flat
    case makes every mass mathematically equal, differing only in rounding).
    """
    if len(t_obs) != len(alphas):
        raise ValueError("dimension mismatch")
    lattice = enumerate_lattice(t_obs.k, t_obs.n)
    log_m = log_dirichlet_multinomial(lattice, alphas.alphas)
    log_obs = log_dirichlet_multinomial(t_obs.counts, alphas.alphas)
    keep = log_m <= log_obs + LOG_TIE_TOL
    return float(np.exp(log_m[keep]).sum())


def continuized_density(r, n: int, alphas: DirichletParams) -> float:
    """Piecewise-constant density n^k * (predictive mass of the cell containing r)."""
    idx = cell_index(r, n)
    k = len(alphas) - 1
    t_last = n - sum(idx.indices)
    counts = np.array(idx.indices + (t_last,))
    return float(n**k * np.exp(log_dirichlet_multinomial(counts, alphas.alphas)))


# ---------------------------------------------------------------------------
# limiting value and convergence experiment
# ---------------------------------------------------------------------------

def _beta_level_set_prob(a, b, x0):
    """P(pi(X) <= pi(x0)) for X ~ Beta(a, b), via the density level set."""
    if a == 1.0 and b == 1.0:
        return 1.0

    def logpdf(x):
        return xlogy(a - 1.0, x) + xlog1py(b - 1.0, -x) - betaln(a, b)

    if a <= 1.0 <= b:  # decreasing density
        return float(1.0 - betainc(a, b, x0))
    if b <= 1.0 <= a:  # increasing density
        return float(betainc(a, b, x0))
    # interior mode: level set is the union of two tails
    from scipy.optimize import brentq

    mode = (a - 1.0) / (a + b - 2.0)
    c = logpdf(x0)
    if x0 < mode:
        x1 = x0
        x2 = brentq(lambda x: logpdf(x) - c, mode, 1.0 - 1e-15)
    elif x0 > mode:
        x2 = x0
        x1 = brentq(lambda x: logpdf(x) - c, 1e-15, mode)
    else:
        return 1.0
    return float(betainc(a, b, x1) + 1.0 - betainc(a, b, x2))


def limiting_pvalue(prior, theta_true: SimplexPoint, n_draws: int,
                    rng: RngStream, strict: bool = False) -> float:
    """Prior probability that the prior density does not exceed its value at theta_true.

    Exact for two-cell Dirichlet (Beta) priors; Monte Carlo otherwise. With
    ``strict`` the comparison is strict inequality, giving the lower member of
    the limit sandwich.
    """
    from .prior_check import RawDirichletPrior

    if isinstance(prior, DirichletParams):
        prior = RawDirichletPrior(prior)
    if isinstance(prior, RawDirichletPrior) and prior.dim == 2 and not strict:
        a, b = prior.params.alphas
        return _beta_level_set_prob(float(a), float(b), float(theta_true.probs[0]))
    th = prior.sample_array(n_draws, rng.generator())
    dens = prior.log_density_array(th)
    ref = float(prior.log_density_array(theta_true.probs[None, :])[0])
    if strict:
        return float(np.mean(dens < ref - 1e-12))
    return float(np.mean(dens <= ref + 1e-12))


def check_prior_conditions(alphas: DirichletParams):
    """Reject priors outside the scope of the convergence result.

    Boundedness needs every parameter at least 1; the flat prior has a
    positive-volume density level set and is excluded.
    """
    al = alphas.alphas
    if np.any(al < 1.0):
        raise ValueError(
            "A1 violated: Dirichlet density is unbounded when any parameter is < 1"
        )
    if np.all(al == 1.0):
        raise ValueError(
            "A3 violated: the flat prior is constant, so its level set has full mass"
        )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    replication: int
    pvalue: float
    limit: float
    abs_error: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    limit: float
    limit_strict: float

    def medians(self):
        """(n, median p-value, median absolute error) per schedule entry."""
        ns = sorted({r.n for r in self.rows})
        out = []
        for n in ns:
            ps = np.array([r.pvalue for r in self.rows if r.n == n])
            out.append((n, float(np.median(ps)), float(np.median(np.abs(ps - self.limit)))))
        return out

    def sandwich_ok(self, slack: float) -> bool:
        """Median p-value per n lies within [strict limit - slack, limit + slack]."""
        return all(
            self.limit_strict - slack <= med <= self.limit + slack
            for _, med, _ in self.medians()
        )


def convergence_experiment(prior: DirichletParams, theta_true: SimplexPoint,
                           n_schedule, rng: RngStream,
                           replications: int = 200) -> ConvergenceTable:
    """Tabulate exact conflict p-values against the limiting value over sample sizes.

    For each n in the schedule and each replication, counts are simulated at
    theta_true and the p-value is computed by exact enumeration.
    """
    check_prior_conditions(prior)
    limit = limiting_pvalue(prior, theta_true, 200_000, rng.substream(0))
    limit_strict = limiting_pvalue(prior, theta_true, 200_000, rng.substream(0),
                                   strict=True)
    rows = []
    for ni, n in enumerate(n_schedule):
        gen = rng.substream(1 + ni).generator()
        counts = sample_multinomial_array(int(n), theta_true.probs, replications, gen)
        for rep in range(replications):
            p = exact_conflict_pvalue(CountVector(counts[rep]), prior)
            rows.append(ConvergenceRow(int(n), rep, p, limit, abs(p - limit)))
    return ConvergenceTable(rows=tuple(rows), limit=limit, limit_strict=limit_strict)
