"""Exact small-scale machinery for the conflict check and its large-n limit.

With a Dirichlet prior the predictive mass of a count vector is closed form,
the conflict p-value can be computed by full lattice enumeration, and the
limiting value is the prior probability of the density lower set at the true
parameter. The convergence experiment tabulates exact p-values against that
limit over a schedule of sample sizes.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import CountVector, DirichletParams, SimplexPoint, gammaln
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
    """Log predictive mass of counts under a Dirichlet prior (closed form).

    ``counts`` may be one vector or a 2-D array of rows, one mass per row.
    """
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


def enumerate_lattice(k: int, n: int) -> np.ndarray:
    """All count vectors with k+1 cells summing to n, as rows in lexicographic order.

    Each pass appends one coordinate to every row, running from 0 to what the
    row has left, which keeps the rows in lexicographic order.
    """
    size = math.comb(n + k, k)
    if size > ENUMERATION_GUARD:
        raise ValueError(f"lattice has {size} points, exceeding the {ENUMERATION_GUARD} guard")
    heads = np.zeros((1, 0), dtype=np.int64)
    rem = np.array([n], dtype=np.int64)
    for _ in range(k):
        reps = rem + 1
        v = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        heads = np.column_stack([np.repeat(heads, reps, axis=0), v])
        rem = np.repeat(rem, reps) - v
    return np.column_stack([heads, rem])


def lattice_masses(k: int, n: int, alphas: DirichletParams):
    """(log masses, masses) of every count vector of k+1 cells summing to n, in lattice order.

    Computed once per (k, n, prior), they turn each enumeration p-value into
    one mask and sum.
    """
    if k + 1 != len(alphas):
        raise ValueError("dimension mismatch")
    log_m = log_dirichlet_multinomial(enumerate_lattice(k, n), alphas.alphas)
    return log_m, np.exp(log_m)


def lattice_pvalue(masses, t_obs: CountVector, alphas: DirichletParams) -> float:
    """Conflict p-value of ``t_obs`` from the :func:`lattice_masses` of its total.

    Log masses within LOG_TIE_TOL of the observed one count as ties (the flat
    case makes every mass mathematically equal, differing only in rounding).
    """
    return _pvalue_at(masses, log_dirichlet_multinomial(t_obs.counts, alphas.alphas))


def _pvalue_at(masses, log_obs):
    """Total mass of the lattice points whose log mass is at most ``log_obs`` (with ties)."""
    log_m, m = masses
    return float(m[log_m <= log_obs + LOG_TIE_TOL].sum())


def exact_conflict_pvalue(t_obs: CountVector, alphas: DirichletParams) -> float:
    """Conflict p-value by full enumeration: total mass of count vectors no more probable."""
    return lattice_pvalue(lattice_masses(t_obs.k, t_obs.n, alphas), t_obs, alphas)


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

def _bisect(f, lo, hi):
    """Root of f between lo and hi, where f changes sign, bisected to the last bit.

    Returns the last point found on lo's side of the sign change.
    """
    lo_positive = f(lo) > 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if (f(mid) > 0) == lo_positive:
            lo = mid
        else:
            hi = mid


def _beta_level_set_prob(a, b, x0):
    """P(pi(X) <= pi(x0)) for X ~ Beta(a, b), via the density level set."""
    from scipy.special import betainc, xlog1py, xlogy

    if a == 1.0 and b == 1.0:
        return 1.0
    if a <= 1.0 <= b:  # decreasing density
        return float(1.0 - betainc(a, b, x0))
    if b <= 1.0 <= a:  # increasing density
        return float(betainc(a, b, x0))

    # interior mode (a, b > 1): the level set is the union of two tails;
    # interior antimode (a, b < 1): it is the middle interval around the antimode
    def level(x):
        return xlogy(a - 1.0, x) + xlog1py(b - 1.0, -x) - c

    c = xlogy(a - 1.0, x0) + xlog1py(b - 1.0, -x0)
    if np.isinf(c):  # an end: density 0 (a null level set) or unbounded (all lies below)
        return float(c > 0)
    mode = (a - 1.0) / (a + b - 2.0)
    if x0 < mode:
        x1, x2 = x0, _bisect(level, mode, 1.0 - 1e-15)
    elif x0 > mode:
        x1, x2 = _bisect(level, 1e-15, mode), x0
    else:
        return float(a > 1.0)
    if a < 1.0:
        return float(betainc(a, b, x2) - betainc(a, b, x1))
    return float(betainc(a, b, x1) + 1.0 - betainc(a, b, x2))


def limiting_pvalue(prior, theta_true: SimplexPoint, n_draws: int, rng: RngStream) -> float:
    """Prior probability that the prior density does not exceed its value at theta_true.

    Exact for two-cell Dirichlet (Beta) priors; Monte Carlo otherwise.
    """
    from .prior_check import RawDirichletPrior

    if isinstance(prior, DirichletParams):
        prior = RawDirichletPrior(prior)
    if isinstance(prior, RawDirichletPrior) and prior.dim == 2:
        a, b = prior.params.alphas
        return _beta_level_set_prob(float(a), float(b), float(theta_true.probs[0]))
    th = prior.sample_array(n_draws, rng.generator())
    dens = prior.log_density_array(th)
    ref = float(prior.log_density_array(theta_true.probs[None, :])[0])
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
    abs_error: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    limit: float

    def medians(self):
        """(n, median p-value, median absolute error) per schedule entry."""
        return self._medians

    @cached_property
    def _medians(self):
        out = []
        for n in sorted({r.n for r in self.rows}):
            rows = [r for r in self.rows if r.n == n]
            out.append((n, float(np.median([r.pvalue for r in rows])),
                        float(np.median([r.abs_error for r in rows]))))
        return tuple(out)

    def sandwich_ok(self, slack: float) -> bool:
        """Median p-value per n lies within [limit - slack, limit + slack].

        The limit's strict lower bracket P(pi < pi(theta_true)) is the same number:
        for every prior the experiment admits, sum (alpha_i - 1) log theta_i is
        non-constant and analytic on the open simplex, so its level sets are null.
        """
        return all(self.limit - slack <= med <= self.limit + slack
                   for _, med, _ in self.medians())


def convergence_experiment(prior: DirichletParams, theta_true: SimplexPoint,
                           n_schedule, rng: RngStream,
                           replications: int = 200) -> ConvergenceTable:
    """Tabulate exact conflict p-values against the limiting value over sample sizes.

    For each n in the schedule and each replication, counts are simulated at
    theta_true and the p-value is computed by exact enumeration: the lattice
    masses and every replication's observed log mass take one call each per n.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    check_prior_conditions(prior)
    n_schedule = [int(n) for n in n_schedule]
    if any(n < 1 for n in n_schedule):
        raise ValueError("total count must be >= 1")
    limit = limiting_pvalue(prior, theta_true, 200_000, rng.substream(0))
    rows = []
    for ni, n in enumerate(n_schedule):
        gen = rng.substream(1 + ni).generator()
        counts = sample_multinomial_array(n, theta_true.probs, replications, gen)
        masses = lattice_masses(theta_true.k, n, prior)
        for rep, log_obs in enumerate(log_dirichlet_multinomial(counts, prior.alphas)):
            p = _pvalue_at(masses, log_obs)
            rows.append(ConvergenceRow(n, rep, p, abs(p - limit)))
    return ConvergenceTable(rows=tuple(rows), limit=limit)
