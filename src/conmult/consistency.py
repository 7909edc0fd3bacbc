"""Exact small-scale machinery for the conflict check and its large-n limit.

With a Dirichlet prior the predictive mass of a count vector is closed form,
the conflict p-value can be computed by full lattice enumeration, and the
limiting value is the prior probability of the density lower set at the true
parameter. The convergence experiment tabulates exact p-values against that
limit over a schedule of sample sizes.
"""

import math
import sys
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


# Regularized incomplete beta I_x(a, b) after DiDonato & Morris (1992), ACM TOMS
# 708: the continued fraction of their ``bfrac`` times the factor
# x^a (1-x)^b / B(a, b) of their ``brcomp``.

# Stirling series of log Gamma: B_2k / (2k (2k - 1)) for k = 1..9
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400, 43867 / 244188)


def _stirling_rest(x):
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2, for x >= 8."""
    t = 1.0 / (x * x)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * t + c
    return s / x


def _beta_kernel(a, b, x, y, lam):
    """x^a y^b / B(a, b) for 0 < x < 1, y = 1 - x and lam = a - (a + b) x.

    Small shapes take the powers and Gamma functions as they are. Otherwise,
    with x0 = a / (a + b), y0 = 1 - x0 and s <= l the two shapes, it is
    exp(-D) s^s e^-s / Gamma(s) exp(rest(a + b) - rest(l)) / sqrt(1 + s / l):
    D = a dev(x/x0 - 1) + b dev(y/y0 - 1) >= 0 is a deviance, rest is
    :func:`_stirling_rest`, and s^s e^-s / Gamma(s) = sqrt(s / (2 pi)) exp(-rest(s))
    once s >= 8. Gamma(a + b) is never formed, so (2, 500) is as safe as (500, 500).
    """
    if max(a, b) < 8.0:
        return x**a * y**b * (math.gamma(a + b) / (math.gamma(a) * math.gamma(b)))
    s, l = min(a, b), max(a, b)

    def dev(e, ratio):  # e - log(1 + e) >= 0 for ratio = 1 + e; near e = -1 only ratio is exact
        return e - (math.log1p(e) if abs(e) <= 0.6 else math.log(ratio))

    deviance = a * dev(-lam / a, x * (a + b) / a) + b * dev(lam / b, y * (a + b) / b)
    if s >= 8.0:
        g = math.sqrt(s / (2.0 * math.pi)) * math.exp(-_stirling_rest(s))
    else:
        g = s**s * math.exp(-s) / math.gamma(s)
    return (g * math.exp(_stirling_rest(a + b) - _stirling_rest(l) - deviance)
            / math.sqrt(1.0 + s / l))


def _beta_cf(a, b, x, y, lam):
    """I_x(a, b) / (x^a y^b / B(a, b)) by the continued fraction of TOMS 708's ``bfrac``.

    Its terms take 1 + lam and y as given, so near x = (a + 1) / (a + b + 2),
    where 1 - (a + b) x / (a + 1) cancels, no digits are lost. Converges
    for x < (a + 1) / (a + b + 2) in O(sqrt(max(a, b))) terms.
    """
    c = 1.0 + lam
    a0, b0, a1, b1 = 0.0, 1.0, 1.0, a * c / (a + 1.0)
    r = a1 / b1
    for n in range(1, 10_000):
        w = n * (b - n) * x
        s = a + (2 * n - 1)
        alpha = (a + (n - 1)) * (a + b + (n - 1)) * w * x / (s * s)
        beta = n + w / s + (a + n) * (c + n * (1.0 + y)) / (s + 2.0)
        a0, a1 = a1, beta * a1 + alpha * a0
        b0, b1 = b1, beta * b1 + alpha * b0
        r0, r = r, a1 / b1
        if abs(r - r0) <= sys.float_info.epsilon * r:
            return r
        a0, b0, a1, b1 = a0 / b1, b0 / b1, r, 1.0  # rescale against overflow
    raise RuntimeError(f"incomplete beta continued fraction did not converge at "
                       f"a={a}, b={b}, x={x}")


def _beta_tails(a, b, x):
    """(I_x(a, b), 1 - I_x(a, b)) for X ~ Beta(a, b): P(X <= x) and P(X > x).

    The continued fraction runs on the side where it converges: for
    x < (a + 1) / (a + b + 2) it gives the lower tail, else the mirrored
    I_(1-x)(b, a) gives the upper one; the other tail is its complement.
    lam = a - (a + b) x is formed from x when a <= b and from 1 - x otherwise,
    the side on which it does not cancel.
    """
    if x <= 0.0:
        return 0.0, 1.0
    if x >= 1.0:
        return 1.0, 0.0
    y = 1.0 - x
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    kernel = _beta_kernel(a, b, x, y, lam)
    if x < (a + 1.0) / (a + b + 2.0):
        lower = kernel * _beta_cf(a, b, x, y, lam)
        return lower, 1.0 - lower
    upper = kernel * _beta_cf(b, a, y, x, -lam)
    return 1.0 - upper, upper


def _beta_level_set_prob(a, b, x0):
    """P(pi(X) <= pi(x0)) for X ~ Beta(a, b), via the density level set."""
    if a == 1.0 and b == 1.0:
        return 1.0
    if a <= 1.0 <= b:  # decreasing density
        return _beta_tails(a, b, x0)[1]
    if b <= 1.0 <= a:  # increasing density
        return _beta_tails(a, b, x0)[0]

    # interior mode (a, b > 1): the level set is the union of two tails;
    # interior antimode (a, b < 1): it is the middle interval around the antimode
    if x0 in (0.0, 1.0):  # an end: density 0 (a null level set) or unbounded (all lies below)
        return float(a < 1.0)

    def log_ratio(x):  # log pi(x) / pi(x0), with (1 - x) / (1 - x0) = 1 + (x0 - x) / (1 - x0)
        return (a - 1.0) * math.log(x / x0) + (b - 1.0) * math.log1p((x0 - x) / (1.0 - x0))

    mode = (a - 1.0) / (a + b - 2.0)
    if x0 < mode:
        x1, x2 = x0, _bisect(log_ratio, mode, 1.0 - 1e-15)
    elif x0 > mode:
        x1, x2 = _bisect(log_ratio, 1e-15, mode), x0
    else:
        return float(a > 1.0)
    if a < 1.0:
        return _beta_tails(a, b, x2)[0] - _beta_tails(a, b, x1)[0]
    return _beta_tails(a, b, x1)[0] + _beta_tails(a, b, x2)[1]


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
        # statistics.median has np.median's bits without the numpy.ma import np.median
        # makes; imported here so that only the convergence experiment loads it
        import statistics

        out = []
        for n in sorted({r.n for r in self.rows}):
            rows = [r for r in self.rows if r.n == n]
            out.append((n, statistics.median([r.pvalue for r in rows]),
                        statistics.median([r.abs_error for r in rows])))
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
