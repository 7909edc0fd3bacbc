"""Prior-data conflict checks via the prior predictive of the counts.

The conflict p-value locates the observed counts within their prior
predictive distribution: predictive count vectors are simulated from the
prior, the predictive density is estimated for each by importance sampling,
and the p-value is the fraction with density estimates at or below the
observed one. Priors may be specified up to a normalization constant; the
constant cancels in the comparisons.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    CountVector,
    DirichletParams,
    TrineEllipse,
    log_dirichlet_pdf_array,
    log_dirichlet_pdf_from_logs,
    log_multinomial_pmf_array,
    logsumexp,
    ordered_from_weights_array,
    weights_from_ordered_array,
)
from .model_check import Strided
from .sampling import (
    RngStream,
    parallel_map,
    sample_dirichlet_array,
    sample_ordered_prior_array,
    sample_trine_prior_array,
)


class ProposalSupportError(RuntimeError):
    """All importance weights were zero: the proposal missed the support."""


# ---------------------------------------------------------------------------
# prior specifications
# ---------------------------------------------------------------------------
#
# Every prior provides the importance-sampling interface used below:
# ``proposal(t, tau)`` gives the proposal for counts t, ``importance_draws``
# returns (theta, log prior, log proposal) for draws from it, and
# ``tau_grid(n)`` lists the concentrations worth trying.

class _SimplexPrior:
    """Importance sampling for priors with a density on the probability simplex.

    The proposal is the Dirichlet with mode t/n and concentration tau.
    """

    def proposal(self, t: CountVector, tau: float) -> DirichletParams:
        return DirichletParams(1.0 + tau * (t.counts / t.n))

    def importance_draws(self, proposal: DirichletParams, size: int, gen):
        th = sample_dirichlet_array(proposal, size, gen)
        return th, self.log_density_array(th), log_dirichlet_pdf_array(th, proposal.alphas)

    def tau_grid(self, n):
        return (n,)


@dataclass(frozen=True)
class TrinePrior(_SimplexPrior):
    """Density proportional to (1 - (theta - c)^t C (theta - c))^(1/2) on the trine ellipse."""

    a: float

    @property
    def dim(self):
        return 3

    normalized = False

    def sample_array(self, size, rng):
        return sample_trine_prior_array(self.a, size, rng)

    @cached_property
    def region(self):
        return TrineEllipse(self.a)

    def log_density_array(self, thetas):
        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        q = self.region.quad_form_array(th[:, :2])
        ok = (q <= 1.0) & np.all(th > 0, axis=-1)
        out = np.full(th.shape[0], -np.inf)
        out[ok] = 0.5 * np.log1p(-q[ok])
        return out


@dataclass(frozen=True)
class RawDirichletPrior(_SimplexPrior):
    """Plain Dirichlet prior on the cell probabilities."""

    params: DirichletParams

    @property
    def dim(self):
        return len(self.params)

    normalized = True

    def sample_array(self, size, rng):
        return sample_dirichlet_array(self.params, size, rng)

    def log_density_array(self, thetas):
        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        return log_dirichlet_pdf_array(th, self.params.alphas)


@dataclass(frozen=True)
class OrderedDirichletPrior:
    """Prior on decreasing probability vectors induced by a Dirichlet on the weights.

    The weight-to-probability map is linear with constant Jacobian, so the
    induced density is the weight density times (k+1)! on the closed cone.
    """

    omega_params: DirichletParams

    @property
    def dim(self):
        return len(self.omega_params)

    normalized = True

    def sample_array(self, size, rng):
        return sample_ordered_prior_array(self.omega_params, size, rng)

    def log_density_array(self, thetas):
        from scipy.special import gammaln

        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        om = weights_from_ordered_array(th)
        ok = np.all(om > -1e-15, axis=-1)
        out = np.full(th.shape[0], -np.inf)
        if ok.any():
            omk = np.clip(om[ok], 0.0, None)
            out[ok] = (log_dirichlet_pdf_array(omk, self.omega_params.alphas)
                       + gammaln(self.dim + 1))
        return out

    def theta_mode(self):
        """Probability-space image of the weight mode; decreasing for every alpha.

        Weights with alpha_j < 1 get no mass (the weight density peaks at the
        face omega_j = 0), and a prior with no alpha_j > 1 anchors at the
        uniform vector.
        """
        excess = np.maximum(self.omega_params.alphas - 1.0, 0.0)
        tau = float(excess.sum())
        if tau <= 0:
            xi = np.zeros(self.dim)
            xi[-1] = 1.0
        else:
            xi = excess / tau
        return ordered_from_weights_array(xi)

    def proposal(self, t: CountVector, tau: float) -> DirichletParams:
        """Dirichlet on the weights, with the frequencies pulled into the cone toward the mode.

        Draws induced through the weights always stay in the cone.
        """
        mode = project_to_cone(t.counts / t.n, self.theta_mode())
        xi = np.clip(weights_from_ordered_array(mode), 0.0, None)
        xi = xi / xi.sum()
        return DirichletParams(1.0 + tau * xi)

    def importance_draws(self, proposal: DirichletParams, size: int, gen):
        """Draws made in weight space, where the linear-map Jacobians cancel in the ratio."""
        om = sample_dirichlet_array(proposal, size, gen)
        with np.errstate(divide="ignore"):
            log_om = np.log(om)
        return (ordered_from_weights_array(om),
                log_dirichlet_pdf_from_logs(log_om, self.omega_params.alphas),
                log_dirichlet_pdf_from_logs(log_om, proposal.alphas))

    def tau_grid(self, n):
        return np.geomspace(n / 100.0, n, 7)


# ---------------------------------------------------------------------------
# proposals
# ---------------------------------------------------------------------------

def project_to_cone(x, anchor):
    """Largest convex combination of ``x`` toward ``anchor`` inside the closed cone.

    Bisection on lambda in [0, 1] with theta = lambda x + (1 - lambda) anchor;
    the feasible set is an interval containing 0 since the anchor is in the
    closed cone. Returns the last feasible point.
    """
    x = np.asarray(x, dtype=float)
    anchor = np.asarray(anchor, dtype=float)

    def feasible(lam):
        v = lam * x + (1.0 - lam) * anchor
        return (v[:-1] >= v[1:]).all()

    if feasible(1.0):
        return x
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo * x + (1.0 - lo) * anchor


def proposal_for(t: CountVector, prior, tau: float) -> DirichletParams:
    """Importance proposal parameters for estimating the predictive mass of ``t``.

    The parameters are for the space ``prior.importance_draws`` samples in.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return prior.proposal(t, tau)


def _is_log_predictive(t, prior, proposal, n_is, rng):
    """Importance estimate of the log predictive mass of counts ``t``.

    Returns (log_m, se_log, ess).
    """
    t = np.asarray(t, dtype=float)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    th, log_prior, log_q = prior.importance_draws(proposal, n_is, gen)
    log_w = log_multinomial_pmf_array(t, th) + log_prior - log_q
    lse = logsumexp(log_w)
    if not np.isfinite(lse):
        return -np.inf, np.nan, 0.0
    lse2 = logsumexp(2.0 * log_w)
    log_m = lse - math.log(n_is)
    ess = float(np.exp(2.0 * lse - lse2))
    rel_var = max(n_is * math.exp(lse2 - 2.0 * lse) - 1.0, 0.0) / n_is
    return float(log_m), math.sqrt(rel_var), ess


def estimate_log_prior_predictive(t: CountVector, prior, proposal: DirichletParams,
                                  n_is: int, rng: RngStream):
    """Log predictive mass of ``t`` under ``prior`` by importance sampling.

    Returns (log_m, se) where se is the delta-method standard error of log_m.
    Unnormalized prior densities shift log_m by a constant, which cancels in
    conflict comparisons.
    """
    log_m, se, _ = _is_log_predictive(t.counts, prior, proposal, n_is, rng)
    if log_m == -np.inf:
        raise ProposalSupportError(
            f"all importance weights are zero for proposal {np.round(proposal.alphas, 3)}"
        )
    return log_m, se


# ---------------------------------------------------------------------------
# tau tuning
# ---------------------------------------------------------------------------

def tune_tau(t_repr: CountVector, prior, tau_grid, rng: RngStream,
             n_is: int = 2000):
    """Pick the proposal concentration maximizing effective sample size.

    The estimator is pilot-run on a representative count vector at each grid
    value; zero-weight values are excluded. Returns (tau, profile) with the
    profile a tuple of (tau, ess) pairs, or (tau, None) for a one-value grid,
    which needs no pilot run.
    """
    if len(tau_grid) == 0:
        raise ValueError("tau grid must be nonempty")
    if len(tau_grid) == 1:
        return float(tau_grid[0]), None
    profile = []
    for i, tau in enumerate(tau_grid):
        prop = proposal_for(t_repr, prior, float(tau))
        _, _, ess = _is_log_predictive(t_repr.counts, prior, prop, n_is,
                                       rng.substream(i))
        profile.append((float(tau), ess))
    live = [p for p in profile if p[1] > 0]
    if not live:
        raise ProposalSupportError("every tau in the grid produced all-zero weights")
    return max(live, key=lambda p: p[1])[0], tuple(profile)


# ---------------------------------------------------------------------------
# conflict p-value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConflictReport:
    pvalue: float
    n_predictive: int
    n_is: int
    tau: float
    log_m_obs: float
    se_obs: float
    log_m_pred: np.ndarray
    se_pred: np.ndarray
    ess_min: float
    ess_median: float
    n_failed: int
    unreliable: bool
    tau_profile: tuple = None


def conflict_pvalue(t_obs: CountVector, prior, n_pred: int, n_is: int,
                    rng: RngStream, tau: float = None,
                    predictive_counts=None, workers: int = 1) -> ConflictReport:
    """Prior predictive p-value of the observed counts.

    Draws ``n_pred`` predictive count vectors (or uses ``predictive_counts``),
    estimates each log predictive mass with its own proposal, and returns the
    fraction at or below the observed estimate. Estimation failures count as
    minus infinity and flag the report as unreliable above 1% of points.
    Without ``tau``, it is tuned over ``prior.tau_grid`` on the first
    predictive point. Points carry their own substreams, so results do not
    depend on ``workers``.
    """
    if n_pred < 1 or n_is < 1:
        raise ValueError(f"need n_pred >= 1 and n_is >= 1, got {n_pred} and {n_is}")
    n = t_obs.n
    if predictive_counts is None:
        gen = rng.substream(0).generator()
        t_pred = gen.multinomial(n, prior.sample_array(n_pred, gen))
    else:
        t_pred = np.asarray(predictive_counts)
        if t_pred.shape[0] != n_pred:
            raise ValueError("predictive_counts length must equal n_pred")
    tau_profile = None
    if tau is None:
        tau, tau_profile = tune_tau(CountVector(t_pred[0]), prior, prior.tau_grid(n),
                                    rng.substream(1), min(n_is, 4000))

    def estimate(t_arr, stream):
        prop = proposal_for(CountVector(t_arr), prior, tau)
        return _is_log_predictive(np.asarray(t_arr, dtype=float), prior, prop,
                                  n_is, stream)

    obs_stream = rng.substream(2)
    lm_obs, se_obs, ess_obs = estimate(t_obs.counts, obs_stream)
    results = parallel_map(lambda j: estimate(t_pred[j], rng.substream(3 + j)),
                           range(n_pred), workers)
    lm = np.array([r[0] for r in results])
    se = np.array([r[1] for r in results])
    ess = np.array([r[2] for r in results] + [ess_obs])
    n_failed = int(np.sum(~np.isfinite(lm))) + (0 if np.isfinite(lm_obs) else 1)
    pvalue = float(np.mean(lm <= lm_obs))
    return ConflictReport(
        pvalue=pvalue,
        n_predictive=n_pred,
        n_is=n_is,
        tau=float(tau),
        log_m_obs=float(lm_obs),
        se_obs=float(se_obs),
        log_m_pred=lm,
        se_pred=se,
        ess_min=float(ess.min()),
        ess_median=float(np.median(ess)),
        n_failed=n_failed,
        unreliable=n_failed > 0.01 * (n_pred + 1),
        tau_profile=tau_profile,
    )


# ---------------------------------------------------------------------------
# grouping support for elicited priors
# ---------------------------------------------------------------------------

def grouped_bounds(l: float, u: float, k: int, m: int):
    """Virtual-certainty interval for the strided m-group reduction.

    Group j collects cells {j, j+m, j+2m, ...}. Each extra member of the first
    group is capped by the decreasing-probabilities bound theta_i <= 1/i at
    position 1 + (j-1)m, raising the upper bound; the lower bound gains the
    cap values at the positions j*m of the last group's extra members. A
    singleton last group leaves the lower bound unchanged.
    """
    if not (0 <= l < u <= 1):
        raise ValueError(f"need 0 <= l < u <= 1, got ({l}, {u})")
    k1 = k + 1
    if not (1 <= m <= k1):
        raise ValueError(f"need 1 <= m <= {k1}")
    g_first = math.ceil(k1 / m)
    g_last = k1 // m
    u_red = u + sum(1.0 / (1 + (j - 1) * m) for j in range(2, g_first + 1))
    l_red = l + sum(1.0 / (j * m) for j in range(2, g_last + 1))
    return l_red, u_red


def predictive_in_region_rate(prior, spec, n: int, n_draws: int,
                              rng: RngStream) -> float:
    """Fraction of predictive draws whose grouped relative frequencies are decreasing."""
    gen = rng.generator()
    g = spec.group_array(gen.multinomial(n, prior.sample_array(n_draws, gen)))
    return float(np.mean(np.all(g[:, :-1] >= g[:, 1:], axis=-1)))


def reduce_ordered_prior(prior: OrderedDirichletPrior, m: int) -> OrderedDirichletPrior:
    """Surrogate elicited prior for the strided m-group problem.

    Keeps the elicited concentration and moves the mode to the grouped mode,
    so the reduced prior expresses the same information on the coarser scale.
    """
    spec = Strided(m, prior.dim)
    al = prior.omega_params.alphas
    tau = float((al - 1.0).sum())
    mode_red = spec.group_array(prior.theta_mode())
    mode_red = np.sort(mode_red)[::-1]
    xi_red = np.clip(weights_from_ordered_array(mode_red), 0.0, None)
    xi_red = xi_red / xi_red.sum()
    return OrderedDirichletPrior(DirichletParams(1.0 + tau * xi_red))


def grouped_conflict_check(t_obs: CountVector, prior: OrderedDirichletPrior,
                           m: int, n_pred: int, n_is: int, rng: RngStream,
                           tau: float = None) -> ConflictReport:
    """Conflict check of an elicited ordered prior on the strided m-group reduction.

    Predictive count vectors are drawn from the full prior and grouped (the
    grouped counts are multinomial in the grouped probabilities, so this is
    the exact reduced predictive); their masses are ranked under the surrogate
    reduced prior.
    """
    spec = Strided(m, len(t_obs))
    reduced = reduce_ordered_prior(prior, m)
    gen = rng.substream(0).generator()
    t_pred = spec.group_array(gen.multinomial(t_obs.n, prior.sample_array(n_pred, gen)))
    t_red = CountVector(spec.group_array(t_obs.counts))
    return conflict_pvalue(t_red, reduced, n_pred, n_is, rng.substream(1),
                           tau=tau, predictive_counts=t_pred)
