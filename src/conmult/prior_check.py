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
    _row_sums,
    gammaln,
    log_dirichlet_norm,
    log_dirichlet_pdf_array,
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
# ``proposal_alphas(counts, tau)`` gives the Dirichlet proposal of each count
# row; ``importance_terms(draws, alphas, norms)`` takes a block of points'
# draws (B, n, K) from their proposals, with the proposals' parameters and
# ``log_dirichlet_norm`` values, and returns log theta cells by draws
# (K, B, n), which the caller may overwrite, with the log prior and log
# proposal densities (B, n); and ``tau_grid(n)`` lists the concentrations
# worth trying.

def _log_dirichlet_by_cells(log_x, alphas, norm):
    """Dirichlet log densities of cells-by-draws logs ``log_x`` (K, B, n).

    Point b's draws are scored under ``alphas[b]``, with normaliser
    ``norm[b]`` (or under one shared 1-D ``alphas`` and scalar ``norm``); each
    value is bitwise ``log_dirichlet_pdf_array`` of that point's
    draws-by-cells array.
    """
    al = np.atleast_2d(alphas).T[:, :, None]
    with np.errstate(invalid="ignore"):
        terms = (al - 1.0) * log_x
    np.copyto(terms, 0.0, where=al == 1.0)  # no 0 * log 0
    return np.reshape(norm, (-1, 1)) + _row_sums(terms)


class _SimplexPrior:
    """Importance sampling for priors with a density on the probability simplex.

    The proposal is the Dirichlet with mode t/n and concentration tau.
    """

    def proposal_alphas(self, counts, tau):
        return 1.0 + tau * (counts / counts.sum(axis=-1, keepdims=True))

    def importance_terms(self, draws, alphas, norms):
        """Draws are probabilities; the prior density comes from ``log_density_array``."""
        b, n, k1 = draws.shape
        log_prior = self.log_density_array(draws.reshape(-1, k1)).reshape(b, n)
        log_th = np.ascontiguousarray(draws.transpose(2, 0, 1))
        del draws  # lowers the block's peak memory by one array
        with np.errstate(divide="ignore"):
            np.log(log_th, out=log_th)
        return log_th, log_prior, _log_dirichlet_by_cells(log_th, alphas, norms)

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
        ok = q <= 1.0
        for cell in th.T:  # np.all over a 3-wide axis costs a call per row
            ok &= cell > 0
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

    @cached_property
    def log_norm(self):
        """Dirichlet log normaliser of the probabilities."""
        return log_dirichlet_norm(self.params.alphas)

    def log_density_array(self, thetas):
        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        return log_dirichlet_pdf_array(th, self.params.alphas, self.log_norm)


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

    @cached_property
    def log_norm(self):
        """Dirichlet log normaliser of the weights."""
        return log_dirichlet_norm(self.omega_params.alphas)

    def log_density_array(self, thetas):
        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        om = weights_from_ordered_array(th)
        ok = np.all(om > -1e-15, axis=-1)
        out = np.full(th.shape[0], -np.inf)
        if ok.any():
            omk = np.clip(om[ok], 0.0, None)
            out[ok] = (log_dirichlet_pdf_array(omk, self.omega_params.alphas, self.log_norm)
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

    def proposal_alphas(self, counts, tau):
        """Dirichlet on the weights, with the frequencies pulled into the cone toward the mode.

        Draws induced through the weights always stay in the cone.
        """
        mode = project_to_cone(counts / counts.sum(axis=-1, keepdims=True), self.theta_mode())
        xi = np.clip(weights_from_ordered_array(mode), 0.0, None)
        return 1.0 + tau * (xi / xi.sum(axis=-1, keepdims=True))

    def importance_terms(self, draws, alphas, norms):
        """Draws are weights, where the linear-map Jacobians cancel in the ratio.

        One log of the weights serves both densities. theta_i = sum_{j >= i}
        omega_j / j accumulates from the last cell, the order of the cumsum in
        ``ordered_from_weights_array``.
        """
        om = np.ascontiguousarray(draws.transpose(2, 0, 1))
        del draws  # lowers the block's peak memory by one array
        th = om / np.arange(1, om.shape[0] + 1, dtype=float)[:, None, None]
        for i in range(om.shape[0] - 2, -1, -1):
            th[i] += th[i + 1]
        with np.errstate(divide="ignore"):
            log_om, log_th = np.log(om, out=om), np.log(th, out=th)
        return (log_th, _log_dirichlet_by_cells(log_om, self.omega_params.alphas, self.log_norm),
                _log_dirichlet_by_cells(log_om, alphas, norms))

    def tau_grid(self, n):
        return np.geomspace(n / 100.0, n, 7)


# ---------------------------------------------------------------------------
# proposals
# ---------------------------------------------------------------------------

def project_to_cone(x, anchor):
    """Largest convex combination of ``x`` toward ``anchor`` inside the closed cone.

    Bisection on lambda in [0, 1] with theta = lambda x + (1 - lambda) anchor;
    the feasible set is an interval containing 0 since the anchor is in the
    closed cone. Returns the last feasible point, and ``x`` itself when it is
    in the cone. ``x`` may be one vector or a 2-D array of rows; all rows
    bisect together, each with the midpoints and test a single row would see.
    """
    x = np.asarray(x, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    rows = np.atleast_2d(x)

    def feasible(lam, pts):
        v = lam[:, None] * pts + (1.0 - lam[:, None]) * anchor
        return (v[:, :-1] >= v[:, 1:]).all(axis=-1)

    out = rows.copy()
    need = np.flatnonzero(~feasible(np.ones(rows.shape[0]), rows))
    if need.size:
        v = rows[need]
        lo, hi = np.zeros(need.size), np.ones(need.size)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            ok = feasible(mid, v)
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        out[need] = lo[:, None] * v + (1.0 - lo[:, None]) * anchor
    return out.reshape(x.shape)


def proposal_for(t: CountVector, prior, tau: float) -> DirichletParams:
    """Importance proposal parameters for estimating the predictive mass of ``t``.

    The parameters are for the space ``prior.importance_terms`` scores draws in.
    """
    return DirichletParams(_proposal_alphas(t.counts[None], prior, tau)[0])


def _proposal_alphas(counts, prior, tau):
    """Proposal parameters of every count row; ``tau`` is a scalar or a column."""
    if np.any(np.asarray(tau) <= 0):
        raise ValueError("tau must be > 0")
    return prior.proposal_alphas(np.asarray(counts), tau)


# temporaries of one block of importance-sampled points stay near this many
# float64 entries (256 KB); larger blocks ran slower and raised the peak RSS
IS_BLOCK_ENTRIES = 1 << 15


def _is_log_predictive(ts, prior, alphas, n_is, streams, workers=1):
    """Importance estimates of the log predictive masses of the count rows ``ts``.

    Row j draws ``n_is`` points from Dirichlet(alphas[j]) on its own stream
    ``streams[j]`` (an RngStream or a Generator), so its estimate is the same
    whichever block and worker compute it. The weights of a block of rows are
    evaluated together in a cells-by-draws layout; the cell sums go through
    ``_row_sums`` and the log-sum-exps through the row-wise ``logsumexp``, so
    every value is bitwise the single-row computation. The log-gamma terms,
    every row's multinomial coefficient and proposal normaliser, are computed
    once, before the blocks. Returns one (log_m, se_log, ess) per row,
    (-inf, nan, 0.0) where all weights are zero.
    """
    ts = np.asarray(ts, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    size = max(1, IS_BLOCK_ENTRIES // (n_is * ts.shape[1]))
    coefs = gammaln(ts.sum(axis=-1) + 1) - gammaln(ts + 1).sum(axis=-1)
    norms = log_dirichlet_norm(alphas)

    def block(start):
        rows = slice(start, start + size)
        t, al = ts[rows], alphas[rows]
        # the draws go in unnamed, so importance_terms can free them early
        log_th, log_prior, log_q = prior.importance_terms(
            np.stack([sample_dirichlet_array(DirichletParams(a), n_is, s)
                      for a, s in zip(al, streams[rows])]), al, norms[rows])
        tc = t.T[:, :, None]
        with np.errstate(invalid="ignore"):
            terms = np.multiply(tc, log_th, out=log_th)
        np.copyto(terms, 0.0, where=tc == 0)
        # a coordinate that a proposal alpha < 1 underflows to 0 gives inf - inf:
        # such a draw counts as a zero weight
        with np.errstate(invalid="ignore"):
            log_w = coefs[rows, None] + _row_sums(terms) + log_prior - log_q
        np.copyto(log_w, -np.inf, where=np.isnan(log_w))
        return zip(logsumexp(log_w), logsumexp(2.0 * log_w))

    out = []
    for part in parallel_map(block, range(0, ts.shape[0], size), workers):
        for lse, lse2 in part:
            if not np.isfinite(lse):
                out.append((-np.inf, np.nan, 0.0))
                continue
            ess = float(np.exp(2.0 * lse - lse2))
            rel_var = max(n_is * math.exp(lse2 - 2.0 * lse) - 1.0, 0.0) / n_is
            out.append((float(lse - math.log(n_is)), math.sqrt(rel_var), ess))
    return out


def estimate_log_prior_predictive(t: CountVector, prior, proposal: DirichletParams,
                                  n_is: int, rng: RngStream):
    """Log predictive mass of ``t`` under ``prior`` by importance sampling.

    Returns (log_m, se) where se is the delta-method standard error of log_m.
    Unnormalized prior densities shift log_m by a constant, which cancels in
    conflict comparisons.
    """
    [(log_m, se, _)] = _is_log_predictive(t.counts[None], prior, proposal.alphas[None],
                                          n_is, [rng])
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
    value, grid value i on substream i, as one block; zero-weight values are
    excluded. Returns (tau, profile) with the profile a tuple of (tau, ess)
    pairs, or (tau, None) for a one-value grid, which needs no pilot run.
    """
    if len(tau_grid) == 0:
        raise ValueError("tau grid must be nonempty")
    if len(tau_grid) == 1:
        return float(tau_grid[0]), None
    taus = [float(tau) for tau in tau_grid]
    alphas = _proposal_alphas(t_repr.counts[None], prior, np.array(taus)[:, None])
    results = _is_log_predictive(np.broadcast_to(t_repr.counts, alphas.shape), prior,
                                 alphas, n_is, [rng.substream(i) for i in range(len(taus))])
    profile = [(tau, ess) for tau, (_, _, ess) in zip(taus, results)]
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
    predictive point.

    The proposals of all points are built at once. Each point then draws on
    its own substream (the observed counts on 2, predictive point j on 3 + j),
    and the importance weights are evaluated for a block of points at a time
    (see ``_is_log_predictive``), with ``workers`` threads sharing the blocks.
    Every estimate has the bits of a point-by-point evaluation, so results do
    not depend on the block size or on ``workers``.
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
    ts = np.vstack([t_obs.counts, t_pred])
    streams = [rng.substream(2)] + [rng.substream(3 + j) for j in range(n_pred)]
    results = _is_log_predictive(ts, prior, _proposal_alphas(ts, prior, tau), n_is,
                                 streams, workers)
    lm_obs, se_obs, _ = results[0]
    lm = np.array([r[0] for r in results[1:]])
    se = np.array([r[1] for r in results[1:]])
    ess = np.array([r[2] for r in results])
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
    mode_red = spec.group_array(prior.theta_mode())  # decreasing, see group_counts
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
