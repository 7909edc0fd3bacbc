"""Prior-data conflict checks via the prior predictive of the counts.

The conflict p-value locates the observed counts within their prior
predictive distribution: predictive count vectors are simulated from the
prior, the predictive mass of each is computed, and the p-value is the
fraction with masses at or below the observed one. A raw Dirichlet prior has
the masses in closed form, the trine prior by quadrature with an error
certificate, and the ordered prior by importance sampling. Priors may be
specified up to a normalization constant; the constant cancels in the
comparisons.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import (
    CountVector,
    DirichletParams,
    OrderedCone,
    TRINE_RULES,
    TrineEllipse,
    gammaln,
    group_counts,
    group_sums,
    log_dirichlet_multinomial,
    log_dirichlet_norm,
    log_dirichlet_pdf_array,
    logsumexp,
    median,
    ordered_mode,
    trine_log_integrals,
    weights_from_ordered_array,
)
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
# row; and ``importance_terms(draws, alphas, norm)`` takes one point's draws
# (n, K) from its proposal, with the proposal's parameters and
# ``log_dirichlet_norm`` value, and returns log theta cells by draws (K, n),
# which the caller may overwrite, with the log prior and log proposal
# densities (n,). A prior whose masses ``conflict_pvalue`` gets exactly
# instead has ``exact_log_predictive(ts, level)``, which returns the log
# masses of the count rows ``ts`` and an error certificate for each,
# ``exact_levels``, the number of levels it can refine to, and
# ``exact_method``, the name the report gives the masses; the ordered prior
# has ``tau_grid(n)``, the concentrations its tuning pilot tries.

def _log_dirichlet_by_cells(log_x, alphas, norm):
    """Dirichlet log densities of cells-by-draws logs ``log_x`` (K, n), cells added in order."""
    live = alphas != 1.0  # a cell with alpha 1 adds an exact zero, which changes no bit
    return norm + np.add.reduce((alphas[live, None] - 1.0) * log_x[live], axis=0)


class _SimplexPrior:
    """Importance sampling for priors with a density on the probability simplex.

    The proposal is the Dirichlet with mode t/n and concentration tau.
    """

    def proposal_alphas(self, counts, tau):
        return 1.0 + tau * (counts / counts.sum(axis=-1, keepdims=True))

    def importance_terms(self, draws, alphas, norm):
        """Draws are probabilities; the prior density comes from ``log_density_array``."""
        log_prior = self.log_density_array(draws)
        log_th = np.ascontiguousarray(draws.T)
        del draws  # lowers the peak memory by one array
        with np.errstate(divide="ignore"):
            np.log(log_th, out=log_th)
        return log_th, log_prior, _log_dirichlet_by_cells(log_th, alphas, norm)


class TrinePrior(_SimplexPrior):
    """Density proportional to (1 - (theta - c)^t C (theta - c))^(1/2) on the trine ellipse."""

    dim = 3
    normalized = False

    def __init__(self, a):
        self.a, self.region = a, TrineEllipse(a)

    def sample_array(self, size, rng):
        return sample_trine_prior_array(self.a, size, rng)

    def log_density_array(self, thetas):
        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        q = self.region.quad_form_array(th[:, :2])
        ok = q <= 1.0
        for cell in th.T:  # np.all over a 3-wide axis costs a call per row
            ok &= cell > 0
        out = np.full(th.shape[0], -np.inf)
        out[ok] = 0.5 * np.log1p(-q[ok])
        return out

    exact_method, exact_levels = "quadrature", len(TRINE_RULES) - 1

    def exact_log_predictive(self, ts, level=0):
        """Log predictive masses of the count rows ``ts`` by quadrature, with certificates.

        Each mass is ``core.trine_log_integrals`` of this density with the
        multinomial coefficient, so the prior enters only through
        ``log_density_array``, and a prior scaled by a constant gets masses
        shifted by its log. Level k takes rule k + 1 of ``TRINE_RULES``. Equal
        rows are computed once, so they get equal bits.
        """
        index = {}
        rows = [index.setdefault(key, len(index)) for key in map(tuple, np.asarray(ts).tolist())]
        t = np.array(list(index), dtype=float).reshape(len(index), 3)
        log_coef = gammaln(t.sum(axis=1) + 1) - gammaln(t + 1).sum(axis=1)
        log_m, cert = trine_log_integrals(t, self.region, self.log_density_array, log_coef, level)
        return log_m[rows], cert[rows]


class RawDirichletPrior(_SimplexPrior):
    """Plain Dirichlet prior on the cell probabilities; ``log_norm`` is its log normaliser."""

    normalized = True

    def __init__(self, params: DirichletParams):
        self.params, self.dim = params, len(params)
        self.log_norm = log_dirichlet_norm(params.alphas)

    def sample_array(self, size, rng):
        return sample_dirichlet_array(self.params, size, rng)

    def log_density_array(self, thetas):
        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        return log_dirichlet_pdf_array(th, self.params.alphas, self.log_norm)

    exact_method, exact_levels = "closed_form", 1

    def exact_log_predictive(self, ts, level=0):
        """Closed-form log predictive masses of the count rows ``ts``; certificates 0.

        Each row's counts are sorted within every class of equal alphas, which
        leaves its mass unchanged and gives rows that permute counts among
        equal alphas equal bits, so they rank as ties.
        """
        al = self.params.alphas
        t = np.array(ts, dtype=float)
        for a in set(al.tolist()):  # np.unique would import numpy.ma
            cls = al == a
            t[..., cls] = np.sort(t[..., cls], axis=-1)
        log_m = log_dirichlet_multinomial(t, al)
        return log_m, np.zeros_like(log_m)


class OrderedDirichletPrior:
    """Prior on decreasing probability vectors induced by a Dirichlet on the weights.

    The weight-to-probability map is linear with constant Jacobian, so the
    induced density is the weight density times (k+1)! on the closed cone.
    ``log_norm`` is the Dirichlet log normaliser of the weights.
    """

    normalized = True

    def __init__(self, omega_params: DirichletParams):
        self.omega_params, self.dim = omega_params, len(omega_params)
        self.log_norm = log_dirichlet_norm(omega_params.alphas)

    def sample_array(self, size, rng):
        return sample_ordered_prior_array(self.omega_params, size, rng)

    def proposal_alphas(self, counts, tau):
        """Dirichlet on the weights, with the frequencies pulled into the cone toward the mode.

        Draws induced through the weights always stay in the cone.
        """
        mode = project_to_cone(counts / counts.sum(axis=-1, keepdims=True),
                               ordered_mode(self.omega_params.alphas))
        xi = np.clip(weights_from_ordered_array(mode), 0.0, None)
        return 1.0 + tau * (xi / xi.sum(axis=-1, keepdims=True))

    def importance_terms(self, draws, alphas, norm):
        """Draws are weights, where the linear-map Jacobians cancel in the ratio.

        One log of the weights serves both densities. theta_i = sum_{j >= i}
        omega_j / j accumulates from the last cell, the order of the cumsum in
        ``ordered_from_weights_array``.
        """
        om = np.ascontiguousarray(draws.T)
        del draws  # lowers the peak memory by one array
        th = om / np.arange(1, om.shape[0] + 1, dtype=float)[:, None]
        for i in range(om.shape[0] - 2, -1, -1):
            th[i] += th[i + 1]
        with np.errstate(divide="ignore"):
            log_om, log_th = np.log(om, out=om), np.log(th, out=th)
        return (log_th, _log_dirichlet_by_cells(log_om, self.omega_params.alphas, self.log_norm),
                _log_dirichlet_by_cells(log_om, alphas, norm))

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
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return DirichletParams(prior.proposal_alphas(t.counts[None], tau)[0])


def _is_log_predictive(ts, prior, alphas, n_is, streams, workers=1):
    """Importance estimates of the log predictive masses of the count rows ``ts``.

    Row j draws ``n_is`` points from Dirichlet(alphas[j]) on its own stream
    ``streams[j]`` (an RngStream or a Generator), so its estimate is the same
    whichever worker computes it. The weights of a row are evaluated in a
    cells-by-draws layout, with the cells added in order. The log-gamma terms,
    every row's multinomial coefficient and proposal normaliser, are computed
    once, before the rows. Returns one (log_m, se_log, ess) per row,
    (-inf, nan, 0.0) where all weights are zero.
    """
    ts = np.asarray(ts, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    coefs = gammaln(ts.sum(axis=-1) + 1) - gammaln(ts + 1).sum(axis=-1)
    norms = log_dirichlet_norm(alphas)

    def point(j):
        # the draws go in unnamed, so importance_terms can free them early
        log_th, log_prior, log_q = prior.importance_terms(
            sample_dirichlet_array(DirichletParams(alphas[j]), n_is, streams[j]),
            alphas[j], norms[j])
        t = ts[j, :, None]
        with np.errstate(invalid="ignore"):
            terms = np.multiply(t, log_th, out=log_th)
        np.copyto(terms, 0.0, where=t == 0)
        # a coordinate that a proposal alpha < 1 underflows to 0 gives inf - inf:
        # such a draw counts as a zero weight
        with np.errstate(invalid="ignore"):
            log_w = coefs[j] + np.add.reduce(terms, axis=0) + log_prior - log_q
        np.copyto(log_w, -np.inf, where=np.isnan(log_w))
        lse = logsumexp(log_w)
        if not np.isfinite(lse):
            return -np.inf, np.nan, 0.0
        lse2 = logsumexp(2.0 * log_w)
        ess = float(np.exp(2.0 * lse - lse2))
        rel_var = max(n_is * math.exp(lse2 - 2.0 * lse) - 1.0, 0.0) / n_is
        return float(lse - math.log(n_is)), math.sqrt(rel_var), ess

    return parallel_map(point, range(ts.shape[0]), workers)


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
    value, grid value i on substream i; zero-weight values are excluded.
    Returns (tau, profile) with the profile a tuple of (tau, ess) pairs.
    """
    taus = [float(tau) for tau in tau_grid]
    if not taus or min(taus) <= 0:
        raise ValueError(f"tau grid must be nonempty and every tau > 0, got {taus}")
    alphas = prior.proposal_alphas(t_repr.counts[None], np.array(taus)[:, None])
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

class ConflictReport(NamedTuple):
    """The p-value and the masses behind it.

    ``method`` is "closed_form", "quadrature" or "importance_sampling". The
    se fields are the masses' error certificates for the first two and the
    delta-method standard errors for the last, which alone has effective
    sample sizes (``ess_min``/``ess_median``, else None) and uses ``tau``
    (the exact methods echo it).
    """

    pvalue: float
    tau: float
    log_m_obs: float
    se_obs: float
    log_m_pred: np.ndarray
    se_pred: np.ndarray
    ess_min: float
    ess_median: float
    n_failed: int
    unreliable: bool
    method: str
    tau_profile: tuple = None


def conflict_pvalue(t_obs: CountVector, prior, n_pred: int, n_is: int,
                    rng: RngStream, tau: float = None,
                    predictive_counts=None, workers: int = 1) -> ConflictReport:
    """Prior predictive p-value of the observed counts.

    Draws ``n_pred`` predictive count vectors (or uses ``predictive_counts``),
    computes each log predictive mass, and returns the fraction at or below
    the observed one. A prior with ``exact_log_predictive`` gives the masses
    with error certificates (see ``_exact_masses``); it draws no stream but
    the predictive counts' substream 0 and ignores ``n_is`` and ``tau``;
    the report echoes ``tau`` (n when not given).

    Otherwise each mass is estimated by importance sampling with its own
    proposal. Estimation failures count as minus infinity and flag the report
    as unreliable above 1% of points. Without ``tau``, it is tuned over
    ``prior.tau_grid`` on the first predictive point. The proposals of all
    points are built at once. Each point then draws on its own substream (the
    observed counts on 2, predictive point j on 3 + j), and its importance
    weights are evaluated on their own (see ``_is_log_predictive``), with
    ``workers`` threads sharing the points, so results do not depend on
    ``workers``.
    """
    if n_pred < 1 or n_is < 1:
        raise ValueError(f"need n_pred >= 1 and n_is >= 1, got {n_pred} and {n_is}")
    if tau is not None and tau <= 0:
        raise ValueError("tau must be > 0")
    if prior.dim != len(t_obs):
        raise ValueError(f"prior has {prior.dim} cells, counts have {len(t_obs)}")
    n = t_obs.n
    if predictive_counts is None:
        gen = rng.substream(0).generator()
        t_pred = gen.multinomial(n, prior.sample_array(n_pred, gen))
    else:
        t_pred = np.asarray(predictive_counts)
        if t_pred.shape[0] != n_pred:
            raise ValueError("predictive_counts length must equal n_pred")
    ts = np.vstack([t_obs.counts, t_pred])
    tau_profile = None
    if hasattr(prior, "exact_log_predictive"):
        lm, se, unresolved = _exact_masses(ts, prior)
        method = prior.exact_method
        ess_min = ess_median = None
        tau = float(n) if tau is None else tau
    else:
        if tau is None:
            tau, tau_profile = tune_tau(CountVector(t_pred[0]), prior, prior.tau_grid(n),
                                        rng.substream(1), min(n_is, 4000))
        streams = [rng.substream(2)] + [rng.substream(3 + j) for j in range(n_pred)]
        results = _is_log_predictive(ts, prior, prior.proposal_alphas(ts, tau), n_is, streams,
                                     workers)
        lm, se, ess = (np.array(col) for col in zip(*results))
        method, unresolved = "importance_sampling", False
        ess_min, ess_median = float(ess.min()), float(median(ess))
    n_failed = int(np.sum(~np.isfinite(lm)))
    return ConflictReport(
        pvalue=float(np.mean(lm[1:] <= lm[0])),
        tau=float(tau),
        log_m_obs=float(lm[0]),
        se_obs=float(se[0]),
        log_m_pred=lm[1:],
        se_pred=se[1:],
        ess_min=ess_min,
        ess_median=ess_median,
        n_failed=n_failed,
        unreliable=unresolved or n_failed > 0.01 * (n_pred + 1),
        method=method,
        tau_profile=tau_profile,
    )


def _exact_masses(ts, prior):
    """Log masses of the count rows ``ts`` (observed first), certificates, and whether a rank is open.

    Every row whose interval log m +- certificate meets the observed one is
    refined, with the observed row, up to ``prior.exact_levels``. A row equal
    to the observed counts gets the observed mass bit for bit, so it ranks as
    a tie, and so does a row whose mass equals it with both certificates 0;
    any other row that still meets the observed interval leaves its rank open.
    """
    lm, cert = prior.exact_log_predictive(ts)
    tie = np.all(ts == ts[0], axis=1)
    for level in range(1, prior.exact_levels + 1):
        near = np.abs(lm - lm[0]) <= cert + cert[0]
        open_ = near & ~tie & (cert + cert[0] > 0)
        if level == prior.exact_levels or not open_.any():
            return lm, cert, bool(open_.any())
        lm[near], cert[near] = prior.exact_log_predictive(ts[near], level)


# ---------------------------------------------------------------------------
# grouping support for elicited priors
# ---------------------------------------------------------------------------

def grouped_bounds(l: float, u: float, labels):
    """Virtual-certainty interval for the strided reduction with group ``labels``.

    Group j collects cells {j, j+m, j+2m, ...}. Each extra member of the first
    group is capped by the decreasing-probabilities bound theta_i <= 1/i at
    its position i, raising the upper bound; the lower bound gains the cap
    values at the positions of the last group's extra members. A singleton
    last group leaves the lower bound unchanged.
    """
    if not (0 <= l < u <= 1):
        raise ValueError(f"need 0 <= l < u <= 1, got ({l}, {u})")
    first, last = ([i + 1 for i, g in enumerate(labels) if g == group]
                   for group in (0, max(labels)))
    return l + sum(1.0 / i for i in last[1:]), u + sum(1.0 / i for i in first[1:])


def predictive_in_region_rate(prior, labels, n: int, n_draws: int,
                              rng: RngStream) -> float:
    """Fraction of predictive draws whose grouped relative frequencies are decreasing."""
    gen = rng.generator()
    g = group_sums(gen.multinomial(n, prior.sample_array(n_draws, gen)), labels)
    return float(np.mean(OrderedCone(g.shape[-1]).contains_array(g)))


def reduce_ordered_prior(prior: OrderedDirichletPrior, labels) -> OrderedDirichletPrior:
    """Surrogate elicited prior for the strided reduction with group ``labels``.

    Keeps the elicited concentration and moves the mode to the grouped mode,
    so the reduced prior expresses the same information on the coarser scale.
    """
    al = prior.omega_params.alphas
    tau = float((al - 1.0).sum())
    mode_red = group_sums(ordered_mode(al), labels)  # decreasing, see group_counts
    xi_red = np.clip(weights_from_ordered_array(mode_red), 0.0, None)
    xi_red = xi_red / xi_red.sum()
    return OrderedDirichletPrior(DirichletParams(1.0 + tau * xi_red))


def grouped_conflict_check(t_obs: CountVector, prior: OrderedDirichletPrior,
                           labels, n_pred: int, n_is: int, rng: RngStream,
                           tau: float = None, workers: int = 1) -> ConflictReport:
    """Conflict check of an elicited ordered prior on the strided reduction with group ``labels``.

    Predictive count vectors are drawn from the full prior and grouped (the
    grouped counts are multinomial in the grouped probabilities, so this is
    the exact reduced predictive); their masses are ranked under the surrogate
    reduced prior.
    """
    if prior.dim != len(t_obs):
        raise ValueError(f"prior has {prior.dim} cells, counts have {len(t_obs)}")
    t_red = group_counts(t_obs, labels)
    reduced = reduce_ordered_prior(prior, labels)
    gen = rng.substream(0).generator()
    t_pred = group_sums(gen.multinomial(t_obs.n, prior.sample_array(n_pred, gen)), labels)
    return conflict_pvalue(t_red, reduced, n_pred, n_is, rng.substream(1),
                           tau=tau, predictive_counts=t_pred, workers=workers)
