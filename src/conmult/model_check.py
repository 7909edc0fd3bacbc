"""Relative-belief model checks for constrained multinomials.

Two flavors: a direct check of a positive-prior-mass region (posterior vs
prior content under the flat Dirichlet reference), and a distance-based check
against the Zipf-Mandelbrot family for hypotheses of prior mass zero.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CountVector,
    DirichletParams,
    MeasureZeroRegionError,
    OrderedCone,
    TrineEllipse,
    _row_sums,
    trine_prior_mass,
    zm_log_probs_array,
)
from .sampling import RngStream, chunked_monte_carlo, sample_dirichlet_array


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grouping:
    """Partition of the cells into groups: ``labels[i]`` is the group of cell i.

    Groups are numbered 0, 1, ... in the order they are reported.
    """

    labels: tuple

    @property
    def n_cells(self):
        return len(self.labels)

    @property
    def n_groups(self):
        return max(self.labels) + 1

    def group_array(self, t):
        """Group sums along the last axis; members are added in cell order."""
        t = np.asarray(t)
        labels = np.asarray(self.labels)
        return np.stack([t[..., labels == g].sum(axis=-1) for g in range(self.n_groups)],
                        axis=-1)


def consecutive_blocks(n_cells: int, n_groups: int) -> Grouping:
    """Equal consecutive blocks covering ``n_cells``, the last one possibly smaller."""
    if n_groups < 1:
        raise ValueError(f"need at least one group, got {n_groups}")
    g = math.ceil(n_cells / n_groups)
    last = n_cells - g * (n_groups - 1)
    if last < 1:
        raise ValueError(
            f"{n_cells} cells cannot form {n_groups} equal consecutive blocks"
        )
    return Grouping(tuple(i // g for i in range(n_cells)))


def Strided(m: int, n_cells: int) -> Grouping:
    """Partition of 1..k+1 into m groups {j, j+m, j+2m, ...}; group sizes are non-increasing."""
    if not (1 <= m <= n_cells):
        raise ValueError(f"need 1 <= m <= {n_cells}, got m={m}")
    return Grouping(tuple(i % m for i in range(n_cells)))


def group_counts(t: CountVector, spec) -> CountVector:
    """Aggregate counts by an order-preserving group layout.

    Both layouts provably preserve decreasing order: consecutive equal blocks
    (with a possibly smaller last block) compare componentwise, and strided
    groups have non-increasing sizes with componentwise-dominating members.
    """
    if spec.n_cells != len(t):
        raise ValueError(f"group layout covers {spec.n_cells} cells, counts have {len(t)}")
    return CountVector(spec.group_array(t.counts))


# ---------------------------------------------------------------------------
# region check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    prior_prob: float
    post_prob: float
    rb: float
    strength: float
    mc_se: float
    n_draws: int
    prior_prob_analytic: bool = True

    def verdict(self) -> str:
        """Return "favor", "against", or "undefined" after zero hits in a too-small region.

        With no posterior draw in the region its posterior content is only
        bounded by the rule-of-three 3 / n_draws; when the prior content is at
        or below that bound, the ratio may lie on either side of 1.
        """
        if self.post_prob == 0.0 and 3.0 / self.n_draws >= self.prior_prob:
            return "undefined"
        return "favor" if self.rb > 1 else "against"


def analytic_prior_prob(region):
    """Flat-prior mass of a region when a closed form exists, else None."""
    if isinstance(region, TrineEllipse):
        return trine_prior_mass(region.a)
    if isinstance(region, OrderedCone):
        return 1.0 / math.factorial(region.dim)
    return None


def _region_fraction(region, alphas: DirichletParams, n_draws, rng, workers):
    def chunk(stream, m):
        th = sample_dirichlet_array(alphas, m, stream)
        return int(region.contains_array(th).sum())

    hits = chunked_monte_carlo(chunk, n_draws, rng, workers=workers)
    return sum(hits) / n_draws


def rb_region_check(t: CountVector, region, n_draws: int, rng: RngStream,
                    workers: int = 1) -> CheckReport:
    """Relative belief ratio of a constraint region under the flat reference prior.

    Posterior content is the fraction of Dirichlet(t+1) draws inside the
    region; prior content is analytic where available, otherwise estimated
    under Dirichlet(1, ..., 1). Strength is reported as the posterior content.
    """
    if len(t) != region.dim:
        raise ValueError(f"region has dimension {region.dim}, counts have {len(t)}")
    prior = analytic_prior_prob(region)
    analytic = prior is not None
    if not analytic:
        prior = _region_fraction(
            region, DirichletParams(np.ones(region.dim)), n_draws, rng.substream(1), workers
        )
    if prior == 0.0:
        raise MeasureZeroRegionError(
            "region has zero prior mass under the flat prior (equality constraints); "
            "use rb_distance_check instead"
        )
    post_alphas = DirichletParams(t.counts + 1.0)
    post = _region_fraction(region, post_alphas, n_draws, rng.substream(0), workers)
    se = math.sqrt(post * (1.0 - post) / n_draws)
    return CheckReport(
        prior_prob=prior,
        post_prob=post,
        rb=post / prior,
        strength=post,
        mc_se=se,
        n_draws=n_draws,
        prior_prob_analytic=analytic,
    )


def rb_grouped_check(t: CountVector, spec, n_draws: int, rng: RngStream,
                     workers: int = 1) -> CheckReport:
    """Ordered-probabilities check after grouping cells.

    The grouped counts are treated as a fresh multinomial on m cells with the
    flat reference prior, so the posterior is Dirichlet(grouped counts + 1)
    and the prior content of the ordered cone is 1/m!.
    """
    grouped = group_counts(t, spec)
    return rb_region_check(grouped, OrderedCone(dim=len(grouped)), n_draws, rng, workers)


# ---------------------------------------------------------------------------
# Zipf-Mandelbrot table and KL projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaGrid:
    """Grid specification for the ZM table."""

    beta_min: float = 0.05
    beta_max: float = 25.0
    n_beta: int = 60
    n_alpha: int = 24
    alpha_min: float = -0.95

    def betas(self):
        return np.geomspace(self.beta_min, self.beta_max, self.n_beta)


def kl_uniform_to_zm(alpha, beta, k1):
    """KL(uniform || ZM(alpha, beta)) on k1 cells; the redundancy measure."""
    lp = zm_log_probs_array(alpha, beta, k1)
    return np.mean(-np.log(k1) - lp, axis=-1)


def alpha_upper_bounds(betas, delta: float, k1: int):
    """Largest alpha at which ZM(alpha, beta) is still delta-distinguishable from uniform.

    Per beta, doubling then bisection on KL(uniform || ZM), which decays to 0
    as alpha grows; the returned point satisfies delta <= KL <= delta * (1 + 1e-6).
    All betas step together and each stops at its own rule, so every entry is
    the value a scalar search would reach. NaN where the whole beta-line is
    within delta of uniform (or beta <= 0).
    """
    betas = np.asarray(betas, dtype=float)
    lo = np.full(betas.shape, -1.0 + 1e-9)
    hi = np.ones(betas.shape)
    kl_lo = kl_uniform_to_zm(lo, betas, k1)
    live = (betas > 0) & ~(kl_lo < delta)
    idx = np.flatnonzero(live)
    while idx.size:
        idx = idx[kl_uniform_to_zm(hi[idx], betas[idx], k1) >= delta]
        hi[idx] *= 2.0
        live[idx[hi[idx] > 1e12]] = False
        idx = idx[live[idx]]
    idx = np.flatnonzero(live)
    for _ in range(200):
        idx = idx[~(kl_lo[idx] <= delta * (1 + 1e-6))]
        if not idx.size:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        kl_mid = kl_uniform_to_zm(mid, betas[idx], k1)
        up = kl_mid >= delta
        lo[idx[up]], kl_lo[idx[up]] = mid[up], kl_mid[up]
        hi[idx[~up]] = mid[~up]
    return np.where(live, lo, np.nan)


# rows of thetas scanned against the table at once; bounds the scan matrix
# at ZM_SCAN_ROWS x table entries
ZM_SCAN_ROWS = 1024


@dataclass(frozen=True)
class ZmTable:
    """Tabulated ZM distributions used to seed the KL projection."""

    k: int
    params: np.ndarray = field(repr=False)      # (E, 2) alpha, beta
    log_probs: np.ndarray = field(repr=False)   # (E, k+1)

    @property
    def n_entries(self):
        return self.params.shape[0]


def build_zm_table(k: int, delta: float, grid: BetaGrid = BetaGrid(),
                   cache_dir=None) -> ZmTable:
    """Build the ZM table for k+1 cells at resolution delta.

    One uniform entry for beta = 0, then per grid beta an alpha sweep from
    alpha_min up to the delta-redundancy bound. The table builds in about
    4 ms (18 cells, delta = 0.02, one core), so nothing is cached;
    ``cache_dir`` is accepted for older callers and ignored.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if grid.n_beta < 1 or grid.n_alpha < 1:
        raise ValueError("empty grid")
    k1 = k + 1
    rows = [(0.0, 0.0)]
    betas = grid.betas()
    for beta, amax in zip(betas, alpha_upper_bounds(betas, delta, k1)):
        if not amax > grid.alpha_min:
            continue
        # geometric in 1 + alpha: the admissible range spans orders of magnitude
        sweep = np.geomspace(1.0 + grid.alpha_min, 1.0 + amax, grid.n_alpha) - 1.0
        rows.extend((float(a), float(beta)) for a in sweep)
    params = np.array(rows)
    log_probs = zm_log_probs_array(params[:, 0], params[:, 1], k1)
    return ZmTable(k=k, params=params, log_probs=log_probs)


def zm_distance_batch(thetas, table: ZmTable, refine: bool = True,
                      n_iters: int = 50, step_alpha: float = 0.5,
                      step_beta: float = 0.1):
    """KL distance from each row of ``thetas`` to the ZM family.

    Table scan first, then coordinate-wise pattern search with step halving
    from the best entry. Returns (distances, alphas, betas).

    The search works on cells-by-draws arrays, so every broadcast runs along
    contiguous rows, and caches log(alpha + i) for the beta moves. Each step
    computes the same values as ``zm_log_probs_array`` and a per-draw sum;
    ``_row_sums`` adds the cells in numpy's order, so the results are bitwise
    those of the plain draws-by-cells form.
    """
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    k1 = th.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_ent = np.sum(np.where(th > 0, th * np.log(th), 0.0), axis=1)
    j = np.empty(th.shape[0], dtype=np.intp)
    best = np.empty(th.shape[0])
    # one scan buffer for all blocks: a fresh ~12 MB matrix per block let the
    # heap layout, down to the output path's length, move the peak RSS by ~5 MB
    scan = np.empty((min(th.shape[0], ZM_SCAN_ROWS), table.n_entries))
    for start in range(0, th.shape[0], ZM_SCAN_ROWS):
        rows = slice(start, start + ZM_SCAN_ROWS)
        dists = np.matmul(th[rows], table.log_probs.T, out=scan[:len(neg_ent[rows])])
        np.subtract(neg_ent[rows, None], dists, out=dists)
        j[rows] = np.argmin(dists, axis=1)
        best[rows] = dists[np.arange(dists.shape[0]), j[rows]]
    alpha = table.params[j, 0].copy()
    beta = table.params[j, 1].copy()
    if not refine:
        return best, alpha, beta

    th_t = np.ascontiguousarray(th.T)
    cells = np.arange(1, k1 + 1, dtype=float)[:, None]
    log_ai = np.log(alpha + cells)
    log_trial = np.empty_like(th_t)
    lp = np.empty_like(th_t)
    work = np.empty_like(th_t)

    def kl_at(b, log_a):
        # -b log(alpha + i) falls in i, so row 0 is the log-sum-exp shift
        np.multiply(-b, log_a, out=lp)
        np.subtract(lp, lp[0], out=work)
        np.exp(work, out=work)
        np.subtract(lp, lp[0] + np.log(_row_sums(work)), out=lp)
        np.multiply(lp, th_t, out=lp)
        return neg_ent - _row_sums(lp)

    sa = np.full(th.shape[0], step_alpha)
    sb = np.full(th.shape[0], step_beta)
    for _ in range(n_iters):
        improved = np.zeros(th.shape[0], dtype=bool)
        for sign in (1, -1):
            a2 = np.maximum(alpha + sign * sa, -1.0 + 1e-9)
            np.log(np.add(a2, cells, out=log_trial), out=log_trial)
            val = kl_at(beta, log_trial)
            gain = val < best
            np.copyto(alpha, a2, where=gain)
            np.copyto(best, val, where=gain)
            cols = np.flatnonzero(gain)
            log_ai[:, cols] = log_trial[:, cols]
            improved |= gain
        for sign in (1, -1):
            b2 = np.maximum(beta + sign * sb, 0.0)
            val = kl_at(b2, log_ai)
            gain = val < best
            np.copyto(beta, b2, where=gain)
            np.copyto(best, val, where=gain)
            improved |= gain
        sa[~improved] *= 0.5
        sb[~improved] *= 0.5
    return np.maximum(best, 0.0), alpha, beta


# ---------------------------------------------------------------------------
# distance check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceCheckReport:
    rb_zero: float
    strength: float
    prior_hist: np.ndarray
    post_hist: np.ndarray
    delta: float
    n_draws: int
    prior_first_bin_empty: bool

    def verdict(self) -> str:
        """Return "favor", "against", or "undefined" when the first prior bin is empty."""
        if not np.isfinite(self.rb_zero):
            return "undefined"
        return "favor" if self.rb_zero > 1 else "against"


def _distance_sample(alphas, table, n_draws, rng, workers):
    def chunk(stream, m):
        th = sample_dirichlet_array(alphas, m, stream)
        d, _, _ = zm_distance_batch(th, table)
        return d

    return np.concatenate(
        chunked_monte_carlo(chunk, n_draws, rng, workers=workers, chunk_size=10_000)
    )


def rb_distance_check(t: CountVector, delta: float, table: ZmTable,
                      n_draws: int, rng: RngStream, workers: int = 1) -> DistanceCheckReport:
    """Distance-based check of the ZM hypothesis via the family KL distance.

    Samples the distance under the flat prior and under the Dirichlet(t+1)
    posterior, bins both on [0, delta), [delta, 2 delta), ..., and compares
    first-bin contents. When no prior draw lands in the first bin the ratio is
    undefined and the report is flagged; more draws may resolve it.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if len(t) != table.k + 1:
        raise ValueError(f"table is for {table.k + 1} cells, counts have {len(t)}")
    k1 = len(t)
    d_prior = _distance_sample(DirichletParams(np.ones(k1)), table,
                               n_draws, rng.substream(0), workers)
    d_post = _distance_sample(DirichletParams(t.counts + 1.0), table,
                              n_draws, rng.substream(1), workers)
    n_bins = int(max(d_prior.max(), d_post.max()) / delta) + 1
    edges = np.arange(n_bins + 1) * delta
    prior_hist = np.histogram(d_prior, bins=edges)[0] / n_draws
    post_hist = np.histogram(d_post, bins=edges)[0] / n_draws
    empty = prior_hist[0] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rb_bins = np.where(prior_hist > 0, post_hist / prior_hist,
                           np.where(post_hist > 0, np.inf, 0.0))
    rb_zero = float(rb_bins[0]) if not empty else (np.inf if post_hist[0] > 0 else np.nan)
    strength = float(post_hist[rb_bins <= rb_zero].sum()) if np.isfinite(rb_zero) else float("nan")
    return DistanceCheckReport(
        rb_zero=rb_zero,
        strength=strength,
        prior_hist=prior_hist,
        post_hist=post_hist,
        delta=delta,
        n_draws=n_draws,
        prior_first_bin_empty=bool(empty),
    )
