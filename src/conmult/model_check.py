"""Relative-belief model checks for constrained multinomials.

Two flavors: a direct check of a positive-prior-mass region (posterior vs
prior content under the flat Dirichlet reference), and a distance-based check
against the Zipf-Mandelbrot family for hypotheses of prior mass zero.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CountVector,
    DirichletParams,
    MeasureZeroRegionError,
    OrderedCone,
    TrineEllipse,
    ZmParams,
    kl_divergence_array,
    trine_prior_mass,
    zm_log_probs_array,
)
from .sampling import RngStream, chunked_monte_carlo, sample_dirichlet_array

ZM_TABLE_FORMAT = 1


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsecutiveBlocks:
    """Partition of 1..k+1 into consecutive blocks of equal size (last may be smaller)."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("block sizes must be positive")
        if any(s != sizes[0] for s in sizes[:-1]) or sizes[-1] > sizes[0]:
            raise ValueError(
                "blocks must have equal sizes except a possibly smaller last block; "
                f"got {sizes}"
            )
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_groups(self):
        return len(self.sizes)

    @property
    def n_cells(self):
        return sum(self.sizes)

    def group_array(self, t):
        t = np.asarray(t)
        edges = np.cumsum((0,) + self.sizes)
        return np.stack(
            [t[..., edges[i]:edges[i + 1]].sum(axis=-1) for i in range(self.n_groups)],
            axis=-1,
        )


@dataclass(frozen=True)
class Strided:
    """Partition of 1..k+1 into m groups {j, j+m, j+2m, ...}; group sizes are non-increasing."""

    m: int
    n_cells: int

    def __post_init__(self):
        if not (1 <= self.m <= self.n_cells):
            raise ValueError(f"need 1 <= m <= {self.n_cells}, got m={self.m}")

    @property
    def n_groups(self):
        return self.m

    def group_array(self, t):
        t = np.asarray(t)
        return np.stack([t[..., j::self.m].sum(axis=-1) for j in range(self.m)], axis=-1)


def consecutive_blocks(n_cells: int, n_groups: int) -> ConsecutiveBlocks:
    """Equal consecutive blocks covering ``n_cells``, the last one possibly smaller."""
    g = math.ceil(n_cells / n_groups)
    last = n_cells - g * (n_groups - 1)
    if last < 1:
        raise ValueError(
            f"{n_cells} cells cannot form {n_groups} equal consecutive blocks"
        )
    return ConsecutiveBlocks((g,) * (n_groups - 1) + (last,))


def identity_grouping(n_cells: int) -> ConsecutiveBlocks:
    return ConsecutiveBlocks((1,) * n_cells)


def group_counts(t: CountVector, spec) -> CountVector:
    """Aggregate counts by an order-preserving group layout.

    Both layouts provably preserve decreasing order: consecutive equal blocks
    (with a possibly smaller last block) compare componentwise, and strided
    groups have non-increasing sizes with componentwise-dominating members.
    """
    if spec.n_cells != len(t):
        raise ValueError(f"group layout covers {spec.n_cells} cells, counts have {len(t)}")
    return CountVector(spec.group_array(t.counts))


@dataclass(frozen=True)
class GroupedOrderedCone:
    """Vectors whose grouped sums are decreasing."""

    spec: object

    @property
    def dim(self):
        return self.spec.n_cells

    def contains_array(self, theta):
        g = self.spec.group_array(np.asarray(theta, dtype=float))
        return np.all(g[..., :-1] >= g[..., 1:], axis=-1)


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
        return "favor" if self.rb > 1 else "against"


def analytic_prior_prob(region):
    """Flat-prior mass of a region when a closed form exists, else None."""
    if isinstance(region, TrineEllipse):
        return trine_prior_mass(region.a)
    if isinstance(region, OrderedCone):
        return 1.0 / math.factorial(region.dim)
    if isinstance(region, GroupedOrderedCone):
        # grouped flat Dirichlet is exchangeable over groups, so each of the
        # m! orderings is equally likely
        return 1.0 / math.factorial(region.spec.n_groups)
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

    def spec_dict(self):
        return {
            "beta_min": self.beta_min,
            "beta_max": self.beta_max,
            "n_beta": self.n_beta,
            "n_alpha": self.n_alpha,
            "alpha_min": self.alpha_min,
        }


def kl_uniform_to_zm(alpha, beta, k1):
    """KL(uniform || ZM(alpha, beta)) on k1 cells; the redundancy measure."""
    lp = zm_log_probs_array(alpha, beta, k1)
    return np.mean(-np.log(k1) - lp, axis=-1)


def alpha_upper_bound(beta: float, delta: float, k1: int):
    """Largest alpha at which ZM(alpha, beta) is still delta-distinguishable from uniform.

    Bisection on KL(uniform || ZM) which decays to 0 as alpha grows; the
    returned point satisfies delta <= KL <= delta * (1 + 1e-6). Returns None
    when the whole beta-line is within delta of uniform.
    """
    if beta <= 0:
        return None
    lo = -1.0 + 1e-9
    if kl_uniform_to_zm(lo, beta, k1) < delta:
        return None
    hi = 1.0
    while kl_uniform_to_zm(hi, beta, k1) >= delta:
        hi *= 2.0
        if hi > 1e12:
            return None
    for _ in range(200):
        if kl_uniform_to_zm(lo, beta, k1) <= delta * (1 + 1e-6):
            break
        mid = 0.5 * (lo + hi)
        if kl_uniform_to_zm(mid, beta, k1) >= delta:
            lo = mid
        else:
            hi = mid
    return float(lo)


@dataclass(frozen=True)
class ZmTable:
    """Tabulated ZM distributions used to seed the KL projection."""

    k: int
    delta: float
    grid: BetaGrid
    params: np.ndarray = field(repr=False)      # (E, 2) alpha, beta
    log_probs: np.ndarray = field(repr=False)   # (E, k+1)

    @property
    def n_entries(self):
        return self.params.shape[0]


def _table_cache_key(k, delta, grid):
    h = hashlib.sha256(
        json.dumps({"k": k, "delta": delta, "grid": grid.spec_dict()},
                   sort_keys=True).encode()
    ).hexdigest()[:16]
    return f"zm_table_v{ZM_TABLE_FORMAT}_k{k}_d{delta:g}_{h}.json"


def build_zm_table(k: int, delta: float, grid: BetaGrid = BetaGrid(),
                   cache_dir=None) -> ZmTable:
    """Build (or load from cache) the ZM table for k+1 cells at resolution delta.

    One uniform entry for beta = 0, then per grid beta an alpha sweep from
    alpha_min up to the delta-redundancy bound.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if grid.n_beta < 1 or grid.n_alpha < 1:
        raise ValueError("empty grid")
    k1 = k + 1
    path = None
    if cache_dir is not None:
        path = os.path.join(cache_dir, _table_cache_key(k, delta, grid))
        if os.path.exists(path):
            with open(path) as fh:
                data = json.load(fh)
            if data.get("format") == ZM_TABLE_FORMAT:
                return ZmTable(
                    k=k, delta=delta, grid=grid,
                    params=np.array(data["params"]),
                    log_probs=np.array(data["log_probs"]),
                )
    rows = [(0.0, 0.0)]
    for beta in grid.betas():
        amax = alpha_upper_bound(float(beta), delta, k1)
        if amax is None or amax <= grid.alpha_min:
            continue
        # geometric in 1 + alpha: the admissible range spans orders of magnitude
        sweep = np.geomspace(1.0 + grid.alpha_min, 1.0 + amax, grid.n_alpha) - 1.0
        rows.extend((float(a), float(beta)) for a in sweep)
    params = np.array(rows)
    log_probs = zm_log_probs_array(params[:, 0], params[:, 1], k1)
    table = ZmTable(k=k, delta=delta, grid=grid, params=params, log_probs=log_probs)
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"format": ZM_TABLE_FORMAT, "k": k, "delta": delta,
                 "grid": grid.spec_dict(), "params": params.tolist(),
                 "log_probs": log_probs.tolist()},
                fh,
            )
    return table


def zm_distance_batch(thetas, table: ZmTable, refine: bool = True,
                      n_iters: int = 50, step_alpha: float = 0.5,
                      step_beta: float = 0.1):
    """KL distance from each row of ``thetas`` to the ZM family.

    Table scan first, then coordinate-wise pattern search with step halving
    from the best entry. Returns (distances, alphas, betas).
    """
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    k1 = th.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_ent = np.sum(np.where(th > 0, th * np.log(th), 0.0), axis=1)
    dists = neg_ent[:, None] - th @ table.log_probs.T
    j = np.argmin(dists, axis=1)
    best = dists[np.arange(th.shape[0]), j]
    alpha = table.params[j, 0].copy()
    beta = table.params[j, 1].copy()
    if not refine:
        return best, alpha, beta

    def kl_at(a, b):
        return neg_ent - np.sum(th * zm_log_probs_array(a, b, k1), axis=1)

    sa = np.full(th.shape[0], step_alpha)
    sb = np.full(th.shape[0], step_beta)
    for _ in range(n_iters):
        improved = np.zeros(th.shape[0], dtype=bool)
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a2 = np.maximum(alpha + da * sa, -1.0 + 1e-9)
            b2 = np.maximum(beta + db * sb, 0.0)
            val = kl_at(a2, b2)
            gain = val < best
            alpha[gain], beta[gain], best[gain] = a2[gain], b2[gain], val[gain]
            improved |= gain
        sa[~improved] *= 0.5
        sb[~improved] *= 0.5
    return np.maximum(best, 0.0), alpha, beta


def kl_to_zm(theta, table: ZmTable):
    """Minimum KL(theta || ZM) over the family, refined from the best table entry.

    Returns (distance, ZmParams of the minimizer).
    """
    probs = theta.probs if hasattr(theta, "probs") else np.asarray(theta, dtype=float)
    if probs.size != table.k + 1:
        raise ValueError(f"table is for {table.k + 1} cells, point has {probs.size}")
    d, a, b = zm_distance_batch(probs[None, :], table)
    return float(d[0]), ZmParams(float(a[0]), float(b[0]))


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
        return "favor" if self.rb_zero > 1 else "against"


def _distance_sample(alphas, table, n_draws, rng, workers):
    def chunk(stream, m):
        th = sample_dirichlet_array(alphas, m, stream)
        d, _, _ = zm_distance_batch(th, table)
        return d

    # modest chunks keep the (draws x table entries) scan matrix small
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
