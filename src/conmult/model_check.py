"""Relative-belief model checks for constrained multinomials.

Two flavors: a direct check of a positive-prior-mass region (posterior vs
prior content under the flat Dirichlet reference), and a distance-based check
against the Zipf-Mandelbrot family for hypotheses of prior mass zero.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import (
    CountVector,
    DirichletParams,
    OrderedCone,
    TRINE_RULES,
    QuadBall,
    TrineEllipse,
    chain_log_integrals,
    gammaln,
    gauss_legendre,
    logsumexp,
    trine_log_integrals,
    zm_log_probs_array,
)
from .sampling import RngStream, chunked_monte_carlo, sample_dirichlet_array


# ---------------------------------------------------------------------------
# region check
# ---------------------------------------------------------------------------

class CheckReport(NamedTuple):
    prior_prob: float
    post_prob: float
    rb: float
    mc_se: float  # post_prob's quadrature certificate; 0.0 on underflow, None on overflow
    log_rb: float  # log rb, and the certificate of the log contents
    log_cert: float

    def verdict(self) -> str:
        """"favor", "against", or "undefined" when log rb (the contents underflow from
        171 cells on) lies within its certificate of 0."""
        if not abs(self.log_rb) > self.log_cert:
            return "undefined"
        return "favor" if self.log_rb > 0 else "against"


def ordered_cone_log_content(counts):
    """log P(theta_1 >= ... >= theta_K) under Dirichlet(t + 1), t = ``counts``, with a certificate.

    With X_i ~ Gamma(t_i + 1) independent, theta = X / sum(X), so the content is
    P(X_1 >= ... >= X_K) = G_1(L) / prod t_i!, G_1 from ``chain_log_integrals(t)``.
    The grid error falls as 1/N^2, so the default grid and the doubled one
    extrapolate (Richardson) to the value returned, and the extrapolation's
    step, the doubled grid's estimated error, is the certificate. On the fly
    data's groupings and on 1/K! the extrapolated value is 1e3 to 1e4 times
    closer than that; at 171 and 200 cells, about 1e5 times.
    """
    powers = np.asarray(counts, dtype=float)
    log_norm = float(gammaln(powers + 1.0).sum())
    ends = []
    for level in (0, 1):
        for log_g in chain_log_integrals(powers, level)[1]:
            pass  # keeps one row: G_1 comes last
        ends.append(log_g[-1] - log_norm)
    coarse, fine = ends
    step = (fine - coarse) / 3.0
    return float(fine + step), float(abs(step))


BALL_NODES = 16  # Gauss-Legendre nodes per piece in w of a four-cell ball, doubled per level


def _ball_w_rule(t, bound, level):
    """Scales 1/(6 rho^2) and log weights w^t_4 (1 - w)^(n - t_4 + 2) dw at the nodes w, and k.

    The pieces of lo < w < hi meet at the Beta's mean and 2, 4 and 8 sd either side
    and, when the mean lies beyond hi, at hi's 2^-i of the range, i <= 40, down to a
    quarter of the log integrand's scale 1/|slope| at hi. With t_4 the largest count
    the mean is at least 1/4, so it never lies below lo.
    The first k nodes make the rule of ``BALL_NODES << level`` a piece, the rest half that.
    """
    r = math.sqrt(12.0 * bound - 3.0)
    lo, hi = (1.0 - r) / 4.0, (1.0 + r) / 4.0
    a, b = t[3] + 1.0, t[:3].sum() + 3.0
    mean = a / (a + b)
    sd = math.sqrt(mean * (1.0 - mean) / (a + b + 1.0))
    graded = []
    if mean > hi:
        slope = abs(t[3] / hi - (b - 1.0) / (1.0 - hi))
        depth = min(40, max(1, math.ceil(math.log2(max(4.0 * (hi - lo) * slope, 1.0)))))
        graded = hi + (lo - hi) * 2.0 ** -np.arange(1.0, depth + 1.0)
    breaks = np.r_[lo, hi, mean + sd * np.array([-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0]), graded]
    breaks = np.array(sorted(set(np.clip(breaks, lo, hi))))  # np.unique loads numpy.ma
    width = np.diff(breaks)[:, None]
    x, wx = map(np.concatenate, zip(*(gauss_legendre(BALL_NODES << level >> h) for h in (0, 1))))
    w = (breaks[:-1, None] + width * x).T.ravel()  # node-major, so the full rule comes first
    log_w = np.log((width * wx).T.ravel()) + t[3] * np.log(w) + (b - 1.0) * np.log1p(-w)
    return (1.0 - w) ** 2 / (8.0 * (w - lo) * (hi - w)), log_w, width.size * BALL_NODES << level


def region_log_content(counts, region):
    """log posterior content of a trine ellipse or ball, with a certificate, t = ``counts``.

    An ellipse is ``trine_log_integrals`` with a flat density, and so is a ball on three
    cells: sum theta^2 - 1/3 is q/6, q the symmetric trine's form. A ball on four cells
    and the flat prior are symmetric in the cells, so t is sorted, the largest count
    last, and every order of the counts gets the same bits. Then w = theta_4 ~
    Beta(t_4 + 1, n - t_4 + 3) is independent of phi = theta_{1:3} / (1 - w) ~
    Dirichlet(t_{1:3} + 1), and sum theta^2 = w^2 + (1 - w)^2 sum phi^2, so one row per
    node in w takes phi's ball of bound 1/3 + rho^2(w), rho^2(w) = (B - w^2)/(1 - w)^2 -
    1/3 = 4 (w - lo)(hi - w) / (3 (1 - w)^2). The certificate adds the distance to the
    rule with half the nodes in w to the rows' certificates weighted by their shares of
    the sum; the rules are refined while the log content lies within it of the prior's.
    """
    t = np.asarray(counts, dtype=float)
    ball = isinstance(region, QuadBall)
    if ball and region.dim not in (3, 4):
        raise ValueError(f"no exact posterior content for a ball on {region.dim} cells")
    disc = TrineEllipse(1.0 / 3.0) if ball else region
    t = np.sort(t) if len(t) == 4 else t
    log_norm = gammaln(t.sum() + len(t)) - gammaln(t + 1.0).sum()  # Gamma(n + K) / prod t_i!
    for level in range(len(TRINE_RULES) - 1):
        if len(t) == 4:
            scale, log_w, split = _ball_w_rule(t, region.bound, level)
        else:
            log_w, split = np.zeros(1), 1
            scale = 1.0 / (6.0 * (region.bound - 1.0 / 3.0)) if ball else 1.0
        out, cert = trine_log_integrals(np.broadcast_to(t[:3], (len(log_w), 3)), disc,
                                        lambda th: np.zeros(len(th)), log_norm + log_w,
                                        level, scale)
        log_post = logsumexp(out[:split])
        log_cert = np.exp(out[:split] - log_post) @ cert[:split] + (
            abs(log_post - logsumexp(out[split:])) if split < len(out) else 0.0)
        if abs(log_post - region.log_prior) > log_cert:
            break
    return float(log_post), float(log_cert)


def rb_region_check(t: CountVector, region) -> CheckReport:
    """Relative belief ratio of a constraint region under the flat reference prior.

    Both contents are exact (the region's ``prior``, and ``ordered_cone_log_content`` or
    ``region_log_content``), and the ratio is taken in log space.
    """
    if len(t) != region.dim:
        raise ValueError(f"region has dimension {region.dim}, counts have {len(t)}")
    log_post, log_cert = (ordered_cone_log_content(t.counts) if isinstance(region, OrderedCone)
                          else region_log_content(t.counts, region))
    log_post = min(log_post, 0.0)  # a rule may put a content of nearly 1 above 1
    log_rb = log_post - region.log_prior
    log_max = math.log(np.finfo(float).max)
    if not log_rb < log_max:
        raise FloatingPointError(f"relative belief ratio exp({log_rb:.6g}) overflows a float")
    post = math.exp(log_post)
    try:
        mc_se = post * math.expm1(log_cert)
    except OverflowError:  # e^log_cert overflows, and e^log_cert - 1 rounds to it
        mc_se = math.exp(log_post + log_cert) if log_post + log_cert < log_max else None
    return CheckReport(prior_prob=region.prior, post_prob=post, rb=math.exp(log_rb),
                       mc_se=mc_se, log_rb=log_rb, log_cert=log_cert)


# ---------------------------------------------------------------------------
# Zipf-Mandelbrot table and KL projection
# ---------------------------------------------------------------------------

# the ZM table's grid: betas geometric on [0.05, 25], and per beta ZM_N_ALPHA
# alphas from ZM_ALPHA_MIN up to the delta-redundancy bound
ZM_BETAS = np.geomspace(0.05, 25.0, 60)
ZM_N_ALPHA = 24
ZM_ALPHA_MIN = -0.95


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


# rows of thetas scanned against the table at once: the scan buffer holds
# ZM_SCAN_ROWS x table entries, 1.2 MB for the fly table's 1201, whatever the chunk
ZM_SCAN_ROWS = 128
# most draws in one pattern search: its cells-by-draws arrays stay near 0.6 MB at 18 cells
ZM_SEARCH_COLS = 4096


class ZmTable(NamedTuple):
    """Tabulated ZM distributions used to seed the KL projection."""

    params: np.ndarray      # (E, 2) alpha, beta
    log_probs: np.ndarray   # (E, k+1)

    @property
    def n_entries(self):
        return self.params.shape[0]


def build_zm_table(k: int, delta: float) -> ZmTable:
    """Build the ZM table for k+1 cells at resolution delta.

    One uniform entry for beta = 0, then per ZM_BETAS beta an alpha sweep from
    ZM_ALPHA_MIN up to the delta-redundancy bound. The table builds in about
    4 ms (18 cells, delta = 0.02, one core), so nothing is cached.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    k1 = k + 1
    rows = [(0.0, 0.0)]
    for beta, amax in zip(ZM_BETAS, alpha_upper_bounds(ZM_BETAS, delta, k1)):
        if not amax > ZM_ALPHA_MIN:
            continue
        # geometric in 1 + alpha: the admissible range spans orders of magnitude
        sweep = np.geomspace(1.0 + ZM_ALPHA_MIN, 1.0 + amax, ZM_N_ALPHA) - 1.0
        rows.extend((float(a), float(beta)) for a in sweep)
    params = np.array(rows)
    return ZmTable(params=params, log_probs=zm_log_probs_array(params[:, 0], params[:, 1], k1))


def zm_distance_batch(thetas, table: ZmTable, refine: bool = True):
    """KL distance from each row of ``thetas`` to the ZM family.

    Table scan first, in blocks of ZM_SCAN_ROWS rows, then coordinate-wise
    pattern search with step halving from the best entry (``_pattern_search``),
    in blocks of at most ZM_SEARCH_COLS draws. A lone last draw joins the block
    before it, so no block has one column unless the batch has. Returns
    (distances, alphas, betas); no refined distance exceeds the scan's.
    """
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    neg_ent = np.empty(th.shape[0])
    j = np.empty(th.shape[0], dtype=np.intp)
    best = np.empty(th.shape[0])
    # one scan buffer for all blocks, written in place: fresh matrices per block
    # raise the fly-zm peak RSS by 1-2 MB and let the heap layout move it
    scan = np.empty((min(th.shape[0], ZM_SCAN_ROWS), table.n_entries))
    for start in range(0, th.shape[0], ZM_SCAN_ROWS):
        rows = slice(start, start + ZM_SCAN_ROWS)
        block = th[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            neg_ent[rows] = np.sum(np.where(block > 0, block * np.log(block), 0.0), axis=1)
        dists = np.matmul(block, table.log_probs.T, out=scan[:len(block)])
        np.subtract(neg_ent[rows, None], dists, out=dists)
        j[rows] = np.argmin(dists, axis=1)
        best[rows] = dists[np.arange(dists.shape[0]), j[rows]]
    scan = dists = None  # free the scan buffer (dists views it) before the search
    alpha = table.params[j, 0].copy()
    beta = table.params[j, 1].copy()
    if not refine:
        return best, alpha, beta
    edges = [*range(0, th.shape[0], ZM_SEARCH_COLS), th.shape[0]]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    for cols in map(slice, edges[:-1], edges[1:]):
        # writes each block's results into the views
        _pattern_search(np.ascontiguousarray(th[cols].T), neg_ent[cols],
                        best[cols], alpha[cols], beta[cols])
    return np.maximum(best, 0.0), alpha, beta


# the search keeps alpha above -1, where ZM is defined
ALPHA_FLOOR = -1.0 + 1e-9
# the search's schedule: iterations, and the first alpha and beta steps
SEARCH_ITERS, STEP_ALPHA, STEP_BETA = 50, 0.5, 0.1
# a draw leaves the search once its steps are at most this, relative to 1 + |alpha|
# and 1 + beta; at 1e-6 a draw near alpha = -1 ended 1.3e-11 above the value the
# whole schedule reaches, while 1e-7 saves as much time
SEARCH_TOL = 1e-7


def _kl_closed(b, log_a, m_sum, neg_ent, mass, out=None):
    """KL(theta || ZM) of cells-by-draws columns from log_a = log(alpha + i) and M.

    With L_i = log(alpha + i) and M = sum_i theta_i L_i, the value is
    neg_ent + b (M - mass L_1) + mass log(sum_i exp(-b (L_i - L_1))). L_i rises
    in i, so every exponent is <= 0 and the i = 1 term is 1: the sum lies in
    [1, k + 1] for any alpha and b. At b = 0 the value is neg_ent + mass
    log(k + 1) whatever ``log_a`` holds. ``out`` is scratch shaped like
    ``log_a``, or ``log_a`` itself.
    """
    l1 = log_a[0].copy()  # read before ``out`` overwrites it
    w = np.subtract(log_a, l1, out=out)
    w *= -b
    np.exp(w, out=w)
    return neg_ent + b * (m_sum - mass * l1) + mass * np.log(np.add.reduce(w, axis=0))


def _pattern_search(th_t, neg_ent, best, alpha, beta):
    """Coordinate pattern search with step halving, in place; returns (best, alpha, beta).

    Per iteration each draw tries alpha +/- its step, then beta +/- its step,
    and keeps a trial whose ``_kl_closed`` value is strictly below ``best``;
    a draw with no gain halves both steps. ``best`` starts at the table-scan
    value, so no draw ends above its scan. A trial costs one exp per cell and
    no log in a beta trial: log(alpha + i) and M are kept per draw.

    A draw leaves the search once its steps are at most SEARCH_TOL (1 + |alpha|)
    and SEARCH_TOL (1 + beta) (Hooke & Jeeves 1961), and its values are written
    back then. Once the live draws are at most 7/8 of the columns searched,
    they are gathered into smaller arrays. No column's arithmetic reads
    another's, so a draw takes the same path whichever draws share its
    arrays, as long as it is not alone in them.
    """
    res = best, alpha, beta
    best, alpha, beta = best.copy(), alpha.copy(), beta.copy()
    k1, n = th_t.shape
    cells = np.arange(1, k1 + 1, dtype=float)[:, None]
    mass = np.add.reduce(th_t, axis=0)
    log_a = np.log(alpha + cells)
    m_sum = np.einsum("ij,ij->j", th_t, log_a)
    work = np.empty_like(th_t)  # reused: a fresh cells-by-draws array costs page faults
    sa = np.full(n, STEP_ALPHA)
    sb = np.full(n, STEP_BETA)
    draw = np.arange(n)  # the draw each column holds
    live = np.ones(n, dtype=bool)
    for _ in range(SEARCH_ITERS):
        improved = np.zeros(live.size, dtype=bool)
        for sign in (1, -1):
            a2 = np.maximum(alpha + sign * sa, ALPHA_FLOOR)
            log_t = np.log(np.add(a2, cells, out=work), out=work)
            m_t = np.einsum("ij,ij->j", th_t, log_t)
            val = _kl_closed(beta, log_t, m_t, neg_ent, mass, out=work)
            g = np.flatnonzero(val < best)
            best[g], alpha[g], m_sum[g] = val[g], a2[g], m_t[g]
            improved[g] = True
        # log(alpha + i) afresh once per iteration costs less than moving the
        # accepted columns into the cache
        np.log(np.add(alpha, cells, out=log_a), out=log_a)
        for sign in (1, -1):
            b2 = np.maximum(beta + sign * sb, 0.0)
            val = _kl_closed(b2, log_a, m_sum, neg_ent, mass, out=work)
            g = np.flatnonzero(val < best)
            best[g], beta[g] = val[g], b2[g]
            improved[g] = True
        halve = np.where(improved, 1.0, 0.5)
        sa *= halve
        sb *= halve
        done = live & (sa <= SEARCH_TOL * (1.0 + np.abs(alpha))) & (sb <= SEARCH_TOL * (1.0 + beta))
        if not done.any():
            continue
        for out, v in zip(res, (best, alpha, beta)):
            out[draw[done]] = v[done]
        live &= ~done
        keep = np.flatnonzero(live)
        if not keep.size:
            break
        # numpy reduces a lone column in other loops, with other bits, so none is left alone
        if 8 * keep.size <= 7 * live.size and keep.size > 1:
            # rebound a few at a time, so the old and the gathered sets never coexist
            th_t = th_t[:, keep]
            log_a = log_a[:, keep]
            work = None
            work = np.empty((k1, keep.size))
            neg_ent, mass, m_sum = neg_ent[keep], mass[keep], m_sum[keep]
            best, alpha, beta = best[keep], alpha[keep], beta[keep]
            sa, sb, draw, live = sa[keep], sb[keep], draw[keep], live[keep]
    for out, v in zip(res, (best, alpha, beta)):
        out[draw[live]] = v[live]
    return res


# ---------------------------------------------------------------------------
# distance check
# ---------------------------------------------------------------------------

# most histogram bins the distance check may make, one CSV row each; distances
# lie in [0, log K], so this bounds log K / delta
ZM_MAX_BINS = 100_000


class DistanceCheckReport(NamedTuple):
    rb_zero: float
    strength: float
    prior_hist: np.ndarray
    post_hist: np.ndarray
    prior_first_bin_empty: bool

    def verdict(self) -> str:
        """"favor", "against", or "undefined" when the first prior bin is empty or the
        RB is exactly 1, as when every draw lies in the first bin."""
        if not np.isfinite(self.rb_zero) or self.rb_zero == 1:
            return "undefined"
        return "favor" if self.rb_zero > 1 else "against"


def _distance_sample(alphas, table, n_draws, rng, workers):
    def chunk(stream, m):
        th = sample_dirichlet_array(alphas, m, stream)
        d, _, _ = zm_distance_batch(th, table)
        return d

    return np.concatenate(
        chunked_monte_carlo(chunk, n_draws, rng, workers=workers)
    )


def rb_distance_check(t: CountVector, delta: float, n_draws: int, rng: RngStream,
                      workers: int = 1) -> DistanceCheckReport:
    """Distance-based check of the ZM hypothesis via the family KL distance.

    Samples the distance under the flat prior and under the Dirichlet(t+1)
    posterior, both projected on the ZM table for t's cells at resolution
    delta, bins both on [0, delta), [delta, 2 delta), ..., and compares
    first-bin contents. When no prior draw lands in the first bin the ratio is
    undefined and the report is flagged; more draws may resolve it. Every
    distance is at most log K, the uniform entry's, so a delta that would need
    more than ``ZM_MAX_BINS`` bins is refused before any draw.
    """
    table = build_zm_table(t.k, delta)
    k1 = len(t)
    if math.log(k1) > ZM_MAX_BINS * delta:
        raise ValueError(f"delta {delta:g} would need up to log({k1})/delta = "
                         f"{math.log(k1) / delta:.0f} distance bins, more than {ZM_MAX_BINS}")
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
        prior_first_bin_empty=bool(empty),
    )
