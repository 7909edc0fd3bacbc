"""Exact primitives for constrained multinomial models on the probability simplex.

Everything here is a pure function of immutable values: simplex/count types,
the bijection between ordered probability vectors and unconstrained weights,
the ordered prior's mode, groupings of the cells, Zipf-Mandelbrot
probabilities, constraint regions with their membership and flat-prior content,
closed-form log densities, and quadratures over the ordered chain and the ellipse.
"""

import math

import numpy as np

SIMPLEX_SUM_TOL = 1e-12


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class SimplexPoint:
    """A probability vector (p_1, ..., p_{k+1}) with nonnegative entries summing to 1."""

    def __init__(self, probs):
        arr = _readonly(probs)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("simplex point needs at least 2 coordinates")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("simplex coordinates must be finite and >= 0")
        if abs(arr.sum() - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"coordinates sum to {arr.sum()!r}, not 1")
        self.probs = arr

    @property
    def k(self):
        return self.probs.size - 1

    def __len__(self):
        return self.probs.size


class CountVector:
    """Multinomial counts (t_1, ..., t_{k+1}) with total n >= 1."""

    def __init__(self, counts):
        arr = np.array(counts)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("count vector needs at least 2 cells")
        # bools, strings and objects (a null among numbers) are no counts, nor is inf
        if (arr.dtype.kind not in "iuf" or np.any(arr < 0) or not np.all(np.isfinite(arr))
                or not np.all(arr == np.floor(arr))):
            raise ValueError("counts must be nonnegative integers")
        total = sum(int(v) for v in arr.tolist())  # exact, so an int64 overflow shows
        if total > np.iinfo(np.int64).max:
            raise ValueError(f"total count {total} does not fit in a 64-bit integer")
        if total < 1:
            raise ValueError("total count must be >= 1")
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        self.counts = arr

    @property
    def n(self):
        return int(self.counts.sum())

    @property
    def k(self):
        return self.counts.size - 1

    def __len__(self):
        return self.counts.size


class DirichletParams:
    """Dirichlet concentration parameters, all strictly positive."""

    def __init__(self, alphas):
        arr = _readonly(alphas)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need at least 2 Dirichlet parameters")
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ValueError("Dirichlet parameters must be finite and > 0")
        self.alphas = arr

    def __len__(self):
        return self.alphas.size


# ---------------------------------------------------------------------------
# ordered probabilities <-> weights
# ---------------------------------------------------------------------------

def ordered_from_weights_array(omega):
    """Vectorized map from weight vectors to decreasing probability vectors.

    theta_i = sum_{j >= i} omega_j / j, applied along the last axis: mass
    omega_j is spread evenly over the first j coordinates, a bijection from
    the simplex onto the closed decreasing cone.
    """
    om = np.asarray(omega, dtype=float)
    j = np.arange(1, om.shape[-1] + 1, dtype=float)
    return (om / j)[..., ::-1].cumsum(axis=-1)[..., ::-1]


def weights_from_ordered_array(theta):
    """Inverse of :func:`ordered_from_weights_array` along the last axis.

    omega_i = i * (theta_i - theta_{i+1}) for i <= k, omega_{k+1} = (k+1) theta_{k+1}.
    Does not validate ordering.
    """
    th = np.asarray(theta, dtype=float)
    k1 = th.shape[-1]
    i = np.arange(1, k1, dtype=float)
    head = i * (th[..., :-1] - th[..., 1:])
    tail = k1 * th[..., -1:]
    return np.concatenate([head, tail], axis=-1)


def ordered_mode(alphas):
    """Probability-space image of the mode of weights Dirichlet(alphas); decreasing for every alpha.

    Weights with alpha_j < 1 get no mass (the weight density peaks at the
    face omega_j = 0), and alphas with none above 1 anchor at the uniform
    vector.
    """
    excess = np.maximum(np.asarray(alphas, dtype=float) - 1.0, 0.0)
    tau = float(excess.sum())
    if tau <= 0:
        xi = np.zeros(excess.size)
        xi[-1] = 1.0
    else:
        xi = excess / tau
    return ordered_from_weights_array(xi)


# ---------------------------------------------------------------------------
# groupings: a tuple of labels, one per cell; labels[i] is the group of cell i,
# and groups are numbered 0, 1, ... in report order
# ---------------------------------------------------------------------------

def consecutive_blocks(n_cells: int, n_groups: int) -> tuple:
    """Equal consecutive blocks covering ``n_cells``, the last one possibly smaller."""
    if n_groups < 2:
        raise ValueError(f"need at least 2 groups, got {n_groups}")
    g = math.ceil(n_cells / n_groups)
    if n_cells - g * (n_groups - 1) < 1:
        raise ValueError(f"{n_cells} cells cannot form {n_groups} equal consecutive blocks")
    return tuple(i // g for i in range(n_cells))


def strided(m: int, n_cells: int) -> tuple:
    """Cells j, j + m, j + 2m, ... in group j, for m groups; group sizes are non-increasing."""
    if m < 2:
        raise ValueError(f"need at least 2 groups, got {m}")
    if m > n_cells:
        raise ValueError(f"need at most {n_cells} groups, got {m}")
    return tuple(i % m for i in range(n_cells))


def group_sums(t, labels):
    """Group sums along the last axis; members are added in cell order."""
    t = np.asarray(t)
    cells = np.asarray(labels)
    return np.stack([t[..., cells == g].sum(axis=-1) for g in range(max(labels) + 1)], axis=-1)


def group_counts(t: CountVector, labels) -> CountVector:
    """Aggregate counts by an order-preserving grouping.

    Both layouts provably preserve decreasing order: consecutive equal blocks
    (with a possibly smaller last block) compare componentwise, and strided
    groups have non-increasing sizes with componentwise-dominating members.
    """
    if len(labels) != len(t):
        raise ValueError(f"group layout covers {len(labels)} cells, counts have {len(t)}")
    return CountVector(group_sums(t.counts, labels))


# ---------------------------------------------------------------------------
# Zipf-Mandelbrot family
# ---------------------------------------------------------------------------

def zm_log_probs_array(alpha, beta, k1):
    """Log probabilities of the ZM(alpha, beta) distribution on k1 cells.

    Broadcasts over array-valued alpha/beta; normalization is done with
    log-sum-exp so large beta cannot overflow.
    """
    if k1 < 2:
        raise ValueError(f"k1 must be >= 2, got {k1}")
    a = np.asarray(alpha, dtype=float)[..., None]
    b = np.asarray(beta, dtype=float)[..., None]
    lp = -b * np.log(a + np.arange(1, k1 + 1, dtype=float))
    mx = lp.max(axis=-1, keepdims=True)
    return lp - (mx + np.log(np.exp(lp - mx).sum(axis=-1, keepdims=True)))


# ---------------------------------------------------------------------------
# constraint regions
# ---------------------------------------------------------------------------

def _points(theta, dim, *widths):
    """``theta`` as a float array; refused unless its last axis has ``dim`` cells,
    or as many as one of ``widths``."""
    th = np.asarray(theta, dtype=float)
    if th.shape[-1] not in (dim, *widths):
        raise ValueError(f"region has dimension {dim}, points have {th.shape[-1]}")
    return th


class TrineEllipse:
    """Ellipse {(theta_1, theta_2): (theta - c)^t C (theta - c) <= 1} inside the 2-simplex."""

    dim = 3

    def __init__(self, a):
        if not (0 < a < 0.5):
            raise ValueError(f"a must be in (0, 1/2), got {a}")
        self.a = a
        self.center = _readonly(0.5 * np.array([2 * a, 1 - a]))
        C = np.array([[(1 - 1 / a) ** 2, 2.0], [2.0, 4.0]])
        self.matrix = _readonly((1.0 / (1 - 2 * a)) * C)

    def quad_form_array(self, theta12):
        """(theta - c)^t C (theta - c) along the last axis.

        Summed term by term in the order ``np.einsum`` uses for three or more
        rows (it uses another for one or two), so a point's value does not
        depend on how many points are evaluated with it.
        """
        th = np.asarray(theta12, dtype=float)
        d0, d1 = th[..., 0] - self.center[0], th[..., 1] - self.center[1]
        (c00, c01), (c10, c11) = self.matrix
        return d0 * c00 * d0 + d0 * c01 * d1 + d1 * c10 * d0 + d1 * c11 * d1

    def contains_array(self, theta):
        """Membership of points given by all three cells or by (theta_1, theta_2)."""
        th = _points(theta, self.dim, 2)
        return self.quad_form_array(th[..., :2]) <= 1.0

    @property
    def prior(self):
        """Flat-prior content a pi sqrt(1 - 2a): the area pi / sqrt(det C) times the density 2."""
        return float(self.a * np.pi * np.sqrt(1 - 2 * self.a))

    log_prior = property(lambda self: math.log(self.prior))


class OrderedCone:
    """Closed cone of decreasing probability vectors; ties are inside."""

    def __init__(self, dim):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = dim

    def contains_array(self, theta):
        th = _points(theta, self.dim)
        return np.all(th[..., :-1] >= th[..., 1:], axis=-1)

    @property
    def prior(self):
        """Flat-prior content 1/K!, correctly rounded: subnormal from 171 cells, 0 from 178."""
        return 1 / math.factorial(self.dim)

    log_prior = property(lambda self: -math.lgamma(self.dim + 1))


class QuadBall:
    """The ball sum_i theta_i^2 <= bound about the centroid, 1/dim < bound <= 1/(dim - 1)."""

    def __init__(self, dim, bound):
        if dim < 2:
            raise ValueError(f"need dim >= 2, got {dim}")
        if bound <= 1.0 / dim:
            raise ValueError(f"bound {bound:g} <= 1/{dim} holds only the centroid, or nothing")
        if bound > 1.0 / (dim - 1):
            raise ValueError(f"bound {bound:g} > 1/{dim - 1} leaves the simplex")
        self.dim, self.bound = dim, bound

    def contains_array(self, theta):
        th = _points(theta, self.dim)
        return (th**2).sum(axis=-1) <= self.bound

    @property
    def prior(self):
        """Flat-prior content: sum theta^2 = |theta - c|^2 + 1/K about the centroid c, so the
        d-ball of squared radius bound - 1/K, d = K - 1, over the simplex's d-volume sqrt(K)/d!."""
        d, r2 = self.dim - 1, self.bound - 1.0 / self.dim
        return ((math.pi * r2) ** (d / 2) / math.gamma(d / 2 + 1)
                * math.factorial(d) / math.sqrt(self.dim))

    log_prior = property(lambda self: math.log(self.prior))


def tetrahedron_region() -> QuadBall:
    return QuadBall(dim=4, bound=1.0 / 3.0)


# ---------------------------------------------------------------------------
# log densities
# ---------------------------------------------------------------------------

# Cephes lgam (Moshier, Methods and Programs for Mathematical Functions, 1989):
# the asymptotic series for x >= 13 and the rational approximation on [2, 3)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # above this, log Gamma overflows


def _horner(x, start, coefs):
    """Horner's rule: ((start * x + c_0) * x + c_1) ... as Cephes ``polevl`` and ``p1evl``."""
    for c in coefs:
        start = start * x + c
    return start


def _libm_log(a):
    """Elementwise natural log of a positive float array through ``math.log``."""
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


def _lgam_small(x):
    """Cephes lgam on [0, 13): shift into [2, 3) by recurrence, then a rational fit."""
    z, p, u = np.ones_like(x), np.zeros_like(x), x
    while (down := u >= 3.0).any():
        p = np.where(down, p - 1.0, p)
        u = x + p
        z = np.where(down, z * u, z)
    with np.errstate(divide="ignore", over="ignore"):  # z = inf at x = 0 and tiny x
        while (up := u < 2.0).any():
            z = np.where(up, z / u, z)
            p = np.where(up, p + 1.0, p)
            u = x + p
    log_z = _libm_log(np.abs(z))
    x = x + (p - 2.0)
    fit = log_z + x * _horner(x, _LGAM_B[0], _LGAM_B[1:]) / _horner(x, x + _LGAM_C[0], _LGAM_C[1:])
    return np.where(u == 2.0, log_z, fit)


def _lgam_large(x):
    """Cephes lgam on [13, inf): Stirling's series, shorter as x grows."""
    with np.errstate(over="ignore"):
        q = (x - 0.5) * _libm_log(x) - x + _LS2PI
        p = 1.0 / (x * x)
    tail = np.where(
        x >= 1000.0,
        ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
         + 0.0833333333333333333333) / x,
        _horner(p, _LGAM_A[0], _LGAM_A[1:]) / x)
    return np.where(x > _MAXLGM, np.inf, np.where(x > 1e8, q, q + tail))


def gammaln(x):
    """log Gamma(x) for x >= 0, bit for bit as ``scipy.special.gammaln``.

    A numpy port of Cephes ``lgam``, the routine scipy calls: the same
    branches, coefficients and order of operations. Every logarithm goes
    through ``math.log``, which is the C library's ``log`` that scipy's code
    calls; numpy's vectorised ``np.log`` may differ from it in the last bit,
    and that bit then shows in log Gamma. 0 and inf give inf, NaN gives NaN,
    a scalar gives a numpy scalar. Negative x (where scipy returns
    log|Gamma(x)|) raises ``ValueError``: no caller here needs it.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("gammaln is only implemented for x >= 0")
    # counts, lattices and totals repeat values; each distinct one costs one math.log
    vals, where = np.unique(x, return_inverse=True)
    out = vals.copy()  # inf and NaN map to themselves
    small = vals < 13.0
    if small.any():
        out[small] = _lgam_small(vals[small])
    large = (vals >= 13.0) & (vals < np.inf)
    if large.any():
        out[large] = _lgam_large(vals[large])
    return out[where].reshape(x.shape)[()]


def log_dirichlet_norm(alphas):
    """Dirichlet log normaliser log Gamma(sum alpha) - sum log Gamma(alpha), along the last axis."""
    al = np.asarray(alphas, dtype=float)
    return gammaln(al.sum(axis=-1)) - gammaln(al).sum(axis=-1)


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


def log_dirichlet_pdf_array(x, alphas, norm=None):
    """Dirichlet log density along the last axis (full normalization).

    ``norm`` is ``log_dirichlet_norm(alphas)``, for callers that keep it.
    """
    al = np.asarray(alphas, dtype=float)
    if norm is None:
        norm = log_dirichlet_norm(al)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(al != 1.0, (al - 1.0) * np.log(np.asarray(x, dtype=float)), 0.0)
    return norm + terms.sum(axis=-1)


def gauss_legendre(n):
    """The n-node Gauss-Legendre rule on (0, 1): ascending nodes and weights summing to 1.

    The nodes and weights come from the eigensystem of the Jacobi matrix
    (Golub & Welsch 1969).
    """
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (x + 1.0), vecs[0] ** 2


def chain_log_integrals(powers, level=0, resume=None):
    """Running integrals of the ordered chain on one grid; returns (x, rows).

    With H_K(x) = x^p_K e^-x, H_i(x) = x^p_i e^-x G_{i+1}(x) for i < K and
    G_i(x) = int_0^x H_i, ``rows`` yields log G_i at the points ``x``, one
    array at a time, for i = K, K - 1, ..., 1. A caller that needs only G_1
    holds one row at a time. With ``resume`` = (i, log G_i), a row yielded
    before, ``rows`` starts at G_{i-1} and keeps every bit of a full pass, so
    a caller may hold some rows and rebuild the others (Griewank 1992).
    Under an ordered prior with weights Dirichlet(1, ..., 1, alpha_K) the
    powers are the counts t with alpha_K - 1 added to the last. Then
    theta = z / sum(z), where z_1 >= ... >= z_K has density proportional to
    prod z_i^p_i e^-z_i, a Markov chain in i whose forward integrals are the
    G_i; and log G_1 at the grid's end is log m(t) up to constants.

    The grid is x = L u^3 for N equispaced u in [0, 1], with L = 2 sum(p + 1)
    + 50, about twice the Gamma(n + A) total sum(z), plus 50, and
    N = max(4096, 40 sqrt(L), 53 K^1.5), doubled ``level`` times. Each G_i runs
    by the trapezoid rule, in log space with one rescale per cell. Its error
    falls as L / N^2, so level 1 certifies level 0, and grows as K^3 / N^2: the
    K term holds log G_1 within 2e-3 nats of -log K! at t = 0 up to 200 cells,
    and leaves N at 4096 up to 18 cells.
    """
    p = np.asarray(powers, dtype=float)
    length = 2.0 * float((p + 1.0).sum()) + 50.0
    n_grid = max(4096, int(40.0 * math.sqrt(length)), int(53.0 * p.size ** 1.5)) << level
    x = length * np.linspace(0.0, 1.0, n_grid) ** 3

    def rows(above, log_g):
        dx = np.diff(x)
        cum = np.zeros(n_grid)
        with np.errstate(divide="ignore"):
            log_x = np.log(x)
        for i in range(above - 2, -1, -1):
            log_h = -x if p[i] == 0 else p[i] * log_x - x
            if i + 1 < p.size:
                log_h += log_g
            top = log_h.max()
            h = np.exp(log_h - top)
            np.cumsum(0.5 * (h[1:] + h[:-1]) * dx, out=cum[1:])
            with np.errstate(divide="ignore"):
                log_g = np.log(cum)
            log_g += top
            yield log_g

    return x, rows(*(resume or (p.size + 1, None)))


def median(x):
    """``np.median`` of a 1-D float array, without the ``numpy.ma`` import it makes.

    numpy's steps in its order: one partition at the middle entries and the
    last, then the last entry if it is NaN, else the mean of the middle
    entries. So the bits agree for NaN, infinities and -0.0 too; a sort
    could put another NaN last, or 0.0 where numpy has -0.0.
    """
    n = x.size
    mid = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(x, mid + [-1])
    if np.isnan(part[-1]):
        return part[-1]
    return np.mean(part[mid[0]:mid[-1] + 1])


def quantiles(x, qs):
    """``np.quantile(x, qs, axis=0)`` of a 2-D float array, without ``numpy.ma``.

    ``np.quantile`` imports ``numpy.ma`` through ``np.unique``. This replays
    its default "linear" method step for step: virtual index (n - 1) q; its
    floor and the next row, both the last row once the index reaches n - 1;
    one partition of the columns at those rows and the first and last; numpy's
    lerp, taken from the upper end where the weight is at least 1/2; and a
    column's NaN for the whole column. ``qs`` must lie in [0, 1].
    """
    n = x.shape[0]
    virtual = (n - 1) * np.asarray(qs, dtype=float)
    lower = np.floor(virtual)
    upper = lower + 1
    top = virtual >= n - 1
    lower[top] = upper[top] = -1
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    part = x.copy()
    part.partition(sorted({0, -1, *lower.tolist(), *upper.tolist()}), axis=0)
    a, b = part[lower], part[upper]
    t = (virtual - lower)[:, None]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    nan = np.isnan(part[-1])
    if nan.any():
        np.copyto(out, part[-1], where=nan)
    return out


def logsumexp(a):
    """log(sum(exp(a))) along the last axis, bit for bit as ``scipy.special.logsumexp(a, axis=-1)``.

    A 1-D array gives a scalar and a 2-D array one value per row. As in scipy,
    the entries tied at a row's maximum leave its sum and enter as the count
    of ties, and a non-finite result is recomputed as log(sum(exp(row))).
    Unlike there, exp(a) is only taken for the rows that need that fallback.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=-1, keepdims=True)
    top = a == a_max
    m = np.count_nonzero(top, axis=-1, keepdims=True).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # scipy leaves s = 0 undivided; 0 / m is the same 0 for every m >= 1
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum(axis=-1, keepdims=True) / m
        out = (np.log1p(s) + np.log(m) + a_max)[..., 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=-1))
    return out[()]


# ---------------------------------------------------------------------------
# integrals over the trine ellipse by quadrature
# ---------------------------------------------------------------------------

# (nodes per axis, box half-width in standard deviations) of each level's
# rule; a level's certificate compares its rule with the one before
TRINE_RULES = ((16, 6.0), (32, 8.0), (64, 10.0), (128, 12.0))

# quadrature nodes per block of rows: the temporaries stay near 1 MB; 1 << 15
# added 3 MB to the trine check-prior's peak RSS and ran no faster
QUAD_BLOCK_NODES = 1 << 13


def _end_maps(n):
    """An n-node Gauss-Legendre rule on (0, 1) under four maps g: tables of g(s) and log(g'(s) w).

    Row ``lo + 2 hi`` serves an interval whose low (lo = 1) or high (hi = 1)
    end lies on the ellipse, where the density has a square-root zero: there
    g is a sine wave, flat at that end, which makes the integrand analytic in
    s, so the rule converges as fast as at an open end, where g is the identity.
    """
    s, w = gauss_legendre(n)
    h = 0.5 * np.pi * s
    g = np.array([s, 1.0 - np.cos(h), np.sin(h), 0.5 - 0.5 * np.cos(2.0 * h)])
    dg = np.array([np.full(n, 2.0 / np.pi), np.sin(h), np.cos(h), np.sin(2.0 * h)])
    return g, np.log(0.5 * np.pi * dg * w)


def _clipped_nodes(box_lo, box_hi, edge_lo, edge_hi, maps):
    """Nodes of the box interval clipped to the ellipse's, with log weights; -inf where empty."""
    g, log_w = maps
    case = (edge_lo > box_lo) + 2 * (edge_hi < box_hi)
    lo = np.maximum(box_lo, edge_lo)
    width = np.maximum(np.minimum(box_hi, edge_hi) - lo, 0.0)
    with np.errstate(divide="ignore"):
        return lo[..., None] + width[..., None] * g[case], np.log(width)[..., None] + log_w[case]


def _trine_mode(t, region, scale):
    """Maximiser of sum t log theta + log(1 - q)/2 inside the ellipse, by damped Newton steps.

    The function is concave, so the steps converge from any inside start:
    (t + 0.5)/(n + 1.5), or that point pulled toward the centre when it lies
    outside. A row stops once its step would gain under 1e-12 or cannot go
    uphill. Returns the first two coordinates. q is the form times ``scale``.
    """
    c, C = region.center, region.matrix
    v = (t[:, :2] + 0.5) / (t.sum(axis=1, keepdims=True) + 1.5)
    q = region.quad_form_array(v) * scale
    out = q >= 0.999
    v[out] = c + (v[out] - c) * (0.999 / np.sqrt(q[out]))[:, None]

    def value(rows, v):
        th = np.column_stack([v, 1.0 - v.sum(axis=1)])
        q = region.quad_form_array(v) * scale[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (t[rows] * np.log(th)).sum(axis=1) + 0.5 * np.log1p(-q)
        return np.where((q < 1.0) & (th > 0).all(axis=1), f, -np.inf)

    live, f = np.arange(len(t)), value(slice(None), v)
    for _ in range(100):
        if not live.size:
            break
        tl, vl, sl = t[live], v[live], scale[live]
        v3 = 1.0 - vl.sum(axis=1)
        cd = (vl - c) @ C * sl[:, None]
        r = 1.0 / (1.0 - region.quad_form_array(vl) * sl)
        grad = tl[:, :2] / vl - (tl[:, 2] / v3)[:, None] - cd * r[:, None]
        hess = (-(tl[:, 2] / v3**2)[:, None, None] - C * (sl * r)[:, None, None]
                - cd[:, :, None] * cd[:, None, :] * (r * r)[:, None, None])
        hess[:, [0, 1], [0, 1]] -= tl[:, :2] / vl**2
        step = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        keep = (grad * step).sum(axis=1) > 1e-12  # the Newton decrement, squared
        live, vl, step = live[keep], vl[keep], step[keep]
        for _ in range(60):  # halve each row's step until it goes uphill
            trial = value(live, vl + step)
            back = ~(trial >= f[live])
            if not back.any():
                break
            step[back] *= 0.5
        up = trial >= f[live]
        v[live[up]] += step[up]
        f[live[up]] = trial[up]
        live = live[up]
    return v


def _trine_rule(t, region, scale, log_density, mode, n_nodes, width):
    """log of the integral of exp(log_density) * prod theta_i^t_i over the ellipse, one rule per row.

    The rule is a tensor Gauss-Legendre rule in coordinates (u, v) with
    theta = mode + a (u, v): a whitens the multinomial covariance at the mode
    and turns v along the ellipse's normal there, so the inner integrals cross
    the edge. The box |u|, |v| <= width (wider where a cell's expected count
    is small, as its tail is long) is clipped to the ellipse per row and per
    u node, with ``_end_maps``'s sine maps at the ends on the ellipse. The
    nodes go through in blocks of rows of at most ``QUAD_BLOCK_NODES``. A row's
    ellipse has the region's quadratic form times its ``scale``.
    """
    maps = _end_maps(n_nodes)
    n = t.sum(axis=1) + 1.5
    th = np.column_stack([mode, 1.0 - mode.sum(axis=1)])
    chol = np.zeros((len(t), 2, 2))  # of the covariance (diag(theta) - theta theta^t) / n
    chol[:, 0, 0] = np.sqrt(th[:, 0] * (1.0 - th[:, 0]) / n)
    chol[:, 1, 0] = -th[:, 0] * th[:, 1] / n / chol[:, 0, 0]
    chol[:, 1, 1] = np.sqrt(th[:, 1] * (1.0 - th[:, 1]) / n - chol[:, 1, 0] ** 2)
    d = mode - region.center
    cd = d @ region.matrix * scale[:, None]  # half the gradient of q
    e = np.einsum("rji,rj->ri", chol, cd)  # the normal in whitened coordinates
    norm = np.hypot(e[:, 0], e[:, 1])[:, None]
    e = np.where(norm > 0, e / np.where(norm > 0, norm, 1.0), [0.0, 1.0])  # any at the centre
    a = chol @ np.stack([np.column_stack([-e[:, 1], e[:, 0]]), e], axis=2)
    # q(u, v) - 1 = (u, v) m (u, v)^t + 2 b . (u, v) + q1
    m = np.einsum("rji,jk,rkl->ril", a, region.matrix, a) * scale[:, None, None]
    b = np.einsum("rji,rj->ri", a, cd)
    q1 = (d * cd).sum(axis=1) - 1.0
    half = width * (1.0 + 1.0 / np.sqrt(n * th.min(axis=1)))
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] ** 2
    mid = (m[:, 0, 1] * b[:, 1] - m[:, 1, 1] * b[:, 0]) / det
    rad = np.sqrt(mid * mid + (b[:, 1] ** 2 - m[:, 1, 1] * q1) / det)
    u, log_wu = _clipped_nodes(-half, half, mid - rad, mid + rad, maps)
    # the chord in v at each u node
    m00, m01, m11, b0, b1 = (col[:, None] for col in (m[:, 0, 0], m[:, 0, 1], m[:, 1, 1],
                                                      b[:, 0], b[:, 1]))
    lin = m01 * u + b1
    disc = np.sqrt(np.maximum(lin * lin - m11 * ((m00 * u + 2.0 * b0) * u + q1[:, None]), 0.0))
    v_lo, v_hi = (-lin - disc) / m11, (-lin + disc) / m11
    x0 = mode[:, 0, None] + a[:, 0, 0, None] * u
    y0 = mode[:, 1, None] + a[:, 1, 0, None] * u
    out = np.empty(len(t))
    size = max(1, QUAD_BLOCK_NODES // n_nodes**2)
    for i in range(0, len(t), size):
        r = slice(i, i + size)
        box = np.broadcast_to(half[r, None], v_lo[r].shape)
        v, log_f = _clipped_nodes(-box, box, v_lo[r], v_hi[r], maps)
        log_f += log_wu[r, :, None]
        x = x0[r, :, None] + a[r, 0, 1, None, None] * v
        y = y0[r, :, None] + a[r, 1, 1, None, None] * v
        z = 1.0 - x - y
        with np.errstate(divide="ignore", invalid="ignore"):
            log_f += log_density(np.stack([x, y, z], axis=-1).reshape(-1, 3)).reshape(x.shape)
            for cell, counts in zip((x, y, z), t[r].T):
                log_f += counts[:, None, None] * np.log(cell)
        np.copyto(log_f, -np.inf, where=np.isnan(log_f))  # a node off the simplex, by rounding
        out[r] = logsumexp(log_f.reshape(len(x), -1))
    return out + np.log(chol[:, 0, 0] * chol[:, 1, 1])


def trine_log_integrals(t, region, log_density, log_coef, level=0, scale=1.0):
    """log_coef + log of the integral of exp(log_density) * prod theta_i^t_i over the ellipse.

    One value per count row of ``t`` (rows, 3), with a certificate each; the integral is
    over (theta_1, theta_2), and ``log_density`` takes points (m, 3). Level k is rule
    k + 1 of ``TRINE_RULES`` around ``_trine_mode``; its certificate is the distance to
    rule k, plus a bound on the rounding of ``log_coef`` and the log-likelihood terms,
    16 ulp of (n + 1) log(n + 2) + |value|. ``scale``, scalar or per row, multiplies
    a row's quadratic form, so its half-axes shrink by sqrt(scale).
    """
    scale = np.broadcast_to(np.asarray(scale, dtype=float), len(t))
    mode = _trine_mode(t, region, scale)
    coarse, fine = (_trine_rule(t, region, scale, log_density, mode, *rule)
                    for rule in TRINE_RULES[level:level + 2])
    n = t.sum(axis=1)
    out = fine + log_coef
    return out, (np.abs(fine - coarse)
                 + 16 * np.finfo(float).eps * ((n + 1) * np.log(n + 2) + np.abs(out)))
