"""Exact primitives for constrained multinomial models on the probability simplex.

Everything here is a pure function of immutable values: simplex/count types,
the bijection between ordered probability vectors and unconstrained weights,
Zipf-Mandelbrot probabilities, KL divergence, constraint-region membership,
and closed-form log densities.
"""

import math
from dataclasses import dataclass, field

import numpy as np

SIMPLEX_SUM_TOL = 1e-12
EQUALITY_TOL = 1e-9


class MeasureZeroRegionError(ValueError):
    """Raised when a check needs positive prior mass but the region has none."""


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SimplexPoint:
    """A probability vector (p_1, ..., p_{k+1}) with nonnegative entries summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.probs)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("simplex point needs at least 2 coordinates")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("simplex coordinates must be finite and >= 0")
        if abs(arr.sum() - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"coordinates sum to {arr.sum()!r}, not 1")
        object.__setattr__(self, "probs", arr)

    @property
    def k(self):
        return self.probs.size - 1

    def __len__(self):
        return self.probs.size


@dataclass(frozen=True)
class CountVector:
    """Multinomial counts (t_1, ..., t_{k+1}) with total n >= 1."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.array(self.counts)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("count vector needs at least 2 cells")
        if np.any(arr < 0) or not np.all(arr == np.floor(arr)):
            raise ValueError("counts must be nonnegative integers")
        arr = arr.astype(np.int64)
        if arr.sum() < 1:
            raise ValueError("total count must be >= 1")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def n(self):
        return int(self.counts.sum())

    @property
    def k(self):
        return self.counts.size - 1

    def __len__(self):
        return self.counts.size


@dataclass(frozen=True)
class DirichletParams:
    """Dirichlet concentration parameters, all strictly positive."""

    alphas: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.alphas)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need at least 2 Dirichlet parameters")
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ValueError("Dirichlet parameters must be finite and > 0")
        object.__setattr__(self, "alphas", arr)

    def __len__(self):
        return self.alphas.size


@dataclass(frozen=True)
class ZmParams:
    """Zipf-Mandelbrot parameters: offset alpha > -1, decay beta >= 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1):
            raise ValueError(f"alpha must be > -1, got {self.alpha}")
        if not (self.beta >= 0):
            raise ValueError(f"beta must be >= 0, got {self.beta}")


# ---------------------------------------------------------------------------
# ordered probabilities <-> weights
# ---------------------------------------------------------------------------

def ordered_from_weights_array(omega):
    """Vectorized map from weight vectors to decreasing probability vectors.

    theta_i = sum_{j >= i} omega_j / j, applied along the last axis.
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


def ordered_from_weights(omega: SimplexPoint) -> SimplexPoint:
    """Turn any simplex point into one with decreasing coordinates.

    The map is a bijection from the simplex onto the closed decreasing cone;
    mass omega_j is spread evenly over the first j coordinates.
    """
    return SimplexPoint(ordered_from_weights_array(omega.probs))


def weights_from_ordered(theta: SimplexPoint) -> SimplexPoint:
    """Invert :func:`ordered_from_weights`; requires decreasing coordinates."""
    th = theta.probs
    diffs = th[:-1] - th[1:]
    bad = np.nonzero(diffs < 0)[0]
    if bad.size:
        i = int(bad[0]) + 1  # positions are 1-based like theta_1 >= ... >= theta_{k+1}
        raise ValueError(
            f"ordering violated at index {i}: theta_{i}={th[i - 1]:.6g} < theta_{i + 1}={th[i]:.6g}"
        )
    return SimplexPoint(weights_from_ordered_array(th))


# ---------------------------------------------------------------------------
# Zipf-Mandelbrot family
# ---------------------------------------------------------------------------

def zm_log_probs_array(alpha, beta, k1):
    """Log probabilities of the ZM(alpha, beta) distribution on k1 cells.

    Broadcasts over array-valued alpha/beta; normalization is done with
    log-sum-exp so large beta cannot overflow.
    """
    a = np.asarray(alpha, dtype=float)[..., None]
    b = np.asarray(beta, dtype=float)[..., None]
    lp = -b * np.log(a + np.arange(1, k1 + 1, dtype=float))
    mx = lp.max(axis=-1, keepdims=True)
    return lp - (mx + np.log(np.exp(lp - mx).sum(axis=-1, keepdims=True)))


def zm_distribution(params: ZmParams, k: int) -> SimplexPoint:
    """Cell probabilities proportional to (alpha + i)^(-beta), i = 1..k+1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return SimplexPoint(np.exp(zm_log_probs_array(params.alpha, params.beta, k + 1)))


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------

def kl_divergence_array(theta, p):
    """Sum theta_i log(theta_i / p_i) along the last axis, with 0 log 0 = 0.

    Support mismatch (theta_i > 0 where p_i == 0) yields +inf.
    """
    th = np.asarray(theta, dtype=float)
    pp = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(th > 0, th * (np.log(th) - np.log(pp)), 0.0)
    return terms.sum(axis=-1)


def kl_divergence(theta: SimplexPoint, p: SimplexPoint) -> float:
    """KL(theta || p); returns +inf on support mismatch."""
    if len(theta) != len(p):
        raise ValueError("dimension mismatch")
    return float(kl_divergence_array(theta.probs, p.probs))


# ---------------------------------------------------------------------------
# constraint regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrineEllipse:
    """Ellipse {(theta_1, theta_2): (theta - c)^t C (theta - c) <= 1} inside the 2-simplex."""

    a: float
    center: np.ndarray = field(init=False, repr=False)
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = self.a
        if not (0 < a < 0.5):
            raise ValueError(f"a must be in (0, 1/2), got {a}")
        c = 0.5 * np.array([2 * a, 1 - a])
        C = (1.0 / (1 - 2 * a)) * np.array([[(1 - 1 / a) ** 2, 2.0], [2.0, 4.0]])
        object.__setattr__(self, "center", _readonly(c))
        object.__setattr__(self, "matrix", _readonly(C))

    @property
    def dim(self):
        return 3

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
        th = np.asarray(theta, dtype=float)
        return self.quad_form_array(th[..., :2]) <= 1.0


@dataclass(frozen=True)
class OrderedCone:
    """Closed cone of decreasing probability vectors; ties are inside."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")

    def contains_array(self, theta):
        th = np.asarray(theta, dtype=float)
        return np.all(th[..., :-1] >= th[..., 1:], axis=-1)


@dataclass(frozen=True)
class QuadBall:
    """Sum-of-squares ball with optional linear equality constraints.

    Membership: sum_i theta_i^2 <= bound, and for each (indices, value) pair
    sum of the indexed coordinates equals value within EQUALITY_TOL.
    """

    dim: int
    bound: float
    equalities: tuple = ()

    def __post_init__(self):
        if self.bound <= 0:
            raise ValueError("bound must be > 0")
        eqs = tuple((tuple(int(i) for i in idx), float(v)) for idx, v in self.equalities)
        for idx, _ in eqs:
            if any(i < 0 or i >= self.dim for i in idx):
                raise ValueError("equality index out of range")
        object.__setattr__(self, "equalities", eqs)

    def contains_array(self, theta):
        th = np.asarray(theta, dtype=float)
        ok = (th**2).sum(axis=-1) <= self.bound
        for idx, val in self.equalities:
            ok = ok & (np.abs(th[..., list(idx)].sum(axis=-1) - val) <= EQUALITY_TOL)
        return ok


def crosshairs_region() -> QuadBall:
    return QuadBall(dim=4, bound=3.0 / 8.0, equalities=(((0, 1), 0.5), ((2, 3), 0.5)))


def tetrahedron_region() -> QuadBall:
    return QuadBall(dim=4, bound=1.0 / 3.0)


def pauli_region() -> QuadBall:
    third = 1.0 / 3.0
    return QuadBall(
        dim=6,
        bound=2.0 / 9.0,
        equalities=(((0, 1), third), ((2, 3), third), ((4, 5), third)),
    )


def region_contains(region, theta: SimplexPoint) -> bool:
    """Membership of a simplex point in a constraint region."""
    if len(theta) != region.dim:
        raise ValueError(f"region has dimension {region.dim}, point has {len(theta)}")
    return bool(region.contains_array(theta.probs))


def trine_prior_mass(a: float) -> float:
    """Uniform-prior mass of the trine ellipse: a * pi * sqrt(1 - 2a).

    The ellipse has area pi / sqrt(det C) and the uniform density on the
    2-simplex is 2, which reduces to this closed form.
    """
    if not (0 < a < 0.5):
        raise ValueError(f"a must be in (0, 1/2), got {a}")
    return float(a * np.pi * np.sqrt(1 - 2 * a))


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


def log_multinomial_pmf_array(counts, theta):
    """Multinomial log pmf along the last axis, broadcasting counts vs theta.

    Computed with log-gamma; a zero probability with a positive count gives -inf.
    """
    t = np.asarray(counts, dtype=float)
    th = np.asarray(theta, dtype=float)
    n = t.sum(axis=-1)
    coef = gammaln(n + 1) - gammaln(t + 1).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t > 0, t * np.log(th), 0.0)
    return coef + terms.sum(axis=-1)


def log_multinomial_pmf(t: CountVector, theta: SimplexPoint) -> float:
    """Log of the multinomial pmf of counts t under cell probabilities theta."""
    if len(t) != len(theta):
        raise ValueError("dimension mismatch")
    return float(log_multinomial_pmf_array(t.counts, theta.probs))


def log_dirichlet_norm(alphas):
    """Dirichlet log normaliser log Gamma(sum alpha) - sum log Gamma(alpha), along the last axis."""
    al = np.asarray(alphas, dtype=float)
    return gammaln(al.sum(axis=-1)) - gammaln(al).sum(axis=-1)


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


def _row_sums(x):
    """Sum an (n, ...) array over its n rows, bit for bit ``np.sum`` along a contiguous cell axis.

    numpy adds a contiguous run of n < 8 values in order; up to 128 values in
    8 interleaved lanes, combined pairwise, then the tail; longer runs as two
    halves split at a multiple of 8; and it starts from a zero accumulator,
    which turns a -0.0 sum into 0.0. This replays that order with whole rows,
    so each entry gets numpy's rounding: a cells-by-draws array sums as its
    draws-by-cells transpose would.
    """
    n = x.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sums(x[:half]) + _row_sums(x[half:])
    if n < 8:
        total, tail = x[0] + 0.0, x[1:]
    else:
        m = n - n % 8
        lanes = x[:8] if m == 8 else x[:8] + x[8:16]
        for i in range(16, m, 8):
            lanes += x[i:i + 8]
        total = 0.0 + (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                       + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
        tail = x[m:]
    for row in tail:
        total += row
    return total


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
