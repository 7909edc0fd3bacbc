"""Each layer timed on its own, plus the accuracy measures behind the per-layer metrics.

    python3 perfbench/probes.py

Run as a fresh process with the package on PYTHONPATH; prints one JSON object
of per-layer metrics on its last line. Inputs are fixed (the fly counts, the
checked-in elicited prior, fixed seeds), so the counts and accuracy figures
repeat exactly on one commit and only the timings move. numpy and scipy are
imported inside functions, so that ``cli.import_s`` times the package's import
in a fresh interpreter.
"""

import json
import statistics
import sys
import time

import workloads

N_SAMPLER_DRAWS = 200_000
N_ZM_DRAWS = 10_000          # ZM scan and refinement, per 10k draws
N_GAP_DRAWS = 2_000          # flat-prior draws checked against the reference solve
GAP_TOL = 1e-4               # nats
N_IS = 10_000                # one IS estimate at the observed counts
IS_SEEDS = range(8)
PROBE_NPRED, PROBE_NIS = 100, 2_000
GIBBS_SWEEPS, GIBBS_BURN_IN = 600, 100
REPEATS = 3
U_MIN, U_MAX, U_STEP = -40.0, 12.0, 0.2     # u = log(1 + alpha) grid of the ZM reference
BETA_MAX = 1e6


def timed(fn, repeats=REPEATS):
    """Median seconds of ``repeats`` calls, and the last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


# ---------------------------------------------------------------------------
# effective sample size (benchmark-side, fixed)
# ---------------------------------------------------------------------------

def effective_sample_size(chains):
    """Multi-chain ESS of one scalar (Vehtari et al. 2021, without rank normalisation).

    ``chains`` is (M, N). Autocorrelations come from FFT autocovariances over
    every lag, combined across chains, and are summed by Geyer's initial
    monotone sequence. ``posterior.autocorrelation_time`` stops at lag
    min(N/4, 1000), which under-reads the ~1400-sweep ACT of the fly chain;
    this one has no lag cap, so it reads up to the chain length.
    """
    import numpy as np

    x = np.atleast_2d(np.asarray(chains, dtype=float))
    m, n = x.shape
    dev = x - x.mean(axis=1, keepdims=True)
    f = np.fft.rfft(dev, n=2 * n, axis=1)
    acov = np.fft.irfft(f * np.conj(f), axis=1)[:, :n] / n
    within = acov[:, 0].mean() * n / (n - 1)
    if within == 0.0:
        return float(m * n)
    between = x.mean(axis=1).var(ddof=1) if m > 1 else 0.0
    var_plus = within * (n - 1) / n + between
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[:-1:2] + rho[1::2]
    positive = np.argmax(pairs < 0) if np.any(pairs < 0) else pairs.size
    pairs = np.minimum.accumulate(pairs[:positive])
    tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / np.log10(m * n))
    return float(m * n / tau)


# ---------------------------------------------------------------------------
# ZM reference minimum
# ---------------------------------------------------------------------------

def _zm_a(u, k1):
    """a_i = log(alpha + i) for i = 1..k1 with alpha = e^u - 1, so u = log(1 + alpha)."""
    import numpy as np

    with np.errstate(divide="ignore"):
        offset = np.log(np.arange(k1, dtype=float))  # log(i - 1); -inf at i = 1
    return np.logaddexp(np.asarray(u, dtype=float)[..., None], offset)


def _best_beta(ea, a, beta, steps):
    """Newton steps on the convex beta-problem: min_b b * ea + log sum_j exp(-b a_j), b >= 0."""
    import numpy as np
    from scipy.special import softmax

    for _ in range(steps):
        q = softmax(-beta[:, None] * a, axis=1)
        qa = np.sum(q * a, axis=1)
        var = np.sum(q * a * a, axis=1) - qa * qa
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(var > 0, (ea - qa) / var, 0.0)
        beta = np.clip(beta - step, 0.0, BETA_MAX)
    return beta


def _cross_entropy(theta, a, beta):
    from scipy.special import logsumexp

    return beta * (theta * a).sum(axis=1) + logsumexp(-beta[:, None] * a, axis=1)


def zm_reference_distance(theta):
    """Minimum KL(theta || ZM(alpha, beta)) over the family and its alpha -> -1 limit.

    For fixed u = log(1 + alpha) the cross entropy is convex in beta, so the
    profile over beta is solved exactly (a shared beta table for the start,
    then Newton). The profile is scanned on a dense u grid that reaches
    alpha = -1 + e^-40, the best grid point is refined by golden section, and
    the limit family (p_1 free, the other cells uniform) is added in closed
    form. Every candidate is a cross entropy evaluated at real parameters.
    """
    import numpy as np
    from scipy.special import softmax

    theta = np.asarray(theta, dtype=float)
    rows, k1 = theta.shape
    u_grid = np.arange(U_MIN, U_MAX + U_STEP / 2, U_STEP)
    beta_grid = np.concatenate([[0.0], np.geomspace(1e-6, BETA_MAX, 600)])
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(theta > 0, theta * np.log(theta), 0.0)
    neg_ent = plogp.sum(axis=1)
    # limit family: p_1 free but not below the other cells (beta >= 0), the rest uniform
    p1 = np.maximum(theta[:, 0], 1.0 / k1)
    edge = -theta[:, 0] * np.log(p1) - (1.0 - theta[:, 0]) * np.log((1.0 - p1) / (k1 - 1))
    best = edge.copy()
    best_u = np.full(rows, u_grid[0])
    best_beta = np.zeros(rows)
    for u in u_grid:
        a = _zm_a(u, k1)
        mean_a = softmax(-beta_grid[:, None] * a, axis=1) @ a   # decreasing in beta
        ea = theta @ a
        beta = np.interp(ea, mean_a[::-1], beta_grid[::-1])
        beta = _best_beta(ea, np.broadcast_to(a, theta.shape), beta, steps=2)
        f = _cross_entropy(theta, a, beta)
        better = f < best
        best[better], best_u[better], best_beta[better] = f[better], u, beta[better]
    # golden section on u around the best grid point, beta re-solved at each u
    lo, hi = best_u - U_STEP, best_u + U_STEP
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(30):
        c1, c2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        f12 = []
        for c in (c1, c2):
            a = _zm_a(c, k1)
            beta = _best_beta((theta * a).sum(axis=1), a, best_beta, steps=4)
            f12.append(_cross_entropy(theta, a, beta))
            best = np.minimum(best, f12[-1])
        left = f12[0] < f12[1]
        hi, lo = np.where(left, c2, hi), np.where(left, lo, c1)
    return np.maximum(neg_ent + best, 0.0)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def main():
    start = time.perf_counter()
    import conmult.cli as cli

    import_s = time.perf_counter() - start
    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.modules_loaded": (len(sys.modules), "count"),
        "cli.scipy_stats_loaded": (int("scipy.stats" in sys.modules), "count"),
    }
    import numpy as np

    from conmult.consistency import exact_conflict_pvalue
    from conmult.core import CountVector, DirichletParams
    from conmult.elicitation import ElicitationInput, find_tau_result
    from conmult.model_check import build_zm_table, zm_distance_batch
    from conmult.posterior import run_gibbs
    from conmult.prior_check import (conflict_pvalue, estimate_log_prior_predictive,
                                     proposal_for)
    from conmult.sampling import RngStream, sample_dirichlet_array, sample_ordered_prior_array

    fly = cli.read_counts(workloads.FLY_COUNTS)
    prior, spec = cli.read_prior(workloads.FLY_PRIOR)
    flat = DirichletParams(np.ones(len(fly)))

    # sampling: 18-cell Dirichlet and ordered draws
    t, _ = timed(lambda: sample_dirichlet_array(flat, N_SAMPLER_DRAWS, RngStream(1)))
    metrics["sampling.dirichlet_draws_per_s"] = (N_SAMPLER_DRAWS / t, "1/s")
    t, _ = timed(lambda: sample_ordered_prior_array(prior.omega_params, N_SAMPLER_DRAWS,
                                                    RngStream(2)))
    metrics["sampling.ordered_draws_per_s"] = (N_SAMPLER_DRAWS / t, "1/s")

    # model_check: ZM table, scan and refinement per 10k flat-prior draws
    t, table = timed(lambda: build_zm_table(fly.k, workloads.ZM_DELTA))
    metrics["model_check.zm_table_s"] = (t, "s")
    draws = sample_dirichlet_array(flat, N_ZM_DRAWS, RngStream(3))
    t_scan, _ = timed(lambda: zm_distance_batch(draws, table, refine=False))
    t_full, (dist, _, _) = timed(lambda: zm_distance_batch(draws, table), repeats=1)
    metrics["model_check.zm_scan_s"] = (t_scan, "s")
    metrics["model_check.zm_refine_s"] = (t_full - t_scan, "s")
    # computed, not measured: the float64 draws x table-entries scan matrix
    metrics["model_check.zm_scan_mb"] = (N_ZM_DRAWS * table.n_entries * 8 / 1e6, "MB")
    gap = dist[:N_GAP_DRAWS] - zm_reference_distance(draws[:N_GAP_DRAWS])
    metrics["model_check.zm_gap_frac"] = (float(np.mean(gap > GAP_TOL)), "frac")
    metrics["model_check.zm_gap_max"] = (float(gap.max()), "nats")
    metrics["model_check.zm_gap_draws"] = (N_GAP_DRAWS, "count")

    # prior_check: conflict-check throughput, one IS estimate, accuracy at the observed counts
    t, rep = timed(lambda: conflict_pvalue(fly, prior, PROBE_NPRED, PROBE_NIS, RngStream(4)),
                   repeats=1)
    metrics["prior_check.points_per_s"] = ((PROBE_NPRED + 1) / t, "1/s")
    proposal = proposal_for(fly, prior, rep.tau)
    estimates = []
    times = []
    for seed in IS_SEEDS:
        t, est = timed(lambda: estimate_log_prior_predictive(fly, prior, proposal, N_IS,
                                                             RngStream(5, seed)), repeats=1)
        times.append(t)
        estimates.append(est)
    log_m = [lm for lm, _ in estimates]
    # ESS from the delta-method se: se^2 = (n / ESS - 1) / n
    ess = [N_IS / (1.0 + N_IS * se * se) for _, se in estimates]
    metrics["prior_check.is_estimate_s"] = (statistics.median(times), "s")
    metrics["prior_check.ess_obs"] = (statistics.median(ess), "draws")
    metrics["prior_check.ess_obs_n_is"] = (N_IS, "draws")
    metrics["prior_check.log_m_obs_sd"] = (statistics.stdev(log_m), "nats")

    # posterior: one chain on the fly data
    t, (kept, _) = timed(lambda: run_gibbs(fly, prior.omega_params, GIBBS_SWEEPS,
                                           GIBBS_BURN_IN, None, RngStream(6)), repeats=1)
    ess_min = min(effective_sample_size(kept[:, j]) for j in range(kept.shape[1]))
    metrics["posterior.sweep_ms"] = (1e3 * t / GIBBS_SWEEPS, "ms")
    metrics["posterior.act_max"] = (kept.shape[0] / ess_min, "sweeps")
    metrics["posterior.ess_per_s"] = (ess_min / t, "1/s")
    metrics["posterior.kept_sweeps"] = (kept.shape[0], "count")

    # elicitation: the README virtual-certainty search at the workload's budget
    inp = ElicitationInput(k=spec["k"], delta=spec["delta"], l=spec["l"], u=spec["u"],
                           gamma=spec["gamma"])
    t, res = timed(lambda: find_tau_result(inp, workloads.ELICIT_DRAWS, RngStream(7)))
    metrics["elicitation.find_tau_s"] = (t, "s")
    metrics["elicitation.evaluations"] = (len(res.trace), "count")

    # consistency: one exact enumeration p-value, 2 cells at n = 10000
    t, _ = timed(lambda: exact_conflict_pvalue(CountVector(np.array([3000, 7000])),
                                               DirichletParams(np.array([2.0, 2.0]))))
    metrics["consistency.exact_pvalue_s"] = (t, "s")

    print(json.dumps({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}))


if __name__ == "__main__":
    main()
