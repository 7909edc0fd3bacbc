"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Criteria 3 and 4 pin reference values that conflict with the
sampler's own validation oracle and with the distance statistic's noise
floor at this sample size; they are asserted as stated and fail with the
measured values printed (details in the README's "known red checks").
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conmult.consistency import convergence_experiment
from conmult.core import (
    CountVector,
    DirichletParams,
    OrderedCone,
    SimplexPoint,
    TrineEllipse,
    consecutive_blocks,
    group_counts,
    log_dirichlet_multinomial,
    ordered_from_weights_array,
    strided,
    weights_from_ordered_array,
)
from conmult.elicitation import ElicitationInput, find_tau_result
from conmult.model_check import (
    rb_distance_check,
    rb_region_check,
)
from conmult.posterior import run_gibbs
from conmult.prior_check import (
    OrderedDirichletPrior,
    RawDirichletPrior,
    TrinePrior,
    conflict_pvalue,
    grouped_conflict_check,
    predictive_in_region_rate,
    proposal_for,
    estimate_log_prior_predictive,
)
from conmult.sampling import (
    RngStream,
    sample_ordered_prior_array,
    sample_trine_prior_array,
)

from conftest import (
    FLY_COUNTS,
    FLY_COUNTS_PERMUTED,
    FLY_ELICITATION,
    TRINE_ASYMMETRIC,
    TRINE_ASYMMETRIC_A,
    TRINE_SYMMETRIC,
)


def criterion(num, clauses):
    ok = all(flag for _, flag in clauses)
    detail = "; ".join(f"{desc}: {'ok' if flag else 'FAIL'}" for desc, flag in clauses)
    print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} [{detail}]")
    failed = [desc for desc, flag in clauses if not flag]
    assert not failed, f"criterion {num} failed: {failed}"


@pytest.fixture(scope="module")
def fly_prior():
    """Elicited ordered prior for the 18-cell data (delta=0 case)."""
    inp = ElicitationInput(k=17, delta=0.0, **{k: FLY_ELICITATION[k]
                                               for k in ("l", "u", "gamma")})
    res = find_tau_result(inp, 40_000, RngStream(5150))
    alphas = np.ones(18)
    alphas[-1] += res.tau
    return OrderedDirichletPrior(DirichletParams(alphas)), res


def test_criterion_1_trine_model_check():
    start = time.perf_counter()
    sym = rb_region_check(CountVector(TRINE_SYMMETRIC), TrineEllipse(1 / 3))
    asym = rb_region_check(CountVector(TRINE_ASYMMETRIC), TrineEllipse(TRINE_ASYMMETRIC_A))
    elapsed = time.perf_counter() - start
    criterion(1, [
        (f"symmetric prior mass {sym.prior_prob:.5f} = 0.6046 +/- 1e-4",
         abs(sym.prior_prob - 0.6046) <= 1e-4),
        (f"symmetric posterior content {sym.post_prob:.5f} >= 0.999",
         sym.post_prob >= 0.999),
        (f"symmetric rb {sym.rb:.4f} = 1.654 +/- 0.002",
         abs(sym.rb - 1.654) <= 0.002),
        (f"asymmetric prior mass {asym.prior_prob:.5f} = 0.2684 +/- 1e-4",
         abs(asym.prior_prob - 0.2684) <= 1e-4),
        (f"asymmetric rb {asym.rb:.4f} = 3.726 +/- 0.005",
         abs(asym.rb - 3.726) <= 0.005),
        (f"runtime {elapsed:.1f}s < 10s", elapsed < 10),
    ])


def test_criterion_2_grouped_ordered_check():
    start = time.perf_counter()
    t = CountVector(FLY_COUNTS)
    pairs = rb_region_check(group_counts(t, consecutive_blocks(18, 9)), OrderedCone(9))
    triples = rb_region_check(group_counts(t, consecutive_blocks(18, 6)), OrderedCone(6))
    elapsed = time.perf_counter() - start
    criterion(2, [
        (f"pairs posterior content {pairs.post_prob:.4f} = 0.040 +/- 0.006",
         abs(pairs.post_prob - 0.040) <= 0.006),
        (f"pairs rb {pairs.rb:.0f} within 15% of 14726",
         abs(pairs.rb - 14726) <= 0.15 * 14726),
        (f"triples posterior content {triples.post_prob:.4f} = 0.40 +/- 0.02",
         abs(triples.post_prob - 0.40) <= 0.02),
        (f"triples rb {triples.rb:.1f} within 10% of 285.63",
         abs(triples.rb - 285.6312) <= 0.10 * 285.6312),
        (f"runtime {elapsed:.1f}s < 60s", elapsed < 60),
    ])


def test_criterion_3_zm_distance_check():
    start = time.perf_counter()
    rep = rb_distance_check(CountVector(FLY_COUNTS), 0.02, 100_000, RngStream(8301))
    elapsed = time.perf_counter() - start
    below = float(rep.post_hist[0])
    rb_txt = "undefined (first prior bin empty)" if rep.prior_first_bin_empty \
        else f"{rep.rb_zero:.4g}"
    criterion(3, [
        (f"rb over [0, 0.02) = {rb_txt}, within factor 2 of 1.75e3",
         (not rep.prior_first_bin_empty) and np.isfinite(rep.rb_zero)
         and 1.75e3 / 2 <= rep.rb_zero <= 1.75e3 * 2),
        (f"strength {rep.strength} >= 0.99",
         np.isfinite(rep.strength) and rep.strength >= 0.99),
        (f"posterior mass below delta {below:.3f} concentrated (> 0.5)",
         below > 0.5),
        (f"runtime {elapsed:.0f}s < 600s with cached table", elapsed < 600),
    ])


def test_criterion_4_trine_conflict():
    start = time.perf_counter()
    results = {}
    for name, counts, a in (("symmetric", TRINE_SYMMETRIC, 1 / 3),
                            ("asymmetric", TRINE_ASYMMETRIC, TRINE_ASYMMETRIC_A)):
        t = CountVector(counts)
        prior = TrinePrior(a)
        ps = []
        for i, tau in enumerate((float(t.n), t.n / 10, t.n / 100)):
            rep = conflict_pvalue(t, prior, 1000, 10_000,
                                  RngStream(8400 + 10 * i + (0 if a == 1 / 3 else 1)),
                                  tau=tau)
            ps.append(rep.pvalue)
        results[name] = ps
    elapsed = time.perf_counter() - start
    sym, asym = results["symmetric"], results["asymmetric"]
    criterion(4, [
        (f"symmetric p {sym[0]:.3f} = 0.87 +/- 0.05", abs(sym[0] - 0.87) <= 0.05),
        (f"asymmetric p {asym[0]:.3f} = 0.15 +/- 0.05", abs(asym[0] - 0.15) <= 0.05),
        (f"symmetric stable over tau {['%.3f' % p for p in sym]} (spread <= 0.05)",
         max(sym) - min(sym) <= 0.05),
        (f"asymmetric stable over tau {['%.3f' % p for p in asym]} (spread <= 0.05)",
         max(asym) - min(asym) <= 0.05),
        (f"runtime {elapsed:.0f}s < 900s", elapsed < 900),
    ])


def test_criterion_5_elicitation(fly_prior):
    _, res1 = fly_prior
    inp2 = ElicitationInput(k=17, delta=2.0 / 306.0, l=0.0, u=0.25, gamma=0.99)
    res2 = find_tau_result(inp2, 40_000, RngStream(8501))
    criterion(5, [
        (f"tau {res1.tau:.3f} = 2.85 +/- 0.3 for flat mode case",
         abs(res1.tau - 2.85) <= 0.3),
        (f"tau {res2.tau:.3f} = 16.5 +/- 2 for maximal spacing case",
         abs(res2.tau - 16.5) <= 2.0),
    ])


def test_criterion_6_ordered_conflict(fly_prior):
    prior, _ = fly_prior
    t = CountVector(FLY_COUNTS)

    original = conflict_pvalue(t, prior, 1000, 10_000, RngStream(8601))
    permuted = conflict_pvalue(CountVector(FLY_COUNTS_PERMUTED), prior, 1000,
                               10_000, RngStream(8602))

    inp_narrow = ElicitationInput(k=17, delta=0.0, l=0.0, u=0.2, gamma=0.99)
    res_narrow = find_tau_result(inp_narrow, 40_000, RngStream(8603))
    alphas = np.ones(18)
    alphas[-1] += res_narrow.tau
    narrow = conflict_pvalue(t, OrderedDirichletPrior(DirichletParams(alphas)),
                             1000, 10_000, RngStream(8604))

    targets = {18: 0.00, 9: 0.04, 6: 0.25, 5: 0.44, 4: 0.61, 3: 0.78, 2: 0.93}
    rates = {m: predictive_in_region_rate(prior, strided(m, 18), t.n, 10_000,
                                          RngStream(8610 + m))
             for m in targets}
    rates_ok = all(abs(rates[m] - targets[m]) <= 0.03 for m in targets)
    rates_txt = ", ".join(f"{m}:{rates[m]:.3f}" for m in sorted(targets, reverse=True))

    g9 = grouped_conflict_check(t, prior, strided(9, 18), 1000, 10_000, RngStream(8621))
    g6 = grouped_conflict_check(t, prior, strided(6, 18), 1000, 10_000, RngStream(8622))

    criterion(6, [
        (f"original data p {original.pvalue:.3f} = 0.36 +/- 0.10",
         abs(original.pvalue - 0.36) <= 0.10),
        (f"permuted data p {permuted.pvalue:.4f} <= 0.01",
         permuted.pvalue <= 0.01),
        (f"narrow (l=0, u=0.2) prior p {narrow.pvalue:.4f} <= 0.01",
         narrow.pvalue <= 0.01),
        (f"predictive in-region rates [{rates_txt}] within +/- 0.03", rates_ok),
        (f"grouped m=9 p {g9.pvalue:.3f} = 0.42 +/- 0.10",
         abs(g9.pvalue - 0.42) <= 0.10),
        (f"grouped m=6 p {g6.pvalue:.3f} = 0.44 +/- 0.10",
         abs(g6.pvalue - 0.44) <= 0.10),
    ])


def test_criterion_7_convergence_to_limit():
    table = convergence_experiment(
        DirichletParams(np.array([2.0, 2.0])),
        SimplexPoint(np.array([0.3, 0.7])),
        [100, 1000, 10_000],
        RngStream(8701),
        replications=200,
    )
    meds = table.medians()
    errors = [e for _, _, e in meds]
    final_med = meds[-1][1]
    criterion(7, [
        (f"limit {table.limit:.4f} = 0.432 exactly",
         abs(table.limit - 0.432) <= 1e-6),
        (f"median p at n=1e4 {final_med:.4f} within 0.05 of limit",
         abs(final_med - table.limit) <= 0.05),
        (f"median abs error decreasing over schedule {['%.4f' % e for e in errors]}",
         errors[0] > errors[1] > errors[2]),
        ("sandwich bounds hold at every n (slack 0.05)",
         table.sandwich_ok(slack=0.05)),
    ])


def test_criterion_8_property_suites():
    clauses = []

    # weight bijection round trip at 1e-12 over 1000 draws, many dimensions
    rt_rng = np.random.default_rng(880801)
    worst = 0.0
    for i in range(1000):
        k1 = 2 + i % 20
        g = rt_rng.standard_gamma(1.0, size=k1)
        om = g / g.sum()
        back = weights_from_ordered_array(ordered_from_weights_array(om))
        worst = max(worst, float(np.abs(back - om).max()))
    clauses.append((f"weight bijection round trip, max err {worst:.2e} <= 1e-12",
                    worst <= 1e-12))

    # importance estimates match the closed form over 100 random cases
    rng = np.random.default_rng(880802)
    bad = 0
    for case in range(100):
        k1 = 2 + case % 3
        n = 5 + (case * 7) % 26
        alphas = rng.uniform(0.8, 5.0, size=k1)
        tv = CountVector(rng.multinomial(n, rng.dirichlet(alphas)))
        prior = RawDirichletPrior(DirichletParams(alphas))
        prop = proposal_for(tv, prior, float(n))
        log_m, se = estimate_log_prior_predictive(tv, prior, prop, 4000,
                                                  RngStream(9900 + case))
        exact = float(log_dirichlet_multinomial(tv.counts, alphas))
        if abs(log_m - exact) > 3 * max(se, 1e-4):
            bad += 1
    clauses.append((f"predictive estimator vs closed form: {bad}/100 outside 3 se",
                    bad == 0))

    # Gibbs chain leaves the ordered prior invariant with no data
    alphas = np.ones(4)
    alphas[-1] += 2.0
    prior_params = DirichletParams(alphas)
    init = sample_ordered_prior_array(prior_params, 1, RngStream(8801))[0]
    chain, _ = run_gibbs(None, prior_params, 10_000, 0, init, RngStream(8802))
    thinned = chain[::10]
    direct = sample_ordered_prior_array(prior_params, thinned.shape[0], RngStream(8803))
    ks_ps = [ks_2samp(thinned[:, j], direct[:, j]).pvalue for j in range(4)]
    clauses.append((f"Gibbs stationarity KS p {['%.3f' % p for p in ks_ps]} all > 0.01",
                    min(ks_ps) > 0.01))

    # trine sampler against the rejection oracle
    tr_rng = np.random.default_rng(880803)
    region = TrineEllipse(1 / 3)
    g = tr_rng.standard_gamma(1.0, size=(400_000, 3))
    flat = g / g.sum(axis=1, keepdims=True)
    q = region.quad_form_array(flat[:, :2])
    keep = (q <= 1) & (tr_rng.uniform(size=flat.shape[0]) < np.sqrt(np.clip(1 - q, 0, None)))
    oracle = flat[keep]
    draws = sample_trine_prior_array(1 / 3, 100_000, RngStream(8804))
    m = min(len(oracle), len(draws))
    trine_ps = [ks_2samp(draws[:m, j], oracle[:m, j]).pvalue for j in range(3)]
    clauses.append((f"trine sampler vs oracle KS p {['%.3f' % p for p in trine_ps]} all > 0.01",
                    min(trine_ps) > 0.01))

    # scaling the prior density leaves the conflict p-value untouched
    class Scaled(TrinePrior):
        def log_density_array(self, thetas):
            return super().log_density_array(thetas) + math.log(7.3)

    t343 = CountVector(np.array([341, 191, 175]))
    p_plain = conflict_pvalue(t343, TrinePrior(1 / 3), 200, 2000, RngStream(8805))
    p_scaled = conflict_pvalue(t343, Scaled(1 / 3), 200, 2000, RngStream(8805))
    clauses.append((f"unnormalized-prior invariance ({p_plain.pvalue:.3f} == "
                    f"{p_scaled.pvalue:.3f})", p_plain.pvalue == p_scaled.pvalue))

    # identical streams give bit-identical results end to end
    r1 = rb_region_check(CountVector(TRINE_SYMMETRIC), TrineEllipse(1 / 3))
    r2 = rb_region_check(CountVector(TRINE_SYMMETRIC), TrineEllipse(1 / 3))
    c1 = conflict_pvalue(t343, TrinePrior(1 / 3), 100, 1000, RngStream(8807))
    c2 = conflict_pvalue(t343, TrinePrior(1 / 3), 100, 1000, RngStream(8807))
    repro = (r1 == r2 and c1.pvalue == c2.pvalue
             and np.array_equal(c1.log_m_pred, c2.log_m_pred))
    clauses.append(("bit-identical reproducibility under fixed seeds", repro))

    criterion(8, clauses)
