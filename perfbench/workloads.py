"""The benchmark's workloads: the CLI commands of one pass and their output checks.

A pass is one walk through a workload's command list for one CLI seed. Every
budget is passed on the command line, so no default of the CLI (and no
CONMULT_* variable) decides how much work a command does.

Stdlib only: run.py and its child processes import this module before the
package under test is loaded.
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
FLY_COUNTS = os.path.join(DATA, "fly_counts.json")
FLY_PRIOR = os.path.join(DATA, "fly_prior.json")
TRINE_CLICKS = os.path.join(DATA, "trine_clicks.json")
TRINE_PRIOR = os.path.join(DATA, "trine_prior.json")
FLY_PRIOR_DRAWS = 40_000  # the README elicitation that produced FLY_PRIOR

# per-command budgets
TRINE_DRAWS = 100_000
TRINE_NPRED, TRINE_NIS = 400, 2_000
CONSISTENCY_SCHEDULE = "100,1000,10000"
CONSISTENCY_REPLICATIONS = 200
ELICIT_DRAWS = 10_000
PAIRS_DRAWS = 200_000
FLY_NPRED, FLY_NIS = 200, 2_000
SWEEPS, BURN_IN = 1600, 200
ZM_DELTA, ZM_DRAWS = 0.02, 10_000

# reference answers (tests/test_acceptance.py tolerances)
TRINE_PRIOR_MASS, TRINE_PRIOR_TOL = 0.6046, 1e-4
TRINE_RB, TRINE_RB_TOL = 1.654, 0.002
PAIRS_RB, PAIRS_RB_REL = 14726.0, 0.15
# P(pi(X) <= pi(0.3)) for X ~ Beta(2, 2): 2 * I_0.3(2, 2)
CONSISTENCY_LIMIT = 2 * (3 * 0.3**2 - 2 * 0.3**3)
ELICIT_Z = 4.0  # elicited-tau tolerance, in Monte Carlo standard errors


def _cmd(name, *args):
    return name, [name, *map(str, args)]


def trine_session(seed, out):
    common = ("--seed", seed, "--out", out, "--workers", 1)
    return [
        _cmd("check-model", "--counts", TRINE_CLICKS, "--region", "trine",
             "--draws", TRINE_DRAWS, *common),
        _cmd("check-prior", "--counts", TRINE_CLICKS, "--prior", TRINE_PRIOR,
             "--npred", TRINE_NPRED, "--nis", TRINE_NIS, *common),
        _cmd("consistency", "--alphas", "2,2", "--theta-true", "0.3,0.7",
             "--schedule", CONSISTENCY_SCHEDULE,
             "--replications", CONSISTENCY_REPLICATIONS, *common),
    ]


def fly_ordered(seed, out):
    common = ("--seed", seed, "--out", out, "--workers", 1)
    return [
        _cmd("elicit", "--k", 17, "--delta", 0, "--l", 0.002222, "--u", 0.5,
             "--gamma", 0.99, "--draws", ELICIT_DRAWS, *common),
        _cmd("check-model", "--counts", FLY_COUNTS, "--region", "ordered",
             "--group", "pairs", "--draws", PAIRS_DRAWS, *common),
        _cmd("check-prior", "--counts", FLY_COUNTS, "--prior", FLY_PRIOR,
             "--npred", FLY_NPRED, "--nis", FLY_NIS, *common),
        _cmd("posterior", "--counts", FLY_COUNTS, "--prior", FLY_PRIOR,
             "--sweeps", SWEEPS, "--burn-in", BURN_IN, *common),
    ]


def fly_zm(seed, out):
    return [
        _cmd("check-model", "--counts", FLY_COUNTS, "--zm-delta", ZM_DELTA,
             "--draws", ZM_DRAWS, "--seed", seed, "--out", out, "--workers", 1),
    ]


# name -> (pass commands, default CLI seeds, command whose answer is tracked)
WORKLOADS = {
    "trine-session": (trine_session, (101, 102, 103, 104), "check-prior"),
    "fly-ordered": (fly_ordered, (201, 202, 203), "check-prior"),
    "fly-zm": (fly_zm, (301, 302, 303, 304), "check-model"),
}


# ---------------------------------------------------------------------------
# output checks: each returns (problems, answer)
# ---------------------------------------------------------------------------

def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _rows(out, name):
    """Data rows of a CSV report, as floats."""
    with open(os.path.join(out, name), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(v) for v in r] for r in rows]


def _near(problems, label, value, target, tol):
    if not (isinstance(value, (int, float)) and abs(value - target) <= tol):
        problems.append(f"{label} {value} not within {tol:g} of {target:g}")


def _check_trine_model(out, code, ctx):
    p = []
    rep = _load(out, "model_check.json")
    _near(p, "prior", rep["prior_prob"], TRINE_PRIOR_MASS, TRINE_PRIOR_TOL)
    _near(p, "rb", rep["rb"], TRINE_RB, TRINE_RB_TOL)
    if not rep["post_prob"] >= 0.999:
        p.append(f"posterior content {rep['post_prob']} < 0.999")
    if rep["n_draws"] != TRINE_DRAWS:
        p.append(f"n_draws {rep['n_draws']} != {TRINE_DRAWS}")
    if code != 0 or rep["verdict"] != "favor":
        p.append(f"exit {code}, verdict {rep['verdict']}")
    return p, rep["rb"]


def _check_pairs(out, code, ctx):
    p = []
    rep = _load(out, "model_check.json")
    if not abs(rep["rb"] / PAIRS_RB - 1.0) <= PAIRS_RB_REL:
        p.append(f"pairs rb {rep['rb']} not within 15% of {PAIRS_RB:g}")
    if rep["n_draws"] != PAIRS_DRAWS:
        p.append(f"n_draws {rep['n_draws']} != {PAIRS_DRAWS}")
    if code != 0 or rep["verdict"] != "favor":
        p.append(f"exit {code}, verdict {rep['verdict']}")
    return p, rep["rb"]


def _check_prior(npred, nis, tau=None):
    def check(out, code, ctx):
        p = []
        rep = _load(out, "prior_check.json")
        if not 0.0 <= rep["pvalue"] <= 1.0:
            p.append(f"pvalue {rep['pvalue']} outside [0, 1]")
        if (rep["n_predictive"], rep["n_is"]) != (npred, nis):
            p.append(f"budgets {rep['n_predictive']}/{rep['n_is']} != {npred}/{nis}")
        if tau is not None and rep["tau"] != tau:
            p.append(f"tau {rep['tau']} != {tau}")
        with open(os.path.join(out, "prior_check_points.csv")) as fh:
            points = fh.read().splitlines()[1:]
        if len(points) != npred + 1:
            p.append(f"{len(points)} rows in prior_check_points.csv, want {npred + 1}")
        if code != 0:
            p.append(f"exit {code}")
        return p, rep["pvalue"]
    return check


def _check_consistency(out, code, ctx):
    p = []
    rep = _load(out, "consistency.json")
    _near(p, "limit", rep["limit"], CONSISTENCY_LIMIT, 1e-9)
    ns = [m["n"] for m in rep["medians"]]
    if ns != [int(v) for v in CONSISTENCY_SCHEDULE.split(",")]:
        p.append(f"medians cover n = {ns}")
    if not all(0.0 <= m["median_pvalue"] <= 1.0 for m in rep["medians"]):
        p.append("median p-value outside [0, 1]")
    if rep["sandwich_ok"] is not True:
        p.append("medians outside the limit sandwich")
    if code != 0:
        p.append(f"exit {code}")
    return p, rep["limit"]


def _check_elicit(out, code, ctx):
    p = []
    spec = _load(out, "prior.json")
    rep = _load(out, "elicit.json")
    if spec["type"] != "ordered_dirichlet" or len(spec["omega_alphas"]) != 18:
        p.append("prior.json is not an 18-cell ordered_dirichlet prior")
    tau0, tol = ctx.elicit_tolerance(rep["mc_se"])
    _near(p, "tau", spec["tau"], tau0, tol)
    if code != 0:
        p.append(f"exit {code}")
    return p, spec["tau"]


def _check_posterior(out, code, ctx):
    p = []
    rows = _rows(out, "posterior_samples.csv")
    if len(rows) != SWEEPS - BURN_IN:
        p.append(f"{len(rows)} posterior rows, want {SWEEPS - BURN_IN}")
    for i, r in enumerate(rows):
        if any(a < b for a, b in zip(r, r[1:])) or abs(sum(r) - 1.0) > 1e-8:
            p.append(f"posterior row {i} not decreasing or does not sum to 1")
            break
    if _load(out, "posterior.json")["kept_sweeps"] != len(rows):
        p.append("kept_sweeps disagrees with the CSV")
    if code != 0:
        p.append(f"exit {code}")
    return p, None


def _check_zm(out, code, ctx):
    p = []
    rep = _load(out, "model_check.json")
    rows = _rows(out, "distance_densities.csv")
    for col, label in ((1, "prior"), (2, "posterior")):
        total = sum(r[col] for r in rows) * ZM_DELTA
        _near(p, f"{label} histogram sum", total, 1.0, 1e-6)
    if rep["n_draws"] != ZM_DRAWS:
        p.append(f"n_draws {rep['n_draws']} != {ZM_DRAWS}")
    undefined = rep["verdict"] == "undefined" and rep["prior_first_bin_empty"] is True
    defined = rep["verdict"] == "favor" and rep["rb"] is not None
    if not ((code == 2 and undefined) or (code == 0 and defined)):
        p.append(f"exit {code} with verdict {rep['verdict']}")
    return p, rep["post_first_bin"]


CHECKS = {
    ("trine-session", "check-model"): _check_trine_model,
    ("trine-session", "check-prior"): _check_prior(TRINE_NPRED, TRINE_NIS, tau=7076.0),
    ("trine-session", "consistency"): _check_consistency,
    ("fly-ordered", "elicit"): _check_elicit,
    ("fly-ordered", "check-model"): _check_pairs,
    ("fly-ordered", "check-prior"): _check_prior(FLY_NPRED, FLY_NIS),
    ("fly-ordered", "posterior"): _check_posterior,
    ("fly-zm", "check-model"): _check_zm,
}


def check(workload, name, out, code, ctx):
    """Problems found in one command's output, and the number it answers with.

    A missing or malformed report is a problem, never an exception.
    """
    try:
        return CHECKS[workload, name](out, code, ctx)
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            subprocess.SubprocessError) as exc:
        return [f"exit {code}, unreadable output: {exc!r}"], None


def digest_new_files(out, seen):
    """sha256 of each file in ``out`` that is new or changed since ``seen``; updates ``seen``."""
    new = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            h = hashlib.sha256(fh.read()).hexdigest()
        if seen.get(name) != h:
            new[name] = seen[name] = h
    return new


class CheckContext:
    """State the checks share within one run: the elicitation tolerance."""

    def __init__(self):
        self._slope = None

    def elicit_tolerance(self, mc_se):
        """(checked-in tau, tolerance) for an elicited tau whose achieved-probability se is mc_se.

        A probability se converts to a tau se through the slope dP/dtau of the
        virtual-certainty probability at the checked-in tau, which the
        benchmark estimates on its own (score-function Monte Carlo). The slope
        is computed in a child process so that run.py stays small: the peak
        RSS wait4 reports for a child includes the parent's pages at fork.
        """
        with open(FLY_PRIOR) as fh:
            spec = json.load(fh)
        if self._slope is None:
            done = subprocess.run([sys.executable, os.path.abspath(__file__)],
                                  capture_output=True, text=True, check=True, timeout=60)
            self._slope = float(done.stdout.split()[-1])
        se0 = math.sqrt(spec["gamma"] * (1 - spec["gamma"]) / FLY_PRIOR_DRAWS)
        return spec["tau"], ELICIT_Z * math.hypot(mc_se, se0) / self._slope


def virtual_certainty_slope(spec, n_draws=400_000, seed=12345):
    """d/dtau of P(theta_{k+1} > l, theta_1 < u) under the elicited prior, delta = 0.

    With delta = 0 the weights are Dirichlet(1, ..., 1, 1 + tau); the
    derivative is E[1{event} * d log p(omega)/d tau] (score function), where
    d log p / d tau = log omega_{k+1} - psi(1 + tau) + psi(k + 1 + tau).
    """
    import numpy as np
    from scipy.special import digamma

    k1 = spec["k"] + 1
    tau = spec["tau"]
    alphas = np.ones(k1)
    alphas[-1] += tau
    g = np.random.default_rng(seed).standard_gamma(alphas, size=(n_draws, k1))
    om = g / g.sum(axis=1, keepdims=True)
    theta = np.cumsum((om / np.arange(1, k1 + 1))[:, ::-1], axis=1)[:, ::-1]
    event = (theta[:, -1] > spec["l"]) & (theta[:, 0] < spec["u"])
    score = np.log(om[:, -1]) - digamma(1 + tau) + digamma(alphas.sum())
    return float(np.mean(event * score))


if __name__ == "__main__":
    with open(FLY_PRIOR) as fh:
        print(virtual_certainty_slope(json.load(fh)))
