"""Command-line front end.

Subcommands run one analysis per process and write deterministic JSON
reports (plus plot-ready CSVs) into the output directory; identical
configuration and seed reproduce byte-identical reports. Exit codes:
0 success / evidence in favor, 1 input error (usage errors included),
2 numerical failure, 3 evidence against.

Every command runs on numpy and the standard library alone; none imports
scipy.
"""

import argparse
import csv
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .core import (
    CountVector,
    DirichletParams,
    OrderedCone,
    SimplexPoint,
    TrineEllipse,
    crosshairs_region,
    pauli_region,
    tetrahedron_region,
)
from .consistency import convergence_experiment
from .elicitation import ElicitationInput, elicit_ordered_prior
from .model_check import (
    BetaGrid,
    Strided,
    build_zm_table,
    consecutive_blocks,
    rb_distance_check,
    rb_grouped_check,
    rb_region_check,
)
from .posterior import run_gibbs
from .prior_check import (
    OrderedDirichletPrior,
    ProposalSupportError,
    RawDirichletPrior,
    TrinePrior,
    conflict_pvalue,
    grouped_bounds,
    grouped_conflict_check,
    predictive_in_region_rate,
)
from .sampling import RngStream

ENV_PREFIX = "CONMULT_"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_AGAINST = 3
VERDICT_EXIT = {"favor": EXIT_OK, "against": EXIT_AGAINST, "undefined": EXIT_NUMERIC}


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 1) instead of exiting 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _env_default(name, fallback, cast):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise InputError(f"bad {ENV_PREFIX}{name}={raw!r}: {exc}") from exc


def read_counts(path) -> CountVector:
    """Counts from JSON {"counts": [...]} or a single-column CSV.

    Category order is the data order and is semantically load-bearing for
    ordered models.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read counts file {path}: {exc}") from exc
    if path.endswith(".json") or text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno}") from exc
        if not isinstance(data, dict) or "counts" not in data:
            raise InputError(f'{path}: expected an object with a "counts" array')
        values = data["counts"]
    else:
        values = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: not an integer: {line!r}") from exc
    try:
        return CountVector(np.asarray(values))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def read_prior(path):
    """Prior spec from JSON; returns (prior object, metadata dict)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read prior file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(data, dict):
        raise InputError(f'{path}: expected an object with a "type" field')
    kind = data.get("type")
    try:
        if kind == "trine":
            return TrinePrior(a=float(data["a"])), data
        if kind == "raw_dirichlet":
            return RawDirichletPrior(DirichletParams(np.asarray(data["alphas"], dtype=float))), data
        if kind == "ordered_dirichlet":
            return (
                OrderedDirichletPrior(DirichletParams(np.asarray(data["omega_alphas"], dtype=float))),
                data,
            )
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    raise InputError(f"{path}: unknown prior type {kind!r}")


def parse_region(text, n_cells):
    if text.startswith("trine"):
        a = 1.0 / 3.0
        if ":" in text:
            a = float(text.split(":", 1)[1])
        return TrineEllipse(a=a)
    named = {
        "ordered": lambda: OrderedCone(dim=n_cells),
        "tetrahedron": tetrahedron_region,
        "crosshairs": crosshairs_region,
        "pauli": pauli_region,
    }
    if text in named:
        return named[text]()
    raise InputError(f"unknown region {text!r}")


def parse_group(text, n_cells):
    if text == "pairs":
        return consecutive_blocks(n_cells, n_cells // 2)
    if text == "triples":
        return consecutive_blocks(n_cells, n_cells // 3)
    if text.startswith("m="):
        return consecutive_blocks(n_cells, int(text[2:]))
    if text.startswith("stride="):
        return Strided(int(text[7:]), n_cells)
    raise InputError(f"unknown group layout {text!r}")


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def write_json(out_dir, name, obj):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def write_report(out_dir, name, config, payload):
    report = dict(payload, config=config, config_hash=config_hash(config), version=__version__)
    return write_json(out_dir, name, report)


def write_csv(out_dir, name, header, rows):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_model(args):
    t = read_counts(args.counts)
    rng = RngStream(args.seed)
    config = {
        "command": "check-model", "counts": list(map(int, t.counts)),
        "region": args.region, "group": args.group, "zm_delta": args.zm_delta,
        "draws": args.draws, "seed": args.seed, "workers": args.workers,
    }
    if args.zm_delta is not None:
        table = build_zm_table(t.k, args.zm_delta, BetaGrid())
        rep = rb_distance_check(t, args.zm_delta, table, args.draws, rng,
                                workers=args.workers)
        bins = [i * args.zm_delta for i in range(len(rep.prior_hist))]
        write_csv(args.out, "distance_densities.csv",
                  ["bin_left", "prior_density", "post_density"],
                  [(f"{b:.10g}", f"{p / args.zm_delta:.10g}", f"{q / args.zm_delta:.10g}")
                   for b, p, q in zip(bins, rep.prior_hist, rep.post_hist)])
        verdict = rep.verdict()
        undefined = verdict == "undefined"
        payload = {
            "mode": "zm_distance",
            "rb": None if undefined else rep.rb_zero,
            "strength": None if undefined else rep.strength,
            "delta": rep.delta, "n_draws": rep.n_draws,
            "prior_first_bin_empty": rep.prior_first_bin_empty,
            "prior_first_bin": float(rep.prior_hist[0]),
            "post_first_bin": float(rep.post_hist[0]),
            "verdict": verdict,
        }
        note = "first prior bin empty: relative belief ratio undefined; increase --draws"
        line = f"rb={payload['rb']} strength={payload['strength']} verdict={verdict}"
    else:
        region = parse_region(args.region, len(t))
        if args.group is not None:
            if not isinstance(region, OrderedCone):
                raise InputError("--group applies only to the ordered region")
            rep = rb_grouped_check(t, parse_group(args.group, len(t)), args.draws, rng,
                                   workers=args.workers)
        else:
            rep = rb_region_check(t, region, args.draws, rng, workers=args.workers)
        verdict = rep.verdict()
        undefined = verdict == "undefined"
        payload = {
            "mode": "region",
            "prior_prob": rep.prior_prob, "post_prob": rep.post_prob,
            "rb": None if undefined else rep.rb, "strength": rep.strength,
            "mc_se": rep.mc_se, "n_draws": rep.n_draws,
            "prior_prob_analytic": rep.prior_prob_analytic, "verdict": verdict,
        }
        note = (f"no posterior draw in the region, whose prior content {rep.prior_prob:.3g} "
                f"is at or below the 3/draws bound {3 / rep.n_draws:.3g}: relative belief "
                "ratio undefined; increase --draws or group the cells")
        rb = "None" if undefined else f"{rep.rb:.6g}"
        line = f"prior={rep.prior_prob:.6g} post={rep.post_prob:.6g} rb={rb} verdict={verdict}"
    write_report(args.out, "model_check.json", config, payload)
    if undefined:
        print(note, file=sys.stderr)
    print(line)
    return VERDICT_EXIT[verdict]


def _require_model_pass(args):
    path = args.model_report or os.path.join(args.out, "model_check.json")
    if not os.path.exists(path):
        raise InputError(
            f"no model check report at {path}; run check-model first or pass --force"
        )
    with open(path) as fh:
        verdict = json.load(fh).get("verdict")
    if verdict != "favor":
        raise InputError(
            f"model check verdict is {verdict!r}, not 'favor'; checking the prior "
            "is only meaningful once the model passes (override with --force)"
        )


def cmd_check_prior(args):
    t = read_counts(args.counts)
    prior, meta = read_prior(args.prior)
    if not args.force:
        _require_model_pass(args)
    rng = RngStream(args.seed)
    config = {
        "command": "check-prior", "counts": list(map(int, t.counts)),
        "prior": meta, "npred": args.npred, "nis": args.nis, "tau": args.tau,
        "group": args.group, "seed": args.seed, "threshold": args.threshold,
    }
    payload = {}
    if args.group is not None:
        if not isinstance(prior, OrderedDirichletPrior):
            raise InputError("--group prior checks need an ordered_dirichlet prior")
        spec = parse_group(args.group, len(t))
        if not args.group.startswith("stride="):
            raise InputError("grouped prior checks use the strided layout (stride=K)")
        rep = grouped_conflict_check(t, prior, spec.n_groups, args.npred, args.nis, rng,
                                     tau=args.tau)
        payload["group_m"] = spec.n_groups
        payload["in_region_rate"] = predictive_in_region_rate(
            prior, spec, t.n, 10_000, rng.substream(99)
        )
        if "l" in meta and "u" in meta:
            lred, ured = grouped_bounds(float(meta["l"]), float(meta["u"]), t.k, spec.n_groups)
            payload["grouped_bounds"] = {"l": lred, "u": ured}
    else:
        rep = conflict_pvalue(t, prior, args.npred, args.nis, rng, tau=args.tau,
                              workers=args.workers)
    write_csv(args.out, "prior_check_points.csv",
              ["point", "log_m", "se"],
              [("obs", f"{rep.log_m_obs:.10g}", f"{rep.se_obs:.10g}")]
              + [(str(j), f"{lm:.10g}", f"{se:.10g}")
                 for j, (lm, se) in enumerate(zip(rep.log_m_pred, rep.se_pred))])
    payload.update({
        "pvalue": rep.pvalue, "n_predictive": rep.n_predictive, "n_is": rep.n_is,
        "tau": rep.tau, "log_m_obs": rep.log_m_obs,
        "ess_min": rep.ess_min, "ess_median": rep.ess_median,
        "n_failed": rep.n_failed, "unreliable": rep.unreliable,
        "tau_profile": rep.tau_profile,
        "prior_unnormalized": not prior.normalized,
        "conflict": rep.pvalue < args.threshold,
    })
    write_report(args.out, "prior_check.json", config, payload)
    print(f"pvalue={rep.pvalue:.4f} tau={rep.tau:.4g} "
          f"conflict={'yes' if payload['conflict'] else 'no'}")
    return EXIT_OK


def cmd_elicit(args):
    inp = ElicitationInput(k=args.k, delta=args.delta, l=args.l, u=args.u,
                           gamma=args.gamma)
    params, res = elicit_ordered_prior(inp, args.draws, RngStream(args.seed))
    config = {
        "command": "elicit", "k": args.k, "delta": args.delta, "l": args.l,
        "u": args.u, "gamma": args.gamma, "draws": args.draws, "seed": args.seed,
    }
    spec = {
        "type": "ordered_dirichlet", "k": args.k, "delta": args.delta,
        "l": args.l, "u": args.u, "gamma": args.gamma, "tau": res.tau,
        "omega_alphas": list(map(float, params.alphas)),
    }
    path = write_json(args.out, "prior.json", spec)
    write_report(args.out, "elicit.json", config, {
        "tau": res.tau, "achieved": res.achieved, "mc_se": res.mc_se,
        "prior_file": "prior.json",
    })
    print(f"tau={res.tau:.4g} achieved={res.achieved:.4f} -> {path}")
    return EXIT_OK


def cmd_posterior(args):
    t = read_counts(args.counts)
    prior, meta = read_prior(args.prior)
    if not isinstance(prior, OrderedDirichletPrior):
        raise InputError("posterior sampling needs an ordered_dirichlet prior")
    samples, diag = run_gibbs(t, prior.omega_params, args.sweeps, args.burn_in,
                              None, RngStream(args.seed))
    write_csv(args.out, "posterior_samples.csv",
              [f"theta_{j + 1}" for j in range(samples.shape[1])],
              [[f"{v:.10g}" for v in row] for row in samples])
    config = {
        "command": "posterior", "counts": list(map(int, t.counts)), "prior": meta,
        "sweeps": args.sweeps, "burn_in": args.burn_in, "seed": args.seed,
    }
    qs = np.quantile(samples, [0.025, 0.5, 0.975], axis=0)
    ess = float(samples.shape[0] / diag.autocorr_time.max())  # worst coordinate
    write_report(args.out, "posterior.json", config, {
        "means": [float(v) for v in samples.mean(axis=0)],
        "q025": [float(v) for v in qs[0]],
        "median": [float(v) for v in qs[1]],
        "q975": [float(v) for v in qs[2]],
        "autocorr_time": [float(v) for v in diag.autocorr_time],
        "ess": ess,
        "kept_sweeps": int(samples.shape[0]),
    })
    print(f"kept {samples.shape[0]} sweeps; "
          f"max autocorrelation time {diag.autocorr_time.max():.1f}; ess {ess:.0f}")
    return EXIT_OK


def cmd_consistency(args):
    alphas = DirichletParams(np.asarray([float(v) for v in args.alphas.split(",")]))
    theta = SimplexPoint(np.asarray([float(v) for v in args.theta_true.split(",")]))
    schedule = [int(v) for v in args.schedule.split(",")]
    table = convergence_experiment(alphas, theta, schedule, RngStream(args.seed),
                                   replications=args.replications)
    write_csv(args.out, "convergence.csv",
              ["n", "replication", "pvalue", "limit", "abs_error"],
              [(r.n, r.replication, f"{r.pvalue:.10g}", f"{table.limit:.10g}",
                f"{r.abs_error:.10g}") for r in table.rows])
    config = {
        "command": "consistency", "alphas": args.alphas,
        "theta_true": args.theta_true, "schedule": args.schedule,
        "replications": args.replications, "seed": args.seed,
    }
    write_report(args.out, "consistency.json", config, {
        "limit": table.limit,
        "medians": [{"n": n, "median_pvalue": p, "median_abs_error": e}
                    for n, p, e in table.medians()],
        "sandwich_ok": table.sandwich_ok(slack=0.05),
    })
    for n, p, e in table.medians():
        print(f"n={n}: median pvalue={p:.4f} (limit {table.limit:.4f}, err {e:.4f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(
        prog="conmult",
        description="Bayesian checks for constrained multinomial models "
                    "(defaults can be overridden via CONMULT_* environment variables)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, draws=False):
        p.add_argument("--seed", type=int,
                       default=_env_default("SEED", 20260810, int))
        p.add_argument("--out", default=_env_default("OUT", "out", str))
        p.add_argument("--workers", type=int,
                       default=_env_default("WORKERS", 1, int))
        if draws:
            p.add_argument("--draws", type=int,
                           default=_env_default("DRAWS", 100_000, int))

    p = sub.add_parser("check-model", help="relative-belief check of a constraint region")
    p.add_argument("--counts", required=True)
    p.add_argument("--region", default="ordered",
                   help="trine[:a] | ordered | tetrahedron | crosshairs | pauli")
    p.add_argument("--group", help="pairs | triples | m=K | stride=K")
    p.add_argument("--zm-delta", type=float, dest="zm_delta",
                   help="run the Zipf-Mandelbrot distance check at this resolution")
    common(p, draws=True)
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("check-prior", help="prior-data conflict check")
    p.add_argument("--counts", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--npred", type=int, default=_env_default("NPRED", 1000, int))
    p.add_argument("--nis", type=int, default=_env_default("NIS", 10_000, int))
    p.add_argument("--tau", type=float, help="fixed proposal concentration")
    p.add_argument("--group", help="stride=K grouped check of an elicited prior")
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--model-report", dest="model_report",
                   help="path to the model check report (default <out>/model_check.json)")
    p.add_argument("--force", action="store_true",
                   help="check the prior even without a passing model check")
    common(p)
    p.set_defaults(func=cmd_check_prior)

    p = sub.add_parser("elicit", help="elicit an ordered-probabilities prior")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--draws", type=int, default=_env_default("DRAWS", 40_000, int))
    common(p)
    p.set_defaults(func=cmd_elicit)

    p = sub.add_parser("posterior", help="Gibbs sampling under an ordered prior")
    p.add_argument("--counts", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--sweeps", type=int, default=5000)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=500)
    common(p)
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("consistency", help="convergence experiment for the conflict check")
    p.add_argument("--alphas", required=True, help="comma-separated Dirichlet parameters")
    p.add_argument("--theta-true", dest="theta_true", required=True,
                   help="comma-separated true probabilities")
    p.add_argument("--schedule", default="100,1000,10000")
    p.add_argument("--replications", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_consistency)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        # includes core.MeasureZeroRegionError, which points at the distance check
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ProposalSupportError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
