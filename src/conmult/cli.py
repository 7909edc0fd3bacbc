"""Command-line front end.

Subcommands run one analysis per process and write deterministic JSON
reports (plus plot-ready CSVs) into the output directory; identical
configuration and seed reproduce byte-identical reports. Exit codes:
0 success / evidence in favor, 1 input error (usage errors included),
2 numerical failure, 3 evidence against.

Every command runs on numpy and the standard library alone; none imports
scipy. Each command imports the modules it runs inside its own functions, so a
process loads only what its command needs.
"""

import argparse
import gc
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
    consecutive_blocks,
    group_counts,
    quantiles,
    strided,
    tetrahedron_region,
)
from .sampling import RngStream

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


def read_text(path, kind):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc


def json_object(path, text, what, key=None):
    """The JSON object in ``text``, read from ``path``, holding ``key`` if one is given.

    ``what`` describes the expected object in the error message.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(data, dict) or (key is not None and key not in data):
        raise InputError(f"{path}: expected an object with {what}")
    return data


def read_counts(path) -> CountVector:
    """Counts from JSON {"counts": [...]} or a single-column CSV.

    Category order is the data order and is semantically load-bearing for
    ordered models.
    """
    text = read_text(path, "counts")
    if path.endswith(".json") or text.lstrip().startswith("{"):
        values = json_object(path, text, 'a "counts" array', key="counts")["counts"]
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


# each prior type's parameter field in a prior file
PRIOR_FIELDS = {"trine": "a", "raw_dirichlet": "alphas", "ordered_dirichlet": "omega_alphas"}


def read_prior_params(path):
    """Prior spec from JSON, checked but not built; returns (type, parameters, metadata dict).

    The parameters are the trine's ``a`` or the Dirichlet parameters. This
    needs no ``prior_check``, which ``posterior`` does not load.
    """
    data = json_object(path, read_text(path, "prior"), 'a "type" field')
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in PRIOR_FIELDS:
        raise InputError(f"{path}: unknown prior type {kind!r}")
    try:
        value = data[PRIOR_FIELDS[kind]]
        params = float(value) if kind == "trine" else DirichletParams(np.asarray(value, dtype=float))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    return kind, params, data


def read_prior(path):
    """Prior spec from JSON; returns (prior object, metadata dict)."""
    from .prior_check import OrderedDirichletPrior, RawDirichletPrior, TrinePrior

    kind, params, data = read_prior_params(path)
    build = {"trine": TrinePrior, "raw_dirichlet": RawDirichletPrior,
             "ordered_dirichlet": OrderedDirichletPrior}[kind]
    try:
        return build(params), data
    except ValueError as exc:  # a trine's a outside (0, 1/2)
        raise InputError(f"{path}: {exc}") from exc


def parse_region(text, n_cells):
    if text == "trine":
        return TrineEllipse(a=1.0 / 3.0)
    if text.startswith("trine:"):
        return TrineEllipse(a=float(text[len("trine:"):]))
    if text in ("crosshairs", "pauli"):  # the paper's hypotheses of prior mass zero
        raise InputError("region has no flat-prior content, so its relative belief ratio "
                         "is undefined")
    named = {
        "ordered": lambda: OrderedCone(dim=n_cells),
        "tetrahedron": tetrahedron_region,
    }
    if text in named:
        return named[text]()
    raise InputError(f"unknown region {text!r}")


def parse_group(text, n_cells):
    """The group labels of a ``--group`` spelling (see ``core.consecutive_blocks``)."""
    if text == "pairs":
        return consecutive_blocks(n_cells, n_cells // 2)
    if text == "triples":
        return consecutive_blocks(n_cells, n_cells // 3)
    name, _, value = text.partition("=")
    if name in ("m", "stride"):
        try:
            m = int(value)
        except ValueError:
            pass
        else:
            return consecutive_blocks(n_cells, m) if name == "m" else strided(m, n_cells)
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


CSV_BLOCK = 256  # rows formatted and written at a time


def write_csv(out_dir, name, header, values, labels=None):
    """Comma-separated rows with CRLF line ends, the bytes of ``csv.writer``'s default dialect.

    Row i is ``labels[i]``, each field by ``%s``, then ``values[i]`` as ``f"{v:.10g}"`` gives
    it; no field needs that dialect's quotes. The rows go out CSV_BLOCK at a time, so the
    text of the whole file is never held at once.
    """
    values = np.asarray(values, dtype=float)
    row = "%s," * len(labels[0] if labels else ()) + ",".join(["%.10g"] * values.shape[1]) + "\r\n"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(values), CSV_BLOCK):
            block = values[i:i + CSV_BLOCK].tolist()
            lead = labels[i:i + CSV_BLOCK] if labels else [()] * len(block)
            fh.write("".join([row % (*a, *v) for a, v in zip(lead, block)]))
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_model(args):
    from .model_check import rb_distance_check, rb_region_check

    t = read_counts(args.counts)
    if args.zm_delta is None:
        args.region = args.region or "ordered"
    elif args.region is not None:
        raise InputError("--region does not apply to the ZM distance check")
    config = {
        "command": "check-model", "counts": list(map(int, t.counts)),
        "region": args.region, "group": args.group, "zm_delta": args.zm_delta,
        "draws": args.draws, "seed": args.seed, "workers": args.workers,
    }
    if args.zm_delta is not None:
        if args.group is not None:
            raise InputError("--group does not apply to the ZM distance check")
        rep = rb_distance_check(t, args.zm_delta, args.draws, RngStream(args.seed),
                                workers=args.workers)
        bins = [i * args.zm_delta for i in range(len(rep.prior_hist))]
        write_csv(args.out, "distance_densities.csv",
                  ["bin_left", "prior_density", "post_density"],
                  np.column_stack([bins, rep.prior_hist / args.zm_delta,
                                   rep.post_hist / args.zm_delta]))
        verdict = rep.verdict()
        undefined = verdict == "undefined"
        payload = {
            "mode": "zm_distance",
            "rb": None if undefined else rep.rb_zero,
            "strength": None if undefined else rep.strength,
            "delta": args.zm_delta, "n_draws": args.draws,
            "prior_first_bin_empty": rep.prior_first_bin_empty,
            "prior_first_bin": float(rep.prior_hist[0]),
            "post_first_bin": float(rep.post_hist[0]),
            "verdict": verdict,
        }
        note = ("first prior bin empty: relative belief ratio undefined; increase --draws"
                if rep.prior_first_bin_empty else
                "relative belief ratio exactly 1: no evidence either way; lower --zm-delta")
        line = f"rb={payload['rb']} strength={payload['strength']} verdict={verdict}"
    else:
        region = parse_region(args.region, len(t))
        if args.group is not None:
            if not isinstance(region, OrderedCone):
                raise InputError("--group applies only to the ordered region")
            # the grouped counts are a fresh multinomial on m cells under the flat prior
            t = group_counts(t, parse_group(args.group, len(t)))
            region = OrderedCone(dim=len(t))
        rep = rb_region_check(t, region)
        verdict = rep.verdict()
        undefined = verdict == "undefined"
        payload = {
            "mode": "region", "method": "exact",
            "prior_prob": rep.prior_prob, "post_prob": rep.post_prob,
            "rb": None if undefined else rep.rb, "strength": rep.post_prob,
            "mc_se": rep.mc_se, "n_draws": args.draws, "verdict": verdict,
            "log_rb": rep.log_rb, "log_cert": rep.log_cert,
        }
        note = (f"the log relative belief ratio {rep.log_rb:.3g} lies within its quadrature "
                f"certificate {rep.log_cert:.3g} of 0: relative belief ratio undefined"
                + ("; group the cells" if isinstance(region, OrderedCone) else ""))
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
    verdict = json_object(path, read_text(path, "model check report"),
                          'a "verdict" field').get("verdict")
    if verdict != "favor":
        raise InputError(
            f"model check verdict is {verdict!r}, not 'favor'; checking the prior "
            "is only meaningful once the model passes (override with --force)"
        )


def cmd_check_prior(args):
    from .prior_check import (OrderedDirichletPrior, conflict_pvalue, grouped_bounds,
                              grouped_conflict_check, predictive_in_region_rate)

    t = read_counts(args.counts)
    prior, meta = read_prior(args.prior)
    if not 0 <= args.threshold <= 1:
        raise InputError(f"--threshold must lie in [0, 1], got {args.threshold}")
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
        if not args.group.startswith("stride="):
            raise InputError("grouped prior checks use the strided layout (stride=K)")
        labels = parse_group(args.group, len(t))
        rep = grouped_conflict_check(t, prior, labels, args.npred, args.nis, rng,
                                     tau=args.tau, workers=args.workers)
        payload["group_m"] = max(labels) + 1
        payload["in_region_rate"] = predictive_in_region_rate(
            prior, labels, t.n, 10_000, rng.substream(99)
        )
        if "l" in meta and "u" in meta:
            lred, ured = grouped_bounds(float(meta["l"]), float(meta["u"]), labels)
            payload["grouped_bounds"] = {"l": lred, "u": ured}
    else:
        rep = conflict_pvalue(t, prior, args.npred, args.nis, rng, tau=args.tau,
                              workers=args.workers)
    write_csv(args.out, "prior_check_points.csv", ["point", "log_m", "se"],
              np.column_stack([np.r_[rep.log_m_obs, rep.log_m_pred],
                               np.r_[rep.se_obs, rep.se_pred]]),
              [("obs",), *((j,) for j in range(len(rep.log_m_pred)))])
    payload.update({
        "pvalue": rep.pvalue, "method": rep.method, "n_predictive": args.npred,
        "n_is": args.nis, "tau": rep.tau, "log_m_obs": rep.log_m_obs,
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
    from .elicitation import ElicitationInput, elicit_ordered_prior

    inp = ElicitationInput(k=args.k, delta=args.delta, l=args.l, u=args.u,
                           gamma=args.gamma)
    params, res = elicit_ordered_prior(inp)
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
        "tau": res.tau, "achieved": res.achieved, "mc_se": res.mc_se, "method": "exact",
        "prior_file": "prior.json",
    })
    print(f"tau={res.tau:.4g} achieved={res.achieved:.4f} -> {path}")
    return EXIT_OK


def cmd_posterior(args):
    from .posterior import check_sweeps, has_exact_draws, run_gibbs, sample_ordered_posterior

    t = read_counts(args.counts)
    kind, omega, meta = read_prior_params(args.prior)
    if kind != "ordered_dirichlet":
        raise InputError("posterior sampling needs an ordered_dirichlet prior")
    check_sweeps(args.sweeps, args.burn_in)
    rng = RngStream(args.seed)
    # the exact path writes as many iid draws as the chain would keep sweeps
    if has_exact_draws(omega):
        samples = sample_ordered_posterior(t, omega, args.sweeps - args.burn_in, rng)
        payload = {"method": "exact", "ess": float(samples.shape[0])}
        line = f"kept {samples.shape[0]} exact draws; ess {samples.shape[0]}"
    else:
        samples, act = run_gibbs(t, omega, args.sweeps, args.burn_in, None, rng)
        ess = float(samples.shape[0] / act.max())  # worst coordinate
        payload = {"method": "gibbs", "ess": ess, "autocorr_time": [float(v) for v in act]}
        line = (f"kept {samples.shape[0]} sweeps; "
                f"max autocorrelation time {act.max():.1f}; ess {ess:.0f}")
    write_csv(args.out, "posterior_samples.csv",
              [f"theta_{j + 1}" for j in range(samples.shape[1])], samples)
    config = {
        "command": "posterior", "counts": list(map(int, t.counts)), "prior": meta,
        "sweeps": args.sweeps, "burn_in": args.burn_in, "seed": args.seed,
    }
    qs = quantiles(samples, [0.025, 0.5, 0.975])
    write_report(args.out, "posterior.json", config, dict(
        payload,
        means=[float(v) for v in samples.mean(axis=0)],
        q025=[float(v) for v in qs[0]],
        median=[float(v) for v in qs[1]],
        q975=[float(v) for v in qs[2]],
        kept_sweeps=int(samples.shape[0]),
    ))
    print(line)
    return EXIT_OK


def cmd_consistency(args):
    from .consistency import convergence_experiment

    alphas = DirichletParams(np.asarray([float(v) for v in args.alphas.split(",")]))
    theta = SimplexPoint(np.asarray([float(v) for v in args.theta_true.split(",")]))
    schedule = [int(v) for v in args.schedule.split(",")]
    table = convergence_experiment(alphas, theta, schedule, RngStream(args.seed),
                                   replications=args.replications)
    write_csv(args.out, "convergence.csv",
              ["n", "replication", "pvalue", "limit", "abs_error"],
              [(r.pvalue, table.limit, r.abs_error) for r in table.rows],
              [(r.n, r.replication) for r in table.rows])
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

def positive_int(text):
    """An ``int`` of at least 1, for argparse."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = _Parser(prog="conmult",
                     description="Bayesian checks for constrained multinomial models")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, draws=False):
        p.add_argument("--seed", type=int, default=20260810)
        p.add_argument("--out", default="out")
        p.add_argument("--workers", type=positive_int, default=1)
        if draws:
            p.add_argument("--draws", type=positive_int, default=100_000,
                           help="Monte Carlo draws of the ZM distance check (echoed by the "
                                "region checks, which draw nothing)")

    p = sub.add_parser("check-model", help="relative-belief check of a constraint region")
    p.add_argument("--counts", required=True)
    p.add_argument("--region",
                   help="trine[:a] | ordered (default) | tetrahedron; crosshairs and pauli "
                        "are refused: they have no flat-prior content")
    p.add_argument("--group", help="pairs | triples | m=K | stride=K")
    p.add_argument("--zm-delta", type=float, dest="zm_delta",
                   help="run the Zipf-Mandelbrot distance check at this resolution")
    common(p, draws=True)
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("check-prior", help="prior-data conflict check")
    p.add_argument("--counts", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--npred", type=int, default=1000)
    p.add_argument("--nis", type=int, default=10_000,
                   help="importance draws per point (ordered priors; echoed for the others)")
    p.add_argument("--tau", type=float,
                   help="fixed proposal concentration (ordered priors; echoed for the others)")
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
    p.add_argument("--draws", type=positive_int, default=40_000,
                   help="only echoed, as is --seed: the virtual certainty is exact")
    common(p)
    p.set_defaults(func=cmd_elicit)

    p = sub.add_parser("posterior", help="posterior draws under an ordered prior: exact iid "
                                         "for a flat-mode (elicit --delta 0) prior, else Gibbs")
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
    except (InputError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # RuntimeError includes prior_check.ProposalSupportError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    """Process entry of the ``conmult`` script and of ``python -m conmult.cli``.

    ``gc.freeze`` moves the objects the imports made, about 23k of numpy's and
    the package's, into the collector's permanent generation, so no later
    collection walks them, the full one at interpreter exit included. Frozen
    objects are never freed, which suits a process that runs one command and
    exits; ``main``, which tests and other callers run in-process, therefore
    leaves the collector alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
