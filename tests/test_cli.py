import gc
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conmult.cli import main

from conftest import FLY_COUNTS, TRINE_SYMMETRIC, mp_level_set_prob


def write_counts(path, counts, fmt="json"):
    if fmt == "json":
        path = str(path / "counts.json")
        with open(path, "w") as fh:
            json.dump({"counts": [int(c) for c in counts]}, fh)
    else:
        path = str(path / "counts.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(str(int(c)) for c in counts) + "\n")
    return path


def fresh_env():
    """The caller's environment with ``src`` on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


class TestCountsParsing:
    def test_csv_and_json_agree(self, tmp_path):
        from conmult.cli import read_counts

        a = read_counts(write_counts(tmp_path, TRINE_SYMMETRIC, "json"))
        b = read_counts(write_counts(tmp_path, TRINE_SYMMETRIC, "csv"))
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_malformed_csv_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("3\n4\nx\n")
        code = main(["check-model", "--counts", str(p), "--region", "trine",
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_missing_file(self, tmp_path):
        code = main(["check-model", "--counts", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1


class TestCheckModel:
    def test_trine_favor_and_reproducible(self, tmp_path):
        counts = write_counts(tmp_path, TRINE_SYMMETRIC)
        out = str(tmp_path / "out")
        args = ["check-model", "--counts", counts, "--region", "trine",
                "--draws", "20000", "--seed", "7", "--out", out]
        assert main(args) == 0
        rep = load(out, "model_check.json")
        assert rep["verdict"] == "favor"
        assert rep["prior_prob"] == pytest.approx(0.6046, abs=1e-4)
        first = open(os.path.join(out, "model_check.json"), "rb").read()
        assert main(args) == 0
        second = open(os.path.join(out, "model_check.json"), "rb").read()
        assert first == second

    def test_trine_report_ignores_draws_and_workers(self, tmp_path, capsys):
        # the trine content is exact: --draws is echoed and --workers changes nothing
        counts = write_counts(tmp_path, TRINE_SYMMETRIC)
        reports = []
        for draws, workers in (("1", "1"), ("100000", "1"), ("100000", "2")):
            out = str(tmp_path / f"out-{draws}-{workers}")
            assert main(["check-model", "--counts", counts, "--region", "trine", "--draws", draws,
                         "--workers", workers, "--seed", "7", "--out", out]) == 0
            rep = load(out, "model_check.json")
            assert rep.pop("config")["draws"] == rep.pop("n_draws") == int(draws)
            del rep["config_hash"]
            reports.append(rep)
        assert reports[0] == reports[1] == reports[2]
        assert capsys.readouterr().out == "prior=0.6046 post=1 rb=1.65399 verdict=favor\n" * 3
        rep = reports[0]
        assert (rep["method"], rep["post_prob"]) == ("exact", 1.0)
        assert rep["log_rb"] == math.log(rep["rb"]) and 0 < rep["log_cert"] < 1e-4

    def test_against_verdict_exit_code(self, tmp_path):
        counts = write_counts(tmp_path, np.array([900, 50, 50]))
        out = str(tmp_path / "out")
        code = main(["check-model", "--counts", counts, "--region", "trine",
                     "--draws", "5000", "--seed", "7", "--out", out])
        assert code == 3
        assert load(out, "model_check.json")["verdict"] == "against"

    def test_ungrouped_cone_content_is_exact(self, tmp_path, capsys):
        # the 18-cell cone has prior content 1/18!, which no feasible number of
        # draws can hit; its exact posterior content decides, and --draws is echoed
        counts = write_counts(tmp_path, FLY_COUNTS)
        out = str(tmp_path / "out")
        code = main(["check-model", "--counts", counts, "--region", "ordered",
                     "--draws", "5000", "--seed", "7", "--out", out])
        assert code == 0
        rep = load(out, "model_check.json")
        assert (rep["verdict"], rep["method"], rep["n_draws"]) == ("favor", "exact", 5000)
        assert rep["prior_prob"] == 1 / math.factorial(18)
        assert rep["post_prob"] == pytest.approx(2.90549e-7, rel=1e-5)
        assert rep["rb"] == pytest.approx(1.8602e9, rel=1e-4)
        assert 0 < rep["mc_se"] < 1e-4 * rep["post_prob"]
        assert rep["log_rb"] == pytest.approx(math.log(1.8602e9), abs=1e-4)
        assert capsys.readouterr().err == ""

    def test_grouped_ordered(self, tmp_path):
        counts = write_counts(tmp_path, FLY_COUNTS)
        out = str(tmp_path / "out")
        code = main(["check-model", "--counts", counts, "--region", "ordered",
                     "--group", "pairs", "--draws", "50000", "--seed", "7",
                     "--out", out])
        assert code == 0
        rep = load(out, "model_check.json")
        assert rep["rb"] == pytest.approx(14726, rel=0.25)
        assert rep["log_rb"] == pytest.approx(math.log(rep["rb"]), rel=1e-12)

    def test_zm_distance_mode(self, tmp_path):
        counts = write_counts(tmp_path, np.array([40, 30, 20, 10]))
        out = str(tmp_path / "out")
        code = main(["check-model", "--counts", counts, "--zm-delta", "0.05",
                     "--draws", "8000", "--seed", "7", "--out", out])
        assert code in (0, 2, 3)
        rep = load(out, "model_check.json")
        assert rep["mode"] == "zm_distance"
        assert os.path.exists(os.path.join(out, "distance_densities.csv"))
        # the ZM table is rebuilt per run, never cached in the output directory
        assert not any(f.startswith("zm_table") for f in os.listdir(out))

    def test_measure_zero_region_is_input_error(self, tmp_path, capsys):
        for region, cells in (("crosshairs", 4), ("pauli", 6)):
            counts = write_counts(tmp_path, np.full(cells, 25))
            code = main(["check-model", "--counts", counts, "--region", region,
                         "--draws", "2000", "--out", str(tmp_path / "out")])
            assert code == 1
            assert "no flat-prior content" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "model_check.json")

    def test_tetrahedron_prior_content_is_exact(self, tmp_path, capsys):
        counts = write_counts(tmp_path, np.array([25, 25, 25, 25]))
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", counts, "--region", "tetrahedron",
                     "--out", out]) == 0
        assert capsys.readouterr().out == "prior=0.3023 post=1 rb=3.30797 verdict=favor\n"
        rep = load(out, "model_check.json")
        assert rep["prior_prob"] == pytest.approx(np.pi / (6 * np.sqrt(3)), rel=1e-14)
        assert "prior_prob_analytic" not in rep
        # the posterior content is exact too, and --draws is echoed
        assert (rep["method"], rep["n_draws"]) == ("exact", 100_000)
        assert rep["log_rb"] == pytest.approx(math.log(3.30797), abs=2e-6)
        assert 0 < rep["log_cert"] < 0.01

    @pytest.mark.parametrize("counts", [[0, 0, 0, 1], [0, 0, 1, 0]])
    def test_tetrahedron_single_count_is_undefined(self, tmp_path, capsys, counts):
        # the posterior density 4 theta_i integrates over the ball, which is symmetric
        # about the centroid, to the prior content: the ratio is exactly 1
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", write_counts(tmp_path, np.array(counts)),
                     "--region", "tetrahedron", "--out", out]) == 2
        rep = load(out, "model_check.json")
        assert (rep["verdict"], rep["rb"], rep["method"]) == ("undefined", None, "exact")
        assert abs(rep["log_rb"]) <= rep["log_cert"] < 1e-12
        assert rep["post_prob"] == pytest.approx(rep["prior_prob"], rel=1e-12)
        captured = capsys.readouterr()
        assert captured.out == "prior=0.3023 post=0.3023 rb=None verdict=undefined\n"
        assert "relative belief ratio undefined" in captured.err
        assert "group the cells" not in captured.err


class TestCheckPrior:
    def trine_prior_file(self, tmp_path):
        p = tmp_path / "prior.json"
        p.write_text(json.dumps({"type": "trine", "a": 1 / 3}))
        return str(p)

    def test_requires_model_check_first(self, tmp_path):
        counts = write_counts(tmp_path, TRINE_SYMMETRIC)
        code = main(["check-prior", "--counts", counts,
                     "--prior", self.trine_prior_file(tmp_path),
                     "--npred", "20", "--nis", "500",
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_force_runs_without_model_check(self, tmp_path):
        counts = write_counts(tmp_path, TRINE_SYMMETRIC)
        out = str(tmp_path / "out")
        code = main(["check-prior", "--counts", counts,
                     "--prior", self.trine_prior_file(tmp_path), "--force",
                     "--npred", "30", "--nis", "500", "--seed", "5", "--out", out])
        assert code == 0
        rep = load(out, "prior_check.json")
        assert 0 <= rep["pvalue"] <= 1
        assert rep["prior_unnormalized"] is True
        assert os.path.exists(os.path.join(out, "prior_check_points.csv"))

    def test_runs_after_passing_model_check(self, tmp_path):
        counts = write_counts(tmp_path, TRINE_SYMMETRIC)
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", counts, "--region", "trine",
                     "--draws", "5000", "--seed", "5", "--out", out]) == 0
        code = main(["check-prior", "--counts", counts,
                     "--prior", self.trine_prior_file(tmp_path),
                     "--npred", "30", "--nis", "500", "--seed", "5", "--out", out])
        assert code == 0

    def test_missing_prior_file(self, tmp_path):
        counts = write_counts(tmp_path, TRINE_SYMMETRIC)
        code = main(["check-prior", "--counts", counts, "--prior",
                     str(tmp_path / "nope.json"), "--force",
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_non_object_prior_file(self, tmp_path):
        from conmult.cli import InputError, read_prior

        p = tmp_path / "prior.json"
        p.write_text("[1, 2]")
        with pytest.raises(InputError, match="expected an object"):
            read_prior(str(p))

    def test_grouped_check_honours_workers(self, tmp_path, monkeypatch):
        import conmult.prior_check as prior_check

        seen = []
        real = prior_check.parallel_map

        def spy(fn, items, workers):
            seen.append(workers)
            return real(fn, items, workers)

        monkeypatch.setattr(prior_check, "parallel_map", spy)
        counts = write_counts(tmp_path, np.array([30, 25, 20, 12, 8, 5]))
        prior = str(tmp_path / "prior.json")
        with open(prior, "w") as fh:
            json.dump({"type": "ordered_dirichlet", "omega_alphas": [1.0] * 5 + [3.0]}, fh)
        reports = []
        for workers in (1, 2):
            seen.clear()
            out = str(tmp_path / f"out{workers}")
            assert main(["check-prior", "--counts", counts, "--prior", prior, "--force",
                         "--group", "stride=3", "--npred", "25", "--nis", "300",
                         "--seed", "9", "--workers", str(workers), "--out", out]) in (0, 3)
            assert max(seen) == workers
            reports.append([open(os.path.join(out, name), "rb").read()
                            for name in ("prior_check.json", "prior_check_points.csv")])
        assert reports[0] == reports[1]

    def test_grouped_check_needs_ordered_prior(self, tmp_path):
        counts = write_counts(tmp_path, FLY_COUNTS)
        code = main(["check-prior", "--counts", counts,
                     "--prior", self.trine_prior_file(tmp_path), "--force",
                     "--group", "stride=9", "--out", str(tmp_path / "out")])
        assert code == 1


class TestElicitAndDownstream:
    def test_elicit_then_prior_check_and_posterior(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["elicit", "--k", "5", "--delta", "0", "--l", "0.02",
                     "--u", "0.6", "--gamma", "0.9", "--draws", "4000",
                     "--seed", "9", "--out", out])
        assert code == 0
        spec = load(out, "prior.json")
        assert spec["type"] == "ordered_dirichlet"
        assert len(spec["omega_alphas"]) == 6
        counts = write_counts(tmp_path, np.array([30, 25, 20, 12, 8, 5]))
        code = main(["check-prior", "--counts", counts,
                     "--prior", os.path.join(out, "prior.json"), "--force",
                     "--npred", "25", "--nis", "600", "--seed", "9", "--out", out])
        assert code == 0
        code = main(["posterior", "--counts", counts,
                     "--prior", os.path.join(out, "prior.json"),
                     "--sweeps", "300", "--burn-in", "50", "--seed", "9",
                     "--out", out])
        assert code == 0
        rep = load(out, "posterior.json")
        assert rep["kept_sweeps"] == 250
        samples = open(os.path.join(out, "posterior_samples.csv")).readlines()
        assert len(samples) == 251  # header + rows

    def test_reports_echo_their_budgets(self, tmp_path):
        # these keys echo the command line, not fields of the result records
        out = str(tmp_path / "out")
        assert main(["elicit", "--k", "5", "--delta", "0", "--l", "0.02", "--u", "0.6",
                     "--gamma", "0.9", "--out", out]) == 0
        assert load(out, "elicit.json")["method"] == "exact"
        counts = write_counts(tmp_path, np.array([30, 25, 20, 12, 8, 5]))
        assert main(["check-prior", "--counts", counts, "--prior", os.path.join(out, "prior.json"),
                     "--force", "--npred", "25", "--nis", "600", "--out", out]) == 0
        rep = load(out, "prior_check.json")
        assert (rep["n_predictive"], rep["n_is"]) == (25, 600)
        assert main(["check-model", "--counts", counts, "--zm-delta", "0.05", "--draws", "3000",
                     "--out", out]) in (0, 2, 3)
        rep = load(out, "model_check.json")
        assert (rep["mode"], rep["delta"], rep["n_draws"]) == ("zm_distance", 0.05, 3000)

    @pytest.mark.parametrize("argv", [
        ["--k", "17", "--delta", "0", "--l", "0", "--u", "0.9", "--gamma", "0.9"],
        ["--k", "5", "--delta", "0.05", "--l", "0", "--u", "0.95"],
    ], ids=["flat-mode", "spaced"])
    def test_refuses_when_the_flat_prior_already_suffices(self, tmp_path, capsys, argv):
        # gamma holds at every tau > 0, so the search's floor is no answer
        out = str(tmp_path / "out")
        assert main(["elicit", *argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "the flat prior (tau = 0) already gives the interval probability" in err
        assert not os.path.exists(os.path.join(out, "prior.json"))

    def test_grouped_prior_check_via_cli(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["elicit", "--k", "5", "--delta", "0", "--l", "0.02",
                     "--u", "0.6", "--gamma", "0.9", "--draws", "4000",
                     "--seed", "9", "--out", out]) == 0
        counts = write_counts(tmp_path, np.array([30, 25, 20, 12, 8, 5]))
        code = main(["check-prior", "--counts", counts,
                     "--prior", os.path.join(out, "prior.json"), "--force",
                     "--group", "stride=3", "--npred", "25", "--nis", "600",
                     "--seed", "9", "--out", out])
        assert code == 0
        rep = load(out, "prior_check.json")
        assert rep["group_m"] == 3
        assert "in_region_rate" in rep
        assert rep["grouped_bounds"]["u"] > 0.6

    def test_posterior_zero_sweeps_rejected(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["elicit", "--k", "3", "--delta", "0", "--l", "0.02",
                     "--u", "0.8", "--gamma", "0.9", "--draws", "2000",
                     "--seed", "9", "--out", out]) == 0
        counts = write_counts(tmp_path, np.array([10, 8, 4, 2]))
        code = main(["posterior", "--counts", counts,
                     "--prior", os.path.join(out, "prior.json"),
                     "--sweeps", "0", "--seed", "9", "--out", out])
        assert code == 1


class TestPosteriorCommand:
    """The exact path for flat-mode priors, Gibbs for the rest, one budget rule for both."""

    @pytest.fixture(scope="class")
    def priors(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("priors"))
        paths = {}
        for method, delta in (("exact", "0"), ("gibbs", "0.05")):
            d = os.path.join(out, method)
            assert main(["elicit", "--k", "3", "--delta", delta, "--l", "0.02", "--u", "0.8",
                         "--gamma", "0.9", "--draws", "2000", "--seed", "9", "--out", d]) == 0
            paths[method] = os.path.join(d, "prior.json")
        return paths

    @pytest.mark.parametrize("method", ["exact", "gibbs"])
    def test_reports_its_method(self, tmp_path, capsys, priors, method):
        counts = write_counts(tmp_path, np.array([10, 8, 4, 2]))
        out = str(tmp_path / "out")
        assert main(["posterior", "--counts", counts, "--prior", priors[method],
                     "--sweeps", "300", "--burn-in", "50", "--seed", "9", "--out", out]) == 0
        rep = assert_finite_report(out, "posterior.json")
        assert rep["method"] == method and rep["kept_sweeps"] == 250
        assert ("autocorr_time" in rep) == (method == "gibbs")
        if method == "exact":
            assert rep["ess"] == 250
            assert capsys.readouterr().out == "kept 250 exact draws; ess 250\n"
        rows = open(os.path.join(out, "posterior_samples.csv")).read().splitlines()
        assert len(rows) == 251

    @pytest.mark.parametrize("method", ["exact", "gibbs"])
    @pytest.mark.parametrize("sweeps, burn_in, message", [
        ("0", "0", "n_sweeps must be >= 1"),
        ("100", "100", "need 0 <= burn_in < n_sweeps"),
        ("100", "-1", "need 0 <= burn_in < n_sweeps"),
    ])
    def test_budget_checked_before_sampling(self, tmp_path, capsys, priors, method, sweeps,
                                            burn_in, message):
        counts = write_counts(tmp_path, np.array([10, 8, 4, 2]))
        out = str(tmp_path / "out")
        code = main(["posterior", "--counts", counts, "--prior", priors[method],
                     "--sweeps", sweeps, "--burn-in", burn_in, "--out", out])
        assert (code, capsys.readouterr().err) == (1, f"input error: {message}\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("text, message", [
        ('{"type": "trine", "a": 0.3}', "posterior sampling needs an ordered_dirichlet prior"),
        ('{"type": "raw_dirichlet", "alphas": [1, 2, 3, 4]}',
         "posterior sampling needs an ordered_dirichlet prior"),
        ('{"type": "trine"}', "{path}: 'a'"),
        ('{"type": "ordered_dirichlet"}', "{path}: 'omega_alphas'"),
        ('{"type": "ordered_dirichlet", "omega_alphas": [1, 0, 1, 1]}',
         "{path}: Dirichlet parameters must be finite and > 0"),
        ('{"type": "ordered_dirichlet", "omega_alphas": "abc"}',
         "{path}: could not convert string to float: 'abc'"),
        ('{"type": "gamma"}', "{path}: unknown prior type 'gamma'"),
        ('{"type": ["trine"]}', "{path}: unknown prior type ['trine']"),
        ('{"alphas": [1, 1]}', "{path}: unknown prior type None"),
        ("[1, 2]", '{path}: expected an object with a "type" field'),
        ("{", "{path}: invalid JSON at line 1"),
    ])
    def test_prior_file_errors(self, tmp_path, capsys, text, message):
        # posterior reads the prior file without prior_check, with check-prior's messages
        counts = write_counts(tmp_path, np.array([10, 8, 4, 2]))
        path = tmp_path / "prior.json"
        path.write_text(text)
        for argv in (["posterior", "--sweeps", "300", "--burn-in", "50"],
                     ["check-prior", "--npred", "20", "--nis", "100", "--force"]):
            if message.startswith("posterior") and argv[0] == "check-prior":
                continue
            code = main(argv + ["--counts", counts, "--prior", str(path),
                                "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert (code, err) == (1, f"input error: {message.format(path=path)}\n")


# -0, 0, the least subnormal, a subnormal, +-inf, nan and +-1.8e308
EDGE_VALUES = np.array([[-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, np.inf, -np.inf],
                        [np.nan, 1e308, -1.7976931348623157e308, 0.12345678901234567,
                         1 / 3, 2.0 ** -1074 * 12345]])


def csv_module_bytes(path, header, values, labels=None):
    """What ``csv.writer``'s default dialect writes for ``f"{v:.10g}"`` strings."""
    import csv

    rows = [[f"{v:.10g}" for v in row] for row in values]  # np.float64 scalars
    if labels is not None:
        rows = [[*lab, *row] for lab, row in zip(labels, rows)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with open(path, "rb") as fh:
        return fh.read()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestCsvWriter:
    def test_edge_values_have_the_csv_module_bytes(self, tmp_path):
        from conmult.cli import write_csv

        header = [f"c{j}" for j in range(EDGE_VALUES.shape[1])]
        path = write_csv(str(tmp_path), "new.csv", header, EDGE_VALUES)
        new = read_bytes(path)
        assert new == csv_module_bytes(tmp_path / "old.csv", header, EDGE_VALUES)
        lines = new.decode().split("\r\n")
        assert lines[1].split(",")[:2] == ["-0", "0"]
        assert lines[2].split(",")[0] == "nan"

    @pytest.mark.parametrize("n_labels", [0, 1, 2])
    def test_labels_across_block_edges(self, tmp_path, n_labels):
        from conmult.cli import CSV_BLOCK, write_csv

        n = 3 * CSV_BLOCK + 7
        values = np.tile(EDGE_VALUES, (n // 2 + 1, 1))[:n]
        values[:, 3] *= np.arange(1, n + 1)  # every row its own
        labels = None if n_labels == 0 else (
            [("obs",), *((j,) for j in range(n - 1))] if n_labels == 1
            else [(50 * (i // 5), i % 5) for i in range(n)])
        header = ["a", "b"][:n_labels] + [f"c{j}" for j in range(values.shape[1])]
        path = write_csv(str(tmp_path), "new.csv", header, values, labels)
        new = read_bytes(path)
        assert new == csv_module_bytes(tmp_path / "old.csv", header, values, labels)
        assert new.count(b"\r\n") == n + 1

    @settings(max_examples=80, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 300), st.integers(1, 20))),
           st.booleans())
    @example(EDGE_VALUES, True)
    @example(np.array([[-np.nan, np.nan], [-0.0, 2.0 ** -1074]]), False)
    def test_any_array_has_the_csv_module_bytes(self, tmp_path_factory, values, labelled):
        from conmult.cli import write_csv

        out = tmp_path_factory.mktemp("csv")
        labels = [(j,) for j in range(len(values))] if labelled else None
        header = ["point"] * labelled + [f"c{j}" for j in range(values.shape[1])]
        path = write_csv(str(out), "new.csv", header, values, labels)
        assert read_bytes(path) == csv_module_bytes(out / "old.csv", header, values, labels)

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        # the whole file as strings peaked at about 40 MB; one block takes about 0.3 MB
        import tracemalloc

        from conmult.cli import write_csv

        values = np.random.default_rng(3).dirichlet(np.ones(18), 20_000)
        header = [f"theta_{j + 1}" for j in range(18)]
        tracemalloc.start()
        try:
            path = write_csv(str(tmp_path), "samples.csv", header, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert read_bytes(path).count(b"\r\n") == 20_001


def numbers(obj):
    """Every number in a JSON report, config included."""
    if isinstance(obj, dict):
        return [v for x in obj.values() for v in numbers(x)]
    if isinstance(obj, list):
        return [v for x in obj for v in numbers(x)]
    return [obj] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


def assert_finite_report(out, name):
    rep = load(out, name)
    assert np.all(np.isfinite(numbers(rep)))
    return rep


class TestEdgeInputs:
    """Two cells, empty cells and a very large count through the whole CLI."""

    def test_two_cell_ordered_region(self, tmp_path):
        # posterior Beta(8, 4): P(theta_1 >= theta_2) = 1 - I_0.5(8, 4) = 1 - 232/2048
        counts = write_counts(tmp_path, np.array([7, 3]))
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", counts, "--region", "ordered",
                     "--draws", "20000", "--seed", "1", "--out", out]) == 0
        rep = assert_finite_report(out, "model_check.json")
        assert rep["verdict"] == "favor"
        assert rep["prior_prob"] == 0.5
        post = 1.0 - 232 / 2048
        assert abs(rep["post_prob"] - post) <= 4 * rep["mc_se"]
        assert rep["rb"] == pytest.approx(post / 0.5, abs=8 * rep["mc_se"])

    def test_two_cell_zm_distance(self, tmp_path):
        counts = write_counts(tmp_path, np.array([7, 3]))
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", counts, "--zm-delta", "0.02",
                     "--draws", "2000", "--seed", "1", "--out", out]) == 0
        rep = assert_finite_report(out, "model_check.json")
        assert rep["verdict"] == "favor"
        assert rep["rb"] > 1.0

    def test_two_cell_elicit_prior_check_and_posterior(self, tmp_path):
        counts = write_counts(tmp_path, np.array([7, 3]))
        out = str(tmp_path / "out")
        prior = os.path.join(out, "prior.json")
        assert main(["elicit", "--k", "1", "--l", "0.1", "--u", "0.95",
                     "--draws", "5000", "--seed", "1", "--out", out]) == 0
        rep = assert_finite_report(out, "elicit.json")
        assert rep["achieved"] >= 0.99 and rep["method"] == "exact"
        # S = 1 with two cells: P(tau) = 1 - max(2 l, 2 (1 - u))^(1 + tau) = 1 - 0.2^(1 + tau)
        assert rep["achieved"] == pytest.approx(1.0 - 0.2 ** (1.0 + rep["tau"]), abs=1e-12)
        assert len(load(out, "prior.json")["omega_alphas"]) == 2
        assert main(["check-prior", "--counts", counts, "--prior", prior, "--force",
                     "--npred", "100", "--nis", "500", "--seed", "1", "--out", out]) == 0
        rep = assert_finite_report(out, "prior_check.json")
        assert 0.0 <= rep["pvalue"] <= 1.0
        assert rep["conflict"] is False
        assert main(["posterior", "--counts", counts, "--prior", prior,
                     "--sweeps", "400", "--burn-in", "50", "--seed", "1",
                     "--out", out]) == 0
        rep = assert_finite_report(out, "posterior.json")
        assert rep["kept_sweeps"] == 350
        assert rep["median"][0] >= rep["median"][1]

    def test_empty_cells_zm_distance_against(self, tmp_path):
        counts = write_counts(tmp_path, np.array([0, 0, 5]))
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", counts, "--zm-delta", "0.02",
                     "--draws", "2000", "--seed", "1", "--out", out]) == 3
        rep = assert_finite_report(out, "model_check.json")
        assert rep["verdict"] == "against"
        assert rep["rb"] < 1.0

    def test_very_large_count_with_an_empty_cell(self, tmp_path):
        # theta_1 >= theta_2 is certain; theta_2 >= theta_3 has posterior
        # probability P(Gamma(2) >= Gamma(1)) = 3/4 as n grows, so RB -> 4.5
        counts = write_counts(tmp_path, np.array([1_000_000, 1, 0]))
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", counts, "--region", "ordered",
                     "--draws", "20000", "--seed", "1", "--out", out]) == 0
        rep = assert_finite_report(out, "model_check.json")
        assert rep["verdict"] == "favor"
        assert rep["prior_prob"] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert abs(rep["post_prob"] - 0.75) <= 4 * rep["mc_se"]


    def test_many_cell_cone_reports(self, tmp_path):
        # 1/171! is subnormal and 1/200! underflows to 0; the ratio comes from logs
        for cells in (171, 200):
            counts = write_counts(tmp_path, np.arange(cells, 0, -1))
            out = str(tmp_path / f"out{cells}")
            assert main(["check-model", "--counts", counts, "--region", "ordered",
                         "--draws", "1000", "--out", out]) == 0
            rep = assert_finite_report(out, "model_check.json")
            assert rep["prior_prob"] == 1 / math.factorial(cells)
            assert rep["verdict"] == "favor" and rep["rb"] > 1e100

    def test_many_cell_cone_decided_from_logs(self, tmp_path):
        # both contents underflow to 0; log RB 1.7712 clears its certificate, 3.4e-4
        counts = write_counts(tmp_path, np.array([1] + [0] * 199))
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", counts, "--region", "ordered",
                     "--draws", "1000", "--out", out]) == 0
        rep = load(out, "model_check.json")
        assert (rep["verdict"], rep["prior_prob"], rep["post_prob"]) == ("favor", 0.0, 0.0)
        assert rep["rb"] == pytest.approx(math.exp(1.7712), rel=1e-4)
        # the report carries the logs the verdict was taken on
        assert rep["log_rb"] == pytest.approx(1.7712, abs=1e-4)
        assert 0 < rep["log_cert"] < 1e-3

    @pytest.mark.parametrize("cells", [171, 200])
    def test_many_cell_cone_without_evidence_is_undefined(self, tmp_path, capsys, cells):
        # equal counts give the cone its prior content, RB 1 exactly, which the
        # chain's certificate cannot tell from either side at this many cells
        counts = write_counts(tmp_path, np.ones(cells, dtype=int))
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", counts, "--region", "ordered",
                     "--draws", "1000", "--out", out]) == 2
        rep = load(out, "model_check.json")
        assert (rep["verdict"], rep["rb"]) == ("undefined", None)
        assert 0 < rep["log_cert"] < 1e-2 and abs(rep["log_rb"]) <= rep["log_cert"]
        err = capsys.readouterr().err
        assert "quadrature certificate" in err and "relative belief ratio undefined" in err
        # the contents are subnormal or 0, so the note names the logs the verdict read
        found = re.search(r"log relative belief ratio (\S+) lies within its quadrature "
                          r"certificate (\S+) of 0:", err)
        assert found is not None
        log_rb, log_cert = map(float, found.groups())
        assert 0 < log_cert < 1e-2 and abs(log_rb) <= log_cert

    def test_a_huge_certificate_still_writes_the_report(self, tmp_path, capsys):
        # the thin ellipse's rule leaves a log certificate of 1175.5, past the 709.78 where
        # e^log_cert overflows; log RB, near -9.6e5, decides all the same
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", write_counts(tmp_path, np.array([0, 1000000, 0])),
                     "--region", "trine:0.49", "--out", out]) == 3
        rep = load(out, "model_check.json")
        assert (rep["verdict"], rep["post_prob"], rep["mc_se"]) == ("against", 0.0, 0.0)
        assert rep["log_cert"] > 709.79 and rep["log_rb"] < -9e5
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("delta", ["5", "2.9"])
    def test_zm_ratio_of_one_is_undefined(self, tmp_path, capsys, delta):
        # from delta = log 18 = 2.89 on, every prior and posterior draw lies in the first bin
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", write_counts(tmp_path, FLY_COUNTS),
                     "--zm-delta", delta, "--draws", "1000", "--out", out]) == 2
        rep = load(out, "model_check.json")
        assert (rep["verdict"], rep["rb"], rep["strength"]) == ("undefined", None, None)
        assert (rep["prior_first_bin"], rep["post_first_bin"]) == (1.0, 1.0)
        captured = capsys.readouterr()
        assert captured.out == "rb=None strength=None verdict=undefined\n"
        assert "relative belief ratio exactly 1" in captured.err
        assert "increase --draws" not in captured.err

    def test_arithmetic_errors_are_numerical_failures(self, tmp_path, capsys, monkeypatch):
        from conmult import model_check

        def overflow(t, region):
            raise OverflowError("math range error")

        monkeypatch.setattr(model_check, "rb_region_check", overflow)
        assert main(["check-model", "--counts", write_counts(tmp_path, TRINE_SYMMETRIC),
                     "--region", "trine", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "numerical failure: math range error\n"


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        # too few cells for the grouping
        pytest.param(["check-model", "--counts", "{pair}", "--region", "ordered",
                      "--group", "m=0", "--draws", "1000"], id="m=0"),
        pytest.param(["check-model", "--counts", "{pair}", "--region", "ordered",
                      "--group", "triples", "--draws", "1000"], id="triples"),
        # usage errors
        pytest.param(["check-model", "--region", "trine"], id="missing-counts"),
        pytest.param(["check-modle", "--counts", "{trine}"], id="unknown-command"),
        pytest.param(["check-model", "--counts", "{trine}", "--draws", "many"],
                     id="non-integer-draws"),
        # non-positive budgets
        pytest.param(["check-model", "--counts", "{trine}", "--region", "trine",
                      "--draws", "0"], id="check-model-draws-0"),
        pytest.param(["check-model", "--counts", "{trine}", "--zm-delta", "0.05",
                      "--draws", "0"], id="zm-draws-0"),
        pytest.param(["elicit", "--k", "3", "--l", "0.02", "--u", "0.8",
                      "--draws", "0"], id="elicit-draws-0"),
        pytest.param(["check-prior", "--counts", "{trine}", "--prior", "{prior}",
                      "--force", "--npred", "0", "--nis", "500"], id="npred-0"),
        pytest.param(["check-prior", "--counts", "{trine}", "--prior", "{prior}",
                      "--force", "--npred", "20", "--nis", "0"], id="nis-0"),
        # an exact-mass prior ignores --tau but still refuses a nonpositive one
        pytest.param(["check-prior", "--counts", "{trine}", "--prior", "{prior}",
                      "--force", "--npred", "20", "--nis", "100", "--tau", "0"], id="tau-0"),
        pytest.param(["consistency", "--alphas", "2,2", "--theta-true", "0.3,0.7",
                      "--schedule", "50", "--replications", "0"], id="replications-0"),
        # options out of range or not applicable
        pytest.param(["check-prior", "--counts", "{trine}", "--prior", "{prior}",
                      "--force", "--npred", "20", "--nis", "100", "--threshold", "2"],
                     id="threshold-2"),
        pytest.param(["check-prior", "--counts", "{trine}", "--prior", "{prior}",
                      "--force", "--npred", "20", "--nis", "100", "--threshold", "-0.1"],
                     id="threshold-negative"),
        pytest.param(["check-model", "--counts", "{trine}", "--zm-delta", "0.05",
                      "--group", "pairs", "--draws", "1000"], id="zm-with-group"),
        pytest.param(["check-model", "--counts", "{trine}", "--zm-delta", "0.05",
                      "--region", "ordered", "--draws", "1000"], id="zm-with-region"),
        pytest.param(["check-model", "--counts", "{trine}", "--region", "trinex",
                      "--draws", "1000"], id="region-trinex"),
        # log(3) / 1.09e-5 is just past the 100 000 distance bins allowed
        pytest.param(["check-model", "--counts", "{trine}", "--zm-delta", "1.09e-5",
                      "--draws", "1000"], id="zm-delta-past-bin-cap"),
        pytest.param(["check-model", "--counts", "{trine}", "--zm-delta", "inf",
                      "--draws", "1000"], id="zm-delta-inf"),
        # counts that are not numbers, and a model report that is not an object
        pytest.param(["check-model", "--counts", "{nulls}", "--draws", "1000"], id="null-counts"),
        pytest.param(["check-model", "--counts", "{strings}", "--draws", "1000"],
                     id="string-counts"),
        pytest.param(["check-model", "--counts", "{bools}", "--draws", "1000"], id="bool-counts"),
        # totals beyond int64, as integers and as a float, and an infinite count
        pytest.param(["check-model", "--counts", "{huge}", "--draws", "1000"], id="huge-counts"),
        pytest.param(["check-model", "--counts", "{huge_float}", "--draws", "1000"],
                     id="huge-float-counts"),
        pytest.param(["check-model", "--counts", "{inf}", "--draws", "1000"], id="inf-counts"),
        pytest.param(["check-prior", "--counts", "{trine}", "--prior", "{prior}",
                      "--model-report", "{report}", "--npred", "20", "--nis", "100"],
                     id="list-model-report"),
    ])
    def test_exits_1_with_input_error(self, tmp_path, capsys, argv):
        files = {}
        for name, counts in (("pair", np.array([5, 3])), ("trine", TRINE_SYMMETRIC)):
            (tmp_path / name).mkdir()
            files[name] = write_counts(tmp_path / name, counts)
        for name, obj in (("prior", {"type": "trine", "a": 1 / 3}), ("report", [1, 2]),
                          ("nulls", {"counts": [1, None, 3]}),
                          ("strings", {"counts": ["3", "2", "1"]}),
                          ("bools", {"counts": [True, False, True]}),
                          ("huge", {"counts": [2**62, 2**62, 5]}),
                          ("huge_float", {"counts": [1e19, 5, 5]}),
                          ("inf", {"counts": [float("inf"), 1, 1]})):
            files[name] = str(tmp_path / f"{name}.json")
            with open(files[name], "w") as fh:
                json.dump(obj, fh)
        code = main([a.format(**files) for a in argv] + ["--out", str(tmp_path / "out")])
        assert code == 1
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["check-model", "--counts", "{fly}", "--group", "m=1"],
                     "need at least 2 groups, got 1", id="model-m=1"),
        pytest.param(["check-model", "--counts", "{fly}", "--group", "stride=1"],
                     "need at least 2 groups, got 1", id="model-stride=1"),
        pytest.param(["check-prior", "--counts", "{fly}", "--prior", "{prior}", "--force",
                      "--group", "stride=1"], "need at least 2 groups, got 1", id="prior-stride=1"),
        # the layout spelling is checked before any labels are built
        pytest.param(["check-prior", "--counts", "{fly}", "--prior", "{prior}", "--force",
                      "--group", "m=1"], "grouped prior checks use the strided layout (stride=K)",
                     id="prior-m=1"),
        pytest.param(["check-prior", "--counts", "{fly}", "--prior", "{prior}", "--force",
                      "--group", "m=40"], "grouped prior checks use the strided layout (stride=K)",
                     id="prior-m=40"),
        pytest.param(["check-model", "--counts", "{fly}", "--group", "m=abc"],
                     "unknown group layout 'm=abc'", id="model-m=abc"),
        pytest.param(["check-prior", "--counts", "{fly}", "--prior", "{prior}", "--force",
                      "--group", "stride=abc"], "unknown group layout 'stride=abc'",
                     id="prior-stride=abc"),
        # a trine prior's a is checked when the file is read, before the model report is
        pytest.param(["check-prior", "--counts", "{fly}", "--prior", "{bad_trine}"],
                     "{bad_trine}: a must be in (0, 1/2), got 0.7", id="prior-trine-a"),
        # refused when parsed, before any report echoes the value
        pytest.param(["check-model", "--counts", "{fly}", "--group", "pairs", "--workers", "0"],
                     "argument --workers: must be at least 1, got 0", id="model-workers-0"),
        # no region check draws, but every check-model run refuses a draw count below 1
        *(pytest.param(["check-model", "--counts", counts, *mode, "--draws", draws],
                       f"argument --draws: must be at least 1, got {draws}",
                       id=f"{name}-draws{draws}")
          for name, counts, mode in (("trine", "{trine}", ["--region", "trine"]),
                                     ("tetrahedron", "{four}", ["--region", "tetrahedron"]),
                                     ("zm", "{fly}", ["--zm-delta", "0.02"]))
          for draws in ("0", "-3")),
        pytest.param(["check-prior", "--counts", "{fly}", "--prior", "{prior}", "--force",
                      "--workers", "-3"], "argument --workers: must be at least 1, got -3",
                     id="prior-workers-negative"),
    ])
    def test_exits_1_with_message(self, tmp_path, capsys, argv, message):
        files = {"fly": write_counts(tmp_path, FLY_COUNTS), "prior": str(tmp_path / "prior.json"),
                 "bad_trine": str(tmp_path / "bad_trine.json")}
        with open(files["prior"], "w") as fh:
            json.dump({"type": "ordered_dirichlet", "omega_alphas": [1.0] * 17 + [3.85]}, fh)
        with open(files["bad_trine"], "w") as fh:
            json.dump({"type": "trine", "a": 0.7}, fh)
        for name, counts in (("trine", TRINE_SYMMETRIC), ("four", [10, 20, 30, 40])):
            files[name] = str(tmp_path / f"{name}.json")
            with open(files[name], "w") as fh:
                json.dump({"counts": list(map(int, counts))}, fh)
        out = tmp_path / "out"
        code = main([a.format(**files) for a in argv] + ["--out", str(out)])
        assert (code, capsys.readouterr().err.splitlines()[-1]) == (
            1, f"input error: {message.format(**files)}")
        assert not out.exists()

    @pytest.mark.parametrize("prior, group, k1", [
        ({"type": "trine", "a": 1 / 3}, None, 3),
        ({"type": "raw_dirichlet", "alphas": [1.0, 1.0, 1.0]}, None, 3),
        ({"type": "ordered_dirichlet", "omega_alphas": [1.0] * 18}, None, 18),
        ({"type": "ordered_dirichlet", "omega_alphas": [1.0] * 18}, "stride=2", 18),
    ], ids=["trine", "raw-dirichlet", "fly", "fly-grouped"])
    def test_prior_cells_differ_from_counts(self, tmp_path, capsys, prior, group, k1):
        counts = write_counts(tmp_path, np.array([10, 8, 4, 2]))
        path = str(tmp_path / "prior.json")
        with open(path, "w") as fh:
            json.dump(prior, fh)
        argv = ["check-prior", "--counts", counts, "--prior", path, "--force", "--npred", "20",
                "--nis", "100", "--out", str(tmp_path / "out")]
        code = main(argv + (["--group", group] if group else []))
        assert (code, capsys.readouterr().err) == (
            1, f"input error: prior has {k1} cells, counts have 4\n")


class TestStartup:
    def test_no_command_loads_scipy(self, tmp_path):
        """Run every command in a fresh interpreter in which ``import scipy`` fails."""
        script = f"""
import json, os, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy.special
except ImportError:
    pass
else:
    raise AssertionError("the scipy block is not in force")

from conmult.cli import main

def write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)

d = {str(tmp_path)!r}
trine, fly = os.path.join(d, "trine.json"), os.path.join(d, "fly.json")
write(trine, {{"counts": {TRINE_SYMMETRIC.tolist()}}})
write(fly, {{"counts": {FLY_COUNTS.tolist()}}})
out = os.path.join(d, "out")
assert main(["check-model", "--counts", trine, "--region", "trine",
             "--draws", "2000", "--out", out]) == 0
assert main(["check-model", "--counts", fly, "--group", "pairs",
             "--draws", "2000", "--out", os.path.join(d, "pairs")]) == 0
# on the fly data the first prior bin is empty, which exits 2 by design
assert main(["check-model", "--counts", fly, "--zm-delta", "0.02",
             "--draws", "1000", "--out", os.path.join(d, "zm")]) in (0, 2, 3)
assert main(["elicit", "--k", "3", "--l", "0.02", "--u", "0.8", "--gamma", "0.9",
             "--draws", "2000", "--out", out]) == 0
write(os.path.join(d, "four.json"), {{"counts": [10, 8, 4, 2]}})
assert main(["posterior", "--counts", os.path.join(d, "four.json"),
             "--prior", os.path.join(out, "prior.json"), "--sweeps", "200",
             "--burn-in", "50", "--out", out]) == 0
write(os.path.join(d, "prior.json"), {{"type": "trine", "a": 1 / 3}})
assert main(["check-prior", "--counts", trine, "--prior", os.path.join(d, "prior.json"),
             "--npred", "20", "--nis", "500", "--out", out]) == 0
fly_prior = os.path.join(d, "fly_prior.json")
write(fly_prior, {{"type": "ordered_dirichlet", "omega_alphas": [1.0] * 17 + [3.85]}})
for extra in ([], ["--group", "stride=9"]):
    assert main(["check-prior", "--counts", fly, "--prior", fly_prior, "--npred", "20",
                 "--nis", "300", "--force", "--out", os.path.join(d, "fly"), *extra]) in (0, 3)
assert main(["consistency", "--alphas", "2,2", "--theta-true", "0.3,0.7",
             "--schedule", "50,200", "--replications", "5", "--out", out]) == 0
assert main(["consistency", "--alphas", "2,500", "--theta-true", "0.006,0.994",
             "--schedule", "50", "--replications", "5", "--out", out]) == 0
scipy_modules = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not scipy_modules, scipy_modules
"""
        res = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr

    # conmult modules each command loads besides conmult, conmult.core and conmult.sampling
    COMMANDS = {
        "version": (["--version"], []),
        "model-trine": (["check-model", "--counts", "{trine}", "--region", "trine",
                         "--draws", "2000"], ["model_check"]),
        "model-pairs": (["check-model", "--counts", "{fly}", "--group", "pairs",
                         "--draws", "2000"], ["model_check"]),
        "model-tetrahedron": (["check-model", "--counts", "{four}", "--region", "tetrahedron"],
                              ["model_check"]),
        "model-zm": (["check-model", "--counts", "{fly}", "--zm-delta", "0.02",
                      "--draws", "500"], ["model_check"]),
        "prior-trine": (["check-prior", "--counts", "{trine}", "--prior", "{trine_prior}",
                         "--npred", "20", "--nis", "200", "--force"], ["prior_check"]),
        "prior-grouped": (["check-prior", "--counts", "{fly}", "--prior", "{fly_prior}",
                           "--npred", "20", "--nis", "200", "--force", "--group", "stride=9"],
                          ["prior_check"]),
        "elicit": (["elicit", "--k", "3", "--l", "0.02", "--u", "0.8", "--gamma", "0.9",
                    "--draws", "2000"], ["elicitation"]),
        "elicit-spaced": (["elicit", "--k", "3", "--delta", "0.05", "--l", "0.02", "--u", "0.8",
                           "--gamma", "0.9", "--draws", "2000"], ["elicitation"]),
        "posterior": (["posterior", "--counts", "{fly}", "--prior", "{fly_prior}",
                       "--sweeps", "200", "--burn-in", "50"], ["posterior"]),
        "posterior-gibbs": (["posterior", "--counts", "{fly}", "--prior", "{gibbs_prior}",
                             "--sweeps", "200", "--burn-in", "50"], ["posterior"]),
        "consistency": (["consistency", "--alphas", "2,2", "--theta-true", "0.3,0.7",
                         "--schedule", "50", "--replications", "5"], ["consistency"]),
    }

    @pytest.mark.parametrize("name", COMMANDS)
    def test_import_footprint_at_exit(self, tmp_path, name):
        """Run a command as ``python -m conmult.cli`` does and look at the process at exit.

        ``runpy.run_module`` runs the module as ``__main__``, which is what ``-m``
        does, so the entry block runs; an exit hook registered first records
        what the process loaded and froze.
        """
        files = {"trine": {"counts": TRINE_SYMMETRIC.tolist()},
                 "fly": {"counts": FLY_COUNTS.tolist()},
                 "four": {"counts": [10, 20, 30, 40]},
                 "trine_prior": {"type": "trine", "a": 1 / 3},
                 "fly_prior": {"type": "ordered_dirichlet", "omega_alphas": [1.0] * 17 + [3.85]},
                 # alpha_1 != 1 leaves the exact draws for the Gibbs chain
                 "gibbs_prior": {"type": "ordered_dirichlet",
                                 "omega_alphas": [2.0] + [1.0] * 16 + [3.85]}}
        paths = {}
        for key, obj in files.items():
            paths[key] = str(tmp_path / f"{key}.json")
            with open(paths[key], "w") as fh:
                json.dump(obj, fh)
        argv, loaded = self.COMMANDS[name]
        argv = [a.format(**paths) for a in argv]
        if name != "version":
            argv += ["--out", str(tmp_path / "out")]
        record = str(tmp_path / "record.json")
        script = f"""
import atexit, gc, json, runpy, sys

@atexit.register
def record():
    with open({record!r}, "w") as fh:
        json.dump({{"modules": sorted(m for m in sys.modules if m.startswith("conmult")),
                   "numpy_ma": "numpy.ma" in sys.modules,
                   "numpy_random": "numpy.random" in sys.modules,
                   "numpy_fft": "numpy.fft" in sys.modules,
                   "dataclasses": "dataclasses" in sys.modules,
                   "freeze_count": gc.get_freeze_count()}}, fh)

sys.argv = ["conmult", *{argv!r}]
runpy.run_module("conmult.cli", run_name="__main__", alter_sys=True)
"""
        res = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                             capture_output=True, text=True, timeout=120)
        # on the fly data the ZM check's first prior bin is empty, which exits 2 by design
        assert res.returncode == (2 if name == "model-zm" else 0), res.stderr
        with open(record) as fh:
            seen = json.load(fh)
        assert seen["modules"] == sorted(["conmult", "conmult.core", "conmult.sampling"]
                                         + [f"conmult.{m}" for m in loaded])
        assert not seen["numpy_ma"]
        # --version, the exact region contents and the exact elicitation draw nothing,
        # so only they leave numpy.random unimported
        assert seen["numpy_random"] == (name not in ("version", "model-pairs", "model-trine",
                                                     "model-tetrahedron", "elicit",
                                                     "elicit-spaced"))
        # the flat-mode prior takes exact draws, which need no autocorrelation FFT;
        # the Gibbs chain's autocorrelation times do
        assert seen["numpy_fft"] == (name == "posterior-gibbs")
        # value types validate in __init__ and records are NamedTuples: no class generation
        assert not seen["dataclasses"]
        assert seen["freeze_count"] > 0

    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["elicit", "--k", "2", "--l", "0.02", "--u", "0.9", "--gamma", "0.9",
                     "--draws", "500", "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == before


class TestConsistencyCommand:
    def test_writes_table_and_summary(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["consistency", "--alphas", "2,2", "--theta-true", "0.3,0.7",
                     "--schedule", "50,200", "--replications", "30",
                     "--seed", "3", "--out", out])
        assert code == 0
        rep = load(out, "consistency.json")
        assert rep["limit"] == pytest.approx(0.432, abs=1e-6)
        rows = open(os.path.join(out, "convergence.csv")).readlines()
        assert len(rows) == 1 + 2 * 30

    @pytest.mark.parametrize("theta", ["1,0", "0,1"])
    def test_limit_is_zero_where_the_density_vanishes(self, tmp_path, theta):
        # Beta(2, 2) has density 0 at both ends, so the level set there is null
        out = str(tmp_path / "out")
        code = main(["consistency", "--alphas", "2,2", "--theta-true", theta,
                     "--schedule", "100,1000", "--replications", "20",
                     "--seed", "1", "--out", out])
        assert code == 0
        rep = load(out, "consistency.json")
        assert rep["limit"] == 0.0
        assert rep["sandwich_ok"] is True

    def test_limit_of_a_skewed_prior_matches_mpmath(self, tmp_path):
        # Gamma(502) overflows, so the limit's incomplete beta takes Stirling's series
        out = str(tmp_path / "out")
        code = main(["consistency", "--alphas", "2,500", "--theta-true", "0.006,0.994",
                     "--schedule", "50,200", "--replications", "10", "--out", out])
        assert code == 0
        limit = load(out, "consistency.json")["limit"]
        assert limit == pytest.approx(mp_level_set_prob(2.0, 500.0, 0.006), abs=1e-14)

    @pytest.mark.parametrize("alphas, theta, counts", [
        ("2,3,4", "0.3,0.7", "3 cells, theta_true 2"),
        ("2,2", "0.2,0.3,0.5", "2 cells, theta_true 3"),
    ])
    def test_mismatched_lengths_are_refused_before_any_draw(self, tmp_path, capsys,
                                                             monkeypatch, alphas, theta, counts):
        from conmult import consistency

        def refuse(*args, **kwargs):
            raise AssertionError("the experiment drew samples")

        monkeypatch.setattr(consistency, "sample_dirichlet_array", refuse)
        monkeypatch.setattr(consistency, "sample_multinomial_array", refuse)
        code = main(["consistency", "--alphas", alphas, "--theta-true", theta,
                     "--schedule", "50", "--replications", "5",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"input error: the prior has {counts}\n"
        assert not os.path.exists(tmp_path / "out")

    def test_flat_prior_rejected(self, tmp_path):
        code = main(["consistency", "--alphas", "1,1", "--theta-true", "0.3,0.7",
                     "--schedule", "50", "--replications", "5",
                     "--out", str(tmp_path / "out")])
        assert code == 1
