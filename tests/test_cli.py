import json
import os
import subprocess
import sys

import numpy as np
import pytest

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

    def test_against_verdict_exit_code(self, tmp_path):
        counts = write_counts(tmp_path, np.array([900, 50, 50]))
        out = str(tmp_path / "out")
        code = main(["check-model", "--counts", counts, "--region", "trine",
                     "--draws", "5000", "--seed", "7", "--out", out])
        assert code == 3
        assert load(out, "model_check.json")["verdict"] == "against"

    def test_zero_hits_in_ungrouped_cone_are_undefined(self, tmp_path, capsys):
        # the 18-cell cone has prior content 1/18!, which no feasible number of
        # draws can hit: zero posterior hits say nothing either way
        counts = write_counts(tmp_path, FLY_COUNTS)
        out = str(tmp_path / "out")
        code = main(["check-model", "--counts", counts, "--region", "ordered",
                     "--draws", "5000", "--seed", "7", "--out", out])
        assert code == 2
        rep = load(out, "model_check.json")
        assert (rep["verdict"], rep["rb"], rep["post_prob"]) == ("undefined", None, 0.0)
        assert rep["prior_prob"] == pytest.approx(1.5619e-16, rel=1e-4)
        assert "relative belief ratio undefined" in capsys.readouterr().err

    def test_grouped_ordered(self, tmp_path):
        counts = write_counts(tmp_path, FLY_COUNTS)
        out = str(tmp_path / "out")
        code = main(["check-model", "--counts", counts, "--region", "ordered",
                     "--group", "pairs", "--draws", "50000", "--seed", "7",
                     "--out", out])
        assert code == 0
        rep = load(out, "model_check.json")
        assert rep["rb"] == pytest.approx(14726, rel=0.25)

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

    def test_measure_zero_region_is_input_error(self, tmp_path):
        counts = write_counts(tmp_path, np.array([25, 25, 25, 25]))
        code = main(["check-model", "--counts", counts, "--region", "crosshairs",
                     "--draws", "2000", "--out", str(tmp_path / "out")])
        assert code == 1


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
        assert rep["achieved"] >= 0.99
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
        pytest.param(["consistency", "--alphas", "2,2", "--theta-true", "0.3,0.7",
                      "--schedule", "50", "--replications", "0"], id="replications-0"),
    ])
    def test_exits_1_with_input_error(self, tmp_path, capsys, argv):
        files = {}
        for name, counts in (("pair", np.array([5, 3])), ("trine", TRINE_SYMMETRIC)):
            (tmp_path / name).mkdir()
            files[name] = write_counts(tmp_path / name, counts)
        files["prior"] = str(tmp_path / "prior.json")
        with open(files["prior"], "w") as fh:
            json.dump({"type": "trine", "a": 1 / 3}, fh)
        code = main([a.format(**files) for a in argv] + ["--out", str(tmp_path / "out")])
        assert code == 1
        assert "input error:" in capsys.readouterr().err


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
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env = {k: v for k, v in env.items() if not k.startswith("CONMULT_")}
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


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

    def test_flat_prior_rejected(self, tmp_path):
        code = main(["consistency", "--alphas", "1,1", "--theta-true", "0.3,0.7",
                     "--schedule", "50", "--replications", "5",
                     "--out", str(tmp_path / "out")])
        assert code == 1


class TestEnvOverrides:
    def test_seed_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONMULT_SEED", "12345")
        counts = write_counts(tmp_path, TRINE_SYMMETRIC)
        out = str(tmp_path / "out")
        assert main(["check-model", "--counts", counts, "--region", "trine",
                     "--draws", "2000", "--out", out]) == 0
        assert load(out, "model_check.json")["config"]["seed"] == 12345

    def test_bad_environment_value_is_input_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CONMULT_SEED", "abc")
        assert main(["--version"]) == 1
        assert "input error: bad CONMULT_SEED" in capsys.readouterr().err
