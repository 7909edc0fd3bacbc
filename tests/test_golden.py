"""Golden reports: small CLI runs whose headline numbers are pinned exactly.

Reports must stay byte-identical for a given configuration and seed while the
random stream is unchanged. A change that alters the stream on purpose
updates these pins and says so in CHANGES.md.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from conmult.cli import main

from conftest import FLY_COUNTS, TRINE_SYMMETRIC

# (pvalue, log_m_obs, tau, tau_profile) for check-prior, (rb, post_prob) for check-model
PINS = {
    "trine": (0.73, -17.843042014371946, 7076.0, None),
    "fly": (0.16666666666666666, -51.23152593438465, 7.820597924815739,
            [[3.63, 17.585878548804335], [7.820597924815739, 19.61897215043788],
             [16.848967466014386, 2.127327831302551], [36.29999999999999, 1.403901896492942],
             [78.20597924815739, 1.0746886312303496], [168.48967466014378, 1.1468649669563242],
             [363.0, 1.3333821400773689]]),
    "stride": (0.31666666666666665, -27.713160934523327, 7.820597924815739,
               [[3.63, 37.78883674530857], [7.820597924815739, 41.48071409334363],
                [16.848967466014386, 4.226603449029911], [36.29999999999999, 1.017848724907675],
                [78.20597924815739, 1.0083448398863706], [168.48967466014378, 1.1602540630275722],
                [363.0, 1.0190810143940296]]),
    "pairs": (15513.12, 0.04275),
    # (post_first_bin, prior_first_bin_empty, sha256 of distance_densities.csv)
    "zm": (0.08, True, "4e05c3f34ad65824ffe7b9eb8fba169b4fc4631c5e025c24f38be1826b10412d"),
    # (exit code, stdout, stderr) of check-model runs
    "zm_lines": (2, "rb=None strength=None verdict=undefined\n",
                 "first prior bin empty: relative belief ratio undefined; increase --draws\n"),
    "ordered": (2, "prior=1.56192e-16 post=0 rb=None verdict=undefined\n",
                "no posterior draw in the region, whose prior content 1.56e-16 is at or below "
                "the 3/draws bound 0.00015: relative belief ratio undefined; increase --draws "
                "or group the cells\n"),
    "trine_region": (0, "prior=0.6046 post=1 rb=1.65399 verdict=favor\n", ""),
    # (tau, achieved, sha256 of prior.json)
    "elicit": (2.7491283416748047, 0.99,
               "f212a686df0584f26e803588ee2eea9befdb29a500ae91b18ace8c56d6092a1b"),
}


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    fly_alphas = np.ones(18)
    fly_alphas[-1] += 2.85
    return {
        "trine_counts": write_json(tmp_path / "trine.json",
                                   {"counts": TRINE_SYMMETRIC.tolist()}),
        "trine_prior": write_json(tmp_path / "trine_prior.json",
                                  {"type": "trine", "a": 1 / 3}),
        "fly_counts": write_json(tmp_path / "fly.json", {"counts": FLY_COUNTS.tolist()}),
        "fly_prior": write_json(tmp_path / "fly_prior.json",
                                {"type": "ordered_dirichlet",
                                 "omega_alphas": fly_alphas.tolist()}),
    }


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run(tmp_path, name, argv, report):
    out = str(tmp_path / name)
    assert main(argv + ["--out", out]) == 0
    with open(os.path.join(out, report)) as fh:
        return json.load(fh)


def test_trine_check_prior(tmp_path, inputs):
    rep = run(tmp_path, "trine", ["check-prior", "--counts", inputs["trine_counts"],
                                  "--prior", inputs["trine_prior"], "--npred", "100",
                                  "--nis", "1000", "--seed", "11", "--force"],
              "prior_check.json")
    assert (rep["pvalue"], rep["log_m_obs"], rep["tau"], rep["tau_profile"]) == PINS["trine"]


def test_fly_check_prior(tmp_path, inputs):
    rep = run(tmp_path, "fly", ["check-prior", "--counts", inputs["fly_counts"],
                                "--prior", inputs["fly_prior"], "--npred", "60",
                                "--nis", "1000", "--seed", "12", "--force"],
              "prior_check.json")
    assert (rep["pvalue"], rep["log_m_obs"], rep["tau"], rep["tau_profile"]) == PINS["fly"]


def test_fly_check_prior_strided(tmp_path, inputs):
    rep = run(tmp_path, "stride", ["check-prior", "--counts", inputs["fly_counts"],
                                   "--prior", inputs["fly_prior"], "--npred", "60",
                                   "--nis", "1000", "--seed", "13", "--force",
                                   "--group", "stride=9"],
              "prior_check.json")
    assert (rep["pvalue"], rep["log_m_obs"], rep["tau"], rep["tau_profile"]) == PINS["stride"]


def test_check_model_pairs(tmp_path, inputs):
    rep = run(tmp_path, "pairs", ["check-model", "--counts", inputs["fly_counts"],
                                  "--region", "ordered", "--group", "pairs",
                                  "--draws", "20000", "--seed", "14"],
              "model_check.json")
    assert (rep["rb"], rep["post_prob"]) == PINS["pairs"]


def test_check_model_zm(tmp_path, inputs, capsys):
    # 2000 flat draws leave the first prior bin empty: exit 2, rb undefined
    out = str(tmp_path / "zm")
    code = main(["check-model", "--counts", inputs["fly_counts"], "--zm-delta", "0.02",
                 "--draws", "2000", "--seed", "15", "--out", out])
    lines = capsys.readouterr()
    assert (code, lines.out, lines.err) == PINS["zm_lines"]
    with open(os.path.join(out, "model_check.json")) as fh:
        rep = json.load(fh)
    digest = sha256(os.path.join(out, "distance_densities.csv"))
    assert (rep["post_first_bin"], rep["prior_first_bin_empty"], digest) == PINS["zm"]


def test_check_model_ungrouped_ordered(tmp_path, inputs, capsys):
    # the 18-cell cone's prior content 1/18! is below 3/draws: zero hits are undefined
    out = str(tmp_path / "ordered")
    code = main(["check-model", "--counts", inputs["fly_counts"], "--region", "ordered",
                 "--draws", "20000", "--seed", "14", "--out", out])
    lines = capsys.readouterr()
    assert (code, lines.out, lines.err) == PINS["ordered"]
    with open(os.path.join(out, "model_check.json")) as fh:
        rep = json.load(fh)
    assert (rep["verdict"], rep["rb"]) == ("undefined", None)


def test_check_model_trine_region(tmp_path, inputs, capsys):
    code = main(["check-model", "--counts", inputs["trine_counts"], "--region", "trine",
                 "--draws", "20000", "--seed", "16", "--out", str(tmp_path / "tr")])
    lines = capsys.readouterr()
    assert (code, lines.out, lines.err) == PINS["trine_region"]


def test_elicit(tmp_path):
    out = str(tmp_path / "el")
    rep = run(tmp_path, "el", ["elicit", "--k", "17", "--delta", "0", "--l", "0.002222",
                               "--u", "0.5", "--gamma", "0.99", "--draws", "5000",
                               "--seed", "17"],
              "elicit.json")
    digest = sha256(os.path.join(out, "prior.json"))
    assert (rep["tau"], rep["achieved"], digest) == PINS["elicit"]


def test_posterior_dimension_mismatch(tmp_path, inputs, capsys):
    counts = write_json(tmp_path / "small.json", {"counts": [5, 3, 2, 1]})
    code = main(["posterior", "--counts", counts, "--prior", inputs["fly_prior"],
                 "--seed", "18", "--out", str(tmp_path / "po")])
    lines = capsys.readouterr()
    assert (code, lines.out, lines.err) == (
        1, "", "input error: counts and prior dimensions differ\n")
