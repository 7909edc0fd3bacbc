"""Truth pins: each benchmark workload's tracked answer against an exact reference.

The golden pins fix bits; these ask whether the answer is right. Each workload's
tracked command runs in-process at the benchmark's budgets (``perfbench/workloads.py``)
on its first seed, reading the benchmark's inputs in ``perfbench/data``, and its
answer must lie within 4 combined standard errors of the reference:
|answer - ref| <= 4 sqrt(ref (1 - ref) / m + se_ref^2), m the answer's point count.
"""

import json
import math
import os

import pytest

from conmult.cli import main

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "perfbench", "data")
FLY_COUNTS = os.path.join(DATA, "fly_counts.json")

# workload -> (reference, its se, m, provenance)
REFERENCES = {
    "trine-session": (0.709, 0.0023, 400,
                      "check-prior p: 64^2 Gauss-Legendre masses for 40k predictive draws, "
                      "log m_obs = -17.842807"),
    "fly-zm": (0.0786, 0.0004, 10_000,
               "post_first_bin: perfbench/probes.zm_reference_distance on 400k "
               "Dirichlet(t + 1) draws"),
    "fly-ordered": (0.459, 0.0025, 200,
                    "check-prior p: chain-integral masses for 40k predictive draws, "
                    "log m_obs = -48.74061"),
}

# workload -> (argv without --out, expected exit code, report, answer key)
COMMANDS = {
    "trine-session": (["check-prior", "--counts", os.path.join(DATA, "trine_clicks.json"),
                       "--prior", os.path.join(DATA, "trine_prior.json"), "--npred", "400",
                       "--nis", "2000", "--seed", "101", "--force"],
                      0, "prior_check.json", "pvalue"),
    # the first prior bin is empty at 10k draws, so the check ends undefined (exit 2)
    "fly-zm": (["check-model", "--counts", FLY_COUNTS, "--zm-delta", "0.02",
                "--draws", "10000", "--seed", "301"],
               2, "model_check.json", "post_first_bin"),
    "fly-ordered": (["check-prior", "--counts", FLY_COUNTS,
                     "--prior", os.path.join(DATA, "fly_prior.json"), "--npred", "200",
                     "--nis", "2000", "--seed", "201", "--force"],
                    0, "prior_check.json", "pvalue"),
}


@pytest.mark.parametrize("workload", [
    "trine-session",
    "fly-zm",
    pytest.param("fly-ordered", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ordered IS bias; ROADMAP item 3")),
])
def test_answer_lies_within_four_se_of_the_reference(workload, tmp_path):
    argv, code, report, key = COMMANDS[workload]
    ref, se_ref, m, _ = REFERENCES[workload]
    out = str(tmp_path / "out")
    assert main(argv + ["--workers", "1", "--out", out]) == code
    with open(os.path.join(out, report)) as fh:
        answer = json.load(fh)[key]
    assert abs(answer - ref) <= 4 * math.sqrt(ref * (1 - ref) / m + se_ref**2)
