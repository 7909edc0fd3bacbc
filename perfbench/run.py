"""conmult benchmark: CLI sessions timed as fresh processes, layers traced in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1 [--seeds a,b,...]
    python3 perfbench/run.py --workload all --seed N --seconds T --trace 0

Run from anywhere; the package is taken from the ``src/`` directory next to
this one, and scratch output goes to ``.bench_out/`` beside it.

``--trace 0`` walks the workload's pass (workloads.py) over its fixed list of
CLI seeds, each command a fresh single-threaded process, cycling through the
list until ``--seconds`` is spent (the whole list at least once). ``--seed``
sets where in the list the cycle starts. Every command's output is checked, and
a seed that comes round again must reproduce its reports byte for byte. Command
times are reported in units of a fixed reference process timed around each
command (REFERENCE below).
``--trace 1`` runs the layer probes (probes.py), then replays one pass
in-process, twice plain and twice traced (tracer.py), alternating.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
COMMAND_TIMEOUT = 60
DEADLINE_S = 150  # per workload; a run must end within 180 s even if commands hang
SETUP_REPEATS = 3
MAX_PASSES = 200
REPLAYS = 2
ANSWER_SE = 0.01  # answer_cost_ref: cost per 0.01 of answer standard deviation
# The reference process: the interpreter with numpy and scipy.special, which every
# command loads first, and nothing of the package. It runs right before and right after
# each command; the command's time over the mean of those two cancels how fast the
# shared machine is just then, which drifts by far more than the bounds allow.
REFERENCE = ["-c", "import numpy, scipy.special"]


def child_env():
    """The caller's environment without CONMULT_* defaults, the package on the path, one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONMULT_")}
    env["PYTHONPATH"] = SRC
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_command(argv, env, log_path, timeout, cwd=ROOT):
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB from wait4)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def run_json_child(argv, env, timeout):
    """Run a benchmark child and parse the JSON object on its last stdout line (None on failure)."""
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
    return json.loads(lines[-1]), None


def tail(path, n=300):
    with open(path, errors="replace") as fh:
        return fh.read()[-n:].strip()


class Run:
    """Counters and problems of one benchmark invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ctx = workloads.CheckContext()
        self.deadline = time.perf_counter() + DEADLINE_S

    def timeout(self):
        """Seconds a child may take: COMMAND_TIMEOUT, cut short by the workload's deadline."""
        return max(1.0, min(COMMAND_TIMEOUT, self.deadline - time.perf_counter()))

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def setup_seconds(run, env):
    """Median fresh-process time of ``conmult --version``: interpreter, import and parser."""
    times = []
    log = os.path.join(OUT, "setup.log")
    for _ in range(SETUP_REPEATS):
        code, seconds, _ = run_command([sys.executable, "-m", "conmult.cli", "--version"],
                                       env, log, run.timeout())
        run.record("--version", [] if code == 0 else [f"exit {code}: {tail(log)}"])
        times.append(seconds)
    return statistics.median(times)


def seed_order(name, seeds, seed):
    seeds = list(seeds or workloads.WORKLOADS[name][1])
    start = seed % len(seeds)
    return seeds[start:] + seeds[:start]


def measure(run, name, seeds, seed, seconds, env):
    """End-to-end metrics of one workload (tracing off)."""
    make_pass, _, answer_cmd = workloads.WORKLOADS[name]
    order = seed_order(name, seeds, seed)
    log = os.path.join(OUT, "command.log")
    ref_argv = [sys.executable, *REFERENCE]
    ref_env = {k: v for k, v in env.items() if k != "PYTHONPATH"}  # the package out of reach
    attempted, failed = run.attempted, run.failed
    setup_s = setup_seconds(run, env)
    pass_times, pass_spans, answers, digests = [], [], {}, {}
    samples = []  # one per command: its seconds and the reference's just before and after

    def reference():
        code, ref_s, _ = run_command(ref_argv, ref_env, log, run.timeout(), cwd=OUT)
        run.record("reference", [] if code == 0 else [f"exit {code}: {tail(log)}"])
        return ref_s

    peak_mb = 0.0
    start = time.perf_counter()
    ref_s = reference()
    for i in range(MAX_PASSES):
        now = time.perf_counter()
        if now > run.deadline or (i >= len(order) and
                                  now - start + statistics.median(pass_spans) > seconds):
            break
        cli_seed = order[i % len(order)]
        out = os.path.join(OUT, name, "pass")
        shutil.rmtree(out, ignore_errors=True)
        seen, pass_s = {}, 0.0
        for cmd, argv in make_pass(cli_seed, out):
            code, cmd_s, rss = run_command([sys.executable, "-m", "conmult.cli", *argv],
                                           env, log, run.timeout())
            pass_s += cmd_s
            peak_mb = max(peak_mb, rss)
            problems, answer = workloads.check(name, cmd, out, code, run.ctx)
            if problems and code not in (0, 2, 3) and tail(log):
                problems.append(tail(log))
            produced = workloads.digest_new_files(out, seen) if os.path.isdir(out) else {}
            if digests.setdefault((cli_seed, cmd), produced) != produced:
                problems.append(f"reports differ from the earlier run of seed {cli_seed}")
            run.record(f"{name} seed {cli_seed} {cmd}", problems)
            if cmd == answer_cmd and answer is not None:
                answers.setdefault(cli_seed, answer)
            after = reference()
            samples.append({"seed": cli_seed, "command": cmd, "seconds": cmd_s,
                            "ref_before": ref_s, "ref_after": after})
            ref_s = after
        pass_times.append(pass_s)
        pass_spans.append(time.perf_counter() - now)
        shutil.rmtree(out, ignore_errors=True)
    with open(os.path.join(OUT, f"samples-{name}.json"), "w") as fh:
        json.dump(samples, fh, indent=1)

    ratios = {}  # command -> its seconds / the mean of the references around it, per pass
    for x in samples:
        ratios.setdefault(x["command"], []).append(
            2 * x["seconds"] / (x["ref_before"] + x["ref_after"]))
    attempted, failed = run.attempted - attempted, run.failed - failed
    answer_sd = statistics.stdev(answers.values()) if len(answers) > 1 else None
    medians = {cmd: statistics.median(r) for cmd, r in ratios.items()}
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (sum(medians.values()), "ref"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "answer_sd": (answer_sd, "prob"),
        "answer_cost_ref": (None if answer_sd is None else
                            medians[answer_cmd] * (answer_sd / ANSWER_SE) ** 2, "ref"),
    }
    notes = (f"{len(pass_times)} passes over seeds {order}; "
             f"median pass {statistics.median(pass_times):.3f} s; "
             f"fail_frac {failed}/{attempted}")
    return metrics, notes


def trace(run, name, seeds, seed, env):
    """Per-layer metrics: the layer probes, then plain and traced in-process replays, alternated."""
    cli_seed = seed_order(name, seeds, seed)[0]
    make_pass = workloads.WORKLOADS[name][0]
    replay = [sys.executable, os.path.join(HERE, "replay.py"), "--workload", name,
              "--seed", str(cli_seed)]
    # the probes run first, so every replay starts with the same warm file cache
    probes, error = run_json_child([sys.executable, os.path.join(HERE, "probes.py")], env,
                                   run.timeout())
    run.record("probes", [error] if error else [])
    results = {"plain": [], "traced": []}
    digests = []
    for i in range(REPLAYS):
        for mode in results:
            out = os.path.join(OUT, name, f"{mode}-{i}")
            shutil.rmtree(out, ignore_errors=True)
            spans = ["--spans", os.path.join(OUT, f"spans-{name}.csv")] if mode == "traced" else []
            result, error = run_json_child(replay + ["--out", out] + spans, env, run.timeout())
            for j, (cmd, _) in enumerate(make_pass(cli_seed, out)):
                problems = ([error] if error else
                            workloads.check(name, cmd, out, result["codes"][j], run.ctx)[0])
                run.record(f"{name} {mode} replay {i} {cmd}", problems)
            if result is None:
                return {}, "replay failed"
            results[mode].append(result)
            digests.append(workloads.digest_new_files(out, {}))
            shutil.rmtree(out, ignore_errors=True)
    run.record(f"{name} replays reproduce each other's reports",
               [] if all(d == digests[0] for d in digests) else ["replay reports differ"])
    if probes is None:
        return {}, "probes failed"

    plain, traced = results["plain"], results["traced"]
    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.mean(r["self_s"][layer] for r in traced), "s")
        metrics[f"{layer}.calls"] = (traced[0]["calls"][layer], "count")
    traced_wall = statistics.mean(r["wall_s"] for r in traced)
    plain_wall = statistics.mean(r["wall_s"] for r in plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.unattributed_s"] = (
        statistics.mean(r["wall_s"] - r["covered_s"] for r in traced), "s")
    metrics.update((k, (v["value"], v["unit"])) for k, v in probes.items())
    notes = (f"replayed seed {cli_seed} {REPLAYS}x plain and traced; "
             f"plain wall {plain_wall:.3f} s")
    return metrics, notes


def main():
    names = sorted(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", type=lambda s: [int(v) for v in s.split(",")],
                        help="CLI seed list (default: the workload's fixed list)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "conmult", "cli.py")):
        sys.exit(f"no package to benchmark: {SRC}/conmult/cli.py is missing")
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    # build: byte-compile the package, as an install would
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "conmult")],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=False)

    run = Run()
    metrics = {}
    for name in names if args.workload == "all" else [args.workload]:
        run.deadline = time.perf_counter() + DEADLINE_S
        if args.trace:
            found, notes = trace(run, name, args.seeds, args.seed, env)
        else:
            found, notes = measure(run, name, args.seeds, args.seed, args.seconds, env)
        prefix = f"{name}." if args.workload == "all" else ""
        print(f"# {name}: {notes}")
        for key, (value, unit) in found.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:14s} {key:34s} {shown:>12s} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
