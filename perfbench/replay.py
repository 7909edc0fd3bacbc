"""Replay one pass of a workload in-process through ``conmult.cli.main``.

    python3 perfbench/replay.py --workload W --seed S --out DIR [--spans FILE]

Run as a fresh process with the package on PYTHONPATH. The timed window
starts before ``import conmult.cli`` and ends after the last command, so it
holds one import plus the commands' work. With ``--spans`` the package is
traced (see tracer.py) and the spans are written to FILE at the end. Prints
one JSON object on its last line of standard output.
"""

import argparse
import contextlib
import io
import json
import sys
import time

import tracer as tracing
import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install(sys.meta_path)
    commands = workloads.WORKLOADS[args.workload][0](args.seed, args.out)
    start = time.perf_counter()
    import conmult.cli as cli  # noqa: E402  (inside the timed, traced window)

    import_s = time.perf_counter() - start
    codes = []
    for _, argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "import_s": import_s,
        "modules_loaded": len(sys.modules),
        "scipy_stats_loaded": int("scipy.stats" in sys.modules),
        "codes": codes,
    }
    if tracer is not None:
        self_s, calls, covered = tracer.layer_totals()
        result.update(self_s=self_s, calls=calls, covered_s=covered)
        tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
