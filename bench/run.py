#!/usr/bin/env python3
"""patchlm benchmark: one workload per run, or every workload with ``all``.

    python3 bench/run.py --workload train_text --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 10

A run prints an environment record and a report of the workload's own
metrics, one per line with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones listed in BENCHMARK.json; with ``--trace 1``
they are the per-layer ones, and the spans go to ``bench/out/``.
See bench/README.md for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("train_text", "train_ts", "forecast", "tokenize")

# A fixed count rather than one derived from the machine, so results from
# machines with different core counts run the same code path; 1 is never
# above nproc and keeps runs steady on a shared host.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "work_per_s": "1/s",
    "quality": "score",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input and model (smoke tests)")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            status |= subprocess.run(cmd).returncode
    return status


def environment(seed: int, size: str) -> dict:
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "size": size,
    }


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else float("nan")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(ROOT, "src", "patchlm", "__init__.py")):
        print(f"patchlm sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    for var in BLAS_ENV:                 # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

    import layers
    import workloads
    from tracer import Tracer

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    tracer = Tracer(layers.build_probes()) if args.trace else None
    run = workloads.Run(args.seconds, tracer, workdir)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            run, workloads.SIZES[args.size], args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed, args.size)
    print(f"# workload {args.workload}  trace {args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# config " + json.dumps(outcome.config, sort_keys=True))

    if tracer is None:
        best_op = list(run.best("op").values())
        values = {
            "setup_s": percentile(run.setup_s, 50),
            "op_ms_p50": 1e3 * percentile(best_op, 50),
            "op_ms_p90": 1e3 * percentile(best_op, 90),
            "work_per_s": outcome.work_per_s,
            "quality": outcome.quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        values = layers.layer_metrics(tracer, run.overhead())
        units = layers.PER_LAYER_UNITS
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    report(args.workload, run, outcome, values, tracer is not None)
    correct = run.failed == 0 and run.attempted > 0
    for name, value in values.items():
        if not math.isfinite(value):
            print(f"# {name} is not finite", file=sys.stderr)
            values[name] = 0.0
            correct = False
    for err in run.errors:
        print(f"# FAILED {err}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def report(workload: str, run, outcome, values: dict, traced: bool) -> None:
    """Human-readable lines: the workload's own metric names, then the rest."""
    def line(name, value, unit, note=""):
        print(f"{workload:<11} {name:<36} {value:>14.6g} {unit:<9}{note}")

    if traced:
        from layers import PER_LAYER_UNITS
        for name, unit in PER_LAYER_UNITS.items():
            line(name, values[name], unit)
        share = values["trace.unattributed_share"]
        print(f"# span accounting: unattributed {share:.2%} of the traced op "
              f"({'PASS' if share < 0.10 else 'FAIL'} < 10%); tracing overhead "
              f"{values['trace.overhead_share']:+.2%} on the best-of-passes op time "
              f"({run.n_passes} passes)")
        return
    names = outcome.names
    op, op_unit = names["op_ms"]
    n = f"  [{len(run.best('op'))} items, best of {run.n_passes} passes]"
    line("setup_s", values["setup_s"], "s", f"  [median of {len(run.setup_s)}]")
    line(f"{op}_p50", values["op_ms_p50"], op_unit, n + "  (op_ms_p50)")
    line(f"{op}_p90", values["op_ms_p90"], op_unit, n + "  (op_ms_p90)")
    line(names["work_per_s"][0], values["work_per_s"], names["work_per_s"][1], "  (work_per_s)")
    line(names["quality"][0], values["quality"], names["quality"][1], "  (quality)")
    aux = list(run.best(outcome.aux).values())
    line(names["aux"][0], 1e3 * percentile(aux, 50), names["aux"][1],
         f"  [{len(aux)} items]  (report only)")
    for name, (value, unit) in outcome.extra.items():
        line(name, value, unit)
    line("peak_rss_mb", values["peak_rss_mb"], "MB")
    line("error_rate", run.failed / max(run.attempted, 1), "ratio",
         f"  [{run.failed} of {run.attempted} operations failed]")


if __name__ == "__main__":
    sys.exit(main())
