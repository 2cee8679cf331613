"""Link-budget benchmark of ``aoci``: one workload per invocation.

    python3 bench/run.py --workload flux_figures --seed 1 --seconds 10 --trace 0

Imports ``aoci`` from ``src/`` next to this directory, times repeated rounds
of the workload's public-API calls for at least ``--seconds``, checks every
output against ``reference`` and prints, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (per round) with
``--trace 1``. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
# One thread per BLAS/OpenMP pool: steadier timings on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("flux_figures", "mc_flux", "kpi_safety")


class BenchError(Exception):
    """The benchmark cannot run here (no package, or a broken reference)."""


def _import_aoci():
    """Import ``aoci`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "aoci" / "__init__.py").is_file():
        raise BenchError(f"no aoci package under {src}")
    sys.path.insert(0, str(src))
    import aoci
    import aoci.figures
    import aoci.kpi
    import aoci.photometry

    if Path(aoci.__file__).resolve().parent != (src / "aoci").resolve():
        raise BenchError(f"imported aoci from {aoci.__file__}, not from {src}")
    return aoci


def _bench_modules():
    sys.path.insert(0, str(BENCH_DIR))
    import reference
    import tracing
    import workloads

    return reference, tracing, workloads


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    start = time.perf_counter()
    aoci = _import_aoci()
    import_s = time.perf_counter() - start
    reference, tracing, workloads = _bench_modules()
    reference.self_check(aoci.figures.load_preset("default").to_dict())

    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{args.workload}-"))
    try:
        # Set-up is the import plus building the workload's configurations;
        # the import happens once per process, the building is repeated.
        builds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](aoci, args.seed, scratch)
            builds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(builds)
        tracer = tracing.Tracer(args.workload) if args.trace else None
        rounds = []
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                rounds.append(workload.run_round(len(rounds)))
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems, correct = workload.judge(rounds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    job_s = statistics.median(r.seconds for r in rounds)
    summary = {"rounds": len(rounds), "job_s": job_s,
               "round_s": "/".join(f"{r.seconds:.4g}" for r in rounds),
               "setup_s": setup_s, **workload.info(rounds[0])}
    for part in workload.parts:
        summary[f"{part}_s"] = statistics.median(r.times[part] for r in rounds)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in summary.items()))

    if tracer:
        tracer.write(OUT_DIR / f"trace_{args.workload}_seed{args.seed}.jsonl")
        values = tracer.layer_metrics(len(rounds))
        units = {m["name"]: m["unit"] for m in tracing.per_layer_spec()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s": {"value": job_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    return {
        "correct": correct,
        "attempted": workload.ops_per_round * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
