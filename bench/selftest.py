"""Fast self-test of the benchmark (about half a minute).

    python3 bench/selftest.py

Runs one small slice of each workload through ``run.run``, untraced and
traced, and checks that the emitted JSON has the result keys and names
every metric of BENCHMARK.json with its unit.
Exits 0 when all slices pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def _tiny_workloads(workloads):
    class TinyFlux(workloads.FluxFigures):
        parts = {"fig3": 143}

    class TinyMc(workloads.McFlux):
        parts = {"default": 1}
        SAMPLES = 4096

    class TinyKpi(workloads.KpiSafety):
        parts = {"dynamic_range": 1, "shot_noise": 1}
        SHOT_SAMPLES = 10_000

    return {"flux_figures": TinyFlux, "mc_flux": TinyMc, "kpi_safety": TinyKpi}


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for var in run.THREAD_VARS:
        run.os.environ[var] = "1"
    run.OUT_DIR.mkdir(exist_ok=True)
    run._import_aoci()
    _, _, workloads = run._bench_modules()
    workloads.WORKLOADS.update(_tiny_workloads(workloads))

    failures = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=7, seconds=0.0, trace=trace)
            result = json.loads(json.dumps(run.run(args)))
            label = f"{name} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                failures.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace]))}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                failures.append(f"{label}: non-numeric metric value")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
