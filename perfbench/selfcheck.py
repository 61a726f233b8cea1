"""Self-check: exact counts repeat, spans cover the ops, the files agree.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py [--seed N] [workload ...]

For each workload (all four by default) this runs the traced benchmark
twice on one seed, each in a fresh process, and fails unless

* both runs report ``correct`` with no failed op,
* every metric in :data:`catalog.EXACT` is identical across the runs,
* named layer spans cover at least 90% of op wall time, and
* no shared-memory segment leaked.

It first checks that ``BENCHMARK.json`` lists exactly the metrics of
:mod:`catalog`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("home-round", "fleet-100", "online-replay", "service-mix")
MIN_COVERAGE_PCT = 90.0


def check_benchmark_file() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if listed != list(catalog.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from catalog")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != list(catalog.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from catalog")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the suite")
    return problems


def traced_run(workload: str, seed: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "1",
               "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_workload(workload: str, seed: int) -> list[str]:
    first, second = (traced_run(workload, seed) for _ in range(2))
    problems = []
    for index, result in enumerate((first, second), start=1):
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload}: run {index} failed "
                            f"{result['failed']}/{result['attempted']} ops")
        metrics = result["metrics"]
        coverage = metrics["trace.coverage_pct"]["value"]
        if coverage < MIN_COVERAGE_PCT:
            problems.append(f"{workload}: spans cover only {coverage:.1f}%")
        if metrics["neighborhood.transport.shm_leaked"]["value"]:
            problems.append(f"{workload}: shared-memory segments leaked")
    for name in catalog.EXACT:
        one = first["metrics"][name]["value"]
        two = second["metrics"][name]["value"]
        if one != two:
            problems.append(f"{workload}: {name} not exact ({one} vs {two})")
    overhead = second["metrics"]["trace.overhead_pct"]["value"]
    print(f"{workload}: exact counts repeat; coverage "
          f"{second['metrics']['trace.coverage_pct']['value']:.2f}%, "
          f"tracing overhead {overhead:+.1f}%")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    problems = check_benchmark_file()
    for workload in args.workloads:
        problems += check_workload(workload, args.seed)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
