"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
* two traced runs of seed 1 give identical values for every count metric
  (the numbers a later change may cite as exact counts), on every workload;
* the benchmark exits non-zero and prints no result in a directory that holds
  only BENCHMARK.json and perfbench/, i.e. without the package source.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_METRICS = (
    "moe.ffn_calls_per_forward",
    "moe.kept_slot_ratio",
    "moe.expert_flops_per_step",
    "clustering.kmeans_iters",
    "upcycle.cholesky_retries",
    "train.forward_passes",
    "train.gradcheck_checked_ratio",
    "checkpoint.bytes_per_save",
)
SEED = 1
TIMEOUT_S = 180


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def traced_counts(workload: str) -> dict:
    """Count metrics of one traced run, from its result.json (they are not all
    BENCHMARK.json metrics)."""
    done = run(ROOT, "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", "1")
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    result = json.loads((BENCH / "_runs" / workload / "result.json").read_text())
    return {name: result["per_layer"][name]["value"] for name in COUNT_METRICS}


def main() -> int:
    failures = []

    for workload in WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        for name in COUNT_METRICS:
            if first[name] != second[name]:
                failures.append(f"{workload} {name}: {first[name]!r} != {second[name]!r}")
        print(f"{workload}: counts {first}")

    stripped = BENCH / "_runs" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    (stripped / "perfbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", stripped)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy2(path, stripped / "perfbench")
    done = run(stripped, "--workload", "train_eesd", "--seed", str(SEED),
               "--seconds", "1", "--trace", "0")
    if done.returncode == 0 or '"metrics"' in done.stdout:
        failures.append(f"stripped directory: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"stripped directory: exit {done.returncode}: {done.stderr.strip()}")
    shutil.rmtree(stripped)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
