"""Run one clusterup benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_eesd --seed 1 --seconds 40 --trace 0

Run from the root of a clusterup checkout; the package is imported from its
``src/``. One caller runs operations back to back (a closed loop) for
``--seconds`` and at least MIN_OPS times, each through ``clusterup.cli.main``.
Every operation's outputs are checked. ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` alternates traced and untraced operations and
reports the per-layer metrics of BENCHMARK.json from the span file.

Stdout carries a summary table and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics. Provenance, the resolved
config and every per-layer metric go to ``perfbench/_runs/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, merged_metrics, read_spans, self_time_split, write_spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Relative to ROOT, so the configs and the checkpoints that embed them have
# the same bytes in every checkout.
RUNS = Path("perfbench") / "_runs"

SETUP_REPEATS = 5
MIN_OPS = 2
# One caller, one BLAS thread on every host: the GEMMs here are small, and in
# a five-seed comparison on a shared two-core host a second thread widened the
# run-to-run spread of gradcheck from 0.13 to 0.20.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The workload could not be set up; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Run in a fresh interpreter, so that every set-up repeat pays the import.
IMPORT_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import clusterup.cli, clusterup.config
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the clusterup CLI."""
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"importing clusterup failed: {done.stderr.strip()}")
    return float(done.stdout)


def run_cli(main_fn, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main_fn(argv)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "clusterup").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, cfg) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": nproc(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": cfg.to_dict(),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def set_up(workload, seed, out_dir, cli, load_config, tracer):
    """SETUP_REPEATS identical set-ups in out_dir; returns (config path, cfg, seconds).

    Each set-up's seconds are a fresh interpreter's import of clusterup plus
    the config file and the workload's set-up commands.
    """
    times, reference = [], None
    for r in range(SETUP_REPEATS):
        import_s = import_seconds()
        shutil.rmtree(out_dir, ignore_errors=True)
        traced = tracer.installed(f"setup{r}") if tracer else contextlib.nullcontext()
        with traced:
            start = time.perf_counter()
            out_dir.mkdir(parents=True)
            cfg_path = out_dir / "config.yaml"
            cfg_path.write_text(json.dumps(workload.config(seed, out_dir), indent=2) + "\n")
            cfg = load_config(cfg_path)
            for command in workload.setup_commands:
                rc = run_cli(cli.main, ["--config", str(cfg_path), *command])
                if rc != 0:
                    raise BenchError(f"set-up command {command} exited with {rc}")
            times.append(import_s + time.perf_counter() - start)
        artifacts = {p.name: sha256(p) for p in sorted(out_dir.iterdir())}
        if reference is None:
            reference = artifacts
        elif artifacts != reference:
            raise BenchError(f"set-up {r} produced different artifacts than set-up 0")
    return cfg_path, cfg, times


def run_ops(workload, cfg, cfg_path, out_dir, seconds, cli, tracer):
    """Closed loop of operations; returns per-op records.

    Stops before an operation that would end past ``seconds`` (judged by the
    mean so far), once MIN_OPS have run.
    """
    argv = ["--config", str(cfg_path), *workload.command]
    records, reference = [], None
    start = time.perf_counter()
    while len(records) < MIN_OPS or (
            time.perf_counter() - start
            + statistics.fmean(r["wall_s"] for r in records) <= seconds):
        i = len(records)
        traced = tracer is not None and i % 2 == 0
        op = f"op{i}"
        with tracer.installed(op) if traced else contextlib.nullcontext():
            main_fn = tracer.wrap("cli.main", cli.main) if traced else cli.main
            t0 = time.perf_counter()
            try:
                rc = run_cli(main_fn, argv)
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                rc = None
            wall = time.perf_counter() - t0
        problems = [] if rc == 0 else [f"exit status {rc}"]
        work = 0
        if rc == 0:
            try:
                problems += workload.check(cfg, out_dir)
                work = workload.samples(cfg, out_dir)
                hashes = {name: sha256(out_dir / name) for name in workload.outputs}
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                if reference is None:
                    reference = hashes
                elif hashes != reference:
                    problems.append("outputs differ from the run's first operation")
        for problem in problems:
            print(f"# {workload.name} {op} FAILED: {problem}", file=sys.stderr)
        records.append({"op": op, "traced": traced, "wall_s": wall,
                        "samples": work, "ok": not problems})
    return records


def stat_row(name, unit, values):
    q1, q2, q3 = quartiles(values)
    return {"name": name, "unit": unit, "n": len(values), "p25": q1, "p50": q2, "p75": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clusterup" / "__init__.py").is_file():
        print(f"perfbench: no clusterup package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import clusterup.cli as cli
    from clusterup.config import load_config
    if Path(cli.__file__).resolve().parent != SRC / "clusterup":
        print(f"perfbench: imported clusterup from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = RUNS / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    out_dir = run_dir / "out"
    tracer = Tracer() if args.trace else None
    try:
        cfg_path, cfg, setup_times = set_up(
            workload, args.seed, out_dir, cli, load_config, tracer)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    records = run_ops(workload, cfg, cfg_path, out_dir, args.seconds, cli, tracer)
    try:
        quality = workload.quality(cfg, out_dir)
    except (OSError, ValueError, KeyError) as exc:  # no operation left readable outputs
        print(f"perfbench: no quality values: {exc!r}", file=sys.stderr)
        quality = {}
    prov = provenance(args, cfg)

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    result = {"provenance": prov, "ops": records, "quality": quality}
    if args.trace:
        metrics = traced_metrics(spec, records, tracer, run_dir, prov, result)
    else:
        metrics = untraced_metrics(spec, records, setup_times, quality, result)
    (run_dir / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# {workload.name} seed {args.seed}: {attempted} operations, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def untraced_metrics(spec, records, setup_times, quality, result):
    walls = [r["wall_s"] for r in records]
    failed_ratio = sum(not r["ok"] for r in records) / len(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = [
        stat_row("setup_s", "s", setup_times),
        stat_row("op_s_p50", "s", walls),
        stat_row("samples_per_s", "1/s", [r["samples"] / r["wall_s"] for r in records]),
        stat_row("peak_rss_mb", "MB", [peak_rss_mb]),
    ]
    extra = [stat_row("failed_ratio", "ratio", [failed_ratio])]
    extra += [stat_row(name, "value", [value]) for name, value in sorted(quality.items())]
    print(f"# {'metric':22s} {'unit':6s} {'n':>4s} {'p25':>14s} {'p50':>14s} {'p75':>14s}")
    for row in rows + extra:
        print(f"# {row['name']:22s} {row['unit']:6s} {row['n']:4d} "
              f"{row['p25']:14.6g} {row['p50']:14.6g} {row['p75']:14.6g}")
    result["end_to_end"] = rows + extra
    by_name = {row["name"]: row for row in rows}
    return {m["name"]: {"value": by_name[m["name"]]["p50"], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def traced_metrics(spec, records, tracer, run_dir, prov, result):
    spans_path = run_dir / "spans.jsonl"
    write_spans(spans_path, tracer.spans, {
        "workload": prov["workload"], "seed": prov["seed"],
        "ops": [{"op": r["op"], "traced": r["traced"], "wall_s": r["wall_s"]}
                for r in records],
    })
    header, spans = read_spans(spans_path)
    traced_ops = {o["op"] for o in header["ops"] if o["traced"]}
    layers = merged_metrics(spans, traced_ops)
    traced = [r["wall_s"] for r in records if r["traced"]]
    untraced = [r["wall_s"] for r in records if not r["traced"]]
    layers["trace.op_s_ratio"] = {
        "value": statistics.median(traced) / statistics.median(untraced),
        "n": len(records), "unit": "ratio"}
    split = self_time_split(spans, traced_ops)
    traced_wall = sum(traced)
    print(f"# {'per-layer metric':34s} {'p50/value':>14s} {'p99':>12s} unit    n")
    for name, entry in layers.items():
        p99 = f"{entry['p99']:12.6g}" if "p99" in entry else " " * 12
        phase = " (set-up)" if entry.get("phase") else ""
        print(f"# {name:34s} {entry['value']:14.6g} {p99} {entry['unit']:7s} {entry['n']}{phase}")
    print(f"# self time over {len(traced)} traced ops ({traced_wall:.3f} s wall):")
    for name, seconds in split.items():
        print(f"#   {name:30s} {seconds:9.4f} s {100 * seconds / traced_wall:6.2f}%")
    print(f"#   sum of self times / traced wall = {sum(split.values()) / traced_wall:.4f}")
    result["per_layer"] = layers
    result["self_time_split_s"] = split
    return {m["name"]: {"value": layers[m["name"]]["value"], "unit": m["unit"]}
            for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
