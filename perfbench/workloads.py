"""The benchmark's workloads: configuration, set-up, one operation, checks.

Each workload drives the public CLI entry point ``clusterup.cli.main`` in
process. Its config sets only what differs from the package defaults (plus
the root seed and the output directory); the run records the resolved config.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

METHODS = ("sparse", "drop", "drop_svd", "cluster")

# Largest relative gradient error a gradcheck operation may report per stack.
GRADCHECK_TOLERANCE = {"dense": 1e-5, "moe": 1e-4}


class Workload:
    name: str
    overrides: dict = {}
    setup_commands: tuple = ()
    command: tuple = ()
    outputs: tuple = ()

    def config(self, seed: int, out_dir: Path) -> dict:
        cfg = {section: dict(values) for section, values in self.overrides.items()}
        cfg.setdefault("data", {})["seed"] = seed
        cfg["output_dir"] = str(out_dir)
        return cfg

    def samples(self, cfg, out_dir: Path) -> int:
        """Units of work in one operation, for samples_per_s."""
        raise NotImplementedError

    def check(self, cfg, out_dir: Path) -> list[str]:
        """Problems with one operation's outputs (empty when correct)."""
        raise NotImplementedError

    def quality(self, cfg, out_dir: Path) -> dict:
        """Deterministic per-seed output values reported next to the timings."""
        return {}


class TrainEesd(Workload):
    name = "train_eesd"
    overrides = {"train": {"steps": 300}}
    setup_commands = (("train-dense",), ("capture",), ("upcycle", "--method", "cluster"))
    command = ("train-moe", "--method", "cluster", "--eesd")
    outputs = ("moe_cluster_trained.ckpt", "train_log_cluster.jsonl")

    def samples(self, cfg, out_dir):
        return cfg.train.steps * cfg.train.batch_size

    def check(self, cfg, out_dir):
        lines = (out_dir / "train_log_cluster.jsonl").read_text().splitlines()
        totals = [json.loads(line)["total"] for line in lines]
        problems = []
        if len(totals) != cfg.train.steps:
            problems.append(f"{len(totals)} log records for {cfg.train.steps} steps")
        if not all(math.isfinite(t) for t in totals):
            problems.append("non-finite total in train_log_cluster.jsonl")
        return problems


class Sweep(Workload):
    name = "sweep"
    overrides = {"train": {"steps": 200}}
    command = ("compare", "--seeds", "1")
    outputs = ("compare.csv",)

    def _rows(self, out_dir):
        with open(out_dir / "compare.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def samples(self, cfg, out_dir):
        per_cell = (cfg.train.steps_dense + cfg.train.steps) * cfg.train.batch_size
        return len(METHODS) * per_cell

    def check(self, cfg, out_dir):
        rows = self._rows(out_dir)
        problems = []
        if tuple(r["method"] for r in rows) != METHODS:
            problems.append(f"compare.csv methods {[r['method'] for r in rows]}")
        for row in rows:
            for key, value in row.items():
                if key not in ("seed", "method") and not math.isfinite(float(value)):
                    problems.append(f"non-finite {key} for {row['method']}")
        return problems

    def quality(self, cfg, out_dir):
        losses = [float(r["task_loss"]) for r in self._rows(out_dir)]
        return {"eval_task_loss": sum(losses) / len(losses)}


class Gradcheck(Workload):
    name = "gradcheck"
    command = ("gradcheck",)
    outputs = ("gradcheck.json",)

    def _report(self, out_dir):
        return json.loads((out_dir / "gradcheck.json").read_text())

    def samples(self, cfg, out_dir):
        report = self._report(out_dir)
        return sum(report[s]["checked"] + report[s]["skipped"] for s in ("dense", "moe"))

    def check(self, cfg, out_dir):
        report = self._report(out_dir)
        problems = []
        for stack in ("dense", "moe"):
            if report[stack]["checked"] <= 0:
                problems.append(f"{stack}: no parameter was checked")
            error, tolerance = report[stack]["max_rel_error"], GRADCHECK_TOLERANCE[stack]
            if not error < tolerance:
                problems.append(f"{stack}: max_rel_error {error:.3g} >= {tolerance:g}")
        if report["moe"]["teacher_max_quotient"] != 0.0:
            problems.append(
                f"teacher quotient {report['moe']['teacher_max_quotient']} != 0")
        return problems


WORKLOADS = {w.name: w for w in (TrainEesd(), Sweep(), Gradcheck())}
