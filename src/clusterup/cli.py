"""Command-line entry point.

Usage: ``clusterup <command> --config config.yaml [options]``

Commands: train-dense, capture, upcycle, train-moe, analyze, gradcheck,
compare. Failures from missing or unreadable inputs, unwritable outputs,
config validation, or non-finite losses exit 2 with a one-line JSON error
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .config import INIT_METHODS, load_config
from .errors import ClusterUpError, ConfigError

# The CLI spells the init methods with hyphens (``drop-svd``).
METHOD_CHOICES = tuple(method.replace("_", "-") for method in INIT_METHODS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterup",
        description="Dense-to-MoE upcycling pipeline on a synthetic task.",
    )
    parser.add_argument("--config", required=True, help="YAML config file")
    parser.add_argument("--out-dir", default=None, help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train-dense", help="pretrain the dense model")
    sub.add_parser("capture", help="record calibration activations at MoE sites")

    up = sub.add_parser("upcycle", help="convert the dense model to MoE")
    up.add_argument(
        "--method", choices=METHOD_CHOICES,
        default=None, help="initialization strategy (default: config init.method)",
    )

    tm = sub.add_parser("train-moe", help="train the upcycled model")
    tm.add_argument("--method", choices=METHOD_CHOICES, default=None)
    tm.add_argument("--eesd", action="store_true",
                    help="enable the EMA-ensemble distillation loss")

    an = sub.add_parser("analyze", help="specialization diagnostics for a checkpoint")
    an.add_argument("--checkpoint", default=None,
                    help="checkpoint to analyze (default: untrained MoE of init.method)")

    sub.add_parser("gradcheck", help="finite-difference gradient verification")

    cp = sub.add_parser("compare", help="run all init methods over shared seeds")
    cp.add_argument("--seeds", type=int, default=3, help="number of root seeds")
    cp.add_argument("--eesd", action="store_true")

    return parser


def _normalize_method(method: str | None) -> str | None:
    return method.replace("-", "_") if method else None


def _fail(exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out_dir:
            cfg = replace(cfg, output_dir=args.out_dir)

        if args.command == "train-dense":
            path = pipeline.run_train_dense(cfg)
        elif args.command == "capture":
            path = pipeline.run_capture(cfg)
        elif args.command == "upcycle":
            path = pipeline.run_upcycle(cfg, _normalize_method(args.method))
        elif args.command == "train-moe":
            path = pipeline.run_train_moe(
                cfg, _normalize_method(args.method), eesd=args.eesd
            )
        elif args.command == "analyze":
            target = args.checkpoint or pipeline.moe_path(cfg, cfg.init.method)
            paths = pipeline.run_analyze(cfg, Path(target))
            for p in paths:
                print(p)
            return 0
        elif args.command == "gradcheck":
            path = pipeline.run_gradcheck(cfg)
        elif args.command == "compare":
            path = pipeline.run_compare(cfg, args.seeds, eesd=args.eesd)
        else:  # pragma: no cover - argparse enforces choices
            raise ConfigError(f"unknown command {args.command!r}")
        print(path)
        return 0
    except (ClusterUpError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
