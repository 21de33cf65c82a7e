"""Pipeline stages gluing models, checkpoints, and reports together.

The stages ``train_dense`` -> ``capture`` -> ``upcycle`` -> ``train_moe`` ->
``compare_row`` work in memory. Each CLI stage (``run_*``) loads its input
checkpoints, calls one of them and saves its artifacts under the config's
output directory:

* ``train-dense``   dense.ckpt, dense_log.jsonl
* ``capture``       bank.ckpt
* ``upcycle``       moe_<method>.ckpt, init_report_<method>.json
* ``train-moe``     moe_<method>_trained.ckpt, train_log_<method>.jsonl
* ``analyze``       analysis_<stem>.{json,csv}, routing_<stem>.csv
* ``gradcheck``     gradcheck.json
* ``compare``       compare.csv

``compare`` pretrains and captures once per seed for all four methods and
runs its (seed, method, eesd) cells over the usable CPUs; ``workers``
counts them and forks the processes.

All randomness is derived from the config's root seed through named streams,
so reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .analysis import (
    ANALYSIS_CSV_COLUMNS,
    ROUTING_CSV_COLUMNS,
    analysis_csv_rows,
    analyze_model,
    routing_csv_rows,
)
from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .config import INIT_METHODS, PipelineConfig
from .errors import CheckpointError, ClusterUpError, ConfigError, ShapeMismatch
from .moe import block_from_tensors, block_structure
from .seeding import derive_seed
from . import train  # so run_analyze looks up train.model_forward at call time
from . import workers as _workers  # aliased: ``workers`` is also a parameter here
from .train import (
    ToyModel,
    grad_check,
    evaluate,
    make_dense_model,
    make_model_teacher,
    make_synthetic_dataset,
    named_params,
    run_training,
)
from .upcycle import ActivationBank, default_moe_sites, upcycle_model


class MissingArtifact(ClusterUpError):
    """A required upstream checkpoint does not exist."""


# ---------------------------------------------------------------------------
# artifact paths
# ---------------------------------------------------------------------------

def out_dir(cfg: PipelineConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def dense_path(cfg) -> Path:
    return out_dir(cfg) / "dense.ckpt"


def bank_path(cfg) -> Path:
    return out_dir(cfg) / "bank.ckpt"


def moe_path(cfg, method: str, trained: bool = False) -> Path:
    suffix = "_trained" if trained else ""
    return out_dir(cfg) / f"moe_{method}{suffix}.ckpt"


# ---------------------------------------------------------------------------
# model (de)serialization
# ---------------------------------------------------------------------------

def model_structure(model: ToyModel) -> dict:
    return {
        "input_dim": model.input_dim,
        "n_classes": model.n_classes,
        "blocks": [block_structure(block) for block in model.blocks],
    }


def model_from_tensors(structure: dict, tensors: dict[str, np.ndarray]) -> ToyModel:
    try:
        blocks = [
            block_from_tensors(entry, tensors, f"block{b}.")
            for b, entry in enumerate(structure["blocks"])
        ]
        return ToyModel(input_dim=structure["input_dim"], blocks=blocks, head=tensors["head"])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing {exc}") from None
    except ShapeMismatch as exc:
        raise CheckpointError(f"inconsistent model shapes: {exc}") from None
    except TypeError as exc:  # e.g. ``blocks`` is not a list
        raise CheckpointError(f"invalid model structure: {exc}") from None


def config_snapshot(cfg: PipelineConfig) -> dict:
    """The config recorded in checkpoints: all of it but ``output_dir``, so a
    run writes the same bytes whichever directory it writes them to."""
    snapshot = cfg.to_dict()
    del snapshot["output_dir"]
    return snapshot


def _check_config(cfg: PipelineConfig, manifest: dict, path) -> None:
    """Raise ``CheckpointError`` unless the checkpoint at ``path``, whose
    manifest is ``manifest``, records ``cfg``'s ``model`` and ``data``
    sections: the stages that read it would otherwise mix two configs."""
    recorded = manifest["config"] if isinstance(manifest["config"], dict) else {}
    running = config_snapshot(cfg)
    for section in ("model", "data"):
        mine, theirs = running[section], recorded.get(section)
        if theirs == mine:
            continue
        theirs = theirs if isinstance(theirs, dict) else {}
        key = next(key for key in [*mine, *theirs]
                   if key not in mine or key not in theirs or mine[key] != theirs[key])
        raise CheckpointError(
            f"{path} was made under another {section} config: {section}.{key} is "
            f"{theirs.get(key)!r} there and {mine.get(key)!r} here"
        )


def save_model_checkpoint(
    path, model: ToyModel, cfg: PipelineConfig, seeds: dict,
    extra: dict | None = None, cluster_tensors: dict[str, np.ndarray] | None = None,
) -> None:
    tensors = {**dict(named_params(model)), **(cluster_tensors or {})}
    save_checkpoint(path, tensors, config=config_snapshot(cfg), seeds=seeds,
                    extra={"model": model_structure(model), **(extra or {})})


def load_model_checkpoint(path, cfg: PipelineConfig) -> ToyModel:
    """The model saved at ``path``, made under ``cfg``'s model and data
    sections (``_check_config``) and with that model section's sizes."""
    ckpt = load_checkpoint(path)
    _check_config(cfg, ckpt.manifest, path)
    if "model" not in ckpt.extra:
        raise CheckpointError(f"{path} holds no model")
    model = model_from_tensors(ckpt.extra["model"], ckpt.tensors)
    sizes = [("d", model.input_dim), ("blocks", len(model.blocks)),
             ("n_classes", model.n_classes), *(("h", block.h) for block in model.blocks)]
    for key, size in sizes:
        if size != getattr(cfg.model, key):
            raise CheckpointError(
                f"{path} holds a model unlike its model config: model.{key} is "
                f"{size} in its tensors and {getattr(cfg.model, key)} in its config"
            )
    return model


def _require_artifact(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"missing {path}; run `{hint}` first")
    return path


# ---------------------------------------------------------------------------
# stages: in memory, no file I/O
# ---------------------------------------------------------------------------

def _seeds_dict(cfg: PipelineConfig, method: str | None = None, trained: bool = False) -> dict:
    """The root seed and, by stream name, each ``derive_seed(root, stream)``
    seed the stages draw: data, model init, dense batches and calibration,
    plus ``upcycle:<method>`` given a method and ``moe_batches:<method>`` once
    trained. The stages read their seeds from here, so the seeds a checkpoint
    records are the seeds they drew."""
    streams = ["data", "model_init", "dense_batches", "calibration"]
    if method is not None:
        streams += [f"upcycle:{method}"] + ([f"moe_batches:{method}"] if trained else [])
    return {"root": cfg.root_seed, **{s: derive_seed(cfg.root_seed, s) for s in streams}}


def _datasets(cfg: PipelineConfig):
    """Train and held-out eval splits drawn from one generating distribution."""
    full = make_synthetic_dataset(
        d=cfg.model.d, n_classes=cfg.model.n_classes,
        n_clusters=cfg.data.n_clusters, n=cfg.data.n + cfg.data.n_eval,
        separation=cfg.data.separation,
        seed=_seeds_dict(cfg)["data"],
    )
    return full.slice(0, cfg.data.n), full.slice(cfg.data.n, full.n)


def train_dense(cfg: PipelineConfig, log_fn=None) -> ToyModel:
    """Pretrain a freshly initialized dense model; ``log_fn`` gets each step's record."""
    dataset, _ = _datasets(cfg)
    seeds = _seeds_dict(cfg)
    model = make_dense_model(
        cfg.model.d, cfg.model.h, cfg.model.blocks, cfg.model.n_classes,
        seed=seeds["model_init"],
    )
    run_training(
        model, None, dataset,
        steps=cfg.train.steps_dense, batch_size=cfg.train.batch_size,
        lr=cfg.train.lr, seed=seeds["dense_batches"],
        log_fn=log_fn,
    )
    return model


def capture(cfg: PipelineConfig, dense: ToyModel) -> ActivationBank:
    """Calibration activations entering each MoE site of ``dense``."""
    from .upcycle import capture_activations

    dataset, _ = _datasets(cfg)
    return capture_activations(
        dense, dataset.inputs, default_moe_sites(cfg.model.blocks),
        cfg.calibration.token_cap, seed=_seeds_dict(cfg)["calibration"],
    )


def upcycle(cfg: PipelineConfig, dense: ToyModel, method: str, bank: ActivationBank | None):
    """``upcycle_model``'s (MoE model, reports, cluster models) for ``dense``,
    which it leaves unchanged; only the cluster method needs ``bank``."""
    return upcycle_model(
        dense, method,
        n_experts=cfg.moe.n_experts, k=cfg.moe.k,
        capacity_factor=cfg.moe.capacity_train,
        seed=_seeds_dict(cfg, method)[f"upcycle:{method}"],
        bank=bank, init=cfg.init,
    )


def train_moe(cfg: PipelineConfig, model: ToyModel, method: str, eesd: bool,
              log_fn=None, workers: int = 1) -> None:
    """Train the upcycled ``model`` in place, with an EMA teacher given
    ``eesd``. ``log_fn`` gets each step's record; ``compare`` keeps no log and
    passes none. With ``eesd`` and ``workers >= 2``, a forked replica runs
    the teacher's EMA and ensembles alongside the student (``run_training``,
    which redoes the run here if the replica's child fails), with the same
    bits; ``compare``'s cells keep one worker, since ``workers.split_map``
    already fills the usable CPUs."""
    dataset, _ = _datasets(cfg)
    teacher = make_model_teacher(model, cfg.train.beta) if eesd else None
    run_training(
        model, teacher, dataset,
        steps=cfg.train.steps, batch_size=cfg.train.batch_size, lr=cfg.train.lr,
        lambda_lb=cfg.train.lambda_lb,
        lambda_eesd=cfg.train.lambda_eesd if eesd else 0.0,
        capacity_factor=cfg.moe.capacity_train,
        seed=_seeds_dict(cfg, method, trained=True)[f"moe_batches:{method}"],
        log_fn=log_fn, workers=workers,
    )


COMPARE_COLUMNS = (
    "seed", "method", "task_loss", "lb_loss", "accuracy",
    "routing_entropy", "utilization_min", "utilization_max",
    "mean_similarity",
)


def compare_row(cfg: PipelineConfig, model: ToyModel, method: str) -> dict:
    """One ``compare.csv`` row: ``model`` evaluated on the held-out split."""
    _, eval_set = _datasets(cfg)
    report, state, accuracy = evaluate(
        model, eval_set.inputs, eval_set.labels, cfg.moe.capacity_eval
    )
    sites = analyze_model(model, state).per_site.values()
    utilizations = np.concatenate([site.utilization for site in sites])
    return {
        "seed": cfg.root_seed,
        "method": method,
        "task_loss": report.task,
        "lb_loss": report.lb,
        "accuracy": accuracy,
        "routing_entropy": float(np.mean([site.mean_routing_entropy for site in sites])),
        "utilization_min": float(utilizations.min()),
        "utilization_max": float(utilizations.max()),
        "mean_similarity": float(np.mean([site.mean_pairwise_similarity for site in sites])),
    }


# ---------------------------------------------------------------------------
# CLI stages: load inputs, run one stage, save outputs
# ---------------------------------------------------------------------------

def _write_jsonl(path: Path, records: list[dict]) -> None:
    with atomic_open(path) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_train_dense(cfg: PipelineConfig) -> Path:
    log: list[dict] = []
    model = train_dense(cfg, log.append)
    path = dense_path(cfg)
    save_model_checkpoint(path, model, cfg, _seeds_dict(cfg))
    _write_jsonl(out_dir(cfg) / "dense_log.jsonl", log)
    return path


def run_capture(cfg: PipelineConfig) -> Path:
    dense = load_model_checkpoint(
        _require_artifact(dense_path(cfg), "train-dense"), cfg)
    bank = capture(cfg, dense)
    tensors = {f"site{b}.activations": acts for b, acts in sorted(bank.per_site.items())}
    path = bank_path(cfg)
    save_checkpoint(
        path, tensors, config=config_snapshot(cfg), seeds=_seeds_dict(cfg),
        extra={"token_cap": bank.token_cap, "sites": list(bank.per_site)},
    )
    return path


def load_bank(path, cfg: PipelineConfig) -> ActivationBank:
    """The activation bank at ``path``, made under ``cfg``'s model and data
    sections (``_check_config``): a (d, tokens) matrix per MoE site of
    ``cfg``'s model, whose Gram over the tokens is finite."""
    ckpt = load_checkpoint(path)
    _check_config(cfg, ckpt.manifest, path)
    if "token_cap" not in ckpt.extra:
        raise CheckpointError(f"{path} holds no activation bank")
    per_site = {}
    for b in default_moe_sites(cfg.model.blocks):
        acts = ckpt.tensors.get(f"site{b}.activations")
        if acts is None:
            raise CheckpointError(f"{path} holds no activations for MoE site {b}")
        if acts.ndim != 2 or acts.shape[0] != cfg.model.d:
            raise CheckpointError(
                f"{path}: MoE site {b} activations have shape {acts.shape}, "
                f"expected {cfg.model.d} rows"
            )
        with np.errstate(over="ignore"):
            gram = acts @ acts.T
        if not np.isfinite(gram).all():
            raise CheckpointError(
                f"{path}: MoE site {b} activations overflow their Gram over the tokens")
        per_site[b] = acts
    return ActivationBank(per_site=per_site, token_cap=ckpt.extra["token_cap"])


def run_upcycle(cfg: PipelineConfig, method: str | None = None) -> Path:
    method = method or cfg.init.method
    dense = load_model_checkpoint(
        _require_artifact(dense_path(cfg), "train-dense"), cfg)
    bank = None
    if method == "cluster":
        bank = load_bank(_require_artifact(bank_path(cfg), "capture"), cfg)
    moe_model, reports, cluster_models = upcycle(cfg, dense, method, bank)
    cluster_tensors = {
        f"cluster.site{b}.{name}": np.asarray(getattr(cm, name), dtype=np.float64)
        for b, cm in sorted(cluster_models.items())
        for name in ("centroids", "assignments", "pca_projection", "objective_trace")
    }
    cluster_meta = {str(b): {"seed": cm.seed} for b, cm in sorted(cluster_models.items())}
    path = moe_path(cfg, method)
    save_model_checkpoint(
        path, moe_model, cfg, _seeds_dict(cfg, method),
        extra={"init_method": method, "cluster_meta": cluster_meta},
        cluster_tensors=cluster_tensors,
    )
    _write_json(out_dir(cfg) / f"init_report_{method}.json",
                {str(b): asdict(r) for b, r in sorted(reports.items())})
    return path


def run_train_moe(cfg: PipelineConfig, method: str | None = None, eesd: bool = False) -> Path:
    method = method or cfg.init.method
    model = load_model_checkpoint(
        _require_artifact(moe_path(cfg, method), f"upcycle --method {method}"), cfg)
    log: list[dict] = []
    train_moe(cfg, model, method, eesd, log.append, workers=_workers.usable_cpus())
    path = moe_path(cfg, method, trained=True)
    save_model_checkpoint(
        path, model, cfg, _seeds_dict(cfg, method, trained=True),
        extra={"init_method": method, "eesd": eesd},
    )
    _write_jsonl(out_dir(cfg) / f"train_log_{method}.jsonl", log)
    return path


def run_analyze(cfg: PipelineConfig, checkpoint: Path | str) -> list[Path]:
    ckpt_path = _require_artifact(Path(checkpoint), "upcycle or train-moe")
    model = load_model_checkpoint(ckpt_path, cfg)
    _, eval_set = _datasets(cfg)
    state = train.model_forward(model, eval_set.inputs, cfg.moe.capacity_eval)
    report = analyze_model(model, state)
    stem = ckpt_path.stem
    paths = [
        out_dir(cfg) / f"analysis_{stem}.json",
        out_dir(cfg) / f"analysis_{stem}.csv",
        out_dir(cfg) / f"routing_{stem}.csv",
    ]
    _write_json(paths[0], report.to_dict())
    _write_csv(paths[1], ANALYSIS_CSV_COLUMNS, analysis_csv_rows(report))
    _write_csv(paths[2], ROUTING_CSV_COLUMNS, routing_csv_rows(state.records))
    return paths


def run_gradcheck(cfg: PipelineConfig) -> Path:
    # Self-contained verification on small fresh models: a dense stack, an
    # upcycled MoE stack, and the MoE stack with an EMA teacher attached.
    d, h = cfg.model.d, cfg.model.h
    dataset = make_synthetic_dataset(
        d=d, n_classes=cfg.model.n_classes, n_clusters=cfg.data.n_clusters,
        n=32, separation=cfg.data.separation,
        seed=derive_seed(cfg.root_seed, "gradcheck_data"),
    )
    dense_model = make_dense_model(
        d, h, cfg.model.blocks, cfg.model.n_classes,
        seed=derive_seed(cfg.root_seed, "gradcheck_model"),
    )
    dense_result = grad_check(
        dense_model, None, dataset.inputs, dataset.labels,
        lambda_lb=0.0, lambda_eesd=0.0,
        seed=derive_seed(cfg.root_seed, "gradcheck_sample"),
        samples_per_tensor=25, workers=_workers.usable_cpus(),
    )
    moe_model, _, _ = upcycle_model(
        dense_model, "sparse",
        n_experts=cfg.moe.n_experts, k=cfg.moe.k,
        capacity_factor=cfg.moe.capacity_train,
        seed=derive_seed(cfg.root_seed, "gradcheck_upcycle"), init=cfg.init,
    )
    teacher = make_model_teacher(moe_model, cfg.train.beta)
    # Give the teacher its own parameter values so the distillation term is live.
    for site_teacher in teacher.sites.values():
        site_teacher.mirror.router += 0.01
    moe_result = grad_check(
        moe_model, teacher, dataset.inputs, dataset.labels,
        lambda_lb=cfg.train.lambda_lb, lambda_eesd=cfg.train.lambda_eesd,
        capacity_factor=cfg.moe.capacity_train,
        seed=derive_seed(cfg.root_seed, "gradcheck_sample"),
        samples_per_tensor=25, workers=_workers.usable_cpus(),
    )
    path = out_dir(cfg) / "gradcheck.json"
    _write_json(path, {
        "dense": {k: v for k, v in dense_result.items() if k != "per_tensor"},
        "moe": {k: v for k, v in moe_result.items() if k != "per_tensor"},
    })
    return path


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _compare_cell(cfg: PipelineConfig, dense: ToyModel, bank: ActivationBank,
                  method: str, eesd: bool) -> list[float]:
    """One compare cell's numeric columns, ``COMPARE_COLUMNS[2:]``: upcycle
    ``dense``, train it, and evaluate it."""
    model, _, _ = upcycle(cfg, dense, method, bank)
    train_moe(cfg, model, method, eesd)
    row = compare_row(cfg, model, method)
    return [row[c] for c in COMPARE_COLUMNS[2:]]


def _compare_rows(cfg: PipelineConfig, root_seeds, cells) -> list[dict]:
    """Every (seed, cell) row, in seed order and then ``cells``' order; a cell
    is a ``(method, eesd)`` pair. ``seed_state`` pretrains and captures a
    seed the first time it is asked, since upcycling copies the dense model
    and capture only reads it. Every seed is warmed here in order, so the
    processes of ``workers.split_map`` inherit the cache and each seed's model
    and bank (about 1.1 MiB at the defaults) are held until the cells finish.
    Warming stops at a failing seed; its cells pretrain it again, so its
    error comes in cell order, as in one process."""
    items = [(seed, method, eesd) for seed in root_seeds for method, eesd in cells]
    states = {}

    def seed_state(seed: int) -> tuple[PipelineConfig, ToyModel, ActivationBank]:
        if seed not in states:
            seed_cfg = replace(cfg, data=replace(cfg.data, seed=seed))
            dense = train_dense(seed_cfg)
            states[seed] = seed_cfg, dense, capture(seed_cfg, dense)
        return states[seed]

    with contextlib.suppress(Exception):
        for seed in root_seeds:
            seed_state(seed)
    width = len(COMPARE_COLUMNS) - 2
    values = _workers.split_map(
        lambda i: _compare_cell(*seed_state(items[i][0]), *items[i][1:]),
        len(items), _workers.usable_cpus(), width)
    return [dict(zip(COMPARE_COLUMNS, [seed, method, *values[k * width:(k + 1) * width]]))
            for k, (seed, method, _) in enumerate(items)]


def compare_run(cfg: PipelineConfig, root_seed: int, method: str, eesd: bool) -> dict:
    """One cell from scratch; kept only as the trace point that
    ``perfbench/spans.py`` names and ``tests/test_trace_points.py`` checks."""
    return _compare_rows(cfg, (root_seed,), ((method, eesd),))[0]


def run_compare(cfg: PipelineConfig, n_seeds: int, eesd: bool = False) -> Path:
    if n_seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {n_seeds}")
    root_seeds = range(cfg.root_seed, cfg.root_seed + n_seeds)
    rows = _compare_rows(cfg, root_seeds, [(m, eesd) for m in INIT_METHODS])
    path = out_dir(cfg) / "compare.csv"
    _write_csv(path, COMPARE_COLUMNS, [[row[c] for c in COMPARE_COLUMNS] for row in rows])
    return path
