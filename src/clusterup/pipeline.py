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
runs its (seed, method, eesd) cells in worker processes.

All randomness is derived from the config's root seed through named streams,
so reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    analyze_model,
    write_analysis_csv,
    write_analysis_json,
    write_routing_csv,
)
from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .config import INIT_METHODS, PipelineConfig
from .distill import EmaTeacher
from .errors import CheckpointError, ClusterUpError, ConfigError, ShapeMismatch
from .moe import block_from_tensors, block_params, block_structure
from .seeding import derive_seed
from . import train  # so run_analyze looks up train.model_forward at call time
from .train import (
    ModelTeacher,
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


def save_model_checkpoint(
    path, model: ToyModel, cfg: PipelineConfig, seeds: dict,
    extra: dict | None = None, teacher: ModelTeacher | None = None,
    cluster_tensors: dict[str, np.ndarray] | None = None,
) -> None:
    tensors = dict(named_params(model))
    meta = {"model": model_structure(model)}
    if teacher is not None:
        for b, site_teacher in sorted(teacher.sites.items()):
            tensors.update(block_params(site_teacher.mirror, f"teacher.block{b}."))
        meta["teacher"] = {
            "beta": teacher.beta,
            "step_counts": {str(b): t.step_count for b, t in teacher.sites.items()},
        }
    if cluster_tensors:
        tensors.update(cluster_tensors)
    save_checkpoint(path, tensors, config=config_snapshot(cfg), seeds=seeds,
                    extra={**meta, **(extra or {})})


def load_model_checkpoint(path) -> tuple[ToyModel, ModelTeacher | None, dict]:
    ckpt = load_checkpoint(path)
    if "model" not in ckpt.extra:
        raise CheckpointError(f"{path} holds no model")
    structure = ckpt.extra["model"]
    model = model_from_tensors(structure, ckpt.tensors)
    teacher = None
    if "teacher" in ckpt.extra:
        meta = ckpt.extra["teacher"] if isinstance(ckpt.extra["teacher"], dict) else {}
        beta, step_counts = meta.get("beta"), meta.get("step_counts")
        if not (isinstance(beta, (int, float)) and 0.0 <= beta <= 1.0
                and isinstance(step_counts, dict)):
            raise CheckpointError(f"malformed teacher metadata in {path}")
        sites = {}
        for b in model.moe_sites:
            prefix = f"teacher.block{b}."
            if prefix + "router" not in ckpt.tensors:
                continue
            sites[b] = EmaTeacher(
                mirror=block_from_tensors(structure["blocks"][b], ckpt.tensors, prefix),
                beta=beta, step_count=step_counts.get(str(b), 0),
            )
        teacher = ModelTeacher(sites=sites, beta=beta)
    return model, teacher, ckpt.manifest


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
              log_fn=None) -> ModelTeacher | None:
    """Train the upcycled ``model`` in place; returns its EMA teacher (``None``
    without ``eesd``). ``log_fn`` gets each step's record; ``compare`` keeps
    no log and passes none, which saves ~3% of each step."""
    dataset, _ = _datasets(cfg)
    teacher = make_model_teacher(model, cfg.train.beta) if eesd else None
    run_training(
        model, teacher, dataset,
        steps=cfg.train.steps, batch_size=cfg.train.batch_size, lr=cfg.train.lr,
        lambda_lb=cfg.train.lambda_lb,
        lambda_eesd=cfg.train.lambda_eesd if eesd else 0.0,
        capacity_factor=cfg.moe.capacity_train,
        seed=_seeds_dict(cfg, method, trained=True)[f"moe_batches:{method}"],
        log_fn=log_fn,
    )
    return teacher


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


def run_train_dense(cfg: PipelineConfig) -> Path:
    log: list[dict] = []
    model = train_dense(cfg, log.append)
    path = dense_path(cfg)
    save_model_checkpoint(path, model, cfg, _seeds_dict(cfg))
    _write_jsonl(out_dir(cfg) / "dense_log.jsonl", log)
    return path


def run_capture(cfg: PipelineConfig) -> Path:
    dense, _, _ = load_model_checkpoint(_require_artifact(dense_path(cfg), "train-dense"))
    bank = capture(cfg, dense)
    tensors = {f"site{b}.activations": acts for b, acts in sorted(bank.per_site.items())}
    path = bank_path(cfg)
    save_checkpoint(
        path, tensors, config=config_snapshot(cfg), seeds=_seeds_dict(cfg),
        extra={"token_cap": bank.token_cap, "sites": list(bank.per_site)},
    )
    return path


def load_bank(path) -> ActivationBank:
    ckpt = load_checkpoint(path)
    if "token_cap" not in ckpt.extra:
        raise CheckpointError(f"{path} holds no activation bank")
    try:
        per_site = {
            int(name[len("site"):name.index(".")]): arr
            for name, arr in ckpt.tensors.items()
            if name.startswith("site") and name.endswith(".activations")
        }
    except ValueError as exc:
        raise CheckpointError(f"bad activation tensor name in {path}: {exc}") from None
    return ActivationBank(per_site=per_site, token_cap=ckpt.extra["token_cap"])


def run_upcycle(cfg: PipelineConfig, method: str | None = None) -> Path:
    method = method or cfg.init.method
    dense, _, _ = load_model_checkpoint(_require_artifact(dense_path(cfg), "train-dense"))
    bank = None
    if method == "cluster":
        source = _require_artifact(bank_path(cfg), "capture")
        bank = load_bank(source)
        for b in default_moe_sites(len(dense.blocks)):
            if b not in bank.per_site:
                raise CheckpointError(f"{source} holds no activations for MoE site {b}")
            shape = bank.per_site[b].shape
            if len(shape) != 2 or shape[0] != dense.input_dim:
                raise CheckpointError(
                    f"{source}: MoE site {b} activations have shape {shape}, "
                    f"expected {dense.input_dim} rows"
                )
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
                {str(b): r.to_dict() for b, r in sorted(reports.items())})
    return path


def run_train_moe(cfg: PipelineConfig, method: str | None = None, eesd: bool = False) -> Path:
    method = method or cfg.init.method
    model, _, _ = load_model_checkpoint(
        _require_artifact(moe_path(cfg, method), f"upcycle --method {method}")
    )
    log: list[dict] = []
    teacher = train_moe(cfg, model, method, eesd, log.append)
    path = moe_path(cfg, method, trained=True)
    save_model_checkpoint(
        path, model, cfg, _seeds_dict(cfg, method, trained=True),
        extra={"init_method": method, "eesd": eesd}, teacher=teacher,
    )
    _write_jsonl(out_dir(cfg) / f"train_log_{method}.jsonl", log)
    return path


def run_analyze(cfg: PipelineConfig, checkpoint: Path | str) -> list[Path]:
    ckpt_path = _require_artifact(Path(checkpoint), "upcycle or train-moe")
    model, _, _ = load_model_checkpoint(ckpt_path)
    _, eval_set = _datasets(cfg)
    state = train.model_forward(model, eval_set.inputs, cfg.moe.capacity_eval)
    report = analyze_model(model, state)
    stem = ckpt_path.stem
    paths = [
        out_dir(cfg) / f"analysis_{stem}.json",
        out_dir(cfg) / f"analysis_{stem}.csv",
        out_dir(cfg) / f"routing_{stem}.csv",
    ]
    write_analysis_json(report, paths[0])
    write_analysis_csv(report, paths[1])
    write_routing_csv(state.records, paths[2])
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
        samples_per_tensor=25,
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
        samples_per_tensor=25,
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

def _usable_cpus() -> int:
    """The CPUs this process may run on: the cap on ``compare``'s workers."""
    if hasattr(os, "sched_getaffinity"):  # Linux only
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _seed_cells(cfg: PipelineConfig, root_seed: int, cells) -> list[tuple]:
    """``_compare_cell``'s arguments for one seed's ``(method, eesd)`` cells,
    in order. Every cell upcycles the same dense model, so the seed is
    pretrained and captured once; upcycling copies the model and capture only
    reads it."""
    seed_cfg = replace(cfg, data=replace(cfg.data, seed=root_seed))
    dense = train_dense(seed_cfg)
    bank = capture(seed_cfg, dense)
    return [(seed_cfg, dense, bank, method, eesd) for method, eesd in cells]


def _compare_cell(cfg: PipelineConfig, dense: ToyModel, bank: ActivationBank,
                  method: str, eesd: bool) -> dict:
    """One compare cell: upcycle ``dense``, train it, and evaluate it."""
    model, _, _ = upcycle(cfg, dense, method, bank)
    train_moe(cfg, model, method, eesd)
    return compare_row(cfg, model, method)


def _results(futures) -> list[dict]:
    """The futures' results in order; raises the first failure in that order."""
    return [future.result() for future in futures]


def _pooled_rows(pool, cfg: PipelineConfig, root_seeds, cells) -> list[dict]:
    """``_compare_rows`` with the cells run in ``pool``.

    The parent pretrains seed s+1 while seed s's cells run, and no further
    ahead: seed s-1's cells finish first, so at most two seeds' dense models
    and banks are held for pending cells. Failures surface in (seed, cell)
    order, as in one process: a failed cell stops the run before the next
    seed is pretrained, and a failure in the parent's own work waits for the
    cells submitted before it.
    """
    futures = []
    for root_seed in root_seeds:
        if any(future.done() and future.exception() for future in futures):
            _results(futures)
        _results(futures[:-len(cells)])  # seed s-1's cells
        try:
            args = _seed_cells(cfg, root_seed, cells)
        except Exception:
            _results(futures)  # an earlier cell's failure comes first
            raise
        futures += [pool.submit(_compare_cell, *cell) for cell in args]
    return _results(futures)


def _compare_rows(cfg: PipelineConfig, root_seeds, cells) -> list[dict]:
    """Every (seed, cell) row, in seed order and then ``cells``' order; a cell
    is a ``(method, eesd)`` pair.

    The cells run in a pool of min(cells, usable CPUs) forked worker
    processes. A cell's row does not depend on the process that computes it,
    so the rows have the same values for any worker count. With one worker,
    or where ``fork`` is missing (Windows), the cells run in process.
    """
    workers = min(len(root_seeds) * len(cells), _usable_cpus())
    if workers > 1:
        # Imported here, so the other commands do not pay for importing them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            # fork: workers start in milliseconds with the package already
            # imported, and each inherits the parent's BLAS thread setting.
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                try:
                    return _pooled_rows(pool, cfg, root_seeds, cells)
                except BaseException:
                    # Drop the cells not yet started; leaving the block joins the workers.
                    pool.shutdown(cancel_futures=True)
                    raise
    return [_compare_cell(*cell) for root_seed in root_seeds
            for cell in _seed_cells(cfg, root_seed, cells)]


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
    with atomic_open(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COMPARE_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return path
