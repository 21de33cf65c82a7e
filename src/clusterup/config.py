"""Strict YAML pipeline configuration.

Every field is validated at load time and unknown keys are rejected at every
nesting level, so a typo fails loudly instead of silently running defaults.
The single root seed lives in the ``data`` section; all other randomness is
derived from it through named sub-streams.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigError

INIT_METHODS = ("sparse", "drop", "drop_svd", "cluster")


@dataclass(frozen=True)
class ModelConfig:
    d: int = 32
    h: int = 64
    blocks: int = 4
    n_classes: int = 8


@dataclass(frozen=True)
class DataConfig:
    n: int = 4096
    n_eval: int = 1024
    n_clusters: int = 8
    separation: float = 2.0
    seed: int = 0


@dataclass(frozen=True)
class MoeConfig:
    n_experts: int = 8
    k: int = 2
    capacity_train: float = 1.5
    capacity_eval: float = 2.0


@dataclass(frozen=True)
class InitConfig:
    method: str = "cluster"
    ratio: float = 0.5
    fraction: float = 0.25
    tau: float = 0.95
    router_scale: float = 0.02


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    steps_dense: int = 300
    batch_size: int = 128
    lr: float = 0.02
    lambda_lb: float = 0.001
    lambda_eesd: float = 1.0
    beta: float = 0.999


@dataclass(frozen=True)
class CalibrationConfig:
    token_cap: int = 2048


@dataclass(frozen=True)
class PipelineConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    moe: MoeConfig = field(default_factory=MoeConfig)
    init: InitConfig = field(default_factory=InitConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    output_dir: str = "runs/out"

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def root_seed(self) -> int:
        return self.data.seed


_SECTIONS = {
    "model": ModelConfig,
    "data": DataConfig,
    "moe": MoeConfig,
    "init": InitConfig,
    "train": TrainConfig,
    "calibration": CalibrationConfig,
}


def _build_section(cls, raw: dict, path: str):
    known = {f.name: f.type for f in fields(cls)}
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {sorted(unknown)}")
    coerced = {}
    for name, value in raw.items():
        expected = known[name]
        if expected == "int" or expected is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{path}.{name} must be an integer, got {value!r}")
            coerced[name] = value
        elif expected == "float" or expected is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{path}.{name} must be a number, got {value!r}")
            try:
                number = float(value)
            except OverflowError:
                raise ConfigError(
                    f"{path}.{name} must be finite, got an integer too large for a float"
                ) from None
            if not math.isfinite(number):
                raise ConfigError(f"{path}.{name} must be finite, got {value!r}")
            coerced[name] = number
        elif expected == "str" or expected is str:
            if not isinstance(value, str):
                raise ConfigError(f"{path}.{name} must be a string, got {value!r}")
            coerced[name] = value
        else:
            coerced[name] = value
    return cls(**coerced)


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build and validate a PipelineConfig from a nested plain dict."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - set(_SECTIONS) - {"output_dir"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        kwargs[name] = _build_section(cls, section, name)
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str):
            raise ConfigError("output_dir must be a string")
        kwargs["output_dir"] = raw["output_dir"]
    cfg = PipelineConfig(**kwargs)
    _validate(cfg)
    return cfg


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _validate(cfg: PipelineConfig) -> None:
    m, d, moe, init, tr, cal = cfg.model, cfg.data, cfg.moe, cfg.init, cfg.train, cfg.calibration
    _require(m.d >= 1, "model.d must be >= 1")
    _require(m.h >= 1, "model.h must be >= 1")
    _require(m.blocks >= 1, "model.blocks must be >= 1")
    _require(m.n_classes >= 2, "model.n_classes must be >= 2")
    _require(d.n >= 1, "data.n must be >= 1")
    _require(d.n_eval >= 1, "data.n_eval must be >= 1")
    _require(d.n_clusters >= m.n_classes,
             "data.n_clusters must be >= model.n_classes")
    _require(d.separation > 0, "data.separation must be > 0")
    _require(d.seed >= 0, "data.seed must be >= 0")
    # One expert has no inter-expert similarity, which analyze and compare report.
    _require(moe.n_experts >= 2, "moe.n_experts must be >= 2")
    _require(1 <= moe.k <= moe.n_experts, "moe.k must lie in [1, n_experts]")
    _require(moe.capacity_train > 0, "moe.capacity_train must be > 0")
    _require(moe.capacity_eval > 0, "moe.capacity_eval must be > 0")
    _require(init.method in INIT_METHODS,
             f"init.method must be one of {INIT_METHODS}")
    _require(0.0 <= init.ratio <= 1.0, "init.ratio must lie in [0, 1]")
    _require(0.0 <= init.fraction < 1.0, "init.fraction must lie in [0, 1)")
    _require(0.0 < init.tau <= 1.0, "init.tau must lie in (0, 1]")
    _require(init.router_scale > 0, "init.router_scale must be > 0")
    _require(tr.steps >= 0, "train.steps must be >= 0")
    _require(tr.steps_dense >= 0, "train.steps_dense must be >= 0")
    _require(tr.batch_size >= 1, "train.batch_size must be >= 1")
    _require(tr.lr >= 0, "train.lr must be >= 0")
    _require(tr.lambda_lb >= 0, "train.lambda_lb must be >= 0")
    _require(tr.lambda_eesd >= 0, "train.lambda_eesd must be >= 0")
    _require(0.0 <= tr.beta <= 1.0, "train.beta must lie in [0, 1]")
    _require(cal.token_cap >= 1, "calibration.token_cap must be >= 1")


def load_config(path) -> PipelineConfig:
    """Parse and strictly validate a YAML config file."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # PyYAML raises ValueError for an integer literal past Python's
        # integer-to-string digit limit, and RecursionError for nesting a
        # few hundred levels deep.
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)
