"""Tests for strict config loading."""

import pytest

from clusterup.config import PipelineConfig, config_from_dict, load_config
from clusterup.errors import ConfigError


def test_defaults_valid():
    cfg = config_from_dict({})
    assert cfg.model.d == 32
    assert cfg.moe.n_experts == 8
    assert cfg.init.tau == 0.95
    assert cfg.train.lambda_lb == 0.001
    assert cfg.train.beta == 0.999


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_dict({"modle": {}})


def test_unknown_nested_key():
    with pytest.raises(ConfigError, match="unknown keys in moe"):
        config_from_dict({"moe": {"n_expert": 8}})


def test_type_validation():
    with pytest.raises(ConfigError, match="must be an integer"):
        config_from_dict({"model": {"d": 2.5}})
    with pytest.raises(ConfigError, match="must be a number"):
        config_from_dict({"data": {"separation": "high"}})
    with pytest.raises(ConfigError, match="must be a string"):
        config_from_dict({"init": {"method": 3}})


def test_range_validation():
    with pytest.raises(ConfigError, match="tau"):
        config_from_dict({"init": {"tau": 0.0}})
    with pytest.raises(ConfigError, match="k must lie"):
        config_from_dict({"moe": {"k": 9}})
    with pytest.raises(ConfigError, match="n_experts must be >= 2"):
        config_from_dict({"moe": {"n_experts": 1, "k": 1}})
    with pytest.raises(ConfigError, match="beta"):
        config_from_dict({"train": {"beta": 1.2}})
    with pytest.raises(ConfigError, match="n_clusters"):
        config_from_dict({"data": {"n_clusters": 2}, "model": {"n_classes": 4}})
    with pytest.raises(ConfigError, match="method"):
        config_from_dict({"init": {"method": "magic"}})


@pytest.mark.parametrize("section,key,value", [
    ("train", "lr", float("inf")),
    ("train", "lr", float("nan")),
    ("moe", "capacity_train", float("inf")),
    ("data", "separation", float("-inf")),
    pytest.param("train", "lr", 10**401, id="train-lr-401-digit-int"),
])
def test_non_finite_float_rejected(section, key, value):
    with pytest.raises(ConfigError, match=rf"{section}\.{key} must be finite"):
        config_from_dict({section: {key: value}})


def test_yaml_roundtrip(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "model: {d: 16, h: 24, blocks: 2, n_classes: 2}\n"
        "data: {n: 256, n_clusters: 4, separation: 3.0, seed: 7}\n"
        "moe: {n_experts: 4, k: 1}\n"
        "init: {method: sparse}\n"
        "train: {steps: 10, steps_dense: 5, batch_size: 32}\n"
        "output_dir: runs/test\n"
    )
    cfg = load_config(path)
    assert cfg.model.d == 16
    assert cfg.data.seed == 7
    assert cfg.root_seed == 7
    assert cfg.moe.k == 1
    assert cfg.init.method == "sparse"
    assert cfg.output_dir == "runs/test"
    # snapshot round-trips through to_dict/config_from_dict unchanged
    assert config_from_dict(cfg.to_dict()) == cfg


def test_invalid_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("model: {d: 16\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(path)


def test_to_dict_is_plain_data():
    snapshot = PipelineConfig().to_dict()
    assert isinstance(snapshot, dict)
    assert snapshot["moe"]["n_experts"] == 8
    assert snapshot["output_dir"] == "runs/out"
