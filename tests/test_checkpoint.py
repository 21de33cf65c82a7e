"""Tests for the manifest+blob checkpoint container."""

import json
import os
import struct

import numpy as np
import pytest

from clusterup import checkpoint, pipeline
from clusterup.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from clusterup.moe import block_params
from clusterup.pipeline import (
    load_model_checkpoint,
    model_from_tensors,
    model_structure,
    save_model_checkpoint,
)
from clusterup.config import PipelineConfig, config_from_dict
from clusterup.train import make_dense_model, make_model_teacher, named_params
from clusterup.upcycle import upcycle_model


def _f32(a):
    return a.astype(np.float32).astype(np.float64)


def _container(manifest, blob=b""):
    """Raw checkpoint bytes around an arbitrary manifest and blob."""
    payload = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    return b"CKP1" + struct.pack("<Q", len(payload)) + payload + blob


class DiskFull:
    """A file whose writes store one byte, then fail like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:1])
        raise OSError(28, "No space left on device")


def fill_disk(monkeypatch, prefix=""):
    """Make writes to files whose names start with ``prefix`` fail."""
    real_open = open

    def fake_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return DiskFull(fh) if os.path.basename(file).startswith(prefix) else fh

    monkeypatch.setattr(checkpoint, "open", fake_open, raising=False)


def _manifest(tensors):
    return {"format_version": 1, "tensors": tensors, "config": {}, "seeds": {},
            "extra": {}}


ONE_TENSOR = [{"name": "a", "shape": [2], "dtype": "float32", "offset": 0}]

MALFORMED = {
    "short_header": b"CKP1\x05\x00",
    "manifest_past_end": b"CKP1" + struct.pack("<Q", 1 << 62) + b"{}",
    "bad_json": _container(b"{not json"),
    "bad_utf8": _container(b"\xff\xfe"),
    "not_an_object": _container([1, 2]),
    "missing_tensors_key": _container(
        {k: v for k, v in _manifest(ONE_TENSOR).items() if k != "tensors"}, bytes(8)),
    "extra_not_object": _container({**_manifest(ONE_TENSOR), "extra": []}, bytes(8)),
    "entry_without_shape": _container(_manifest([{"name": "a", "offset": 0}]), bytes(8)),
    "negative_dim": _container(
        _manifest([{**ONE_TENSOR[0], "shape": [-2]}]), bytes(8)),
    "offset_past_blob": _container(
        _manifest([{**ONE_TENSOR[0], "offset": 64}]), bytes(8)),
    "overlapping_offsets": _container(
        _manifest([ONE_TENSOR[0], {**ONE_TENSOR[0], "name": "b"}]), bytes(16)),
    # Two entries named "a" that tile the blob: loading kept only the second.
    "duplicate_name": _container(
        _manifest([ONE_TENSOR[0], {**ONE_TENSOR[0], "offset": 8}]), bytes(16)),
}


class TestContainer:
    def test_roundtrip_values(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.standard_normal((3, 4)).astype(np.float32).astype(np.float64),
            "b": rng.standard_normal(7).astype(np.float32).astype(np.float64),
        }
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, tensors, config={"x": 1}, seeds={"root": 5},
                        extra={"note": "hi"})
        ckpt = load_checkpoint(path)
        assert ckpt.config == {"x": 1}
        assert ckpt.seeds == {"root": 5}
        assert ckpt.extra == {"note": "hi"}
        for name in tensors:
            np.testing.assert_array_equal(ckpt.tensors[name], tensors[name])

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {"w": rng.standard_normal((5, 5)), "b": rng.standard_normal(5)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, tensors, config={"k": [1, 2]}, seeds={"root": 0})
        ckpt = load_checkpoint(p1)
        save_checkpoint(p2, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds,
                        extra=ckpt.extra)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tensor_order_preserved(self, tmp_path):
        tensors = {"z": np.ones(2), "a": np.zeros(3), "m": np.ones(1)}
        path = tmp_path / "o.ckpt"
        save_checkpoint(path, tensors, config={}, seeds={})
        ckpt = load_checkpoint(path)
        assert [e["name"] for e in ckpt.manifest["tensors"]] == ["z", "a", "m"]
        assert list(ckpt.tensors) == ["z", "a", "m"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("raw", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_raises_checkpoint_error(self, tmp_path, raw):
        path = tmp_path / "m.ckpt"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_blob(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"a": np.ones(4)}, config={}, seeds={})
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": np.ones(4)}, config={}, seeds={})
        before = path.read_bytes()
        fill_disk(monkeypatch)
        with pytest.raises(OSError):
            save_checkpoint(path, {"a": np.zeros(4)}, config={}, seeds={})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.ckpt"]

    @pytest.mark.parametrize("name", ["init_report_sparse.json", "compare.csv"])
    def test_failed_report_write_keeps_previous_report(self, tmp_path, monkeypatch, name):
        cfg = config_from_dict({
            "model": {"d": 4, "h": 6, "blocks": 2, "n_classes": 2},
            "data": {"n": 64, "n_eval": 32, "n_clusters": 2},
            "moe": {"n_experts": 2, "k": 1},
            "train": {"steps_dense": 2},
            "output_dir": str(tmp_path),
        })
        if name == "compare.csv":
            # Canned rows, one per root seed, stand in for the experiments.
            monkeypatch.setattr(pipeline, "_compare_rows", lambda cfg, seeds, cells:
                                [dict.fromkeys(pipeline.COMPARE_COLUMNS, s) for s in seeds])
            write = lambda: pipeline.run_compare(cfg, n_seeds=2)
        else:
            pipeline.run_train_dense(cfg)
            write = lambda: pipeline.run_upcycle(cfg, "sparse")
        write()
        path = tmp_path / name
        before = path.read_bytes()
        listing = sorted(os.listdir(tmp_path))
        fill_disk(monkeypatch, prefix=name)
        with pytest.raises(OSError):
            write()
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == listing


class TestModelSerialization:
    def test_dense_model_roundtrip(self, tmp_path):
        model = make_dense_model(6, 8, 3, 2, seed=0)
        cfg = PipelineConfig()
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, cfg, {"root": 0})
        loaded, teacher, manifest = load_model_checkpoint(path)
        assert teacher is None
        assert manifest["config"] == {
            k: v for k, v in cfg.to_dict().items() if k != "output_dir"}
        for (name, arr), (_, arr2) in zip(named_params(model), named_params(loaded)):
            np.testing.assert_array_equal(_f32(arr), arr2)

    def test_moe_model_roundtrip(self, tmp_path):
        dense = make_dense_model(6, 8, 4, 2, seed=1)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=4, k=2,
                                  capacity_factor=1.5, seed=2)
        path = tmp_path / "moe.ckpt"
        save_model_checkpoint(path, moe, PipelineConfig(), {"root": 0})
        loaded, _, _ = load_model_checkpoint(path)
        assert loaded.moe_sites == [1, 3]
        layer = loaded.blocks[1]
        assert layer.k == 2 and layer.capacity_factor == 1.5
        assert layer.n_experts == 4

    def test_teacher_roundtrip(self, tmp_path):
        dense = make_dense_model(6, 8, 2, 2, seed=3)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=3, k=1,
                                  capacity_factor=1.5, seed=4)
        teacher = make_model_teacher(moe, beta=0.99)
        teacher.sites[1].mirror.router += 0.5
        teacher.sites[1].step_count = 7
        path = tmp_path / "tm.ckpt"
        save_model_checkpoint(path, moe, PipelineConfig(), {"root": 0},
                              teacher=teacher)
        _, loaded_teacher, _ = load_model_checkpoint(path)
        assert loaded_teacher is not None
        assert loaded_teacher.beta == 0.99
        assert loaded_teacher.sites[1].step_count == 7
        np.testing.assert_array_equal(
            loaded_teacher.sites[1].mirror.router,
            _f32(teacher.sites[1].mirror.router),
        )

    def test_structure_tensors_consistent(self):
        dense = make_dense_model(5, 7, 4, 3, seed=5)
        moe, _, _ = upcycle_model(dense, "drop", n_experts=2, k=1,
                                  capacity_factor=1.0, seed=6)
        rebuilt = model_from_tensors(model_structure(moe), dict(named_params(moe)))
        for (name, a), (name2, b) in zip(named_params(moe), named_params(rebuilt)):
            assert name == name2
            np.testing.assert_array_equal(a, b)

    def test_missing_tensor_raises_checkpoint_error(self):
        moe, _, _ = upcycle_model(make_dense_model(5, 7, 2, 3, seed=5), "sparse",
                                  n_experts=2, k=1, capacity_factor=1.0, seed=6)
        tensors = dict(named_params(moe))
        del tensors["block1.expert1.b2"]
        with pytest.raises(CheckpointError, match="block1.expert1.b2"):
            model_from_tensors(model_structure(moe), tensors)
        structure = model_structure(moe)
        del structure["blocks"][1]["k"]
        with pytest.raises(CheckpointError):
            model_from_tensors(structure, dict(named_params(moe)))

    @pytest.mark.parametrize("key,value", [
        ("k", 9), ("k", "2"), ("k", 1.5), ("k", True), ("n_experts", 0),
        ("capacity_factor", -1.0), ("capacity_factor", float("inf")),
        ("capacity_factor", float("nan")),
    ])
    def test_invalid_structure_raises_checkpoint_error(self, key, value):
        moe, _, _ = upcycle_model(make_dense_model(5, 7, 2, 3, seed=5), "sparse",
                                  n_experts=2, k=1, capacity_factor=1.0, seed=6)
        structure = model_structure(moe)
        structure["blocks"][1][key] = value
        with pytest.raises(CheckpointError, match="block1"):
            model_from_tensors(structure, dict(named_params(moe)))


class TestSingleWalk:
    """Checkpoints, teacher mirrors and SGD all share the walk in clusterup.moe."""

    @pytest.fixture
    def saved(self, tmp_path):
        dense = make_dense_model(6, 8, 4, 2, seed=7)
        moe, _, _ = upcycle_model(dense, "drop", n_experts=3, k=2,
                                  capacity_factor=1.5, seed=8)
        teacher = make_model_teacher(moe, beta=0.9)
        for b, site_teacher in teacher.sites.items():
            for _, arr in block_params(site_teacher.mirror):
                arr += 0.125 * (b + 1)
            site_teacher.step_count = 3 + b
        cluster = {"cluster.site1.centroids": np.arange(6.0).reshape(2, 3)}
        path = tmp_path / "w.ckpt"
        save_model_checkpoint(path, moe, PipelineConfig(), {"root": 0},
                              extra={"init_method": "drop"}, teacher=teacher,
                              cluster_tensors=cluster)
        return path, moe, teacher, cluster

    def test_manifest_names_follow_the_walk(self, saved):
        path, moe, teacher, cluster = saved
        names = [e["name"] for e in load_checkpoint(path).manifest["tensors"]]
        teacher_names = [
            name for b in (1, 3)
            for name, _ in block_params(teacher.sites[b].mirror, f"teacher.block{b}.")
        ]
        assert names == [n for n, _ in named_params(moe)] + teacher_names + list(cluster)
        assert teacher_names[0] == "teacher.block1.router"
        assert teacher_names[-1] == "teacher.block3.expert2.b2"

    def test_save_load_save_byte_identical(self, saved, tmp_path):
        path, _, _, _ = saved
        model, teacher, manifest = load_model_checkpoint(path)
        cluster = {k: v for k, v in load_checkpoint(path).tensors.items()
                   if k.startswith("cluster.")}
        again = tmp_path / "again.ckpt"
        save_model_checkpoint(again, model, PipelineConfig(), manifest["seeds"],
                              extra={"init_method": "drop"}, teacher=teacher,
                              cluster_tensors=cluster)
        assert again.read_bytes() == path.read_bytes()

    def test_every_mirror_reloads(self, saved):
        path, _, teacher, _ = saved
        _, loaded, _ = load_model_checkpoint(path)
        assert sorted(loaded.sites) == sorted(teacher.sites)
        for b, site_teacher in teacher.sites.items():
            assert loaded.sites[b].step_count == site_teacher.step_count
            pairs = zip(block_params(loaded.sites[b].mirror),
                        block_params(site_teacher.mirror))
            for (name, got), (_, want) in pairs:
                np.testing.assert_array_equal(got, _f32(want), err_msg=name)
