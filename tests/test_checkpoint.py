"""Tests for the manifest+blob checkpoint container."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterup import checkpoint, pipeline
from clusterup.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from clusterup.pipeline import load_model_checkpoint, save_model_checkpoint
from clusterup.config import config_from_dict
from clusterup.train import make_dense_model, named_params
from clusterup.upcycle import upcycle_model


def _model_cfg(d, h, blocks, n_classes):
    """The default config with the given model section."""
    return config_from_dict({"model": {"d": d, "h": h, "blocks": blocks, "n_classes": n_classes}})


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
    return {"format_version": 2, "tensors": tensors, "config": {}, "seeds": {},
            "extra": {}}


ONE_TENSOR = [{"name": "a", "shape": [2], "dtype": "float64", "offset": 0}]

MALFORMED = {
    "short_header": b"CKP1\x05\x00",
    "manifest_past_end": b"CKP1" + struct.pack("<Q", 1 << 62) + b"{}",
    "bad_json": _container(b"{not json"),
    "bad_utf8": _container(b"\xff\xfe"),
    "not_an_object": _container([1, 2]),
    "missing_tensors_key": _container(
        {k: v for k, v in _manifest(ONE_TENSOR).items() if k != "tensors"}, bytes(16)),
    "extra_not_object": _container({**_manifest(ONE_TENSOR), "extra": []}, bytes(16)),
    "entry_without_shape": _container(_manifest([{"name": "a", "offset": 0}]), bytes(16)),
    "negative_dim": _container(
        _manifest([{**ONE_TENSOR[0], "shape": [-2]}]), bytes(16)),
    "offset_past_blob": _container(
        _manifest([{**ONE_TENSOR[0], "offset": 64}]), bytes(16)),
    "overlapping_offsets": _container(
        _manifest([ONE_TENSOR[0], {**ONE_TENSOR[0], "name": "b"}]), bytes(32)),
    # Two entries named "a" that tile the blob: loading kept only the second.
    "duplicate_name": _container(
        _manifest([ONE_TENSOR[0], {**ONE_TENSOR[0], "offset": 16}]), bytes(32)),
    # Both tile the blob, but numpy cannot hold the shape: these escaped as
    # OverflowError and ValueError.
    "empty_shape_overflow": _container(
        _manifest([{**ONE_TENSOR[0], "shape": [0, 10 ** 30]}])),
    "too_many_dims": _container(_manifest([{**ONE_TENSOR[0], "shape": [1] * 70}]), bytes(8)),
    # A format-2 file whose entry names another dtype: it loaded as float64.
    "dtype_float32": _container(
        _manifest([{**ONE_TENSOR[0], "dtype": "float32"}]), bytes(16)),
    # A well-formed file of format 1, whose tensors were float32.
    "format_1_float32": _container(
        {**_manifest([{**ONE_TENSOR[0], "dtype": "float32"}]), "format_version": 1},
        np.ones(2, dtype="<f4").tobytes()),
}


class TestContainer:
    def test_roundtrip_values(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(7)}
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
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        # Only the format-1 file fails at the version check.
        assert ("format version" in str(info.value)) == (raw is MALFORMED["format_1_float32"])

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


class TestByteFuzz:
    """Flipping, cutting or inserting bytes anywhere in the header, the
    manifest or the blob of a small checkpoint either loads or raises
    ``CheckpointError``."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        rng = np.random.default_rng(5)
        path = tmp_path_factory.mktemp("fuzz") / "small.ckpt"
        # An empty tensor lets a mutated neighbouring size grow without
        # changing the blob length.
        save_checkpoint(path, {"w": rng.standard_normal((3, 2)), "e": np.zeros((0, 3)),
                               "b": rng.standard_normal(2), "s": np.array(1.5)},
                        config={"lr": 0.05, "k": [1, 2]}, seeds={"root": 3},
                        extra={"model": {"blocks": [{"kind": "dense"}]}})
        return path

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_mutated_bytes_load_or_raise_checkpoint_error(self, saved, data):
        raw = saved.read_bytes()
        (length,) = struct.unpack("<Q", raw[4:12])
        bounds = {"header": (0, 12), "manifest": (12, 12 + length),
                  "blob": (12 + length, len(raw))}
        lo, hi = bounds[data.draw(st.sampled_from(list(bounds)))]
        pos = data.draw(st.integers(lo, hi - 1))
        op = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
        mutated = bytearray(raw)
        if op == "flip":
            mutated[pos] ^= data.draw(st.integers(1, 255))
        elif op == "truncate":
            del mutated[pos:]
        else:
            json_bytes = st.sampled_from(b'0123456789-+.eE[]{}",: ntf')
            mutated[pos:pos] = bytes(data.draw(st.lists(
                st.integers(0, 255) | json_bytes, min_size=1, max_size=6)))
        path = saved.parent / "mutated.ckpt"
        path.write_bytes(bytes(mutated))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


def _saved_moe(tmp_path, method="sparse"):
    """A 2-expert top-2 model upcycled under its config, the config, and the
    path it is saved at."""
    cfg = config_from_dict({"model": {"d": 5, "h": 7, "blocks": 2, "n_classes": 3},
                            "moe": {"n_experts": 2, "k": 2}})
    moe, _, _ = upcycle_model(make_dense_model(5, 7, 2, 3, seed=5), method,
                              n_experts=2, k=2, capacity_factor=cfg.moe.capacity_train, seed=6)
    path = tmp_path / "moe.ckpt"
    save_model_checkpoint(path, moe, cfg, {"root": 0})
    return moe, cfg, path


class TestModelSerialization:
    def test_dense_model_roundtrip(self, tmp_path):
        model = make_dense_model(6, 8, 3, 2, seed=0)
        cfg = _model_cfg(6, 8, 3, 2)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, cfg, {"root": 0})
        loaded = load_model_checkpoint(path, cfg)
        assert load_checkpoint(path).config == {
            k: v for k, v in cfg.to_dict().items() if k != "output_dir"}
        for (name, arr), (_, arr2) in zip(named_params(model), named_params(loaded)):
            np.testing.assert_array_equal(arr, arr2)

    def test_moe_model_roundtrip(self, tmp_path):
        dense = make_dense_model(6, 8, 4, 2, seed=1)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=4, k=2,
                                  capacity_factor=1.5, seed=2)
        path, cfg = tmp_path / "moe.ckpt", config_from_dict({
            "model": {"d": 6, "h": 8, "blocks": 4, "n_classes": 2}, "moe": {"n_experts": 4}})
        save_model_checkpoint(path, moe, cfg, {"root": 0})
        loaded = load_model_checkpoint(path, cfg)
        assert loaded.moe_sites == [1, 3]
        layer = loaded.blocks[1]
        assert layer.k == 2 and layer.capacity_factor == 1.5
        assert layer.n_experts == 4

    def test_structure_tensors_consistent(self, tmp_path):
        moe, cfg, path = _saved_moe(tmp_path, "drop")
        loaded = load_model_checkpoint(path, cfg)
        for (name, a), (name2, b) in zip(named_params(moe), named_params(loaded), strict=True):
            assert name == name2
            np.testing.assert_array_equal(a, b)

    def test_missing_tensor_raises_checkpoint_error(self, tmp_path):
        _, cfg, path = _saved_moe(tmp_path)
        ckpt = load_checkpoint(path)
        del ckpt.tensors["block1.expert1.b2"]
        save_checkpoint(path, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds)
        with pytest.raises(CheckpointError, match="'block1.expert1.b2' is missing"):
            load_model_checkpoint(path, cfg)

    @pytest.mark.parametrize("key,value", [
        ("k", 9), ("k", "2"), ("k", 1.5), ("k", True), ("n_experts", 0),
    ])
    def test_invalid_structure_raises_checkpoint_error(self, tmp_path, key, value):
        # The file's recorded moe section differs from the running one in
        # n_experts or k, which the tensors alone do not show.
        _, cfg, path = _saved_moe(tmp_path)
        ckpt = load_checkpoint(path)
        ckpt.config["moe"][key] = value
        save_checkpoint(path, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds)
        with pytest.raises(CheckpointError, match=f"moe.{key} is {value!r} there and 2 here"):
            load_model_checkpoint(path, cfg)


class TestLoaderProperty:
    """Save -> load of a random dense, sparse or drop model gives back its
    tensors, and the loader refuses a file that is not the model its config
    describes."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("loader")

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(1, 5), h=st.integers(1, 5), blocks=st.integers(2, 5),
           n_classes=st.integers(2, 4), n_experts=st.integers(2, 4),
           k=st.integers(1, 4), kind=st.sampled_from(["dense", "sparse", "drop"]),
           data=st.data())
    def test_save_load_and_refusals(self, workdir, d, h, blocks, n_classes, n_experts, k,
                                    kind, data):
        k = min(k, n_experts)
        cfg = config_from_dict({
            "model": {"d": d, "h": h, "blocks": blocks, "n_classes": n_classes},
            "moe": {"n_experts": n_experts, "k": k}})
        model = make_dense_model(d, h, blocks, n_classes, seed=d * h)
        if kind != "dense":
            model, _, _ = upcycle_model(model, kind, n_experts=n_experts, k=k,
                                        capacity_factor=cfg.moe.capacity_train, seed=blocks)
        path = workdir / "m.ckpt"
        save_model_checkpoint(path, model, cfg, {"root": 0})
        ckpt = load_checkpoint(path)

        def load(tensors=ckpt.tensors, config=ckpt.config, extra=None):
            save_checkpoint(path, tensors, config=config, seeds=ckpt.seeds, extra=extra)
            return load_model_checkpoint(path, cfg)

        def same_tensors(loaded):
            want, got = list(named_params(model)), list(named_params(loaded))
            assert [n for n, _ in got] == [n for n, _ in want]
            for (_, a), (_, b) in zip(want, got):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

        same_tensors(load())
        name = data.draw(st.sampled_from(sorted(ckpt.tensors)), label="tensor")
        # Without the first site's router the file reads as dense.
        missing = "block1.w1" if name == "block1.router" else name
        with pytest.raises(CheckpointError, match=f"{missing!r} is missing"):
            load({n: t for n, t in ckpt.tensors.items() if n != name})
        with pytest.raises(CheckpointError, match=f"{name!r} has shape"):
            load({**ckpt.tensors, name: ckpt.tensors[name][..., None]})
        # One expert too many, or for a dense model one block too many.
        extra = f"block1.expert{n_experts}.w1" if kind != "dense" else f"block{blocks}.w1"
        with pytest.raises(CheckpointError, match=f"{extra!r} is not in that model"):
            load({**ckpt.tensors, extra: np.zeros((h, d))})
        # A dense file does not depend on the moe section.
        other_k = {**ckpt.config, "moe": {**ckpt.config["moe"], "k": k % n_experts + 1}}
        if kind == "dense":
            same_tensors(load(config=other_k))
        else:
            with pytest.raises(CheckpointError, match="moe.k is"):
                load(config=other_k)
        # Files written before the manifest lost its model structure still load.
        legacy = {"input_dim": d, "n_classes": n_classes, "blocks": [
            {"kind": "moe", "n_experts": n_experts, "k": k, "capacity_factor": 1.5}
            if b in model.moe_sites else {"kind": "dense"} for b in range(blocks)]}
        same_tensors(load(extra={"model": legacy}))


def _walk_cfg():
    """The config that describes ``TestSingleWalk``'s model."""
    return config_from_dict({"model": {"d": 6, "h": 8, "blocks": 4, "n_classes": 2},
                             "moe": {"n_experts": 3}})


class TestSingleWalk:
    """Checkpoints and SGD share the walk in clusterup.moe."""

    @pytest.fixture
    def saved(self, tmp_path):
        dense = make_dense_model(6, 8, 4, 2, seed=7)
        moe, _, _ = upcycle_model(dense, "drop", n_experts=3, k=2,
                                  capacity_factor=1.5, seed=8)
        cluster = {"cluster.site1.centroids": np.arange(6.0).reshape(2, 3)}
        path = tmp_path / "w.ckpt"
        save_model_checkpoint(path, moe, _walk_cfg(), {"root": 0},
                              extra={"init_method": "drop"}, cluster_tensors=cluster)
        return path, moe, cluster

    def test_manifest_names_follow_the_walk(self, saved):
        path, moe, cluster = saved
        names = [e["name"] for e in load_checkpoint(path).manifest["tensors"]]
        assert names == [n for n, _ in named_params(moe)] + list(cluster)

    def test_save_load_save_byte_identical(self, saved, tmp_path):
        path, _, _ = saved
        cfg = _walk_cfg()
        model = load_model_checkpoint(path, cfg)
        ckpt = load_checkpoint(path)
        cluster = {k: v for k, v in ckpt.tensors.items() if k.startswith("cluster.")}
        again = tmp_path / "again.ckpt"
        save_model_checkpoint(again, model, cfg, ckpt.seeds,
                              extra={"init_method": "drop"}, cluster_tensors=cluster)
        assert again.read_bytes() == path.read_bytes()
