"""End-to-end CLI tests on a miniature configuration."""

import csv
import functools
import json
import operator
import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterup.cli import main
from clusterup.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from clusterup.errors import NonFiniteLoss, SeparationInfeasible
from clusterup import pipeline, train, upcycle
import clusterup.workers
from clusterup.pipeline import (
    _compare_rows,
    compare_row,
    compare_run,
    load_model_checkpoint,
    moe_path,
    run_analyze,
    run_compare,
)
from clusterup.config import INIT_METHODS, load_config


SMALL_CFG = """\
model: {{d: 8, h: 12, blocks: 4, n_classes: 2}}
data: {{n: 384, n_eval: 128, n_clusters: 4, separation: 3.0, seed: 3}}
moe: {{n_experts: 4, k: 2, capacity_train: 1.5, capacity_eval: 2.0}}
init: {{method: cluster, tau: {tau}}}
train: {{steps: 8, steps_dense: 12, batch_size: 64, lr: 0.05}}
calibration: {{token_cap: 256}}
output_dir: {out}
"""


@pytest.fixture
def workspace(tmp_path):
    out = tmp_path / "runs"
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(SMALL_CFG.format(out=out, tau=0.95))
    return cfg_path, out


@pytest.fixture(scope="module")
def trained_artifacts(tmp_path_factory):
    """dense, bank, cluster-upcycled and EESD-trained checkpoints, built once."""
    root = tmp_path_factory.mktemp("trained")
    cfg_path = root / "cfg.yaml"
    cfg_path.write_text(SMALL_CFG.format(out=root / "runs", tau=0.95))
    for argv in (("train-dense",), ("capture",), ("upcycle", "--method", "cluster"),
                 ("train-moe", "--method", "cluster", "--eesd")):
        assert run("--config", cfg_path, *argv) == 0
    return root / "runs"


@pytest.fixture
def trained_workspace(trained_artifacts, tmp_path):
    """A private copy of ``trained_artifacts`` that a test may rewrite."""
    out = tmp_path / "runs"
    shutil.copytree(trained_artifacts, out)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(SMALL_CFG.format(out=out, tau=0.95))
    return cfg_path, out


def run(*argv):
    return main([str(a) for a in argv])


class TestCommands:
    def test_full_pipeline(self, workspace, capsys):
        cfg_path, out = workspace
        assert run("--config", cfg_path, "train-dense") == 0
        assert (out / "dense.ckpt").exists()
        assert (out / "dense_log.jsonl").exists()

        assert run("--config", cfg_path, "capture") == 0
        assert (out / "bank.ckpt").exists()

        for method in ("sparse", "drop", "drop-svd", "cluster"):
            assert run("--config", cfg_path, "upcycle", "--method", method) == 0
            stem = method.replace("-", "_")
            assert (out / f"moe_{stem}.ckpt").exists()
            assert (out / f"init_report_{stem}.json").exists()

        assert run("--config", cfg_path, "train-moe", "--method", "cluster",
                   "--eesd") == 0
        assert (out / "moe_cluster_trained.ckpt").exists()
        log_lines = (out / "train_log_cluster.jsonl").read_text().splitlines()
        assert len(log_lines) == 8
        record = json.loads(log_lines[0])
        for key in ("step", "task", "lb", "eesd", "total", "routing_entropy",
                    "drop_rate"):
            assert key in record

        assert run("--config", cfg_path, "analyze", "--checkpoint",
                   out / "moe_cluster_trained.ckpt") == 0
        assert (out / "analysis_moe_cluster_trained.json").exists()
        assert (out / "analysis_moe_cluster_trained.csv").exists()
        assert (out / "routing_moe_cluster_trained.csv").exists()

        assert run("--config", cfg_path, "gradcheck") == 0
        payload = json.loads((out / "gradcheck.json").read_text())
        assert payload["dense"]["max_rel_error"] < 1e-5
        assert payload["moe"]["max_rel_error"] < 1e-4
        assert payload["moe"]["teacher_max_quotient"] == 0.0

    def test_sparse_then_analyze_similarity_is_one(self, workspace, capsys):
        cfg_path, out = workspace
        run("--config", cfg_path, "train-dense")
        run("--config", cfg_path, "upcycle", "--method", "sparse")
        run("--config", cfg_path, "analyze", "--checkpoint", out / "moe_sparse.ckpt")
        with open(out / "analysis_moe_sparse.csv") as fh:
            rows = list(csv.DictReader(fh))
        sims = [float(r["value"]) for r in rows
                if r["metric"] == "mean_pairwise_similarity"]
        assert sims and all(s == 1.0 for s in sims)

    def test_cluster_tau_one_matches_per_cluster_dense_oracle(self, tmp_path):
        # Lossless truncation: on calibration tokens, each upcycled site's
        # first-layer product matches the dense layer exactly.
        out = tmp_path / "runs"
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(SMALL_CFG.format(out=out, tau=1.0))
        run("--config", cfg_path, "train-dense")
        run("--config", cfg_path, "capture")
        run("--config", cfg_path, "upcycle", "--method", "cluster")
        cfg = load_config(cfg_path)
        dense_model = load_model_checkpoint(out / "dense.ckpt", cfg)
        moe_model = load_model_checkpoint(moe_path(cfg, "cluster"), cfg)
        bank = load_checkpoint(out / "bank.ckpt")
        moe_ckpt = load_checkpoint(moe_path(cfg, "cluster"))
        for b in moe_model.moe_sites:
            acts = bank.tensors[f"site{b}.activations"]
            layer = moe_model.blocks[b]
            dense_w1 = dense_model.blocks[b].w1
            # Every expert reproduces the dense first layer on its own cluster.
            labels = moe_ckpt.tensors[f"cluster.site{b}.assignments"].astype(int)
            for i, expert in enumerate(layer.experts):
                cluster_tokens = acts[:, labels == i]
                if cluster_tokens.shape[1] == 0:
                    continue
                gap = np.abs(dense_w1 @ cluster_tokens - expert.w1 @ cluster_tokens)
                assert gap.max() < 1e-5
        # Zero-step forward check: the untrained upcycled model matches the
        # dense model on calibration tokens (lossless truncation everywhere).
        from clusterup.train import model_forward

        tokens = load_checkpoint(out / "bank.ckpt").tensors["site1.activations"]
        dense_out = model_forward(dense_model, tokens).final
        moe_state = model_forward(moe_model, tokens, cfg.moe.capacity_eval)
        assert all(not r.dropped.any() for r in moe_state.records.values())
        assert np.abs(moe_state.final - dense_out).max() < 1e-5

    def test_compare_schema_and_determinism(self, workspace, capsys):
        cfg_path, out = workspace
        assert run("--config", cfg_path, "compare", "--seeds", "2") == 0
        first = (out / "compare.csv").read_bytes()
        with open(out / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4  # seeds x methods
        assert {r["method"] for r in rows} == {"sparse", "drop", "drop_svd", "cluster"}
        assert {r["seed"] for r in rows} == {"3", "4"}
        assert run("--config", cfg_path, "compare", "--seeds", "2") == 0
        assert (out / "compare.csv").read_bytes() == first

    def test_idempotent_artifacts(self, workspace, capsys):
        cfg_path, out = workspace
        run("--config", cfg_path, "train-dense")
        first = (out / "dense.ckpt").read_bytes()
        run("--config", cfg_path, "train-dense")
        assert (out / "dense.ckpt").read_bytes() == first

    def test_config_snapshot_embedded(self, workspace, capsys):
        cfg_path, out = workspace
        run("--config", cfg_path, "train-dense")
        cfg = load_config(cfg_path)
        ckpt = load_checkpoint(out / "dense.ckpt")
        assert ckpt.config == {k: v for k, v in cfg.to_dict().items() if k != "output_dir"}

    def test_checkpoint_bytes_independent_of_output_dir(self, workspace, tmp_path, capsys):
        cfg_path, _ = workspace
        for name in ("a", "b"):
            assert run("--config", cfg_path, "--out-dir", tmp_path / name, "train-dense") == 0
        assert (tmp_path / "a" / "dense.ckpt").read_bytes() == \
            (tmp_path / "b" / "dense.ckpt").read_bytes()

    @pytest.mark.parametrize("eesd", [False, True, pytest.param(None, id="mixed")])
    def test_compare_rows_match_single_cells(self, workspace, eesd):
        # compare pretrains and captures once per seed for all its cells; each
        # row must equal the same cell run alone from scratch. The mixed case
        # is one _compare_rows call over a plain and an EESD cell.
        cfg_path, out = workspace
        cfg = load_config(cfg_path)
        if eesd is None:
            cells = [("sparse", False), ("cluster", True)]
            rows = _compare_rows(cfg, range(cfg.root_seed, cfg.root_seed + 2), cells)
        else:
            cells = [(method, eesd) for method in INIT_METHODS]
            with open(run_compare(cfg, 2, eesd=eesd), newline="") as fh:
                rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(cells)
        for row, (method, cell_eesd) in zip(rows, cells * 2):
            alone = compare_run(cfg, int(row["seed"]), method, cell_eesd)
            assert row == (alone if eesd is None else {k: str(v) for k, v in alone.items()})

    @pytest.mark.parametrize("eesd", [(), ("--eesd",)], ids=["plain", "eesd"])
    def test_staged_run_matches_compare(self, workspace, capsys, eesd):
        # Checkpoints keep every bit, so the staged CLI and compare evaluate
        # the same trained model.
        cfg_path, _ = workspace
        for argv in (("train-dense",), ("capture",), ("upcycle", "--method", "cluster"),
                     ("train-moe", "--method", "cluster", *eesd)):
            assert run("--config", cfg_path, *argv) == 0
        cfg = load_config(cfg_path)
        trained = load_model_checkpoint(moe_path(cfg, "cluster", trained=True), cfg)
        staged = compare_row(cfg, trained, "cluster")
        assert staged == _compare_rows(cfg, (cfg.root_seed,), (("cluster", bool(eesd)),))[0]

    def test_one_forward_pass_per_evaluation(self, workspace, monkeypatch, capsys):
        cfg_path, _ = workspace
        for argv in (("train-dense",), ("capture",), ("upcycle", "--method", "cluster")):
            assert run("--config", cfg_path, *argv) == 0
        cfg = load_config(cfg_path)
        model = load_model_checkpoint(moe_path(cfg, "cluster"), cfg)
        calls = []
        forward = train.model_forward

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(train, "model_forward", counted)
        compare_row(cfg, model, "cluster")
        assert len(calls) == 1
        calls.clear()
        run_analyze(cfg, moe_path(cfg, "cluster"))
        assert len(calls) == 1


class TestSeedProvenance:
    def test_recorded_seeds_are_the_seeds_drawn(self, workspace, monkeypatch):
        cfg_path, out = workspace
        drawn: dict[str, set] = {}

        def spy(module, attr, stream_of):
            original = getattr(module, attr)

            def wrapper(*args, **kwargs):
                drawn.setdefault(stream_of(*args), set()).add(kwargs["seed"])
                return original(*args, **kwargs)

            monkeypatch.setattr(module, attr, wrapper)

        spy(pipeline, "make_synthetic_dataset", lambda *a: "data")
        spy(pipeline, "make_dense_model", lambda *a: "model_init")
        spy(pipeline, "run_training",
            lambda model, *a: "moe_batches:cluster" if model.moe_sites else "dense_batches")
        spy(upcycle, "capture_activations", lambda *a: "calibration")
        spy(pipeline, "upcycle_model", lambda dense, method, *a: f"upcycle:{method}")
        for argv in (("train-dense",), ("capture",), ("upcycle", "--method", "cluster"),
                     ("train-moe", "--method", "cluster", "--eesd")):
            assert run("--config", cfg_path, *argv) == 0

        assert all(len(seeds) == 1 for seeds in drawn.values()), drawn
        for name in ("dense.ckpt", "bank.ckpt", "moe_cluster.ckpt", "moe_cluster_trained.ckpt"):
            recorded = dict(load_checkpoint(out / name).seeds)
            assert recorded.pop("root") == 3
            for stream, seed in recorded.items():
                assert drawn.get(stream) == {seed}, (name, stream)
        assert set(recorded) == set(drawn)


class TestErrors:
    def test_missing_upstream_artifact(self, workspace, capsys):
        cfg_path, _ = workspace
        code = run("--config", cfg_path, "capture")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingArtifact"
        assert "train-dense" in err["message"]

    def test_config_validation_failure(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("moe: {k: 99}\n")
        code = run("--config", cfg_path, "train-dense")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        cfg_path.write_text("train: {lr: .inf}\n")
        assert run("--config", cfg_path, "train-dense") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ConfigError", "message": "train.lr must be finite, got inf"}

    def test_missing_config_file(self, tmp_path, capsys):
        code = run("--config", tmp_path / "nope.yaml", "train-dense")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("case", ["out_dir_is_a_file", "config_is_a_directory",
                                      "checkpoint_is_a_directory"])
    def test_os_error_reports_json(self, workspace, tmp_path, capsys, case):
        # Any OSError on a named path, not only a missing file, exits 2 with
        # one JSON line.
        cfg_path, _ = workspace
        argv, error = {
            "out_dir_is_a_file": (("--out-dir", cfg_path, "train-dense"), "FileExistsError"),
            "config_is_a_directory": (("train-dense",), "IsADirectoryError"),
            "checkpoint_is_a_directory": (("analyze", "--checkpoint", tmp_path),
                                          "IsADirectoryError"),
        }[case]
        config = tmp_path if case == "config_is_a_directory" else cfg_path
        assert run("--config", config, *argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == error

    def test_non_finite_loss_reports_json(self, tmp_path, capsys, recwarn):
        out = tmp_path / "runs"
        cfg_path = tmp_path / "diverge.yaml"
        cfg_path.write_text(SMALL_CFG.format(out=out, tau=0.95)
                            .replace("lr: 0.05", "lr: 10000.0"))
        code = run("--config", cfg_path, "train-dense")
        assert code == 2
        # The error JSON is the last stderr line (overflow warnings may precede it).
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "NonFiniteLoss"

    def test_truncated_checkpoint_reports_json(self, workspace, capsys):
        cfg_path, out = workspace
        for argv in (("train-dense",), ("capture",), ("upcycle", "--method", "cluster")):
            assert run("--config", cfg_path, *argv) == 0
        ckpt = out / "moe_cluster.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:100])
        capsys.readouterr()
        assert run("--config", cfg_path, "train-moe", "--method", "cluster") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"
        # A checkpoint of the wrong kind is reported the same way.
        assert run("--config", cfg_path, "analyze", "--checkpoint", out / "bank.ckpt") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"

    def test_out_of_range_structure_reports_json(self, workspace, capsys):
        cfg_path, out = workspace
        for argv in (("train-dense",), ("capture",), ("upcycle", "--method", "cluster")):
            assert run("--config", cfg_path, *argv) == 0
        path = out / "moe_cluster.ckpt"
        ckpt = load_checkpoint(path)
        ckpt.config["moe"]["k"] = 9
        save_checkpoint(path, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds,
                        extra=ckpt.extra)
        capsys.readouterr()
        assert run("--config", cfg_path, "train-moe", "--method", "cluster") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"
        assert "moe.k is 9 there and 2 here" in err["message"]

    def test_oversized_yaml_integer_reports_json(self, tmp_path, capsys):
        # Past Python's 4300-digit limit, PyYAML's int constructor raises ValueError.
        cfg_path = tmp_path / "huge.yaml"
        cfg_path.write_text("train: {lr: " + "1" * 5000 + "}\n")
        assert run("--config", cfg_path, "train-dense") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("name,mutate,argv", [
        ("bank.ckpt",
         lambda tensors, extra: tensors.update({"siteX.activations": tensors.popitem()[1]}),
         ("upcycle", "--method", "cluster")),
        ("moe_cluster_trained.ckpt",
         lambda tensors, extra: tensors.update(head=tensors["head"][0]), ("analyze",)),
        ("moe_cluster_trained.ckpt",
         lambda tensors, extra: tensors.update({"block1.router": tensors["block1.router"].T}),
         ("analyze",)),
        # Finite values whose Gram over the tokens overflows.
        ("bank.ckpt",
         lambda tensors, extra: tensors.update({k: v * 1e200 for k, v in tensors.items()}),
         ("upcycle", "--method", "cluster")),
    ], ids=["bank-site-name", "head-1d", "router-transposed", "bank-gram-overflow"])
    def test_malformed_metadata_reports_json(self, trained_workspace, capsys,
                                             name, mutate, argv):
        cfg_path, out = trained_workspace
        path = out / name
        ckpt = load_checkpoint(path)
        mutate(ckpt.tensors, ckpt.extra)
        save_checkpoint(path, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds,
                        extra=ckpt.extra)
        if argv == ("analyze",):
            argv += ("--checkpoint", path)
        capsys.readouterr()
        assert run("--config", cfg_path, *argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"

    def test_zeroed_expert_reports_json(self, trained_workspace, capsys):
        # analyze's weight similarity divides by each expert's norm.
        cfg_path, out = trained_workspace
        path = out / "moe_cluster.ckpt"
        ckpt = load_checkpoint(path)
        for key in ("w1", "b1", "w2", "b2"):
            ckpt.tensors[f"block1.expert2.{key}"][...] = 0.0
        save_checkpoint(path, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds,
                        extra=ckpt.extra)
        capsys.readouterr()
        assert run("--config", cfg_path, "analyze", "--checkpoint", path) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ZeroWeights", "message": "expert 2 has zero parameter norm"}

    def test_bank_without_moe_site_reports_json(self, trained_workspace, capsys):
        cfg_path, out = trained_workspace
        path = out / "bank.ckpt"
        ckpt = load_checkpoint(path)
        ckpt.tensors["site5.activations"] = ckpt.tensors.pop("site3.activations")
        save_checkpoint(path, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds,
                        extra=ckpt.extra)
        capsys.readouterr()
        assert run("--config", cfg_path, "upcycle", "--method", "cluster") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"
        assert "no activations for MoE site 3" in err["message"]

    def test_bank_with_wrong_row_count_reports_json(self, trained_workspace, capsys):
        cfg_path, out = trained_workspace
        path = out / "bank.ckpt"
        ckpt = load_checkpoint(path)
        ckpt.tensors["site3.activations"] = ckpt.tensors["site3.activations"][:5]
        save_checkpoint(path, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds,
                        extra=ckpt.extra)
        capsys.readouterr()
        assert run("--config", cfg_path, "upcycle", "--method", "cluster") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"
        assert "site 3" in err["message"]
        assert "(5, " in err["message"] and "expected 8 rows" in err["message"]

    @pytest.mark.parametrize("extra", ["site2.activations", "block1.router"])
    def test_bank_with_extra_tensor_reports_json(self, trained_workspace, capsys, extra):
        # Like a model checkpoint, a bank holds its config's tensors and no other.
        cfg_path, out = trained_workspace
        path = out / "bank.ckpt"
        ckpt = load_checkpoint(path)
        ckpt.tensors[extra] = ckpt.tensors["site1.activations"][:, :4]
        save_checkpoint(path, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds,
                        extra=ckpt.extra)
        capsys.readouterr()
        assert run("--config", cfg_path, "upcycle", "--method", "cluster") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"
        assert f"tensor {extra!r} is not in that bank" in err["message"]

    @pytest.mark.parametrize("name,tensor,where,value,argv,error,message", [
        ("bank.ckpt", "site1.activations", (0, 0), np.nan, ("upcycle", "--method", "cluster"),
         "CheckpointError", "'site1.activations'"),
        ("dense.ckpt", "block1.w1", (0, 0), np.inf, ("upcycle", "--method", "drop-svd"),
         "CheckpointError", "'block1.w1'"),
        ("dense.ckpt", "block1.w1", (0, 0), np.inf, ("upcycle", "--method", "cluster"),
         "CheckpointError", "'block1.w1'"),
        ("dense.ckpt", "block1.w1", (0, 0), np.inf, ("upcycle", "--method", "sparse"),
         "CheckpointError", "'block1.w1'"),
        ("dense.ckpt", "block1.w1", (0, 0), np.inf, ("capture",),
         "CheckpointError", "'block1.w1'"),
        # A zero w1 whitens to a zero matrix, whose spectrum has no energy.
        ("dense.ckpt", "block1.w1", ..., 0.0, ("upcycle", "--method", "cluster"),
         "AllZeroSpectrum", "all singular values are zero"),
        # Identical activations leave clustering's PCA no variance.
        ("bank.ckpt", "site1.activations", ..., 1.0, ("upcycle", "--method", "cluster"),
         "DegenerateData", "all columns identical; covariance is zero"),
    ], ids=["bank-nan-cluster", "dense-inf-drop-svd", "dense-inf-cluster",
            "dense-inf-sparse", "dense-inf-capture", "dense-zero-cluster",
            "bank-constant-cluster"])
    def test_bad_tensor_values_report_json(self, trained_workspace, capsys, name, tensor,
                                           where, value, argv, error, message):
        cfg_path, out = trained_workspace
        path = out / name
        ckpt = load_checkpoint(path)
        ckpt.tensors[tensor][where] = value
        save_checkpoint(path, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds,
                        extra=ckpt.extra)
        capsys.readouterr()
        assert run("--config", cfg_path, *argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == error
        assert message in err["message"]

    def test_model_dim_unlike_config_reports_json(self, workspace, capsys):
        # Stages read the model's dimensions from its checkpoint and the
        # data's from the config; a checkpoint made under another model.d is
        # refused before its model meets data of the wrong width.
        cfg_path, out = workspace
        assert run("--config", cfg_path, "train-dense") == 0
        cfg_path.write_text(cfg_path.read_text().replace("d: 8,", "d: 6,"))
        capsys.readouterr()
        assert run("--config", cfg_path, "capture") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "CheckpointError", "message":
                       f"{out / 'dense.ckpt'} was made under another model config: "
                       "model.d is 8 there and 6 here"}

    def test_analyze_model_dim_unlike_config_reports_json(self, workspace, capsys):
        # analyze compares configs too, so a checkpoint made under another
        # model.d is refused before its model meets data of the wrong width.
        cfg_path, out = workspace
        assert run("--config", cfg_path, "train-dense") == 0
        cfg_path.write_text(cfg_path.read_text().replace("d: 8,", "d: 6,"))
        capsys.readouterr()
        assert run("--config", cfg_path, "analyze", "--checkpoint", out / "dense.ckpt") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "CheckpointError", "message":
                       f"{out / 'dense.ckpt'} was made under another model config: "
                       "model.d is 8 there and 6 here"}

    def test_config_unlike_own_model_reports_json(self, workspace, capsys):
        # A checkpoint whose recorded config does not describe its own model
        # passes the config check, and is refused before its model meets data
        # of another width.
        cfg_path, out = workspace
        assert run("--config", cfg_path, "train-dense") == 0
        cfg_path.write_text(cfg_path.read_text().replace("d: 8,", "d: 6,"))
        path = out / "dense.ckpt"
        ckpt = load_checkpoint(path)
        save_checkpoint(path, ckpt.tensors, config=pipeline.config_snapshot(load_config(cfg_path)),
                        seeds=ckpt.seeds, extra=ckpt.extra)
        capsys.readouterr()
        assert run("--config", cfg_path, "capture") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "CheckpointError", "message":
                       f"{path} holds a model unlike the one its config describes: "
                       "tensor 'head' has shape (2, 8) there and (2, 6) here"}

    @pytest.mark.parametrize("command", ["train-moe", "analyze"])
    @pytest.mark.parametrize("moe,message", [
        ("n_experts: 8, k: 3", "moe.n_experts is 4 there and 8 here"),
        ("n_experts: 4, k: 3", "moe.k is 2 there and 3 here"),
    ], ids=["n_experts", "k"])
    def test_moe_unlike_config_reports_json(self, workspace, capsys, command, moe, message):
        # An MoE checkpoint's recorded n_experts and k must be the running
        # ones; without that check, train-moe exits 0 and saves 4 experts
        # under a config that records another count.
        cfg_path, out = workspace
        for argv in (("train-dense",), ("upcycle", "--method", "sparse")):
            assert run("--config", cfg_path, *argv) == 0
        cfg_path.write_text(cfg_path.read_text().replace("n_experts: 4, k: 2", moe))
        path = out / "moe_sparse.ckpt"
        argv = {"train-moe": ("train-moe", "--method", "sparse"),
                "analyze": ("analyze", "--checkpoint", path)}[command]
        capsys.readouterr()
        assert run("--config", cfg_path, *argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "CheckpointError", "message":
                       f"{path} was made under another moe config: {message}"}
        assert sorted(p.name for p in out.iterdir()) == [
            "dense.ckpt", "dense_log.jsonl", "init_report_sparse.json", "moe_sparse.ckpt"]

    def test_input_made_under_other_config_reports_json(self, workspace, capsys):
        # Without the check, both stages exit 0 and mix the two configs.
        cfg_path, out = workspace
        text = cfg_path.read_text().replace("seed: 3", "seed: 0")
        cfg_path.write_text(text)
        assert run("--config", cfg_path, "train-dense") == 0
        cfg_path.write_text(text.replace("seed: 0", "seed: 1").replace("h: 12", "h: 20"))
        for argv in (("capture",), ("upcycle", "--method", "cluster")):
            capsys.readouterr()
            assert run("--config", cfg_path, *argv) == 2, argv
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err == {"error": "CheckpointError", "message":
                           f"{out / 'dense.ckpt'} was made under another model config: "
                           "model.h is 12 there and 20 here"}, argv
        assert sorted(path.name for path in out.iterdir()) == ["dense.ckpt", "dense_log.jsonl"]

    @pytest.mark.parametrize("stale,argv", [
        ("bank.ckpt", ("upcycle", "--method", "cluster")),
        ("moe_sparse.ckpt", ("train-moe", "--method", "sparse")),
    ])
    def test_stale_input_reports_json(self, workspace, capsys, stale, argv):
        # Every input made under data.seed 3 except ``stale``, made under 4.
        cfg_path, out = workspace
        text = cfg_path.read_text()
        cfg_path.write_text(text.replace("seed: 3", "seed: 4"))
        assert run("--config", cfg_path, "train-dense") == 0
        assert run("--config", cfg_path, "capture") == 0
        assert run("--config", cfg_path, "upcycle", "--method", "sparse") == 0
        cfg_path.write_text(text)
        assert run("--config", cfg_path, "train-dense") == 0
        capsys.readouterr()
        assert run("--config", cfg_path, *argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "CheckpointError", "message":
                       f"{out / stale} was made under another data config: "
                       "data.seed is 4 there and 3 here"}

    @pytest.mark.parametrize("target", ["config", "checkpoint"])
    def test_deeply_nested_input_reports_json(self, workspace, capsys, target):
        # The YAML and JSON parsers raise RecursionError on deep nesting.
        cfg_path, out = workspace
        if target == "config":
            cfg_path.write_text("train: " + "[" * 5000 + "]" * 5000 + "\n")
            argv, error = ("train-dense",), "ConfigError"
        else:
            out.mkdir()
            payload = b"[" * 100000 + b"]" * 100000
            (out / "dense.ckpt").write_bytes(
                b"CKP1" + struct.pack("<Q", len(payload)) + payload)
            argv, error = ("capture",), "CheckpointError"
        assert run("--config", cfg_path, *argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == error
        assert "recursion" in err["message"]

    @pytest.mark.parametrize("seeds", [0, -2])
    def test_compare_without_seeds_reports_json(self, workspace, capsys, seeds):
        cfg_path, out = workspace
        assert run("--config", cfg_path, "compare", "--seeds", seeds) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ConfigError", "message": f"--seeds must be >= 1, got {seeds}"}
        assert not (out / "compare.csv").exists()

    @pytest.mark.parametrize("edits,argvs,error", [
        ({"model: {d: 8, h: 12, blocks: 4,": "model: {d: 2, h: 4, blocks: 2,",
          "n_clusters: 4, separation: 3.0": "n_clusters: 8, separation: 100.0"},
         [("train-dense",)], "SeparationInfeasible"),
        ({"token_cap: 256": "token_cap: 4", "n_experts: 4": "n_experts: 8"},
         [("train-dense",), ("capture",), ("upcycle", "--method", "cluster")],
         "InsufficientData"),
        # One expert has no inter-expert similarity for analyze and compare.
        ({"n_experts: 4, k: 2": "n_experts: 1, k: 1"}, [("train-dense",)], "ConfigError"),
        # One block has no MoE site to analyze or compare.
        ({"blocks: 4,": "blocks: 1,"}, [("compare", "--seeds", "1")], "ConfigError"),
        # In one dimension the bank holds two directions, too few for four
        # experts' clusters.
        ({"d: 8,": "d: 1,", "n_clusters: 4,": "n_clusters: 2,"},
         [("train-dense",), ("capture",), ("upcycle", "--method", "cluster")],
         "InsufficientData"),
    ], ids=["separation-infeasible", "insufficient-data", "one-expert", "one-block",
            "too-few-directions"])
    def test_error_class_reports_json(self, tmp_path, capsys, edits, argvs, error):
        text = SMALL_CFG.format(out=tmp_path / "runs", tau=0.95)
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text)
        *setup, failing = argvs
        for argv in setup:
            assert run("--config", cfg_path, *argv) == 0
        capsys.readouterr()
        assert run("--config", cfg_path, *failing) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == error

    def test_output_dir_env_ignored(self, workspace, tmp_path, capsys, monkeypatch):
        # --out-dir and the config's output_dir set the output directory; the
        # environment does not.
        cfg_path, out = workspace
        other = tmp_path / "elsewhere"
        monkeypatch.setenv("CLUSTERUP_OUTPUT_DIR", str(other))
        assert run("--config", cfg_path, "train-dense") == 0
        assert (out / "dense.ckpt").exists()
        assert not other.exists()


class TestCompareWorkers:
    """``compare`` runs its cells over one process per usable CPU through
    ``workers.split_map``'s fork map; there is no process pool."""

    def _compare_bytes(self, cfg_path, out, monkeypatch, workers, *flags):
        monkeypatch.setattr(clusterup.workers, "usable_cpus", lambda: workers)
        target = out / f"workers{workers}"
        assert run("--config", cfg_path, "--out-dir", target,
                   "compare", "--seeds", "2", *flags) == 0
        return (target / "compare.csv").read_bytes()

    @pytest.mark.parametrize("eesd", [(), ("--eesd",)], ids=["plain", "eesd"])
    def test_rows_independent_of_worker_count(self, workspace, monkeypatch, capsys, eesd):
        cfg_path, out = workspace
        written = [self._compare_bytes(cfg_path, out, monkeypatch, workers, *eesd)
                   for workers in (1, 2)]
        assert written[0] == written[1]

    @staticmethod
    def _diverge(monkeypatch, fails):
        """Make the cells for which ``fails(cfg, method)`` holds raise
        ``NonFiniteLoss``; the forked children inherit the patch."""
        train_moe = pipeline.train_moe

        def diverge(cfg, model, method, eesd, log_fn=None):
            if fails(cfg, method):
                raise NonFiniteLoss(f"seed {cfg.root_seed}: {method} diverged")
            return train_moe(cfg, model, method, eesd, log_fn)

        monkeypatch.setattr(pipeline, "train_moe", diverge)

    def test_worker_error_reports_json(self, workspace, monkeypatch, capsys):
        # Every drop_svd cell fails in every process; with 1 and 2 workers
        # the error is the one a one-process run meets first.
        cfg_path, out = workspace
        self._diverge(monkeypatch, lambda cfg, method: method == "drop_svd")
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(clusterup.workers, "usable_cpus", lambda n=workers: n)
            assert run("--config", cfg_path, "compare", "--seeds", "2") == 2
            errors.append(json.loads(capsys.readouterr().err.strip().splitlines()[-1]))
        assert errors[0] == errors[1] == {
            "error": "NonFiniteLoss", "message": "seed 3: drop_svd diverged"}
        assert not (out / "compare.csv").exists()

    def test_cell_failing_only_in_a_child_reruns_here(self, workspace, monkeypatch, capsys):
        # drop_svd cells raise only outside this process. The child's share
        # is seed 3's and seed 4's drop and drop_svd cells: it finishes seed
        # 3's drop cell and fails at its drop_svd cell. Only the cells no
        # process finished rerun here: the run succeeds with the one-process
        # bytes, this process ran every drop_svd cell, and it did not run
        # seed 3's drop cell again.
        cfg_path, out = workspace
        expected = self._compare_bytes(cfg_path, out, monkeypatch, 1)
        parent, seen = os.getpid(), []

        def fails_in_child(cfg, method):
            if os.getpid() != parent:
                return method == "drop_svd"
            seen.append((cfg.root_seed, method))
            return False

        self._diverge(monkeypatch, fails_in_child)
        assert self._compare_bytes(cfg_path, out, monkeypatch, 2) == expected
        assert [seed for seed, method in seen if method == "drop_svd"] == [3, 4]
        assert (3, "drop") not in seen

    def test_earlier_cell_failure_wins_over_parent_failure(self, workspace, monkeypatch, capsys):
        # Seed 4's pretraining fails in this process after seed 3's; seed
        # 3's cells then run, and as in one process its failed cell is the
        # error reported.
        cfg_path, _ = workspace
        self._diverge(monkeypatch, lambda cfg, method: (cfg.root_seed, method) == (3, "drop_svd"))
        pretrain = pipeline.train_dense

        def pretrain_fails_at_4(cfg, log_fn=None):
            if cfg.root_seed == 4:
                raise SeparationInfeasible("seed 4: pretraining failed")
            return pretrain(cfg, log_fn)

        monkeypatch.setattr(clusterup.workers, "usable_cpus", lambda: 2)
        monkeypatch.setattr(pipeline, "train_dense", pretrain_fails_at_4)
        assert run("--config", cfg_path, "compare", "--seeds", "2") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "NonFiniteLoss", "message": "seed 3: drop_svd diverged"}

    def test_cells_run_in_process_without_fork(self, workspace, monkeypatch, capsys):
        # Without sched_getaffinity (macOS, Windows) the CPU count caps the
        # workers; without os.fork (Windows) every cell runs in this process.
        cfg_path, out = workspace
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # Ignore the host's CPU quota.
        monkeypatch.setattr(clusterup.workers, "cpu_quota", lambda cgroup: None)
        assert clusterup.workers.usable_cpus() == 2
        monkeypatch.delattr(os, "fork")
        train_moe, pids = pipeline.train_moe, []

        def record_pid(cfg, model, method, eesd, log_fn=None):
            pids.append(os.getpid())
            return train_moe(cfg, model, method, eesd, log_fn)

        monkeypatch.setattr(pipeline, "train_moe", record_pid)
        assert run("--config", cfg_path, "compare", "--seeds", "1") == 0
        assert pids == [os.getpid()] * 4
        assert (out / "compare.csv").exists()


class TestGradcheckWorkers:
    """``gradcheck`` splits its samples over one process per usable CPU."""

    def test_bytes_independent_of_worker_count(self, workspace, monkeypatch, capsys):
        cfg_path, out = workspace
        written = []
        for workers in (1, 2):
            monkeypatch.setattr(clusterup.workers, "usable_cpus", lambda n=workers: n)
            target = out / f"workers{workers}"
            assert run("--config", cfg_path, "--out-dir", target, "gradcheck") == 0
            written.append((target / "gradcheck.json").read_bytes())
        assert written[0] == written[1]

    def test_one_usable_cpu_forks_nothing(self, workspace, monkeypatch, capsys):
        cfg_path, out = workspace
        forks = []

        def fork():
            forks.append(os.getpid())
            raise OSError("fork called")

        monkeypatch.setattr(clusterup.workers, "usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", fork)
        assert run("--config", cfg_path, "gradcheck") == 0
        assert forks == []
        assert (out / "gradcheck.json").exists()

    def test_sample_error_reports_json(self, workspace, monkeypatch, capsys):
        # Every perturbed pass raises, in the workers too; the error is the
        # one a one-process run reports.
        cfg_path, out = workspace
        forward = train.model_forward

        def diverge(model, x, capacity_factor=None, *, base=None, start=0, expert=None,
                    on_input=None):
            if base is not None:
                raise NonFiniteLoss(f"pass resumed at block {start}, expert {expert}")
            return forward(model, x, capacity_factor, on_input=on_input)

        monkeypatch.setattr(train, "model_forward", diverge)
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(clusterup.workers, "usable_cpus", lambda n=workers: n)
            assert run("--config", cfg_path, "gradcheck") == 2
            errors.append(json.loads(capsys.readouterr().err.strip().splitlines()[-1]))
        assert errors[0] == errors[1] == {
            "error": "NonFiniteLoss", "message": "pass resumed at block 4, expert None"}
        assert not (out / "gradcheck.json").exists()


class TestTrainMoeWorkers:
    """``train-moe --eesd`` runs the teacher's ensemble in one forked replica
    when a second CPU is usable."""

    OUTPUTS = ("moe_cluster_trained.ckpt", "train_log_cluster.jsonl")

    @staticmethod
    def _train_moe(cfg_path, monkeypatch, workers, fork):
        monkeypatch.setattr(clusterup.workers, "usable_cpus", lambda: workers)
        monkeypatch.setattr(os, "fork", fork)
        assert run("--config", cfg_path, "train-moe", "--method", "cluster", "--eesd") == 0

    def test_bytes_independent_of_worker_count(self, workspace, monkeypatch, capsys):
        cfg_path, out = workspace
        for argv in (("train-dense",), ("capture",), ("upcycle", "--method", "cluster")):
            assert run("--config", cfg_path, *argv) == 0
        fork, forks, written = os.fork, [], []

        def recorded_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        for workers in (1, 2):
            self._train_moe(cfg_path, monkeypatch, workers, recorded_fork)
            written.append([(out / name).read_bytes() for name in self.OUTPUTS])
            assert len(forks) == workers - 1
        assert written[0] == written[1]

    def test_one_usable_cpu_forks_nothing(self, workspace, monkeypatch, capsys):
        cfg_path, out = workspace
        for argv in (("train-dense",), ("capture",), ("upcycle", "--method", "cluster")):
            assert run("--config", cfg_path, *argv) == 0
        forks = []

        def fork():
            forks.append(os.getpid())
            raise OSError("fork called")

        self._train_moe(cfg_path, monkeypatch, 1, fork)
        assert forks == []
        assert all((out / name).exists() for name in self.OUTPUTS)


@pytest.mark.parametrize("files,expected", [
    ({}, 8),
    ({"cpu.max": "max 100000\n"}, 8),
    ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "20000 100000\n"}, 1),
    ({"cpu.max": "2000000 100000\n"}, 8),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 8),
    ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
    ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
    ({"cpu/cpu.cfs_quota_us": "50000\n"}, 8),
    ({"cpu.max": "garbage\n"}, 8),
], ids=["none", "v2-max", "v2-1.5", "v2-0.2", "v2-20", "v1-unlimited", "v1-2.5",
        "v1-0.5", "v1-no-period", "v2-unreadable"])
def test_usable_cpus_capped_by_cgroup_quota(tmp_path, monkeypatch, files, expected):
    # Eight CPUs in the affinity mask; the quota, rounded up, caps them.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert clusterup.workers.usable_cpus(tmp_path) == expected


def _json_paths(node, path=()):
    """The path (keys and indices) to every value below the root of a JSON tree."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON_VALUES = (JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)
               | st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=3))


class TestManifestFuzz:
    """Replacing or deleting one manifest value of a real checkpoint either
    loads or raises ``CheckpointError``; a model that loads also runs."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_manifest_loads_or_raises_checkpoint_error(self, trained_artifacts, data):
        name = data.draw(st.sampled_from(["moe_cluster_trained.ckpt", "bank.ckpt"]))
        raw = (trained_artifacts / name).read_bytes()
        (length,) = struct.unpack("<Q", raw[4:12])
        manifest, blob = json.loads(raw[12:12 + length]), raw[12 + length:]
        paths = list(_json_paths(manifest))
        metadata = [path for path in paths if path[0] == "extra"]
        *parents, key = data.draw(st.sampled_from(metadata) | st.sampled_from(paths))
        node = functools.reduce(operator.getitem, parents, manifest)
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES)
        payload = json.dumps(manifest).encode()
        path = trained_artifacts.parent / "mutated.ckpt"
        path.write_bytes(raw[:4] + struct.pack("<Q", len(payload)) + payload + blob)
        try:
            cfg = load_config(trained_artifacts.parent / "cfg.yaml")
            if name == "bank.ckpt":
                pipeline.load_bank(path, cfg)
                return
            model = load_model_checkpoint(path, cfg)
        except CheckpointError:
            return
        train.model_forward(model, np.ones((model.input_dim, 5)))
