"""End-to-end CLI tests on a miniature configuration."""

import csv
import json
import shutil

import numpy as np
import pytest

from clusterup.cli import main
from clusterup.checkpoint import load_checkpoint, save_checkpoint
from clusterup import train
from clusterup.pipeline import (
    compare_row,
    compare_run,
    load_model_checkpoint,
    moe_path,
    run_analyze,
    run_compare,
)
from clusterup.config import load_config


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
        dense_model, _, _ = load_model_checkpoint(out / "dense.ckpt")
        moe_model, _, _ = load_model_checkpoint(moe_path(cfg, "cluster"))
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

    @pytest.mark.parametrize("eesd", [False, True])
    def test_compare_rows_match_single_cells(self, workspace, eesd):
        # compare pretrains and captures once per seed for all methods; each
        # row must equal the same cell run alone from scratch.
        cfg_path, out = workspace
        cfg = load_config(cfg_path)
        with open(run_compare(cfg, 2, eesd=eesd), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for row in rows:
            alone = compare_run(cfg, int(row["seed"]), row["method"], eesd)
            assert row == {k: str(v) for k, v in alone.items()}

    def test_one_forward_pass_per_evaluation(self, workspace, monkeypatch, capsys):
        cfg_path, _ = workspace
        for argv in (("train-dense",), ("capture",), ("upcycle", "--method", "cluster")):
            assert run("--config", cfg_path, *argv) == 0
        cfg = load_config(cfg_path)
        model, _, _ = load_model_checkpoint(moe_path(cfg, "cluster"))
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
        ckpt.extra["model"]["blocks"][1]["k"] = 9
        save_checkpoint(path, ckpt.tensors, config=ckpt.config, seeds=ckpt.seeds,
                        extra=ckpt.extra)
        capsys.readouterr()
        assert run("--config", cfg_path, "train-moe", "--method", "cluster") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"
        assert "k must lie in [1, 4], got 9" in err["message"]

    def test_oversized_yaml_integer_reports_json(self, tmp_path, capsys):
        # Past Python's 4300-digit limit, PyYAML's int constructor raises ValueError.
        cfg_path = tmp_path / "huge.yaml"
        cfg_path.write_text("train: {lr: " + "1" * 5000 + "}\n")
        assert run("--config", cfg_path, "train-dense") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("name,mutate,argv", [
        ("moe_cluster_trained.ckpt",
         lambda tensors, extra: extra["teacher"].pop("beta"), ("analyze",)),
        ("moe_cluster_trained.ckpt",
         lambda tensors, extra: extra["teacher"].update(step_counts=[0]), ("analyze",)),
        ("moe_cluster.ckpt",
         lambda tensors, extra: extra["model"].update(blocks=5), ("analyze",)),
        ("bank.ckpt",
         lambda tensors, extra: tensors.update({"siteX.activations": tensors.popitem()[1]}),
         ("upcycle", "--method", "cluster")),
        ("moe_cluster_trained.ckpt",
         lambda tensors, extra: tensors.update(head=tensors["head"][0]), ("analyze",)),
    ], ids=["teacher-without-beta", "step-counts-list", "blocks-int", "bank-site-name",
            "head-1d"])
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

    def test_output_dir_env_override(self, workspace, tmp_path, capsys, monkeypatch):
        cfg_path, out = workspace
        other = tmp_path / "elsewhere"
        monkeypatch.setenv("CLUSTERUP_OUTPUT_DIR", str(other))
        run("--config", cfg_path, "train-dense")
        assert (other / "dense.ckpt").exists()
        assert not (out / "dense.ckpt").exists()
