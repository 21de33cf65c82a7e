"""Outside-in tracing of clusterup's layers, and the per-layer metrics.

``Tracer.installed()`` replaces layer functions at the module attributes their
callers look them up through (``clusterup.train.moe_backward``,
``clusterup.moe._route``, ``clusterup.pipeline.save_checkpoint``, ...) with
wrappers that record one span per call and return the wrapped result
unchanged. Nothing in the package is edited, and the originals are put back
when the block exits, so untraced operations run the plain code.

A span is ``[name, start_ns, end_ns, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``op`` is the identifier
shared by every span of one operation. Spans stay in memory until
``write_spans`` stores them as JSON lines; ``merged_metrics`` computes the
per-layer numbers from that file.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
from collections import defaultdict

# (module, attribute, span name). Each attribute is the name the caller looks
# the function up by at call time, so every call made through it is seen.
TRACE_POINTS = (
    ("clusterup.cli", "load_config", "config.load"),
    ("clusterup.pipeline", "run_train_dense", "pipeline.run_train_dense"),
    ("clusterup.pipeline", "run_capture", "pipeline.run_capture"),
    ("clusterup.pipeline", "run_upcycle", "pipeline.run_upcycle"),
    ("clusterup.pipeline", "run_train_moe", "pipeline.run_train_moe"),
    ("clusterup.pipeline", "run_gradcheck", "pipeline.run_gradcheck"),
    ("clusterup.pipeline", "run_compare", "pipeline.run_compare"),
    ("clusterup.pipeline", "compare_run", "pipeline.compare_run"),
    ("clusterup.pipeline", "save_checkpoint", "checkpoint.save"),
    ("clusterup.pipeline", "load_checkpoint", "checkpoint.load"),
    ("clusterup.pipeline", "run_training", "train.run_training"),
    ("clusterup.pipeline", "grad_check", "train.grad_check"),
    ("clusterup.pipeline", "evaluate", "train.evaluate"),
    ("clusterup.pipeline", "analyze_model", "analysis.analyze_model"),
    ("clusterup.pipeline", "upcycle_model", "upcycle.upcycle_model"),
    ("clusterup.upcycle", "capture_activations", "upcycle.capture"),
    ("clusterup.upcycle", "model_forward", "train.model_forward"),
    ("clusterup.upcycle", "whitening_matrix", "upcycle.whitening"),
    ("clusterup.upcycle", "cholesky_lower", "linalg.cholesky"),
    ("clusterup.upcycle", "spherical_kmeans", "clustering.spherical_kmeans"),
    ("clusterup.upcycle", "svd_full", "linalg.svd"),
    ("clusterup.upcycle", "pca_fit_transform", "linalg.pca"),
    ("clusterup.linalg", "svd_full", "linalg.svd"),
    ("clusterup.train", "train_step", "train.step"),
    ("clusterup.train", "total_loss", "train.total_loss"),
    ("clusterup.train", "model_forward", "train.model_forward"),
    ("clusterup.train", "moe_forward_cached", "moe.forward"),
    ("clusterup.train", "moe_backward", "moe.backward"),
    ("clusterup.train", "teacher_forward", "distill.teacher_forward"),
    ("clusterup.train", "ema_update", "distill.ema_update"),
    ("clusterup.moe", "_route", "moe.route"),
    ("clusterup.moe", "ffn_forward_cached", "moe.ffn_forward"),
)


def _attrs_run_training(args, kwargs, result):
    return {"moe": bool(args[0].moe_sites)}


def _attrs_upcycle(args, kwargs, result):
    return {"method": args[1]}


def _attrs_kmeans(args, kwargs, result):
    # One objective value per assignment pass: the initial one plus one per
    # centroid update, empty-cluster repairs included.
    return {"iters": len(result.objective_trace) - 1}


def _attrs_grad_check(args, kwargs, result):
    return {"checked": result["checked"], "skipped": result["skipped"]}


def _attrs_save(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _attrs_moe_forward(args, kwargs, result):
    layer, dropped = args[0], result[1].dropped
    return {
        "selected": int(dropped.size),
        "kept": int(dropped.size - dropped.sum()),
        "d": layer.d,
        "h": layer.h,
    }


ATTRS = {
    "train.run_training": _attrs_run_training,
    "upcycle.upcycle_model": _attrs_upcycle,
    "clustering.spherical_kmeans": _attrs_kmeans,
    "train.grad_check": _attrs_grad_check,
    "checkpoint.save": _attrs_save,
    "moe.forward": _attrs_moe_forward,
}


class Tracer:
    """In-memory span recorder for one single-threaded caller."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attrs_fn = ATTRS.get(name)

        def traced(*args, **kwargs):
            index, parent = len(spans), stack[-1] if stack else -1
            spans.append(None)  # keeps start order; filled in when the call ends
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # A tuple of atoms drops out of the cyclic collector's scans;
                # lists here made traced gradcheck operations ~20% slower.
                spans[index] = (name, start, end, parent, self.op, None)
            if attrs_fn is not None:
                spans[index] = spans[index][:5] + (attrs_fn(args, kwargs, result),)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op: str):
        """Trace every TRACE_POINTS call made inside the block as ``op``."""
        self.op = op
        originals = []
        try:
            for module_name, attr, name in TRACE_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)
            self.op = None


def write_spans(path, spans, header: dict) -> None:
    """One JSON header line, then one JSON array per span in start order."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for record in spans:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_spans(path) -> tuple[dict, list[tuple]]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _timing(values, scale):
    """p50 (and p99 when at least ten samples lie beyond it) in the unit."""
    out = {"n": len(values), "value": 0.0}
    if values:
        scaled = sorted(v / scale for v in values)
        out["value"] = statistics.median(scaled)
        if len(scaled) >= 1000:
            out["p99"] = statistics.quantiles(scaled, n=100)[98]
    return out


def _count(value, n):
    return {"n": n, "value": value}


def _ratio(num, den):
    return num / den if den else 0.0


def _child_ns(spans: list[tuple]) -> list[int]:
    """Time each span's children cover; children of one caller never overlap."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return child_ns


def _split_name(spans: list[tuple], i: int) -> str:
    """Span name for the self-time split; teacher FFN calls get their own."""
    name, parent = spans[i][0], spans[i][3]
    if name == "moe.ffn_forward" and parent >= 0 and spans[parent][0] != "moe.forward":
        return "distill.teacher_ffn_forward"
    return "unattributed" if name == "cli.main" else name


def layer_metrics(spans: list[tuple], ops: set[str]) -> dict:
    """Every per-layer metric over the spans of ``ops``, as {name: {value, n, unit}}.

    Timings are per call; counts "per operation" are low medians over
    ``ops``, so they stay whole numbers.
    """
    child_ns = _child_ns(spans)
    picked = [i for i, s in enumerate(spans) if s[4] in ops]
    dur = defaultdict(list)     # name -> durations (ns)
    self_ns = defaultdict(list)
    for i in picked:
        name, start, end = spans[i][:3]
        dur[name].append(end - start)
        self_ns[name].append(end - start - child_ns[i])

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    student_ffn = [spans[i][2] - spans[i][1] for i in picked
                   if spans[i][0] == "moe.ffn_forward" and parent_name(i) == "moe.forward"]
    moe_fwd = [spans[i][5] for i in picked if spans[i][0] == "moe.forward"]
    flops_per_forward = defaultdict(int)  # model_forward index -> expert FLOPs
    forwards_per_op = defaultdict(int)
    kmeans_iters_per_op = defaultdict(int)
    by_kind = defaultdict(list)
    init_by_method = defaultdict(list)
    checks, saves = [], []
    for i in picked:
        name, start, end, parent, op, a = spans[i]
        if name == "moe.forward" and parent_name(i) == "train.model_forward":
            # Two GEMMs of 2*d*h FLOPs per kept token-slot; biases and ReLU omitted.
            flops_per_forward[parent] += 4 * a["d"] * a["h"] * a["kept"]
        elif name == "train.model_forward":
            forwards_per_op[op] += 1
        elif name == "clustering.spherical_kmeans":
            kmeans_iters_per_op[op] += a["iters"]
        elif name == "train.run_training":
            by_kind["moe" if a["moe"] else "dense"].append(end - start)
        elif name == "upcycle.upcycle_model":
            init_by_method[a["method"]].append(end - start)
        elif name == "train.grad_check":
            checks.append(a)
        elif name == "checkpoint.save":
            saves.append(a["bytes"])
    n_whiten = len(dur["upcycle.whitening"])

    us, ms, s_ = 1e3, 1e6, 1e9
    m = {
        "moe.route_us": _timing(dur["moe.route"], us),
        "moe.forward_self_us": _timing(self_ns["moe.forward"], us),
        "moe.ffn_forward_us": _timing(student_ffn, us),
        "moe.backward_us": _timing(dur["moe.backward"], us),
        "moe.ffn_calls_per_forward": _count(
            _ratio(len(student_ffn), len(moe_fwd)), len(moe_fwd)),
        "moe.kept_slot_ratio": _count(
            _ratio(sum(a["kept"] for a in moe_fwd), sum(a["selected"] for a in moe_fwd)),
            len(moe_fwd)),
        "moe.expert_flops_per_step": _count(
            statistics.median_low(flops_per_forward.values()) if flops_per_forward else 0,
            len(flops_per_forward)),
        "distill.teacher_forward_us": _timing(dur["distill.teacher_forward"], us),
        "distill.ema_update_us": _timing(dur["distill.ema_update"], us),
        "train.step_us": _timing(dur["train.step"], us),
        "train.sgd_self_us": _timing(self_ns["train.step"], us),
        "train.total_loss_self_us": _timing(self_ns["train.total_loss"], us),
        "train.model_forward_self_us": _timing(self_ns["train.model_forward"], us),
        "train.run_training_self_us": _timing(self_ns["train.run_training"], us),
        "train.forward_passes": _count(
            statistics.median_low(forwards_per_op.values()) if forwards_per_op else 0,
            len(forwards_per_op)),
        "train.grad_check_s": _timing(dur["train.grad_check"], s_),
        "train.gradcheck_checked_ratio": _count(
            _ratio(sum(c["checked"] for c in checks),
                   sum(c["checked"] + c["skipped"] for c in checks)), len(checks)),
        "train.evaluate_ms": _timing(dur["train.evaluate"], ms),
        "upcycle.capture_ms": _timing(dur["upcycle.capture"], ms),
        "upcycle.whitening_us": _timing(dur["upcycle.whitening"], us),
        "upcycle.cholesky_retries": _count(
            _ratio(len(dur["linalg.cholesky"]) - n_whiten, n_whiten), n_whiten),
        "clustering.kmeans_ms": _timing(dur["clustering.spherical_kmeans"], ms),
        "clustering.kmeans_iters": _count(
            statistics.median_low(kmeans_iters_per_op.values()) if kmeans_iters_per_op else 0,
            len(kmeans_iters_per_op)),
        "linalg.svd_us": _timing(dur["linalg.svd"], us),
        "linalg.pca_us": _timing(dur["linalg.pca"], us),
        "analysis.analyze_ms": _timing(dur["analysis.analyze_model"], ms),
        "checkpoint.save_ms": _timing(dur["checkpoint.save"], ms),
        "checkpoint.load_ms": _timing(dur["checkpoint.load"], ms),
        "checkpoint.bytes_per_save": _count(
            statistics.median_low(saves) if saves else 0, len(saves)),
        "pipeline.compare_cell_s": _timing(dur["pipeline.compare_run"], s_),
        "pipeline.dense_pretrain_s": _timing(by_kind["dense"], s_),
        "pipeline.train_moe_s": _timing(by_kind["moe"], s_),
        "pipeline.gradcheck_s": _timing(dur["pipeline.run_gradcheck"], s_),
    }
    for method in ("sparse", "drop", "drop_svd", "cluster"):
        m[f"upcycle.init_ms.{method}"] = _timing(init_by_method[method], ms)
    for name, entry in m.items():
        entry["unit"] = UNITS.get(name) or name.rsplit("_", 1)[-1]
    return m


# Units of the metrics whose name does not end in one.
UNITS = {
    "moe.ffn_calls_per_forward": "count",
    "moe.kept_slot_ratio": "ratio",
    "moe.expert_flops_per_step": "flop",
    "train.forward_passes": "count",
    "train.gradcheck_checked_ratio": "ratio",
    "upcycle.cholesky_retries": "ratio",
    "clustering.kmeans_iters": "count",
    "checkpoint.bytes_per_save": "B",
    **{f"upcycle.init_ms.{m}": "ms" for m in ("sparse", "drop", "drop_svd", "cluster")},
}


def merged_metrics(spans: list[tuple], ops: set[str]) -> dict:
    """Metrics over the workload ``ops``; a layer those ops never call is
    measured over the traced set-ups instead and marked ``"phase": "setup"``."""
    setup_ops = {s[4] for s in spans if s[4] not in ops}
    metrics = layer_metrics(spans, ops)
    for name, entry in layer_metrics(spans, setup_ops).items():
        if metrics[name]["n"] == 0 and entry["n"]:
            metrics[name] = {**entry, "phase": "setup"}
    return metrics


def self_time_split(spans: list[tuple], ops: set[str]) -> dict:
    """Self time per span name, summed over the spans of ``ops``, in seconds.

    ``unattributed`` is the root ``cli.main`` span's self time: the part of
    the operation outside every wrapped layer call.
    """
    child_ns = _child_ns(spans)
    split = defaultdict(float)
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        if op in ops:
            split[_split_name(spans, i)] += (end - start - child_ns[i]) / 1e9
    return dict(sorted(split.items(), key=lambda kv: -kv[1]))
