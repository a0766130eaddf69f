"""Span recorder for the traced benchmark run.

Spans are recorded from outside the library: :func:`install` replaces the
public entry points of each cpslearn module (the layers) with wrappers that
open a span around the original call, and :func:`uninstall` puts the
originals back. Nothing under ``src/`` knows about tracing.

A span is ``[name, start_ns, end_ns, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (or None) and ``op`` the id of the benchmark
operation it belongs to. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

import cpslearn.config
import cpslearn.dataset
import cpslearn.environments
import cpslearn.learners
import cpslearn.metrics
import cpslearn.remote
import cpslearn.strategies
import cpslearn.transforms

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0  # id of the traced operation in progress
        self.remote_frames = None  # [inputs, outputs, predictions] of the first remote op

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()

    def remote_frame_bytes(self) -> tuple[int, int]:
        """Computed length of the first op's fit request and prediction response lines."""
        if self.remote_frames is None:
            return 0, 0
        inputs, outputs, predictions = self.remote_frames
        up = {"kind": "fit", "inputs": _wire(inputs), "outputs": _wire(outputs)}
        down = {"kind": "prediction", "outputs": _wire(predictions)}
        return _frame_bytes(up), _frame_bytes(down)

    def dump(self, path, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "spans": [s[:ATTRS] for s in self.spans]}, fh)


def _wire(dataset) -> dict:
    return {name: dataset.column(name).tolist() for name in dataset.column_names}


def _frame_bytes(payload: dict) -> int:
    """Length of the JSON line the wire protocol sends for this payload."""
    return len(json.dumps(payload, allow_nan=False, separators=(",", ":")).encode("utf-8")) + 1


def _rows(dataset) -> int:
    return dataset.row_count


def _tree_shape(model) -> dict:
    nodes = leaves = depth = 0
    pending = [(model.root, 0)]
    while pending:
        node, level = pending.pop()
        nodes += 1
        depth = max(depth, level)
        if node.is_leaf:
            leaves += 1
        else:
            pending += [(node.left, level + 1), (node.right, level + 1)]
    return {"nodes": nodes, "leaves": leaves, "depth": depth}


def _sample_attrs(tracer, args, result) -> dict:
    ode, n = args[0], args[1]
    substeps = max(1, round(ode.sample_period / ode.substep))
    return {"rows": n, "steps": (n - 1) * substeps}


def _write_attrs(tracer, args, result) -> dict:
    report_path, model_path = result
    return {"report_bytes": os.path.getsize(report_path), "model_bytes": os.path.getsize(model_path)}


# The first remote op's payloads are kept; their JSON size is computed after the op.
def _remote_fit_attrs(tracer, args, result) -> dict:
    if tracer.remote_frames is None:
        tracer.remote_frames = [args[1], args[2], None]
    return {"rows": _rows(args[1])}


def _remote_predict_attrs(tracer, args, result) -> dict:
    if tracer.remote_frames is not None and tracer.remote_frames[2] is None:
        tracer.remote_frames[2] = result
    return {"rows": _rows(args[1])}


def _rows_of_arg0(tracer, args, result) -> dict:
    return {"rows": _rows(args[0])}


def _rows_of_arg1(tracer, args, result) -> dict:
    return {"rows": _rows(args[1])}


# Functions are patched in every cpslearn module that binds them, so a call
# is traced whichever module it is made from.
FUNCTIONS = [
    (cpslearn.config, "validate_config", "config.validate", None),
    (cpslearn.config, "run_config", "config.run_config", None),
    (cpslearn.config, "write_result", "config.write_result", _write_attrs),
    (cpslearn.dataset, "load_csv", "dataset.load_csv",
     lambda t, a, r: {"bytes": os.path.getsize(a[0]), "rows": _rows(r)}),
    (cpslearn.learners, "fit_tree", "learners.fit_tree", lambda t, a, r: {"rows": _rows(a[0]), **_tree_shape(r)}),
    (cpslearn.learners, "fit_linear", "learners.fit_linear", _rows_of_arg0),
    (cpslearn.strategies, "learn_offline", "strategies.learn_offline", None),
    (cpslearn.strategies, "learn_incremental", "strategies.learn_incremental", None),
    (cpslearn.strategies, "evaluate", "strategies.evaluate", None),
    (cpslearn.remote, "connect", "remote.connect", None),
]

METHODS = [
    (cpslearn.environments.OdeEnvironment, "sample_trajectory", "environments.sample_trajectory", _sample_attrs),
    (cpslearn.dataset.Dataset, "split", "dataset.split", _rows_of_arg0),
    (cpslearn.transforms.TransformChain, "fit", "transforms.fit", lambda t, a, r: {"rows_in": _rows(a[1])}),
    (cpslearn.transforms.TransformChain, "apply", "transforms.apply",
     lambda t, a, r: {"rows_in": _rows(a[1]), "rows_out": _rows(r)}),
    (cpslearn.learners.IncrementalLinearLearner, "update", "learners.rls_update", _rows_of_arg1),
    (cpslearn.learners.Model, "predict", "learners.predict", _rows_of_arg1),
    (cpslearn.remote.RemoteSession, "fit", "remote.fit", _remote_fit_attrs),
    (cpslearn.remote.RemoteModel, "predict", "remote.predict", _remote_predict_attrs),
    (cpslearn.remote.RemoteModel, "fetch", "remote.fetch", None),
]


def _wrap(tracer: Tracer, name: str, fn, attrs_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # Empty transform chains (the strategies' default) do no work;
        # spanning them would only add a span per streamed batch.
        if name.startswith("transforms.") and not args[0].transforms:
            return fn(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if attrs_of is not None:
            tracer.spans[index][ATTRS] = attrs_of(tracer, args, result)
        return result

    return traced


def _wrap_get_metric(tracer: Tracer, get_metric):
    @functools.wraps(get_metric)
    def traced_get_metric(name):
        return _wrap(tracer, f"metrics.{name}", get_metric(name), lambda t, a, r: {"values": len(a[0])})

    return traced_get_metric


def _rebind(modules, original, traced, patches: list) -> None:
    for module in modules:
        for bound, value in list(vars(module).items()):
            if value is original:
                patches.append((module, bound, original))
                setattr(module, bound, traced)


def install(tracer: Tracer) -> list:
    """Wrap every layer entry point in spans; returns what :func:`uninstall` needs."""
    patches: list = []
    modules = [m for n, m in sys.modules.items() if n == "cpslearn" or n.startswith("cpslearn.")]
    for home, attr, name, attrs_of in FUNCTIONS:
        original = getattr(home, attr)
        _rebind(modules, original, _wrap(tracer, name, original, attrs_of), patches)
    get_metric = cpslearn.metrics.get_metric
    _rebind(modules, get_metric, _wrap_get_metric(tracer, get_metric), patches)
    for cls, attr, name, attrs_of in METHODS:
        original = vars(cls)[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, name, original, attrs_of))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0, span[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Percent of traced operation time spent in each layer's own code."""
    totals: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[layer_of(span[NAME])] = totals.get(layer_of(span[NAME]), 0) + own
    whole = sum(totals.values()) or 1
    return {layer: 100.0 * t / whole for layer, t in sorted(totals.items(), key=lambda kv: -kv[1])}


def unattributed_pct(spans: list[list], walls: dict[int, int]) -> float:
    """Median over operations of the wall time not in any layer's self time."""
    layer_ns: dict[int, int] = {}
    for span, own in zip(spans, self_times(spans)):
        if span[NAME] != "bench.op":
            layer_ns[span[OP]] = layer_ns.get(span[OP], 0) + own
    gaps = [100.0 * (wall - layer_ns.get(op, 0)) / wall for op, wall in walls.items()]
    return statistics.median(gaps) if gaps else 0.0


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics; a layer the workload never calls reads 0."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, ())]

    def attr(name, key):
        return [spans[i][ATTRS][key] for i in by_name.get(name, ())]

    def med(values):
        return statistics.median(values) if values else 0

    def ms(name):
        return med(durations(name)) / 1e6

    def self_ms(name):
        return med([own[i] for i in by_name.get(name, ())]) / 1e6

    def per(name, key, scale):
        amount = sum(attr(name, key))
        return sum(durations(name)) / scale / amount if amount else 0.0

    def children(parent_name, prefix):
        parents = {i: 0 for i in by_name.get(parent_name, ())}
        totals = {i: 0 for i in parents}
        for span in spans:
            if span[PARENT] in parents and span[NAME].startswith(prefix):
                parents[span[PARENT]] += 1
                totals[span[PARENT]] += span[END] - span[START]
        return list(parents.values()), list(totals.values())

    metric_spans = [n for n in by_name if n.startswith("metrics.")]
    metric_ns = sum(sum(durations(n)) for n in metric_spans)
    metric_values = sum(sum(attr(n, "values")) for n in metric_spans)
    load_s = sum(durations("dataset.load_csv")) / 1e9
    batches, _ = children("strategies.learn_incremental", "learners.rls_update")
    _, metric_time = children("strategies.evaluate", "metrics.")
    return {
        "environments.sample_trajectory.ms": (ms("environments.sample_trajectory"), "ms"),
        "environments.rk4_steps": (med(attr("environments.sample_trajectory", "steps")), "count"),
        "environments.ns_per_rk4_step": (per("environments.sample_trajectory", "steps", 1), "ns"),
        "learners.fit_tree.ms": (ms("learners.fit_tree"), "ms"),
        "learners.fit_tree.us_per_row": (per("learners.fit_tree", "rows", 1e3), "us"),
        "learners.tree.nodes": (med(attr("learners.fit_tree", "nodes")), "count"),
        "learners.tree.leaves": (med(attr("learners.fit_tree", "leaves")), "count"),
        "learners.tree.depth": (med(attr("learners.fit_tree", "depth")), "count"),
        "learners.rls.us_per_update": (per("learners.rls_update", "rows", 1e3), "us"),
        "learners.fit_linear.ms": (ms("learners.fit_linear"), "ms"),
        "learners.predict.ms": (ms("learners.predict"), "ms"),
        "strategies.learn_incremental.self_ms": (self_ms("strategies.learn_incremental"), "ms"),
        "strategies.batches": (med(batches), "count"),
        "dataset.load_csv.ms": (ms("dataset.load_csv"), "ms"),
        "dataset.load_csv.mb_per_s": (sum(attr("dataset.load_csv", "bytes")) / 1e6 / load_s if load_s else 0.0, "MB/s"),
        "dataset.split.ms": (ms("dataset.split"), "ms"),
        "transforms.fit.ms": (ms("transforms.fit"), "ms"),
        "transforms.apply.ms": (ms("transforms.apply"), "ms"),
        "transforms.rows_in": (med(attr("transforms.apply", "rows_in")), "count"),
        "transforms.rows_out": (med(attr("transforms.apply", "rows_out")), "count"),
        "metrics.ms": (med(metric_time) / 1e6, "ms"),
        "metrics.ns_per_value": (metric_ns / metric_values if metric_values else 0.0, "ns"),
        "strategies.evaluate.self_ms": (self_ms("strategies.evaluate"), "ms"),
        "remote.connect.ms": (ms("remote.connect"), "ms"),
        "remote.fit.ms": (ms("remote.fit"), "ms"),
        "remote.predict.ms": (ms("remote.predict"), "ms"),
        "remote.fetch.ms": (ms("remote.fetch"), "ms"),
        "remote.us_per_row_up": (per("remote.fit", "rows", 1e3), "us"),
        "remote.us_per_row_down": (per("remote.predict", "rows", 1e3), "us"),
        "config.validate.ms": (ms("config.validate"), "ms"),
        "config.run_config.self_ms": (self_ms("config.run_config"), "ms"),
        "config.write_result.ms": (ms("config.write_result"), "ms"),
        "config.report_bytes": (med(attr("config.write_result", "report_bytes")), "bytes"),
        "config.model_bytes": (med(attr("config.write_result", "model_bytes")), "bytes"),
    }
