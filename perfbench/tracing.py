"""Span tracing from the benchmark's side of each layer boundary.

The traced run wraps the public functions each layer exposes *at the names
their callers bind* (a module attribute looked up at call time, or a method
on its class), so the program under test is unmodified: uninstalling the
wrappers restores the original objects.  Each wrapped call records one span
— name, start, end, parent span, thread — plus the counts that make ratios
measurable where the work happens.  Spans stay in memory until the run
writes them out.

Counts labelled ``computed`` are derived from argument shapes, dtypes and
factor sizes, not measured: they ignore caches and repeat exactly from run
to run, so they compare two versions of the program as counts.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import numpy as np

# --------------------------------------------------------------------- #
# computed counts
# --------------------------------------------------------------------- #


def matmul_flops(a_shape, b_shape) -> int:
    """Multiply-adds x 2 of ``np.matmul`` on operands of these shapes."""
    a_shape, b_shape = tuple(a_shape), tuple(b_shape)
    if len(a_shape) == 1:
        a_shape = (1,) + a_shape
    if len(b_shape) == 1:
        b_shape = b_shape + (1,)
    rows, inner = a_shape[-2:]
    if b_shape[-2] != inner:
        raise ValueError(f"matmul shapes {a_shape} and {b_shape} do not align")
    cols = b_shape[-1]
    batch = int(np.prod(np.broadcast_shapes(a_shape[:-2], b_shape[:-2]), dtype=np.int64))
    return 2 * batch * rows * inner * cols


def im2col_bytes(x_shape, kernel: int, stride: int, itemsize: int) -> int:
    """Bytes im2col reads (the padded input) plus writes (the columns)."""
    batch, channels, height, width = x_shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    read = batch * channels * height * width
    written = batch * channels * kernel * kernel * out_h * out_w
    return (read + written) * itemsize


def col2im_bytes(columns_shape, padded_shape, itemsize: int) -> int:
    """Bytes col2im reads (the columns) plus writes (the folded image)."""
    read = int(np.prod(columns_shape, dtype=np.int64))
    written = int(np.prod(padded_shape, dtype=np.int64))
    return (read + written) * itemsize


def backsub_flops(factor_nnz: int, columns: int) -> int:
    """Forward plus backward substitution: one multiply-add per stored
    nonzero of L and U per right-hand-side column."""
    return 2 * int(factor_nnz) * int(columns)


def factor_nnz(solver) -> int:
    """nnz(L) + nnz(U) of a SuperLU-backed solver (0 for other solvers)."""
    lu = getattr(solver, "_lu", None)
    if lu is None:
        return 0
    return int(lu.L.nnz + lu.U.nnz)


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #


class Tracer:
    """In-memory span recorder with a per-thread parent stack.

    A span opened while another is open on the same thread becomes its
    child.  The ``request`` attribute propagates from parent to child, so
    every span of one gateway request carries that request's id.  ``phase``
    labels spans with the part of the run they belong to.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_span(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(entry["name"] == name for entry in self._stack())

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "name": name,
            "thread": threading.get_ident(),
            "phase": self.phase,
        }
        if parent is not None and "request" in parent and "request" not in attrs:
            record["request"] = parent["request"]
        record.update(attrs)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def write(self, path: Path, extra: dict) -> None:
        """Write every span (one JSON object a line) after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(extra, default=str) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record, default=str) + "\n")


# --------------------------------------------------------------------- #
# wrapped boundaries
# --------------------------------------------------------------------- #


def _matmul_attrs(args, kwargs, result):
    a, b = args[0], args[1]
    return {"flops": matmul_flops(np.shape(a), np.shape(b))}


def _im2col_attrs(args, kwargs, result):
    x_padded, kernel, stride = args[0], args[1], args[2]
    return {"bytes": im2col_bytes(x_padded.shape, kernel, stride, x_padded.itemsize)}


def _col2im_attrs(args, kwargs, result):
    columns, padded_shape = args[0], args[1]
    return {"bytes": col2im_bytes(columns.shape, padded_shape, columns.itemsize)}


def _factor_attrs(args, kwargs, result):
    return {"nnz": factor_nnz(result)}


def _backsub_attrs(args, kwargs, result):
    solver, rhs = args[0], np.asarray(args[1])
    columns = 1 if rhs.ndim == 1 else rhs.shape[1]
    return {"columns": columns, "flops": backsub_flops(factor_nnz(solver), columns)}


def _features_batch_attrs(args, kwargs, result):
    traces = args[0]
    return {
        "vectors": len(result),
        "raw_steps": sum(trace.num_steps for trace in traces),
        "kept": sum(features.num_steps for features in result),
    }


def _features_attrs(args, kwargs, result):
    return {"vectors": 1, "raw_steps": args[0].num_steps, "kept": result.num_steps}


def _write_attrs(args, kwargs, result):
    store, label, index = args[0], args[1], args[2]
    return {"bytes": store.shard_path(label, index).stat().st_size}


def _predict_attrs(args, kwargs, result):
    return {"batch": len(args[1])}


def _group_attrs(args, kwargs, result):
    worker, requests = args[0], args[2]
    return {"shard": worker.shard_id, "requests": [id(r.future) for r in requests]}


def _request_attrs(args):
    return {"request": id(args[1].future)}


#: (owner, attribute, span name, attrs-after-call, attrs-before-call).
#: ``owner`` is ``module`` or ``module:Class``.  ``pad_input``'s adjoint
#: ``unpad_gradient`` records as ``nn.pad`` too, so the pad kernel has a
#: backward time like the other kernels.
BOUNDARIES = (
    ("repro.pdn.designs", "design_from_name", "pdn.build", None, None),
    ("repro.workloads.vectors:TestVectorGenerator", "generate", "workloads.generate", None, None),
    ("repro.sim.transient", "make_solver", "sim.factor", _factor_attrs, None),
    ("repro.sim.linear:_FactorizedDirectSolver", "solve_many", "sim.backsub", _backsub_attrs, None),
    ("repro.sim.dynamic_noise:DynamicNoiseAnalysis", "run_many", "sim.integrate", None, None),
    ("repro.workloads.dataset", "extract_vector_features_batch", "features.extract",
     _features_batch_attrs, None),
    ("repro.gateway.worker", "extract_vector_features", "features.extract", _features_attrs, None),
    ("repro.datagen.shards:ShardStore", "write_shard", "datagen.write", _write_attrs, None),
    ("repro.nn.kernels", "matmul", "nn.matmul", _matmul_attrs, None),
    ("repro.nn.kernels", "im2col", "nn.im2col", _im2col_attrs, None),
    ("repro.nn.kernels", "col2im", "nn.col2im", _col2im_attrs, None),
    ("repro.nn.conv", "pad_input", "nn.pad", None, None),
    ("repro.nn.conv", "unpad_gradient", "nn.pad", None, None),
    ("repro.core.model:WorstCaseNoiseNet", "forward_batch", "core.forward", None, None),
    ("repro.core.model:WorstCaseNoiseNet", "forward", "core.forward", None, None),
    ("repro.nn.tensor:Tensor", "backward", "core.backward", None, None),
    ("repro.nn.optim:Adam", "step", "core.optimizer", None, None),
    ("repro.core.inference:NoisePredictor", "predict_batch", "core.predict", _predict_attrs, None),
    ("repro.core.inference:NoisePredictor", "load", "core.checkpoint_load", None, None),
    ("repro.gateway.worker:ShardWorker", "_process_group", "gateway.group", _group_attrs, None),
    ("repro.gateway.worker:ShardWorker", "_materialise", "gateway.materialise", None,
     _request_attrs),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _wrap(tracer: Tracer, function, name: str, after, before):
    kernel = name.startswith("nn.")

    @wraps(function)
    def wrapper(*args, **kwargs):
        attrs = before(args) if before is not None else {}
        if kernel:
            attrs["bwd"] = tracer.in_span("core.backward")
        with tracer.span(name, **attrs) as record:
            result = function(*args, **kwargs)
            if after is not None:
                record.update(after(args, kwargs, result))
        return result

    return wrapper


class Boundaries:
    """Installs and removes the span wrappers of :data:`BOUNDARIES`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            return
        for owner_name, attribute, name, after, before in BOUNDARIES:
            owner = _resolve(owner_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(self.tracer, raw.__func__, name, after, before))
            else:
                wrapped = _wrap(self.tracer, raw, name, after, before)
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)


# --------------------------------------------------------------------- #
# per-layer metrics from spans
# --------------------------------------------------------------------- #


def _duration(record) -> float:
    return record["end"] - record["start"]


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    child_time: dict = {}
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] = child_time.get(record["parent"], 0.0) + _duration(record)
    return {record["id"]: _duration(record) - child_time.get(record["id"], 0.0) for record in spans}


def covered_seconds(intervals, window) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to ``window``."""
    lo, hi = window
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def unattributed_seconds(spans, window) -> float:
    """Wall time in ``window`` during which no top-level layer span was open."""
    roots = [(r["start"], r["end"]) for r in spans if r["parent"] is None]
    return (window[1] - window[0]) - covered_seconds(roots, window)


def layer_metrics(spans) -> dict:
    """The per-layer metrics every workload reports, from its spans.

    Layer times are inclusive (a layer's span covers the layers it calls);
    ``sim.integrate_self_s`` is the one self time, the lockstep integration
    minus the back-substitutions it issues.
    """
    by_name: dict[str, list] = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(record)

    def total(name, key=None):
        records = by_name.get(name, [])
        if key is None:
            return sum(_duration(r) for r in records)
        return sum(r.get(key, 0) for r in records)

    def count(name):
        return len(by_name.get(name, []))

    selfs = self_times(spans)
    out = {
        "pdn.build_s": (total("pdn.build"), "s"),
        "workloads.generate_s": (total("workloads.generate"), "s"),
        "workloads.vectors": (count("workloads.generate"), "count"),
        "sim.factor_s": (total("sim.factor"), "s"),
        "sim.factor_calls": (count("sim.factor"), "count"),
        "sim.factor_nnz": (max([r["nnz"] for r in by_name.get("sim.factor", [])], default=0), "count"),
        "sim.backsub_s": (total("sim.backsub"), "s"),
        "sim.backsub_calls": (count("sim.backsub"), "count"),
        "sim.backsub_columns": (total("sim.backsub", "columns"), "count"),
        "sim.backsub_flops_computed": (total("sim.backsub", "flops"), "flop"),
        "sim.integrate_self_s": (
            sum(selfs[r["id"]] for r in by_name.get("sim.integrate", [])), "s"),
        "features.extract_s": (total("features.extract"), "s"),
        "features.vectors": (total("features.extract", "vectors"), "count"),
        "features.stamps_kept_ratio": (
            total("features.extract", "kept") / max(1, total("features.extract", "raw_steps")),
            "ratio"),
        "datagen.write_s": (total("datagen.write"), "s"),
        "datagen.shards": (count("datagen.write"), "count"),
        "datagen.bytes_written": (total("datagen.write", "bytes"), "B"),
    }
    for kernel in ("matmul", "im2col", "col2im", "pad"):
        records = by_name.get(f"nn.{kernel}", [])
        out[f"nn.{kernel}_fwd_s"] = (sum(_duration(r) for r in records if not r["bwd"]), "s")
        out[f"nn.{kernel}_bwd_s"] = (sum(_duration(r) for r in records if r["bwd"]), "s")
        out[f"nn.{kernel}_calls"] = (len(records), "count")
    out["nn.matmul_flops_computed"] = (total("nn.matmul", "flops"), "flop")
    out["nn.im2col_bytes_computed"] = (total("nn.im2col", "bytes"), "B")
    out["nn.col2im_bytes_computed"] = (total("nn.col2im", "bytes"), "B")
    predicts = by_name.get("core.predict", [])
    out.update({
        "core.forward_s": (_outermost_total(by_name.get("core.forward", [])), "s"),
        "core.backward_s": (total("core.backward"), "s"),
        "core.optimizer_s": (total("core.optimizer"), "s"),
        "core.steps": (count("core.optimizer"), "count"),
        "core.predict_s": (total("core.predict"), "s"),
        "core.predict_calls": (len(predicts), "count"),
        "core.predict_batch_mean": (
            sum(r["batch"] for r in predicts) / len(predicts) if predicts else 0.0, "vectors"),
        "core.checkpoint_load_s": (total("core.checkpoint_load"), "s"),
    })
    return out


def _outermost_total(records) -> float:
    """Total of spans not nested in another span of the same name."""
    ids = {r["id"] for r in records}
    return sum(_duration(r) for r in records if r["parent"] not in ids)
