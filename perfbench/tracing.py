"""Span tracing from outside the program.

A `Tracer` replaces public functions with wrappers at the place where the
calling module binds them (for example `slicemix.pipeline.qformer_apply`,
which is the name `pipeline.forward` looks up at call time). Each wrapped
call records one span: name, start, end and parent span. Spans stay in
flat arrays in memory until the run ends; self time is computed afterwards
as a span's duration minus the time its child spans cover. Call counts come
from the same spans, so counts and times are taken at the same boundaries.

A name that a later version of the program no longer has is skipped, and
every metric built on it then reads zero calls.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import nullcontext

import numpy as np

# (module, attribute, span name). The span name's prefix is the layer.
# Each entry is the binding a caller actually looks up, so the same function
# can appear twice: `adapters.qformer_apply` is the local compression when
# `pipeline` calls it and the global query expert when `moe_apply` does.
TARGETS = (
    # slicing, as the task builder binds it, plus its own internal calls
    ("slicemix.pipeline", "plan_partition", "slicing.plan_partition"),
    ("slicemix.pipeline", "make_global_view", "slicing.make_global_view"),
    ("slicemix.pipeline", "extract_patches", "slicing.extract_patches"),
    ("slicemix.pipeline", "resize_bilinear", "slicing.resize_bilinear"),
    ("slicemix.slicing", "resize_bilinear", "slicing.resize_bilinear"),
    ("slicemix.slicing", "scaled_canvas", "slicing.scaled_canvas"),
    # adapters: global mixture and local compression as the pipeline binds them
    ("slicemix.pipeline", "moe_apply", "adapters.global_fwd"),
    ("slicemix.pipeline", "adapter_grads", "adapters.global_vjp"),
    ("slicemix.pipeline", "qformer_apply", "adapters.local_fwd"),
    ("slicemix.pipeline", "qformer_vjp", "adapters.local_vjp"),
    ("slicemix.adapters", "gate_sample", "adapters.gate_sample"),
    ("slicemix.adapters", "mlp_apply", "adapters.mlp_apply"),
    ("slicemix.adapters", "qformer_apply", "adapters.global_qformer_apply"),
    ("slicemix.adapters", "mlp_vjp", "adapters.mlp_vjp"),
    ("slicemix.adapters", "qformer_vjp", "adapters.global_qformer_vjp"),
    # numerics, wherever another layer binds it
    ("slicemix.adapters", "attention_weights", "numerics.attention_weights"),
    ("slicemix.adapters", "cross_attention_vjp", "numerics.cross_attention_vjp"),
    ("slicemix.adapters", "gelu", "numerics.gelu"),
    ("slicemix.adapters", "gelu_grad", "numerics.gelu_grad"),
    ("slicemix.adapters", "softmax", "numerics.softmax"),
    ("slicemix.adapters", "softplus", "numerics.softplus"),
    ("slicemix.routing", "softmax", "numerics.softmax"),
    ("slicemix.numerics", "softmax_rows", "numerics.softmax_rows"),
    ("slicemix.pipeline", "make_rng", "numerics.make_rng"),
    ("slicemix.bilinear", "make_rng", "numerics.make_rng"),
    # routing
    ("slicemix.pipeline", "route_tokens", "routing.route"),
    ("slicemix.pipeline", "apply_selection", "routing.apply_selection"),
    ("slicemix.routing", "relevance_scores", "routing.relevance_scores"),
    ("slicemix.routing", "select_prefix", "routing.select_prefix"),
    # pipeline: module globals its own functions call, and what the benchmark calls
    ("slicemix.pipeline", "make_toy_task", "pipeline.make_toy_task"),
    ("slicemix.pipeline", "init_params", "pipeline.init_params"),
    ("slicemix.pipeline", "forward", "pipeline.forward"),
    ("slicemix.pipeline", "batch_loss_and_grads", "pipeline.batch_loss_and_grads"),
    ("slicemix.pipeline", "evaluate", "pipeline.evaluate"),
    ("slicemix.pipeline", "train", "pipeline.train"),
    ("slicemix.pipeline", "params_vector", "pipeline.params_vector"),
    ("slicemix.pipeline", "set_params_vector", "pipeline.set_params_vector"),
    # bilinear: the raw-vector alternating step and CSV writing; trajectories
    # are timed by the benchmark's own spans, since wrapping the 10^5 scalar
    # coordinate steps would swamp them
    ("slicemix.bilinear", "alt_step", "bilinear.alt_step"),
    ("slicemix.bilinear.Trace", "to_csv", "bilinear.to_csv"),
)

NULL_SPAN = nullcontext()


def _resolve(path: str):
    """Module or class object named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod_path, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod_path), attr, None)


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer: "Tracer", nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.sid = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False


class Tracer:
    """In-memory span recorder plus the function patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> _Span:
        """A span around a block of the benchmark's own code."""
        return _Span(self, self._nid(name))

    def wrap(self, fn, name: str):
        nid = self._nid(name)
        start, end, name_id, parent, stack = (self.start, self.end, self.name_id,
                                              self.parent, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS) -> None:
        for path, attr, name in targets:
            owner = _resolve(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{path}.{attr}")
                self._nid(name)
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        """Span count so far: the boundary of a phase."""
        return len(self.start)

    def arrays(self):
        """Copies, so that recording may go on while they are in use."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def phase(self, lo: int, hi: int) -> "Phase":
        return Phase(self, lo, hi)

    def save(self, path, marks: dict) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end, **{f"mark_{k}": v for k, v in marks.items()})


class Phase:
    """Per-name calls, total time and self time over spans [lo, hi)."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        name_id, parent, start, end = tracer.arrays()
        n_names = len(tracer.names)
        dur = end - start
        # child time covered, charged to each parent span; spans nest because
        # the traced program is single-threaded
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        sl = slice(lo, hi)
        ids = name_id[sl]
        self.names = tracer.names
        self._index = {n: i for i, n in enumerate(tracer.names)}
        self.calls = np.bincount(ids, minlength=n_names)
        self.total = np.bincount(ids, weights=dur[sl], minlength=n_names)
        self.self_time = np.bincount(ids, weights=own[sl], minlength=n_names)
        self._ids = ids
        self._parent_ids = np.where(parent[sl] >= 0, name_id[np.maximum(parent[sl], 0)], -1)

    def n(self, name: str) -> int:
        i = self._index.get(name)
        return 0 if i is None else int(self.calls[i])

    def total_s(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(self.total[i])

    def self_s(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(self.self_time[i])

    def n_under(self, name: str, parent: str) -> int:
        """Calls of `name` made directly inside a `parent` span."""
        i, j = self._index.get(name), self._index.get(parent)
        if i is None or j is None:
            return 0
        return int(np.count_nonzero((self._ids == i) & (self._parent_ids == j)))

    def per_call(self, name: str, scale: float) -> float:
        """Mean duration per call in units of 1/scale seconds; 0 without calls."""
        n = self.n(name)
        return self.total_s(name) / n * scale if n else 0.0

    def layer_self_s(self, layer: str) -> float:
        return float(sum(self.self_time[i] for i, n in enumerate(self.names)
                         if n.split(".", 1)[0] == layer))

    def layer_calls(self, layer: str) -> int:
        return int(sum(self.calls[i] for i, n in enumerate(self.names)
                       if n.split(".", 1)[0] == layer))

    def counts(self) -> dict[str, int]:
        return {n: int(c) for n, c in zip(self.names, self.calls)}
