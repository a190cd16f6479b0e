"""Span tracing from outside the program: wrappers around each layer's public calls.

``install(tracer)`` replaces a fixed set of functions and methods of the
``repro`` package with thin wrappers that open a span around the original
call, and returns a function that puts every original back.  Nothing under
``src/`` changes; the untraced run never calls ``install``.

A span records its name, start, end, the index of the span that caused it
(the innermost open span on the same thread) and a request id.  Spans stay
in memory until the run ends.  A layer's self time is its span's duration
minus the durations of its direct children.

FLOPs are *computed*, not counted by hardware: 2*M*K*N per matmul of a
Dense layer, read off the operand shapes at the call.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request, thread]
        self._local = threading.local()
        self._lock = threading.Lock()
        self.flops: Counter = Counter()          # span name -> computed FLOPs
        self.calls: Counter = Counter()          # span name -> call count
        self.shapes: dict[str, Counter] = defaultdict(Counter)  # probe key -> (M,K,N,batch) counts
        self.request = threading.local()  # .id: the operation the caller's spans serve

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack())

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), 0.0, parent,
                  getattr(self.request, "id", None), threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.calls[name] += 1

    def matmul(self, key: str, m: int, k: int, n: int, batch: int = 1) -> None:
        """Record one computed matmul of ``batch`` x (M,K)@(K,N) under ``key``."""
        with self._lock:
            self.flops[key] += 2.0 * batch * m * k * n
            self.shapes[key][(m, k, n, batch)] += 1

    # ---------------------------------------------------------------- report
    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, request, thread."""
        keys = ("name", "start", "end", "parent", "request", "thread")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        """Total inclusive seconds per span name (no wrapped call nests in itself)."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _, _ in self.spans:
            out[name] += end - start
        return dict(out)


def matmul_probe(shapes: Counter, budget_s: float = 0.02) -> float:
    """Seconds numpy needs for the recorded matmul shapes, call counts included.

    Each distinct ``(M, K, N, batch)`` shape is timed on random operands
    (best of a few repeats within ``budget_s``) and weighted by how often the
    traced run issued it, so FLOPs / probe seconds is the achieved rate of a
    bare ``np.matmul`` at the same work: a measured ceiling for the layer.
    """
    rng = np.random.default_rng(0)
    total = 0.0
    for (m, k, n, batch), count in shapes.items():
        shape_a = (batch, m, k) if batch > 1 else (m, k)
        shape_b = (batch, k, n) if batch > 1 else (k, n)
        a = rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b)
        out = np.empty(shape_a[:-1] + (n,))
        best = float("inf")
        t_end = time.perf_counter() + budget_s
        reps = 0
        while reps < 3 or (time.perf_counter() < t_end and reps < 50):
            t0 = time.perf_counter()
            np.matmul(a, b, out=out)
            best = min(best, time.perf_counter() - t0)
            reps += 1
        total += best * count
    return total


def install(tracer: Tracer):
    """Wrap each layer's public entry points; returns the undo function."""
    from scipy.spatial import cKDTree

    import repro.core.features as features_mod
    from repro.core.features import FeatureExtractor
    from repro.core.pipeline import ReconstructionPipeline
    from repro.core.reconstructor import FCNNReconstructor
    from repro.datasets.base import AnalyticDataset
    from repro.nn.batched import BatchedTrainer, ModelStack, StackedDense
    from repro.nn.layers import Dense
    from repro.nn.network import Sequential
    from repro.perf.campaign import GeometryCache, LocalReconstructionSink
    from repro.sampling.base import Sampler
    from repro.serve.engine import StackEvaluator
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import ReconstructionServer

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def spanned(owner, attr: str, name: str) -> None:
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return tracer.call(name, orig, *args, **kwargs)

        patch(owner, attr, wrapper)

    spanned(ReconstructionPipeline, "run_campaign", "pipeline.campaign")
    spanned(AnalyticDataset, "field", "datasets.field")
    spanned(Sampler, "sample", "sampling.sample")
    spanned(GeometryCache, "get", "geometry_cache.get")
    spanned(FCNNReconstructor, "fine_tune_batch", "reconstructor.fine_tune_batch")
    spanned(BatchedTrainer, "fit", "nn.batched.fit")
    spanned(LocalReconstructionSink, "publish", "sink.publish")
    spanned(LocalReconstructionSink, "reconstruct", "sink.reconstruct")
    spanned(FCNNReconstructor, "reconstruct", "reconstructor.reconstruct")
    spanned(FCNNReconstructor, "predict_values", "reconstructor.predict")
    spanned(FeatureExtractor, "features", "features.assemble")
    spanned(FeatureExtractor, "features_into", "features.assemble")
    spanned(ReconstructionServer, "submit", "serve.submit")
    spanned(ModelRegistry, "hot", "registry.hot")
    spanned(StackEvaluator, "evaluate", "serve.engine.evaluate")

    # The canonical tie-break is a module global that _neighbor_indices
    # looks up at call time, so rebinding the module attribute reaches it.
    spanned(features_mod, "canonical_neighbors", "features.tie_break")

    # Only the kd-trees core.features builds are traced: a subclass bound
    # to that module's cKDTree name times construction and queries.
    class TracedKDTree(cKDTree):
        def __init__(self, *args, **kwargs):
            tracer.call("features.kd_build", super().__init__, *args, **kwargs)

        def query(self, *args, **kwargs):
            return tracer.call("features.kd_query", super().query, *args, **kwargs)

    patch(features_mod, "cKDTree", TracedKDTree)

    # Sequential.forward: a span plus the computed FLOPs of its Dense layers.
    orig_seq_forward = Sequential.__dict__["forward"]

    @functools.wraps(orig_seq_forward)
    def seq_forward(self, x):
        rows = int(np.shape(x)[0])
        for layer in self.layers:
            if isinstance(layer, Dense):
                n_in, n_out = layer.weight.value.shape
                tracer.matmul("nn.forward", rows, n_in, n_out)
        return tracer.call("nn.forward", orig_seq_forward, self, x)

    patch(Sequential, "forward", seq_forward)

    # ModelStack.forward gets its own span only outside training; inside
    # BatchedTrainer.fit it stays part of the fit span (whose FLOPs the
    # StackedDense hooks below count, forward and backward alike).
    orig_stack_forward = ModelStack.__dict__["forward"]

    @functools.wraps(orig_stack_forward)
    def stack_forward(self, *args, **kwargs):
        if tracer.inside("nn.batched.fit"):
            return orig_stack_forward(self, *args, **kwargs)
        return tracer.call("nn.batched.forward", orig_stack_forward, self, *args, **kwargs)

    patch(ModelStack, "forward", stack_forward)

    def flops_key() -> str:
        return "nn.batched.fit" if tracer.inside("nn.batched.fit") else "nn.batched.forward"

    orig_dense_forward = StackedDense.__dict__["forward"]

    @functools.wraps(orig_dense_forward)
    def dense_forward(self, x):
        k, rows, _ = x.shape
        tracer.matmul(flops_key(), rows, self.in_features, self.out_features, batch=k)
        return orig_dense_forward(self, x)

    patch(StackedDense, "forward", dense_forward)

    orig_dense_backward = StackedDense.__dict__["backward"]

    @functools.wraps(orig_dense_backward)
    def dense_backward(self, grad_out, need_input_grad=True):
        k, rows, _ = grad_out.shape
        key = flops_key()
        if self.trainable:  # weight gradient: (n, B) @ (B, m) per member
            tracer.matmul(key, self.in_features, rows, self.out_features, batch=k)
        if need_input_grad:  # input gradient: (B, m) @ (m, n) per member
            tracer.matmul(key, rows, self.out_features, self.in_features, batch=k)
        return orig_dense_backward(self, grad_out, need_input_grad)

    patch(StackedDense, "backward", dense_backward)

    def uninstall() -> None:
        while undo:
            owner, attr, orig = undo.pop()
            setattr(owner, attr, orig)

    return uninstall
