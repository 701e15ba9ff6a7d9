"""Per-layer spans for the benchmark's traced run.

The traced run wraps named public functions of the program in
``perf_counter`` spans from outside the program: every wrapper is
installed by rebinding the function object wherever a ``repro.*``
module holds it (``from x import f`` copies included) or, for methods,
on the class.  Nothing under ``src/`` changes, and the untraced run
never installs a wrapper.

Simulated ranks are cooperative threads that run one at a time, so the
busy spans of non-blocking functions sum to CPU-time attribution.  A
blocking runtime call (``Scheduler.wait_turn``) is counted, never
summed.  Forked mp children inherit the wrappers but skip them: only
the parent process records spans.
"""
from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

#: layer -> the non-blocking functions whose spans make its busy time,
#: as ``(module, attribute)``; ``Class.method`` names a method.  A
#: function named in its defining module is wrapped wherever a
#: ``repro`` module binds it; one named in an importing module is
#: wrapped only there (payload sizing as comm looks it up, the engine
#: kernels as the parallel engine calls them).
BUSY_LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "runtime.payload": (("repro.runtime.comm", "payload_nbytes"),),
    "engine.kernel": tuple(
        ("repro.engine.parallel", name)
        for name in (
            "scan_documents",
            "unique_terms",
            "encode_forward",
            "invert_chunk",
            "merge_doc_postings",
            "fields_to_docs",
            "stats_from_doc_postings",
            "local_candidates",
            "rank_candidates",
            "assign_points",
            "partial_update",
            "centroids_from_partials",
            "kmeanspp_seeds",
            "fit_pca",
            "merge_micro_clusters",
        )
    )
    + tuple(
        ("repro.engine.serial", name)
        for name in (
            "select_major_terms",
            "major_lookup_arrays",
            "doc_presence_indices",
            "cooccurrence_counts",
            "association_matrix",
            "compute_signatures",
        )
    ),
    "viz.themeview": (("repro.viz.themeview", "build_themeview"),),
    "serve.store.write": (("repro.serve.store", "write_container"),),
    "serve.store.decode": (
        ("repro.serve.store", "Container.load"),
        ("repro.serve.store", "load_model"),
        ("repro.serve.store", "load_manifest"),
    ),
    "serve.query.shard_op": (("repro.serve.broker", "execute_shard_op"),),
    "serve.broker.merge": (
        ("repro.index.termindex", "topk_score_row"),
        ("repro.serve.query", "merge_desc"),
        ("repro.serve.query", "merge_asc"),
        ("repro.serve.query", "canonical_response"),
    ),
    "workbench.derive": (
        ("repro.index.termindex", "set_term_tf"),
        ("repro.index.termindex", "set_term_cooccurrence"),
    ),
    "workbench.algebra": tuple(
        ("repro.workbench.state", name)
        for name in (
            "union_sets",
            "intersect_sets",
            "diff_sets",
            "order_set",
            "set_digest",
        )
    ),
    "facets.emerging": (("repro.facets.windows", "emerging_scores"),),
    "ingest.delta": (("repro.ingest.delta", "build_delta"),),
    "ingest.publish": (("repro.ingest.delta", "append_generation"),),
    "ingest.compact": (("repro.ingest.compact", "compact_store"),),
}

#: count -> the blocking runtime function whose calls it counts
COUNTED: dict[str, tuple[str, str]] = {
    "runtime.sched.turns": ("repro.runtime.scheduler", "Scheduler.wait_turn"),
}


class SpanRecorder:
    """In-memory span store plus the installed wrappers.

    A span is ``(id, parent, layer, name, t0, t1, tid, phase, round,
    req, top, layer_top, nbytes)``: ``parent`` is the enclosing wrapped
    span on the same thread (or the phase span), ``top`` says no
    wrapped span encloses it, ``layer_top`` that no span of its own
    layer does.  ``nbytes`` is the return value of a container write.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        self.phase_spans: list[tuple] = []
        self.counts: dict[str, int] = {k: 0 for k in COUNTED}
        self.calls: dict[str, int] = {k: 0 for k in BUSY_LAYERS}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.phase: str = ""
        self.phase_id: int = 0
        self.round: int = -1
        self.req: int = -1
        #: wrappers pass straight through while set (oracle checks)
        self.paused = False

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for layer, targets in BUSY_LAYERS.items():
            for module, attr in targets:
                self._rebind(module, attr, self._span_wrapper(layer, attr))
        for count, (module, attr) in COUNTED.items():
            self._rebind(module, attr, self._count_wrapper(count))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _rebind(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        holders = [mod]
        if original.__module__ == module:
            holders = [
                m
                for name, m in sorted(sys.modules.items())
                if (name == "repro" or name.startswith("repro."))
                and m is not None
                and getattr(m, attr, None) is original
            ]
        for holder in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, wrapped)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, layer: str, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.paused or os.getpid() != self.pid:
                    return fn(*args, **kwargs)
                stack = self._stack()
                sid = next(self._ids)
                parent = stack[-1][0] if stack else self.phase_id
                layer_top = all(entry[1] != layer for entry in stack)
                top = not stack
                stack.append((sid, layer))
                out = None
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                    return out
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    nbytes = out if layer == "serve.store.write" else 0
                    self.spans.append(
                        (sid, parent, layer, name, t0, t1,
                         threading.get_ident(), self.phase, self.round,
                         self.req, top, layer_top, nbytes)
                    )
                    with self._lock:
                        self.calls[layer] += 1

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _count_wrapper(self, count: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.paused and os.getpid() == self.pid:
                    with self._lock:
                        self.counts[count] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    # -- phases ---------------------------------------------------------
    @contextmanager
    def in_phase(self, phase: str, round_index: int):
        """Attribute every span opened inside to ``phase``."""
        self.phase, self.round = phase, round_index
        self.phase_id = next(self._ids)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_spans.append(
                (self.phase_id, phase, t0, time.perf_counter(),
                 round_index)
            )
            self.phase, self.phase_id, self.req = "", 0, -1

    @contextmanager
    def pause(self):
        """Record nothing inside (the benchmark's own oracle checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def snapshot_counts(self) -> dict[str, int]:
        """Calls so far, per busy layer and per counted function."""
        with self._lock:
            out = {f"{k}.calls": v for k, v in self.calls.items()}
            out.update(self.counts)
        return out

    # -- export ---------------------------------------------------------
    def chrome_trace(self, meta: dict) -> dict:
        """The spans as a Chrome-trace (``chrome://tracing``) document."""
        main = threading.main_thread().ident
        us = 1e6
        events = [
            {
                "name": phase,
                "cat": "phase",
                "ph": "X",
                "ts": (t0 - self.origin) * us,
                "dur": (t1 - t0) * us,
                "pid": self.pid,
                "tid": main,
                "args": {"id": sid, "round": rnd},
            }
            for sid, phase, t0, t1, rnd in self.phase_spans
        ]
        for (sid, parent, layer, name, t0, t1, tid, phase, rnd, req,
             _top, _ltop, nbytes) in self.spans:
            args = {"id": sid, "parent": parent, "phase": phase,
                    "round": rnd}
            if req >= 0:
                args["req"] = req
            if nbytes:
                args["nbytes"] = nbytes
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (t0 - self.origin) * us,
                    "dur": (t1 - t0) * us,
                    "pid": self.pid,
                    "tid": tid,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": meta,
        }

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(meta), fh)


def round_busy(recorder: SpanRecorder, round_index: int) -> dict:
    """Busy seconds per layer and top-level busy per phase for a round.

    A layer's busy time sums its spans that no span of the same layer
    encloses; ``top`` sums, per phase, spans no wrapped span encloses
    (the instrumented non-blocking work of that phase).
    """
    busy = {layer: 0.0 for layer in BUSY_LAYERS}
    top: dict[str, float] = {}
    write_bytes = 0
    for (_sid, _parent, layer, _name, t0, t1, _tid, phase, rnd, _req,
         is_top, layer_top, nbytes) in recorder.spans:
        if rnd != round_index:
            continue
        if layer_top:
            busy[layer] += t1 - t0
        if is_top:
            top[phase] = top.get(phase, 0.0) + (t1 - t0)
        write_bytes += nbytes or 0
    return {"busy": busy, "top": top, "write_bytes": write_bytes}
