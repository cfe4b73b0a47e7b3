"""Timing shims around the engine's public callables, from outside.

:func:`install` replaces each target in :data:`LAYERS` — at the module
or class attribute its callers look it up through — with a wrapper
that records a span.  Spans nest per thread; each one adds its
duration minus its direct children's durations (its *self time*) to
its layer, so the layers' self times add up to the time covered by the
outermost spans.  Spans are aggregated in memory per thread and read
once, by :meth:`Tracer.report`, when the traced run ends.

A target that cannot be resolved is an error: a renamed or deleted
callable must fail the traced run loudly, not report a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Tuple

#: layer -> the (module, attribute path) targets it times.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "config.enum": (("repro.config.space", "DesignSpace.config_at"),
                    ("repro.config.space", "DesignSpace.configs"),
                    ("repro.config.space", "DesignSpace.restrict")),
    "trace.gen": (("repro.apps.base", "AppModel.detailed_trace"),
                  ("repro.apps.base", "AppModel.burst_trace")),
    "uarch.model": (("repro.core.batch", "time_kernel_batch"),
                    ("repro.core.batch", "resolve_contention_batch")),
    "runtime.sched": (("repro.core.batch", "simulate_phase_batch"),),
    "network.replay": (("repro.core.batch", "replay_batch"),),
    "core.batch": (("repro.core.batch", "BatchEvaluator.evaluate_frame"),),
    "core.sweep": (("repro.core.sweep", "run_sweep"),),
    "core.checkpoint.append": (("repro.core.checkpoint",
                                "Journal.append_frame"),),
    "core.checkpoint.merge": (("repro.core.checkpoint", "merge_journal"),),
    "core.checkpoint.load": (("repro.core.sweep", "replay_journal"),
                             ("repro.core.checkpoint", "replay_journal")),
    # The columnar plane encodes through ResultFrame; the per-record
    # paths through canonical_dumps as checkpoint and store bind it.
    "core.canon.encode": (("repro.core.checkpoint", "canonical_dumps"),
                          ("repro.core.store", "canonical_dumps"),
                          ("repro.core.results", "ResultSet.canonical_text"),
                          ("repro.core.frame", "ResultFrame.to_block_line"),
                          ("repro.core.frame", "ResultFrame.canonical_lines")),
    "core.store.get": (("repro.core.store", "ResultStore.get"),),
    "core.store.put": (("repro.core.store", "ResultStore.put_frame"),),
    "serve.handle": (("repro.serve.state", "ServeState.handle"),),
    "analysis.optimize": (("repro.serve.state", "optimize_node"),),
}


def resolve(module: str, path: str) -> Tuple[object, str, Callable]:
    """``(owner, attribute, current value)`` for one target; raises
    ``LookupError`` naming the target when it does not exist."""
    try:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        fn = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
    except (ImportError, AttributeError, KeyError) as exc:
        raise LookupError(f"shim target {module}.{path} not found: "
                          f"{exc}") from exc
    if not callable(fn):
        raise LookupError(f"shim target {module}.{path} is not callable")
    return owner, attr, fn


class _ThreadSpans:
    """One thread's open-span stack and per-layer aggregates."""

    __slots__ = ("stack", "self_s", "calls", "root_s")

    def __init__(self, layers) -> None:
        self.stack: List[float] = []  # child time of each open span
        self.self_s = dict.fromkeys(layers, 0.0)
        self.calls = dict.fromkeys(layers, 0)
        self.root_s = 0.0  # inclusive time of outermost spans


class Tracer:
    """Installs the shims and aggregates their spans."""

    def __init__(self, layers: Dict[str, Tuple[Tuple[str, str], ...]]
                 = LAYERS) -> None:
        self.layers = layers
        self.recording = False
        self.negative_spans = 0
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        """Resolve every target first, then wrap them all and start
        recording."""
        targets = [(layer, *resolve(module, path))
                   for layer, specs in self.layers.items()
                   for module, path in specs]
        for layer, owner, attr, fn in targets:
            setattr(owner, attr, self._wrap(layer, fn))
            self._undo.append((owner, attr, fn))
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans(self.layers)
            with self._lock:
                self._threads.append(spans)
        return spans

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            spans = self._spans()
            stack = spans.stack
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                own = dur - child
                if own < 0:
                    self.negative_spans += 1
                spans.self_s[layer] += own
                spans.calls[layer] += 1
                if stack:
                    stack[-1] += dur
                else:
                    spans.root_s += dur

        return shim

    def report(self) -> Dict:
        """Stop recording; per-layer self time and calls summed over
        threads, plus the outermost spans' inclusive total."""
        self.recording = False
        with self._lock:
            threads = list(self._threads)
        return {
            "self_s": {layer: sum(t.self_s[layer] for t in threads)
                       for layer in self.layers},
            "calls": {layer: sum(t.calls[layer] for t in threads)
                      for layer in self.layers},
            "root_s": sum(t.root_s for t in threads),
            "negative_spans": self.negative_spans,
        }
