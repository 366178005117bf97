"""Per-layer tracing for the traced benchmark run.

Spans are recorded by the benchmark's own code, around calls into the
public functions of each ``repro`` module; the program itself is not
edited.  :func:`install` swaps each traced function, in every loaded
``repro`` module that holds a reference to it, for a wrapper that opens
a span, and returns an undo handle.  It is used for the traced run only,
so the end-to-end numbers come from runs with no wrapper installed.

Spans stay in memory as ``[name, start, end, parent]`` rows and are
summarised at the end: a span's *self time* is its duration minus the
durations of its child spans.  Process-pool workers inherit the
wrappers but cannot report back; their tile time comes from the
program's own worker spans (see ``run.traced_round``).
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """In-memory spans plus named work counts."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), None, parent]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for _name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: Dict[str, float] = defaultdict(float)
        for (name, t0, t1, _parent), child in zip(self.spans, covered):
            out[name] += (t1 - t0) - child
        return out

    def total_seconds(self) -> Dict[str, float]:
        """Summed duration per span name (for names that never nest)."""
        out: Dict[str, float] = defaultdict(float)
        for name, t0, t1, _parent in self.spans:
            out[name] += t1 - t0
        return out


class GcMonitor:
    """Cyclic-GC pause time and generation-2 collections, from
    ``gc.callbacks``.

    Only collections that start inside one of ``recorder``'s spans
    count: those interrupt the program's work, while the benchmark's
    own ``gc.collect()`` between operations runs outside every span.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.pause_s = 0.0
        self.gen2 = 0
        self._t0: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            if self.recorder._stack:
                self._t0 = time.perf_counter()
        elif self._t0 is not None:
            self.pause_s += time.perf_counter() - self._t0
            self._t0 = None
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> bool:
        gc.callbacks.remove(self._callback)
        return False


def _wrapper(func: Callable, name: str, recorder: SpanRecorder,
             on_result: Optional[Callable]) -> Callable:
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with recorder.span(name):
            result = func(*args, **kwargs)
        if on_result is not None:
            on_result(recorder, result)
        return result
    return traced


def _graph_size(recorder: SpanRecorder, result) -> None:
    graph = result[0].graph
    recorder.count("conflict.pcg_nodes", graph.num_nodes())
    recorder.count("conflict.pcg_edges", graph.num_edges())


def _correction_size(recorder: SpanRecorder, report) -> None:
    recorder.count("correction.windows", len(report.windows))
    recorder.count("correction.cuts", len(report.cuts))


def traced_functions():
    """``(function, span name, result hook)`` for every traced layer
    function, grouped by the ``repro`` module that defines it."""
    from repro.chip import orchestrator, partition, stitch
    from repro.conflict import detection
    from repro.correction import flow as correction_flow
    from repro.correction import spacer
    from repro.graph import bipartize, coloring, components, crossings, \
        matching
    from repro.phase import assignment, incremental, verify
    from repro.shifters import frontend, generation, overlap

    def count_len(metric):
        return lambda rec, result: rec.count(metric, len(result))

    return [
        (generation.generate_shifters, "shifters.generate",
         count_len("shifters.count")),
        (overlap.find_overlap_pairs, "shifters.overlap",
         count_len("shifters.overlap_pairs")),
        (frontend.splice_front_ends, "shifters.splice", None),
        (detection.build_layout_conflict_graph, "conflict.graph_build",
         _graph_size),
        (detection.detect_conflicts, "conflict.detect", None),
        (crossings.greedy_planarize, "graph.planarize", None),
        (bipartize.optimal_planar_bipartization, "graph.bipartize", None),
        (matching.min_weight_perfect_matching, "graph.matching",
         lambda rec, _result: rec.count("graph.matching_calls")),
        (coloring.residual_conflicts, "graph.residual", None),
        (coloring.two_color, "graph.coloring", None),
        (components.two_color_incremental, "graph.coloring", None),
        (partition.partition_layout, "chip.partition", None),
        (orchestrator.run_chip_flow, "chip.execute", None),
        (stitch.stitch_results, "chip.stitch", None),
        (correction_flow.plan_correction, "correction.plan",
         _correction_size),
        (spacer.apply_cuts, "correction.apply", None),
        (assignment.assign_phases, "phase.assign", None),
        (incremental.assign_and_verify_incremental, "phase.assign", None),
        (verify.verify_assignment, "phase.verify", None),
        (verify.condition1_problems, "phase.verify", None),
        (verify.condition2_problems, "phase.verify", None),
    ]


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced function in place; returns the undo call."""
    from repro.cache import ArtifactCache

    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "repro" or n.startswith("repro.")]
    for func, name, hook in traced_functions():
        wrapper = _wrapper(func, name, recorder, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, func))
    for attr, name in (("get", "cache.get"), ("put", "cache.put")):
        method = getattr(ArtifactCache, attr)
        setattr(ArtifactCache, attr,
                _wrapper(method, name, recorder, None))
        undo.append((ArtifactCache, attr, method))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore
