"""The benchmark's three workloads.

Each workload builds its inputs in :meth:`setup` (timed by the caller,
part of ``setup_s``) and runs one *round* of operations in
:meth:`run_round`: every round attempts the same operations, so the
share of failed operations is the same in every run.  ``gc.collect()``
runs before every timed operation, so each starts from the same heap.
The output of every operation is checked with :mod:`checks`, outside
the timed region.

With a :class:`~tracing.SpanRecorder` passed as ``trace`` a round calls
the five pipeline stages one by one (as ``benchmarks/bench_profile.py``
does) under spans named ``pipeline.<stage>``; without one it takes the
user's path (``run_aapsm_flow`` / ``run_pipeline`` / ``run_eco_flow``).
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import checks
from repro.bench import get_design
from repro.cache import ArtifactCache, MemoryBackend
from repro.chip.partition import default_halo
from repro.core import run_aapsm_flow
from repro.gdsii import gds_to_layout, layout_to_gds, read_gds, write_gds
from repro.layout import Technology
from repro.pipeline import (
    PipelineConfig,
    PipelineResult,
    isolated_interior_features,
    perturb_feature,
    plan_eco,
    resolve_eco_tiles,
    run_eco_flow,
    run_pipeline,
    stage_assign,
    stage_correct,
    stage_detect,
    stage_front_end,
    stage_verify,
)
from repro.scenarios import build_scenario


@dataclass
class Round:
    """What one round measured and found."""

    attempted: int = 0
    failed: int = 0
    op_seconds: List[float] = field(default_factory=list)  # in run order
    conflicts: int = 0
    area_increase_pct: float = 0.0
    problems: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Timed seconds of the round."""
        return sum(self.op_seconds)


def _nospan(_name: str):
    return nullcontext()


def timed(fn):
    """``(seconds, result)`` of one operation, after a full collection."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def flow_by_stages(layout, tech, config: PipelineConfig, store,
                   trace) -> PipelineResult:
    """The five pipeline stages called one by one under spans."""
    start = time.perf_counter()
    with trace.span("pipeline.shifters"):
        front = stage_front_end(layout, tech, config, cache=store)
    with trace.span("pipeline.detect"):
        detection = stage_detect(front, tech, config, cache=store)
    with trace.span("pipeline.correct"):
        correction = stage_correct(detection, tech, config, cache=store)
    with trace.span("pipeline.verify"):
        verification = stage_verify(correction, tech, config, front,
                                    cache=store)
    with trace.span("pipeline.assign"):
        phase = stage_assign(verification, tech, config, cache=store)
    trace.count("phase.recolored", phase.recolored)
    return PipelineResult(layout=layout, front=front, detection=detection,
                          correction=correction, verification=verification,
                          phase=phase,
                          wall_seconds=time.perf_counter() - start)


def flow_problems(pipe: PipelineResult, tech, label: str) -> List[str]:
    """Independent checks of one flow's outputs."""
    before = checks.rect_tuples(pipe.layout.features)
    after = checks.rect_tuples(pipe.corrected_layout.features)
    problems = checks.area_problems(
        before, after, pipe.correction.report.area_increase_pct)
    if pipe.success:
        problems += checks.phase_problems(after, tech,
                                          pipe.assignment.phases)
    else:
        problems += checks.unassignable_problems(after, tech)
    return [f"{label}: {p}" for p in problems]


def flow_outputs(pipe: PipelineResult) -> tuple:
    """What a repeated flow on the same input must reproduce."""
    phases = pipe.assignment.phases if pipe.assignment else {}
    return (pipe.success,
            tuple(c.key for c in pipe.detection.report.conflicts),
            repr(pipe.correction.report.cuts),
            tuple(sorted(phases.items())))


class FullChip:
    """D8 from a GDS file through the default flow and back to GDS."""

    name = "full_chip"

    def setup(self, seed: int, workdir: str) -> None:
        # The input is the fixed suite design; the seed changes nothing.
        self.tech = Technology.node_90nm()
        layout = get_design("D8").build()
        self.gds_in = os.path.join(workdir, "d8.gds")
        self.gds_out = os.path.join(workdir, "d8-corrected.gds")
        write_gds(layout_to_gds(layout), self.gds_in)

    def op(self, trace) -> PipelineResult:
        span = trace.span if trace is not None else _nospan
        with span("gdsii.read"):
            layout, _skipped = gds_to_layout(read_gds(self.gds_in))
        if trace is not None:
            pipe = flow_by_stages(layout, self.tech, PipelineConfig(),
                                  None, trace)
        else:
            pipe = run_aapsm_flow(layout, self.tech).pipeline
        with span("gdsii.write"):
            write_gds(layout_to_gds(pipe.corrected_layout), self.gds_out)
        return pipe

    def run_round(self, trace=None) -> Round:
        seconds, pipe = timed(lambda: self.op(trace))
        return Round(attempted=1, op_seconds=[seconds],
                     conflicts=pipe.detection.report.num_conflicts,
                     area_increase_pct=(
                         pipe.correction.report.area_increase_pct),
                     problems=flow_problems(pipe, self.tech, "D8"))

    def timings(self, rounds: List[Round]) -> Tuple[float, float]:
        """``(cold_s, ops_per_s)``: the median D8 operation."""
        cold = statistics.median(r.op_seconds[0] for r in rounds)
        return cold, 1.0 / cold


class EcoSession:
    """A cold tiled run fills a store, then warm single-polygon edits
    each replay it through a freshly opened store.

    The store's bytes live in the program's ``MemoryBackend``, not in
    files: creating the cold run's 31,077 store files took anywhere
    from 1 s to 12 s on the machine this was written on, which swung
    ``cold_s`` between 24 s and 41 s from run to run.
    """

    name = "eco_session"
    EDITS = 2

    def setup(self, seed: int, workdir: str) -> None:
        self.tech = Technology.node_90nm()
        self.layout = get_design("D8").build()
        spec = resolve_eco_tiles(self.layout, None)
        self.config = PipelineConfig(tiles=spec, tiled=True,
                                     jobs=os.cpu_count(),
                                     executor="process")
        die = checks.bbox(checks.rect_tuples(self.layout.features))
        windows = checks.capture_windows(die, spec[0], spec[1],
                                         default_halo(self.tech))
        candidates = isolated_interior_features(self.layout, self.tech)
        random.Random(f"eco_session:{seed}").shuffle(candidates)
        # One edit per tile, each inside a single capture window, so
        # every seed's session does the same amount of work.
        self.edits: List[Tuple[Tuple[int, int, int, int], object]] = []
        used = set()
        for index in candidates:
            r = self.layout.features[index]
            rect = (r.x1, r.y1, r.x2, r.y2)
            touched = checks.touching_windows(windows, rect)
            if len(touched) == 1 and touched[0] not in used:
                used.add(touched[0])
                self.edits.append(
                    (rect, perturb_feature(self.layout, index)))
                if len(self.edits) == self.EDITS:
                    break

    def cold(self, backend, trace) -> PipelineResult:
        store = ArtifactCache(backend=backend)
        if trace is not None:
            return flow_by_stages(self.layout, self.tech, self.config,
                                  store, trace)
        return run_pipeline(self.layout, self.tech, self.config,
                            cache=store)

    def warm(self, edited, backend, trace) -> PipelineResult:
        # A fresh store object over the same backend, with an empty
        # memory layer, as a new `repro eco --assume-warm` process
        # would open.
        store = ArtifactCache(backend=backend)
        if trace is None:
            return run_eco_flow(self.layout, edited, self.tech,
                                config=self.config, cache=store,
                                warm_base=False).result
        with trace.span("eco.plan"):
            plan = plan_eco(self.layout, edited, self.tech,
                            tiles=self.config.tiles)
        trace.count("eco.dirty_tiles", plan.num_dirty)
        return flow_by_stages(edited, self.tech, self.config, store, trace)

    def run_round(self, trace=None) -> Round:
        backend = MemoryBackend()
        cold_s, base = timed(lambda: self.cold(backend, trace))
        rnd = Round(attempted=1 + len(self.edits), op_seconds=[cold_s],
                    conflicts=base.detection.report.num_conflicts,
                    area_increase_pct=(
                        base.correction.report.area_increase_pct),
                    problems=flow_problems(base, self.tech, "base"))
        base_keys = {c.key for c in base.detection.report.conflicts}
        chip = base.detection.chip
        windows = checks.capture_windows(
            checks.bbox(checks.rect_tuples(self.layout.features)),
            chip.nx, chip.ny, chip.halo)
        del base
        for n, (rect, edited) in enumerate(self.edits):
            seconds, pipe = timed(lambda: self.warm(edited, backend, trace))
            rnd.op_seconds.append(seconds)
            label = f"edit {n}"
            rnd.problems += [f"{label}: {p}" for p in (
                checks.conflict_set_problems(
                    base_keys,
                    {c.key for c in pipe.detection.report.conflicts})
                + checks.dirty_tile_problems(
                    windows, rect, pipe.detection.cache_misses))]
            rnd.problems += flow_problems(pipe, self.tech, label)
            del pipe
        rnd.layer["chip.worker_peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return rnd

    def timings(self, rounds: List[Round]) -> Tuple[float, float]:
        """``(cold_s, ops_per_s)``: the median cold run, and warm edits
        per second of their median wall time."""
        cold = statistics.median(r.op_seconds[0] for r in rounds)
        warm = statistics.median(s for r in rounds for s in r.op_seconds[1:])
        return cold, 1.0 / warm


@dataclass
class Cell:
    label: str
    layout: object
    tech: Technology
    expect_conflicts: Optional[int] = None


class CellSweep:
    """A few hundred small layouts, each through the default flow."""

    name = "cell_sweep"
    DESIGN_VARIANTS = 20
    # Consecutive stratum seeds, a whole number of each stratum's
    # seed-modulus periods (density 4, oddcycle 9, tjoin 6, boundary
    # 14), so every seed sweeps the same mix of shapes and sizes.
    STRATA = (("density", 40), ("oddcycle", 36), ("tjoin", 36),
              ("boundary", 42))
    # The monolithic flow raises an AssertionError on these two layouts
    # (see README); they stay in every round as failed operations.
    KNOWN_FAULTS = (("duplicate", 5), ("duplicate", 14))

    def setup(self, seed: int, workdir: str) -> None:
        tech = Technology.node_90nm()
        rng = random.Random(f"cell_sweep:{seed}")
        self.cells: List[Cell] = []
        for name in ("D1", "D2", "D3"):
            first = rng.randrange(10 ** 6)
            design = get_design(name)
            for variant in range(first, first + self.DESIGN_VARIANTS):
                self.cells.append(Cell(f"{name}-s{variant}",
                                       design.build(seed=variant), tech))
        for stratum, count in self.STRATA:
            first = rng.randrange(10 ** 6)
            for s in range(first, first + count):
                scenario = build_scenario(stratum, s)
                self.cells.append(Cell(scenario.name, scenario.layout,
                                       scenario.tech,
                                       scenario.expect_conflicts))
        for stratum, s in self.KNOWN_FAULTS:
            scenario = build_scenario(stratum, s)
            self.cells.append(Cell(scenario.name, scenario.layout,
                                   scenario.tech))
        self.checked: Dict[str, tuple] = {}

    def flow(self, cell: Cell, trace) -> PipelineResult:
        if trace is not None:
            return flow_by_stages(cell.layout, cell.tech, PipelineConfig(),
                                  None, trace)
        return run_aapsm_flow(cell.layout, cell.tech).pipeline

    def run_round(self, trace=None) -> Round:
        rnd = Round()
        areas = []
        for cell in self.cells:
            rnd.attempted += 1
            gc.collect()
            start = time.perf_counter()
            try:
                pipe = self.flow(cell, trace)
            except Exception as exc:  # counted, reported, never hidden
                rnd.op_seconds.append(time.perf_counter() - start)
                rnd.failed += 1
                rnd.errors.append(f"{cell.label}: {type(exc).__name__}: "
                                  f"{exc}")
                continue
            rnd.op_seconds.append(time.perf_counter() - start)
            detected = pipe.detection.report.num_conflicts
            rnd.conflicts += detected
            areas.append(pipe.correction.report.area_increase_pct)
            # The first round's outputs are checked in full; a later
            # round must reproduce them exactly.
            outputs = flow_outputs(pipe)
            first = self.checked.setdefault(cell.label, outputs)
            if first is not outputs:
                if first != outputs:
                    rnd.problems.append(f"{cell.label}: outputs differ "
                                        "from the first round's")
                continue
            rnd.problems += flow_problems(pipe, cell.tech, cell.label)
            if cell.expect_conflicts is not None:
                rnd.problems += [f"{cell.label}: {p}" for p in
                                 checks.conflict_count_problems(
                                     detected, cell.expect_conflicts)]
        rnd.area_increase_pct = sum(areas) / len(areas)
        return rnd

    def timings(self, rounds: List[Round]) -> Tuple[float, float]:
        """``(cold_s, ops_per_s)`` of one sweep, each layout's flow time
        taken as its median over the rounds, so a stall in one round
        moves the sum little."""
        per_cell = [statistics.median(times)
                    for times in zip(*(r.op_seconds for r in rounds))]
        sweep = sum(per_cell)
        return sweep, len(per_cell) / sweep


WORKLOADS = {w.name: w for w in (FullChip, EcoSession, CellSweep)}
