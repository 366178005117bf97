"""Tests for the benchmark's own output checks.

Each check must pass on the program's real output and reject a
deliberately corrupted copy of it.  Run from the repository root::

    PYTHONPATH=src python -m pytest flowbench -q
"""

from __future__ import annotations

import json
import random

import pytest

import checks
from repro import run_aapsm_flow
from repro.layout import Technology, figure1_layout
from repro.scenarios import build_scenario

TECH = Technology.node_90nm()


@pytest.fixture(scope="module")
def tjoin():
    """A corrected ``tjoin`` layout: conflicts, cuts and an area cost."""
    scenario = build_scenario("tjoin", 4)
    result = run_aapsm_flow(scenario.layout, scenario.tech)
    assert result.success
    return scenario, result


def features(layout):
    return checks.rect_tuples(layout.features)


def test_phase_check_accepts_program_output(tjoin):
    _scenario, result = tjoin
    assert checks.phase_problems(features(result.corrected_layout), TECH,
                                 result.assignment.phases) == []


def test_phase_check_rejects_one_flipped_shifter(tjoin):
    _scenario, result = tjoin
    phases = dict(result.assignment.phases)
    phases[3] = 180 - phases[3]
    problems = checks.phase_problems(features(result.corrected_layout),
                                     TECH, phases)
    assert any(p.startswith("condition 1") for p in problems)


def test_phase_check_rejects_a_split_overlap_pair(tjoin):
    """Flipping both shifters of a feature keeps Condition 1 and must
    break Condition 2 with the feature's close neighbours."""
    _scenario, result = tjoin
    after = features(result.corrected_layout)
    rows = checks.flanking_shifters(after, TECH)
    pairs = checks.close_pairs([r for _, r in rows], [f for f, _ in rows],
                               TECH.shifter_spacing)
    sid = min(i for pair in pairs for i in pair) // 2 * 2
    phases = dict(result.assignment.phases)
    phases[sid], phases[sid + 1] = phases[sid + 1], phases[sid]
    problems = checks.phase_problems(after, TECH, phases)
    assert problems
    assert all(p.startswith("condition 2") for p in problems)


def test_phase_check_rejects_a_missing_shifter(tjoin):
    _scenario, result = tjoin
    phases = dict(result.assignment.phases)
    del phases[max(phases)]
    assert checks.phase_problems(features(result.corrected_layout), TECH,
                                 phases)


def test_close_pairs_matches_brute_force():
    rng = random.Random(7)
    rects = []
    for _ in range(300):
        x, y = rng.randrange(-3000, 3000), rng.randrange(-3000, 3000)
        rects.append((x, y, x + rng.randrange(1, 2500),
                      y + rng.randrange(1, 400)))
    groups = [i // 2 for i in range(len(rects))]
    expected = {(i, j) for j in range(len(rects)) for i in range(j)
                if groups[i] != groups[j]
                and checks.separation_sq(rects[i], rects[j]) < 120 * 120}
    assert checks.close_pairs(rects, groups, 120) == expected


def test_unassignable_check():
    odd_cycle = features(figure1_layout())
    assert checks.unassignable_problems(odd_cycle, TECH) == []
    result = run_aapsm_flow(figure1_layout(), TECH)
    assert checks.unassignable_problems(
        features(result.corrected_layout), TECH)


def test_area_check_accepts_program_output(tjoin):
    _scenario, result = tjoin
    assert result.correction.area_increase_pct > 0
    assert checks.area_problems(features(result.layout),
                                features(result.corrected_layout),
                                result.correction.area_increase_pct) == []


def test_area_check_rejects_an_off_by_one_area(tjoin):
    _scenario, result = tjoin
    before = features(result.layout)
    after = features(result.corrected_layout)
    report = result.correction
    off_by_one = 100.0 * (report.area_after + 1 - report.area_before) \
        / report.area_before
    assert checks.area_problems(before, after, off_by_one)
    # One nanometre more die width on the corrected side.
    index = max(range(len(after)), key=lambda i: after[i][2])
    x1, y1, x2, y2 = after[index]
    wider = after[:index] + [(x1, y1, x2 + 1, y2)] + after[index + 1:]
    assert checks.area_problems(before, wider,
                                report.area_increase_pct)


def test_area_check_rejects_a_changed_polygon_count(tjoin):
    _scenario, result = tjoin
    after = features(result.corrected_layout)
    problems = checks.area_problems(features(result.layout),
                                    after + [after[0]],
                                    result.correction.area_increase_pct)
    assert any("polygon count" in p for p in problems)


def test_tjoin_count_check(tjoin):
    scenario, result = tjoin
    detected = result.detection.num_conflicts
    assert checks.conflict_count_problems(
        detected, scenario.expect_conflicts) == []
    assert checks.conflict_count_problems(detected + 1,
                                          scenario.expect_conflicts)
    assert checks.conflict_count_problems(detected - 1,
                                          scenario.expect_conflicts)


def test_dirty_tile_check():
    windows = checks.capture_windows((0, 0, 9999, 9999), 4, 4, 100)
    assert len(windows) == 16
    inside = (1000, 1000, 1090, 1500)       # one window only
    on_seam = (2450, 1000, 2540, 1500)      # two columns of windows
    assert checks.dirty_tile_problems(windows, inside, 1) == []
    assert checks.dirty_tile_problems(windows, inside, 2)
    assert checks.dirty_tile_problems(windows, on_seam, 2) == []
    assert checks.dirty_tile_problems(windows, on_seam, 1)


def test_conflict_set_check():
    base = {(1, 2), (5, 9)}
    assert checks.conflict_set_problems(base, set(base)) == []
    assert checks.conflict_set_problems(base, {(1, 2)})
    assert checks.conflict_set_problems(base, base | {(3, 4)})


def test_reported_metrics_match_benchmark_json():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
