"""Output checks made apart from the program under test.

Nothing here imports ``repro``: every check works on plain rectangle
tuples ``(x1, y1, x2, y2)`` in integer nanometres and on the numbers of
the rule deck, and recomputes what it needs from the paper's
definitions rather than calling the program's own verifier.  Each
check returns a list of problem strings; an empty list means the output
passed.

* :func:`phase_problems` — the paper's two conditions on a returned
  phase assignment, against shifters regenerated here from the
  features: the two shifters of a critical feature carry opposite
  phases (Condition 1), and shifters that overlap or sit closer than
  ``shifter_spacing`` carry the same phase (Condition 2).
* :func:`unassignable_problems` — when the program reports that no
  valid assignment exists, a parity union-find over the same
  constraints must find a contradiction.
* :func:`area_problems` — the reported die-area increase recomputed
  from the two bounding boxes; the polygon count must not change.
* :func:`conflict_count_problems` — a detected conflict count against
  a known optimum (the ``tjoin`` stratum carries one).
* :func:`dirty_tile_problems` — a warm ECO run's tile-cache misses
  against the tiles whose capture window touches the edited rect.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

Rect = Tuple[int, int, int, int]

# Bucket edge for the proximity sweep, in nm.  Any value works (pairs
# are confirmed by the exact separation test); this one keeps a 90 nm
# deck's shifters in one to four buckets each.
BUCKET = 1024


def rect_tuples(rects) -> List[Rect]:
    """``(x1, y1, x2, y2)`` tuples from anything with those attributes."""
    return [(r.x1, r.y1, r.x2, r.y2) for r in rects]


def flanking_shifters(features: Sequence[Rect], tech
                      ) -> List[Tuple[int, Rect]]:
    """Regenerate ``(feature index, shifter rect)`` rows from the deck.

    A feature whose smaller side is below ``critical_width`` gets two
    shifters of ``shifter_width`` on the two sides of that smaller
    side, extended past both line ends by ``shifter_extension``.  A
    feature at least as tall as wide is vertical (left, then right);
    otherwise horizontal (bottom, then top).  Rows come in feature
    order, which is also the numbering of the program's shifter ids.
    """
    w, e = tech.shifter_width, tech.shifter_extension
    rows: List[Tuple[int, Rect]] = []
    for index, (x1, y1, x2, y2) in enumerate(features):
        width, height = x2 - x1, y2 - y1
        if min(width, height) >= tech.critical_width:
            continue
        if height >= width:
            rows.append((index, (x1 - w, y1 - e, x1, y2 + e)))
            rows.append((index, (x2, y1 - e, x2 + w, y2 + e)))
        else:
            rows.append((index, (x1 - e, y1 - w, x2 + e, y1)))
            rows.append((index, (x1 - e, y2, x2 + e, y2 + w)))
    return rows


def separation_sq(a: Rect, b: Rect) -> int:
    """Squared Euclidean distance between two closed rects (0 when
    they touch or overlap)."""
    dx = max(0, a[0] - b[2], b[0] - a[2])
    dy = max(0, a[1] - b[3], b[1] - a[3])
    return dx * dx + dy * dy


def close_pairs(rects: Sequence[Rect], groups: Sequence[int],
                spacing: int) -> Set[Tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, of rects closer than
    ``spacing`` whose groups differ, by a grid-bucket sweep.

    Every rect is filed under each bucket its closed extent touches; a
    rect inflated by ``spacing`` then meets every rect within reach in
    the buckets it touches, and the exact integer separation test
    decides.
    """
    buckets: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    limit = spacing * spacing
    pairs: Set[Tuple[int, int]] = set()
    for j, r in enumerate(rects):
        seen: Set[int] = set()
        for bx in range((r[0] - spacing) // BUCKET,
                        (r[2] + spacing) // BUCKET + 1):
            for by in range((r[1] - spacing) // BUCKET,
                            (r[3] + spacing) // BUCKET + 1):
                for i in buckets.get((bx, by), ()):
                    if i in seen:
                        continue
                    seen.add(i)
                    if groups[i] != groups[j] and \
                            separation_sq(rects[i], r) < limit:
                        pairs.add((i, j))
        for bx in range(r[0] // BUCKET, r[2] // BUCKET + 1):
            for by in range(r[1] // BUCKET, r[3] // BUCKET + 1):
                buckets[(bx, by)].append(j)
    return pairs


def phase_problems(features: Sequence[Rect], tech,
                   phases: Dict[int, int]) -> List[str]:
    """Check a phase assignment against the paper's two conditions.

    ``features`` are the corrected layout's feature rects, ``phases``
    the program's ``{shifter id: 0 or 180}``.
    """
    rows = flanking_shifters(features, tech)
    problems: List[str] = []
    if sorted(phases) != list(range(len(rows))):
        problems.append(
            f"assignment covers {len(phases)} shifter ids, the features "
            f"call for ids 0..{len(rows) - 1}")
        return problems
    bad = sorted({p for p in phases.values()} - {0, 180})
    if bad:
        problems.append(f"phases outside {{0, 180}}: {bad[:5]}")
    for sid in range(0, len(rows), 2):
        if phases[sid] == phases[sid + 1]:
            problems.append(
                f"condition 1: feature {rows[sid][0]} has both shifters "
                f"({sid}, {sid + 1}) at phase {phases[sid]}")
    groups = [feature for feature, _ in rows]
    for i, j in sorted(close_pairs([rect for _, rect in rows], groups,
                                   tech.shifter_spacing)):
        if phases[i] != phases[j]:
            problems.append(
                f"condition 2: shifters {i} and {j} are closer than "
                f"{tech.shifter_spacing} nm but carry phases "
                f"{phases[i]} / {phases[j]}")
    return problems


def unassignable_problems(features: Sequence[Rect], tech) -> List[str]:
    """Confirm that no phase assignment satisfies both conditions.

    A parity union-find joins the constraints (Condition 1: different
    parity; Condition 2: equal parity); a contradiction proves the
    layout unassignable.  Returns a problem when none turns up.
    """
    rows = flanking_shifters(features, tech)
    parent = list(range(len(rows)))
    parity = [0] * len(rows)

    def find(x: int) -> Tuple[int, int]:
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    def join(a: int, b: int, differ: int) -> bool:
        (ra, pa), (rb, pb) = find(a), find(b)
        if ra == rb:
            return (pa ^ pb) == differ
        parent[ra] = rb
        parity[ra] = pa ^ pb ^ differ
        return True

    consistent = all(join(sid, sid + 1, 1)
                     for sid in range(0, len(rows), 2))
    groups = [feature for feature, _ in rows]
    pairs = close_pairs([rect for _, rect in rows], groups,
                        tech.shifter_spacing)
    consistent = consistent and all(join(i, j, 0)
                                    for i, j in sorted(pairs))
    if consistent:
        return ["the program reports no valid phase assignment, but the "
                "two conditions are jointly satisfiable"]
    return []


def bbox(rects: Sequence[Rect]) -> Rect:
    return (min(r[0] for r in rects), min(r[1] for r in rects),
            max(r[2] for r in rects), max(r[3] for r in rects))


def bbox_area(rects: Sequence[Rect]) -> int:
    x1, y1, x2, y2 = bbox(rects)
    return (x2 - x1) * (y2 - y1)


def area_problems(before: Sequence[Rect], after: Sequence[Rect],
                  reported_pct: float) -> List[str]:
    """The die-area increase from the two bounding boxes (Table 2's
    metric), and an unchanged polygon count."""
    problems: List[str] = []
    if len(before) != len(after):
        problems.append(f"polygon count changed: {len(before)} -> "
                        f"{len(after)}")
    area0, area1 = bbox_area(before), bbox_area(after)
    expected = 100.0 * (area1 - area0) / area0
    if not math.isclose(reported_pct, expected, rel_tol=1e-9,
                        abs_tol=1e-12):
        problems.append(f"area increase reported {reported_pct!r}%, "
                        f"bounding boxes give {expected!r}%")
    return problems


def conflict_count_problems(detected: int, optimum: int) -> List[str]:
    """A detected conflict count against a known optimum."""
    if detected != optimum:
        return [f"{detected} conflicts detected, the known optimum is "
                f"{optimum}"]
    return []


def capture_windows(die: Rect, nx: int, ny: int,
                    halo: int) -> List[Rect]:
    """Capture windows of an ``nx`` x ``ny`` grid over the die.

    The cores split the half-open cover ``[lo, hi + 1)`` of each axis
    into equal integer parts; a tile captures everything that touches
    its core inflated by ``halo``.
    """
    def cuts(lo: int, hi: int, n: int) -> List[int]:
        span = hi + 1 - lo
        return [lo + (span * i) // n for i in range(n + 1)]

    xs, ys = cuts(die[0], die[2], nx), cuts(die[1], die[3], ny)
    return [(xs[ix] - halo, ys[iy] - halo,
             xs[ix + 1] + halo, ys[iy + 1] + halo)
            for iy in range(ny) for ix in range(nx)]


def touching_windows(windows: Sequence[Rect], rect: Rect) -> List[int]:
    """Indices of the windows a closed rect touches."""
    return [i for i, w in enumerate(windows)
            if rect[0] <= w[2] and w[0] <= rect[2]
            and rect[1] <= w[3] and w[1] <= rect[3]]


def dirty_tile_problems(windows: Sequence[Rect], edited_rect: Rect,
                        misses: int) -> List[str]:
    """A warm run must recompute exactly the tiles whose capture
    window touches the edited rect, and replay every other tile."""
    expected = len(touching_windows(windows, edited_rect))
    if misses != expected:
        return [f"warm run recomputed {misses} tile(s); the edit touches "
                f"{expected} capture window(s)"]
    return []


def conflict_set_problems(base: Set[Tuple[int, int]],
                          edited: Set[Tuple[int, int]]) -> List[str]:
    """A conflict-neutral edit leaves the detected conflict set as is."""
    if base != edited:
        return [f"conflict set changed by a conflict-neutral edit: "
                f"{len(base - edited)} lost, {len(edited - base)} gained"]
    return []
