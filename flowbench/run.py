#!/usr/bin/env python3
"""Benchmark command for the AAPSM flow.

Run from the root of a checkout::

    python3 flowbench/run.py --workload full_chip --seed 1 --trace 0
    python3 flowbench/run.py --workload all --seed 1          # every workload
    python3 flowbench/run.py --workload cell_sweep --repeat 5  # quartiles

One run builds its inputs from ``--seed`` (set-up, timed as
``setup_s``), then runs whole rounds of the workload's operations until
``--seconds`` of operation time have been measured, checks every output
with :mod:`checks`, and prints the metrics; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, measured with no wrapper installed; ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics.
``--workload all`` and ``--repeat N`` run each workload, seed by seed,
in a fresh interpreter.  The exit code is 0 only when every output
passed its checks.  See README.md for what each metric means.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("full_chip", "eco_session", "cell_sweep")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "conflicts": "count",
    "area_increase_pct": "%",
}

PIPELINE_STAGES = ("shifters", "detect", "correct", "verify", "assign")
# Per-layer metrics from self time of the benchmark's spans.
SELF_TIMES = (
    "gdsii.read", "gdsii.write",
    "shifters.generate", "shifters.overlap", "shifters.splice",
    "conflict.graph_build", "conflict.detect",
    "graph.planarize", "graph.bipartize", "graph.matching",
    "graph.residual", "graph.coloring",
    "chip.partition", "chip.execute", "chip.stitch",
    "cache.get", "cache.put",
    "correction.plan", "correction.apply",
    "phase.assign", "phase.verify",
    "eco.plan",
)
RECORDED_COUNTS = (
    "shifters.count", "shifters.overlap_pairs",
    "conflict.pcg_nodes", "conflict.pcg_edges",
    "graph.matching_calls", "correction.windows", "correction.cuts",
    "phase.recolored", "eco.dirty_tiles",
)
PER_LAYER = dict(
    [(f"pipeline.{stage}_s", "s") for stage in PIPELINE_STAGES]
    + [(f"{name}_s", "s") for name in SELF_TIMES]
    + [(name, "count") for name in RECORDED_COUNTS]
    + [("chip.tile_s", "s"), ("chip.tile_jobs", "count"),
       ("chip.stitch_rearbitrated", "count"),
       ("chip.worker_peak_rss_mb", "MB"),
       ("cache.hits", "count"), ("cache.misses", "count"),
       ("cache.bytes_read", "bytes"), ("cache.bytes_written", "bytes"),
       ("gc.pause_s", "s"), ("gc.gen2_collections", "count"),
       ("trace.overhead_s", "s")]
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SetupError(f"cannot import repro from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"repro imported from {repro.__file__}, "
                         f"not from {src}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, rounds, setup_s: float) -> dict:
    last = rounds[-1]
    cold_s, ops_per_s = workload.timings(rounds)
    values = {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "ops_per_s": ops_per_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "conflicts": last.conflicts,
        "area_increase_pct": last.area_increase_pct,
    }
    return {name: metric(values[name], unit)
            for name, unit in END_TO_END.items()}


def traced_round(workload):
    """One round under the span wrappers, the program's own telemetry
    tracer (for its cache and executor counters and worker spans) and
    the GC monitor; returns ``(round, per-layer values)``."""
    import tracing
    from repro.obs import Tracer, iter_spans, use_tracer

    recorder = tracing.SpanRecorder()
    telemetry = Tracer()
    restore = tracing.install(recorder)
    try:
        with use_tracer(telemetry), \
                tracing.GcMonitor(recorder) as gc_monitor:
            rnd = workload.run_round(recorder)
    finally:
        restore()

    self_s = recorder.self_seconds()
    total_s = recorder.total_seconds()
    counters = telemetry.metrics.as_dict()["counters"]

    def cache_sum(suffix: str) -> float:
        return sum(v for k, v in counters.items()
                   if k.startswith("cache.") and k.endswith(suffix))

    values = {f"pipeline.{stage}_s": total_s.get(f"pipeline.{stage}", 0.0)
              for stage in PIPELINE_STAGES}
    values.update({f"{name}_s": self_s.get(name, 0.0)
                   for name in SELF_TIMES})
    values.update({name: recorder.counts.get(name, 0)
                   for name in RECORDED_COUNTS})
    values.update({
        "chip.tile_s": sum(span.seconds
                           for span, _depth in iter_spans(telemetry.roots)
                           if span.name == "tile"
                           and not span.attrs.get("cached")),
        "chip.tile_jobs": counters.get("executor.jobs", 0),
        "chip.stitch_rearbitrated": counters.get("cache.stitch.misses", 0),
        "chip.worker_peak_rss_mb": rnd.layer.get(
            "chip.worker_peak_rss_mb", 0.0),
        "cache.hits": cache_sum(".hits"),
        "cache.misses": cache_sum(".misses"),
        "cache.bytes_read": cache_sum(".bytes_read"),
        "cache.bytes_written": cache_sum(".bytes_written"),
        "gc.pause_s": gc_monitor.pause_s,
        "gc.gen2_collections": gc_monitor.gen2,
    })
    return rnd, values


def run_once(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One benchmark run of one workload in this interpreter."""
    try:
        load_program()
    except SetupError as exc:
        print(f"flowbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - _START
    workload = workloads.WORKLOADS[name]()
    workdir = tempfile.mkdtemp(prefix=".flowbench-", dir=ROOT)
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            workload.setup(seed, workdir)
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        rounds = [workload.run_round()]
        if trace:
            traced, layer = traced_round(workload)
            rounds.append(traced)
            layer["trace.overhead_s"] = traced.wall_s - rounds[0].wall_s
            metrics = {n: metric(layer[n], u) for n, u in PER_LAYER.items()}
        else:
            while sum(r.wall_s for r in rounds) < seconds:
                rounds.append(workload.run_round())
            metrics = end_to_end(workload, rounds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    errors = [e for r in rounds for e in r.errors]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {name}, seed {seed}, {len(rounds)} round(s), "
          f"{attempted} operations attempted, {failed} failed")
    for error in sorted(set(errors)):
        print(f"  failed: {error}")
    for problem in problems[:20]:
        print(f"  check failed: {problem}")
    for key, m in metrics.items():
        print(f"  {key:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def child_run(name: str, seed: int, seconds: float, trace: int):
    """Run one workload in a fresh interpreter; returns its result
    object, or None when it exited without one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  [{name}] {line}")
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        print(f"  [{name}] exited with code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_repeated(names, seed: int, repeat: int, seconds: float,
                 trace: int) -> int:
    """Each workload ``repeat`` times, seeds ``seed, seed + 1, ...``;
    prints each metric's median, quartiles and relative spread."""
    ok = True
    summary = {}
    for name in names:
        results = []
        for s in range(seed, seed + repeat):
            result = child_run(name, s, seconds, trace)
            if result is None or not result["correct"]:
                ok = False
            if result is not None:
                results.append(result)
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{name}: {len(results)} run(s), failed share per run "
              f"{shares}")
        for key, first in results[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            summary[f"{name}.{key}"] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": spread,
                                        "unit": first["unit"]}
            print(f"  {key:<28} median {med:>14.6g}  q1 {q1:>14.6g}  "
                  f"q3 {q3:>14.6g}  spread {spread:8.4f} {first['unit']}")
    print(json.dumps(summary))
    return 0 if ok else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload once, each in a fresh interpreter."""
    results = {}
    for name in WORKLOADS:
        result = child_run(name, seed, seconds, trace)
        if result is None:
            return 1
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="operation time to measure; whole rounds "
                             "run until it is reached (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N seeds from --seed, each in a fresh "
                             "interpreter, and print medians and "
                             "quartiles")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"flowbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.repeat:
        return run_repeated(names, args.seed, args.repeat, args.seconds,
                            args.trace)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_once(args.workload, args.seed, args.seconds,
                    bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
