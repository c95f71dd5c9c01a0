"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload synth-corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the timed phase with tracing off and reports the
end-to-end metrics of ``BENCHMARK.json``. ``--trace 1`` runs the same
phase twice, plain and then through the tracing wrappers, checks that
both give identical outcomes, writes the spans to
``.perfbench/trace-<workload>-seed<seed>.jsonl`` and reports the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 1 when an output check fails or a job goes missing, and 2 when
the program's source is not next to the benchmark.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_ms_p50": "ms", "job_ms_p90": "ms",
    "recovery_ms_p50": "ms", "recovery_ms_p90": "ms", "completed_frac": "ratio",
    "error_frac": "ratio", "area_cells_mean": "cells", "makespan_s_mean": "s",
    "fti_mean": "ratio", "routability_mean": "ratio",
    "realized_makespan_s_mean": "s", "peak_rss_mb": "MB", "jobs": "count",
    "recovery_samples": "count", "wall_raw_s": "s", "setup_raw_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith((".share", ".overhead", "_ratio")):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one cold set-up and print it as JSON (used for setup_s)",
    )
    return parser.parse_args(argv)


def cold_setup(args) -> tuple[float, float]:
    """Scaled and raw set-up time of a fresh interpreter running the
    same workload."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["setup_raw_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import speed

    p0 = time.perf_counter()
    before = speed.probe()
    probing = time.perf_counter() - p0
    from harness import (
        cause_counts, end_to_end, lost_jobs, outcome_mismatches, passes_for,
        per_layer, run_phase,
    )
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    workload.warmup()
    setup_raw_s = time.perf_counter() - T0 - probing
    # Scaled like the job times, by probes at both ends of the set-up.
    setup_s = setup_raw_s * speed.scale(before, speed.probe())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    passes = passes_for(workload, args.seconds)
    untraced = run_phase(workload, passes, None)

    lost = lost_jobs(workload, untraced)
    problems = [p for r in untraced.records for p in r.problems]
    problems += outcome_mismatches(untraced, untraced, "repeated pass")
    problems += workload.check()

    if args.trace:
        tracer = Tracer()
        traced = run_phase(workload, passes, tracer)
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl")
        lost += lost_jobs(workload, traced)
        problems += outcome_mismatches(untraced, traced, "traced run")
        proposals = sum(r.proposals for r in untraced.records)
        if tracer.counters.get("placement.proposals", 0) != proposals:
            problems.append(
                f"traced placement.proposals {tracer.counters.get('placement.proposals', 0)}"
                f" != untraced {proposals}"
            )
        metrics = per_layer(tracer, traced, untraced)
        units = {name: layer_unit(name) for name in metrics}
        wanted = spec["per_layer"]
    else:
        setups = [(setup_s, setup_raw_s)]
        setups += [cold_setup(args) for _ in range(SETUP_REPEATS - 1)]
        metrics = end_to_end(untraced, statistics.median(s for s, _ in setups))
        metrics["setup_raw_s"] = statistics.median(raw for _, raw in setups)
        units = END_TO_END_UNITS
        wanted = spec["end_to_end"]

    records = untraced.records
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"jobs {len(workload.jobs())}  trace {args.trace}")
    if not args.trace:
        print("set-ups (s, scaled/raw): "
              + ", ".join(f"{s:.3f}/{raw:.3f}" for s, raw in setups))
    if len(workload.jobs()) <= 20:
        print(f"{'job':<34} {'status':<10} {'ms':>9} {'area':>5} {'fti':>7} "
              f"{'makespan':>8} {'route':>6} {'proposals':>9}")
        for r in records:
            print(f"{r.label:<34} {r.status:<10} {r.ms:9.1f} {r.area_cells:5.0f} "
                  f"{r.fti or 0:7.4f} {r.makespan_s:8g} {r.routability:6.3f} "
                  f"{r.proposals:9d}")
    for name, value in metrics.items():
        if value is not None:
            print(f"{name:<28} {value:14.6f} {units[name]}")
    print("queue wait: none; the run is serial in one process")
    for cause, n in cause_counts(untraced).items():
        print(f"cause  {n:4d}  {cause}")
    for job_id in lost:
        print(f"LOST job {job_id}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        print(f"error: metrics not measured on {args.workload}: {missing}", file=sys.stderr)
        return 1
    correct = not problems and not lost
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.status == "error" for r in records),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
