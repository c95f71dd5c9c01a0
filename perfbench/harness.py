"""Timed passes, failure accounting, output checks and metrics.

A run is: set up the workload (inputs, nominal designs, one untimed
warm-up job), run the fixed job list for a whole number of passes with
tracing off, and check the outputs outside the timed window. A traced
run then repeats the same passes through the tracing wrappers and must
reproduce every job's outcome exactly.
"""

from __future__ import annotations

import re
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.recovery.engine import RECOVERY_RUNGS

import speed
from tracing import JOB_SPAN, LAYERS, Tracer, span
from workloads import JobRecord, Workload, check_design

#: Percentiles beyond the median need this many samples (ten beyond p90).
MIN_P90_SAMPLES = 100


@dataclass
class Phase:
    """Records and per-pass wall times of one timed phase."""

    records: list[JobRecord] = field(default_factory=list)
    #: Raw wall seconds of each pass.
    pass_walls: list[float] = field(default_factory=list)
    #: Each pass's job times scaled to the reference speed, summed.
    scaled_walls: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return statistics.median(self.scaled_walls)

    @property
    def wall_raw_s(self) -> float:
        return statistics.median(self.pass_walls)


def passes_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.nominal_pass_s))


def run_phase(workload: Workload, passes: int, tracer: Tracer | None) -> Phase:
    """Run every job of the list *passes* times; one record per attempt.

    A job that raises is recorded as an error with its exception class
    and message, and the phase goes on. A speed probe runs before the
    first job and after each job; it and each job's design check run
    outside the job timings and are left out of the pass wall time.
    """
    phase = Phase()
    jobs = workload.jobs()
    for _ in range(passes):
        start = time.perf_counter()
        b0 = time.perf_counter()
        before = speed.probe()
        between = time.perf_counter() - b0
        scaled = 0.0
        for job in jobs:
            if tracer is not None:
                tracer.job = job.id
            t0 = time.perf_counter()
            try:
                with span(tracer, JOB_SPAN):
                    record = workload.run_job(job, tracer)
            except Exception as exc:  # the job boundary: record and go on
                record = JobRecord(
                    job.id, job.label, "error", f"{type(exc).__name__}: {exc}"
                )
            record.ms = (time.perf_counter() - t0) * 1000.0
            b0 = time.perf_counter()
            after = speed.probe()
            record.scale = speed.scale(before, after)
            before = after
            scaled += record.ms * record.scale / 1000.0
            if record.design is not None:
                check_design(record, *record.design)
                record.design = None
            between += time.perf_counter() - b0
            phase.records.append(record)
        phase.pass_walls.append(time.perf_counter() - start - between)
        phase.scaled_walls.append(scaled)
    return phase


def lost_jobs(workload: Workload, phase: Phase) -> list[str]:
    """Jobs of the list without exactly one record per pass."""
    expected = Counter(j.id for j in workload.jobs())
    passes = len(phase.pass_walls)
    seen = Counter(r.job_id for r in phase.records)
    return sorted(
        job_id
        for job_id in expected.keys() | seen.keys()
        if seen[job_id] != expected[job_id] * passes
    )


def outcome_mismatches(reference: Phase, other: Phase, what: str) -> list[str]:
    """Jobs whose outcome differs between two phases (or two passes)."""
    first = {}
    for r in reference.records:
        first.setdefault(r.job_id, r.outcome())
    return [
        f"{what}: job {r.job_id} outcome {r.outcome()} != {first.get(r.job_id)}"
        for r in other.records
        if r.outcome() != first.get(r.job_id)
    ]


def cause_key(cause: str) -> str:
    """A cause with its numbers and cells blanked, for per-cause counts."""
    return re.sub(r"-?\d+(\.\d+)?(e-?\d+)?", "#", cause)[:100]


def cause_counts(phase: Phase) -> dict[str, int]:
    counts = Counter(
        f"{r.status}: {cause_key(r.cause)}"
        for r in phase.records
        if r.status != "completed"
    )
    return dict(sorted(counts.items()))


def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def _p90(values) -> float | None:
    if len(values) < MIN_P90_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(phase: Phase, setup_s: float) -> dict[str, float | None]:
    """Every end-to-end metric the phase supports (``None`` = not reported).

    Times are scaled to the reference speed (see :mod:`speed`);
    ``wall_raw_s`` is the unscaled wall time.
    """
    records = phase.records
    attempted = len(records)
    job_ms = [r.ms * r.scale for r in records]
    responses = [ms * r.scale for r in records for ms in r.recovery_ms]
    return {
        "setup_s": setup_s,
        "wall_s": phase.wall_s,
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_p90": _p90(job_ms),
        "recovery_ms_p50": statistics.median(responses) if responses else None,
        "recovery_ms_p90": _p90(responses),
        "completed_frac": sum(r.status == "completed" for r in records) / attempted,
        "error_frac": sum(r.status == "error" for r in records) / attempted,
        "area_cells_mean": _mean(r.area_cells for r in records),
        "makespan_s_mean": _mean(r.makespan_s for r in records),
        "fti_mean": _mean(r.fti for r in records),
        "routability_mean": _mean(r.routability for r in records),
        "realized_makespan_s_mean": _mean(r.realized_makespan_s for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_raw_s": phase.wall_raw_s,
        "jobs": attempted,
        "recovery_samples": len(responses),
    }


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> dict[str, float]:
    """Per-layer sums over the traced phase, plus shares and overhead.

    Layer times are raw; shares divide by the raw traced wall.
    ``trace.overhead`` compares the scaled walls of the two phases.
    """
    wall = sum(traced.pass_walls)
    selfs = tracer.self_times()
    layers = tracer.layer_self_times()
    c = tracer.counters
    m: dict[str, float] = {
        "synthesis.bind.s": selfs.get("synthesis.bind", 0.0),
        "synthesis.schedule.s": selfs.get("synthesis.schedule", 0.0),
        "placement.s": selfs.get("placement", 0.0),
        "fault.fti.s": selfs.get("fault.fti", 0.0),
        "routing.s": selfs.get("routing", 0.0),
        "sim.s": selfs.get("sim", 0.0),
        "recovery.checkpoint.s": selfs.get("recovery.checkpoint", 0.0),
        "recovery.loop.s": selfs.get("recovery.loop", 0.0),
    }
    for rung in RECOVERY_RUNGS:
        m[f"recovery.{rung}.s"] = selfs.get(f"recovery.{rung}", 0.0)
    for name in (
        "placement.calls", "placement.proposals", "placement.accepts",
        "placement.rounds", "placement.repaired",
        "fault.fti.calls",
        "routing.calls", "routing.nets", "routing.failed_nets",
        "routing.route_steps", "routing.wait_steps",
        "sim.calls", "sim.events", "sim.transport_cells",
        "sim.planned_transports", "sim.relocations", "sim.incomplete",
        "recovery.checkpoint.calls", "recovery.aborts",
        *(f"recovery.{rung}.{k}" for rung in RECOVERY_RUNGS for k in ("calls", "ok")),
        "testing.probes", "testing.detections", "testing.false_alarms",
        "testing.watchdog_rounds",
    ):
        m[name] = c.get(name, 0.0)
    proposals = m["placement.proposals"]
    m["placement.accept_ratio"] = m["placement.accepts"] / proposals if proposals else 0.0
    m["placement.proposals_per_s"] = proposals / m["placement.s"] if m["placement.s"] else 0.0
    for layer in LAYERS:
        m[f"{layer}.share"] = layers[layer] / wall
    m["unattributed.share"] = 1.0 - sum(layers.values()) / wall
    m["trace.overhead"] = sum(traced.scaled_walls) / sum(untraced.scaled_walls)
    return m
