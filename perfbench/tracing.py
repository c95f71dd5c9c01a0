"""Spans and counters recorded around the program's public calls.

The traced run wraps each layer boundary from outside: a placer
subclass passed through ``placer=``, a routing synthesizer subclass
passed to the recovery engine through ``synthesizer=``, a recovery
engine through ``engine=``, and a span around each of a pipeline's own
stages. Nothing under ``src/`` changes.

A span records its name, start, end, parent span and job id. Spans stay
in memory and are written out when the run ends. A layer is the first
dotted component of a span name (``recovery.replace`` belongs to
``recovery``); the ``job`` span belongs to no layer, so its self time
is unattributed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.pipeline import Pipeline
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.recovery.engine import OnlineRecoveryEngine
from repro.routing.synthesis import RoutingSynthesizer

#: Layers the summary reports, in print order.
LAYERS = ("synthesis", "placement", "fault", "routing", "sim", "recovery")

#: Span name of the per-job root span (no layer).
JOB_SPAN = "job"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        #: Job id stamped on every span opened while it is set.
        self.job: str | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part its children cover, summed per name."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for s, child in zip(self.spans, covered):
            totals[s.name] += (s.end - s.start) - child
        return dict(totals)

    def layer_self_times(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += seconds
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op context when untraced."""
    return tracer.span(name) if tracer is not None else nullcontext()


# -- wrappers around the public calls ----------------------------------------


class TracedPlacer(SimulatedAnnealingPlacer):
    """The annealing placer, with a ``placement`` span per call."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer

    def place(self, schedule, binding):
        with self.tracer.span("placement"):
            result = super().place(schedule, binding)
        count = self.tracer.count
        count("placement.calls")
        count("placement.proposals", result.stats.evaluations)
        count("placement.accepts", result.stats.acceptances)
        count("placement.rounds", result.stats.rounds)
        count("placement.repaired", int(result.repaired))
        return result


def count_plan(tracer: Tracer, plan) -> None:
    count = tracer.count
    count("routing.calls")
    count("routing.nets", plan.routed_count + plan.failed_count)
    count("routing.failed_nets", plan.failed_count)
    count("routing.route_steps", plan.total_route_steps)
    count("routing.wait_steps", plan.total_wait_steps)


def count_report(tracer: Tracer, report) -> None:
    count = tracer.count
    count("sim.calls")
    count("sim.events", len(report.events))
    count("sim.transport_cells", report.total_transport_cells)
    count("sim.planned_transports", report.planned_transports)
    count("sim.relocations", len(report.relocations))
    count("sim.incomplete", int(not report.completed))


class TracedRoutingSynthesizer(RoutingSynthesizer):
    """The routing synthesizer, with a ``routing`` span per call."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer

    def synthesize(self, *args, **kwargs):
        with self.tracer.span("routing"):
            plan = super().synthesize(*args, **kwargs)
        count_plan(self.tracer, plan)
        return plan


def count_fti(tracer: Tracer, context) -> None:
    if context.fti_report is not None:
        tracer.count("fault.fti.calls")


#: Span of each default pipeline stage, and the counters read from the
#: context after it ran. The ``place`` span's child is the placer's own
#: ``placement`` span, so its self time is the FTI report.
STAGE_SPANS = {
    "bind": ("synthesis.bind", None),
    "schedule": ("synthesis.schedule", None),
    "place": ("fault.fti", count_fti),
    "route": ("routing", lambda t, c: count_plan(t, c.routing_plan)),
    "verify": ("sim", lambda t, c: count_report(t, c.sim_report)),
}


class TracedStage:
    """A pipeline stage, run unchanged inside the span ``STAGE_SPANS``
    names for it."""

    def __init__(self, stage, tracer: Tracer) -> None:
        self.stage = stage
        self.name = stage.name
        self.uses_faults = stage.uses_faults
        self.span_name, self.counts = STAGE_SPANS[stage.name]
        self.tracer = tracer

    def run(self, context) -> None:
        with self.tracer.span(self.span_name):
            self.stage.run(context)
        if self.counts is not None:
            self.counts(self.tracer, context)


def traced(pipeline: Pipeline, tracer: Tracer | None) -> Pipeline:
    """*pipeline* with each of its own stages wrapped in its span."""
    if tracer is None:
        return pipeline
    return Pipeline([TracedStage(stage, tracer) for stage in pipeline.stages])


class MeteredEngine(OnlineRecoveryEngine):
    """The recovery engine, timed around every ``recover`` call.

    ``calls`` gets one ``(rung, seconds, recovered)`` entry per call in
    both runs, since ``recovery_ms`` is an end-to-end metric. With a
    tracer, ``recover`` and ``checkpoint_of`` also open spans.
    """

    def __init__(self, tracer: Tracer | None = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer
        self.calls: list[tuple[str, float, bool]] = []

    def checkpoint_of(self, result, fault_time_s, known_faults=()):
        if self.tracer is None:
            return super().checkpoint_of(result, fault_time_s, known_faults)
        with self.tracer.span("recovery.checkpoint"):
            checkpoint = super().checkpoint_of(result, fault_time_s, known_faults)
        self.tracer.count("recovery.checkpoint.calls")
        return checkpoint

    def recover(self, result, fault_cells, fault_time_s, seed=None,
                checkpoint=None, known_faults=(), rung="replace"):
        recovered = False
        t0 = time.perf_counter()
        try:
            with span(self.tracer, f"recovery.{rung}"):
                outcome = super().recover(
                    result, fault_cells, fault_time_s, seed=seed,
                    checkpoint=checkpoint, known_faults=known_faults, rung=rung,
                )
            recovered = outcome.recovered
            return outcome
        finally:
            self.calls.append((rung, time.perf_counter() - t0, recovered))
            if self.tracer is not None:
                self.tracer.count(f"recovery.{rung}.calls")
                self.tracer.count(f"recovery.{rung}.ok", int(recovered))
