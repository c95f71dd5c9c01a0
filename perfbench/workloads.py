"""The benchmark's three workloads.

Each workload draws its input from the workload seed, builds its
nominal designs in ``setup``, and exposes a fixed job list. ``run_job``
runs one job through the program's public entry points, either plainly
(``tracer=None``) or through the wrappers in :mod:`tracing`; both paths
must produce the same record.

* ``synth-corpus``: the full default pipeline on the bundled assays and
  one generated spec per family. Placement does almost all the work.
* ``defect-route``: the fault-dependent pipeline suffix (route, then
  replay with time-zero faults) over seeded defect patterns on designs
  placed once in setup. Routing and replay do the work; placement none.
* ``fault-recovery``: one ``ClosedLoopController.run`` per job over a
  fault model x arrival x sensor grid on designs synthesized in setup.
  The recovery ladder does the work.

The jobs of synth-corpus are the designs, so their generator and anneal
seeds come from the workload seed. The nominal designs of defect-route
and fault-recovery are fixed fixtures built from ``DESIGN_SEED``; there
the workload seed draws the defect patterns and fault scenarios. A
handful of designs would otherwise set most of the timed phase's cost,
and the seed-to-seed spread would hide the changes the benchmark is
meant to show.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.assay.catalog import build_assay, is_generator_spec
from repro.geometry import Point
from repro.pipeline import SynthesisContext, build_default_pipeline
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.placement.transport import dependency_edges
from repro.recovery import ClosedLoopController, pick_fault_cell
from repro.recovery.sweep import scenario_events
from repro.routing.synthesis import RoutingSynthesizer
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow
from repro.testing.detector import CapacitiveSensor

from tracing import MeteredEngine, TracedPlacer, TracedRoutingSynthesizer, span, traced


#: Generator and synthesis seed of the fixed nominal designs.
DESIGN_SEED = 0


@dataclass(frozen=True)
class Options:
    """Slower implementations the sensitivity self-check injects through
    public parameters, and a job-list thinning that keeps that check short."""

    #: Multiplies ``iterations_per_module`` of every SimulatedAnnealingPlacer.
    iterations_scale: int = 1
    #: Route with ``RoutingSynthesizer(reference=True)``.
    reference_routing: bool = False
    #: Run every ``job_stride``-th job of the list.
    job_stride: int = 1


@dataclass(frozen=True)
class Job:
    id: str
    label: str
    payload: tuple


@dataclass
class JobRecord:
    """One attempted job: status, cause and the quality it produced."""

    job_id: str
    label: str
    #: ``completed``, ``incomplete`` (the final replay did not finish)
    #: or ``error`` (the job raised).
    status: str
    #: Exception class and message, sim ``failure_reason`` or ladder
    #: abort reason; ``None`` for a completed job.
    cause: str | None = None
    #: Wall milliseconds of the job.
    ms: float = 0.0
    #: ``speed.scale`` of the probes taken before and after the job.
    scale: float = 1.0
    area_cells: float | None = None
    fti: float | None = None
    makespan_s: float | None = None
    routability: float | None = None
    #: Realized makespan of the final replay or verdict; completed jobs only.
    realized_makespan_s: float | None = None
    proposals: int = 0
    #: Response time per acted-on detection, summed over its ladder rungs.
    recovery_ms: tuple[float, ...] = ()
    #: Output-check failures found on this job.
    problems: list[str] = field(default_factory=list)
    #: ``(graph, schedule, placement, plan)`` for :func:`check_design`,
    #: which runs after the job's timing stops.
    design: tuple | None = None

    def outcome(self) -> tuple:
        """Everything that must repeat exactly for a fixed seed."""
        return (
            self.status, self.cause, self.area_cells, self.fti, self.makespan_s,
            self.routability, self.realized_makespan_s, self.proposals,
            len(self.recovery_ms),
        )


def check_design(record: JobRecord, graph, schedule, placement, plan) -> None:
    """The placement is feasible, and the plan's routed and failed
    transport nets add up to the placed dependency edges. (Zero-move
    hold nets for fan-out remainders have no consumer and are left out.)
    """
    if not placement.is_feasible():
        record.problems.append(f"{record.label}: placement has overlapping modules")
    if plan is None:
        return
    planned = sum(
        1
        for u, v in dependency_edges(graph)
        if u in placement and v in placement and v in schedule
    )
    routed = sum(1 for rn in plan.nets if rn.net.consumer is not None)
    failed = sum(1 for net in plan.failed if net.consumer is not None)
    if routed + failed != planned:
        record.problems.append(
            f"{record.label}: {routed} routed + {failed} failed transport nets "
            f"!= {planned} planned"
        )


def _design_record(job: Job, result, proposals: int) -> JobRecord:
    """Record of a pipeline run that ended in a verify replay."""
    report = result.sim_report
    record = JobRecord(
        job_id=job.id,
        label=job.label,
        status="completed" if report.completed else "incomplete",
        cause=report.failure_reason,
        area_cells=result.area_cells,
        fti=result.fti,
        makespan_s=result.makespan,
        routability=result.routability,
        realized_makespan_s=report.realized_makespan if report.completed else None,
        proposals=proposals,
        design=(
            result.graph, result.schedule,
            result.placement_result.placement, result.routing_plan,
        ),
    )
    return record


class Workload:
    name = ""
    #: Timed-phase seconds of one pass on a 2-core x86 container; the
    #: run makes ``max(1, round(seconds / nominal_pass_s))`` passes.
    nominal_pass_s = 20.0

    def __init__(self, seed: int, options: Options | None = None) -> None:
        self.options = options if options is not None else Options()
        self.rng = random.Random(seed)
        self._jobs: list[Job] = []

    def placer_params(self, preset: AnnealingParams) -> AnnealingParams:
        scale = self.options.iterations_scale
        return dataclasses.replace(
            preset, iterations_per_module=preset.iterations_per_module * scale
        )

    def jobs(self) -> list[Job]:
        return self._jobs[:: self.options.job_stride]

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Run the untimed extra job ``setup`` built."""
        self.run_job(self._warmup_job, None)

    def run_job(self, job: Job, tracer) -> JobRecord:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Checks that need more than the per-job records."""
        return []


# -- synth-corpus -------------------------------------------------------------

BUNDLED = ("pcr", "dilution", "ivd", "tree8", "tree16")
FAMILIES = ("mix-tree", "diamond", "dilution-ladder", "panel")


class SynthCorpus(Workload):
    """Bind -> schedule -> place (+FTI) -> route -> verify, balanced anneal."""

    name = "synth-corpus"
    #: Module count of each generated spec.
    gen_n = 16

    def setup(self) -> None:
        specs = list(BUNDLED) + [
            f"gen:{family}:n={self.gen_n}:seed={self.rng.randrange(10**6)}"
            for family in FAMILIES
        ]
        self.params = self.placer_params(AnnealingParams.balanced())
        self._jobs = [
            Job(str(i), spec, (*build_assay(spec), self.rng.randrange(2**31)))
            for i, spec in enumerate(specs)
        ]
        self._warmup_job = Job("warmup", "pcr", (*build_assay("pcr"), self.rng.randrange(2**31)))

    def run_job(self, job: Job, tracer) -> JobRecord:
        graph, binding, anneal_seed = job.payload
        if tracer is None:
            placer = SimulatedAnnealingPlacer(params=self.params, seed=anneal_seed)
        else:
            placer = TracedPlacer(tracer, params=self.params, seed=anneal_seed)
        pipeline = build_default_pipeline(
            placer=placer,
            max_parked=2 if is_generator_spec(job.label) else None,
            route=True,
            routing_synthesizer=RoutingSynthesizer(
                reference=self.options.reference_routing
            ),
            verify=True,
        )
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        traced(pipeline, tracer).run(context)
        result = context.result()
        return _design_record(job, result, result.placement_result.stats.evaluations)


# -- defect-route -------------------------------------------------------------

DEFECT_DESIGNS = ("tree16", "gen:mix-tree", "gen:panel", "gen:dilution-ladder")


class DefectRoute(Workload):
    """Route + verify per seeded defect pattern on designs placed in setup."""

    name = "defect-route"
    gen_n = 64
    patterns_per_design = 32
    #: Jobs replayed again on the stepped reference driver.
    stepped_sample = 8

    def setup(self) -> None:
        params = self.placer_params(AnnealingParams.fast())
        reference = self.options.reference_routing
        self.designs = []
        for name in DEFECT_DESIGNS:
            spec = name
            if is_generator_spec(name):
                spec = f"{name}:n={self.gen_n}:seed={DESIGN_SEED}"
            graph, binding = build_assay(spec)
            prefix, suffix = build_default_pipeline(
                placer=SimulatedAnnealingPlacer(params=params, seed=DESIGN_SEED),
                max_parked=2 if is_generator_spec(spec) else None,
                compute_fti_report=False,
                route=True,
                routing_synthesizer=RoutingSynthesizer(reference=reference),
                verify=True,
            ).split_on_faults()
            context = SynthesisContext(graph=graph, explicit_binding=binding)
            prefix.run(context)
            self.designs.append((spec, context, suffix))

        self._jobs = []
        for d, (spec, context, _) in enumerate(self.designs):
            width, height = context.placement_result.placement.array_dims()
            cells = [Point(x, y) for x in range(1, width + 1) for y in range(1, height + 1)]
            for p in range(self.patterns_per_design):
                # Defect counts 0-3 in equal shares, so seeds differ in
                # where the defects land, not in how many there are.
                pattern = tuple(sorted(self.rng.sample(cells, p % 4)))
                self._jobs.append(Job(f"{d}.{p}", spec, (d, pattern)))
        self.sample = set(
            self.rng.sample([j.id for j in self._jobs], self.stepped_sample)
        )
        #: Event-engine contexts of the sampled jobs, for the stepped replay.
        self.replayed: dict[str, SynthesisContext] = {}
        spec, context, _ = self.designs[0]
        width, height = context.placement_result.placement.array_dims()
        cell = Point(self.rng.randint(1, width), self.rng.randint(1, height))
        self._warmup_job = Job("warmup", spec, (0, (cell,)))

    def run_job(self, job: Job, tracer) -> JobRecord:
        d, pattern = job.payload
        _, nominal, suffix = self.designs[d]
        context = nominal.fork(faulty_cells=pattern)
        traced(suffix, tracer).run(context)
        if tracer is None and job.id in self.sample:
            self.replayed[job.id] = context
        return _design_record(job, context.result(), 0)

    def check(self) -> list[str]:
        """Replay sampled jobs on the stepped driver; outcomes must match."""
        problems = []
        for job_id, context in sorted(self.replayed.items()):
            sim = BiochipSimulator(
                context.graph,
                context.schedule,
                context.binding,
                context.placement_result.placement,
                strict=False,
                routing_plan=context.routing_plan,
                engine="stepped",
            )
            report = sim.run(faults=[(0.0, sim.sim_cell(p)) for p in context.faulty_cells])
            event = context.sim_report
            if (report.completed, report.realized_makespan) != (
                event.completed, event.realized_makespan
            ):
                problems.append(
                    f"job {job_id}: stepped replay (completed={report.completed}, "
                    f"makespan={report.realized_makespan}) != event replay "
                    f"(completed={event.completed}, makespan={event.realized_makespan})"
                )
        if len(self.replayed) != len(self.sample & {j.id for j in self.jobs()}):
            problems.append("stepped cross-check lost a sampled job")
        return problems


# -- fault-recovery -----------------------------------------------------------

RECOVERY_DESIGNS = ("pcr", "dilution", "ivd", "tree8")
FAULT_MODELS = ("permanent", "transient", "intermittent", "cluster")
ARRIVALS = (0.4, 0.55, 0.7, 0.85)
SENSORS = {
    "perfect": {},
    "lossy": {"false_positive_rate": 0.05, "false_negative_rate": 0.1, "latency_s": 0.5},
}


class FaultRecovery(Workload):
    """One closed-loop run per (design, fault model, arrival, sensor)."""

    name = "fault-recovery"

    def setup(self) -> None:
        # Fast presets throughout, as a campaign with ``fast = true``
        # builds its flows and engines, and for the resynth rung too: at
        # the default balanced preset, the 3-8 aborts a seed draws each
        # add a ~0.5 s anneal, and that count alone spread the timed
        # phase by +-8% from seed to seed.
        self.params = AnnealingParams.fast()
        placer_params = self.placer_params(self.params)
        self.results = {}
        for name in RECOVERY_DESIGNS:
            graph, binding = build_assay(name)
            flow = SynthesisFlow(
                placer=SimulatedAnnealingPlacer(params=placer_params, seed=DESIGN_SEED),
                seed=DESIGN_SEED,
                route=True,
            )
            self.results[name] = flow.run(graph, explicit_binding=binding)
        self._jobs = [
            Job(
                f"{name}/{model}/{arrival}/{sensor}",
                name,
                (name, model, arrival, sensor, self.rng.randrange(2**63)),
            )
            for name in RECOVERY_DESIGNS
            for model in FAULT_MODELS
            for arrival in ARRIVALS
            for sensor in SENSORS
        ]
        self._warmup_job = Job(
            "warmup", "pcr", ("pcr", "permanent", 0.5, "perfect", self.rng.randrange(2**63))
        )

    def run_job(self, job: Job, tracer) -> JobRecord:
        name, model, arrival, sensor, job_seed = job.payload
        result = self.results[name]
        # Traced, the suffix re-route inside recover() opens a
        # ``routing`` span under the ``recovery.<rung>`` span.
        engine = MeteredEngine(
            tracer,
            annealing=self.params,
            resynth_annealing=self.params,
            synthesizer=None if tracer is None else TracedRoutingSynthesizer(tracer, margin=2),
        )
        controller = ClosedLoopController(
            engine=engine, sensor=CapacitiveSensor(**SENSORS[sensor])
        )
        rng = random.Random(job_seed)
        makespan = result.schedule.makespan
        width, height = result.placement_result.placement.array_dims()
        fault_time = arrival * makespan
        checkpoint = engine.checkpoint_of(result, fault_time)
        cell = pick_fault_cell(result, checkpoint, "pending-module", rng=rng)
        events = scenario_events(model, cell, fault_time, makespan, width, height, rng)
        with span(tracer, "recovery.loop"):
            out = controller.run(result, tuple(sorted(events)), seed=job_seed)
        if tracer is not None:
            count = tracer.count
            count("recovery.aborts", int(out.aborted))
            count("testing.probes", out.probes_run)
            count("testing.detections", len(out.detections))
            count("testing.false_alarms", len(out.false_alarms))
            count("testing.watchdog_rounds", out.watchdog_rounds)

        # One detection climbs the rungs in order, so each "reroute"
        # call opens the next detection's response.
        responses: list[float] = []
        for rung, seconds, _ in engine.calls:
            if rung == "reroute":
                responses.append(0.0)
            responses[-1] += seconds * 1000.0

        recovered = [r for r in out.recoveries if r.recovered]
        placement = recovered[-1].placement if recovered else result.placement_result.placement
        plan = recovered[-1].routing_plan if recovered else result.routing_plan
        record = JobRecord(
            job_id=job.id,
            label=job.label,
            status="completed" if out.completed else "incomplete",
            cause=out.reason,
            area_cells=placement.area_cells,
            fti=result.fti,
            makespan_s=makespan,
            routability=plan.routability,
            realized_makespan_s=out.realized_makespan_s if out.completed else None,
            recovery_ms=tuple(responses),
            design=(result.graph, result.schedule, placement, plan),
        )
        if len(responses) != len(out.detections):
            record.problems.append(
                f"{job.id}: {len(responses)} timed responses for "
                f"{len(out.detections)} acted-on detections"
            )
        return record


WORKLOADS = {w.name: w for w in (SynthCorpus, DefectRoute, FaultRecovery)}
