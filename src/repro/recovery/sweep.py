"""Monte-Carlo recovery sweeps: (assay x fault-arrival x fault-pattern).

The sweep answers the paper-level question "how often does online
recovery save the assay, and what does it cost?" by fanning scenarios
over a grid: for each bundled assay, for each fault-arrival fraction of
the nominal makespan, for each fault-target kind, inject one fault and
drive the :class:`~repro.recovery.engine.OnlineRecoveryEngine`.

Two orthogonal axes extend the grid beyond the original single
permanent fault with oracle knowledge: *fault_model* picks the fault
process (:data:`repro.fault.models.FAULT_MODELS` — permanent,
transient, intermittent, wearout, cluster; the scenario's arrival time
and target cell pin the process so sweeps stay comparable across
models), and *detection* picks how faults become known —
``oracle`` (ground truth, the historical path, bit-identical to the
seed behavior for the permanent model) or ``closed-loop``
(:class:`~repro.recovery.closedloop.ClosedLoopController` with a
configurable noisy sensor: detections only via probe campaigns).

Execution mirrors :mod:`repro.pipeline.batch` on
:func:`repro.exec.run_scenarios`: one worker unit per assay (the
nominal synthesis — the fault-independent prefix — is computed once and
reused by every scenario of that assay, and the checkpoint at each
arrival time is shared across fault patterns), fanned across a
supervised pool with ``jobs > 1``. The synthesis seed is derived from
the sweep seed and the assay name, each scenario seed from the sweep
seed and the scenario key, so the report is bit-identical for any
worker count (property-tested), any grid order and any resume split.
An assay block lost to worker crashes or deadline overruns past the
retry budget still contributes one structured failure record per
scenario; completed scenarios can be journaled to a crash-safe JSONL
file and resumed without recomputation.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace

from repro.exec import STATUS_INFEASIBLE, STATUS_OK
from repro.exec.scenarios import Scenario, Unit, duplicate_keys, run_scenarios
from repro.fault.models import CLEAR, FAIL, FAULT_MODELS, FaultEvent
from repro.geometry import Point
from repro.pipeline.spec import SynthesisSpec
from repro.recovery.closedloop import DETECTION_MODES, ClosedLoopController
from repro.recovery.engine import (
    FAULT_TARGETS,
    OnlineRecoveryEngine,
    pick_fault_cell,
)
from repro.testing.detector import CapacitiveSensor
from repro.util.errors import RecoveryError, ReproError
from repro.util.rng import ensure_rng
from repro.util.tables import format_table

#: Journal record kind written by :class:`MonteCarloRecoverySweep`. The
#: ``-v2`` marks content-derived seeds: a journal from the positional
#: seed scheme is recomputed, never mixed with new records.
JOURNAL_KIND = "recovery-scenario-v2"


def sweep_key(assay: str, time_fraction: float, target: str) -> str:
    """Stable identity of one sweep cell, e.g. ``pcr|0.5|street``."""
    return f"{assay}|{time_fraction:g}|{target}"


@dataclass
class RecoveryRecord:
    """One sweep cell: an assay under one fault arrival and pattern."""

    assay: str
    time_fraction: float
    target: str
    fault_time_s: float
    fault_cell: Point | None
    recovered: bool
    reason: str | None
    makespan_penalty_s: float
    replace_s: float
    reroute_s: float
    recovery_s: float
    rerouted_nets: int
    reused_epochs: int
    #: True when the assay's nominal synthesis was reused from a
    #: sibling scenario rather than recomputed.
    upstream_reused: bool = False
    #: Supervision status: ``ok`` for scenarios the engine decided
    #: (recovered or not), ``timeout`` / ``crashed`` when the assay
    #: block's worker was lost past the retry budget.
    status: str = STATUS_OK
    #: How the fault became known: ``oracle`` or ``closed-loop``.
    detection: str = "oracle"
    #: Fault process the scenario realized.
    fault_model: str = "permanent"
    #: Mean sensed detection latency (seconds); 0 for oracle runs,
    #: ``None`` when nothing was detected.
    detection_latency_s: float | None = 0.0
    #: Ladder rung that closed the run (``None`` when fault-free or
    #: undetected; ``abort`` when the ladder was exhausted).
    ladder_rung: str | None = None
    #: Sensor readings dismissed by the confirmation re-probe.
    false_alarms: int = 0

    @property
    def key(self) -> str:
        """The scenario's stable journal/resume identity."""
        return sweep_key(self.assay, self.time_fraction, self.target)

    def to_dict(self) -> dict:
        """Every field, in declaration order; the cell as ``[x, y]``."""
        cell = self.fault_cell
        return {**asdict(self), "fault_cell": [cell.x, cell.y] if cell else None}

    @classmethod
    def from_dict(cls, record: dict) -> RecoveryRecord:
        """Rebuild a record from its :meth:`to_dict` (journal kind
        ``recovery-scenario-v2`` only carries complete records)."""
        cell = record["fault_cell"]
        return cls(**{**record, "fault_cell": Point(*cell) if cell else None})


@dataclass
class RecoverySweepReport:
    """Every scenario record of one sweep plus the headline aggregates."""

    seed: int
    jobs: int
    wall_s: float = 0.0
    records: list[RecoveryRecord] = field(default_factory=list)

    @property
    def recovered_count(self) -> int:
        return sum(1 for r in self.records if r.recovered)

    @property
    def success_rate(self) -> float:
        """Fraction of scenarios ending in a verified, completed plan."""
        return self.recovered_count / len(self.records) if self.records else 1.0

    @property
    def mean_penalty_s(self) -> float:
        """Mean makespan penalty over the recovered scenarios."""
        pen = [r.makespan_penalty_s for r in self.records if r.recovered]
        return sum(pen) / len(pen) if pen else 0.0

    @property
    def mean_recovery_s(self) -> float:
        """Mean wall-clock re-synthesis latency per scenario."""
        lat = [r.recovery_s for r in self.records]
        return sum(lat) / len(lat) if lat else 0.0

    @property
    def rung_frequencies(self) -> dict[str, int]:
        """How often each graceful-degradation rung closed a scenario."""
        freq: dict[str, int] = {}
        for r in self.records:
            if r.ladder_rung is not None:
                freq[r.ladder_rung] = freq.get(r.ladder_rung, 0) + 1
        return dict(sorted(freq.items()))

    @property
    def mean_detection_latency_s(self) -> float:
        """Mean detection latency over scenarios that detected anything."""
        lat = [
            r.detection_latency_s
            for r in self.records
            if r.detection_latency_s is not None
        ]
        return sum(lat) / len(lat) if lat else 0.0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "scenario_count": len(self.records),
            "recovered_count": self.recovered_count,
            "success_rate": self.success_rate,
            "mean_makespan_penalty_s": self.mean_penalty_s,
            "mean_recovery_s": self.mean_recovery_s,
            "mean_detection_latency_s": self.mean_detection_latency_s,
            "rung_frequencies": self.rung_frequencies,
            "scenarios": [r.to_dict() for r in self.records],
        }

    def table_text(self) -> str:
        rows = [
            (
                r.assay,
                f"{r.time_fraction:.0%}",
                r.target,
                str(r.fault_cell) if r.fault_cell else "-",
                "recovered" if r.recovered else f"FAILED ({r.reason})",
                r.ladder_rung or "-",
                f"{r.makespan_penalty_s:g}",
                f"{r.recovery_s * 1000:.1f}",
                r.rerouted_nets,
                "yes" if r.upstream_reused else "no",
            )
            for r in self.records
        ]
        return format_table(
            ("assay", "arrival", "target", "cell", "outcome", "rung",
             "penalty s", "resynth ms", "nets", "reused"),
            rows,
        )

    def summary(self) -> str:
        return (
            f"{self.recovered_count}/{len(self.records)} scenarios recovered "
            f"({self.success_rate:.0%}), mean penalty "
            f"{self.mean_penalty_s:g} s, mean re-synthesis "
            f"{self.mean_recovery_s * 1000:.1f} ms "
            f"(jobs={self.jobs}, {self.wall_s:.1f} s wall)"
        )


def scenario_events(
    model: str,
    cell: Point,
    fault_time: float,
    makespan: float,
    width: int,
    height: int,
    rng,
) -> tuple[FaultEvent, ...]:
    """Realize one scenario's fault timeline, pinned for comparability.

    Every model anchors its (first) fault at the sweep cell's arrival
    instant and target cell, so success rates and latencies are
    comparable across models — the *process* differs, not the grid:
    ``permanent`` is the degenerate single fail, ``transient``
    self-clears after 15% of the makespan, ``intermittent``
    duty-cycles with a 20%-makespan period until the horizon,
    ``wearout`` is a permanent fail whose cause records the hazard
    mechanism, and ``cluster`` additionally kills up to two random
    Chebyshev-adjacent neighbors at the same instant.
    """
    def mk(t: float, kind: str, cause: str) -> FaultEvent:
        return FaultEvent(time_s=t, cell=cell, kind=kind, cause=cause)
    if model == "permanent":
        return (mk(fault_time, FAIL, "permanent"),)
    if model == "wearout":
        return (mk(fault_time, FAIL, "wearout"),)
    if model == "transient":
        clear = fault_time + 0.15 * makespan
        events = [mk(fault_time, FAIL, "transient")]
        if clear < makespan:
            events.append(mk(clear, CLEAR, "transient"))
        return tuple(events)
    if model == "intermittent":
        period = max(0.2 * makespan, 1e-9)
        events, t, kind = [], fault_time, FAIL
        while t < makespan:
            events.append(mk(t, kind, "intermittent"))
            t += period / 2.0
            kind = CLEAR if kind == FAIL else FAIL
        return tuple(events) or (mk(fault_time, FAIL, "intermittent"),)
    if model == "cluster":
        neighborhood = sorted(
            Point(x, y)
            for x in range(max(1, cell.x - 1), min(width, cell.x + 1) + 1)
            for y in range(max(1, cell.y - 1), min(height, cell.y + 1) + 1)
            if (x, y) != (cell.x, cell.y)
        )
        extras = (
            rng.sample(neighborhood, min(2, len(neighborhood)))
            if neighborhood
            else []
        )
        cells = [cell] + sorted(extras)
        return tuple(
            FaultEvent(time_s=fault_time, cell=c, kind=FAIL, cause="cluster")
            for c in cells
        )
    raise RecoveryError(
        f"unknown fault model {model!r}; choose from {sorted(FAULT_MODELS)}"
    )


def _failed(
    unit: Unit, scenario: Scenario, status: str, error: str | None
) -> RecoveryRecord:
    """A scenario whose assay block never produced a nominal design."""
    fraction, target = scenario.params
    return RecoveryRecord(
        assay=unit.key, time_fraction=fraction, target=target,
        fault_time_s=0.0, fault_cell=None, recovered=False, reason=error,
        makespan_penalty_s=0.0, replace_s=0.0, reroute_s=0.0, recovery_s=0.0,
        rerouted_nets=0, reused_epochs=0, status=status,
    )


def _run_sweep_combo(unit: Unit) -> list[RecoveryRecord]:
    """One assay's block: synthesize the nominal configuration once,
    then recover it from every (arrival x target) scenario."""
    sweep, assay = unit.params, unit.key
    spec = replace(sweep.specs[assay], seed=unit.seed)
    try:
        result = spec.run()
    except ReproError as exc:
        reason = f"nominal synthesis failed: {type(exc).__name__}: {exc}"
        return [_failed(unit, s, STATUS_INFEASIBLE, reason) for s in unit.scenarios]

    engine = OnlineRecoveryEngine(annealing=spec.recovery_annealing)
    #: The historical fast path — a single permanent fault with oracle
    #: knowledge — calls the engine directly and stays bit-identical to
    #: the seed behavior; everything else goes through the controller.
    legacy = sweep.detection == "oracle" and sweep.fault_model == "permanent"
    controller = None
    if not legacy:
        sensor = CapacitiveSensor(
            false_positive_rate=sweep.sensor_fpr,
            false_negative_rate=sweep.sensor_fnr,
            latency_s=sweep.sensor_latency_s,
        )
        controller = ClosedLoopController(engine=engine, sensor=sensor)
    width, height = result.placement_result.placement.array_dims()
    makespan = result.schedule.makespan
    # One checkpoint (or its error) per arrival, shared across targets.
    checkpoints: dict[float, object] = {}
    records: list[RecoveryRecord] = []
    for sc in unit.scenarios:
        fraction, target = sc.params
        fault_time = fraction * makespan
        reused = sc.position > 0
        if fraction not in checkpoints:
            try:
                checkpoints[fraction] = engine.checkpoint_of(result, fault_time)
            except ReproError as exc:
                checkpoints[fraction] = exc
        checkpoint = checkpoints[fraction]
        if isinstance(checkpoint, ReproError):
            error = f"{type(checkpoint).__name__}: {checkpoint}"
            records.append(replace(
                _failed(unit, sc, STATUS_INFEASIBLE, error),
                fault_time_s=fault_time, upstream_reused=reused,
            ))
            continue
        scenario_rng = ensure_rng(sc.seed)
        cell = pick_fault_cell(result, checkpoint, target, rng=scenario_rng)
        if legacy:
            outcome = engine.recover(
                result, [cell], fault_time, seed=scenario_rng,
                checkpoint=checkpoint,
            )
            records.append(
                RecoveryRecord(
                    assay=assay,
                    time_fraction=fraction,
                    target=target,
                    fault_time_s=fault_time,
                    fault_cell=cell,
                    recovered=outcome.recovered,
                    reason=outcome.reason,
                    makespan_penalty_s=outcome.makespan_penalty_s,
                    replace_s=outcome.replace_s,
                    reroute_s=outcome.reroute_s,
                    recovery_s=outcome.recovery_s,
                    rerouted_nets=outcome.rerouted_nets,
                    reused_epochs=outcome.reused_epochs,
                    upstream_reused=reused,
                    ladder_rung=outcome.rung if outcome.recovered else None,
                )
            )
            continue
        events = scenario_events(
            sweep.fault_model, cell, fault_time, makespan,
            width, height, scenario_rng,
        )
        assert controller is not None
        out = controller.run(
            result, events, seed=scenario_rng, mode=sweep.detection
        )
        latencies = out.detection_latencies
        records.append(
            RecoveryRecord(
                assay=assay,
                time_fraction=fraction,
                target=target,
                fault_time_s=fault_time,
                fault_cell=cell,
                recovered=out.completed,
                reason=out.reason,
                makespan_penalty_s=out.makespan_penalty_s,
                replace_s=sum(r.replace_s for r in out.recoveries),
                reroute_s=sum(r.reroute_s for r in out.recoveries),
                recovery_s=sum(r.recovery_s for r in out.recoveries),
                rerouted_nets=sum(r.rerouted_nets for r in out.recoveries),
                reused_epochs=(
                    out.recoveries[-1].reused_epochs if out.recoveries else 0
                ),
                upstream_reused=reused,
                detection=sweep.detection,
                fault_model=sweep.fault_model,
                detection_latency_s=(
                    sum(latencies) / len(latencies) if latencies else None
                ),
                ladder_rung=out.final_rung,
                false_alarms=len(out.false_alarms),
            )
        )
    return records


class MonteCarloRecoverySweep:
    """Fans (assay x fault-arrival x fault-pattern) recovery scenarios.

    *spec* is the template every assay's nominal synthesis is built
    from: its ``seed`` seeds the sweep, and each assay block replaces
    its ``assay`` with one of *assays* (bundled names or ``gen:``
    specs) and routes. Arrival times are fractions of each assay's
    nominal makespan; *targets* are
    :data:`~repro.recovery.engine.FAULT_TARGETS` kinds.
    """

    def __init__(
        self,
        spec: SynthesisSpec,
        assays: Sequence[str] = ("pcr", "dilution", "ivd"),
        time_fractions: Sequence[float] = (0.25, 0.5, 0.75),
        targets: Sequence[str] = ("pending-module", "street"),
        fault_model: str = "permanent",
        detection: str = "oracle",
        sensor_fpr: float = 0.0,
        sensor_fnr: float = 0.0,
        sensor_latency_s: float = 0.0,
    ) -> None:
        bad = [t for t in targets if t not in FAULT_TARGETS]
        if bad:
            raise RecoveryError(
                f"unknown fault target(s) {bad}; choose from {FAULT_TARGETS}"
            )
        if not assays or not time_fractions or not targets:
            raise RecoveryError("sweep needs at least one assay, arrival, and target")
        for f in time_fractions:
            if not 0.0 <= f < 1.0:
                raise RecoveryError(
                    f"fault-arrival fractions must be in [0, 1), got {f}"
                )
        dupes = duplicate_keys(
            sweep_key(a, f, t) for a in assays for f in time_fractions for t in targets
        )
        if dupes:
            raise RecoveryError(f"duplicate scenario keys: {dupes}")
        self.spec = spec
        # One spec per assay block; building each validates its name.
        self.specs = {a: replace(spec, assay=a, route=True) for a in assays}
        self.time_fractions = tuple(time_fractions)
        self.targets = tuple(targets)
        if fault_model not in FAULT_MODELS:
            raise RecoveryError(
                f"unknown fault model {fault_model!r}; "
                f"choose from {sorted(FAULT_MODELS)}"
            )
        if detection not in DETECTION_MODES:
            raise RecoveryError(
                f"unknown detection mode {detection!r}; "
                f"choose from {DETECTION_MODES}"
            )
        self.fault_model = fault_model
        self.detection = detection
        # Sensor rate/latency validation is the sensor's own job; fail
        # here, at sweep construction, not inside a worker process.
        CapacitiveSensor(
            false_positive_rate=sensor_fpr,
            false_negative_rate=sensor_fnr,
            latency_s=sensor_latency_s,
        )
        self.sensor_fpr = sensor_fpr
        self.sensor_fnr = sensor_fnr
        self.sensor_latency_s = sensor_latency_s

    def run(
        self,
        jobs: int = 1,
        *,
        task_timeout: float | None = None,
        max_retries: int = 2,
        chaos=None,
        journal_path=None,
        resume_from=None,
    ) -> RecoverySweepReport:
        """Execute the grid; ``jobs > 1`` parallelizes over assays.

        Supervision, journaling and resume follow
        :func:`repro.exec.run_scenarios`: a resumed report is
        bit-identical to an uninterrupted run, and an assay block lost past
        *max_retries* yields one ``crashed`` / ``timeout`` record per
        scenario, never journaled, so a resume retries it.
        """
        t0 = time.perf_counter()
        # One unit per assay, carrying the sweep itself for its knobs.
        records, _ = run_scenarios(
            _run_sweep_combo,
            (
                (assay, self, sweep_key(assay, f, t), (f, t))
                for assay in self.specs
                for f in self.time_fractions
                for t in self.targets
            ),
            seed=self.spec.seed,
            kind=JOURNAL_KIND,
            resumed=RecoveryRecord.from_dict,
            failed=_failed,
            jobs=jobs,
            task_timeout=task_timeout,
            max_retries=max_retries,
            chaos=chaos,
            journal_path=journal_path,
            resume_from=resume_from,
        )
        return RecoverySweepReport(
            seed=self.spec.seed,
            jobs=jobs,
            wall_s=time.perf_counter() - t0,
            records=records,
        )
