"""Declarative campaign sweeps: one config, one structured JSONL log.

A campaign config (TOML or JSON) declares a grid of
(generator specs x array sizes x fault models x sensor fidelities x
fault arrivals x fault targets). :class:`CampaignConfig` expands it —
purely deterministically — into seeded :class:`CampaignScenario`\\ s,
and :class:`CampaignRunner` fans them out on the supervised pool with
the same journal/resume crash-safety the batch runner uses. It is the
one runner for online recovery: the Monte-Carlo recovery grid
(assays x arrival fractions x fault targets) is a campaign config,
``examples/campaigns/recovery-sweep.toml``.

The product is an append-only JSONL log with a versioned record
schema: one ``campaign-meta`` line, then exactly one ``campaign-record``
line per declared scenario, **in grid order**, each carrying a terminal
status — no scenario is ever silently lost, including those whose
worker crashed or overran its deadline. Records contain no wall-clock
or host-dependent fields and every random draw is derived by hashing
the campaign seed with the scenario key, so the record stream is
byte-identical for any ``--jobs`` and for any resume split.

Seed-derivation contract (the reason records are jobs-invariant), with
:func:`repro.util.rng.derive_seed`:

* synthesis seed   = ``derive_seed(campaign_seed, "synthesis", unit key)``
  where the unit key is ``spec|array`` — shared by every scenario of
  that unit, so one synthesized prefix serves all its fault suffixes;
* scenario seed    = ``derive_seed(campaign_seed, "scenario", scenario key)``
  — drives fault arrival, fault placement, fault-process realization,
  and sensor noise, independent of expansion order, worker assignment,
  or which scenarios a resume skips.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.exec import STATUS_OK, STATUS_RETRIED_OK
from repro.exec.scenarios import Scenario, Unit, run_scenarios
from repro.pipeline.spec import SynthesisSpec
from repro.util.errors import ReproError, UsageError
from repro.util.rng import derive_seed  # noqa: F401  (re-exported)
from repro.util.tables import format_table

if TYPE_CHECKING:
    from repro.synthesis.flow import SynthesisResult
    from repro.testing.detector import CapacitiveSensor

#: Version of the per-scenario record schema. Consumers must ignore
#: unknown fields (additions bump nothing); renames/removals bump this.
RECORD_SCHEMA_VERSION = 1
#: ``kind`` of per-scenario lines in the campaign log.
RECORD_KIND = "campaign-record"
#: Every record's ``engine`` field and its keys' last segment: replays
#: run on the event engine, and the column stays so that scenario keys
#: and their derived seeds are unchanged.
RECORD_ENGINE = "event"
#: ``kind`` of the log's single header line.
META_KIND = "campaign-meta"
#: ``kind`` under which decided scenarios land in a --journal file.
CAMPAIGN_JOURNAL_KIND = "campaign-scenario"

#: Terminal statuses a log record may carry. ``retried-then-ok``
#: normalizes to ``ok`` on the way into the log: retry counts are
#: supervision telemetry (they vary under injected chaos), not scenario
#: results, and the log must stay byte-identical across schedules.
RECORD_STATUSES = ("ok", "infeasible", "timeout", "crashed")

#: Default of the ``arrivals`` axis: the fault arrives at a fraction of
#: the nominal makespan drawn from U(0.3, 0.7) with the scenario seed.
RANDOM_ARRIVAL = "random"
#: Default of the ``targets`` axis (a ``FAULT_TARGETS`` name).
DEFAULT_TARGET = "pending-module"


# -- config ------------------------------------------------------------------


@dataclass(frozen=True)
class SensorSpec:
    """One sensor-fidelity point of the grid."""

    false_positive_rate: float = 0.0
    false_negative_rate: float = 0.0
    latency_s: float = 0.0

    @property
    def key(self) -> str:
        """Canonical key fragment (``ideal`` for a perfect sensor)."""
        if not (self.false_positive_rate or self.false_negative_rate
                or self.latency_s):
            return "ideal"
        return (
            f"fpr={self.false_positive_rate:g},"
            f"fnr={self.false_negative_rate:g},"
            f"latency={self.latency_s:g}"
        )

    def sensor(self) -> CapacitiveSensor:
        """The detector at this fidelity; its constructor validates it."""
        from repro.testing.detector import CapacitiveSensor

        return CapacitiveSensor(
            false_positive_rate=self.false_positive_rate,
            false_negative_rate=self.false_negative_rate,
            latency_s=self.latency_s,
        )

    def to_dict(self) -> dict:
        return {
            "fpr": self.false_positive_rate,
            "fnr": self.false_negative_rate,
            "latency_s": self.latency_s,
        }

    @classmethod
    def parse(cls, raw: object) -> SensorSpec:
        """Parse a config entry: ``"ideal"``, ``"fpr=0.05,fnr=0.1"``,
        or a mapping with ``fpr``/``fnr``/``latency`` keys."""
        if isinstance(raw, Mapping):
            raw = ",".join(f"{k}={v}" for k, v in raw.items())
        if not isinstance(raw, str):
            raise UsageError(f"sensor spec must be a string or table, got {raw!r}")
        if raw.strip() in ("", "ideal"):
            return cls()
        fields = {"fpr": 0.0, "fnr": 0.0, "latency": 0.0}
        for part in raw.split(","):
            k, sep, v = part.partition("=")
            k = k.strip()
            if not sep or k not in fields:
                raise UsageError(
                    f"bad sensor spec {raw!r}: expected comma-joined "
                    f"fpr=/fnr=/latency= assignments or 'ideal'"
                )
            try:
                fields[k] = float(v)
            except ValueError:
                raise UsageError(
                    f"bad sensor spec {raw!r}: {v!r} is not a number"
                ) from None
        spec = cls(fields["fpr"], fields["fnr"], fields["latency"])
        try:
            spec.sensor()
        except ValueError as exc:
            raise UsageError(f"bad sensor spec {raw!r}: {exc}") from None
        return spec


def array_key(array: tuple[int, int] | None) -> str:
    return "auto" if array is None else f"{array[0]}x{array[1]}"


def parse_arrival(raw: str) -> str:
    """``"random"`` or a fraction in [0, 1), canonicalized with ``%g``
    (so ``"0.5"`` and ``"0.50"`` are the same arrival)."""
    if raw == RANDOM_ARRIVAL:
        return raw
    try:
        fraction = float(raw)
    except ValueError:
        fraction = -1.0  # rejected below
    if not 0.0 <= fraction < 1.0:
        raise UsageError(
            f"bad arrival {raw!r}: expected 'random' or a fraction of the "
            "nominal makespan in [0, 1)"
        )
    return f"{abs(fraction):g}"  # abs: "-0" is arrival 0


def parse_array(raw: str) -> tuple[int, int] | None:
    """``"auto"`` or ``"WxH"`` with positive integer dimensions."""
    if raw == "auto":
        return None
    w, sep, h = raw.partition("x")
    try:
        if not sep:
            raise ValueError
        dims = (int(w), int(h))
    except ValueError:
        raise UsageError(
            f"bad array size {raw!r}: expected 'auto' or 'WxH' (e.g. '12x12')"
        ) from None
    if dims[0] < 1 or dims[1] < 1:
        raise UsageError(f"array dimensions must be positive, got {raw!r}")
    return dims


@dataclass(frozen=True)
class CampaignScenario:
    """One fully-specified point of the expanded grid."""

    spec: str  # protocol name or canonical gen: spec
    array: tuple[int, int] | None
    fault_model: str  # "none" or a FAULT_MODELS name
    sensor: SensorSpec
    index: int  # position in grid order (== log order)
    #: Canonical arrival and fault target; both ``None`` when the fault
    #: model is ``none``.
    arrival: str | None = None
    target: str | None = None

    @property
    def key(self) -> str:
        """The scenario's stable journal/log/seed identity. An axis at
        its default adds nothing, so keys predating it are unchanged."""
        parts = [self.spec, array_key(self.array), self.fault_model,
                 self.sensor.key, RECORD_ENGINE]
        if self.arrival not in (None, RANDOM_ARRIVAL):
            parts.append(f"arrival={self.arrival}")
        if self.target not in (None, DEFAULT_TARGET):
            parts.append(f"target={self.target}")
        return "|".join(parts)

    @property
    def unit_key(self) -> str:
        """Identity of the shared synthesis prefix (``spec|array``)."""
        return f"{self.spec}|{array_key(self.array)}"


def _require(table: Mapping, key: str, kind: type, where: str):
    value = table.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise UsageError(
            f"campaign config: {where}.{key} must be a {kind.__name__}, "
            f"got {value!r}"
        )
    return value


def _str_list(table: Mapping, key: str, where: str, default: list | None) -> list:
    if key not in table:
        if default is None:
            raise UsageError(f"campaign config: {where} needs a {key!r} list")
        return default
    value = table[key]
    if (not isinstance(value, list) or not value
            or not all(isinstance(v, str) for v in value)):
        raise UsageError(
            f"campaign config: {where}.{key} must be a non-empty list of "
            f"strings, got {value!r}"
        )
    return value


@dataclass
class CampaignConfig:
    """A validated campaign declaration."""

    name: str
    seed: int = 0
    #: Synthesis template shared by every scenario; each unit replaces
    #: its assay, array and seed.
    synthesis: SynthesisSpec = field(
        default_factory=lambda: SynthesisSpec(route=True)
    )
    #: Raw grid blocks; each expands as a full cross product.
    grids: list[dict] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: Mapping, source: str = "<config>") -> CampaignConfig:
        if not isinstance(data, Mapping):
            raise UsageError(f"campaign config {source}: top level must be a table")
        campaign = data.get("campaign", {})
        if not isinstance(campaign, Mapping):
            raise UsageError(f"campaign config {source}: [campaign] must be a table")
        name = _require(campaign, "name", str, "[campaign]") if "name" in campaign \
            else os.path.splitext(os.path.basename(source))[0]
        seed = _require(campaign, "seed", int, "[campaign]") if "seed" in campaign else 0
        max_concurrent = (
            _require(campaign, "max_concurrent", int, "[campaign]")
            if "max_concurrent" in campaign else 3
        )
        raw_parked = campaign.get("max_parked")
        if raw_parked is not None and (isinstance(raw_parked, bool)
                                       or not isinstance(raw_parked, int)):
            raise UsageError(
                f"campaign config: [campaign].max_parked must be an int or "
                f"absent, got {raw_parked!r}"
            )
        fast = campaign.get("fast", True)
        if not isinstance(fast, bool):
            raise UsageError(
                f"campaign config: [campaign].fast must be a boolean, got {fast!r}"
            )
        grids = data.get("grid", [])
        if isinstance(grids, Mapping):  # a single [grid] table
            grids = [grids]
        if not isinstance(grids, list) or not grids:
            raise UsageError(
                f"campaign config {source}: needs at least one [[grid]] block"
            )
        synthesis = SynthesisSpec(
            fast=fast, max_concurrent=max_concurrent, max_parked=raw_parked,
            route=True,
        )
        config = cls(
            name=name, seed=seed, synthesis=synthesis, grids=[dict(g) for g in grids],
        )
        config.expand()  # validate eagerly: a bad grid fails at load time
        return config

    @classmethod
    def load(cls, path: str | os.PathLike) -> CampaignConfig:
        """Load a ``.toml`` or ``.json`` campaign declaration."""
        path = os.fspath(path)
        if not os.path.exists(path):
            raise UsageError(f"campaign config not found: {path}")
        try:
            if path.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
            else:
                import tomllib

                with open(path, "rb") as fh:
                    data = tomllib.load(fh)
        except (json.JSONDecodeError, ValueError) as exc:
            # tomllib.TOMLDecodeError subclasses ValueError
            raise UsageError(f"cannot parse campaign config {path}: {exc}") from None
        return cls.from_dict(data, source=path)

    def expand(self) -> list[CampaignScenario]:
        """The full deterministic scenario list, in grid order."""
        from repro.assay.catalog import BUNDLED_ASSAYS, is_generator_spec
        from repro.fault.models import FAULT_MODELS
        from repro.recovery.engine import FAULT_TARGETS
        from repro.workload.generator import GeneratorSpec

        scenarios: list[CampaignScenario] = []
        seen: dict[str, int] = {}
        for i, grid in enumerate(self.grids):
            where = f"[[grid]] #{i + 1}"
            specs = []
            for raw in _str_list(grid, "generators", where, None):
                if is_generator_spec(raw):
                    try:
                        specs.append(GeneratorSpec.parse(raw).canonical())
                    except ValueError as exc:
                        raise UsageError(f"{where}: {exc}") from None
                elif raw in BUNDLED_ASSAYS:
                    specs.append(raw)
                else:
                    raise UsageError(
                        f"{where}: unknown protocol {raw!r}; choose a bundled "
                        f"assay {sorted(BUNDLED_ASSAYS)} or a gen: spec"
                    )
            arrays = [parse_array(a) for a in _str_list(grid, "arrays", where, ["auto"])]
            models = _str_list(grid, "fault_models", where, ["none"])
            for m in models:
                if m != "none" and m not in FAULT_MODELS:
                    raise UsageError(
                        f"{where}: unknown fault model {m!r}; choose 'none' "
                        f"or one of {sorted(FAULT_MODELS)}"
                    )
            sensors = [
                SensorSpec.parse(s)
                for s in _str_list(grid, "sensors", where, ["ideal"])
            ]
            arrivals = [
                parse_arrival(a)
                for a in _str_list(grid, "arrivals", where, [RANDOM_ARRIVAL])
            ]
            targets = _str_list(grid, "targets", where, [DEFAULT_TARGET])
            for t in targets:
                if t not in FAULT_TARGETS:
                    raise UsageError(
                        f"{where}: unknown fault target {t!r}; choose from "
                        f"{list(FAULT_TARGETS)}"
                    )
            unknown = set(grid) - {
                "generators", "arrays", "fault_models", "sensors", "arrivals",
                "targets",
            }
            if unknown:
                raise UsageError(
                    f"{where}: unknown key(s) {sorted(unknown)}"
                )
            for spec, array, model, sensor in itertools.product(
                specs, arrays, models, sensors
            ):
                # A fault-free scenario has no arrival or target.
                faults = (
                    [(None, None)] if model == "none"
                    else itertools.product(arrivals, targets)
                )
                for arrival, target in faults:
                    sc = CampaignScenario(
                        spec=spec, array=array, fault_model=model,
                        sensor=sensor, index=len(scenarios),
                        arrival=arrival, target=target,
                    )
                    if sc.key in seen:
                        raise UsageError(
                            f"{where}: scenario {sc.key!r} already "
                            f"declared by [[grid]] #{seen[sc.key] + 1}"
                        )
                    seen[sc.key] = i
                    scenarios.append(sc)
        return scenarios


# -- records -----------------------------------------------------------------


@dataclass
class CampaignRecord:
    """One scenario's log line. Deterministic: no wall-clock fields."""

    key: str
    index: int
    spec: str
    family: str | None  # generator family; None for bundled assays
    n: int | None  # requested module budget; None for bundled assays
    array: str  # "auto" or "WxH"
    fault_model: str
    sensor: dict
    engine: str
    seed: int
    status: str
    error: str | None = None
    #: Synthesis metrics (None when synthesis itself failed).
    synthesis: dict | None = None
    #: Closed-loop execution metrics (None when the scenario never ran).
    recovery: dict | None = None
    #: Canonical arrival and fault target (None for fault model none).
    arrival: str | None = None
    target: str | None = None

    def to_dict(self) -> dict:
        return {
            "v": RECORD_SCHEMA_VERSION,
            "kind": RECORD_KIND,
            "key": self.key,
            "index": self.index,
            "spec": self.spec,
            "family": self.family,
            "n": self.n,
            "array": self.array,
            "fault_model": self.fault_model,
            "sensor": self.sensor,
            "engine": self.engine,
            "seed": self.seed,
            "status": self.status,
            "error": self.error,
            "synthesis": self.synthesis,
            "recovery": self.recovery,
            "arrival": self.arrival,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> CampaignRecord:
        return cls(**{f.name: data.get(f.name) for f in fields(cls)})

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def completed(self) -> bool:
        """The closed loop replayed the assay to completion."""
        return bool(self.recovery and self.recovery.get("completed"))


_RECORD_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "key": (str,),
    "index": (int,),
    "spec": (str,),
    "family": (str, type(None)),
    "n": (int, type(None)),
    "array": (str,),
    "fault_model": (str,),
    "sensor": (dict,),
    "engine": (str,),
    "seed": (int,),
    "status": (str,),
    "error": (str, type(None)),
    "synthesis": (dict, type(None)),
    "recovery": (dict, type(None)),
}
#: Fields added within v1, type-checked only when present so that
#: older logs stay valid.
_ADDED_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "arrival": (str, type(None)),
    "target": (str, type(None)),
}
_ADDED_RECOVERY_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "fault_time_s": (float, int, type(None)),
    "fault_cells": (list,),
    "rerouted_nets": (int,),
    "reused_epochs": (int,),
    "detection_latency_s": (float, int, type(None)),
}


# -- the execution unit (module level: must pickle into pool workers) --------


def _spec_meta(spec: str) -> tuple[str | None, int | None]:
    """(family, n) for a gen: spec; (None, None) for bundled names."""
    from repro.assay.catalog import is_generator_spec
    from repro.workload.generator import GeneratorSpec

    if not is_generator_spec(spec):
        return None, None
    parsed = GeneratorSpec.parse(spec)
    return parsed.family, parsed.n


def _synthesis_summary(result: SynthesisResult) -> dict:
    plan = result.routing_plan
    placement = result.placement_result
    width, height = placement.placement.array_dims()
    return {
        "modules": len(placement.placement),
        "makespan_s": result.schedule.makespan,
        "width": width,
        "height": height,
        "area_cells": result.area_cells,
        "fti": result.fti,
        "routability": plan.routability if plan is not None else None,
        "nets_routed": plan.routed_count if plan is not None else None,
        "nets_failed": plan.failed_count if plan is not None else None,
    }


def _recovery_summary(outcome, fault_time: float | None) -> dict:
    from repro.fault.models import FAIL

    latencies = outcome.detection_latencies
    cells = {e.cell for e in outcome.fault_events if e.kind == FAIL}
    return {
        "completed": outcome.completed,
        "aborted": outcome.aborted,
        "reason": outcome.reason,
        "final_rung": outcome.final_rung,
        "detections": len(outcome.detections),
        "false_alarms": len(outcome.false_alarms),
        "recoveries": len(outcome.recoveries),
        "probes_run": outcome.probes_run,
        "watchdog_rounds": outcome.watchdog_rounds,
        "nominal_makespan_s": outcome.nominal_makespan_s,
        "realized_makespan_s": outcome.realized_makespan_s,
        "makespan_penalty_s": outcome.makespan_penalty_s,
        "fault_time_s": fault_time,
        "fault_cells": [[c.x, c.y] for c in sorted(cells)],
        "rerouted_nets": sum(r.rerouted_nets for r in outcome.recoveries),
        "reused_epochs": (
            outcome.recoveries[-1].reused_epochs if outcome.recoveries else 0
        ),
        "detection_latency_s": (
            sum(latencies) / len(latencies) if latencies else None
        ),
    }


def _record(
    unit: Unit,
    scenario: Scenario,
    status: str,
    error: str | None = None,
    **payload,
) -> CampaignRecord:
    """One scenario's record; *payload* is its synthesis/recovery."""
    sc: CampaignScenario = scenario.params
    family, n = _spec_meta(sc.spec)
    return CampaignRecord(
        key=sc.key, index=sc.index, spec=sc.spec, family=family, n=n,
        array=array_key(sc.array), fault_model=sc.fault_model,
        sensor=sc.sensor.to_dict(), engine=RECORD_ENGINE, seed=scenario.seed,
        status=status, error=error, arrival=sc.arrival, target=sc.target,
        **payload,
    )


def _run_unit(unit: Unit) -> list[CampaignRecord]:
    """Synthesize one ``spec|array`` unit once, then run every fault
    suffix on the result."""
    from repro.recovery import ClosedLoopController, OnlineRecoveryEngine
    from repro.recovery.engine import pick_fault_cell
    from repro.recovery.sweep import scenario_events
    from repro.util.rng import ensure_rng

    spec = replace(unit.params, seed=unit.seed)
    try:
        result = spec.run()
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
        return [_record(unit, s, "infeasible", error) for s in unit.scenarios]

    synthesis = _synthesis_summary(result)
    makespan = result.schedule.makespan
    width, height = result.placement_result.placement.array_dims()

    # One engine per unit: its nominal-simulator and warm-evaluator
    # caches serve every scenario of the shared synthesis.
    engine = OnlineRecoveryEngine(annealing=spec.recovery_annealing)
    records = []
    for scenario in unit.scenarios:
        suffix: CampaignScenario = scenario.params
        rng = ensure_rng(scenario.seed)
        controller = ClosedLoopController(engine=engine, sensor=suffix.sensor.sensor())
        try:
            if suffix.fault_model == "none":
                fault_time, events = None, ()
            else:
                fraction = (
                    rng.uniform(0.3, 0.7) if suffix.arrival == RANDOM_ARRIVAL
                    else float(suffix.arrival)
                )
                fault_time = fraction * makespan
                checkpoint = engine.checkpoint_of(result, fault_time)
                cell = pick_fault_cell(result, checkpoint, suffix.target, rng=rng)
                events = scenario_events(
                    suffix.fault_model, cell, fault_time, makespan,
                    width, height, rng,
                )
            outcome = controller.run(
                result, events, seed=scenario.seed, mode="closed-loop"
            )
        except ReproError as exc:
            records.append(_record(
                unit, scenario, "infeasible",
                f"{type(exc).__name__}: {exc}", synthesis=synthesis,
            ))
            continue
        records.append(_record(
            unit, scenario, "ok", synthesis=synthesis,
            recovery=_recovery_summary(outcome, fault_time),
        ))
    return records


# -- the runner --------------------------------------------------------------


@dataclass
class CampaignReport:
    """Campaign-level accounting over the deterministic record list."""

    name: str
    seed: int
    jobs: int
    log_path: str
    wall_s: float = 0.0
    resumed: int = 0
    records: list[CampaignRecord] = field(default_factory=list)

    @property
    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def completed_count(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def mean_routability(self) -> float | None:
        vals = [
            r.synthesis["routability"] for r in self.records
            if r.synthesis and r.synthesis.get("routability") is not None
        ]
        return sum(vals) / len(vals) if vals else None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "jobs": self.jobs,
            "log_path": self.log_path,
            "wall_s": self.wall_s,
            "resumed": self.resumed,
            "scenario_count": len(self.records),
            "status_counts": self.status_counts,
            "completed_count": self.completed_count,
            "mean_routability": self.mean_routability,
            "records": [r.to_dict() for r in self.records],
        }

    def table_text(self) -> str:
        """Per-(spec, array) rollup."""
        groups: dict[tuple[str, str], list[CampaignRecord]] = {}
        for r in self.records:
            groups.setdefault((r.spec, r.array), []).append(r)
        rows = []
        for (spec, array), recs in groups.items():
            routability = [
                r.synthesis["routability"] for r in recs
                if r.synthesis and r.synthesis.get("routability") is not None
            ]
            rows.append((
                spec, array, len(recs),
                sum(1 for r in recs if r.ok),
                sum(1 for r in recs if r.completed),
                f"{sum(routability) / len(routability):.0%}" if routability else "-",
            ))
        return format_table(
            ("spec", "array", "scenarios", "ok", "completed", "routability"),
            rows,
        )

    def summary(self) -> str:
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(self.status_counts.items())
        )
        mean = self.mean_routability
        return (
            f"campaign '{self.name}': {len(self.records)} scenarios "
            f"({counts}); {self.completed_count} completed closed-loop; "
            f"mean routability "
            f"{'-' if mean is None else format(mean, '.1%')}; "
            f"{self.resumed} resumed; wall {self.wall_s:.1f}s -> {self.log_path}"
        )


def _same_file(a: str | os.PathLike, b: str | os.PathLike) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


class CampaignRunner:
    """Expand a config and execute it under supervision."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config

    def run(
        self,
        log_path: str | os.PathLike,
        jobs: int = 1,
        *,
        task_timeout: float | None = None,
        max_retries: int = 2,
        chaos=None,
        journal_path: str | os.PathLike | None = None,
        resume_from: str | os.PathLike | None = None,
    ) -> CampaignReport:
        """Execute the campaign, streaming the log to *log_path*.

        *journal_path* / *resume_from* carry crash-safety exactly as in
        the batch runner: every **decided** scenario (terminal ok or
        infeasible) is journaled as its unit finishes; a resume skips
        decided scenarios and re-runs crashed/timed-out ones. The log
        file itself is rewritten from scratch each run — it is the
        deterministic product, the journal is the incremental state —
        so the log may not be the journal file: opening it would
        truncate the journal before the resume reads it.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        for journal in (journal_path, resume_from):
            if journal is not None and _same_file(log_path, journal):
                raise UsageError(
                    f"the log {os.fspath(log_path)} is also the journal; "
                    "give --log a file of its own"
                )
        t0 = time.perf_counter()
        scenarios = self.config.expand()
        meta = {
            "v": RECORD_SCHEMA_VERSION,
            "kind": META_KIND,
            "name": self.config.name,
            "seed": self.config.seed,
            "scenario_count": len(scenarios),
        }

        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            fh.flush()
            records, resumed = run_scenarios(
                _run_unit,
                (
                    (sc.unit_key,
                     replace(self.config.synthesis, assay=sc.spec, array=sc.array),
                     sc.key, sc)
                    for sc in scenarios
                ),
                seed=self.config.seed,
                kind=CAMPAIGN_JOURNAL_KIND,
                resumed=CampaignRecord.from_dict,
                failed=_record,
                jobs=jobs,
                task_timeout=task_timeout,
                max_retries=max_retries,
                chaos=chaos,
                journal_path=journal_path,
                resume_from=resume_from,
            )
            for rec in records:
                if rec.status == STATUS_RETRIED_OK:
                    rec.status = STATUS_OK
                if rec.status not in RECORD_STATUSES:
                    rec.status = "crashed"
                fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

        return CampaignReport(
            name=self.config.name,
            seed=self.config.seed,
            jobs=jobs,
            log_path=os.fspath(log_path),
            wall_s=time.perf_counter() - t0,
            resumed=resumed,
            records=records,
        )


# -- log validation ----------------------------------------------------------


def read_log(path: str | os.PathLike) -> tuple[dict, list[CampaignRecord]]:
    """Load a campaign log; raises :class:`ReproError` when malformed."""
    errors = validate_log(path)
    if errors:
        raise ReproError(
            f"invalid campaign log {os.fspath(path)}: {errors[0]} "
            f"({len(errors)} problem(s) total)"
        )
    meta: dict = {}
    records: list[CampaignRecord] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            if entry["kind"] == META_KIND:
                meta = entry
            else:
                records.append(CampaignRecord.from_dict(entry))
    return meta, records


def _type_errors(
    lineno: int, entry: dict, types: dict[str, tuple[type, ...]], prefix: str = ""
) -> list[str]:
    """Problems with the declared types of *entry*'s present fields."""
    return [
        f"line {lineno}: field {prefix + fname!r} has "
        f"{type(entry[fname]).__name__}, expected "
        f"{'/'.join(t.__name__ for t in allowed)}"
        for fname, allowed in types.items()
        if fname in entry and (
            not isinstance(entry[fname], allowed)
            or (isinstance(entry[fname], bool) and bool not in allowed)
        )
    ]


def validate_log(path: str | os.PathLike) -> list[str]:
    """Validate every line of a campaign log against the record schema.

    Returns a list of human-readable problems (empty = valid). A
    missing file raises :class:`UsageError` — that is a usage mistake,
    not invalid data.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise UsageError(f"campaign log not found: {path}")
    errors: list[str] = []
    seen: dict[str, int] = {}
    meta: dict | None = None
    n_records = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                errors.append(f"line {lineno}: blank line")
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: not JSON ({exc})")
                continue
            if not isinstance(entry, dict):
                errors.append(f"line {lineno}: not a JSON object")
                continue
            if entry.get("v") != RECORD_SCHEMA_VERSION:
                errors.append(
                    f"line {lineno}: schema version {entry.get('v')!r}, "
                    f"expected {RECORD_SCHEMA_VERSION}"
                )
                continue
            kind = entry.get("kind")
            if kind == META_KIND:
                if lineno != 1:
                    errors.append(f"line {lineno}: stray meta line")
                meta = entry
                continue
            if kind != RECORD_KIND:
                errors.append(f"line {lineno}: unknown kind {kind!r}")
                continue
            n_records += 1
            errors += [
                f"line {lineno}: missing field {fname!r}"
                for fname in _RECORD_FIELD_TYPES if fname not in entry
            ]
            errors += _type_errors(
                lineno, entry, {**_RECORD_FIELD_TYPES, **_ADDED_FIELD_TYPES}
            )
            if isinstance(entry.get("recovery"), dict):
                errors += _type_errors(
                    lineno, entry["recovery"], _ADDED_RECOVERY_FIELD_TYPES,
                    "recovery.",
                )
            status = entry.get("status")
            if isinstance(status, str) and status not in RECORD_STATUSES:
                errors.append(
                    f"line {lineno}: status {status!r} not in {RECORD_STATUSES}"
                )
            key = entry.get("key")
            if isinstance(key, str):
                if key in seen:
                    errors.append(
                        f"line {lineno}: duplicate key {key!r} "
                        f"(first at line {seen[key]})"
                    )
                seen[key] = lineno
    if meta is None:
        errors.append("line 1: missing campaign-meta header")
    elif isinstance(meta.get("scenario_count"), int) \
            and meta["scenario_count"] != n_records:
        errors.append(
            f"meta declares {meta['scenario_count']} scenarios, "
            f"log carries {n_records} records (lost scenarios?)"
        )
    return errors


def iter_log_payloads(path: str | os.PathLike) -> Iterable[dict]:
    """Raw JSON objects of a log, line order, no validation."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)
