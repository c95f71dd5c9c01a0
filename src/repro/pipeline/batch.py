"""Batch scenario runner: sweep (assay x array size x fault pattern) grids.

The runner drives one staged pipeline per (assay, array-size)
combination, then replays only the fault-dependent suffix (routing,
optional sim-verify) per fault pattern — the fault-independent prefix
(bind, schedule, place, FTI) is computed once and shared through
:meth:`SynthesisContext.fork`. Combinations are independent, so the
sweep runs on :func:`repro.exec.run_scenarios`, which fans combos over
a supervised pool with ``jobs > 1``. Each combo's synthesis seed is
derived from the batch seed and the combo's content key
(``assay|array``), keeping every record identical for any worker
count, any grid order and any resume split; the fault-dependent suffix
draws no randomness. A combo whose worker crashes or overruns its
deadline past the retry budget still appears in the report — one
structured failure record per scenario, carrying the originating
scenario key — so a sweep returns partial results instead of raising.

Campaigns can journal each completed scenario to a crash-safe JSONL
file and later resume from it: already-journaled scenario keys are
skipped and their records loaded back, producing a report
bit-identical to an uninterrupted run.

All output is machine-readable: :meth:`BatchReport.to_dict` nests the
``to_dict()`` of every result dataclass and round-trips through
``json.dumps`` untouched.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.exec import STATUS_INFEASIBLE, STATUS_OK
from repro.exec.scenarios import Scenario, Unit, duplicate_keys, run_scenarios
from repro.geometry import Point
from repro.pipeline.spec import SynthesisSpec
from repro.synthesis.flow import SynthesisResult
from repro.util.errors import PipelineError, ReproError
from repro.util.tables import format_table

#: Journal record kind written by :class:`BatchScenarioRunner`. The
#: ``-v2`` marks content-derived seeds: a journal from the positional
#: seed scheme is recomputed, never mixed with new records.
JOURNAL_KIND = "batch-scenario-v2"


def combo_key(assay: str, array_size: tuple[int, int] | None) -> str:
    """Identity of one (assay, array size) combo, e.g. ``pcr|auto``."""
    size = "auto" if array_size is None else f"{array_size[0]}x{array_size[1]}"
    return f"{assay}|{size}"


def scenario_key(assay: str, array_size: tuple[int, int] | None, pattern: str) -> str:
    """Stable identity of one grid cell, e.g. ``pcr|auto|center``."""
    return f"{combo_key(assay, array_size)}|{pattern}"


@dataclass(frozen=True)
class FaultPattern:
    """A named defect scenario, resolved against the placed array.

    Built-in kinds place faults relative to the final array dimensions
    (which are not known until placement ran); ``cells`` pins explicit
    placement coordinates. Patterns are picklable values, so they cross
    process boundaries with the combo spec.
    """

    name: str
    kind: str = "cells"  # cells | none | center | corner | pair | cluster
    cells: tuple[Point, ...] = ()

    _KINDS = ("cells", "none", "center", "corner", "pair", "cluster")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown fault pattern kind {self.kind!r}; choose from {self._KINDS}"
            )

    @classmethod
    def none(cls) -> FaultPattern:
        """The fault-free baseline scenario."""
        return cls("none", kind="none")

    @classmethod
    def center(cls) -> FaultPattern:
        """One dead electrode at the array center."""
        return cls("center", kind="center")

    @classmethod
    def corner(cls) -> FaultPattern:
        """One dead electrode at the array origin corner."""
        return cls("corner", kind="corner")

    @classmethod
    def pair(cls) -> FaultPattern:
        """Two dead electrodes: corner plus center."""
        return cls("pair", kind="pair")

    @classmethod
    def cluster(cls) -> FaultPattern:
        """A spatially-correlated burst of dead electrodes.

        Realized from :class:`repro.fault.models.ClusteredFaults` under
        a fixed seed, so the burst lands at the same cells for a given
        array size on every run (and in every worker process).
        """
        return cls("cluster", kind="cluster")

    @classmethod
    def explicit(cls, name: str, cells: Sequence[Point | tuple[int, int]]) -> FaultPattern:
        """Faults at explicit placement coordinates."""
        return cls(name, kind="cells", cells=tuple(Point(*c) for c in cells))

    def resolve(self, width: int, height: int) -> tuple[Point, ...]:
        """Concrete faulty cells on a ``width x height`` placed array."""
        center = Point((width + 1) // 2, (height + 1) // 2)
        corner = Point(1, 1)
        if self.kind == "none":
            return ()
        if self.kind == "center":
            return (center,)
        if self.kind == "corner":
            return (corner,)
        if self.kind == "pair":
            return (corner, center) if corner != center else (center,)
        if self.kind == "cluster":
            from repro.fault.models import FAIL, ClusteredFaults

            process = ClusteredFaults(width, height, horizon_s=1.0)
            cells = {
                e.cell: None
                for e in process.realize(2005)
                if e.kind == FAIL
            }
            return tuple(cells)
        return self.cells


#: Named patterns the CLI accepts for ``--faults``.
BUILTIN_FAULT_PATTERNS: Mapping[str, FaultPattern] = {
    "none": FaultPattern.none(),
    "center": FaultPattern.center(),
    "corner": FaultPattern.corner(),
    "pair": FaultPattern.pair(),
    "cluster": FaultPattern.cluster(),
}


@dataclass
class ScenarioRecord:
    """One grid cell: an assay under one array size and fault pattern."""

    assay: str
    array_size: tuple[int, int] | None
    fault_pattern: str
    faulty_cells: tuple[Point, ...]
    ok: bool
    #: True when the bind/schedule/place prefix was reused from a
    #: sibling scenario instead of being recomputed.
    upstream_reused: bool
    error: str | None = None
    result: SynthesisResult | None = None
    #: Supervision status: ``ok`` / ``infeasible`` for scenarios the
    #: pipeline decided, ``timeout`` / ``crashed`` when the combo's
    #: worker was lost past the retry budget.
    status: str = STATUS_OK
    #: Raw ``result`` dict for records reloaded from a journal (a
    #: :class:`SynthesisResult` cannot be rebuilt from its dict).
    result_dict: dict | None = None

    @property
    def key(self) -> str:
        """The scenario's stable journal/resume identity."""
        return scenario_key(self.assay, self.array_size, self.fault_pattern)

    def _result_dict(self) -> dict | None:
        if self.result is not None:
            return self.result.to_dict()
        return self.result_dict

    def metric(self, *path: str):
        """A result metric (e.g. ``("routing", "routability")``) or None."""
        node = self._result_dict()
        for part in path:
            if not isinstance(node, dict):
                return None
            node = node.get(part)
        return node

    def to_dict(self) -> dict:
        return {
            "assay": self.assay,
            "array_size": list(self.array_size) if self.array_size else None,
            "fault_pattern": self.fault_pattern,
            "faulty_cells": [[p.x, p.y] for p in self.faulty_cells],
            "ok": self.ok,
            "upstream_reused": self.upstream_reused,
            "status": self.status,
            "error": self.error,
            "result": self._result_dict(),
        }

    @classmethod
    def from_journal(cls, record: dict) -> ScenarioRecord:
        """Rebuild a journaled record (``result`` stays a raw dict)."""
        size = record["array_size"]
        return cls(
            assay=record["assay"],
            array_size=tuple(size) if size else None,
            fault_pattern=record["fault_pattern"],
            faulty_cells=tuple(Point(x, y) for x, y in record["faulty_cells"]),
            ok=record["ok"],
            upstream_reused=record["upstream_reused"],
            error=record["error"],
            status=record["status"],
            result_dict=record["result"],
        )


@dataclass
class BatchReport:
    """Every scenario record of one sweep, plus sweep-level accounting."""

    seed: int
    jobs: int
    wall_s: float = 0.0
    records: list[ScenarioRecord] = field(default_factory=list)

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.records if r.ok)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "scenario_count": len(self.records),
            "ok_count": self.ok_count,
            "scenarios": [r.to_dict() for r in self.records],
        }

    def table_text(self) -> str:
        """Human-readable sweep summary."""
        rows = []
        for r in self.records:
            makespan = r.metric("makespan_s")
            area = r.metric("area_cells")
            routability = r.metric("routing", "routability")
            rows.append(
                (
                    r.assay,
                    "auto" if r.array_size is None else f"{r.array_size[0]}x{r.array_size[1]}",
                    r.fault_pattern,
                    "ok" if r.ok else f"FAILED ({r.error})",
                    f"{makespan:g}" if makespan is not None else "-",
                    area if area is not None else "-",
                    f"{routability:.0%}" if routability is not None else "-",
                    "yes" if r.upstream_reused else "no",
                )
            )
        return format_table(
            ("assay", "array", "faults", "status", "makespan", "cells",
             "routability", "reused"),
            rows,
        )


def _failed(
    unit: Unit, scenario: Scenario, status: str, error: str | None
) -> ScenarioRecord:
    """A scenario whose combo never reached its suffix.

    Nothing upstream completed, so nothing was reused and no fault was
    placed.
    """
    spec: SynthesisSpec = unit.params
    return ScenarioRecord(
        assay=spec.assay,
        array_size=spec.array,
        fault_pattern=scenario.params.name,
        faulty_cells=(),
        ok=False,
        upstream_reused=False,
        error=error,
        status=status,
    )


def _run_combo(unit: Unit) -> list[ScenarioRecord]:
    """Run one (assay, array size) combo: prefix once, fault-dependent
    suffix per pattern."""
    spec = replace(unit.params, seed=unit.seed)
    pipeline = spec.build()
    prefix, suffix = pipeline.split_on_faults()

    base = spec.context()
    try:
        prefix.run(base)
    except ReproError as exc:  # the whole combo is unsynthesizable
        error = f"{type(exc).__name__}: {exc}"
        return [_failed(unit, s, STATUS_INFEASIBLE, error) for s in unit.scenarios]

    assert base.placement_result is not None
    width, height = base.placement_result.array_dims
    records: list[ScenarioRecord] = []
    for scenario in unit.scenarios:
        pattern = scenario.params
        cells = pattern.resolve(width, height)
        ctx = base.fork(faulty_cells=cells)
        error = None
        try:
            if suffix is not None:
                suffix.run(ctx)
            result = ctx.result()
            # A verify stage that replayed the scenario and failed is a
            # failed scenario, not a synthesized-ok one.
            if result.sim_report is not None and not result.sim_report.completed:
                error = f"simulation: {result.sim_report.failure_reason}"
        except ReproError as exc:
            result = None
            error = f"{type(exc).__name__}: {exc}"
        records.append(
            ScenarioRecord(
                assay=spec.assay,
                array_size=spec.array,
                fault_pattern=pattern.name,
                faulty_cells=cells,
                ok=error is None,
                upstream_reused=scenario.position > 0,
                error=error,
                result=result,
                status=STATUS_OK if error is None else STATUS_INFEASIBLE,
            )
        )
    return records


class BatchScenarioRunner:
    """Sweeps a scenario grid through the staged pipeline.

    *spec* is the template every combo synthesizes from: its ``seed``
    seeds the sweep, and each combo replaces its ``assay`` with one of
    *assays* (bundled names or ``gen:`` specs) and its ``array`` with
    one of *array_sizes* (``None`` = auto-sized). *fault_patterns*
    lists defect scenarios layered on each placement.
    """

    def __init__(
        self,
        spec: SynthesisSpec,
        assays: Sequence[str],
        fault_patterns: Sequence[FaultPattern] = (
            BUILTIN_FAULT_PATTERNS["none"],
            BUILTIN_FAULT_PATTERNS["center"],
        ),
        array_sizes: Sequence[tuple[int, int] | None] = (None,),
    ) -> None:
        if not assays:
            raise PipelineError("batch sweep needs at least one assay")
        if not fault_patterns:
            raise PipelineError("batch sweep needs at least one fault pattern")
        dupes = duplicate_keys(
            scenario_key(assay, size, p.name)
            for assay in assays
            for size in array_sizes
            for p in fault_patterns
        )
        if dupes:
            raise PipelineError(f"duplicate scenario keys: {dupes}")
        injecting = [
            p.name
            for p in fault_patterns
            if not (p.kind == "none" or (p.kind == "cells" and not p.cells))
        ]
        if injecting and not (spec.route or spec.verify):
            # Without a fault-consuming stage the defect scenarios would
            # be reported "ok" without ever being exercised.
            raise PipelineError(
                f"fault patterns {injecting} need a fault-consuming stage; "
                "enable route=True or verify=True"
            )
        self.spec = spec
        # One spec per combo; building each validates its assay name.
        self.combos = {
            combo_key(assay, size): replace(spec, assay=assay, array=size)
            for assay in assays
            for size in array_sizes
        }
        self.fault_patterns = tuple(fault_patterns)

    def run(
        self,
        jobs: int = 1,
        *,
        task_timeout: float | None = None,
        max_retries: int = 2,
        chaos=None,
        journal_path=None,
        resume_from=None,
    ) -> BatchReport:
        """Execute the whole grid; ``jobs>1`` parallelizes over combos.

        Supervision, journaling and resume follow
        :func:`repro.exec.run_scenarios`: a resumed report is
        bit-identical to an uninterrupted run, and a combo lost past
        *max_retries* yields one ``crashed`` / ``timeout`` record per
        scenario, never journaled, so a resume retries it.
        """
        t0 = time.perf_counter()
        records, _ = run_scenarios(
            _run_combo,
            (
                (key, spec, scenario_key(spec.assay, spec.array, p.name), p)
                for key, spec in self.combos.items()
                for p in self.fault_patterns
            ),
            seed=self.spec.seed,
            kind=JOURNAL_KIND,
            resumed=ScenarioRecord.from_journal,
            failed=_failed,
            jobs=jobs,
            task_timeout=task_timeout,
            max_retries=max_retries,
            chaos=chaos,
            journal_path=journal_path,
            resume_from=resume_from,
        )
        return BatchReport(
            seed=self.spec.seed,
            jobs=jobs,
            wall_s=time.perf_counter() - t0,
            records=records,
        )
