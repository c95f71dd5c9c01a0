"""Staged synthesis pipeline, portfolio search, and batch scenario runs.

The paper's top-down flow — behavioral model, architectural-level
synthesis, geometry-level synthesis, routing, verification — lives here
as composable pieces:

* :mod:`repro.pipeline.context` — the shared, picklable
  :class:`SynthesisContext` every stage reads and writes.
* :mod:`repro.pipeline.stages` — the :class:`Stage` protocol and the
  built-in bind / schedule / place / route / verify-by-sim stages.
* :mod:`repro.pipeline.pipeline` — :class:`Pipeline` (ordered stage
  execution, fault-boundary splitting) and
  :func:`build_default_pipeline`.
* :mod:`repro.pipeline.spec` — :class:`SynthesisSpec`, the picklable
  recipe every entry point builds its synthesis from.
* :mod:`repro.pipeline.portfolio` — best-of-N seeded instances in
  parallel via ``ProcessPoolExecutor``, deterministic winner selection.
* :mod:`repro.pipeline.batch` — (assay x array size x fault pattern)
  grid sweeps with upstream-stage reuse and JSON-ready reports.

:class:`repro.synthesis.flow.SynthesisFlow` remains the one-call
facade; it assembles and runs exactly this pipeline.
"""

from repro.pipeline.batch import (
    BUILTIN_FAULT_PATTERNS,
    BatchReport,
    BatchScenarioRunner,
    FaultPattern,
    ScenarioRecord,
)
from repro.pipeline.context import SynthesisContext, normalize_faulty_cells
from repro.pipeline.pipeline import Pipeline, build_default_pipeline
from repro.pipeline.portfolio import (
    OBJECTIVES,
    InstanceOutcome,
    PortfolioResult,
    instance_seeds,
    objective_value,
    run_portfolio,
)
from repro.pipeline.spec import SynthesisSpec
from repro.pipeline.stages import (
    BindStage,
    PlaceStage,
    RecoveryStage,
    RouteStage,
    ScheduleStage,
    SimVerifyStage,
    Stage,
)

__all__ = [
    "BUILTIN_FAULT_PATTERNS",
    "BatchReport",
    "BatchScenarioRunner",
    "BindStage",
    "FaultPattern",
    "InstanceOutcome",
    "OBJECTIVES",
    "Pipeline",
    "PlaceStage",
    "PortfolioResult",
    "RecoveryStage",
    "RouteStage",
    "ScenarioRecord",
    "ScheduleStage",
    "SimVerifyStage",
    "Stage",
    "SynthesisContext",
    "SynthesisSpec",
    "build_default_pipeline",
    "instance_seeds",
    "normalize_faulty_cells",
    "objective_value",
    "run_portfolio",
]
