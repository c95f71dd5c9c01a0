"""Incremental delta-cost annealing vs full recompute: the proof.

Not a paper artifact — the acceptance gate for the incremental
placement engine (``repro.placement.incremental``). Two claims:

1. **Throughput.** On the paper's published annealing schedule
   (T0=10000, alpha=0.9, Na=400) over an assay with >= 10 placed
   modules, the incremental path must deliver >= 4x proposals/sec over
   the full-recompute reference. (Both paths run the identical move
   stream — the generator consumes the same RNG draws either way.)
2. **Quality parity.** Across the bundled assay catalog at fixed
   seeds, the incremental path's median bounding-array area must be
   equal or better per assay — the speedup cannot cost placement
   quality.

Results are also written machine-readably to ``BENCH_placement.json``
(section names below); CI smoke-runs this file with
``REPRO_BENCH_FAST=1``, which shrinks the schedule and relaxes the
throughput bar to 2x (tiny runs leave the O(n^2) path too little room
to lose), and uploads the JSON as an artifact.
"""

from __future__ import annotations

import os
import statistics

import pytest

from repro.assay.catalog import BUNDLED_ASSAYS
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, ScheduleStage
from repro.placement.annealer import AnnealingParams
from repro.placement.cost import AreaCost
from repro.placement.greedy import build_placed_modules
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.util.tables import format_table

FAST = os.environ.get("REPRO_BENCH_FAST", "").lower() in ("1", "true", "yes")
SPEEDUP_BAR = 2.0 if FAST else 4.0
THROUGHPUT_ASSAY = "tree16"  # 31 placed modules — well past the >=10 floor
PARITY_SEEDS = (7,) if FAST else (2, 7, 11)


def _paper_schedule() -> AnnealingParams:
    """The paper schedule, round-capped so the reference path ends today.

    Proposals/sec is a per-round-invariant rate; capping rounds bounds
    wall-clock without touching the per-proposal work being measured.
    """
    base = AnnealingParams.fast() if FAST else AnnealingParams.paper()
    return AnnealingParams(
        initial_temp=base.initial_temp,
        cooling=base.cooling,
        iterations_per_module=base.iterations_per_module,
        window_gamma=base.window_gamma,
        max_rounds=2,
    )


def _modules_for(assay: str):
    graph, binding = BUNDLED_ASSAYS[assay]()
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage().run(context)
    return build_placed_modules(context.schedule, context.binding)


class FullRecomputeCost(AreaCost):
    """``AreaCost`` with ``__call__`` redefined and no ``delta``: the
    annealer's documented fallback onto the full-recompute path."""

    def __call__(self, placement):
        return super().__call__(placement)


def _place(modules, seed: int, incremental: bool, params: AnnealingParams):
    placer = SimulatedAnnealingPlacer(
        params=params,
        cost=AreaCost() if incremental else FullRecomputeCost(),
        seed=seed,
        record_history=False,
    )
    return placer.place_modules(modules)


def test_throughput_paper_schedule(report, bench_json):
    modules = _modules_for(THROUGHPUT_ASSAY)
    assert len(modules) >= 10, "the throughput bar is defined for >= 10 modules"
    params = _paper_schedule()

    full = _place(modules, seed=7, incremental=False, params=params)
    inc = _place(modules, seed=7, incremental=True, params=params)
    speedup = inc.proposals_per_s / full.proposals_per_s

    text = format_table(
        ("path", "proposals", "wall s", "proposals/s", "area cells"),
        [
            ("full-recompute", full.stats.evaluations,
             f"{full.runtime_s:.2f}", f"{full.proposals_per_s:,.0f}",
             full.area_cells),
            ("incremental", inc.stats.evaluations,
             f"{inc.runtime_s:.2f}", f"{inc.proposals_per_s:,.0f}",
             inc.area_cells),
        ],
    )
    schedule = "fast (CI smoke)" if FAST else "paper (T0=10000, Na=400)"
    report(
        f"Incremental placer throughput: {THROUGHPUT_ASSAY} "
        f"({len(modules)} modules), {schedule} schedule — {speedup:.1f}x",
        text,
    )
    bench_json("incremental_throughput", {
        "assay": THROUGHPUT_ASSAY,
        "modules": len(modules),
        "schedule": "fast" if FAST else "paper",
        "full": {
            "proposals": full.stats.evaluations,
            "wall_s": full.runtime_s,
            "proposals_per_s": full.proposals_per_s,
            "area_cells": full.area_cells,
        },
        "incremental": {
            "proposals": inc.stats.evaluations,
            "wall_s": inc.runtime_s,
            "proposals_per_s": inc.proposals_per_s,
            "area_cells": inc.area_cells,
        },
        "speedup": speedup,
        "bar": SPEEDUP_BAR,
    })
    assert speedup >= SPEEDUP_BAR, (
        f"incremental path delivered {speedup:.2f}x proposals/sec over the "
        f"full-recompute reference; the bar is {SPEEDUP_BAR}x"
    )


def test_area_parity_across_catalog(report, bench_json):
    params = AnnealingParams.fast()
    rows = []
    payload = {}
    regressions = []
    for assay in sorted(BUNDLED_ASSAYS):
        modules = _modules_for(assay)
        full_areas = [
            _place(modules, seed=s, incremental=False, params=params).area_cells
            for s in PARITY_SEEDS
        ]
        inc_areas = [
            _place(modules, seed=s, incremental=True, params=params).area_cells
            for s in PARITY_SEEDS
        ]
        med_full = statistics.median(full_areas)
        med_inc = statistics.median(inc_areas)
        rows.append((assay, len(modules), list(PARITY_SEEDS),
                     f"{med_full:g}", f"{med_inc:g}"))
        payload[assay] = {
            "modules": len(modules),
            "seeds": list(PARITY_SEEDS),
            "full_areas": full_areas,
            "incremental_areas": inc_areas,
            "median_full": med_full,
            "median_incremental": med_inc,
        }
        if med_inc > med_full:
            regressions.append((assay, med_full, med_inc))

    report(
        "Incremental placer area parity (median cells at fixed seeds)",
        format_table(
            ("assay", "modules", "seeds", "median full", "median incremental"),
            rows,
        ),
    )
    bench_json("incremental_area_parity", payload)
    assert not regressions, (
        "incremental path regressed median area on: "
        + ", ".join(f"{a} ({f:g} -> {i:g})" for a, f, i in regressions)
    )


@pytest.mark.skipif(FAST, reason="cross-check timing is covered by tier-1 tests")
def test_cross_check_overhead_is_reported(report):
    """Cross-check mode is a verification tool; report what it costs."""
    modules = _modules_for("pcr")
    params = AnnealingParams.fast()
    plain = _place(modules, seed=7, incremental=True, params=params)
    checked = SimulatedAnnealingPlacer(
        params=params, seed=7, cross_check=True, record_history=False
    ).place_modules(modules)
    assert checked.area_cells == plain.area_cells
    report(
        "Cross-check mode overhead (pcr, fast schedule)",
        f"plain incremental: {plain.proposals_per_s:,.0f} proposals/s\n"
        f"with per-move verification: {checked.proposals_per_s:,.0f} "
        f"proposals/s ({plain.proposals_per_s / checked.proposals_per_s:.1f}x "
        f"slower — verification only)",
    )
