"""Pinned fault timelines for recovery scenarios.

:func:`scenario_events` realizes one scenario's fault process anchored
at a chosen arrival instant and target cell, so recovery results stay
comparable across fault models. The campaign runner
(:mod:`repro.workload.campaign`) and ``repro recover`` build their
fault events with it.
"""

from __future__ import annotations

from repro.fault.models import CLEAR, FAIL, FAULT_MODELS, FaultEvent
from repro.geometry import Point
from repro.util.errors import RecoveryError


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

    Every model anchors its (first) fault at the scenario's arrival
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
