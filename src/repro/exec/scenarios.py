"""One executor for journaled, content-seeded scenario grids.

The batch runner and the campaign runner execute the same shape of
work: a grid of scenarios grouped into *units* that share one expensive
prefix (a synthesis), fanned out on a
:class:`~repro.exec.supervised.SupervisedPool`, journaled as they are
decided, and resumable after a crash. :func:`run_scenarios` owns
that loop and the seed scheme; each runner supplies its grid cells, a
worker function and its record types.

Seeds are derived from content keys with
:func:`~repro.util.rng.derive_seed`, never drawn in grid order: a unit's
synthesis seed is ``derive_seed(seed, "synthesis", unit key)`` and a
scenario's seed is ``derive_seed(seed, "scenario", scenario key)``. So
a record depends only on its own key — not on the worker count, the
grid order, or which scenarios a resume skips.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.exec.journal import CampaignJournal, NullJournal, load_journal
from repro.exec.supervised import SupervisedPool
from repro.util.rng import derive_seed


@dataclass(frozen=True)
class Scenario:
    """One grid cell, as a worker sees it."""

    key: str
    seed: int
    #: Index among its unit's declared scenarios; every scenario after
    #: the first reuses the unit's shared prefix.
    position: int
    #: The runner's cell parameters.
    params: Any


@dataclass(frozen=True)
class Unit:
    """Scenarios sharing one synthesized prefix: one pool task."""

    key: str
    seed: int
    #: The runner's unit parameters (picklable: they cross into workers).
    params: Any
    scenarios: tuple[Scenario, ...]


def duplicate_keys(keys: Iterable[str]) -> list[str]:
    """Keys that occur more than once."""
    return [key for key, n in Counter(keys).items() if n > 1]


def run_scenarios(
    fn: Callable[[Unit], list],
    cells: Iterable[tuple[str, Any, str, Any]],
    *,
    seed: int,
    kind: str,
    resumed: Callable[[dict], Any],
    failed: Callable[[Unit, Scenario, str, str | None], Any],
    jobs: int = 1,
    task_timeout: float | None = None,
    max_retries: int = 2,
    chaos=None,
    journal_path=None,
    resume_from=None,
) -> tuple[list, int]:
    """Execute a grid of ``(unit key, unit params, key, params)`` cells.

    Cells sharing a unit key form one :class:`Unit` (the first cell's
    unit params win), run by *fn* — a module-level function, so it
    pickles into workers — which returns one record per scenario.
    Records have ``key`` and ``to_dict()``.

    *resume_from* loads a journal of *kind*: its scenarios are dropped
    from their units (a unit with nothing left is not run) and their
    records rebuilt with *resumed*. *journal_path* appends every record
    of a completed unit as the unit finishes. A unit lost to worker
    crashes or deadline overruns past *max_retries* yields
    ``failed(unit, scenario, status, error)`` for each of its
    scenarios; those are never journaled, so a resume retries them.

    Returns the records in cell order and the number of scenarios
    loaded from the journal.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    base = str(seed)
    order: list[str] = []
    grouped: dict[str, tuple[Any, list[Scenario]]] = {}
    for unit_key, unit_params, key, params in cells:
        _, scenarios = grouped.setdefault(unit_key, (unit_params, []))
        scenarios.append(
            Scenario(key, derive_seed(base, "scenario", key), len(scenarios), params)
        )
        order.append(key)
    dupes = duplicate_keys(order)
    if dupes:
        raise ValueError(f"duplicate scenario keys: {dupes}")

    done = load_journal(resume_from, kind=kind) if resume_from else {}
    todo = []
    for unit_key, (unit_params, scenarios) in grouped.items():
        left = tuple(s for s in scenarios if s.key not in done)
        if left:
            unit_seed = derive_seed(base, "synthesis", unit_key)
            todo.append(Unit(unit_key, unit_seed, unit_params, left))

    by_key: dict[str, Any] = {}
    with (CampaignJournal(journal_path) if journal_path else NullJournal()) as journal:

        def on_outcome(out) -> None:
            unit = todo[out.index]
            if out.ok:
                records = out.value
                for rec in records:
                    journal.append(kind, rec.key, rec.to_dict())
            else:
                records = [
                    failed(unit, s, out.status, out.error) for s in unit.scenarios
                ]
            for rec in records:
                by_key[rec.key] = rec

        pool = SupervisedPool(
            jobs=max(1, min(jobs, len(todo))),
            task_timeout=task_timeout,
            max_retries=max_retries,
            chaos=chaos,
        )
        pool.map(fn, todo, keys=[u.key for u in todo], on_outcome=on_outcome)

    records = []
    for key in order:
        rec = by_key.get(key)
        if rec is None:
            assert key in done, f"scenario lost without record: {key}"
            rec = resumed(done[key])
        records.append(rec)
    return records, sum(1 for key in order if key in done)
