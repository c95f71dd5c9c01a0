"""The scenario executor's contracts: cell-order records, content-derived
seeds, resume skipping, journaling and keyed failure records.

The worker is a trivial echo so the executor's bookkeeping, not a
synthesis, is under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.exec import STATUS_CRASHED, load_journal
from repro.exec.scenarios import duplicate_keys, run_scenarios
from repro.testing.chaos import ChaosPolicy
from repro.util.rng import derive_seed


@dataclass
class Echo:
    key: str
    unit_key: str
    unit_seed: int
    seed: int
    position: int
    status: str = "ok"

    def to_dict(self) -> dict:
        return dict(vars(self))


def echo(unit) -> list[Echo]:
    return [
        Echo(s.key, unit.key, unit.seed, s.seed, s.position)
        for s in unit.scenarios
    ]


def failed(unit, scenario, status, error) -> Echo:
    return Echo(scenario.key, unit.key, unit.seed, scenario.seed,
                scenario.position, status=status)


# Unit "a" is declared in two separate stretches, like a unit shared by
# two campaign [[grid]] blocks.
CELLS = [("a", None, "a|1", None), ("b", None, "b|1", None),
         ("a", None, "a|2", None), ("b", None, "b|2", None)]


def run(cells=CELLS, **kw):
    return run_scenarios(
        echo, cells, seed=11, kind="echo",
        resumed=lambda d: Echo(**d), failed=failed, **kw,
    )


def test_records_follow_cell_order_and_units_group_by_key():
    records, resumed = run()
    assert [r.key for r in records] == ["a|1", "b|1", "a|2", "b|2"]
    assert [r.position for r in records] == [0, 0, 1, 1]
    assert resumed == 0


def test_seeds_are_derived_from_keys_not_positions():
    records, _ = run(cells=list(reversed(CELLS)))
    for r in records:
        assert r.seed == derive_seed("11", "scenario", r.key)
        assert r.unit_seed == derive_seed("11", "synthesis", r.unit_key)


@pytest.mark.parametrize("jobs", [1, 2])
def test_resume_skips_journaled_scenarios_but_keeps_positions(tmp_path, jobs):
    full = tmp_path / "full.jsonl"
    original, _ = run(journal_path=full)
    partial = tmp_path / "partial.jsonl"
    partial.write_text(full.read_text().splitlines(keepends=True)[0])
    journal = tmp_path / "resumed.jsonl"
    records, resumed = run(jobs=jobs, resume_from=partial, journal_path=journal)
    assert resumed == 1
    assert records == original
    # Only the recomputed scenarios are journaled on resume.
    assert set(load_journal(journal, kind="echo")) == {"a|2", "b|1", "b|2"}


def test_lost_unit_yields_one_failure_record_per_scenario(tmp_path):
    journal = tmp_path / "j.jsonl"
    chaos = ChaosPolicy.explicit_plan({(0, 0): "unpicklable"})
    records, _ = run(jobs=2, max_retries=0, chaos=chaos, journal_path=journal)
    assert [r.status for r in records] == [STATUS_CRASHED, "ok", STATUS_CRASHED, "ok"]
    # Lost scenarios are never journaled, so a resume retries them.
    assert set(load_journal(journal, kind="echo")) == {"b|1", "b|2"}


def test_duplicate_scenario_keys_rejected():
    assert duplicate_keys(["x", "y", "x", "z", "y"]) == ["x", "y"]
    with pytest.raises(ValueError, match="duplicate scenario keys"):
        run(cells=CELLS + [("c", None, "a|1", None)])


def test_invalid_jobs_rejected():
    with pytest.raises(ValueError, match="jobs"):
        run(jobs=0)
