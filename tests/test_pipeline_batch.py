"""Tests for the batch scenario runner: grids, reuse, JSON output."""

import json

import pytest

from repro.geometry import Point
from repro.pipeline import (
    BUILTIN_FAULT_PATTERNS,
    BatchScenarioRunner,
    FaultPattern,
    SynthesisSpec,
)
from repro.util.errors import PipelineError


def grid_runner(route=True, verify=False, **kwargs):
    defaults = dict(
        assays=("pcr", "dilution", "tree8"),
        fault_patterns=[FaultPattern.none(), FaultPattern.center()],
    )
    defaults.update(kwargs)
    spec = SynthesisSpec(fast=True, route=route, verify=verify, seed=7)
    return BatchScenarioRunner(spec, **defaults)


@pytest.fixture(scope="module")
def report():
    # The acceptance grid: 3 assays x 2 fault patterns.
    return grid_runner().run(jobs=1)


class TestFaultPatterns:
    def test_builtin_registry(self):
        assert set(BUILTIN_FAULT_PATTERNS) == {
            "none", "center", "corner", "pair", "cluster",
        }

    def test_resolution_against_array_dims(self):
        assert FaultPattern.none().resolve(7, 9) == ()
        assert FaultPattern.center().resolve(7, 9) == (Point(4, 5),)
        assert FaultPattern.corner().resolve(7, 9) == (Point(1, 1),)
        assert FaultPattern.pair().resolve(7, 9) == (Point(1, 1), Point(4, 5))

    def test_pair_degenerates_on_a_unit_array(self):
        assert FaultPattern.pair().resolve(1, 1) == (Point(1, 1),)

    def test_explicit_cells(self):
        p = FaultPattern.explicit("mine", [(2, 3), Point(4, 4)])
        assert p.resolve(10, 10) == (Point(2, 3), Point(4, 4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault pattern kind"):
            FaultPattern("bad", kind="diagonal")


class TestGridShape:
    def test_full_grid_covered(self, report):
        combos = {(r.assay, r.fault_pattern) for r in report.records}
        assert combos == {
            (a, f)
            for a in ("pcr", "dilution", "tree8")
            for f in ("none", "center")
        }

    def test_all_scenarios_synthesized(self, report):
        assert report.ok_count == len(report.records) == 6
        for r in report.records:
            assert r.result is not None
            assert r.result.routing_plan is not None

    def test_fault_free_scenarios_have_no_cells(self, report):
        for r in report.records:
            if r.fault_pattern == "none":
                assert r.faulty_cells == ()
            else:
                assert len(r.faulty_cells) == 1

    def test_routed_plans_avoid_the_faulty_cells(self, report):
        for r in report.records:
            if not r.faulty_cells or r.result is None:
                continue
            plan = r.result.routing_plan
            shifted = {
                Point(p.x + plan.margin, p.y + plan.margin) for p in r.faulty_cells
            }
            for rn in plan.nets:
                assert not shifted.intersection(rn.cells), (
                    f"{r.assay}/{r.fault_pattern}: net {rn.net.net_id} "
                    f"crosses a faulty cell"
                )


class TestUpstreamReuse:
    def test_prefix_computed_once_per_assay(self, report):
        for assay in ("pcr", "dilution", "tree8"):
            recs = [r for r in report.records if r.assay == assay]
            assert [r.upstream_reused for r in recs] == [False, True]

    def test_reused_scenarios_share_identical_placements(self, report):
        for assay in ("pcr", "dilution", "tree8"):
            recs = [r for r in report.records if r.assay == assay]
            placements = [
                {
                    pm.op_id: (pm.x, pm.y)
                    for pm in r.result.placement_result.placement
                }
                for r in recs
            ]
            assert placements[0] == placements[1]
            # Reuse is by reference — the same PlacementResult object.
            assert (
                recs[0].result.placement_result is recs[1].result.placement_result
            )

    def test_downstream_products_are_per_scenario(self, report):
        recs = [r for r in report.records if r.assay == "pcr"]
        assert recs[0].result.routing_plan is not recs[1].result.routing_plan


class TestJsonOutput:
    def test_report_round_trips_through_json(self, report):
        d = report.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["scenario_count"] == 6
        assert d["ok_count"] == 6
        assert len(d["scenarios"]) == 6

    def test_scenario_dict_contents(self, report):
        s = report.to_dict()["scenarios"][0]
        assert s["assay"] == "pcr"
        assert s["fault_pattern"] == "none"
        assert s["ok"] is True
        assert s["result"]["routing"]["routability"] == 1.0
        assert s["result"]["fti"] is not None

    def test_table_text_renders_every_row(self, report):
        text = report.table_text()
        for assay in ("pcr", "dilution", "tree8"):
            assert assay in text
        assert "100%" in text


class TestParallelDeterminism:
    def test_jobs_do_not_change_the_records(self, report):
        parallel = grid_runner().run(jobs=2)

        def key(rep):
            return [
                (
                    r.assay,
                    r.fault_pattern,
                    r.ok,
                    r.result.area_cells if r.result else None,
                    r.result.total_route_steps if r.result else None,
                )
                for r in rep.records
            ]

        assert key(parallel) == key(report)

    def test_reordered_grid_reproduces_every_record(self, report):
        # Each combo's seed is derived from its own key, not its grid
        # position, so reversing the assays changes no record.
        reordered = grid_runner(assays=("tree8", "dilution", "pcr")).run(jobs=1)
        assert reordered.records[0].assay == "tree8"

        def by_key(rep):
            return {r.key: _stable(r.to_dict()) for r in rep.records}

        assert by_key(reordered) == by_key(report)


class TestValidation:
    def test_empty_assays_rejected(self):
        with pytest.raises(PipelineError, match="at least one assay"):
            grid_runner(assays=())

    def test_empty_patterns_rejected(self):
        with pytest.raises(PipelineError, match="at least one fault pattern"):
            grid_runner(fault_patterns=[])

    def test_duplicate_pattern_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            grid_runner(
                fault_patterns=[FaultPattern.none(), FaultPattern.none()]
            )

    def test_duplicate_scenario_keys_rejected(self):
        # Two records under one key would collapse to one journal line,
        # so a resume could not reproduce the run.
        with pytest.raises(PipelineError, match=r"duplicate .*'pcr\|12x12\|none'"):
            grid_runner(array_sizes=[(12, 12), (12, 12)])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            grid_runner().run(jobs=0)

    def test_fault_patterns_without_consuming_stage_rejected(self):
        # route=False, verify=False would report defect scenarios "ok"
        # without ever exercising them — refuse the configuration.
        with pytest.raises(PipelineError, match="fault-consuming stage"):
            grid_runner(route=False, verify=False)

    def test_fault_free_sweep_allowed_without_fault_stages(self):
        runner = grid_runner(
            route=False, verify=False, fault_patterns=[FaultPattern.none()]
        )
        report = runner.run(jobs=1)
        assert report.ok_count == len(report.records) == 3

    def test_verify_only_sweep_exercises_faults(self):
        runner = grid_runner(assays=("pcr",), route=False, verify=True)
        report = runner.run(jobs=1)
        by_pattern = {r.fault_pattern: r for r in report.records}
        assert by_pattern["center"].result.sim_report is not None
        assert by_pattern["center"].result.sim_report.events_of_kind("fault")
        assert not by_pattern["none"].result.sim_report.events_of_kind("fault")


# -- supervised execution: failure records, chaos, journal/resume -------------

_TIMING_KEYS = frozenset(
    {"wall_s", "runtime_s", "stage_timings", "anneal_s", "proposals_per_s"}
)


def _stable(node):
    """A report dict with the wall-clock-noise fields stripped."""
    if isinstance(node, dict):
        return {k: _stable(v) for k, v in node.items() if k not in _TIMING_KEYS}
    if isinstance(node, list):
        return [_stable(v) for v in node]
    return node


def small_runner(**kwargs):
    return grid_runner(assays=("pcr", "dilution"), **kwargs)


class TestStructuredFailures:
    def test_crashed_combo_yields_failure_records_not_silence(self):
        from repro.exec import STATUS_CRASHED
        from repro.testing.chaos import ChaosPolicy

        # Combo 0 (pcr) fails on every attempt with an exception the
        # result pipe cannot pickle (task-scoped, so combo 1 is
        # unharmed); the lost scenarios must surface as keyed failure
        # records instead of vanishing from the report.
        chaos = ChaosPolicy.explicit_plan(
            {(0, a): "unpicklable" for a in range(2)}
        )
        report = small_runner().run(jobs=2, max_retries=1, chaos=chaos)
        assert len(report.records) == 4  # nothing silently dropped
        failed = [r for r in report.records if r.assay == "pcr"]
        assert len(failed) == 2
        for r in failed:
            assert not r.ok
            assert r.status == STATUS_CRASHED
            assert r.error
            assert r.key in ("pcr|auto|none", "pcr|auto|center")
        assert all(r.ok for r in report.records if r.assay == "dilution")
        assert "FAILED" in report.table_text()

    def test_retried_run_is_bit_identical_to_clean_run(self):
        from repro.testing.chaos import ChaosPolicy

        clean = small_runner().run(jobs=2)
        chaos = ChaosPolicy.explicit_plan({(1, 0): "worker-kill"})
        stormy = small_runner().run(jobs=2, max_retries=2, chaos=chaos)
        assert _stable(stormy.to_dict()) == _stable(clean.to_dict())


class TestJournalResume:
    def test_journal_records_every_decided_scenario(self, tmp_path):
        from repro.exec import load_journal
        from repro.pipeline.batch import JOURNAL_KIND

        journal = tmp_path / "batch.jsonl"
        small_runner().run(jobs=1, journal_path=journal)
        done = load_journal(journal, kind=JOURNAL_KIND)
        assert set(done) == {
            "pcr|auto|none", "pcr|auto|center",
            "dilution|auto|none", "dilution|auto|center",
        }
        assert all(rec["ok"] for rec in done.values())

    def test_full_resume_is_bit_identical_and_recomputes_nothing(self, tmp_path):
        journal = tmp_path / "batch.jsonl"
        original = small_runner().run(jobs=1, journal_path=journal)
        resumed = small_runner().run(jobs=1, resume_from=journal)
        assert _stable(resumed.to_dict()) == _stable(original.to_dict())
        # Reloaded records carry the raw result dict, not a live result.
        assert all(r.result is None for r in resumed.records)
        assert all(r.result_dict is not None for r in resumed.records)

    def test_partial_resume_preserves_the_seed_stream(self, tmp_path):
        # Only the first scenario is journaled; the recomputed rest
        # derive their seeds from their own keys, so they match an
        # uninterrupted run.
        journal = tmp_path / "batch.jsonl"
        original = small_runner().run(jobs=1, journal_path=journal)
        lines = journal.read_text().splitlines(keepends=True)
        partial = tmp_path / "partial.jsonl"
        partial.write_text(lines[0])
        resumed = small_runner().run(jobs=1, resume_from=partial)
        assert _stable(resumed.to_dict()) == _stable(original.to_dict())

    def test_resume_after_crash_completes_the_campaign(self, tmp_path):
        from repro.exec import load_journal
        from repro.pipeline.batch import JOURNAL_KIND
        from repro.testing.chaos import ChaosPolicy

        clean = small_runner().run(jobs=1)
        journal = tmp_path / "batch.jsonl"
        # First attempt: the pcr combo is lost past the retry budget, so
        # only dilution's scenarios reach the journal (crash/timeout
        # records must never be journaled — a resume has to retry them).
        chaos = ChaosPolicy.explicit_plan(
            {(0, a): "unpicklable" for a in range(2)}
        )
        first = small_runner().run(
            jobs=2, max_retries=1, chaos=chaos, journal_path=journal
        )
        assert first.ok_count == 2
        assert set(load_journal(journal, kind=JOURNAL_KIND)) == {
            "dilution|auto|none", "dilution|auto|center",
        }
        # Resume without chaos: only pcr is recomputed, the report is
        # bit-identical to an uninterrupted run, the journal now full.
        resumed = small_runner().run(
            jobs=1, journal_path=journal, resume_from=journal
        )
        assert _stable(resumed.to_dict()) == _stable(clean.to_dict())
        assert len(load_journal(journal, kind=JOURNAL_KIND)) == 4

    def test_resume_with_journal_into_same_file_appends_nothing_new(self, tmp_path):
        journal = tmp_path / "batch.jsonl"
        small_runner().run(jobs=1, journal_path=journal)
        lines_before = journal.read_text().count("\n")
        small_runner().run(jobs=1, journal_path=journal, resume_from=journal)
        assert journal.read_text().count("\n") == lines_before
