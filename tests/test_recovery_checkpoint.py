"""Checkpoint/resume round-trips and recovery-sweep determinism.

The core invariant of the online-recovery design: resumption is
deterministic replay, so checkpointing at *any* instant and resuming
with no new fault must reproduce the original simulation trace **bit
for bit** — same events (droplet ids included), same realized finishes,
same transport accounting. Property-tested over random checkpoint
instants; plus the Monte-Carlo recovery sweep — a campaign grid over
assays x fault arrivals x fault targets — whose log is byte-identical
for any worker count, grid order and resume split.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assay.catalog import build_assay
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import SimulationError, UsageError
from repro.workload.campaign import (
    CAMPAIGN_JOURNAL_KIND,
    CampaignConfig,
    CampaignRunner,
)


@pytest.fixture(scope="module", params=["pcr", "dilution"])
def synthesized(request):
    """One routed synthesis per assay, shared across the module."""
    graph, binding = build_assay(request.param)
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7),
        route=True,
    )
    result = flow.run(graph, explicit_binding=binding)
    sim = BiochipSimulator(
        graph,
        result.schedule,
        result.binding,
        result.placement_result.placement,
        routing_plan=result.routing_plan,
        strict=False,
    )
    baseline = sim.run()
    assert baseline.completed
    return sim, baseline


@settings(max_examples=25, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.1, allow_nan=False))
def test_checkpoint_resume_reproduces_trace_bit_identically(synthesized, fraction):
    """Checkpoint at any t, resume with no new fault -> original trace."""
    sim, baseline = synthesized
    t = fraction * baseline.nominal_makespan
    checkpoint = sim.checkpoint(t)
    resumed = sim.resume(checkpoint)
    assert resumed.events == baseline.events
    assert resumed.realized_finish == baseline.realized_finish
    assert resumed.total_transport_cells == baseline.total_transport_cells
    assert resumed.planned_transports == baseline.planned_transports
    # The checkpoint's event prefix is exactly the trace up to t.
    assert checkpoint.events_prefix == tuple(
        e for e in baseline.events if e.time <= t
    )


@settings(max_examples=15, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=0.99, allow_nan=False))
def test_checkpoint_classification_partitions_the_schedule(synthesized, fraction):
    sim, baseline = synthesized
    t = fraction * baseline.nominal_makespan
    ck = sim.checkpoint(t)
    buckets = (*ck.completed, *ck.in_flight, *ck.pending)
    assert sorted(buckets) == sorted(ck.realized)  # disjoint and exhaustive
    for op in ck.completed:
        assert ck.realized[op][1] <= t
    for op in ck.in_flight:
        start, finish = ck.realized[op]
        assert start <= t < finish
    for op in ck.pending:
        assert ck.realized[op][0] > t


def test_run_is_reentrant(synthesized):
    """Two runs of the same simulator are bit-identical (reset state:
    array faults, reservoir rotation, droplet ids)."""
    sim, baseline = synthesized
    again = sim.run()
    assert again.events == baseline.events
    assert again.realized_finish == baseline.realized_finish


def test_resume_prefix_is_stable_under_new_faults(synthesized):
    """A new fault strictly after the checkpoint cannot rewrite the past."""
    sim, baseline = synthesized
    t = 0.6 * baseline.nominal_makespan
    ck = sim.checkpoint(t)
    # A boundary-lane cell: fault-tolerant enough to keep the run alive.
    resumed = sim.resume(ck, new_faults=[(t + 0.5, (1, 1))])
    assert tuple(e for e in resumed.events if e.time <= t) == ck.events_prefix


def test_checkpoint_rejects_future_faults_and_failed_runs(synthesized):
    sim, baseline = synthesized
    with pytest.raises(ValueError):
        sim.checkpoint(1.0, faults=[(5.0, (1, 1))])
    with pytest.raises(ValueError):
        sim.resume(sim.checkpoint(3.0), new_faults=[(1.0, (1, 1))])


def test_checkpoint_to_dict_is_json_safe(synthesized):
    import json

    sim, baseline = synthesized
    ck = sim.checkpoint(0.5 * baseline.nominal_makespan)
    payload = json.dumps(ck.to_dict())
    assert "completed" in payload


def test_checkpoint_of_failed_run_raises():
    graph, binding = build_assay("pcr")
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7)
    )
    result = flow.run(graph, explicit_binding=binding)
    sim = BiochipSimulator(
        graph,
        result.schedule,
        result.binding,
        result.placement_result.placement,
        strict=False,
    )
    # Kill every module of the whole array at t=0: unrecoverable.
    w, h = result.placement_result.array_dims
    faults = [(0.0, (x + 2, y + 2)) for x in range(1, w + 1) for y in range(1, h + 1)]
    with pytest.raises(SimulationError):
        sim.checkpoint(10.0, faults=faults)


# -- corrupted / truncated checkpoints ----------------------------------------


class TestCheckpointValidation:
    """A mangled checkpoint must raise RecoveryError naming the
    inconsistency — never a bare KeyError/IndexError from deep inside
    the replay (checkpoints cross process and serialization
    boundaries)."""

    @pytest.fixture()
    def ck(self, synthesized):
        import dataclasses

        sim, baseline = synthesized
        checkpoint = sim.checkpoint(0.5 * baseline.nominal_makespan)
        return sim, checkpoint, dataclasses.replace

    def test_intact_checkpoint_validates_and_resumes(self, ck):
        sim, checkpoint, _ = ck
        checkpoint.validate(sim.schedule)
        assert sim.resume(checkpoint).completed

    def test_negative_time_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        with pytest.raises(RecoveryError, match="must be >= 0"):
            replace(checkpoint, time_s=-1.0).validate(sim.schedule)

    def test_duplicate_classification_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        dup = checkpoint.completed[0]
        mangled = replace(checkpoint, pending=(*checkpoint.pending, dup))
        with pytest.raises(RecoveryError, match="classified twice"):
            mangled.validate(sim.schedule)

    def test_missing_operation_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        mangled = replace(checkpoint, pending=checkpoint.pending[1:])
        with pytest.raises(RecoveryError, match="does not partition"):
            mangled.validate(sim.schedule)
        with pytest.raises(RecoveryError, match="corrupt checkpoint"):
            sim.resume(mangled)

    def test_unknown_operation_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        mangled = replace(
            checkpoint, pending=(*checkpoint.pending, "op-from-another-assay")
        )
        with pytest.raises(RecoveryError, match="does not partition"):
            mangled.validate(sim.schedule)

    def test_started_op_without_realized_interval_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        realized = dict(checkpoint.realized)
        realized.pop(checkpoint.completed[0])
        mangled = replace(checkpoint, realized=realized)
        with pytest.raises(RecoveryError, match="no realized interval"):
            mangled.validate(sim.schedule)

    def test_backwards_interval_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        op = checkpoint.completed[0]
        realized = dict(checkpoint.realized)
        start, finish = realized[op]
        realized[op] = (finish + 1.0, start)
        with pytest.raises(RecoveryError, match="backwards"):
            replace(checkpoint, realized=realized).validate(sim.schedule)

    def test_completed_op_finishing_in_the_future_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        op = checkpoint.completed[0]
        realized = dict(checkpoint.realized)
        start, _ = realized[op]
        realized[op] = (start, checkpoint.time_s + 100.0)
        with pytest.raises(RecoveryError, match="after the checkpoint instant"):
            replace(checkpoint, realized=realized).validate(sim.schedule)

    def test_fault_after_checkpoint_instant_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        mangled = replace(
            checkpoint,
            faults=(*checkpoint.faults, (checkpoint.time_s + 5.0, (1, 1))),
        )
        with pytest.raises(RecoveryError, match="faults after"):
            mangled.validate(sim.schedule)

    def test_stale_event_prefix_rejected(self, ck):
        import dataclasses as dc

        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        late = dc.replace(
            checkpoint.events_prefix[-1], time=checkpoint.time_s + 9.0
        )
        mangled = replace(
            checkpoint, events_prefix=(*checkpoint.events_prefix, late)
        )
        with pytest.raises(RecoveryError, match="stale or truncated"):
            mangled.validate(sim.schedule)

    def test_parked_droplet_from_unknown_op_rejected(self, ck):
        from repro.geometry import Point
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        positions = dict(checkpoint.droplet_positions)
        positions["phantom-op"] = Point(3, 3)
        mangled = replace(checkpoint, droplet_positions=positions)
        with pytest.raises(RecoveryError, match="parked droplets"):
            mangled.validate(sim.schedule)


# -- sweep determinism across --jobs ------------------------------------------

# -- the recovery sweep grid, declared as a campaign ---------------------------


def sweep_config(
    assays=("pcr",), arrivals=("0.5",), targets=("pending-module", "street")
) -> CampaignConfig:
    """A Monte-Carlo recovery grid: one permanent fault per scenario."""
    return CampaignConfig.from_dict({
        "campaign": {"name": "sweep", "seed": 11},
        "grid": [{
            "generators": list(assays),
            "fault_models": ["permanent"],
            "arrivals": list(arrivals),
            "targets": list(targets),
        }],
    })


def run_sweep(tmp_path, config=None, log="sweep.jsonl", **kwargs):
    """Run *config* (default :func:`sweep_config`); (report, log bytes)."""
    path = tmp_path / log
    report = CampaignRunner(config or sweep_config()).run(path, **kwargs)
    return report, path.read_bytes()


def test_sweep_results_identical_across_jobs(tmp_path):
    config = sweep_config(assays=("pcr", "dilution"), targets=("pending-module",))
    _, serial = run_sweep(tmp_path, config, "serial.jsonl", jobs=1)
    _, parallel = run_sweep(tmp_path, config, "parallel.jsonl", jobs=2)
    assert serial == parallel


# -- sweep journaling, resume, and structured failures ------------------------


def test_sweep_journal_and_full_resume_bit_identical(tmp_path):
    from repro.exec import load_journal

    journal = tmp_path / "sweep.journal"
    _, original = run_sweep(tmp_path, journal_path=journal)
    assert set(load_journal(journal, kind=CAMPAIGN_JOURNAL_KIND)) == {
        "pcr|auto|permanent|ideal|event|arrival=0.5",
        "pcr|auto|permanent|ideal|event|arrival=0.5|target=street",
    }
    report, resumed = run_sweep(tmp_path, log="resumed.jsonl", resume_from=journal)
    assert report.resumed == 2
    assert resumed == original


def test_sweep_partial_resume_preserves_the_seed_stream(tmp_path):
    # Only the first scenario is journaled; the recomputed rest must
    # draw exactly the seeds an uninterrupted run would (each seed is
    # derived from its own scenario key, whatever the resume skips).
    journal = tmp_path / "sweep.journal"
    _, original = run_sweep(tmp_path, journal_path=journal)
    lines = journal.read_text().splitlines(keepends=True)
    partial = tmp_path / "partial.journal"
    partial.write_text(lines[0])
    report, resumed = run_sweep(tmp_path, log="resumed.jsonl", resume_from=partial)
    assert report.resumed == 1
    assert resumed == original


def test_sweep_crashed_block_yields_structured_failure_records(tmp_path):
    from repro.exec import STATUS_CRASHED
    from repro.testing.chaos import ChaosPolicy

    # The pcr unit fails with a task-scoped unpicklable exception on
    # its only attempt; its scenarios must appear as keyed failure
    # records while the dilution unit is unharmed.
    chaos = ChaosPolicy.explicit_plan({(0, 0): "unpicklable"})
    report, _ = run_sweep(
        tmp_path, sweep_config(assays=("pcr", "dilution")),
        jobs=2, max_retries=0, chaos=chaos,
    )
    assert len(report.records) == 4
    failed = [r for r in report.records if r.spec == "pcr"]
    assert len(failed) == 2
    for r in failed:
        assert r.status == STATUS_CRASHED
        assert not r.completed
        assert r.error
        assert r.key in (
            "pcr|auto|permanent|ideal|event|arrival=0.5",
            "pcr|auto|permanent|ideal|event|arrival=0.5|target=street",
        )
    assert all(r.ok for r in report.records if r.spec == "dilution")
    assert report.status_counts == {"crashed": 2, "ok": 2}


def test_sweep_reordered_grid_reproduces_every_record(tmp_path):
    # Seeds are derived from scenario keys, not grid positions, so
    # reversing the arrivals changes no record. ``index`` alone is
    # positional by definition: it is the record's place in the log.
    def by_key(arrivals):
        report, _ = run_sweep(tmp_path, sweep_config(arrivals=arrivals))
        return {
            r.key: {k: v for k, v in r.to_dict().items() if k != "index"}
            for r in report.records
        }

    forward = by_key(("0.25", "0.5"))
    assert len(forward) == 4
    assert forward == by_key(("0.5", "0.25"))


def test_sweep_rejects_duplicate_scenario_keys():
    # Two records under one key would collapse to one journal line, so
    # a resume could not reproduce the run; "0.50" canonicalizes to
    # the arrival "0.5".
    with pytest.raises(UsageError, match=r"'pcr\|.*\|arrival=0.5' already declared"):
        sweep_config(arrivals=("0.5", "0.50"))


def test_sweep_failed_nominal_synthesis_is_infeasible(tmp_path, monkeypatch):
    import repro.pipeline.spec as spec_module
    from repro.util.errors import PlacementError

    class Unplaceable:
        def run(self, context):
            raise PlacementError("no room on the array")

    monkeypatch.setattr(
        spec_module, "build_default_pipeline", lambda **kwargs: Unplaceable()
    )
    report, _ = run_sweep(tmp_path, jobs=1)
    assert [r.status for r in report.records] == ["infeasible", "infeasible"]
    for r in report.records:
        assert not r.completed
        assert r.synthesis is None
        assert r.error == "PlacementError: no room on the array"


def test_sweep_failed_checkpoint_is_infeasible(tmp_path, monkeypatch):
    from repro.recovery import OnlineRecoveryEngine
    from repro.util.errors import RecoveryError

    def no_checkpoint(self, result, fault_time, **kwargs):
        assert fault_time > 0
        raise RecoveryError("replay stalled before the fault")

    monkeypatch.setattr(OnlineRecoveryEngine, "checkpoint_of", no_checkpoint)
    report, _ = run_sweep(tmp_path, jobs=1)
    assert [r.status for r in report.records] == ["infeasible", "infeasible"]
    for r in report.records:
        assert not r.completed
        assert r.synthesis is not None
        assert r.error == "RecoveryError: replay stalled before the fault"
