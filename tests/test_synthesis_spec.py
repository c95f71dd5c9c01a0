"""SynthesisSpec builds exactly the synthesis a hand-assembled flow runs.

Every entry point (CLI commands, portfolio instances, batch and
campaign units) now builds its pipeline from a spec, so each case below
checks ``spec.run()`` against the ``SynthesisFlow`` the entry points
used to assemble themselves: same placement origins and rotations, same
``AnnealingStats``, same schedule, same routing plan.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.assay.catalog import build_assay
from repro.pipeline import SynthesisSpec, instance_seeds, run_portfolio
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.placement.two_stage import TwoStagePlacer
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import UsageError
from repro.util.rng import ensure_rng, spawn_rng

GEN = "gen:panel:n=8:seed=1"


def fingerprint(result):
    placement = result.placement_result
    return (
        sorted((pm.op_id, pm.x, pm.y, pm.rotated) for pm in placement.placement),
        placement.stats,
        result.schedule.to_dict(),
        None if result.routing_plan is None else result.routing_plan.to_dict(),
        result.fti,
    )


def oracle(assay, placer, **flow_kwargs):
    graph, binding = build_assay(assay)
    flow = SynthesisFlow(placer=placer, **flow_kwargs)
    return flow.run(graph, explicit_binding=binding)


@pytest.mark.parametrize(
    "spec, placer_kwargs, flow_kwargs",
    [
        (SynthesisSpec(assay="pcr", seed=3, route=True), {}, {"route": True}),
        (
            SynthesisSpec(assay=GEN, seed=5, route=True),
            {},
            {"route": True, "max_parked": 2},
        ),
        (
            SynthesisSpec(assay="ivd", array=(12, 12), seed=2),
            {"core_width": 12, "core_height": 12},
            {},
        ),
    ],
    ids=["pcr", "gen", "fixed-array"],
)
def test_spec_matches_hand_built_flow(spec, placer_kwargs, flow_kwargs):
    placer = SimulatedAnnealingPlacer(
        params=AnnealingParams.fast(), seed=spec.seed, **placer_kwargs
    )
    expected = oracle(spec.assay, placer, **flow_kwargs)
    assert fingerprint(spec.run()) == fingerprint(expected)


def test_beta_builds_the_two_stage_placer(monkeypatch):
    # Both sides take the two-stage placer's default stage-2 preset;
    # shrinking it to the fast one keeps the check quick.
    monkeypatch.setattr(
        AnnealingParams, "low_temperature", classmethod(lambda cls: cls.fast())
    )
    spec = SynthesisSpec(assay="pcr", beta=30.0, seed=4)
    placer = TwoStagePlacer(
        beta=30.0, stage1_params=AnnealingParams.fast(), seed=4
    )
    assert fingerprint(spec.run()) == fingerprint(oracle("pcr", placer))


def test_portfolio_instances_keep_their_placer_streams():
    # Instance i's placer draws from Random(instance seed i) once, the
    # stream the portfolio spawned for it before specs carried seeds.
    spec = SynthesisSpec(assay="pcr", seed=11)
    portfolio = run_portfolio(spec, n=2, jobs=1)
    assert [o.seed for o in portfolio.outcomes] == instance_seeds(11, 2)
    for outcome in portfolio.outcomes:
        placer = SimulatedAnnealingPlacer(
            params=AnnealingParams.fast(),
            seed=spawn_rng(ensure_rng(outcome.seed)),
            record_history=False,
        )
        assert fingerprint(outcome.result) == fingerprint(oracle("pcr", placer))


def test_spec_pickles():
    spec = SynthesisSpec(assay=GEN, array=(10, 9), fast=False, beta=20.0,
                         max_parked=3, route=True, verify=True, seed=9)
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_max_parked_resolves_per_assay():
    assert SynthesisSpec(assay="ivd").parked is None
    assert SynthesisSpec(assay=GEN).parked == 2
    assert SynthesisSpec(assay="ivd", max_parked=4).parked == 4
    assert replace(SynthesisSpec(assay=GEN), assay="ivd").parked is None


def test_presets_follow_fast():
    assert SynthesisSpec(fast=True).annealing == AnnealingParams.fast()
    assert SynthesisSpec(fast=False).annealing == AnnealingParams.balanced()
    assert SynthesisSpec(fast=True).recovery_annealing == AnnealingParams.fast()
    assert SynthesisSpec(fast=False).recovery_annealing is None


@pytest.mark.parametrize("assay", ["warp", "gen:mix-tree", "gen:warp:n=8"])
def test_bad_assay_rejected_at_construction(assay):
    with pytest.raises(UsageError):
        SynthesisSpec(assay=assay)


@pytest.mark.parametrize("bound", ["max_parked", "max_concurrent"])
def test_bound_below_one_rejected_at_construction(bound):
    # The scheduler would only raise inside each unit, turning a typo
    # into a grid of infeasible records.
    for value in (0, -1):
        with pytest.raises(UsageError, match=f"{bound} must be >= 1, got {value}"):
            SynthesisSpec(**{bound: value})
    assert getattr(SynthesisSpec(**{bound: 1}), bound) == 1
    assert getattr(SynthesisSpec(**{bound: None}), bound) is None
