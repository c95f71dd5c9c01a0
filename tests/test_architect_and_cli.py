"""Tests for the architectural explorer and the command-line interface."""

import pytest

from repro.assay.protocols.pcr import build_pcr_mixing_graph
from repro.cli import build_parser, main
from repro.placement.annealer import AnnealingParams
from repro.synthesis.architect import ArchitecturalExplorer, DesignPoint


@pytest.fixture(scope="module")
def exploration():
    explorer = ArchitecturalExplorer(params=AnnealingParams.fast(), seed=7)
    return explorer.explore(
        build_pcr_mixing_graph(), concurrency_caps=(2, 3)
    )


class TestDesignPoint:
    def make(self, makespan, area, fti):
        return DesignPoint(
            strategy="fastest", max_concurrent_ops=3, makespan_s=makespan,
            area_cells=area, area_mm2=area * 2.25, fti=fti, runtime_s=0.1,
        )

    def test_dominates(self):
        better = self.make(19, 63, 0.5)
        worse = self.make(25, 70, 0.3)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_equal_points_do_not_dominate(self):
        a = self.make(19, 63, 0.5)
        b = self.make(19, 63, 0.5)
        assert not a.dominates(b)

    def test_tradeoff_points_incomparable(self):
        fast_big = self.make(19, 90, 0.4)
        slow_small = self.make(30, 60, 0.4)
        assert not fast_big.dominates(slow_small)
        assert not slow_small.dominates(fast_big)


class TestExplorer:
    def test_point_count(self, exploration):
        # 2 strategies x 2 caps.
        assert len(exploration.points) == 4

    def test_pareto_front_nonempty_and_subset(self, exploration):
        front = exploration.pareto_front
        assert front
        assert set(front) <= set(exploration.points)

    def test_front_is_mutually_nondominated(self, exploration):
        front = exploration.pareto_front
        for a in front:
            for b in front:
                assert not a.dominates(b) or a == b

    def test_lower_cap_never_shortens_makespan(self, exploration):
        by_key = {
            (p.strategy, p.max_concurrent_ops): p for p in exploration.points
        }
        for strategy in ("fastest", "smallest"):
            assert (
                by_key[(strategy, 2)].makespan_s
                >= by_key[(strategy, 3)].makespan_s
            )

    def test_table_renders(self, exploration):
        text = exploration.table_text()
        assert "pareto" in text
        assert "fastest" in text and "smallest" in text


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_protocol_rejected(self):
        # Not an argparse choices= rejection: --protocol accepts open
        # gen: specs, so the catalog validates and main maps it to 2.
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--protocol", "warp"])
        assert exc.value.code == 2

    def test_flow_command_runs(self, capsys):
        rc = main(["flow", "--protocol", "pcr", "--seed", "2", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "assay: pcr-mixing-stage" in out
        assert "FTI" in out

    def test_flow_with_beta_uses_two_stage(self, capsys):
        rc = main(["flow", "--protocol", "dilution", "--beta", "20",
                   "--seed", "3", "--fast"])
        assert rc == 0
        assert "fault tolerance" in capsys.readouterr().out

    def test_explore_command_runs(self, capsys):
        rc = main(["explore", "--protocol", "pcr", "--seed", "5", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pareto front" in out

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_fast_selects_larger_preset(self):
        args = build_parser().parse_args(["flow", "--no-fast"])
        assert args.fast is False
        args = build_parser().parse_args(["flow"])
        assert args.fast is True

    def test_route_command_prints_verified_plan(self, capsys):
        rc = main(["route", "--protocol", "pcr", "--seed", "2", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification: conflict-free" in out
        assert "routability" in out
        assert "latency" in out

    def test_route_command_avoids_declared_fault(self, capsys):
        rc = main(
            ["route", "--protocol", "pcr", "--seed", "2", "--faulty", "4", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification: conflict-free" in out


class TestPortfolioCommand:
    def test_portfolio_runs_and_reports_winner(self, capsys):
        rc = main(["portfolio", "--protocol", "pcr", "-n", "2",
                   "--seed", "7", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "winner: instance" in out
        assert "assay: pcr-mixing-stage" in out

    def test_portfolio_json_output(self, capsys):
        import json

        rc = main(["portfolio", "--protocol", "pcr", "-n", "2",
                   "--seed", "7", "--fast", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["objective"] == "area"
        assert len(d["instances"]) == 2
        assert d["instances"][d["winner_index"]]["result"]["area_cells"] > 0

    def test_portfolio_objective_flag(self, capsys):
        rc = main(["portfolio", "--protocol", "pcr", "-n", "2", "--seed", "7",
                   "--objective", "fti", "--fast"])
        assert rc == 0
        assert "fti" in capsys.readouterr().out


class TestRecoverCommand:
    def test_sweep_honors_max_concurrent(self, tmp_path):
        """The recovery sweep grid's max_concurrent reaches its nominal
        synthesis: a fixed arrival lands at that fraction of the
        max_concurrent=1 schedule's makespan."""
        from repro.assay.catalog import build_assay
        from repro.pipeline.context import SynthesisContext
        from repro.pipeline.stages import BindStage, ScheduleStage
        from repro.workload.campaign import read_log

        graph, binding = build_assay("pcr")
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        BindStage().run(context)
        ScheduleStage(max_concurrent_ops=1).run(context)
        config = tmp_path / "sweep.toml"
        config.write_text(
            '[campaign]\nname = "sweep"\nmax_concurrent = 1\n\n'
            '[[grid]]\ngenerators = ["pcr"]\nfault_models = ["permanent"]\n'
            'arrivals = ["0.5"]\n'
        )
        log = tmp_path / "sweep.jsonl"
        assert main(["campaign", str(config), "--log", str(log)]) == 0
        (record,) = read_log(log)[1]
        assert record.recovery["fault_time_s"] == 0.5 * context.schedule.makespan


class TestBatchCommand:
    def test_batch_grid_runs(self, capsys):
        rc = main(["batch", "--protocols", "pcr,dilution",
                   "--faults", "none,center", "--seed", "7", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pcr" in out and "dilution" in out
        assert "scenarios ok" in out

    def test_batch_json_round_trips(self, capsys):
        import json

        rc = main(["batch", "--protocols", "pcr", "--faults", "none,corner",
                   "--seed", "7", "--fast", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["scenario_count"] == 2
        assert d["ok_count"] == 2
        assert json.loads(json.dumps(d)) == d

    def test_bundled_record_ignores_generated_grid_mates(self, capsys):
        # max_parked resolves per assay: sharing a grid with a gen:
        # workload must not bound a bundled assay's schedule.
        import json

        timing = {"runtime_s", "stage_timings", "anneal_s", "proposals_per_s"}

        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items() if k not in timing}
            return node

        def ivd_record(protocols):
            main(["batch", "--protocols", protocols, "--faults", "none",
                  "--seed", "7", "--fast", "--json"])
            scenarios = json.loads(capsys.readouterr().out)["scenarios"]
            (record,) = [s for s in scenarios if s["assay"] == "ivd"]
            return strip(record)

        assert ivd_record("ivd,gen:panel:n=8:seed=1") == ivd_record("ivd")

    def test_batch_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            main(["batch", "--protocols", "warp", "--fast"])

    def test_batch_rejects_unknown_fault_pattern(self):
        with pytest.raises(SystemExit):
            main(["batch", "--protocols", "pcr", "--faults", "meteor", "--fast"])

    def test_batch_rejects_vacuous_fault_sweep_cleanly(self):
        # --no-route without --verify leaves no stage that consumes the
        # faults; must exit with a message, not a traceback or a false ok.
        with pytest.raises(SystemExit, match="fault-consuming"):
            main(["batch", "--protocols", "pcr", "--faults", "none,center",
                  "--no-route", "--fast"])

    def test_batch_rejects_empty_protocol_list_cleanly(self):
        with pytest.raises(SystemExit, match="at least one assay"):
            main(["batch", "--protocols", ",", "--fast"])

    def test_portfolio_unproducible_objective_exits_cleanly(self):
        with pytest.raises(SystemExit, match="route=True"):
            main(["portfolio", "--protocol", "pcr", "-n", "2", "--seed", "7",
                  "--objective", "route-steps", "--fast"])
