"""The campaign runner's contracts: deterministic expansion, seeded
scenarios, jobs-invariant byte-identical logs, journal/resume
equivalence, and schema validation of every record.
"""

from __future__ import annotations

import json

import pytest

from repro.util.errors import ReproError, UsageError
from repro.workload.campaign import (
    RECORD_SCHEMA_VERSION,
    CampaignConfig,
    CampaignRunner,
    SensorSpec,
    derive_seed,
    parse_array,
    parse_arrival,
    read_log,
    validate_log,
)

TINY = {
    "campaign": {"name": "tiny", "seed": 11},
    "grid": [
        {
            "generators": ["gen:panel:n=8:seed=1", "gen:mix-tree:n=8:seed=2"],
            "fault_models": ["none", "permanent"],
        }
    ],
}


def tiny_config() -> CampaignConfig:
    return CampaignConfig.from_dict(TINY, source="inline")


class TestConfigParsing:
    def test_load_toml(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text(
            '[campaign]\nname = "x"\nseed = 3\n\n'
            '[[grid]]\ngenerators = ["pcr"]\n'
        )
        cfg = CampaignConfig.load(p)
        assert (cfg.name, cfg.seed) == ("x", 3)
        scenarios = cfg.expand()
        assert [s.key for s in scenarios] == ["pcr|auto|none|ideal|event"]

    def test_synthesis_keys_parse_into_one_spec(self):
        # An absent max_parked resolves per assay in the spec, as on
        # every other entry point.
        from repro.pipeline import SynthesisSpec

        data = {**TINY, "campaign": {"max_concurrent": 2, "fast": False}}
        cfg = CampaignConfig.from_dict(data, source="inline")
        assert cfg.synthesis == SynthesisSpec(
            fast=False, max_concurrent=2, route=True
        )

    def test_load_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(TINY))
        assert len(CampaignConfig.load(p).expand()) == 4

    def test_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            CampaignConfig.load(tmp_path / "nope.toml")

    def test_bad_toml_is_usage_error(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text("[campaign\n")
        with pytest.raises(UsageError, match="cannot parse"):
            CampaignConfig.load(p)

    @pytest.mark.parametrize(
        "grid, match",
        [
            ({}, "generators"),
            ({"generators": ["warp"]}, "unknown protocol"),
            ({"generators": ["gen:warp:n=9"]}, "unknown generator family"),
            ({"generators": ["pcr"], "fault_models": ["meteor"]},
             "unknown fault model"),
            ({"generators": ["pcr"], "engines": ["warp"]}, "unknown key"),
            ({"generators": ["pcr"], "arrays": ["12by12"]}, "bad array size"),
            ({"generators": ["pcr"], "typo": [1]}, "unknown key"),
            ({"generators": ["pcr"], "sensors": ["ideal", "fpr=1"]},
             "false_positive_rate must be in"),
            ({"generators": ["pcr"], "sensors": ["latency=nan"]},
             "latency_s must be finite"),
        ],
    )
    def test_bad_grids_fail_at_load_time(self, grid, match):
        with pytest.raises(UsageError, match=match):
            CampaignConfig.from_dict(
                {"campaign": {"name": "x"}, "grid": [grid]}
            )

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(UsageError, match="already declared"):
            CampaignConfig.from_dict({
                "campaign": {"name": "x"},
                "grid": [
                    {"generators": ["pcr"]},
                    {"generators": ["pcr"]},
                ],
            })

    def test_gen_specs_canonicalized(self):
        cfg = CampaignConfig.from_dict({
            "campaign": {"name": "x"},
            "grid": [{"generators": ["gen:panel:seed=1:n=8"]}],
        })
        assert cfg.expand()[0].spec == "gen:panel:n=8:seed=1"


class TestExpansion:
    def test_grid_order_and_indices(self):
        scenarios = tiny_config().expand()
        assert [s.index for s in scenarios] == [0, 1, 2, 3]
        assert [s.key for s in scenarios] == [
            "gen:panel:n=8:seed=1|auto|none|ideal|event",
            "gen:panel:n=8:seed=1|auto|permanent|ideal|event",
            "gen:mix-tree:n=8:seed=2|auto|none|ideal|event",
            "gen:mix-tree:n=8:seed=2|auto|permanent|ideal|event",
        ]

    def test_expansion_is_deterministic(self):
        a = [s.key for s in tiny_config().expand()]
        b = [s.key for s in tiny_config().expand()]
        assert a == b

    def test_default_axes_add_nothing_to_keys(self):
        # Declaring the default arrival and target is the same grid as
        # declaring neither: same keys, so the same derived seeds.
        grid = {**TINY["grid"][0], "arrivals": ["random"],
                "targets": ["pending-module"]}
        explicit = CampaignConfig.from_dict({**TINY, "grid": [grid]})
        assert [s.key for s in explicit.expand()] == [
            s.key for s in tiny_config().expand()
        ]

    def test_fault_axes_extend_keys_and_skip_fault_free(self):
        cfg = CampaignConfig.from_dict({
            "campaign": {"name": "x"},
            "grid": [{
                "generators": ["pcr"],
                "fault_models": ["none", "permanent"],
                "arrivals": ["random", "0.250"],
                "targets": ["pending-module", "street"],
            }],
        })
        scenarios = cfg.expand()
        assert [s.key for s in scenarios] == [
            "pcr|auto|none|ideal|event",
            "pcr|auto|permanent|ideal|event",
            "pcr|auto|permanent|ideal|event|target=street",
            "pcr|auto|permanent|ideal|event|arrival=0.25",
            "pcr|auto|permanent|ideal|event|arrival=0.25|target=street",
        ]
        assert (scenarios[0].arrival, scenarios[0].target) == (None, None)
        assert (scenarios[4].arrival, scenarios[4].target) == ("0.25", "street")


class TestSeedDerivation:
    def test_contract_is_stable(self):
        # Pinned value: changing the derivation silently re-seeds every
        # historical campaign, batch and sweep, so any change must be
        # deliberate. The campaign module re-exports the one function.
        from repro.util import rng

        assert rng.derive_seed is derive_seed
        assert derive_seed("11", "scenario", "k") == 6487507411245763848
        assert derive_seed("11", "scenario", "a") != derive_seed(
            "11", "scenario", "b"
        )
        assert derive_seed("11", "synthesis", "a") != derive_seed(
            "11", "scenario", "a"
        )

    def test_parts_are_delimited(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert derive_seed("ab", "c") != derive_seed("a", "bc")


class TestHelpers:
    def test_parse_array(self):
        assert parse_array("auto") is None
        assert parse_array("12x8") == (12, 8)
        with pytest.raises(UsageError):
            parse_array("12")
        with pytest.raises(UsageError):
            parse_array("0x8")

    def test_parse_arrival(self):
        assert parse_arrival("random") == "random"
        assert parse_arrival("0.5") == parse_arrival("0.50") == "0.5"
        assert parse_arrival("0") == parse_arrival("-0") == "0"
        for bad in ("1.0", "1", "-0.1", "soon", "nan", "inf", ""):
            with pytest.raises(UsageError, match="bad arrival"):
                parse_arrival(bad)

    def test_sensor_spec_parse(self):
        assert SensorSpec.parse("ideal").key == "ideal"
        s = SensorSpec.parse("fpr=0.05,fnr=0.1")
        assert (s.false_positive_rate, s.false_negative_rate) == (0.05, 0.1)
        assert SensorSpec.parse({"fpr": 0.2}).false_positive_rate == 0.2
        with pytest.raises(UsageError):
            SensorSpec.parse("fpr=2.0")
        with pytest.raises(UsageError):
            SensorSpec.parse("warp=1")


class TestRunnerEndToEnd:
    def test_log_is_complete_and_valid(self, tmp_path):
        log = tmp_path / "c.jsonl"
        report = CampaignRunner(tiny_config()).run(log, jobs=1)
        assert validate_log(log) == []
        meta, records = read_log(log)
        assert meta["scenario_count"] == 4
        assert len(records) == 4
        # Zero silently-lost scenarios: every declared key, in grid
        # order, each with a terminal status.
        assert [r.key for r in records] == [
            s.key for s in tiny_config().expand()
        ]
        assert all(r.status == "ok" for r in records)
        assert report.ok_count == 4

    def test_jobs_invariance_bit_identical(self, tmp_path):
        logs = []
        for jobs in (1, 2, 4):
            log = tmp_path / f"c{jobs}.jsonl"
            CampaignRunner(tiny_config()).run(log, jobs=jobs)
            logs.append(log.read_bytes())
        assert logs[0] == logs[1] == logs[2]

    def test_resume_equivalence(self, tmp_path):
        full = tmp_path / "full.jsonl"
        CampaignRunner(tiny_config()).run(full, jobs=1)

        # First leg journals its decided scenarios...
        journal = tmp_path / "leg.journal"
        half_cfg = CampaignConfig.from_dict({
            "campaign": {"name": "tiny", "seed": 11},
            "grid": [{
                "generators": ["gen:panel:n=8:seed=1"],
                "fault_models": ["none", "permanent"],
            }],
        })
        CampaignRunner(half_cfg).run(
            tmp_path / "half.jsonl", jobs=1, journal_path=journal
        )
        # ...then the full campaign resumes from them: the resumed log
        # must be byte-identical to the uninterrupted run.
        resumed = tmp_path / "resumed.jsonl"
        report = CampaignRunner(tiny_config()).run(
            resumed, jobs=1, resume_from=journal
        )
        assert report.resumed == 2
        assert resumed.read_bytes() == full.read_bytes()

    def test_records_carry_the_fault_fields(self, tmp_path):
        log = tmp_path / "c.jsonl"
        CampaignRunner(tiny_config()).run(log, jobs=1)
        fault_free, faulted = read_log(log)[1][:2]
        assert (fault_free.arrival, fault_free.target) == (None, None)
        assert fault_free.recovery["fault_time_s"] is None
        assert fault_free.recovery["fault_cells"] == []
        assert (faulted.arrival, faulted.target) == ("random", "pending-module")
        makespan = faulted.synthesis["makespan_s"]
        assert 0.3 * makespan <= faulted.recovery["fault_time_s"] <= 0.7 * makespan
        assert len(faulted.recovery["fault_cells"]) == 1
        assert faulted.recovery["detection_latency_s"] == 0.0

    @pytest.mark.parametrize("journal_arg", ["journal_path", "resume_from"])
    def test_log_that_is_the_journal_is_rejected(self, tmp_path, journal_arg):
        journal = tmp_path / "j.jsonl"
        journal.write_text("kept\n")
        with pytest.raises(UsageError, match="also the journal"):
            CampaignRunner(tiny_config()).run(
                journal, jobs=1, **{journal_arg: tmp_path / "." / "j.jsonl"}
            )
        assert journal.read_text() == "kept\n"

    def test_infeasible_scenarios_still_logged(self, tmp_path):
        # An 8x8 core cannot hold gen:mix-tree modules side by side;
        # synthesis fails, yet the log still carries one terminal
        # record per scenario.
        cfg = CampaignConfig.from_dict({
            "campaign": {"name": "cramped", "seed": 1},
            "grid": [{
                "generators": ["gen:mix-tree:n=8:seed=2"],
                "arrays": ["3x3"],
                "fault_models": ["none", "permanent"],
            }],
        })
        log = tmp_path / "c.jsonl"
        report = CampaignRunner(cfg).run(log, jobs=1)
        assert validate_log(log) == []
        _, records = read_log(log)
        assert [r.status for r in records] == ["infeasible", "infeasible"]
        assert all(r.error for r in records)
        assert report.ok_count == 0


class TestLogValidation:
    def run_tiny(self, tmp_path):
        log = tmp_path / "c.jsonl"
        CampaignRunner(tiny_config()).run(log, jobs=1)
        return log

    def test_missing_log_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            validate_log(tmp_path / "nope.jsonl")

    def test_truncated_log_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:-1]))
        assert any("lost scenarios" in e for e in validate_log(log))

    def test_corrupt_json_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        assert any("not JSON" in e for e in validate_log(log))

    def test_wrong_version_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        lines = log.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["v"] = RECORD_SCHEMA_VERSION + 1
        lines[1] = json.dumps(entry, sort_keys=True)
        log.write_text("\n".join(lines) + "\n")
        assert any("schema version" in e for e in validate_log(log))

    def test_bad_field_type_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        lines = log.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["seed"] = "not-an-int"
        lines[1] = json.dumps(entry, sort_keys=True)
        log.write_text("\n".join(lines) + "\n")
        assert any("field 'seed'" in e for e in validate_log(log))

    def rewrite_records(self, log, edit):
        lines = log.read_text().splitlines()
        for i in range(1, len(lines)):
            entry = json.loads(lines[i])
            edit(entry)
            lines[i] = json.dumps(entry, sort_keys=True)
        log.write_text("\n".join(lines) + "\n")

    def test_logs_without_added_fields_stay_valid(self, tmp_path):
        def strip(entry):
            del entry["arrival"], entry["target"]
            for k in ("fault_time_s", "fault_cells", "rerouted_nets",
                      "reused_epochs", "detection_latency_s"):
                del entry["recovery"][k]

        log = self.run_tiny(tmp_path)
        self.rewrite_records(log, strip)
        assert validate_log(log) == []

    def test_added_field_types_checked(self, tmp_path):
        def corrupt(entry):
            entry["arrival"] = 0.5
            entry["recovery"]["fault_cells"] = "7,5"

        log = self.run_tiny(tmp_path)
        self.rewrite_records(log, corrupt)
        problems = validate_log(log)
        assert any("field 'arrival' has float" in e for e in problems)
        assert any("field 'recovery.fault_cells' has str" in e for e in problems)

    def test_duplicate_key_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines) + lines[1])
        problems = validate_log(log)
        assert any("duplicate key" in e for e in problems)

    def test_read_log_raises_on_invalid(self, tmp_path):
        log = self.run_tiny(tmp_path)
        log.write_text(log.read_text() + "{not json\n")
        with pytest.raises(ReproError, match="invalid campaign log"):
            read_log(log)
