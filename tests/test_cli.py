"""Tests for the scenario-first ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "case_a"
        assert args.policy is None
        assert args.duration_ms > 0

    def test_unknown_policy_rejected_at_dispatch(self, capsys):
        assert main(["run", "--policy", "magic", "--duration-ms", "0.1"]) == 2
        assert "unknown scheduling policy 'magic'" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["run", "no_such_scenario", "--duration-ms", "0.1"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_set_syntax_rejected(self, capsys):
        assert main(["run", "case_b", "--set", "nonsense"]) == 2
        assert "--set expects PATH=VALUE" in capsys.readouterr().err

    def test_unknown_set_path_rejected(self, capsys):
        assert main(["run", "case_b", "--set", "platform.sim.warp=9"]) == 2
        assert "no such setting" in capsys.readouterr().err


class TestScenarioCommands:
    def test_list_names_every_bundled_scenario(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        for name in (
            "case_a",
            "case_b",
            "ar_glasses",
            "manycore_streaming",
            "latency_bandwidth_stress",
        ):
            assert name in output

    def test_show_prints_lossless_json(self, capsys):
        assert main(["scenarios", "show", "case_b"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "case_b"
        assert payload["platform"]["sim"]["dram"]["io_freq_mhz"] == 1700.0

    def test_validate_all_bundled_scenarios(self, capsys):
        assert main(["scenarios", "validate"]) == 0
        output = capsys.readouterr().out
        assert output.count("[PASS]") == 5
        assert "0 failure(s)" in output

    def test_validate_rejects_broken_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps({"name": "broken", "platform": {"sim": {"seed": -1}}}))
        assert main(["scenarios", "validate", str(bad)]) == 1
        output = capsys.readouterr().out
        assert "[FAIL]" in output
        assert "seed" in output


class TestInformationalCommands:
    def test_policies_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        output = capsys.readouterr().out
        for name in ("fcfs", "round_robin", "priority_qos", "priority_rowbuffer", "atlas"):
            assert name in output

    def test_governors_lists_registry(self, capsys):
        assert main(["governors"]) == 0
        output = capsys.readouterr().out
        for name in ("performance", "powersave", "priority_pressure"):
            assert name in output

    def test_settings_prints_tables(self, capsys):
        assert main(["settings", "case_b"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "Table 2" in output
        assert "dram_io_freq_mhz" in output


class TestRunCommands:
    COMMON = ["case_b", "--duration-ms", "1", "--traffic-scale", "0.2"]

    def test_run_prints_summary_and_saves_json(self, capsys, tmp_path):
        output_path = tmp_path / "result.json"
        code = main(
            ["run", *self.COMMON, "--policy", "priority_qos", "--output-json", str(output_path)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "policy=priority_qos" in output
        assert "scenario=case_b" in output
        assert output_path.exists()
        payload = json.loads(output_path.read_text())
        assert payload["policy"] == "priority_qos"
        assert payload["scenario"] == "case_b"

    def test_run_accepts_scenario_file(self, capsys, tmp_path):
        from repro.scenario import get_scenario

        path = get_scenario("case_b").save(tmp_path / "my_case.json")
        code = main(
            ["run", str(path), "--duration-ms", "0.4", "--traffic-scale", "0.2",
             "--policy", "fcfs"]
        )
        assert code == 0
        assert "policy=fcfs" in capsys.readouterr().out

    def test_compare_accepts_file_scenario_with_uncatalogued_name(self, capsys, tmp_path):
        # The shape checks must use the Scenario object in hand, not re-resolve
        # its name through the catalog (which would fail for file scenarios).
        from repro.scenario import get_scenario

        scenario = get_scenario("case_b").with_overrides(name="my_custom_case")
        path = scenario.save(tmp_path / "my_custom.json")
        code = main(
            ["compare", str(path), "--duration-ms", "0.4", "--traffic-scale", "0.2",
             "--policies", "fcfs", "priority_qos"]
        )
        output = capsys.readouterr()
        assert "unknown scenario" not in output.err
        assert "Minimum NPI per critical core (scenario my_custom_case)" in output.out
        assert "shape checks:" in output.out
        assert code in (0, 1)  # shape checks may fail at this tiny duration

    def test_run_set_overrides_scenario(self, capsys):
        code = main(
            ["run", *self.COMMON, "--set", "policy=fcfs",
             "--set", "platform.sim.seed=7"]
        )
        assert code == 0
        assert "policy=fcfs" in capsys.readouterr().out

    def test_compare_prints_tables_and_checks(self, capsys, tmp_path):
        csv_path = tmp_path / "npi.csv"
        main(
            [
                "compare",
                *self.COMMON,
                "--policies",
                "fcfs",
                "priority_qos",
                "--output-csv",
                str(csv_path),
            ]
        )
        output = capsys.readouterr().out
        assert "Minimum NPI per critical core" in output
        assert "Average DRAM bandwidth" in output
        assert "shape checks:" in output
        assert csv_path.exists()

    def test_sweep_prints_priority_table(self, capsys):
        code = main(
            [
                "sweep",
                *self.COMMON,
                "--frequencies",
                "1300",
                "1700",
                "--dma",
                "image_processor.read",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Fig. 7" in output
        assert "1700" in output and "1300" in output

    def test_grid_runs_declared_axes(self, capsys):
        code = main(
            ["grid", "case_b", "--duration-ms", "0.4", "--traffic-scale", "0.2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Grid over case_b's declared axes (4 points)" in output
        assert "policy=fcfs" in output

    def test_dvfs_reports_residency_and_energy(self, capsys):
        code = main(["dvfs", *self.COMMON, "--governor", "powersave", "--interval-us", "50"])
        assert code == 0
        output = capsys.readouterr().out
        assert "governor: powersave" in output
        assert "residency:" in output
        assert "energy" in output

    def test_energy_reports_breakdown(self, capsys):
        code = main(["energy", *self.COMMON, "--policy", "priority_rowbuffer"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Memory-system energy breakdown" in output
        assert "Average power" in output


class TestCampaignCommands:
    @pytest.fixture()
    def tiny_campaign(self, tmp_path):
        from repro.campaign import Campaign, SubGrid

        campaign = Campaign(
            name="tiny",
            description="one two-point sub-grid",
            duration_ms=0.4,
            traffic_scale=0.2,
            subgrids=(
                SubGrid(
                    name="mini",
                    scenario="case_b",
                    axes={"policy": ["fcfs", "priority_qos"]},
                    columns=("bandwidth", "min_npi", "failing"),
                    claims=("tiny declared claim",),
                ),
            ),
        )
        return str(campaign.save(tmp_path / "tiny.json"))

    def test_list_names_bundled_campaigns(self, capsys):
        assert main(["campaign", "list"]) == 0
        output = capsys.readouterr().out
        assert "paper_figures" in output
        assert "extended" in output

    def test_show_prints_lossless_json(self, capsys):
        assert main(["campaign", "show", "paper_figures"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "paper_figures"
        assert list(payload["subgrids"]) == ["fig5", "fig6", "fig7", "fig8", "fig9"]

    def test_validate_bundled_campaigns(self, capsys):
        assert main(["campaign", "validate"]) == 0
        output = capsys.readouterr().out
        assert output.count("[PASS]") == 2
        assert "0 failure(s)" in output

    def test_validate_rejects_broken_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "bad", "subgrids": {"g": {"columns": ["nope"]}}}))
        assert main(["campaign", "validate", str(bad)]) == 1
        output = capsys.readouterr().out
        assert "[FAIL]" in output
        assert "unknown column" in output

    def test_run_prints_stats_and_markdown_report(self, tiny_campaign, capsys):
        assert main(["campaign", "run", tiny_campaign]) == 0
        output = capsys.readouterr().out
        assert "campaign tiny:" in output
        assert "  mini: sweep:" in output
        assert "### mini" in output
        assert "tiny declared claim" in output
        assert "### Campaign summary" in output

    def test_run_json_report_to_file(self, tiny_campaign, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "campaign", "run", tiny_campaign,
                "--format", "json", "--output", str(report_path),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        cold = report_path.read_bytes()
        payload = json.loads(cold)
        assert payload["campaign"] == "tiny"
        assert len(payload["subgrids"][0]["rows"]) == 2
        # Telemetry stays on the console, never in the recorded payload.
        assert "2 executed" in capsys.readouterr().out
        assert "stats" not in payload
        # A second run resolves everything from the cache and renders the
        # byte-identical report — the invariant crash-resume relies on.
        assert main(
            [
                "campaign", "run", tiny_campaign,
                "--format", "json", "--output", str(report_path),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        ) == 0
        assert "2 cache hit(s)" in capsys.readouterr().out
        assert report_path.read_bytes() == cold

    def test_inprocess_executor_reports_one_job(self, tiny_campaign, tmp_path, capsys):
        # --jobs 2 asks for workers, but --executor inprocess runs every point
        # in this process: the summary lines and manifest stats must say so.
        from repro.store import ResultsStore

        store_dir = tmp_path / "store"
        code = main(
            [
                "campaign", "run", tiny_campaign, "--jobs", "2",
                "--executor", "inprocess", "--store-dir", str(store_dir),
            ]
        )
        assert code == 0
        summaries = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("campaign tiny: sweep:", "  mini: sweep:"))
        ]
        assert len(summaries) == 2
        assert all("jobs=1," in line for line in summaries)
        (manifest,) = ResultsStore(str(store_dir)).manifests()
        assert manifest.stats["jobs"] == 1

    def test_report_prints_only_the_report(self, tiny_campaign, capsys):
        assert main(["campaign", "report", tiny_campaign]) == 0
        output = capsys.readouterr().out
        assert "campaign tiny:" not in output
        assert output.lstrip().startswith("## Campaign tiny")

    def test_run_subgrid_subset_and_unknown_subgrid(self, tiny_campaign, capsys):
        assert main(["campaign", "run", tiny_campaign, "--subgrid", "mini"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", tiny_campaign, "--subgrid", "nope"]) == 2
        assert "no sub-grid 'nope'" in capsys.readouterr().err

    def test_strict_fails_on_failed_checks(self, tmp_path, capsys):
        from repro.campaign import Campaign, CheckSpec, SubGrid

        # priority_qos cannot fail a critical core here, so the declared
        # some_point_fails check fails and --strict turns that into rc 1.
        campaign = Campaign(
            name="strict",
            duration_ms=0.4,
            traffic_scale=0.2,
            subgrids=(
                SubGrid(
                    name="mini",
                    scenario="case_b",
                    axes={"policy": ["priority_qos"]},
                    checks=(
                        CheckSpec(
                            kind="meets_targets",
                            params={"where": {"policy": "no_such_policy"}},
                        ),
                    ),
                ),
            ),
        )
        path = str(campaign.save(tmp_path / "strict.json"))
        assert main(["campaign", "run", path]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", path, "--strict"]) == 1
        assert "check(s) failed" in capsys.readouterr().err


class TestGridReporting:
    def test_grid_md_has_latency_and_deadline_columns(self, capsys):
        code = main(["grid", "case_b", "--duration-ms", "0.4", "--traffic-scale", "0.2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Grid over case_b's declared axes (4 points)" in output
        header = [line for line in output.splitlines() if line.startswith("| point")][0]
        assert "avg latency (ns)" in header
        assert "deadline" in header
        assert "min NPI dsp" in header
        assert "policy=fcfs" in output

    def test_grid_json_is_machine_readable(self, capsys):
        code = main(
            ["grid", "case_b", "--duration-ms", "0.4", "--traffic-scale", "0.2",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "case_b"
        rows = payload["axis_sets"]["declared axes"]["rows"]
        assert len(rows) == 4
        assert {"point", "bandwidth_gb_per_s", "min_npi", "failing_cores", "deadline_met"} <= set(rows[0])

    def test_grid_named_axis_sets_run_per_set(self, tmp_path, capsys):
        from repro.scenario import get_scenario

        scenario = get_scenario("case_b").with_overrides(
            name="named_case",
            sweep={
                "policies": {"policy": ["fcfs", "priority_qos"]},
                "seeds": {"platform.sim.seed": [2018, 7]},
            },
        )
        path = scenario.save(tmp_path / "named_case.json")
        code = main(["grid", str(path), "--duration-ms", "0.4", "--traffic-scale", "0.2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Grid over named_case's policies (2 points)" in output
        assert "Grid over named_case's seeds (2 points)" in output
        capsys.readouterr()
        code = main(
            ["grid", str(path), "--duration-ms", "0.4", "--traffic-scale", "0.2",
             "--axis-set", "seeds"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "policies" not in output
        assert "Grid over named_case's seeds (2 points)" in output
