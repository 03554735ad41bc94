"""Report-layer edge cases: empty grids, mid-grid cache misses, bad specs,
and ``--output`` paths whose parent directories do not exist yet."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignScheduler,
    SubGrid,
    campaign_from_file,
    format_points_table,
    points_csv,
)
from repro.campaign.report import subgrid_report_md, subgrid_report_payload
from repro.cli import main
from repro.runner import ResultCache
from repro.scenario import get_scenario

DURATION_MS = 0.4
TRAFFIC = 0.2


def _campaign() -> Campaign:
    return Campaign(
        name="edge_mini",
        duration_ms=DURATION_MS,
        traffic_scale=TRAFFIC,
        subgrids=(
            SubGrid(
                name="policies",
                scenario="case_b",
                axes={"policy": ["fcfs", "round_robin", "priority_qos"]},
                columns=("bandwidth", "min_npi"),
            ),
        ),
    )


class TestEmptySubGrid:
    def test_empty_results_render_header_only_everywhere(self):
        table = format_points_table({}, ("bandwidth", "min_npi"), ("dsp",))
        lines = table.splitlines()
        assert len(lines) == 2  # header + separator, no rows
        assert "bandwidth" in lines[0]
        csv_text = points_csv({}, ("bandwidth",), ())
        assert csv_text.splitlines() == ["point"]

    def test_subgrid_report_with_no_points_does_not_crash(self):
        subgrid = SubGrid(name="empty", scenario="case_b", axes={"policy": ["fcfs"]})
        scenario = get_scenario("case_b")
        report = subgrid_report_md(subgrid, scenario, points=[])
        assert "### empty" in report
        payload = subgrid_report_payload(subgrid, scenario, points=[])
        assert payload["rows"] == []
        json.dumps(payload)

    def test_axisless_subgrid_is_one_fixed_point(self):
        subgrid = SubGrid(
            name="single", scenario="case_b", settings={"policy": "priority_qos"}
        )
        assert subgrid.points() == [{"policy": "priority_qos"}]
        assert subgrid.point_label(subgrid.points()[0]) == "single"


class TestCacheMissMidGrid:
    def test_one_evicted_entry_reexecutes_only_that_point(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scheduler = CampaignScheduler(_campaign())
        first = scheduler.run(cache=cache)
        keys = first.cache_keys["policies"]
        assert first.stats.executed == len(keys)

        # Evict the middle point only; the re-run must hit the cache for the
        # others, re-simulate exactly the missing one, and reproduce the
        # same measured rows bit-identically.
        cache.path_for(keys[1]).unlink()
        second = CampaignScheduler(_campaign()).run(cache=cache)
        assert second.stats.executed == 1
        assert second.stats.cache_hits == len(keys) - 1
        assert second.cache_keys["policies"] == keys
        for label, result in first.results("policies").items():
            other = second.results("policies")[label]
            assert other.min_core_npi == result.min_core_npi
            assert other.dram_bandwidth_bytes_per_s == result.dram_bandwidth_bytes_per_s


class TestBrokenCampaignFiles:
    def test_unknown_column_in_file_carries_dotted_path(self, tmp_path):
        data = _campaign().to_dict()
        data["subgrids"]["policies"]["columns"] = ["bandwidth", "bandwidht"]
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CampaignError) as caught:
            campaign_from_file(path)
        message = str(caught.value)
        assert "campaign.subgrids.policies" in message
        assert "bandwidht" in message
        assert str(path) in message

    def test_unknown_check_kind_in_file_carries_dotted_path(self, tmp_path):
        data = _campaign().to_dict()
        data["subgrids"]["policies"]["checks"] = [{"kind": "wishful_thinking"}]
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CampaignError, match="wishful_thinking"):
            campaign_from_file(path)


class TestOutputParentDirectories:
    """Every ``--output``-shaped flag creates missing parent directories."""

    def test_campaign_report_output_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "reports" / "2026" / "report.md"
        code = main(
            ["campaign", "report", "extended", "--subgrid", "ar_glasses",
             "--duration-ms", "0.25", "--traffic-scale", "0.1",
             "--output", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        assert target.is_file()
        assert "## Campaign extended" in target.read_text()

    def test_run_output_json_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "results" / "one" / "run.json"
        code = main(
            ["run", "case_b", "--duration-ms", "0.25",
             "--traffic-scale", "0.1", "--output-json", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        assert json.loads(target.read_text())["scenario"] == "case_b"

    def test_compare_output_csv_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "csv" / "deep" / "npi.csv"
        main(
            ["compare", "case_b", "--policies", "fcfs", "priority_qos",
             "--duration-ms", "0.25", "--traffic-scale", "0.1",
             "--output-csv", str(target)]
        )
        capsys.readouterr()
        assert target.is_file()
        header, *rows = target.read_text().splitlines()
        assert header.startswith("point,min_npi.")
        assert [row.split(",")[0] for row in rows] == ["fcfs", "priority_qos"]

    def test_sweep_output_csv_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "csv" / "fig7" / "residency.csv"
        code = main(
            ["sweep", "case_a", "--frequencies", "1300", "1700",
             "--duration-ms", "0.25", "--traffic-scale", "0.1",
             "--output-csv", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        assert target.read_text().startswith("dram_freq_mhz,priority_0")
