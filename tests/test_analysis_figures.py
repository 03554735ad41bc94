"""Tests for figure-data CSV export and the ASCII bar chart."""

from __future__ import annotations

import csv
import io

import pytest

from repro.analysis.ascii_plot import ascii_bar_chart
from repro.campaign import points_csv, priority_residency_csv
from repro.runner import compare_policies_specs, frequency_sweep_specs, run_sweep
from repro.sim.clock import MS

SHORT = 2 * MS
SCALE = 0.25


@pytest.fixture(scope="module")
def policy_results():
    policies = ["fcfs", "priority_qos"]
    specs = compare_policies_specs(
        policies, scenario="case_b", duration_ps=SHORT, traffic_scale=SCALE
    )
    return dict(zip(policies, run_sweep(specs)[0]))


@pytest.fixture(scope="module")
def sweep_results():
    frequencies = [1300.0, 1700.0]
    specs = frequency_sweep_specs(
        frequencies,
        scenario="case_b",
        policy="priority_qos",
        duration_ps=SHORT,
        traffic_scale=SCALE,
    )
    return dict(zip(frequencies, run_sweep(specs)[0]))


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestFigureRows:
    def test_fig7_rows_have_one_row_per_frequency(self, sweep_results):
        rows = read_csv(priority_residency_csv(sweep_results, "image_processor.read"))
        assert len(rows) == 1 + len(sweep_results)
        assert rows[0][0] == "dram_freq_mhz"
        assert rows[0][-1] == "mean_priority"
        # Frequencies reported highest first, like the paper's figure.
        assert float(rows[1][0]) >= float(rows[-1][0])
        for row in rows[1:]:
            shares = [float(cell) for cell in row[1:-1]]
            assert sum(shares) == pytest.approx(1.0, abs=0.05)

    def test_min_npi_rows_cover_all_policies(self, policy_results):
        rows = read_csv(points_csv(policy_results, ("min_npi", "mean_npi"), ["display", "dsp"]))
        assert rows[0] == [
            "point", "min_npi.display", "min_npi.dsp", "mean_npi.display", "mean_npi.dsp"
        ]
        assert [row[0] for row in rows[1:]] == list(policy_results)


class TestCsvExport:
    def test_export_and_reread(self, tmp_path, policy_results):
        path = tmp_path / "npi.csv"
        path.write_text(points_csv(policy_results, ("min_npi",), ["display"]), newline="")
        with path.open(newline="") as handle:
            read_back = list(csv.reader(handle))
        assert read_back[0] == ["point", "min_npi.display"]
        assert len(read_back) == 1 + len(policy_results)
        # Cells are raw numbers that survive the round trip exactly.
        for policy, value in read_back[1:]:
            assert float(value) == policy_results[policy].min_core_npi["display"]


class TestAsciiCharts:
    def test_bar_chart_contains_every_label(self):
        chart = ascii_bar_chart({"fcfs": 10.0, "priority_qos": 14.0}, width=30, unit=" GB/s")
        assert "fcfs" in chart
        assert "priority_qos" in chart
        assert "GB/s" in chart
        # The larger value gets the longer bar.
        fcfs_line, qos_line = chart.splitlines()
        assert qos_line.count("#") > fcfs_line.count("#")

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            ascii_bar_chart({}, width=30)
        with pytest.raises(ValueError):
            ascii_bar_chart({"a": 1.0}, width=5)
