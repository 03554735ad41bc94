"""Tests for figure-data extraction, CSV export and ASCII charts."""

from __future__ import annotations

import csv

import pytest

from repro.analysis.ascii_plot import ascii_bar_chart, ascii_line_chart, ascii_stacked_bar
from repro.analysis.figures import (
    export_csv,
    fig7_rows,
    fig8_rows,
    min_npi_rows,
    npi_time_rows,
)
from repro.runner import compare_policies_specs, frequency_sweep_specs, run_sweep
from repro.sim.clock import MS
from repro.sim.trace import TimeSeries

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


class TestFigureRows:
    def test_npi_time_rows_long_format(self, policy_results):
        rows = npi_time_rows(policy_results, cores=["display"])
        assert rows[0] == ["policy", "core", "time_ms", "npi"]
        assert len(rows) > 1
        policies = {row[0] for row in rows[1:]}
        assert policies == {"fcfs", "priority_qos"}
        assert all(row[1] == "display" for row in rows[1:])
        assert all(0.0 <= row[2] <= SHORT / MS for row in rows[1:])

    def test_npi_time_rows_requires_trace(self, policy_results):
        specs = compare_policies_specs(
            ["fcfs"], scenario="case_b", duration_ps=MS, traffic_scale=SCALE, keep_trace=False
        )
        no_trace = {"fcfs": run_sweep(specs)[0][0]}
        with pytest.raises(ValueError):
            npi_time_rows(no_trace, cores=["display"])

    def test_fig7_rows_have_one_row_per_frequency(self, sweep_results):
        rows = fig7_rows(sweep_results, "image_processor.read")
        assert len(rows) == 1 + len(sweep_results)
        assert rows[0][0] == "dram_freq_mhz"
        # Frequencies reported highest first, like the paper's figure.
        assert rows[1][0] >= rows[-1][0]
        for row in rows[1:]:
            shares = row[1:]
            assert sum(shares) == pytest.approx(1.0, abs=0.05)

    def test_fig8_rows_sorted_by_bandwidth(self, policy_results):
        rows = fig8_rows(policy_results)
        bandwidths = [row[1] for row in rows[1:]]
        assert bandwidths == sorted(bandwidths)

    def test_min_npi_rows_cover_all_policies(self, policy_results):
        rows = min_npi_rows(policy_results)
        assert {row[0] for row in rows[1:]} == set(policy_results)


class TestCsvExport:
    def test_export_and_reread(self, tmp_path, policy_results):
        rows = fig8_rows(policy_results)
        path = export_csv(rows, tmp_path / "fig8.csv")
        with path.open() as handle:
            read_back = list(csv.reader(handle))
        assert read_back[0] == [str(cell) for cell in rows[0]]
        assert len(read_back) == len(rows)

    def test_export_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv([], tmp_path / "empty.csv")

    def test_export_creates_parent_directories(self, tmp_path, policy_results):
        path = export_csv(fig8_rows(policy_results), tmp_path / "nested" / "dir" / "fig8.csv")
        assert path.exists()


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

    def test_stacked_bar_width_and_symbols(self):
        bar = ascii_stacked_bar({0: 0.9, 7: 0.1}, width=40)
        assert len(bar) == 40
        assert bar.count("0") > bar.count("7")

    def test_stacked_bar_empty_distribution(self):
        assert ascii_stacked_bar({}, width=20) == "." * 20

    def test_line_chart_draws_series_and_reference(self):
        series_a = TimeSeries(name="a")
        series_b = TimeSeries(name="b")
        for index in range(20):
            series_a.append(index * 1000, 0.5 + index * 0.1)
            series_b.append(index * 1000, 2.0)
        chart = ascii_line_chart({"a": series_a, "b": series_b}, width=40, height=10)
        assert "o = a" in chart
        assert "x = b" in chart
        assert "-" in chart  # the NPI = 1 reference line

    def test_line_chart_validation(self):
        with pytest.raises(ValueError):
            ascii_line_chart({}, width=40, height=10)
        series = TimeSeries(name="a")
        series.append(0, 1.0)
        with pytest.raises(ValueError):
            ascii_line_chart({"a": series}, width=5, height=2)
