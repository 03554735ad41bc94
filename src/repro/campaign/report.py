"""The report layer: every experiment-result table and every claim check.

A mapping of ``label -> ExperimentResult`` becomes a table or a list of
checked claims here and nowhere else:

* a **column registry** (:data:`KNOWN_COLUMNS`) of named, declarative columns
  — bandwidth, row-hit rate, average latency, per-core minimum/mean NPI
  (expanded to one column per critical core, failures flagged), failing
  cores, deadline verdict — that campaign files reference by name;
* renderers to markdown (``format_points_table``), plain JSON payloads
  (``points_payload``) and CSV (``points_csv``), shared by ``repro grid``,
  ``repro compare``, ``repro run``, ``repro campaign`` and the
  experiment-regeneration script;
* the Fig. 7 residency renderer (``priority_residency_md`` /
  ``priority_residency_csv``): one DMA's time share per priority level at
  each DRAM frequency, for ``repro sweep`` and the regeneration script;
* a **check registry** (:data:`KNOWN_CHECKS`) of the paper's shape checks —
  who fails under which policy, who wins on bandwidth, whether priorities
  escalate — that campaign files bind their declared claims to and
  ``repro compare`` evaluates directly.  A check returns
  :class:`ClaimCheck` outcomes instead of asserting.

The registries take plain data in and give plain data out, so a campaign
file can declare its expected report shape and the CI schema check can
reject a typo'd column or check name without running anything.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    bandwidth_gain,
    bandwidth_ordering,
    mean_priority,
    priority_distribution_table,
    qos_satisfied,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports: rendering runs no simulator
    from repro.campaign.scheduler import CampaignResult
    from repro.campaign.spec import SubGrid
    from repro.system.experiment import ExperimentResult

#: NPI below this is a missed performance target (the paper's pass line).
NPI_TARGET = 1.0

#: A grid point ready for reporting/checking: the dotted-path settings that
#: produced it, its display label, and the measured result.
Point = Tuple[Mapping[str, Any], str, "ExperimentResult"]


# --------------------------------------------------------------------------- #
# Column registry
# --------------------------------------------------------------------------- #
def _core_npi_cells(
    values: Mapping[str, float], cores: Sequence[str], flag_failures: bool
) -> List[str]:
    cells = []
    for core in cores:
        value = values.get(core)
        if value is None:
            cells.append("-")
        else:
            flag = "*" if flag_failures and value < NPI_TARGET else ""
            cells.append(f"{value:.2f}{flag}")
    return cells


def _col_bandwidth(result: ExperimentResult, cores: Sequence[str]) -> List[str]:
    return [f"{result.dram_bandwidth_gb_per_s():.2f}"]


def _col_row_hit(result: ExperimentResult, cores: Sequence[str]) -> List[str]:
    return [f"{result.dram_row_hit_rate * 100:.1f}%"]


def _col_latency(result: ExperimentResult, cores: Sequence[str]) -> List[str]:
    return [f"{result.average_latency_ps / 1000.0:.1f}"]


def _col_served(result: ExperimentResult, cores: Sequence[str]) -> List[str]:
    return [str(result.served_transactions)]


def _col_min_npi(result: ExperimentResult, cores: Sequence[str]) -> List[str]:
    return _core_npi_cells(result.min_core_npi, cores, flag_failures=True)


def _col_mean_npi(result: ExperimentResult, cores: Sequence[str]) -> List[str]:
    return _core_npi_cells(result.mean_core_npi, cores, flag_failures=False)


def _col_failing(result: ExperimentResult, cores: Sequence[str]) -> List[str]:
    return [", ".join(result.failing_cores()) or "none"]


def _deadline_met(result: ExperimentResult, cores: Sequence[str]) -> bool:
    """Whether every listed core held its performance target (the one
    predicate behind both the markdown cell and the JSON payload)."""
    return all(result.min_core_npi.get(core, 0.0) >= NPI_TARGET for core in cores)


def _col_deadline(result: ExperimentResult, cores: Sequence[str]) -> List[str]:
    return ["met" if _deadline_met(result, cores) else "MISSED"]


def _headers_scalar(title: str) -> Callable[[Sequence[str]], List[str]]:
    return lambda cores: [title]


def _headers_per_core(prefix: str) -> Callable[[Sequence[str]], List[str]]:
    return lambda cores: [f"{prefix} {core}" for core in cores]


@dataclass(frozen=True)
class Column:
    """One registered report column: headers, formatted cells, raw value.

    ``headers``/``cells`` drive the markdown table (per-core columns expand
    to one header/cell per critical core); ``payload`` yields the column's
    JSON key and *raw* value, so both renderers share one dispatch table and
    a column added here automatically appears in every output format.
    """

    headers: Callable[[Sequence[str]], List[str]]
    cells: Callable[[ExperimentResult, Sequence[str]], List[str]]
    payload: Callable[[ExperimentResult, Sequence[str]], Tuple[str, Any]]


#: column name -> :class:`Column`.  Campaign files reference these by name;
#: unknown names are schema errors.
KNOWN_COLUMNS: Dict[str, Column] = {
    "bandwidth": Column(
        _headers_scalar("bandwidth (GB/s)"),
        _col_bandwidth,
        lambda result, cores: ("bandwidth_gb_per_s", result.dram_bandwidth_gb_per_s()),
    ),
    "row_hit": Column(
        _headers_scalar("row-hit"),
        _col_row_hit,
        lambda result, cores: ("row_hit_rate", result.dram_row_hit_rate),
    ),
    "latency": Column(
        _headers_scalar("avg latency (ns)"),
        _col_latency,
        lambda result, cores: ("average_latency_ns", result.average_latency_ps / 1000.0),
    ),
    "served": Column(
        _headers_scalar("served"),
        _col_served,
        lambda result, cores: ("served_transactions", result.served_transactions),
    ),
    "min_npi": Column(
        _headers_per_core("min NPI"),
        _col_min_npi,
        lambda result, cores: (
            "min_npi", {core: result.min_core_npi.get(core) for core in cores}
        ),
    ),
    "mean_npi": Column(
        _headers_per_core("mean NPI"),
        _col_mean_npi,
        lambda result, cores: (
            "mean_npi", {core: result.mean_core_npi.get(core) for core in cores}
        ),
    ),
    "failing": Column(
        _headers_scalar("failing cores"),
        _col_failing,
        lambda result, cores: ("failing_cores", result.failing_cores()),
    ),
    "deadline": Column(
        _headers_scalar("deadline"),
        _col_deadline,
        lambda result, cores: ("deadline_met", _deadline_met(result, cores)),
    ),
}

#: Columns used when a sub-grid (or the ``grid`` command) declares none.
DEFAULT_COLUMNS = ("bandwidth", "latency", "min_npi", "failing", "deadline")


def table_header(columns: Sequence[str], cores: Sequence[str]) -> List[str]:
    """The expanded header row for a column list (``point`` first)."""
    header = ["point"]
    for column in columns:
        header.extend(KNOWN_COLUMNS[column].headers(cores))
    return header


def table_rows(
    results: Mapping[str, ExperimentResult],
    columns: Sequence[str],
    cores: Sequence[str],
) -> List[List[str]]:
    """One expanded row per labelled result, in mapping order."""
    rows = []
    for label, result in results.items():
        row = [label]
        for column in columns:
            row.extend(KNOWN_COLUMNS[column].cells(result, cores))
        rows.append(row)
    return rows


def render_markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def format_points_table(
    results: Mapping[str, ExperimentResult],
    columns: Sequence[str] = DEFAULT_COLUMNS,
    cores: Sequence[str] = (),
) -> str:
    """Render labelled results as a markdown table with registry columns."""
    return render_markdown_table(
        table_header(columns, cores), table_rows(results, columns, cores)
    )


def points_payload(
    results: Mapping[str, ExperimentResult],
    columns: Sequence[str] = DEFAULT_COLUMNS,
    cores: Sequence[str] = (),
) -> List[Dict[str, Any]]:
    """The same table as plain JSON rows (``--format json``).

    Numeric cells stay numeric: each row maps the expanded header name to
    the raw metric value rather than its formatted string.
    """
    payload = []
    for label, result in results.items():
        row: Dict[str, Any] = {"point": label}
        for column in columns:
            key, value = KNOWN_COLUMNS[column].payload(result, cores)
            row[key] = value
        payload.append(row)
    return payload


def points_csv(
    results: Mapping[str, ExperimentResult],
    columns: Sequence[str] = DEFAULT_COLUMNS,
    cores: Sequence[str] = (),
) -> str:
    """The same table as CSV with raw numeric cells (for replotting).

    Rows mirror :func:`points_payload`; mapping-valued columns (the per-core
    NPI columns) flatten to dotted headers (``min_npi.display``) and
    list-valued cells (failing cores) join with ``;`` so every cell is a
    scalar a plotting tool can ingest.
    """
    header: List[str] = ["point"]
    flattened: List[Dict[str, Any]] = []
    for row in points_payload(results, columns, cores):
        flat: Dict[str, Any] = {}
        for key, value in row.items():
            if isinstance(value, Mapping):
                for sub, subvalue in value.items():
                    flat[f"{key}.{sub}"] = subvalue
            elif isinstance(value, (list, tuple)):
                flat[key] = ";".join(str(item) for item in value)
            else:
                flat[key] = value
        for key in flat:
            if key not in header:
                header.append(key)
        flattened.append(flat)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for flat in flattened:
        writer.writerow([flat.get(key, "") for key in header])
    return buffer.getvalue()


# --------------------------------------------------------------------------- #
# Fig. 7 residency: one DMA's time share per priority level and frequency
# --------------------------------------------------------------------------- #
#: Priority levels a DMA can hold (the paper's 3-bit priority field).
PRIORITY_LEVELS = 8


def _residency_rows(
    sweep: Mapping[float, ExperimentResult], dma: str
) -> List[Tuple[float, List[float], float]]:
    """``(frequency, p0..p7 shares, mean priority)``, highest frequency first."""
    table = priority_distribution_table(sweep, dma)
    return [
        (
            freq,
            [table[freq].get(level, 0.0) for level in range(PRIORITY_LEVELS)],
            mean_priority(table[freq]),
        )
        for freq in sorted(table, reverse=True)
    ]


def priority_residency_md(sweep: Mapping[float, ExperimentResult], dma: str) -> str:
    """Markdown: p0–p7 shares (percent) and the mean priority per frequency."""
    header = ["freq (MHz)", *(f"p{level}" for level in range(PRIORITY_LEVELS)), "mean priority"]
    rows = [
        [f"{freq:.0f}", *(f"{share * 100:.0f}%" for share in shares), f"{mean:.2f}"]
        for freq, shares, mean in _residency_rows(sweep, dma)
    ]
    return render_markdown_table(header, rows)


def priority_residency_csv(sweep: Mapping[float, ExperimentResult], dma: str) -> str:
    """CSV: raw shares per level plus ``mean_priority`` (for replotting)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    levels = [f"priority_{level}" for level in range(PRIORITY_LEVELS)]
    writer.writerow(["dram_freq_mhz", *levels, "mean_priority"])
    writer.writerows(
        [freq, *shares, mean] for freq, shares, mean in _residency_rows(sweep, dma)
    )
    return buffer.getvalue()


# --------------------------------------------------------------------------- #
# Check registry: declared claims -> executable shape checks
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ClaimCheck:
    """Outcome of checking one qualitative claim against measured results."""

    experiment: str
    description: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.experiment}: {self.description} ({self.detail})"


def summarize_checks(checks: List[ClaimCheck]) -> Dict[str, int]:
    """Count passed/failed checks."""
    return {
        "passed": sum(1 for check in checks if check.passed),
        "failed": sum(1 for check in checks if not check.passed),
    }


def _points_by_setting(points: Sequence[Point], setting: str) -> Dict[Any, ExperimentResult]:
    """Map one dotted-path setting's value to its result.

    Only meaningful when the setting uniquely identifies a point (it is the
    sub-grid's only axis); duplicated values keep the first occurrence so
    the paper checks — written for single-axis policy grids — stay usable.
    """
    mapping: Dict[Any, ExperimentResult] = {}
    for settings, _, result in points:
        if setting in settings and settings[setting] not in mapping:
            mapping[settings[setting]] = result
    return mapping


def _check_policy_failures(points, scenario, params) -> List[ClaimCheck]:
    """Figs. 5/6 shape: which policies fail which critical cores.

    The reproduction target is the *pattern*: the baselines each leave at
    least one critical core below target while the priority-based policy
    satisfies every core.  For scenarios beyond the paper's two cases the
    same structural check applies under the scenario's own experiment label.
    """
    results = _points_by_setting(points, "policy")
    critical = scenario.critical_cores
    experiment = {"case_a": "fig5", "case_b": "fig6"}.get(scenario.name, scenario.name)
    checks: List[ClaimCheck] = []
    for baseline in ("fcfs", "round_robin", "frame_rate_qos"):
        if baseline not in results:
            continue
        failing = results[baseline].failing_cores()
        failing_critical = [core for core in failing if core in critical]
        checks.append(
            ClaimCheck(
                experiment=experiment,
                description=f"{baseline} leaves at least one critical core below target",
                passed=bool(failing_critical),
                detail=f"failing critical cores: {failing_critical or 'none'}",
            )
        )
    if "priority_qos" in results:
        satisfied = qos_satisfied(results["priority_qos"], cores=critical)
        checks.append(
            ClaimCheck(
                experiment=experiment,
                description="priority_qos (Policy 1) meets every critical core's target",
                passed=satisfied,
                detail=f"failing: {results['priority_qos'].failing_cores() or 'none'}",
            )
        )
    return checks


def _check_bandwidth_ordering(points, scenario, params) -> List[ClaimCheck]:
    """Fig. 8 shape: FR-FCFS >= QoS-RB > QoS, and QoS-RB close to FR-FCFS."""
    results = _points_by_setting(points, "policy")
    frfcfs_margin = float(params.get("frfcfs_margin", 0.05))
    checks: List[ClaimCheck] = []
    ordering = bandwidth_ordering(results)
    if {"priority_rowbuffer", "priority_qos"}.issubset(results):
        gain = bandwidth_gain(results, "priority_rowbuffer", "priority_qos")
        checks.append(
            ClaimCheck(
                experiment="fig8",
                description="QoS-RB (Policy 2) delivers more bandwidth than QoS (Policy 1)",
                passed=gain > 0.0,
                detail=f"gain = {gain * 100:.1f}%",
            )
        )
    if {"priority_rowbuffer", "fr_fcfs"}.issubset(results):
        shortfall = bandwidth_gain(results, "fr_fcfs", "priority_rowbuffer")
        checks.append(
            ClaimCheck(
                experiment="fig8",
                description="QoS-RB bandwidth is close to the FR-FCFS upper bound",
                passed=shortfall <= frfcfs_margin,
                detail=f"FR-FCFS ahead by {shortfall * 100:.1f}% "
                f"(allowed {frfcfs_margin * 100:.0f}%)",
            )
        )
    if ordering:
        checks.append(
            ClaimCheck(
                experiment="fig8",
                description="row-buffer-aware policies sit at the top of the bandwidth ordering",
                passed=ordering[-1] in ("fr_fcfs", "priority_rowbuffer"),
                detail=f"ordering: {ordering}",
            )
        )
    return checks


def _check_qos_preserved(points, scenario, params) -> List[ClaimCheck]:
    """Fig. 9 shape: QoS-RB keeps every critical core passing, FR-FCFS does not."""
    results = _points_by_setting(points, "policy")
    critical = list(scenario.critical_cores)
    experiment = {"case_a": "fig9"}.get(scenario.name, scenario.name)
    checks: List[ClaimCheck] = []
    if "priority_rowbuffer" in results:
        checks.append(
            ClaimCheck(
                experiment=experiment,
                description="QoS-RB causes no QoS degradation",
                passed=qos_satisfied(results["priority_rowbuffer"], cores=critical),
                detail=f"failing: {results['priority_rowbuffer'].failing_cores() or 'none'}",
            )
        )
    if "fr_fcfs" in results:
        failing = [
            core for core in results["fr_fcfs"].failing_cores() if core in critical
        ]
        checks.append(
            ClaimCheck(
                experiment=experiment,
                description="FR-FCFS degrades at least one critical core",
                passed=bool(failing),
                detail=f"failing critical cores: {failing or 'none'}",
            )
        )
    return checks


def _check_priority_escalation(points, scenario, params) -> List[ClaimCheck]:
    """Fig. 7 shape: priority levels escalate as DRAM frequency drops.

    A typo'd axis or DMA name, or a non-numeric axis, degrades to one failed
    check with an actionable detail instead of crashing the report after
    the whole campaign has already simulated.
    """
    axis = params.get("axis", "platform.sim.dram.io_freq_mhz")
    dma = params["dma"]
    sweep: Dict[float, ExperimentResult] = {}
    for value, result in _points_by_setting(points, axis).items():
        try:
            sweep[float(value)] = result
        except (TypeError, ValueError):
            pass
    if len(sweep) < 2:
        problem = (
            f"axis '{axis}' matched {len(sweep)} numeric point(s); "
            "need at least 2 (check the check's 'axis' param against the "
            "sub-grid's axes)"
        )
    else:
        recorded = set.intersection(
            *(set(result.priority_distributions) for result in sweep.values())
        )
        problem = "" if dma in recorded else (
            f"no priority distribution recorded for DMA '{dma}'; DMAs recorded "
            f"at every point: {sorted(recorded) or 'none'} (check the check's "
            "'dma' param)"
        )
    if problem:
        return [
            ClaimCheck(
                experiment=scenario.name,
                description="priority escalation across the declared frequency axis",
                passed=False,
                detail=problem,
            )
        ]
    rows = _residency_rows(sweep, dma)
    (highest, high, high_mean), (lowest, low, low_mean) = rows[0], rows[-1]
    resting = high[0] + high[1]
    escalated_high, escalated_low = high[6] + high[7], low[6] + low[7]
    return [
        ClaimCheck(
            experiment="fig7",
            description="mean priority rises as DRAM frequency decreases",
            passed=low_mean > high_mean,
            detail=f"mean priority {low_mean:.2f} @ {lowest:.0f} MHz vs "
            f"{high_mean:.2f} @ {highest:.0f} MHz",
        ),
        ClaimCheck(
            experiment="fig7",
            description="at the highest frequency the DMA mostly rests at low priorities",
            passed=resting > 0.5,
            detail=f"time at priority 0-1: {resting * 100:.0f}%",
        ),
        ClaimCheck(
            experiment="fig7",
            description="at the lowest frequency the DMA escalates to high priorities",
            passed=escalated_low > escalated_high,
            detail=f"time at priority 6-7 grows from "
            f"{escalated_high * 100:.0f}% to {escalated_low * 100:.0f}%",
        ),
    ]


def _select_points(points: Sequence[Point], params: Mapping[str, Any]) -> List[Point]:
    """Points whose settings match every ``where`` entry of a generic check."""
    where = params.get("where", {})
    return [
        point for point in points
        if all(point[0].get(path) == value for path, value in where.items())
    ]


def _failing_by_label(
    selected: Sequence[Point], critical: Sequence[str]
) -> Dict[str, List[str]]:
    """Critical-core failures per point label (the generic checks' evidence)."""
    failing: Dict[str, List[str]] = {}
    for _, label, result in selected:
        failed = [core for core in result.failing_cores() if core in critical]
        if failed:
            failing[label] = failed
    return failing


def _check_meets_targets(points, scenario, params) -> List[ClaimCheck]:
    """Generic: every selected point keeps all critical cores at target."""
    selected = _select_points(points, params)
    failing = _failing_by_label(selected, scenario.critical_cores)
    return [
        ClaimCheck(
            experiment=scenario.name,
            description=params.get(
                "description", "selected points meet every critical core's target"
            ),
            passed=bool(selected) and not failing,
            detail=f"{len(selected)} point(s), failing: {failing or 'none'}",
        )
    ]


def _check_some_point_fails(points, scenario, params) -> List[ClaimCheck]:
    """Generic: at least one selected point misses a critical-core target."""
    selected = _select_points(points, params)
    failing = _failing_by_label(selected, scenario.critical_cores)
    return [
        ClaimCheck(
            experiment=scenario.name,
            description=params.get(
                "description", "at least one selected point misses a critical-core target"
            ),
            passed=bool(failing),
            detail=f"{len(selected)} point(s), failing: {failing or 'none'}",
        )
    ]


#: check kind -> fn(points, scenario, params) -> [ClaimCheck].  Campaign
#: files reference these by name; unknown kinds are schema errors.
KNOWN_CHECKS: Dict[
    str, Callable[[Sequence[Point], Any, Mapping[str, Any]], List[ClaimCheck]]
] = {
    "policy_failures": _check_policy_failures,
    "bandwidth_ordering": _check_bandwidth_ordering,
    "qos_preserved": _check_qos_preserved,
    "priority_escalation": _check_priority_escalation,
    "meets_targets": _check_meets_targets,
    "some_point_fails": _check_some_point_fails,
}

#: Params a check cannot run without.  Validated at spec-construction time
#: (``CheckSpec``), so a campaign file missing one fails schema validation
#: instead of crashing at report time after the whole campaign simulated.
CHECK_REQUIRED_PARAMS: Dict[str, Tuple[str, ...]] = {
    "priority_escalation": ("dma",),
}


#: One evaluated check outcome, tagged with the declared kind that produced
#: it — JSON consumers map outcomes back to the campaign file through it.
TaggedCheck = Tuple[str, ClaimCheck]


def run_subgrid_checks(
    subgrid: "SubGrid", scenario: Any, points: Sequence[Point]
) -> List[TaggedCheck]:
    """Evaluate every check a sub-grid declares against its measured points."""
    checks: List[TaggedCheck] = []
    for check in subgrid.checks:
        for outcome in KNOWN_CHECKS[check.kind](points, scenario, check.params):
            checks.append((check.kind, outcome))
    return checks


# --------------------------------------------------------------------------- #
# Campaign-level report
# --------------------------------------------------------------------------- #
def subgrid_report_md(
    subgrid: "SubGrid",
    scenario: Any,
    points: Sequence[Point],
    checks: Optional[List[TaggedCheck]] = None,
    quarantined: Sequence[Any] = (),
) -> str:
    """One sub-grid's markdown section: table, claims, check outcomes.

    ``checks`` accepts pre-evaluated outcomes (the campaign report evaluates
    each sub-grid's checks once and shares them); by default they are
    evaluated here.  ``quarantined`` lists points the run gave up on after
    exhausting their retry budget (see :mod:`repro.runner.executor`).

    The rendered section is a pure function of the measurements — no
    timings, cache counters or other run telemetry appear — so a resumed
    campaign reproduces a killed campaign's report byte for byte.
    Telemetry lives on the console summary and in the manifest ``stats``.
    """
    results = {label: result for _, label, result in points}
    columns = list(subgrid.columns) or list(DEFAULT_COLUMNS)
    cores = list(scenario.critical_cores)
    lines = [f"### {subgrid.name} — {subgrid.title or scenario.name}", ""]
    lines.append(format_points_table(results, columns, cores))
    if subgrid.claims:
        lines.append("")
        lines.append("Declared claims:")
        lines.extend(f"- {claim}" for claim in subgrid.claims)
    if checks is None:
        checks = run_subgrid_checks(subgrid, scenario, points)
    if checks:
        lines.append("")
        lines.extend(f"- {check}" for _, check in checks)
        summary = summarize_checks([check for _, check in checks])
        lines.append(
            f"- checks: {summary['passed']} passed, {summary['failed']} failed"
        )
    if quarantined:
        lines.append("")
        lines.append("Quarantined points (no result after exhausting retries):")
        lines.extend(
            f"- {entry.label}: {entry.error} ({entry.attempts} attempt(s))"
            for entry in quarantined
        )
    return "\n".join(lines)


def subgrid_report_payload(
    subgrid: "SubGrid",
    scenario: Any,
    points: Sequence[Point],
    checks: Optional[List[TaggedCheck]] = None,
    quarantined: Sequence[Any] = (),
) -> Dict[str, Any]:
    results = {label: result for _, label, result in points}
    columns = list(subgrid.columns) or list(DEFAULT_COLUMNS)
    cores = list(scenario.critical_cores)
    if checks is None:
        checks = run_subgrid_checks(subgrid, scenario, points)
    return {
        "name": subgrid.name,
        "title": subgrid.title,
        "scenario": scenario.name,
        "rows": points_payload(results, columns, cores),
        "claims": list(subgrid.claims),
        "checks": [
            {
                "kind": kind,
                "description": check.description,
                "experiment": check.experiment,
                "passed": check.passed,
                "detail": check.detail,
            }
            for kind, check in checks
        ],
        "quarantined": [
            {
                "label": entry.label,
                "error": entry.error,
                "attempts": entry.attempts,
            }
            for entry in quarantined
        ],
    }


def campaign_report_md(outcome: "CampaignResult") -> str:
    """The full campaign report: per-sub-grid sections plus a summary.

    Deterministic by construction: only measurements, check outcomes and
    quarantine records appear.  Run telemetry (timings, cache hits, jobs)
    stays on the console and in the manifest, so the report a resumed
    campaign renders is byte-identical to the one an uninterrupted run
    would have produced.
    """
    campaign = outcome.campaign
    lines = [f"## Campaign {campaign.name}", ""]
    if campaign.description:
        lines.extend([campaign.description, ""])
    for subgrid in outcome.subgrids():
        lines.append(
            subgrid_report_md(
                subgrid,
                outcome.scenarios[subgrid.name],
                outcome.points[subgrid.name],
                checks=outcome.checks(subgrid.name),
                quarantined=outcome.quarantined.get(subgrid.name, ()),
            )
        )
        lines.append("")
    lines.append("### Campaign summary")
    lines.append("")
    header = ["sub-grid", "points", "quarantined", "checks"]
    rows = []
    total_checks = {"passed": 0, "failed": 0}
    for subgrid in outcome.subgrids():
        summary = summarize_checks([check for _, check in outcome.checks(subgrid.name)])
        total_checks["passed"] += summary["passed"]
        total_checks["failed"] += summary["failed"]
        rows.append(
            [
                subgrid.name,
                str(len(outcome.points[subgrid.name])),
                str(len(outcome.quarantined.get(subgrid.name, ()))),
                f"{summary['passed']} passed, {summary['failed']} failed",
            ]
        )
    lines.append(render_markdown_table(header, rows))
    lines.append("")
    lines.append(
        f"<!-- campaign checks: {total_checks['passed']} passed, "
        f"{total_checks['failed']} failed -->"
    )
    return "\n".join(lines)


def campaign_report_payload(outcome: "CampaignResult") -> Dict[str, Any]:
    """The full campaign report as a plain JSON payload.

    Deterministic like :func:`campaign_report_md`: run telemetry is
    deliberately absent (``repro campaign run`` prints it to the console,
    and the store manifest records it under ``stats``).
    """
    campaign = outcome.campaign
    return {
        "campaign": campaign.name,
        "description": campaign.description,
        "subgrids": [
            subgrid_report_payload(
                subgrid,
                outcome.scenarios[subgrid.name],
                outcome.points[subgrid.name],
                checks=outcome.checks(subgrid.name),
                quarantined=outcome.quarantined.get(subgrid.name, ()),
            )
            for subgrid in outcome.subgrids()
        ],
    }
