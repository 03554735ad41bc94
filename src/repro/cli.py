"""Command-line interface for the SARA reproduction — scenario-first.

``python -m repro <command>`` exposes the library around named, declarative
scenarios (bundled ones, plus any ``.json``/``.toml`` scenario file):

* ``scenarios list|show|validate`` — browse the catalog, print one scenario's
  full spec, or schema-check (and optionally smoke-run) scenario files.
* ``campaign list|show|run|report|narrative|validate`` — declarative
  experiment campaigns: named sub-grids (``fig5`` … ``fig9``) scheduled
  through one shared worker pool, reported per figure as markdown or JSON.
  With ``--store-dir`` a run records its manifest and rendered artifacts
  into the results store; a warm ``report`` is then served straight from
  the store (zero scenario resolutions) and ``narrative`` maintains the
  generated ``EXPERIMENTS.md`` claims section with measured numbers.
* ``store list|show|verify|gc`` — inspect and maintain a results store
  (content-addressed artifacts: ``verify`` re-hashes every blob and
  cross-checks recorded cache keys, ``gc`` sweeps unreferenced blobs —
  ``--dry-run`` reports without deleting; ``list --format json`` emits
  machine-readable summaries for scripting).
* ``serve`` — the results service: a dependency-free asyncio HTTP server
  over a store (``/manifests``, ``/artifacts/<sha256>``,
  ``/reports/<fingerprint>/<name>``, ``/healthz``) with ETag = content
  hash, so recorded reports are cacheable URLs served with zero scenario
  resolutions.  See ``docs/results_service.md``.
* ``run <scenario>`` — one experiment, printing the per-core summary and
  optionally saving the result as JSON.
* ``compare <scenario>`` — several policies on one scenario (Figs. 5/6/8/9).
* ``sweep <scenario>`` — the Fig. 7 DRAM-frequency sweep.
* ``grid <scenario>`` — the scenario's declared sweep axes (or one named
  axis set via ``--axis-set``), expanded, run and reported through the
  shared campaign report layer (``--format md|json``); ``--store-dir``
  records the run and serves matching re-runs straight from the store.
* ``dvfs`` / ``energy`` — governor-in-the-loop and energy-breakdown runs.
* ``policies`` / ``governors`` / ``settings`` — registry and platform tables.

Every run-like command accepts ``--set dotted.path=value`` overrides (e.g.
``--set platform.sim.seed=7``) and ``--plugin-module`` imports, which also
propagate into sweep worker processes — custom policies and workloads work
under ``--jobs N``.  Durations are in milliseconds of *simulated* time; the
paper's frame period is 33 ms, but a few milliseconds already show the
contended phase on a laptop-friendly budget.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.campaign import (
    KNOWN_CHECKS,
    campaign_report_md,
    campaign_report_payload,
    format_points_table,
    points_csv,
    points_payload,
    priority_residency_csv,
    priority_residency_md,
    render_markdown_table,
    summarize_checks,
)
from repro.obs import TraceSession, summarize_events
from repro.runner import ResultCache
from repro.scenario import ScenarioError, load_plugins
from repro.sim.clock import MS
from repro.store import (
    AmbiguousFingerprintError,
    ArtifactRef,
    GridSection,
    Provenance,
    ResultsStore,
    StoreError,
    describe_manifest,
    manifest_summary,
    narrative_md,
    replace_section,
    run_fingerprint,
    spec_hash,
)

# The simulator, the runner, the DVFS and power models and the scenario and
# campaign catalogs are imported by the handlers that use them, so the
# parser, the store commands, a warm `campaign report` and `serve` start
# without them (and without numpy).
if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.campaign.scheduler import CampaignScheduler

#: Default simulated window for CLI runs (milliseconds).
DEFAULT_DURATION_MS = 4.0
#: Fig. 7 sweep points from the paper.
FIG7_FREQUENCIES = (1300.0, 1400.0, 1500.0, 1600.0, 1700.0)


def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario",
        nargs="?",
        default="case_a",
        help="scenario name (see `repro scenarios list`) or a .json/.toml scenario file",
    )


def _add_common_run_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_argument(parser)
    parser.add_argument(
        "--duration-ms",
        type=float,
        default=DEFAULT_DURATION_MS,
        help="simulated duration in milliseconds (paper frame period: 33)",
    )
    parser.add_argument(
        "--traffic-scale",
        type=float,
        default=None,
        help="linear scale on all offered traffic (default: the scenario's own rates)",
    )
    parser.add_argument(
        "--set",
        dest="settings",
        metavar="PATH=VALUE",
        action="append",
        default=[],
        help="override one scenario setting by dotted path, "
        "e.g. --set platform.sim.seed=7 --set workload.params.streams=16",
    )
    parser.add_argument(
        "--plugin-module",
        dest="plugin_modules",
        metavar="MODULE",
        action="append",
        default=[],
        help="import this module first (and in every sweep worker) so its "
        "registered policies/workloads/scenarios are available",
    )


def _positive_int(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return jobs


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Orchestrator knobs shared by the multi-run commands."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the sweep (1 = run in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk result cache (omit to disable caching)",
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store-dir",
        default=None,
        help="results-store directory: record this run's rendered report and "
        "manifest, and serve matching reports straight from the store "
        "(omit to disable the store)",
    )


def _add_log_level_argument(
    parser: argparse.ArgumentParser, default: str = "warning"
) -> None:
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=default,
        help=f"stderr threshold for the repro.* loggers (default: {default})",
    )


def _configure_logging(level: str) -> None:
    """Attach one stderr handler to the ``repro`` logger hierarchy.

    The libraries log through ``repro.campaign`` / ``repro.serve`` etc. and
    install only NullHandlers themselves; the CLI is the place that decides
    log lines actually reach a stream.  Idempotent so tests can call
    commands repeatedly in one process.
    """
    root = logging.getLogger("repro")
    root.setLevel(getattr(logging, level.upper()))
    if not any(
        isinstance(handler, logging.StreamHandler) for handler in root.handlers
    ):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s: %(message)s")
        )
        root.addHandler(handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SARA: self-aware resource allocation for heterogeneous MPSoCs "
        "(DAC 2018) — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    scenarios = subparsers.add_parser("scenarios", help="browse and validate scenarios")
    scenario_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenario_sub.add_parser("list", help="list every known scenario")
    show = scenario_sub.add_parser("show", help="print one scenario's full spec as JSON")
    _add_scenario_argument(show)
    validate = scenario_sub.add_parser(
        "validate", help="schema-check scenario files (optionally with a smoke run)"
    )
    validate.add_argument(
        "scenarios",
        nargs="*",
        default=[],
        help="scenario names or files (default: every bundled scenario)",
    )
    validate.add_argument(
        "--smoke-ms",
        type=float,
        default=None,
        help="also run each scenario for this many simulated milliseconds",
    )
    validate.add_argument(
        "--smoke-traffic-scale",
        type=float,
        default=0.1,
        help="traffic scale for the smoke runs (default 0.1)",
    )

    campaign = subparsers.add_parser(
        "campaign", help="declarative experiment campaigns (named sub-grids)"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_sub.add_parser("list", help="list every bundled campaign")
    campaign_show = campaign_sub.add_parser(
        "show", help="print one campaign's full spec as JSON"
    )
    campaign_show.add_argument(
        "campaign", help="campaign name (see `repro campaign list`) or a .json/.toml file"
    )
    for subcommand, description in (
        ("run", "run a campaign's sub-grids through one shared worker pool"),
        ("report", "like run, but print only the rendered report"),
    ):
        campaign_run = campaign_sub.add_parser(subcommand, help=description)
        campaign_run.add_argument(
            "campaign",
            help="campaign name (see `repro campaign list`) or a .json/.toml file",
        )
        campaign_run.add_argument(
            "--subgrid",
            dest="subgrids",
            metavar="NAME",
            action="append",
            default=None,
            help="run only this sub-grid (repeatable; default: all sub-grids)",
        )
        campaign_run.add_argument(
            "--duration-ms",
            type=float,
            default=None,
            help="override every sub-grid's simulated duration (default: the "
            "campaign's own declarations)",
        )
        campaign_run.add_argument(
            "--traffic-scale",
            type=float,
            default=None,
            help="override the offered-traffic scale for every sub-grid",
        )
        campaign_run.add_argument(
            "--format", choices=("md", "json"), default="md", help="report format"
        )
        campaign_run.add_argument(
            "--output", default=None, help="write the report to this file instead of stdout"
        )
        campaign_run.add_argument(
            "--strict",
            action="store_true",
            help="exit non-zero when any declared check fails",
        )
        campaign_run.add_argument(
            "--plugin-module",
            dest="plugin_modules",
            metavar="MODULE",
            action="append",
            default=[],
            help="import this module first (and in every sweep worker)",
        )
        campaign_run.add_argument(
            "--executor",
            choices=("auto", "inprocess", "pool"),
            default="auto",
            help="execution backend: in-process or worker pool (auto picks "
            "the pool when --jobs > 1)",
        )
        campaign_run.add_argument(
            "--timeout-s",
            type=float,
            default=None,
            help="per-point wall-clock timeout (a point over budget counts "
            "as a failed attempt)",
        )
        campaign_run.add_argument(
            "--max-attempts",
            type=_positive_int,
            default=None,
            help="attempts per point before giving up; with more than one, "
            "a point that exhausts them is quarantined in the report "
            "instead of aborting the campaign",
        )
        campaign_run.add_argument(
            "--resume",
            action="store_true",
            help="resume a crashed campaign: needs the same --cache-dir; "
            "already-recorded points are served from the cache and only "
            "the missing ones simulate",
        )
        campaign_run.add_argument(
            "--dry-run",
            action="store_true",
            help="print the plan — per-sub-grid counts of points to "
            "simulate, points reused from the store's point index, and "
            "cache hits — without running anything",
        )
        campaign_run.add_argument(
            "--no-reuse",
            dest="reuse",
            action="store_false",
            help="skip the store's point index and simulate every cold "
            "point live (reuse is on by default when --store-dir is given)",
        )
        campaign_run.add_argument(
            "--trace",
            action="store_true",
            help="record a structured execution trace (scheduler, executor, "
            "workers, engine phases) as store artifacts referenced from the "
            "manifest; requires --store-dir, never changes results "
            "(inspect with `repro trace <fingerprint>`)",
        )
        _add_log_level_argument(campaign_run)
        _add_sweep_arguments(campaign_run)
        _add_store_argument(campaign_run)
    campaign_narrative = campaign_sub.add_parser(
        "narrative",
        help="render a campaign's claims + measured outcomes as a markdown "
        "narrative (served from the store when warm, else run live)",
    )
    campaign_narrative.add_argument(
        "campaign", help="campaign name (see `repro campaign list`) or a .json/.toml file"
    )
    campaign_narrative.add_argument(
        "--duration-ms",
        type=float,
        default=None,
        help="override every sub-grid's simulated duration (default: the "
        "campaign's own declarations)",
    )
    campaign_narrative.add_argument(
        "--traffic-scale",
        type=float,
        default=None,
        help="override the offered-traffic scale for every sub-grid",
    )
    campaign_narrative.add_argument(
        "--output",
        default=None,
        help="update this markdown file's generated section in place "
        "(e.g. EXPERIMENTS.md; default: print to stdout)",
    )
    campaign_narrative.add_argument(
        "--plugin-module",
        dest="plugin_modules",
        metavar="MODULE",
        action="append",
        default=[],
        help="import this module first (and in every sweep worker)",
    )
    _add_sweep_arguments(campaign_narrative)
    _add_store_argument(campaign_narrative)
    campaign_validate = campaign_sub.add_parser(
        "validate", help="schema-check campaign files (optionally with a smoke run)"
    )
    campaign_validate.add_argument(
        "campaigns",
        nargs="*",
        default=[],
        help="campaign names or files (default: every bundled campaign)",
    )
    campaign_validate.add_argument(
        "--smoke-ms",
        type=float,
        default=None,
        help="also run one sub-grid of each campaign for this many simulated ms",
    )
    campaign_validate.add_argument(
        "--smoke-subgrid",
        default=None,
        help="sub-grid for the smoke run (default: the fewest-point one)",
    )
    campaign_validate.add_argument(
        "--smoke-traffic-scale",
        type=float,
        default=0.1,
        help="traffic scale for the smoke runs (default 0.1)",
    )

    store = subparsers.add_parser(
        "store", help="inspect and maintain a results store (manifests + artifacts)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_descriptions = {
        "list": "list every recorded manifest",
        "show": "print one manifest's full JSON",
        "verify": "re-hash every artifact against its content address",
        "gc": "delete artifact blobs no manifest references",
        "index": "rebuild the store-wide point index from the manifests",
    }
    store_parsers = {}
    for subcommand, description in store_descriptions.items():
        store_parsers[subcommand] = store_sub.add_parser(subcommand, help=description)
        store_parsers[subcommand].add_argument(
            "--store-dir",
            default=".repro-store",
            help="results-store directory (default: .repro-store)",
        )
    store_parsers["list"].add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json: machine-readable manifest summaries)",
    )
    store_parsers["show"].add_argument(
        "fingerprint", help="manifest fingerprint (a unique prefix is enough)"
    )
    store_parsers["verify"].add_argument(
        "--cache-dir",
        default=None,
        help="also check every recorded cache key is still present in this "
        "result cache",
    )
    store_parsers["gc"].add_argument(
        "--dry-run",
        action="store_true",
        help="report the blobs gc would delete without touching disk",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve a results store over HTTP (manifests, artifacts, reports; "
        "ETag = content hash)",
    )
    serve.add_argument(
        "--store-dir",
        default=".repro-store",
        help="results-store directory to serve (default: .repro-store)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8787, help="bind port (0 = OS-assigned)"
    )
    _add_log_level_argument(serve, default="info")

    trace = subparsers.add_parser(
        "trace",
        help="summarize a recorded run's execution trace (per span name and "
        "per sub-grid; recorded by `campaign run --trace`)",
    )
    trace.add_argument(
        "fingerprint", help="manifest fingerprint (a unique prefix is enough)"
    )
    trace.add_argument(
        "--store-dir",
        default=".repro-store",
        help="results-store directory (default: .repro-store)",
    )

    subparsers.add_parser("policies", help="list registered scheduling policies")
    subparsers.add_parser("governors", help="list registered DVFS governors")

    settings = subparsers.add_parser("settings", help="print Table 1 / Table 2 settings")
    _add_scenario_argument(settings)

    run = subparsers.add_parser("run", help="run one scenario")
    _add_common_run_arguments(run)
    run.add_argument("--policy", default=None, help="scheduling policy (default: the scenario's)")
    run.add_argument("--dram-model", default=None, choices=("transaction", "command"))
    run.add_argument("--output-json", default=None, help="save the result to this JSON file")

    compare = subparsers.add_parser("compare", help="compare several policies on one scenario")
    _add_common_run_arguments(compare)
    _add_sweep_arguments(compare)
    compare.add_argument(
        "--policies",
        nargs="+",
        default=None,
        help="policies to compare (default: the scenario's policy sweep axis, "
        "or the paper's Fig. 5 set)",
    )
    compare.add_argument(
        "--output-csv", default=None, help="export min_npi.<core>/mean_npi.<core> per policy"
    )

    sweep = subparsers.add_parser("sweep", help="Fig. 7 DRAM frequency sweep")
    _add_common_run_arguments(sweep)
    _add_sweep_arguments(sweep)
    sweep.add_argument("--policy", default=None, help="scheduling policy (default: the scenario's)")
    sweep.add_argument("--dma", default="image_processor.read", help="DMA whose priorities to report")
    sweep.add_argument(
        "--frequencies",
        nargs="+",
        type=float,
        default=None,
        help="DRAM I/O frequencies in MHz (default: the scenario's frequency "
        "sweep axis, or the paper's Fig. 7 points)",
    )
    sweep.add_argument(
        "--output-csv", default=None, help="export the Fig. 7 residency rows to CSV"
    )

    grid = subparsers.add_parser(
        "grid", help="run the sweep axes a scenario declares (its full grid)"
    )
    _add_common_run_arguments(grid)
    _add_sweep_arguments(grid)
    grid.add_argument(
        "--axis-set",
        default=None,
        help="named axis set to expand (for scenarios whose sweep declares "
        "named sets; default: every set)",
    )
    grid.add_argument(
        "--format", choices=("md", "json"), default="md", help="report format"
    )
    _add_store_argument(grid)

    dvfs = subparsers.add_parser("dvfs", help="run with a DVFS governor in the loop")
    _add_common_run_arguments(dvfs)
    dvfs.add_argument("--policy", default=None, help="scheduling policy (default: the scenario's)")
    dvfs.add_argument(
        "--governor",
        default="priority_pressure",
        help="DVFS governor (see `repro governors`; default: priority_pressure)",
    )
    dvfs.add_argument(
        "--interval-us", type=float, default=100.0, help="governor decision interval (microseconds)"
    )

    energy = subparsers.add_parser("energy", help="memory-system energy of one run")
    _add_common_run_arguments(energy)
    energy.add_argument(
        "--policy", default="priority_rowbuffer", help="scheduling policy for the energy run"
    )

    return parser


@contextmanager
def _sweep_pool(args: argparse.Namespace):
    """A warm worker pool for the multi-run commands (None when jobs=1).

    One CLI invocation may fan several sweeps through the orchestrator (and
    future campaign-style commands will chain them); creating the pool here,
    once, means every sweep of the invocation shares a single start-up cost.
    """
    if args.jobs == 1:
        yield None
        return
    from repro.runner import WorkerPool

    with WorkerPool(args.jobs, plugin_modules=args.plugin_modules) as pool:
        yield pool


def _store_for(args: argparse.Namespace) -> Optional[ResultsStore]:
    """The results store a command should record to / serve from, if any."""
    if getattr(args, "store_dir", None):
        return ResultsStore(args.store_dir)
    return None


def _utc_stamp() -> str:
    """The caller-supplied provenance timestamp (stores never read clocks)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_output(report: str, output: Optional[str]) -> int:
    """Print a report, or write it to ``--output`` (creating parent dirs).

    Every ``--output``-shaped flag funnels through here so a path like
    ``reports/2026/report.md`` works without a pre-existing directory tree.
    """
    if output:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report + "\n")
        print(f"report written to {path}")
    else:
        print(report)
    return 0


def _write_csv(text: str, output: str) -> Path:
    """Write CSV text to ``output``, creating missing parent directories."""
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="")
    return path


def _parse_settings(pairs: Sequence[str]) -> List[tuple]:
    settings = []
    for pair in pairs:
        if "=" not in pair:
            raise ScenarioError(f"--set expects PATH=VALUE, got '{pair}'")
        path, value = pair.split("=", 1)
        settings.append((path.strip(), value.strip()))
    return settings


def _check_policy(name: Optional[str]) -> None:
    """Validate a policy name against the (possibly plugin-extended) registry."""
    from repro.memctrl.policies import available_policies

    if name is not None and name not in available_policies():
        known = ", ".join(sorted(available_policies()))
        raise ScenarioError(f"unknown scheduling policy '{name}' (known: {known})")


def _resolved_scenario(args: argparse.Namespace):
    from repro.scenario import get_scenario

    scenario = get_scenario(args.scenario)
    settings = _parse_settings(args.settings)
    if settings:
        scenario = scenario.apply_settings(dict(settings))
    return scenario


# --------------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------------- #
def _cmd_scenarios_list() -> int:
    from repro.scenario import available_scenarios, describe_scenario

    print("Known scenarios (bundled and runtime-registered):")
    for name in available_scenarios():
        print(f"  {describe_scenario(name)}")
    print("\nRun one with:  python -m repro run <scenario>")
    return 0


def _cmd_scenarios_show(args: argparse.Namespace) -> int:
    from repro.scenario import get_scenario

    print(get_scenario(args.scenario).to_json())
    return 0


def _cmd_scenarios_validate(args: argparse.Namespace) -> int:
    from repro.scenario import builtin_scenario_paths, get_scenario, scenario_from_file
    from repro.system.experiment import run_experiment

    refs = list(args.scenarios) or sorted(builtin_scenario_paths())
    failures = 0
    for ref in refs:
        label = str(ref)
        try:
            if isinstance(ref, str) and ref.endswith((".json", ".toml")):
                scenario = scenario_from_file(ref)
            else:
                scenario = get_scenario(ref)
            scenario.build_workload()  # resolves the workload registry too
            if args.smoke_ms is not None:
                result = run_experiment(
                    scenario=scenario,
                    duration_ps=int(args.smoke_ms * MS),
                    traffic_scale=args.smoke_traffic_scale,
                    keep_trace=False,
                )
                detail = (
                    f"smoke run OK ({result.served_transactions} transactions, "
                    f"policy {result.policy})"
                )
            else:
                detail = "schema OK"
            print(f"[PASS] {scenario.name:<26}{detail}")
        except (ScenarioError, ValueError) as exc:
            failures += 1
            print(f"[FAIL] {label}: {exc}")
    print(f"validated {len(refs)} scenario(s), {failures} failure(s)")
    return 1 if failures else 0


def _cmd_campaign_list() -> int:
    from repro.campaign import builtin_campaign_paths, describe_campaign

    print("Bundled campaigns:")
    for name in builtin_campaign_paths():
        print(f"  {describe_campaign(name)}")
    print("\nRun one with:  python -m repro campaign run <campaign> [--jobs N]")
    return 0


def _cmd_campaign_show(args: argparse.Namespace) -> int:
    from repro.campaign import get_campaign

    print(get_campaign(args.campaign).to_json())
    return 0


def _strict_exit(failed_checks: int, strict: bool) -> int:
    if strict and failed_checks:
        print(f"{failed_checks} declared check(s) failed", file=sys.stderr)
        return 1
    return 0


def _dry_run_line(name: str, counts: Dict[str, int]) -> str:
    return (
        f"  {name}: {counts['points']} point(s) — "
        f"{counts['to_simulate']} to simulate, "
        f"{counts['reused']} reused from store, "
        f"{counts['cache_hits']} cache hit(s)"
    )


def _campaign_scheduler(args: argparse.Namespace, campaign) -> CampaignScheduler:
    """The scheduler of one run of ``campaign`` with the command's overrides."""
    from repro.campaign.scheduler import CampaignScheduler

    return CampaignScheduler(
        campaign,
        duration_ms=args.duration_ms,
        traffic_scale=args.traffic_scale,
        plugin_modules=args.plugin_modules,
    )


def _cmd_campaign_run(args: argparse.Namespace, report_only: bool) -> int:
    from repro.campaign import get_campaign

    _configure_logging(args.log_level)
    campaign = get_campaign(args.campaign)
    store = _store_for(args)
    if args.trace and store is None:
        print(
            "--trace needs --store-dir: the trace artifacts are recorded in "
            "the results store and referenced from the run's manifest",
            file=sys.stderr,
        )
        return 2
    if report_only and store is not None and not args.dry_run:
        # The store-backed fast path: a matching recorded run serves its
        # rendered report as a pure read — no scenario is resolved, no
        # RunSpec is built, the scheduler and the simulator are not even
        # imported.  Any miss (no manifest, missing/tampered artifact)
        # falls through to the live path below, which re-records.  The
        # manifest is loaded once: it carries both the artifact reference
        # and the recorded check outcomes --strict needs.
        manifest = store.get_manifest(
            campaign.fingerprint(
                args.subgrids,
                duration_ms=args.duration_ms,
                traffic_scale=args.traffic_scale,
                plugin_modules=args.plugin_modules,
            )
        )
        ref = (
            manifest.artifacts.get(
                "report_json" if args.format == "json" else "report_md"
            )
            if manifest is not None
            else None
        )
        if ref is not None:
            try:
                served = store.read_artifact(ref)
            except StoreError:
                served = None  # tampered/missing blob: render live instead
            if served is not None:
                failed_checks = sum(
                    1
                    for entry in manifest.subgrids
                    for check in entry.checks
                    if not check.passed
                )
                _write_output(served, args.output)
                return _strict_exit(failed_checks, args.strict)
    scheduler = _campaign_scheduler(args, campaign)
    if args.dry_run:
        cache = ResultCache(args.cache_dir) if args.cache_dir else None
        plan = scheduler.dry_run(
            args.subgrids, cache=cache, store=store if args.reuse else None
        )
        print(f"campaign {campaign.name} plan (dry run):")
        totals = {"points": 0, "to_simulate": 0, "reused": 0, "cache_hits": 0}
        for name, counts in plan.items():
            for key in totals:
                totals[key] += counts[key]
            print(_dry_run_line(name, counts))
        if len(plan) > 1:
            print(_dry_run_line("total", totals))
        return 0
    if args.resume:
        if not args.cache_dir:
            print(
                "--resume needs --cache-dir: the result cache is what holds "
                "the points the crashed run already recorded",
                file=sys.stderr,
            )
            return 2
        # The cache (and, with --store-dir, the point index) is the one
        # record of a crashed run, so what is left is what a dry run of the
        # same plan would simulate.
        plan = scheduler.dry_run(
            args.subgrids,
            cache=ResultCache(args.cache_dir),
            store=store if args.reuse else None,
        )
        left = sum(counts["to_simulate"] for counts in plan.values())
        total = sum(counts["points"] for counts in plan.values())
        print(
            f"resuming: {left} of {total} planned point(s) left to simulate"
            + ("; nothing to resume" if left == 0 else "")
        )
    from repro.runner import FailurePolicy, InProcessExecutor, PoolExecutor

    failure_policy = None
    if args.timeout_s is not None or args.max_attempts is not None:
        attempts = args.max_attempts if args.max_attempts is not None else 1
        failure_policy = FailurePolicy(
            timeout_s=args.timeout_s,
            max_attempts=attempts,
            on_exhausted="quarantine" if attempts > 1 else "raise",
        )
    executor = None
    if args.executor == "inprocess":
        executor = InProcessExecutor()
    elif args.executor == "pool":
        executor = PoolExecutor(jobs=args.jobs)
    # An explicit executor owns its own parallelism — don't also pay for a
    # warm pool the sweep would ignore.
    pool_context = _sweep_pool(args) if executor is None else nullcontext(None)
    # The trace session must exist before any worker starts (workers pick
    # the journal directory up from the environment) and is closed on every
    # exit path; on success the scheduler finalized it into the store first.
    trace_session = TraceSession() if args.trace else None
    try:
        with pool_context as pool:
            outcome = scheduler.run(
                subgrids=args.subgrids,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                pool=pool,
                store=store,
                recorded_at=_utc_stamp() if store is not None else "",
                executor=executor,
                failure_policy=failure_policy,
                reuse=args.reuse,
                trace=trace_session,
            )
    finally:
        if trace_session is not None:
            trace_session.close()
    failed_checks = sum(
        1
        for subgrid in outcome.subgrids()
        for _, check in outcome.checks(subgrid.name)
        if not check.passed
    )
    if not report_only:
        print(f"campaign {campaign.name}: {outcome.stats.summary()}")
        for name, stats in outcome.subgrid_stats.items():
            print(f"  {name}: {stats.summary()}")
        if args.trace:
            fingerprint = scheduler.fingerprint(args.subgrids)
            print(
                f"trace recorded: repro trace {fingerprint[:12]} "
                f"--store-dir {args.store_dir}"
            )
        print()
    for name, holes in outcome.quarantined.items():
        for hole in holes:
            print(
                f"quarantined {name}/{hole.label}: {hole.error} "
                f"({hole.attempts} attempt(s))",
                file=sys.stderr,
            )
    report = (
        json.dumps(campaign_report_payload(outcome), indent=2)
        if args.format == "json"
        else campaign_report_md(outcome)
    )
    _write_output(report, args.output)
    return _strict_exit(failed_checks, args.strict)


def _smoke_subgrid(campaign, requested: Optional[str]) -> str:
    """The sub-grid a campaign smoke run executes (the fewest-point one)."""
    if requested is not None:
        return campaign.subgrid(requested).name
    return min(campaign.subgrids, key=lambda s: len(s.points())).name


def _cmd_campaign_validate(args: argparse.Namespace) -> int:
    from repro.campaign import builtin_campaign_paths, get_campaign
    from repro.campaign.scheduler import CampaignScheduler

    refs = list(args.campaigns) or sorted(builtin_campaign_paths())
    failures = 0
    for ref in refs:
        try:
            campaign = get_campaign(ref)
            total = campaign.validate(deep=True)
            detail = f"{len(campaign.subgrids)} sub-grid(s), {total} point(s)"
            if args.smoke_ms is not None:
                subgrid = _smoke_subgrid(campaign, args.smoke_subgrid)
                scheduler = CampaignScheduler(
                    campaign,
                    duration_ms=args.smoke_ms,
                    traffic_scale=args.smoke_traffic_scale,
                )
                outcome = scheduler.run(subgrids=[subgrid])
                executed = outcome.subgrid_stats[subgrid].total
                detail += f"; smoke ran {subgrid} ({executed} point(s)) OK"
            print(f"[PASS] {campaign.name:<18}{detail}")
        except (ScenarioError, ValueError) as exc:
            failures += 1
            print(f"[FAIL] {ref}: {exc}")
    print(f"validated {len(refs)} campaign(s), {failures} failure(s)")
    return 1 if failures else 0


def _run_recording(
    args: argparse.Namespace, scheduler: CampaignScheduler, store: ResultsStore
):
    """Run a full campaign with the store hook and return its manifest."""
    with _sweep_pool(args) as pool:
        scheduler.run(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            pool=pool,
            store=store,
            recorded_at=_utc_stamp(),
        )
    return store.get_manifest(scheduler.fingerprint())


def _cmd_campaign_narrative(args: argparse.Namespace) -> int:
    from repro.campaign import get_campaign

    campaign = get_campaign(args.campaign)
    store = _store_for(args)
    manifest = None
    if store is not None:
        manifest = store.get_manifest(
            campaign.fingerprint(
                duration_ms=args.duration_ms,
                traffic_scale=args.traffic_scale,
                plugin_modules=args.plugin_modules,
            )
        )
    if manifest is None:
        scheduler = _campaign_scheduler(args, campaign)
        if store is None:
            # No store requested: record into a scratch store just to build
            # the manifest the narrative renders from, then discard it.
            with TemporaryDirectory(prefix="repro-store-") as scratch:
                manifest = _run_recording(args, scheduler, ResultsStore(scratch))
        else:
            manifest = _run_recording(args, scheduler, store)
    narrative = narrative_md(manifest)
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        existing = path.read_text() if path.is_file() else ""
        path.write_text(replace_section(existing, campaign.name, narrative))
        print(f"narrative section '{campaign.name}' written to {path}")
    else:
        print(narrative)
    return 0


def _cmd_store_list(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store_dir)
    manifests = store.manifests()
    if args.format == "json":
        payload = {
            "store_dir": str(store.directory),
            "size_bytes": store.size_bytes(),
            "manifests": [manifest_summary(manifest) for manifest in manifests],
        }
        print(json.dumps(payload, indent=2))
        return 0
    if not manifests:
        print(f"no manifests in {store.directory}")
        return 0
    print(
        f"Results store {store.directory}: {len(manifests)} manifest(s), "
        f"{store.size_bytes() / 1024:.1f} KiB"
    )
    for manifest in manifests:
        print(f"  {describe_manifest(manifest)}")
    print("\nInspect one with:  python -m repro store show <fingerprint-prefix>")
    return 0


def _cmd_store_show(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store_dir)
    try:
        print(store.find_manifest(args.fingerprint).to_json())
    except AmbiguousFingerprintError as exc:
        # Surface the actual candidates, one describe-line each, so the user
        # can pick a longer prefix without a second `store list` round trip.
        print(
            f"fingerprint prefix '{args.fingerprint}' matches "
            f"{len(exc.matches)} manifests:",
            file=sys.stderr,
        )
        for fingerprint in exc.matches:
            manifest = store.get_manifest(fingerprint)
            # describe_manifest leads with the 12-char short fingerprint —
            # exactly the ambiguous prefix — so swap in the full one here.
            detail = (
                describe_manifest(manifest).split("  ", 1)[1]
                if manifest is not None
                else "(unreadable manifest)"
            )
            print(f"  {fingerprint}  {detail}", file=sys.stderr)
        print("disambiguate with more characters", file=sys.stderr)
        return 2
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store_dir)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    problems = store.verify(cache=cache)
    # Count manifest *files* (verify examined unreadable ones too, so the
    # total must include them) but artifact references only from readable
    # manifests.
    manifest_files = store.manifest_names()
    artifacts = sum(len(manifest.artifact_refs()) for manifest in store.manifests())
    for problem in problems:
        print(f"[FAIL] {problem}")
    print(
        f"verified {len(manifest_files)} manifest(s), {artifacts} artifact(s), "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


def _cmd_store_index(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store_dir)
    points, specs = store.rebuild_index()
    manifests = len(store.manifest_names())
    print(
        f"store index: rebuilt from {manifests} manifest(s) — "
        f"{points} point(s), {specs} spec mapping(s)"
    )
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store_dir)
    if args.dry_run:
        orphans, kept = store.unreferenced_blobs()
        for blob in orphans:
            print(f"  would remove {blob.relative_to(store.directory)}")
        print(
            f"store gc --dry-run: would remove {len(orphans)} unreferenced "
            f"blob(s), keep {kept} (nothing deleted)"
        )
        return 0
    removed, kept = store.gc()
    print(f"store gc: removed {removed} unreferenced blob(s), kept {kept}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: every other command stays free of the service stack.
    from repro.serve import run_server

    _configure_logging(args.log_level)
    return run_server(args.store_dir, host=args.host, port=args.port)


def _format_us(value: float) -> str:
    """Microseconds as a right-aligned millisecond figure for the tables."""
    return f"{value / 1e3:10.3f} ms"


def _cmd_trace(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store_dir)
    try:
        manifest = store.find_manifest(args.fingerprint)
    except StoreError as exc:
        # Covers both "no match" and the ambiguous-prefix case: the
        # exception message already lists the candidate fingerprints.
        print(str(exc), file=sys.stderr)
        return 2
    stats = manifest.stats or {}
    trace_info = stats.get("trace")
    if not isinstance(trace_info, dict) or "events_jsonl" not in trace_info:
        print(
            f"manifest {manifest.fingerprint[:12]} has no recorded trace; "
            "re-record the run with `repro campaign run ... --trace "
            f"--store-dir {args.store_dir}`",
            file=sys.stderr,
        )
        return 2
    ref = ArtifactRef.from_dict(
        trace_info["events_jsonl"], "stats.trace.events_jsonl"
    )
    try:
        raw = store.read_artifact(ref)
    except StoreError as exc:
        print(f"trace events artifact unreadable: {exc}", file=sys.stderr)
        return 2
    events = [json.loads(line) for line in raw.splitlines() if line.strip()]
    summary = summarize_events(events)

    print(f"trace for {manifest.fingerprint[:12]} ({manifest.provenance.name}):")
    print(f"  processes: {', '.join(summary['processes']) or 'none'}")
    print(f"  {summary['spans']} span(s), {summary['instants']} instant(s)")
    phases = summary["phases"]
    if phases:
        width = max(len(name) for name in phases)
        print("  spans by name:")
        for name in sorted(phases):
            entry = phases[name]
            print(
                f"    {name:<{width}}  {entry['count']:>5}x  "
                f"total {_format_us(entry['total_us'])}  "
                f"max {_format_us(entry['max_us'])}"
            )
    subgrids = summary["subgrids"]
    if subgrids:
        width = max(len(name) for name in subgrids)
        print("  by sub-grid:")
        for name in sorted(subgrids):
            entry = subgrids[name]
            print(
                f"    {name:<{width}}  {entry['points']:>4} point(s)  "
                f"{entry['spans']:>4} span(s)  "
                f"total {_format_us(entry['total_us'])}"
            )
    # The cpu/wall split the manifest records for the whole sweep: summed
    # per-process simulation CPU time vs the parallel critical path.
    sim_cpu = (stats.get("phases") or {}).get("sim_cpu", 0.0)
    print(
        f"  sweep timing: sim_cpu {sim_cpu:.2f}s (cpu, summed) | "
        f"sim_wall {stats.get('sim_wall_s', 0.0):.2f}s (wall, critical path) | "
        f"elapsed {stats.get('elapsed_s', 0.0):.2f}s"
    )
    trace_json = trace_info.get("trace_json", {})
    if isinstance(trace_json, dict) and "digest" in trace_json:
        print(
            "  Perfetto: load artifact "
            f"{trace_json['digest'][:12]}… (store artifact, ext "
            f"{trace_json.get('ext', 'json')}) at https://ui.perfetto.dev"
        )
    return 0


def _cmd_policies() -> int:
    from repro.memctrl.policies import available_policies

    print("Registered scheduling policies (memory controller and NoC arbiters):")
    for name, policy_cls in sorted(available_policies().items()):
        doc = (policy_cls.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<22}{doc}")
    return 0


def _cmd_governors() -> int:
    from repro.dvfs.governor import available_governors

    print("Registered DVFS governors:")
    for name, governor_cls in sorted(available_governors().items()):
        doc = (governor_cls.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<22}{doc}")
    return 0


def _settings_md(settings: Mapping[str, object]) -> str:
    rows = [[key, str(settings[key])] for key in sorted(settings)]
    return render_markdown_table(["setting", "value"], rows)


def _cmd_settings(args: argparse.Namespace) -> int:
    from repro.system.platform import table1_settings, table2_core_types

    settings = table1_settings(args.scenario)
    print(f"Table 1 — simulation settings (scenario {settings['scenario']})")
    print(_settings_md(settings))
    print()
    print("Table 2 — cores and target-performance types")
    print(_settings_md(table2_core_types()))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.serialize import save_result
    from repro.scenario import critical_cores_for
    from repro.system.experiment import run_experiment

    _check_policy(args.policy)
    scenario = _resolved_scenario(args)
    duration_ps = int(args.duration_ms * MS)
    result = run_experiment(
        scenario=scenario,
        policy=args.policy,
        duration_ps=duration_ps,
        traffic_scale=args.traffic_scale,
        dram_model=args.dram_model,
    )
    columns = ("min_npi", "mean_npi", "bandwidth", "row_hit")
    print(f"policy={result.policy}  scenario={result.scenario}")
    print(format_points_table({result.policy: result}, columns, critical_cores_for(scenario)))
    failing = result.failing_cores()
    print(f"failing cores: {failing or 'none'}")
    if args.output_json:
        path = save_result(result, args.output_json)
        print(f"result saved to {path}")
    return 0


def _default_policies(scenario) -> List[str]:
    axis = scenario.sweep_axis("policy")
    if axis:
        return list(axis)
    return ["fcfs", "round_robin", "frame_rate_qos", "priority_qos"]


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.runner import compare_policies_specs, run_sweep
    from repro.scenario import critical_cores_for

    scenario = _resolved_scenario(args)
    policies = args.policies or _default_policies(scenario)
    for policy in policies:
        _check_policy(policy)
    specs = compare_policies_specs(
        policies,
        scenario=scenario,
        duration_ps=int(args.duration_ms * MS),
        traffic_scale=args.traffic_scale,
        plugin_modules=args.plugin_modules,
    )
    with _sweep_pool(args) as pool:
        ordered, stats = run_sweep(
            specs, jobs=args.jobs, cache_dir=args.cache_dir, pool=pool
        )
    results = dict(zip(policies, ordered))
    print(stats.summary())
    critical = critical_cores_for(scenario)
    print(f"Minimum NPI per critical core (scenario {scenario.name})")
    print(format_points_table(results, ("min_npi", "failing"), critical))
    print()
    print("Average DRAM bandwidth")
    print(format_points_table(results, ("bandwidth", "row_hit", "latency"), critical))
    print()
    kinds = ["policy_failures", "bandwidth_ordering"]
    if scenario.name == "case_a":
        kinds.append("qos_preserved")
    points = [({"policy": policy}, policy, result) for policy, result in results.items()]
    checks = [check for kind in kinds for check in KNOWN_CHECKS[kind](points, scenario, {})]
    for check in checks:
        print(check)
    summary = summarize_checks(checks)
    print(f"shape checks: {summary['passed']} passed, {summary['failed']} failed")
    if args.output_csv:
        path = _write_csv(points_csv(results, ("min_npi", "mean_npi"), critical), args.output_csv)
        print(f"per-core NPI rows exported to {path}")
    return 0 if summary["failed"] == 0 else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runner import frequency_sweep_specs, run_sweep
    from repro.scenario import critical_cores_for

    _check_policy(args.policy)
    scenario = _resolved_scenario(args)
    frequencies = args.frequencies
    if frequencies is None:
        axis = scenario.sweep_axis("platform.sim.dram.io_freq_mhz")
        frequencies = [float(f) for f in axis] if axis else list(FIG7_FREQUENCIES)
    specs = frequency_sweep_specs(
        frequencies,
        scenario=scenario,
        policy=args.policy,
        duration_ps=int(args.duration_ms * MS),
        traffic_scale=args.traffic_scale,
        plugin_modules=args.plugin_modules,
    )
    with _sweep_pool(args) as pool:
        ordered, stats = run_sweep(
            specs, jobs=args.jobs, cache_dir=args.cache_dir, pool=pool
        )
    sweep = dict(zip(frequencies, ordered))
    print(stats.summary())
    critical = critical_cores_for(scenario)
    print(f"Sweep points (scenario {scenario.name})")
    print(
        format_points_table(
            {f"{freq:g} MHz": result for freq, result in sweep.items()},
            ("bandwidth", "latency", "min_npi"),
            critical,
        )
    )
    print()
    print(f"Fig. 7 — priority-level residency of {args.dma}")
    print(priority_residency_md(sweep, args.dma))
    if args.output_csv:
        path = _write_csv(priority_residency_csv(sweep, args.dma), args.output_csv)
        print(f"Fig. 7 rows exported to {path}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    scenario = _resolved_scenario(args)
    if not scenario.sweep:
        print(f"scenario '{scenario.name}' declares no sweep axes")
        return 1
    if args.axis_set is not None:
        axis_sets: List[Optional[str]] = [args.axis_set]
    elif scenario.sweep_is_named:
        axis_sets = list(scenario.sweep_axis_sets())
    else:
        axis_sets = [None]
    store = _store_for(args)
    fingerprint = None
    if store is not None:
        # The grid fast path mirrors the campaign one: the fingerprint is a
        # hash of the scenario's dictionary form (with every --set override
        # baked in) plus the effective run knobs, so a recorded grid serves
        # its rendering without expanding or resolving a single point.
        fingerprint = run_fingerprint(
            "grid",
            scenario.to_dict(),
            duration_ms=args.duration_ms,
            traffic_scale=args.traffic_scale,
            selection=(args.axis_set,) if args.axis_set is not None else None,
            plugin_modules=args.plugin_modules,
        )
        served = store.serve(
            fingerprint, "report_json" if args.format == "json" else "report_md"
        )
        if served is not None:
            print(served)
            return 0
    from repro.runner import run_sweep, scenario_grid_specs
    from repro.scenario import critical_cores_for

    duration_ps = int(args.duration_ms * MS)
    critical = critical_cores_for(scenario)
    payload: dict = {"scenario": scenario.name, "axis_sets": {}}
    lines: List[str] = []
    sections: List[GridSection] = []
    with _sweep_pool(args) as pool:
        for axis_set in axis_sets:
            specs = scenario_grid_specs(
                scenario,
                duration_ps=duration_ps,
                traffic_scale=args.traffic_scale,
                plugin_modules=args.plugin_modules,
                axis_set=axis_set,
            )
            ordered, stats = run_sweep(
                specs, jobs=args.jobs, cache_dir=args.cache_dir, pool=pool
            )
            results = dict(zip((spec.label or "" for spec in specs), ordered))
            set_label = axis_set or "declared axes"
            table = format_points_table(results, cores=critical)
            # Both renderings are built every run (they are string
            # formatting over in-memory results): the requested one prints,
            # and the store records both so either format serves warm later.
            payload["axis_sets"][set_label] = {
                "rows": points_payload(results, cores=critical),
                "stats": {
                    "total": stats.total,
                    "cache_hits": stats.cache_hits,
                    "executed": stats.executed,
                    "phases": stats.phases(),
                },
            }
            section = [
                stats.summary(),
                f"Grid over {scenario.name}'s {set_label} ({len(results)} points)",
                table,
                "",
            ]
            lines.extend(section)
            if args.format != "json":
                # Markdown streams per axis set as it always did — a long
                # multi-set grid shows progress, not silence until the end.
                print("\n".join(section))
            if store is not None:
                sections.append(
                    GridSection(
                        label=set_label,
                        scenario_name=scenario.name,
                        critical_cores=tuple(critical),
                        points=tuple(
                            (dict(spec.settings), spec.label or "", result)
                            for spec, result in zip(specs, ordered)
                        ),
                        cache_keys=tuple(spec.key() for spec in specs),
                        rendered_md=table,
                    )
                )
    report_md = "\n".join(lines)
    report_json = json.dumps(payload, indent=2)
    if args.format == "json":
        print(report_json)
    if store is not None:
        store.record_grid(
            sections,
            fingerprint=fingerprint,
            provenance=Provenance(
                kind="grid",
                name=scenario.name,
                spec_hash=spec_hash(scenario.to_dict()),
                created_at=_utc_stamp(),
                duration_ms=args.duration_ms,
                traffic_scale=args.traffic_scale,
                selection=(args.axis_set,) if args.axis_set is not None else None,
                plugin_modules=tuple(args.plugin_modules),
            ),
            report_md=report_md,
            report_json=report_json,
        )
    return 0


def _cmd_dvfs(args: argparse.Namespace) -> int:
    from repro.dvfs.experiment import run_with_governor
    from repro.dvfs.governor import make_governor

    _check_policy(args.policy)
    try:
        governor = make_governor(args.governor)
    except ValueError as exc:  # an unknown name; the message lists the known ones
        raise ScenarioError(str(exc)) from None
    scenario = _resolved_scenario(args)
    duration_ps = int(args.duration_ms * MS)
    result = run_with_governor(
        governor,
        scenario=scenario,
        policy=args.policy,
        duration_ps=duration_ps,
        traffic_scale=args.traffic_scale,
        interval_ps=int(args.interval_us * 1_000_000),
    )
    print(f"governor: {result.governor}")
    print(f"mean DRAM frequency: {result.mean_freq_mhz:.0f} MHz")
    print(f"operating-point transitions: {result.transitions}")
    print("residency:")
    for freq, share in sorted(result.residency.items(), reverse=True):
        print(f"  {freq:6.0f} MHz  {share * 100:5.1f}%")
    print(f"memory-system energy: {result.total_energy_mj:.2f} mJ")
    print(f"failing cores: {result.failing_cores() or 'none'}")
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.power import estimate_system_energy, format_energy_report
    from repro.system.builder import build_system

    _check_policy(args.policy)
    scenario = _resolved_scenario(args)
    duration_ps = int(args.duration_ms * MS)
    system = build_system(
        scenario=scenario, policy=args.policy, traffic_scale=args.traffic_scale
    )
    system.run(duration_ps=duration_ps)
    print(format_energy_report(estimate_system_energy(system)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    args = build_parser().parse_args(argv)
    try:
        load_plugins(getattr(args, "plugin_modules", ()))
        if args.command == "scenarios":
            if args.scenarios_command == "list":
                return _cmd_scenarios_list()
            if args.scenarios_command == "show":
                return _cmd_scenarios_show(args)
            if args.scenarios_command == "validate":
                return _cmd_scenarios_validate(args)
        if args.command == "campaign":
            if args.campaign_command == "list":
                return _cmd_campaign_list()
            if args.campaign_command == "show":
                return _cmd_campaign_show(args)
            if args.campaign_command == "run":
                return _cmd_campaign_run(args, report_only=False)
            if args.campaign_command == "report":
                return _cmd_campaign_run(args, report_only=True)
            if args.campaign_command == "narrative":
                return _cmd_campaign_narrative(args)
            if args.campaign_command == "validate":
                return _cmd_campaign_validate(args)
        if args.command == "store":
            if args.store_command == "list":
                return _cmd_store_list(args)
            if args.store_command == "show":
                return _cmd_store_show(args)
            if args.store_command == "verify":
                return _cmd_store_verify(args)
            if args.store_command == "gc":
                return _cmd_store_gc(args)
            if args.store_command == "index":
                return _cmd_store_index(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "policies":
            return _cmd_policies()
        if args.command == "governors":
            return _cmd_governors()
        if args.command == "settings":
            return _cmd_settings(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "dvfs":
            return _cmd_dvfs(args)
        if args.command == "energy":
            return _cmd_energy(args)
    except (ScenarioError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
