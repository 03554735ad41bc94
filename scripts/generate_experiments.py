"""Regenerate the measured numbers quoted in EXPERIMENTS.md.

This script is now a thin wrapper over the bundled ``paper_figures``
campaign: every figure grid (Figs. 5-9) is declared once, in
``src/repro/campaign/data/paper_figures.json``, and executed here through
the :class:`~repro.campaign.CampaignScheduler` — all sub-grids flattened
into one cost-ordered stream on a single warm worker pool, reported figure
by figure through the shared campaign report layer.  Only the extensions
that are not sweep-shaped (energy breakdown, DVFS governors) keep bespoke
code below.

``--jobs`` fans the whole campaign across worker processes (one start-up
cost total) and ``--cache-dir`` makes repeated invocations skip every
already-computed point; scheduler statistics are printed as HTML comments
so they do not disturb the markdown output.

Usage:
    python scripts/generate_experiments.py [--duration-ms 8] [--jobs 4] \
        [--cache-dir .repro-cache] [--campaign paper_figures]
"""

from __future__ import annotations

import argparse
from datetime import datetime, timezone

from repro.analysis.metrics import bandwidth_gain, qos_satisfied
from repro.campaign import (
    CampaignScheduler,
    campaign_report_md,
    get_campaign,
    priority_residency_md,
    render_markdown_table,
)
from repro.dvfs import PerformanceGovernor, PowersaveGovernor, PriorityPressureGovernor
from repro.dvfs.experiment import compare_governors
from repro.power import estimate_system_energy
from repro.runner import WorkerPool
from repro.scenario import critical_cores_for
from repro.sim.clock import MS, US
from repro.store import ResultsStore
from repro.system.builder import build_system


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--duration-ms",
        type=float,
        default=None,
        help="override every sub-grid's simulated duration (default: the "
        "campaign's own declarations, e.g. ar_glasses' native 11 ms frame)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the campaign"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="on-disk result cache (omit to disable)"
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="results store to record this run's manifest and rendered "
        "artifacts into (omit to disable)",
    )
    parser.add_argument(
        "--campaign",
        default="paper_figures",
        help="campaign name or file to regenerate (default: paper_figures)",
    )
    args = parser.parse_args()

    campaign = get_campaign(args.campaign)
    # Only a user-given --duration-ms overrides the campaign's declarations;
    # the extension sections below follow the campaign default otherwise.
    extension_ms = args.duration_ms if args.duration_ms is not None else campaign.duration_ms
    duration_ps = int(extension_ms * MS)
    scheduler = CampaignScheduler(campaign, duration_ms=args.duration_ms)
    print(
        f"<!-- generated by scripts/generate_experiments.py, "
        f"campaign={campaign.name}, duration="
        f"{'campaign defaults' if args.duration_ms is None else f'{args.duration_ms} ms'} -->\n"
    )
    # One pool for the whole campaign: the scheduler flattens every sub-grid
    # into a single sweep, so the pool starts exactly once.  When a
    # store is given, the scheduler's hook records the run's manifest and
    # rendered artifacts, so later `repro campaign report` invocations (and
    # the CI artifact upload) are pure reads.
    store = ResultsStore(args.store_dir) if args.store_dir else None
    pool = WorkerPool(args.jobs) if args.jobs > 1 else None
    try:
        outcome = scheduler.run(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            pool=pool,
            store=store,
            recorded_at=(
                datetime.now(timezone.utc).isoformat(timespec="seconds")
                if store is not None
                else ""
            ),
        )
    finally:
        if pool is not None:
            pool.close()  # the sweeps are done; free the workers early

    print(campaign_report_md(outcome))
    print()

    # --------------------------------------------------- Fig. 7 residency
    # The campaign table shows bandwidth/NPI per frequency point; the
    # per-level residency distribution the paper's Fig. 7 claim quotes
    # (priority 0 ~90% at 1700 MHz, priority 7 ~60% at 1300 MHz) needs the
    # full p0..p7 breakdown from the residency renderer.
    if "fig7" in outcome.points:
        axis = "platform.sim.dram.io_freq_mhz"
        dma = "image_processor.read"
        sweep = {
            float(settings[axis]): result
            for settings, _, result in outcome.points["fig7"]
            if axis in settings
        }
        print(f"### Fig. 7 — priority-level residency of {dma}\n")
        print(priority_residency_md(sweep, dma))
        print()

    # ------------------------------------------------- Fig. 8 gain lines
    if "fig8" in outcome.points:
        fig8 = {
            settings.get("policy", label): result
            for settings, label, result in outcome.points["fig8"]
        }
        print("### Fig. 8 — bandwidth gains (paper: +24%/+12%/+10%, ~1% to FR-FCFS)\n")
        for better, worse in (("priority_rowbuffer", "round_robin"),
                              ("priority_rowbuffer", "fcfs"),
                              ("priority_rowbuffer", "priority_qos"),
                              ("fr_fcfs", "priority_rowbuffer")):
            if better in fig8 and worse in fig8:
                gain = bandwidth_gain(fig8, better, worse)
                print(f"- {better} vs {worse}: {gain * 100:+.1f}%")
        print()

    # ----------------------------------------------------------------- Energy
    # Not sweep-shaped: the energy report reads the built system, not the
    # ExperimentResult, so these four short runs stay bespoke.
    print("### Extension — memory-system energy per policy (case A)\n")
    rows = []
    for policy in ("round_robin", "priority_qos", "priority_rowbuffer", "fr_fcfs"):
        system = build_system(scenario="case_a", policy=policy)
        system.run(duration_ps=duration_ps)
        report = estimate_system_energy(system)
        rows.append(
            [
                policy,
                f"{system.dram.row_hit_rate * 100:.1f}%",
                f"{report.dram.activation_j * 1e3:.3f}",
                f"{report.total_j * 1e3:.2f}",
                f"{report.energy_per_byte_pj:.2f}",
            ]
        )
    print(render_markdown_table(
        ["policy", "row-hit rate", "activation energy (mJ)", "total energy (mJ)", "pJ/byte"], rows
    ))
    print()

    # ------------------------------------------------------------------ DVFS
    print("### Extension — DVFS governors on Policy 1 (case A)\n")
    governors = compare_governors(
        {
            "performance": PerformanceGovernor(),
            "powersave": PowersaveGovernor(),
            "priority_pressure": PriorityPressureGovernor(),
        },
        scenario="case_a",
        policy="priority_qos",
        duration_ps=duration_ps,
        interval_ps=100 * US,
    )
    rows = []
    for name, result in governors.items():
        rows.append(
            [
                name,
                f"{result.mean_freq_mhz:.0f}",
                result.transitions,
                f"{result.total_energy_mj:.2f}",
                ", ".join(result.failing_cores()) or "none",
            ]
        )
    print(render_markdown_table(
        ["governor", "mean freq (MHz)", "switches", "energy (mJ)", "failing cores"], rows
    ))
    print()

    if "fig8" in outcome.points:
        print("### Summary of QoS pass/fail per policy\n")
        critical = critical_cores_for("case_a")
        rows = [
            [settings.get("policy", label),
             "yes" if qos_satisfied(result, cores=critical) else "no"]
            for settings, label, result in outcome.points["fig8"]
        ]
        print(render_markdown_table(["policy (case A)", "all critical cores meet target"], rows))
        print()

    stats = outcome.stats
    print(
        f"<!-- campaign {campaign.name}: {stats.total} run(s), "
        f"{stats.cache_hits} cache hit(s), {stats.executed} executed, "
        f"jobs={args.jobs} -->"
    )


if __name__ == "__main__":
    main()
