"""The campaign scheduler: every sub-grid through one pool, one spawn cost.

Running a campaign sub-grid by sub-grid wastes the two resources the warm
worker pool exists to save: each sweep would pay its own scheduling
round-trips, and a short sub-grid (Fig. 9 is two runs) cannot load-balance
against a long one (Fig. 7 is five).  :class:`CampaignScheduler` instead
flattens *all* sub-grids into one stream of :class:`~repro.runner.RunSpec`
points, orders it by estimated cost (heaviest first, so stragglers start
early), and feeds the whole stream through a single
:func:`~repro.runner.run_sweep` call on one shared
:class:`~repro.runner.WorkerPool` — one ``pool_startup`` phase for the whole
campaign.

The orchestrator's key-level deduplication and result cache make the
scheduler *cache-aware for free*: a point two figures share (Fig. 8 and
Fig. 9 both run ``priority_rowbuffer`` on case A) executes once, and a point
already materialized in ``--cache-dir`` is never re-simulated.  The
``observer`` landing hook attributes every point's outcome back to the
sub-grid it came from, so :class:`CampaignResult` carries per-sub-grid
phase-split :class:`~repro.runner.SweepStats` alongside the campaign totals.

Determinism: the cost ordering only changes *when* a point executes, never
what it computes — results are reordered back into each sub-grid's declared
point order, and ``tests/test_campaign_scheduler.py`` asserts bit-identical
parity against running every sub-grid through the plain sweep path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.campaign.report import Point
from repro.campaign.spec import Campaign, CampaignError, SubGrid
from repro.runner import (
    Executor,
    FailurePolicy,
    ResultCache,
    RunSpec,
    SweepStats,
    WorkerPool,
    estimate_cost,
    run_sweep,
)
from repro.scenario import Scenario
from repro.system.experiment import ExperimentResult, RunTimings

if TYPE_CHECKING:  # pragma: no cover - type-only import (store imports report)
    from repro.obs import TraceSession
    from repro.store import Provenance, ResultsStore, StoreMemo

logger = logging.getLogger("repro.campaign")


@dataclass(frozen=True)
class ScheduledRun:
    """One planned point: which sub-grid it belongs to and what it runs."""

    subgrid: str
    label: str
    settings: Dict[str, Any]
    spec: RunSpec
    cost: float


@dataclass(frozen=True)
class QuarantinedRun:
    """One point the run gave up on after exhausting its retry budget.

    Carries everything the report and the store manifest need to account
    for the hole: the point's identity (settings, label, cache key — the
    key is still valid, so a later resume that succeeds lands in the same
    cache slot) plus the failure evidence.
    """

    settings: Dict[str, Any]
    label: str
    cache_key: str
    attempts: int
    error: str
    #: The point's resolution-free spec key — recorded so the manifest stays
    #: index-rebuildable, but a quarantined entry is never served as a reuse
    #: hit (the index refuses non-``ok`` statuses).
    memo_key: str = ""


@dataclass
class CampaignResult:
    """Everything a campaign run produced, grouped back per sub-grid."""

    campaign: Campaign
    #: sub-grid name -> points in the sub-grid's declared order.
    points: Dict[str, List[Point]] = field(default_factory=dict)
    #: Resolved scenario per sub-grid (drives report columns/critical cores).
    scenarios: Dict[str, Scenario] = field(default_factory=dict)
    #: Campaign totals from the single flattened sweep.
    stats: SweepStats = field(default_factory=SweepStats)
    #: Per-sub-grid counters and phase splits, attributed by the observer.
    subgrid_stats: Dict[str, SweepStats] = field(default_factory=dict)
    #: sub-grid name -> each point's result-cache key, in point order (what
    #: the results store records so reports can skip resolution entirely).
    #: Aligned with ``points`` — quarantined points appear in neither.
    cache_keys: Dict[str, List[str]] = field(default_factory=dict)
    #: sub-grid name -> each point's resolution-free memo key, aligned with
    #: ``points``.  Recorded in the manifest so the store's point index can
    #: answer "has this spec ever run?" for later overlapping campaigns
    #: without resolving a scenario.
    memo_keys: Dict[str, List[str]] = field(default_factory=dict)
    #: sub-grid name -> points that exhausted their retry budget, in the
    #: sub-grid's declared point order.  Only present under a quarantining
    #: :class:`~repro.runner.FailurePolicy`; the default strict policy
    #: raises instead of producing an outcome with holes.
    quarantined: Dict[str, List[QuarantinedRun]] = field(default_factory=dict)

    #: Memoized check outcomes per sub-grid (checks are pure over the
    #: results, and the report renders them in several places — evaluate
    #: each sub-grid's declared checks exactly once per outcome).
    _check_cache: Dict[str, list] = field(default_factory=dict, repr=False, compare=False)

    def subgrids(self) -> List[SubGrid]:
        """The sub-grids that actually ran, in campaign order."""
        return [
            subgrid for subgrid in self.campaign.subgrids if subgrid.name in self.points
        ]

    def _require_ran(self, subgrid: str) -> None:
        if subgrid not in self.points:
            ran = ", ".join(self.points) or "none"
            raise CampaignError(
                f"sub-grid '{subgrid}' was not part of this run (ran: {ran})"
            )

    def results(self, subgrid: str) -> Dict[str, ExperimentResult]:
        """One sub-grid's results keyed by point label, in point order."""
        self._require_ran(subgrid)
        return {label: result for _, label, result in self.points[subgrid]}

    def checks(self, subgrid: str) -> list:
        """One sub-grid's (kind, outcome) check pairs (evaluated once, cached)."""
        self._require_ran(subgrid)
        cached = self._check_cache.get(subgrid)
        if cached is None:
            from repro.campaign.report import run_subgrid_checks

            cached = run_subgrid_checks(
                self.campaign.subgrid(subgrid),
                self.scenarios[subgrid],
                self.points[subgrid],
            )
            self._check_cache[subgrid] = cached
        return cached


class CampaignScheduler:
    """Plan and execute a campaign's sub-grids on one shared worker pool."""

    def __init__(
        self,
        campaign: Campaign,
        duration_ms: Optional[float] = None,
        traffic_scale: Optional[float] = None,
        plugin_modules: Sequence[str] = (),
    ) -> None:
        self.campaign = campaign
        self.duration_ms = duration_ms
        self.traffic_scale = traffic_scale
        self.plugin_modules = tuple(plugin_modules)

    def _selected(self, subgrids: Optional[Sequence[str]]) -> List[SubGrid]:
        if subgrids is None:
            return list(self.campaign.subgrids)
        # Deduplicate (a repeated --subgrid flag) so the plan and the stats
        # count every point once.
        return [self.campaign.subgrid(name) for name in dict.fromkeys(subgrids)]

    def _selection(self, subgrids: Optional[Sequence[str]]) -> Optional[Tuple[str, ...]]:
        """The deduplicated sub-grid selection as recorded in provenance."""
        if subgrids is None:
            return None
        return tuple(dict.fromkeys(subgrids))

    def fingerprint(self, subgrids: Optional[Sequence[str]] = None) -> str:
        """The results-store lookup key for this scheduler's effective run.

        Computed entirely from the campaign's dictionary form plus the
        scheduler's overrides — no scenario is resolved, no ``RunSpec`` is
        built — which is exactly what lets a warm ``campaign report`` find
        its manifest as a pure read.  Execution knobs that cannot change
        results (``jobs``, cache and store directories, output format) do
        not participate.
        """
        from repro.store import run_fingerprint

        return run_fingerprint(
            "campaign",
            self.campaign.to_dict(),
            duration_ms=self.duration_ms,
            traffic_scale=self.traffic_scale,
            selection=self._selection(subgrids),
            plugin_modules=self.plugin_modules,
        )

    def provenance(
        self, subgrids: Optional[Sequence[str]] = None, recorded_at: str = ""
    ) -> "Provenance":
        """The provenance block a store recording of this run carries.

        ``recorded_at`` is caller-supplied (the CLI stamps wall-clock time)
        so scheduling stays a pure function of its inputs.
        """
        from repro.store import Provenance, spec_hash

        return Provenance(
            kind="campaign",
            name=self.campaign.name,
            spec_hash=spec_hash(self.campaign.to_dict()),
            created_at=recorded_at,
            duration_ms=self.duration_ms,
            traffic_scale=self.traffic_scale,
            selection=self._selection(subgrids),
            plugin_modules=self.plugin_modules,
        )

    def plan(
        self,
        subgrids: Optional[Sequence[str]] = None,
        memo: Optional["StoreMemo"] = None,
    ) -> List[ScheduledRun]:
        """Flatten the selected sub-grids into one cost-ordered run stream.

        Heaviest points first (stable for equal costs, so the plan is
        deterministic for a given campaign): when the stream hits the pool,
        long runs start immediately and short ones fill the tail instead of
        leaving workers idle behind a late straggler.

        With a ``memo`` (a store's point-index view), points the index will
        serve are planned at zero cost *without resolving their scenarios*:
        the probe needs only the spec's resolution-free memo key, reuse is
        instant next to a simulation, and skipping the estimate here is
        what keeps the reuse path resolution-free end to end.
        """
        scheduled: List[ScheduledRun] = []
        with obs.span("campaign.plan", campaign=self.campaign.name) as plan_span:
            reusable_count = 0
            for subgrid in self._selected(subgrids):
                specs = subgrid.run_specs(
                    default_duration_ms=self.campaign.duration_ms,
                    default_traffic_scale=self.campaign.traffic_scale,
                    duration_ms=self.duration_ms,
                    traffic_scale=self.traffic_scale,
                    plugin_modules=self.plugin_modules,
                )
                for point, spec in zip(subgrid.points(), specs):
                    if memo is not None:
                        with obs.span("campaign.memo_probe", subgrid=subgrid.name):
                            reusable = memo.probe(spec)
                    else:
                        reusable = False
                    reusable_count += 1 if reusable else 0
                    scheduled.append(
                        ScheduledRun(
                            subgrid=subgrid.name,
                            label=spec.label or subgrid.name,
                            settings=point,
                            spec=spec,
                            cost=0.0 if reusable else estimate_cost(spec),
                        )
                    )
            scheduled.sort(key=lambda run: -run.cost)
            plan_span.set(points=len(scheduled), reusable=reusable_count)
        logger.debug(
            "planned campaign '%s': %d point(s), %d reusable from store",
            self.campaign.name,
            len(scheduled),
            reusable_count,
        )
        return scheduled

    def dry_run(
        self,
        subgrids: Optional[Sequence[str]] = None,
        cache: Optional[ResultCache] = None,
        store: Optional["ResultsStore"] = None,
    ) -> Dict[str, Dict[str, int]]:
        """Classify the plan without running anything.

        Per sub-grid (in campaign order): how many points would simulate,
        how many would come back from the store's point index, and how many
        the result cache or in-sweep deduplication would serve.  Store
        probes check that the recorded result blob exists but never load
        it; cache probes — which need the point's cache key, i.e. one
        scenario resolution per distinct point — only happen when a cache
        is handed in and the index missed.
        """
        memo = store.memo() if store is not None else None
        summary: Dict[str, Dict[str, int]] = {
            subgrid.name: {"points": 0, "to_simulate": 0, "reused": 0, "cache_hits": 0}
            for subgrid in self._selected(subgrids)
        }
        first_bucket: Dict[str, str] = {}
        for run in self.plan(subgrids, memo=memo):
            counts = summary[run.subgrid]
            counts["points"] += 1
            bucket = first_bucket.get(run.spec.memo_key())
            if bucket is None:
                if memo is not None and memo.probe(run.spec):
                    bucket = "reused"
                elif cache is not None and run.spec.key() in cache:
                    bucket = "cache_hits"
                else:
                    bucket = "to_simulate"
                first_bucket[run.spec.memo_key()] = bucket
            elif bucket == "to_simulate":
                # A duplicate of a cold point executes once; the duplicates
                # land as in-sweep dedup hits, which the stats count as
                # cache hits.
                bucket = "cache_hits"
            counts[bucket] += 1
        return summary

    def run(
        self,
        subgrids: Optional[Sequence[str]] = None,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[str] = None,
        pool: Optional[WorkerPool] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        store: Optional["ResultsStore"] = None,
        recorded_at: str = "",
        executor: Optional[Executor] = None,
        failure_policy: Optional[FailurePolicy] = None,
        reuse: bool = True,
        trace: Optional["TraceSession"] = None,
    ) -> CampaignResult:
        """Execute the plan through one ``run_sweep`` call and regroup.

        ``pool``/``jobs``/``cache``/``cache_dir``/``progress``/``executor``/
        ``failure_policy`` have :func:`~repro.runner.run_sweep` semantics;
        the whole campaign is one sweep, so a cold pool spawns exactly once
        and ``pool_startup_s`` appears once in the campaign totals (and
        never in the per-sub-grid stats, which only carry work attributable
        to their own points).

        ``store`` is the results-store hook: when given, the run's rendered
        artifacts, cache keys, check outcomes and provenance (stamped
        ``recorded_at``, a caller-supplied timestamp) are recorded under
        :meth:`fingerprint` the moment the results exist — the single write
        that makes every later report against this run a pure read.  While
        the sweep is in flight the store also carries a *partial journal*
        for this fingerprint (progress counters, the cache directory), so
        ``repro campaign run --resume`` can tell a crashed campaign from
        one that never started; a successful recording deletes it.

        Under a quarantining ``failure_policy`` a point that exhausts its
        retries lands in ``CampaignResult.quarantined`` instead of aborting
        the campaign; checks and report tables cover the surviving points.

        With a ``store`` and ``reuse=True`` (the default), the plan is
        intersected against the store's point index before dispatch: every
        point some earlier campaign recorded is spliced in from its
        recorded result blob — zero scenario resolutions, zero simulator
        work — and only the delta executes.  The bytes are identical to a
        full run (the blob *is* the serialized result), and the new
        manifest's reused points reference the existing blobs, so the
        recording dedups to nothing new.  Quarantined, tampered or
        garbage-collected recordings read as misses and re-simulate.

        ``trace`` is an active :class:`~repro.obs.TraceSession` (what
        ``campaign run --trace`` creates): after the sweep, and *before*
        the final manifest record, it is finalized against ``store`` so
        the merged trace artifacts are recorded and referenced from the
        manifest's ``stats`` — tracing never changes results, reports,
        cache keys or the fingerprint.
        """
        memo = store.memo() if (store is not None and reuse) else None
        plan = self.plan(subgrids, memo=memo)
        selected = self._selected(subgrids)
        fingerprint = self.fingerprint(subgrids) if store is not None else ""
        outcome = CampaignResult(campaign=self.campaign)
        for subgrid in selected:
            outcome.scenarios[subgrid.name] = subgrid.resolved_scenario()
            outcome.subgrid_stats[subgrid.name] = SweepStats()

        owner: List[Tuple[str, str, Dict[str, Any]]] = [
            (run.subgrid, run.label, run.settings) for run in plan
        ]
        if obs.tracing():
            # Point metadata instants: the flat sweep index -> sub-grid map
            # `repro trace` joins execution spans against.
            for index, run in enumerate(plan):
                obs.instant(
                    "campaign.point", index=index, subgrid=run.subgrid, label=run.label
                )
        landed_count = [0]

        def observer(
            index: int,
            result: ExperimentResult,
            timings: Optional[RunTimings],
            from_cache: bool,
            source: str,
        ) -> None:
            name = owner[index][0]
            stats = outcome.subgrid_stats[name]
            stats.total += 1
            if source == "reused":
                obs.instant("campaign.splice", index=index, subgrid=name)
                stats.reused_points += 1
            elif from_cache:
                stats.cache_hits += 1
            else:
                stats.executed += 1
            if timings is not None:
                stats.add_timings(timings)
            landed_count[0] += 1
            if store is not None:
                store.record_partial(
                    fingerprint,
                    campaign=self.campaign.name,
                    total=len(plan),
                    recorded=landed_count[0],
                    cache_dir=cache_dir
                    if cache_dir is not None
                    else (str(cache.directory) if cache is not None else None),
                )

        logger.info(
            "running campaign '%s': %d point(s), jobs=%d",
            self.campaign.name,
            len(plan),
            pool.jobs if pool is not None else jobs,
        )
        with obs.span(
            "campaign.sweep", campaign=self.campaign.name, points=len(plan)
        ):
            results, stats = run_sweep(
                [run.spec for run in plan],
                jobs=jobs,
                cache=cache,
                cache_dir=cache_dir,
                pool=pool,
                progress=progress,
                observer=observer,
                executor=executor,
                failure_policy=failure_policy,
                memo=memo,
            )
        outcome.stats = stats

        # Per-sub-grid wall-clock is not separable out of one flattened,
        # possibly parallel sweep; report each sub-grid's *attributed work
        # time* (sum of its phase totals) as elapsed instead of leaving a
        # misleading 0.00s next to non-zero phases.  Every sub-grid ran on
        # the sweep's executor, so it shares the sweep's worker count.
        for stats_entry in outcome.subgrid_stats.values():
            stats_entry.elapsed_s = sum(stats_entry.phases().values())
            stats_entry.jobs = stats.jobs

        # A quarantined point leaves its result slot as None; map those
        # slots back to their quarantine records so regrouping can tell a
        # recorded failure from an impossible hole.
        quarantined_by_index = {
            index: record
            for record in stats.quarantined
            for index in record.indices
        }

        # Regroup keyed by the point's *settings* (always unique within a
        # sub-grid), not its display label — pathological string axis values
        # can render two distinct points to the same label.
        by_subgrid: Dict[str, Dict[str, Point]] = {s.name: {} for s in selected}
        quarantine_map: Dict[Tuple[str, str], Any] = {}
        for index, ((name, label, settings), result) in enumerate(zip(owner, results)):
            if result is None:
                record = quarantined_by_index.get(index)
                if record is None:  # pragma: no cover - run_sweep always fills
                    raise CampaignError(
                        f"sub-grid '{name}' point '{label}' produced no result"
                    )
                quarantine_map[(name, _point_key(settings))] = record
                continue
            by_subgrid[name][_point_key(settings)] = (settings, label, result)
        # Regroup in each sub-grid's declared point order, not plan order.
        # Every spec's cache key is memoized by now — computed during the
        # sweep's dedup pass, or seeded from the index for reused points —
        # so reading it here never resolves a scenario.
        key_by_point = {
            (run.subgrid, _point_key(run.settings)): run.spec.key() for run in plan
        }
        memo_key_by_point = {
            (run.subgrid, _point_key(run.settings)): run.spec.memo_key()
            for run in plan
        }
        label_by_point = {
            (run.subgrid, _point_key(run.settings)): run.label for run in plan
        }
        for subgrid in selected:
            ordered: List[Point] = []
            keys: List[str] = []
            memo_keys: List[str] = []
            holes: List[QuarantinedRun] = []
            for point in subgrid.points():
                spot = (subgrid.name, _point_key(point))
                record = quarantine_map.get(spot)
                if record is not None:
                    holes.append(
                        QuarantinedRun(
                            settings=dict(point),
                            label=label_by_point[spot],
                            cache_key=key_by_point[spot],
                            attempts=record.attempts,
                            error=record.error,
                            memo_key=memo_key_by_point[spot],
                        )
                    )
                    continue
                ordered.append(by_subgrid[subgrid.name][_point_key(point)])
                keys.append(key_by_point[spot])
                memo_keys.append(memo_key_by_point[spot])
            outcome.points[subgrid.name] = ordered
            outcome.cache_keys[subgrid.name] = keys
            outcome.memo_keys[subgrid.name] = memo_keys
            if holes:
                outcome.quarantined[subgrid.name] = holes
        if store is not None:
            # Trace finalization happens after the sweep and before the
            # manifest record: the merged journals become store artifacts,
            # and their references ride into the manifest's free-form
            # ``stats`` (the record itself is therefore not in its own
            # trace — an accepted, documented blind spot).
            extra_stats = None
            if trace is not None:
                extra_stats = trace.finalize(store)
                trace_info = extra_stats.get("trace", {})
                logger.info(
                    "trace recorded: %d span(s) across %d process(es)",
                    trace_info.get("spans", 0),
                    len(trace_info.get("processes", [])),
                )
            store.record_campaign(
                outcome,
                fingerprint=fingerprint,
                provenance=self.provenance(subgrids, recorded_at=recorded_at),
                extra_stats=extra_stats,
            )
            store.clear_partial(fingerprint)
            logger.info("campaign recorded under fingerprint %s", fingerprint)
        return outcome


def _point_key(settings: Dict[str, Any]) -> str:
    """Canonical identity of one point within its sub-grid."""
    return repr(sorted(settings.items()))
