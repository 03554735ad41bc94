"""Declarative experiment campaigns: named sub-grids, one scheduler, one report.

A :class:`Campaign` declares what a paper's evaluation *is* — named
sub-grids (``fig5``, ``fig7``, …), each binding a scenario, an axis set,
report columns and claims — as versioned, serializable data.  The
:class:`CampaignScheduler` flattens every sub-grid into one cost-ordered run
stream on a single shared worker pool, and :mod:`repro.campaign.report`
renders per-sub-grid tables plus a campaign summary as markdown or JSON.
``repro campaign run paper_figures --jobs 4`` reproduces the whole
evaluation section in one command.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "catalog": (
            "BUILTIN_CAMPAIGN_DIR",
            "available_campaigns",
            "builtin_campaign_paths",
            "describe_campaign",
            "get_campaign",
        ),
        "report": (
            "DEFAULT_COLUMNS",
            "KNOWN_CHECKS",
            "KNOWN_COLUMNS",
            "ClaimCheck",
            "campaign_report_md",
            "campaign_report_payload",
            "format_points_table",
            "points_csv",
            "points_payload",
            "priority_residency_csv",
            "priority_residency_md",
            "render_markdown_table",
            "run_subgrid_checks",
            "summarize_checks",
        ),
        "scheduler": ("CampaignResult", "CampaignScheduler", "QuarantinedRun", "ScheduledRun"),
        "spec": (
            "CAMPAIGN_SCHEMA_VERSION",
            "Campaign",
            "CampaignError",
            "CheckSpec",
            "SubGrid",
            "campaign_from_file",
        ),
    },
)
