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

from repro.campaign.catalog import (
    BUILTIN_CAMPAIGN_DIR,
    available_campaigns,
    builtin_campaign_paths,
    describe_campaign,
    get_campaign,
)
from repro.campaign.report import (
    DEFAULT_COLUMNS,
    KNOWN_CHECKS,
    KNOWN_COLUMNS,
    ClaimCheck,
    campaign_report_md,
    campaign_report_payload,
    format_points_table,
    points_csv,
    points_payload,
    priority_residency_csv,
    priority_residency_md,
    render_markdown_table,
    run_subgrid_checks,
    summarize_checks,
)
from repro.campaign.scheduler import (
    CampaignResult,
    CampaignScheduler,
    QuarantinedRun,
    ScheduledRun,
)
from repro.campaign.spec import (
    CAMPAIGN_SCHEMA_VERSION,
    Campaign,
    CampaignError,
    CheckSpec,
    SubGrid,
    campaign_from_file,
)

__all__ = [
    "BUILTIN_CAMPAIGN_DIR",
    "CAMPAIGN_SCHEMA_VERSION",
    "Campaign",
    "CampaignError",
    "CampaignResult",
    "CampaignScheduler",
    "CheckSpec",
    "ClaimCheck",
    "DEFAULT_COLUMNS",
    "KNOWN_CHECKS",
    "KNOWN_COLUMNS",
    "QuarantinedRun",
    "ScheduledRun",
    "SubGrid",
    "available_campaigns",
    "builtin_campaign_paths",
    "campaign_from_file",
    "campaign_report_md",
    "campaign_report_payload",
    "describe_campaign",
    "format_points_table",
    "get_campaign",
    "points_csv",
    "points_payload",
    "priority_residency_csv",
    "priority_residency_md",
    "render_markdown_table",
    "run_subgrid_checks",
    "summarize_checks",
]
