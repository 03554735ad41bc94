"""Tests for the paper's qualitative shape checks in the campaign check
registry, and for the paper claims the ``paper_figures`` campaign declares."""

from __future__ import annotations

from repro.campaign import KNOWN_CHECKS, ClaimCheck, get_campaign, summarize_checks
from repro.scenario import get_scenario
from repro.system.experiment import ExperimentResult

FIG7_AXIS = "platform.sim.dram.io_freq_mhz"


def make_result(
    policy: str,
    min_npi: dict,
    bandwidth: float = 10e9,
    scenario: str = "case_a",
    priority_distributions: dict | None = None,
) -> ExperimentResult:
    return ExperimentResult(
        scenario=scenario,
        policy=policy,
        adaptation_enabled=policy.startswith("priority"),
        duration_ps=1_000_000,
        dram_freq_mhz=1866.0,
        min_core_npi=min_npi,
        mean_core_npi={core: max(1.0, value) for core, value in min_npi.items()},
        dram_bandwidth_bytes_per_s=bandwidth,
        dram_row_hit_rate=0.5,
        served_transactions=100,
        average_latency_ps=1000.0,
        priority_distributions=priority_distributions or {},
    )


def run_check(kind, results, scenario="case_a", setting="policy", **params):
    """Evaluate one registered check over ``{setting value: result}`` points."""
    points = [({setting: key}, str(key), result) for key, result in results.items()]
    return KNOWN_CHECKS[kind](points, get_scenario(scenario), params)


PASSING = {core: 1.5 for core in ("display", "camera", "gps", "usb", "wifi",
                                   "image_processor", "rotator", "video_codec")}
FAILING_DISPLAY = dict(PASSING, display=0.2)


class TestClaimRegistry:
    """The ``paper_figures`` campaign file is the one statement of each claim."""

    def test_every_figure_has_claims(self):
        subgrids = {subgrid.name: subgrid for subgrid in get_campaign("paper_figures").subgrids}
        for figure in ("fig5", "fig6", "fig7", "fig8", "fig9"):
            assert subgrids[figure].claims, figure
            assert subgrids[figure].checks, figure

    def test_claims_are_unique_descriptions(self):
        descriptions = [
            claim
            for subgrid in get_campaign("paper_figures").subgrids
            for claim in subgrid.claims
        ]
        assert len(descriptions) == len(set(descriptions))


class TestPolicyFailureChecks:
    def test_expected_pattern_passes(self):
        results = {
            "fcfs": make_result("fcfs", FAILING_DISPLAY),
            "round_robin": make_result("round_robin", FAILING_DISPLAY),
            "frame_rate_qos": make_result("frame_rate_qos", dict(PASSING, gps=0.5)),
            "priority_qos": make_result("priority_qos", PASSING),
        }
        checks = run_check("policy_failures", results)
        assert all(check.passed for check in checks)
        assert summarize_checks(checks)["failed"] == 0

    def test_baseline_passing_everything_fails_the_shape_check(self):
        results = {
            "fcfs": make_result("fcfs", PASSING),
            "priority_qos": make_result("priority_qos", PASSING),
        }
        checks = run_check("policy_failures", results)
        fcfs_check = next(c for c in checks if "fcfs" in c.description)
        assert not fcfs_check.passed

    def test_priority_policy_failure_is_reported(self):
        results = {"priority_qos": make_result("priority_qos", FAILING_DISPLAY)}
        checks = run_check("policy_failures", results)
        qos_check = next(c for c in checks if "priority_qos" in c.description)
        assert not qos_check.passed

    def test_case_b_uses_fig6_label(self):
        results = {"priority_qos": make_result("priority_qos", PASSING, scenario="case_b")}
        checks = run_check("policy_failures", results, scenario="case_b")
        assert all(check.experiment == "fig6" for check in checks)


class TestFig7Checks:
    def test_escalation_detected(self):
        sweep = {
            1700.0: make_result(
                "priority_qos", PASSING,
                priority_distributions={"image_processor.read": {0: 0.9, 1: 0.05, 7: 0.05}},
            ),
            1300.0: make_result(
                "priority_qos", PASSING,
                priority_distributions={"image_processor.read": {0: 0.1, 6: 0.2, 7: 0.7}},
            ),
        }
        checks = run_check(
            "priority_escalation", sweep, setting=FIG7_AXIS, dma="image_processor.read"
        )
        assert all(check.passed for check in checks)

    def test_flat_distribution_fails(self):
        flat = {"image_processor.read": {0: 0.5, 7: 0.5}}
        sweep = {
            1700.0: make_result("priority_qos", PASSING, priority_distributions=flat),
            1300.0: make_result("priority_qos", PASSING, priority_distributions=flat),
        }
        checks = run_check(
            "priority_escalation", sweep, setting=FIG7_AXIS, dma="image_processor.read"
        )
        assert not all(check.passed for check in checks)

    def test_unknown_dma_is_a_failed_check_not_a_crash(self):
        # A typo'd DMA passes schema validation; the report must still render
        # after the whole campaign has simulated.
        sweep = {
            1700.0: make_result(
                "priority_qos", PASSING,
                priority_distributions={"image_processor.read": {0: 1.0}},
            ),
            1300.0: make_result(
                "priority_qos", PASSING,
                priority_distributions={
                    "image_processor.read": {7: 1.0}, "rotator.read": {0: 1.0}
                },
            ),
        }
        (check,) = run_check(
            "priority_escalation", sweep, setting=FIG7_AXIS, dma="image_procesor.read"
        )
        assert not check.passed
        assert "'image_procesor.read'" in check.detail
        # Only the DMAs recorded at every point are offered as alternatives.
        assert "['image_processor.read']" in check.detail


class TestFig8And9Checks:
    def test_bandwidth_ordering_checks(self):
        results = {
            "round_robin": make_result("round_robin", PASSING, bandwidth=10e9),
            "priority_qos": make_result("priority_qos", PASSING, bandwidth=11e9),
            "priority_rowbuffer": make_result("priority_rowbuffer", PASSING, bandwidth=12.5e9),
            "fr_fcfs": make_result("fr_fcfs", FAILING_DISPLAY, bandwidth=12.6e9),
        }
        checks = run_check("bandwidth_ordering", results)
        assert all(check.passed for check in checks)
        fig9 = run_check("qos_preserved", results)
        assert all(check.passed for check in fig9)

    def test_qos_rb_far_behind_frfcfs_fails(self):
        results = {
            "priority_rowbuffer": make_result("priority_rowbuffer", PASSING, bandwidth=8e9),
            "fr_fcfs": make_result("fr_fcfs", PASSING, bandwidth=12e9),
        }
        checks = run_check("bandwidth_ordering", results)
        closeness = next(c for c in checks if "upper bound" in c.description)
        assert not closeness.passed

    def test_claimcheck_str_mentions_status(self):
        check = ClaimCheck("fig8", "something", True, "detail")
        assert "PASS" in str(check)
        assert "FAIL" in str(ClaimCheck("fig8", "something", False))
