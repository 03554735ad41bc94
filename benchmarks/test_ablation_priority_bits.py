"""Ablation A2 — priority resolution (k bits).

The paper quantizes priorities into 2^k levels and reports that k = 3 bits
"provides sufficient granularity in priority levels to produce satisfying
results".  This sweep runs Policy 1 with k = 1, 2 and 3 bits: with the
paper's k = 3 every core meets its target, and coarser quantization only ever
makes the worst-off cores worse, never better.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import cached_sweep
from repro.runner import RunSpec
from repro.scenario import scenario_config
from repro.sim.clock import MS

DURATION_PS = 10 * MS
BIT_WIDTHS = [1, 2, 3]


def _spec(bits: int) -> RunSpec:
    """The one spec per bit width: the prefetch and every test share its key."""
    return RunSpec(
        scenario="case_a",
        policy="priority_qos",
        duration_ps=DURATION_PS,
        config=scenario_config("case_a").with_overrides(priority_bits=bits),
        label=str(bits),
    )


@pytest.fixture(scope="module", autouse=True)
def _prefetch_grid():
    """Batch the whole grid through one sweep so cold runs can parallelise."""
    cached_sweep([_spec(bits) for bits in BIT_WIDTHS])


def _run(bits: int):
    return cached_sweep([_spec(bits)])[0]


@pytest.mark.parametrize("bits", BIT_WIDTHS)
def test_priority_bits_run(bits):
    result = _run(bits)
    assert result.served_transactions > 0


def test_priority_bits_tradeoff():
    results = {bits: _run(bits) for bits in BIT_WIDTHS}

    print("\nAblation A2 — priority resolution sweep (Policy 1)")
    print("bits  worst core NPI  failing cores")
    worst = {}
    for bits in BIT_WIDTHS:
        result = results[bits]
        worst[bits] = min(result.min_core_npi.values())
        print(f"{bits:4d}  {worst[bits]:14.2f}  {result.failing_cores()}")

    # The paper's k = 3 bits is sufficient: every core meets its target.
    assert results[3].failing_cores() == []
    # Finer quantization never hurts the worst-off core (small tolerance for
    # simulation noise).
    assert worst[3] >= worst[1] - 0.05
