"""Ablation A1 — the delta threshold of Policy 2 (QoS-RB).

Delta decides when the scheduler may spend a slot on row-buffer hits instead
of strict priority order.  The paper picks delta = 6: "a higher delta value
gives more favor to DRAM bandwidth, but also potentially causes more
disturbance to the QoS.  We found delta = 6 a good setting to achieve high
DRAM bandwidth without causing QoS degradations."

The sweep regenerates that trade-off: delta = 0 degenerates to Policy 1
(lowest row-hit rate), larger deltas recover row-buffer locality, and at the
paper's delta = 6 every core still meets its target.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.conftest import cached_sweep
from repro.runner import RunSpec
from repro.scenario import scenario_config
from repro.sim.clock import MS

DURATION_PS = 10 * MS
DELTAS = [0, 3, 6, 7]


def _spec(delta: int) -> RunSpec:
    """The one spec per delta: the prefetch and every test share its key."""
    config = scenario_config("case_a")
    return RunSpec(
        scenario="case_a",
        policy="priority_rowbuffer",
        duration_ps=DURATION_PS,
        config=config.with_overrides(
            memory_controller=replace(config.memory_controller, row_buffer_delta=delta)
        ),
        label=str(delta),
    )


@pytest.fixture(scope="module", autouse=True)
def _prefetch_grid():
    """Batch the whole grid through one sweep so cold runs can parallelise."""
    cached_sweep([_spec(delta) for delta in DELTAS])


def _run(delta: int):
    return cached_sweep([_spec(delta)])[0]


@pytest.mark.parametrize("delta", DELTAS)
def test_delta_run(delta):
    result = _run(delta)
    assert result.served_transactions > 0


def test_delta_tradeoff():
    results = {delta: _run(delta) for delta in DELTAS}

    print("\nAblation A1 — QoS-RB delta threshold sweep")
    print("delta  bandwidth(GB/s)  row-hit  failing cores")
    for delta in DELTAS:
        result = results[delta]
        print(
            f"{delta:5d}  {result.dram_bandwidth_gb_per_s():15.2f}  "
            f"{result.dram_row_hit_rate * 100:6.1f}%  {result.failing_cores()}"
        )

    # Larger delta -> more row-buffer hits.
    assert results[6].dram_row_hit_rate > results[0].dram_row_hit_rate
    # The paper's delta = 6 keeps every core at its target.
    assert results[6].failing_cores() == []
    # And buys bandwidth relative to the delta = 0 (pure Policy 1) setting.
    assert (
        results[6].dram_bandwidth_bytes_per_s
        >= results[0].dram_bandwidth_bytes_per_s
    )
