"""DVFS study: priority adaptation versus DRAM frequency (Fig. 7 analogue).

Sweeps the DRAM I/O frequency from 1700 MHz down to 1300 MHz while running
test case A under the SARA priority policy, and prints how much of its time
the image processor spends at each priority level.  As frequency drops and
memory contention grows, the distribution should shift toward the higher
priority levels — the self-adaptation the paper shows in Fig. 7.

The sweep goes through the orchestrator, so the frequency points fan out
across worker processes and a rerun served from the result cache finishes in
milliseconds.

Run with:  python examples/dram_frequency_sweep.py [--jobs 3] \
    [--cache-dir .repro-cache]
"""

from __future__ import annotations

import argparse

from repro.campaign import format_points_table, priority_residency_md
from repro.runner import frequency_sweep_specs, run_sweep
from repro.sim.clock import MS

FREQUENCIES_MHZ = [1700.0, 1500.0, 1300.0]
DMA = "image_processor.read"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sweep"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="on-disk result cache (omit to disable)"
    )
    args = parser.parse_args()

    specs = frequency_sweep_specs(
        FREQUENCIES_MHZ,
        scenario="case_a",
        policy="priority_qos",
        duration_ps=8 * MS,
        traffic_scale=0.9,
    )
    ordered, stats = run_sweep(specs, jobs=args.jobs, cache_dir=args.cache_dir)
    results = dict(zip(FREQUENCIES_MHZ, ordered))
    print(stats.summary())
    print()

    print(f"Time share per priority level for {DMA} (Fig. 7 analogue)\n")
    print(priority_residency_md(results, DMA))
    print()
    print("Image processor NPI per frequency\n")
    print(
        format_points_table(
            {f"{freq:.0f} MHz": result for freq, result in results.items()},
            ("min_npi", "mean_npi"),
            ["image_processor"],
        )
    )


if __name__ == "__main__":
    main()
