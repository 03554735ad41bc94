"""Compare paired benchmark runs of a parent commit and a change.

Usage (from the repository root)::

    python3 benchmarks/bench/compare.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ...

Each file is what one ``run.py --json PATH`` run wrote.  Run the two sides
alternately with the same ``--seconds``, give pair i one ``--seed`` on
both sides, and list the files so that ``--parent`` file i and
``--change`` file i form pair i.  For every
workload both sides ran and every end-to-end metric of BENCHMARK.json, one
row shows each side's median and quartiles over its runs' medians, the
share of pairs the change wins (ties count for neither side), and a
verdict against the metric's bound:

* ``unresolved`` -- the parent's own spread (q3 - q1 over its median) is
  wider than the bound, and the runs do not separate completely;
* ``worse`` -- the change's median is worse than the parent's by more than
  the bound, or every change run is worse than every parent run when the
  spread is too wide to judge otherwise;
* ``better`` -- the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance, or every
  change run is better than every parent run;
* ``unchanged`` -- otherwise.

A workload whose ``results_digest`` or ``campaign.checks_failed`` differs
between the sides is flagged: a change meant only to be faster must not
move them.  The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from run import ROOT, quartiles


def verdict(parent: List[float], change: List[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_mid, p_q3 = quartiles(parent)
    c_mid = statistics.median(change)
    # Positive means the change is worse, as a share of the parent's median.
    worsening = sign * (c_mid - p_mid) / p_mid
    all_better = max(sign * value for value in change) < min(sign * value for value in parent)
    all_worse = min(sign * value for value in change) > max(sign * value for value in parent)
    if (p_q3 - p_q1) / p_mid > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if worsening > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    if wins >= 0.9 * len(pairs) and abs(c_mid - p_mid) > p_q3 - p_q1:
        return "better"
    if all_better:
        return "better"
    return "unchanged"


def load_runs(paths: List[str]) -> List[Dict[str, Any]]:
    return [json.loads(Path(path).read_text())["workloads"] for path in paths]


def paired_runs(parent: List[Dict[str, Any]], change: List[Dict[str, Any]],
                workload: str) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """(parent record, change record) of each pair whose two runs both ran
    ``workload``; a run that lacks it drops its pair, not just itself."""
    return [
        (p_run[workload], c_run[workload])
        for p_run, c_run in zip(parent, change)
        if workload in p_run and workload in c_run
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="run.py --json files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="run.py --json files of the change")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    print(
        f"{'workload':<20} {'metric':<12} {'parent median [q1, q3]':<30} "
        f"{'change median [q1, q3]':<30} {'wins':<7} verdict"
    )
    any_worse = False
    for workload in [entry["name"] for entry in benchmark["workloads"]]:
        pairs = paired_runs(parent, change, workload)
        if not pairs:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p_values = [p_record["metrics"][name]["median"] for p_record, _ in pairs]
            c_values = [c_record["metrics"][name]["median"] for _, c_record in pairs]
            p_q1, p_mid, p_q3 = quartiles(p_values)
            c_q1, c_mid, c_q3 = quartiles(c_values)
            lower = metric["better"] == "lower"
            wins = sum(1 for p, c in zip(p_values, c_values) if (c < p if lower else c > p))
            result = verdict(p_values, c_values, metric["bound"], lower)
            any_worse |= result == "worse"
            print(
                f"{workload:<20} {name:<12} "
                f"{f'{p_mid:.4g} [{p_q1:.4g}, {p_q3:.4g}]':<30} "
                f"{f'{c_mid:.4g} [{c_q1:.4g}, {c_q3:.4g}]':<30} "
                f"{f'{wins}/{len(pairs)}':<7} {result}"
            )
        for key in ("results_digest", "checks_failed"):
            differing = sum(1 for p_record, c_record in pairs if p_record[key] != c_record[key])
            if differing:
                print(f"{workload}: {key} differs in {differing} pair(s)")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
