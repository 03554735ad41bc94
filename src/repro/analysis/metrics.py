"""Metrics derived from experiment results.

These helpers encode the success criteria the paper states in prose: whether
every core met its target (NPI >= 1 throughout), how long a core spent below
target, and how the policies order in delivered DRAM bandwidth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only import: the metrics run no simulator
    from repro.system.experiment import ExperimentResult


def qos_satisfied(
    result: ExperimentResult,
    cores: Optional[Iterable[str]] = None,
    threshold: float = 1.0,
) -> bool:
    """True when every (selected) core kept its NPI at or above the threshold."""
    selected = list(cores) if cores is not None else list(result.min_core_npi)
    return all(result.min_core_npi.get(core, 0.0) >= threshold for core in selected)


def fraction_of_time_failing(
    result: ExperimentResult, core: str, threshold: float = 1.0
) -> float:
    """Fraction of NPI samples during which a core was below its target."""
    series = result.npi_series(core)
    return series.fraction_below(threshold)


def bandwidth_ordering(results: Mapping[str, ExperimentResult]) -> List[str]:
    """Policy names sorted by increasing delivered DRAM bandwidth (Fig. 8)."""
    return sorted(results, key=lambda policy: results[policy].dram_bandwidth_bytes_per_s)


def bandwidth_gain(
    results: Mapping[str, ExperimentResult], better: str, worse: str
) -> float:
    """Relative bandwidth advantage of one policy over another (e.g. 0.24 = +24 %)."""
    if better not in results or worse not in results:
        raise KeyError("both policies must be present in the result mapping")
    baseline = results[worse].dram_bandwidth_bytes_per_s
    if baseline <= 0:
        raise ValueError(f"policy '{worse}' delivered no bandwidth")
    return results[better].dram_bandwidth_bytes_per_s / baseline - 1.0


def priority_distribution_table(
    results: Mapping[float, ExperimentResult], dma_name: str
) -> Dict[float, Dict[int, float]]:
    """Frequency -> (priority level -> fraction of time) for one DMA (Fig. 7)."""
    table: Dict[float, Dict[int, float]] = {}
    for freq, result in results.items():
        if dma_name not in result.priority_distributions:
            raise KeyError(f"no priority distribution recorded for DMA '{dma_name}'")
        table[freq] = dict(result.priority_distributions[dma_name])
    return table


def mean_priority(distribution: Mapping[int, float]) -> float:
    """Time-weighted mean priority level of one distribution row."""
    total = sum(distribution.values())
    if total <= 0:
        return 0.0
    return sum(level * share for level, share in distribution.items()) / total
