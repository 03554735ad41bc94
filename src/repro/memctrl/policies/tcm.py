"""TCM-style clustered scheduling (Kim et al., MICRO 2010), simplified.

Thread Cluster Memory scheduling splits the request sources into a
latency-sensitive cluster (low bandwidth demand) and a bandwidth-intensive
cluster, always prioritises the former, and shuffles the ranking inside the
bandwidth cluster to spread interference.  This reproduction keeps the
structure — per-epoch bandwidth accounting, clustering by share of total
demand, strict preference for the light cluster, rotating rank in the heavy
cluster — while dropping the niceness metric of the original, which needs
per-thread row-locality statistics that do not exist for fixed-function DMAs.

Like ATLAS it is a CPU-centric baseline: clustering by bandwidth intensity
helps the DSP and GPS, but the display (high bandwidth *and* hard QoS) lands
in the bandwidth cluster and still misses its target under contention.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Set

from repro.memctrl.scheduler import SchedulingContext, SchedulingPolicy
from repro.memctrl.transaction import Transaction


class TcmPolicy(SchedulingPolicy):
    """Two-cluster scheduling: latency-sensitive sources first."""

    name = "tcm"

    def __init__(
        self,
        epoch_ps: int = 10_000_000,
        light_cluster_share: float = 0.15,
    ) -> None:
        if epoch_ps <= 0:
            raise ValueError("epoch_ps must be positive")
        if not 0.0 < light_cluster_share < 1.0:
            raise ValueError("light_cluster_share must be within (0, 1)")
        self.epoch_ps = epoch_ps
        self.light_cluster_share = light_cluster_share
        self._epoch_bytes: Dict[str, int] = {}
        self._light_cluster: Set[str] = set()
        self._epoch_start_ps = 0
        self._epoch_index = 0
        self._rank_offset = 0

    # ------------------------------------------------------------------ #
    # Clustering
    # ------------------------------------------------------------------ #
    def _roll_epoch(self, now_ps: int) -> None:
        while now_ps - self._epoch_start_ps >= self.epoch_ps:
            self._epoch_start_ps += self.epoch_ps
            self._epoch_index += 1
            self._recluster()
            self._epoch_bytes.clear()
            # Rotate the heavy-cluster ranking every epoch (TCM's shuffling).
            self._rank_offset = self._epoch_index

    def _recluster(self) -> None:
        """Sources consuming the smallest share of traffic form the light cluster."""
        total = sum(self._epoch_bytes.values())
        if total <= 0:
            self._light_cluster = set()
            return
        threshold = total * self.light_cluster_share
        light: Set[str] = set()
        consumed = 0
        for source, amount in sorted(self._epoch_bytes.items(), key=lambda item: item[1]):
            if consumed + amount > threshold:
                break
            light.add(source)
            consumed += amount
        self._light_cluster = light

    def is_latency_sensitive(self, dma: str) -> bool:
        """Whether a DMA is currently classified into the light cluster."""
        return dma in self._light_cluster

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def _heavy_rank(self, dma: str) -> int:
        """Deterministic per-epoch rotation of heavy-cluster sources.

        CRC-32 rather than ``hash()``: Python salts string hashes per
        process, which would make the ranking — and every TCM result —
        differ between a sweep's worker processes and between runs.
        """
        return (zlib.crc32(dma.encode()) + self._rank_offset) % 1024

    def select(
        self, candidates: List[Transaction], context: SchedulingContext
    ) -> Transaction:
        self._check_candidates(candidates)
        self._roll_epoch(context.now_ps)
        light = [t for t in candidates if t.dma in self._light_cluster]
        if light:
            chosen = self.oldest(light)
        else:
            chosen = min(
                candidates,
                key=lambda t: (
                    self._heavy_rank(t.dma),
                    t.enqueued_ps if t.enqueued_ps is not None else t.created_ps,
                    t.uid,
                ),
            )
        self._epoch_bytes[chosen.dma] = (
            self._epoch_bytes.get(chosen.dma, 0) + chosen.size_bytes
        )
        return chosen
