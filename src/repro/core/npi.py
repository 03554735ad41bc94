"""Distributed performance meters producing Normalized Performance Indicators.

Every DMA carries exactly one meter.  A meter observes the DMA's completed
transactions (bytes moved and end-to-end latency) and reduces them to the
paper's NPI metric: a fractional number that is at least 1.0 while the core's
own QoS target is met and drops below 1.0 as the core falls behind.

The five meter types correspond to the target-performance types of Table 2:

===================  =====================================================
Meter                Cores (Table 2)
===================  =====================================================
frame progress       GPU, image processor, video codec, rotator, JPEG
latency              DSP, audio
bandwidth            WiFi, USB (and the best-effort CPU)
buffer occupancy     display, camera
processing time      GPS, modem
===================  =====================================================
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.sim.clock import MS, NS
from repro.sim.stats import WindowedRate

#: Reported NPI values are clamped into this range, mirroring the log-scale
#: axis (0.1 .. 10) the paper uses in Figs. 5, 6 and 9.
NPI_CAP = 10.0
NPI_FLOOR = 0.01

#: Default sliding window over which rate- and latency-style meters average.
DEFAULT_WINDOW_PS = 2 * MS


def _clamp_npi(value: float) -> float:
    return max(NPI_FLOOR, min(NPI_CAP, value))


class PerformanceMeter(abc.ABC):
    """Base class for per-DMA performance meters."""

    #: Whether this meter expresses a frame-rate (real-time media) target.
    #: The frame-rate-based QoS baseline only adapts cores of this kind.
    is_frame_based = False

    def __init__(self) -> None:
        self.completed_bytes = 0
        self.completed_transactions = 0

    def record_completion(self, size_bytes: int, latency_ps: int, now_ps: int) -> None:
        """Feed one completed transaction into the meter."""
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if latency_ps < 0:
            raise ValueError("latency_ps must be non-negative")
        self.completed_bytes += size_bytes
        self.completed_transactions += 1
        self._record(size_bytes, latency_ps, now_ps)

    def npi(self, now_ps: int) -> float:
        """The clamped NPI at the current time (>= 1.0 means target met)."""
        return _clamp_npi(self.raw_npi(now_ps))

    @abc.abstractmethod
    def raw_npi(self, now_ps: int) -> float:
        """The unclamped NPI value."""

    @abc.abstractmethod
    def describe_target(self) -> str:
        """Human-readable description of the QoS target."""

    @abc.abstractmethod
    def _record(self, size_bytes: int, latency_ps: int, now_ps: int) -> None:
        """Meter-specific bookkeeping for a completed transaction."""

    @staticmethod
    def _effective_window_ps(window_ps: int, now_ps: int) -> int:
        """Shrink the averaging window at the very start of a run."""
        return max(1, min(window_ps, now_ps)) if now_ps > 0 else 1


class LatencyMeter(PerformanceMeter):
    """Average-latency meter (Eqn. 1): NPI = latency limit / average latency."""

    def __init__(self, limit_ps: int, window_ps: int = DEFAULT_WINDOW_PS) -> None:
        super().__init__()
        if limit_ps <= 0:
            raise ValueError("latency limit must be positive")
        if window_ps <= 0:
            raise ValueError("window must be positive")
        self.limit_ps = limit_ps
        self.window_ps = window_ps
        self._latencies = WindowedRate(window_ps)

    def _record(self, size_bytes: int, latency_ps: int, now_ps: int) -> None:
        self._latencies.add(now_ps, latency_ps)

    def raw_npi(self, now_ps: int) -> float:
        average = self._latencies.window_mean(now_ps)
        if average <= 0:
            # No recent transactions: nothing is being delayed, so the core is
            # healthy by definition.
            return NPI_CAP
        return self.limit_ps / average

    def average_latency_ps(self, now_ps: int) -> float:
        return self._latencies.window_mean(now_ps)

    def describe_target(self) -> str:
        return f"average latency <= {self.limit_ps / NS:.0f} ns"


class BandwidthMeter(PerformanceMeter):
    """Average-bandwidth meter: NPI = achieved bandwidth / target bandwidth."""

    def __init__(
        self, target_bytes_per_s: float, window_ps: int = DEFAULT_WINDOW_PS
    ) -> None:
        super().__init__()
        if target_bytes_per_s <= 0:
            raise ValueError("target bandwidth must be positive")
        if window_ps <= 0:
            raise ValueError("window must be positive")
        self.target_bytes_per_s = target_bytes_per_s
        self.window_ps = window_ps
        self._bytes = WindowedRate(window_ps)

    def _record(self, size_bytes: int, latency_ps: int, now_ps: int) -> None:
        self._bytes.add(now_ps, size_bytes)

    def achieved_bytes_per_s(self, now_ps: int) -> float:
        window = self._effective_window_ps(self.window_ps, now_ps)
        return self._bytes.window_total(now_ps) / (window / 1e12)

    def raw_npi(self, now_ps: int) -> float:
        return self.achieved_bytes_per_s(now_ps) / self.target_bytes_per_s

    def describe_target(self) -> str:
        return f"bandwidth >= {self.target_bytes_per_s / 1e6:.0f} MB/s"


class FrameProgressMeter(PerformanceMeter):
    """Frame-progress meter (Eqn. 2): NPI = frame progress / reference progress.

    Frame progress is the fraction of the current frame's data already
    transferred; the reference progress grows linearly from 0 to 1 across the
    frame period, so the NPI stays above 1 exactly while the core is on track
    to finish its frame before the deadline.
    """

    is_frame_based = True

    def __init__(
        self,
        bytes_per_frame: int,
        frame_period_ps: int,
        start_offset_ps: int = 0,
        epsilon: float = 0.02,
    ) -> None:
        super().__init__()
        if bytes_per_frame <= 0:
            raise ValueError("bytes_per_frame must be positive")
        if frame_period_ps <= 0:
            raise ValueError("frame_period_ps must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        self.bytes_per_frame = bytes_per_frame
        self.frame_period_ps = frame_period_ps
        self.start_offset_ps = start_offset_ps
        self.epsilon = epsilon
        self._frame_index = 0
        self._frame_bytes = 0
        # End of the current frame; the hot-path roll check is a single
        # integer compare against this instead of a floordiv per call.
        self._frame_end_ps = start_offset_ps + frame_period_ps
        self.frames_completed = 0
        self.frames_missed = 0

    def _frame_of(self, now_ps: int) -> int:
        return max(0, (now_ps - self.start_offset_ps) // self.frame_period_ps)

    def _roll_frame(self, now_ps: int) -> None:
        if now_ps < self._frame_end_ps:
            return
        frame = self._frame_of(now_ps)
        if frame != self._frame_index:
            if self._frame_bytes >= self.bytes_per_frame:
                self.frames_completed += 1
            else:
                self.frames_missed += 1
            self._frame_index = frame
            self._frame_bytes = 0
        self._frame_end_ps = self.start_offset_ps + (frame + 1) * self.frame_period_ps

    def _record(self, size_bytes: int, latency_ps: int, now_ps: int) -> None:
        self._roll_frame(now_ps)
        self._frame_bytes += size_bytes

    def frame_progress(self, now_ps: int) -> float:
        """Fraction of the current frame's data already transferred."""
        self._roll_frame(now_ps)
        return min(1.0, self._frame_bytes / self.bytes_per_frame)

    def reference_progress(self, now_ps: int) -> float:
        """The linearly growing reference the progress is compared against."""
        self._roll_frame(now_ps)
        elapsed = (now_ps - self.start_offset_ps) - self._frame_index * self.frame_period_ps
        return min(1.0, max(0.0, elapsed / self.frame_period_ps))

    def raw_npi(self, now_ps: int) -> float:
        # One roll, then both terms computed with the exact arithmetic of
        # frame_progress / reference_progress (results are bit-identical;
        # this just avoids rolling and dispatching twice per reading).
        self._roll_frame(now_ps)
        progress = min(1.0, self._frame_bytes / self.bytes_per_frame)
        elapsed = (now_ps - self.start_offset_ps) - self._frame_index * self.frame_period_ps
        reference = min(1.0, max(0.0, elapsed / self.frame_period_ps))
        return (progress + self.epsilon) / (reference + self.epsilon)

    def describe_target(self) -> str:
        fps = 1e12 / self.frame_period_ps
        return f"frame rate {fps:.0f} fps ({self.bytes_per_frame} B/frame)"


class BufferOccupancyMeter(PerformanceMeter):
    """Buffer-occupancy meter (Eqn. 3): NPI = refill rate / drain rate.

    Models the display read buffer (drained by the panel at a constant rate,
    refilled by the DMA from DRAM) and, symmetrically, the camera write buffer
    (filled by the sensor, drained towards DRAM).  The NPI compares how fast
    the DMA is actually moving data against the externally imposed rate; the
    simulated occupancy level and underrun count are tracked for reporting.
    """

    def __init__(
        self,
        rate_bytes_per_s: float,
        buffer_bytes: int = 2 * 1024 * 1024,
        initial_fraction: float = 0.5,
        window_ps: int = DEFAULT_WINDOW_PS,
    ) -> None:
        super().__init__()
        if rate_bytes_per_s <= 0:
            raise ValueError("rate must be positive")
        if buffer_bytes <= 0:
            raise ValueError("buffer size must be positive")
        if not 0 <= initial_fraction <= 1:
            raise ValueError("initial_fraction must be within [0, 1]")
        if window_ps <= 0:
            raise ValueError("window must be positive")
        self.rate_bytes_per_s = rate_bytes_per_s
        self.buffer_bytes = buffer_bytes
        self.initial_occupancy = initial_fraction * buffer_bytes
        self.window_ps = window_ps
        self._refills = WindowedRate(window_ps)
        self._occupancy = self.initial_occupancy
        self._last_update_ps = 0
        self.underruns = 0

    def _drain(self, now_ps: int) -> None:
        elapsed = now_ps - self._last_update_ps
        if elapsed <= 0:
            return
        drained = self.rate_bytes_per_s * (elapsed / 1e12)
        before = self._occupancy
        self._occupancy = max(0.0, self._occupancy - drained)
        if before > 0 and self._occupancy == 0.0:
            self.underruns += 1
        self._last_update_ps = now_ps

    def _record(self, size_bytes: int, latency_ps: int, now_ps: int) -> None:
        self._drain(now_ps)
        self._refills.add(now_ps, size_bytes)
        self._occupancy = min(self.buffer_bytes, self._occupancy + size_bytes)

    def occupancy_fraction(self, now_ps: int) -> float:
        self._drain(now_ps)
        return self._occupancy / self.buffer_bytes

    def raw_npi(self, now_ps: int) -> float:
        self._drain(now_ps)
        window = self._effective_window_ps(self.window_ps, now_ps)
        refill_rate = self._refills.window_total(now_ps) / (window / 1e12)
        return refill_rate / self.rate_bytes_per_s

    def describe_target(self) -> str:
        return (
            f"sustain {self.rate_bytes_per_s / 1e6:.0f} MB/s without "
            f"draining the {self.buffer_bytes // 1024} KiB buffer"
        )


class ProcessingTimeMeter(PerformanceMeter):
    """Processing-time meter (GPS, modem).

    A batch of data arrives every processing window and must be fully
    transferred before the window ends.  The NPI compares the fraction of the
    batch already moved against the fraction of the window already elapsed —
    the same construction as frame progress, but on the core's own processing
    deadline rather than the display frame rate.
    """

    def __init__(
        self,
        bytes_per_window: int,
        window_ps: int,
        epsilon: float = 0.02,
    ) -> None:
        super().__init__()
        if bytes_per_window <= 0:
            raise ValueError("bytes_per_window must be positive")
        if window_ps <= 0:
            raise ValueError("window_ps must be positive")
        self._progress = FrameProgressMeter(
            bytes_per_frame=bytes_per_window,
            frame_period_ps=window_ps,
            epsilon=epsilon,
        )
        self.window_ps = window_ps
        self.bytes_per_window = bytes_per_window

    def _record(self, size_bytes: int, latency_ps: int, now_ps: int) -> None:
        self._progress.record_completion(size_bytes, latency_ps, now_ps)

    def raw_npi(self, now_ps: int) -> float:
        return self._progress.raw_npi(now_ps)

    @property
    def windows_missed(self) -> int:
        return self._progress.frames_missed

    def describe_target(self) -> str:
        return (
            f"process {self.bytes_per_window} B within every "
            f"{self.window_ps / MS:.1f} ms window"
        )


def make_meter(
    meter_type: str,
    average_bytes_per_s: float,
    frame_period_ps: int,
    target_bytes_per_s: Optional[float] = None,
    latency_limit_ns: Optional[float] = None,
    window_ps: Optional[int] = None,
) -> PerformanceMeter:
    """Factory building the right meter for a DMA specification.

    ``average_bytes_per_s`` is the DMA's offered traffic rate; frame-progress,
    occupancy and processing-time targets are derived from it unless an
    explicit ``target_bytes_per_s`` is given.
    """
    if average_bytes_per_s <= 0:
        raise ValueError("average_bytes_per_s must be positive")
    target = target_bytes_per_s or average_bytes_per_s
    if meter_type == "latency":
        if latency_limit_ns is None:
            raise ValueError("latency meter requires latency_limit_ns")
        return LatencyMeter(limit_ps=round(latency_limit_ns * NS))
    if meter_type == "bandwidth":
        return BandwidthMeter(target_bytes_per_s=target)
    if meter_type == "frame_progress":
        bytes_per_frame = max(1, round(target * frame_period_ps / 1e12))
        return FrameProgressMeter(
            bytes_per_frame=bytes_per_frame, frame_period_ps=frame_period_ps
        )
    if meter_type == "occupancy":
        return BufferOccupancyMeter(rate_bytes_per_s=target)
    if meter_type == "processing_time":
        period = window_ps or frame_period_ps
        bytes_per_window = max(1, round(target * period / 1e12))
        return ProcessingTimeMeter(bytes_per_window=bytes_per_window, window_ps=period)
    raise ValueError(f"unknown meter type '{meter_type}'")
