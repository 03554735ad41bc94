"""Discrete-event simulation kernel used by every substrate in the package.

The kernel is deliberately small: an event queue ordered by integer
picosecond timestamps (:mod:`repro.sim.engine`), helpers to convert between
clock frequencies and simulated time (:mod:`repro.sim.clock`), statistics and
time-series recording (:mod:`repro.sim.stats`, :mod:`repro.sim.trace`),
deterministic random-stream derivation (:mod:`repro.sim.random`) and the
configuration dataclasses that describe a simulated platform
(:mod:`repro.sim.config`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "clock": ("Clock", "MS", "NS", "PS", "SECOND", "US"),
        "config": (
            "DramConfig",
            "DramTimingConfig",
            "MemoryControllerConfig",
            "NocConfig",
            "SimulationConfig",
        ),
        "engine": ("Engine", "Event"),
        "random": ("derive_rng", "derive_seed"),
        "stats": ("Counter", "Histogram", "RunningMean", "WindowedRate"),
        "trace": ("TimeSeries", "TraceRecorder"),
    },
)
