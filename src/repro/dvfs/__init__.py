"""Dynamic voltage and frequency scaling (DVFS) for the DRAM subsystem.

Fig. 7 of the paper sweeps the DRAM frequency statically from 1700 MHz down
to 1300 MHz and shows SARA's priority adaptation absorbing the lost bandwidth
by escalating priorities.  This subpackage closes the loop the paper leaves
open: it adds runtime *governors* that pick the DRAM operating point while
the workload runs, including a SARA-aware governor that listens to the same
priority signals the memory system already receives.

* :mod:`repro.dvfs.opp` — operating-performance-point tables (frequency /
  voltage pairs).
* :mod:`repro.dvfs.governor` — governor policies (performance, powersave,
  static, ondemand, conservative, and the SARA priority-pressure governor).
* :mod:`repro.dvfs.controller` — the periodic controller that samples the
  system and re-clocks the DRAM device.
* :mod:`repro.dvfs.experiment` — a runner that wires a governor into a full
  camcorder experiment and reports QoS, residency and energy together.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "controller": ("DvfsController",),
        "experiment": ("DvfsResult", "run_with_governor"),
        "governor": (
            "ConservativeGovernor",
            "Governor",
            "GovernorSample",
            "OndemandGovernor",
            "PerformanceGovernor",
            "PowersaveGovernor",
            "PriorityPressureGovernor",
            "StaticGovernor",
            "make_governor",
        ),
        "opp": ("OperatingPoint", "OppTable"),
    },
)
