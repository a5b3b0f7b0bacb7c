"""Virtual ion-trap machine layer.

* :mod:`repro.trap.faults` — Table I taxonomy and coupling-fault specs.
* :mod:`repro.trap.calibration` — per-coupling calibration registry.
* :mod:`repro.trap.machine` — the :class:`VirtualIonTrap` backend.
* :mod:`repro.trap.round` — compiled tests and round plans.
* :mod:`repro.trap.timing` — operation timing model (Fig. 10 constants).
* :mod:`repro.trap.duty_cycle` — duty-cycle accounting (Fig. 2).
"""

from .calibration import CalibrationState, all_pairs
from .duty_cycle import DutyCycleBreakdown, improved_duty_cycle
from .faults import (
    TABLE_I,
    CouplingFault,
    CouplingPhaseFault,
    Determinism,
    FaultClass,
    TimeScale,
    Unitarity,
    classify_fault,
)
from .machine import MachineStats, TestProgram, VirtualIonTrap
from .timing import TimingModel

__all__ = [
    "CalibrationState",
    "all_pairs",
    "DutyCycleBreakdown",
    "improved_duty_cycle",
    "TABLE_I",
    "CouplingFault",
    "CouplingPhaseFault",
    "Determinism",
    "FaultClass",
    "TimeScale",
    "Unitarity",
    "classify_fault",
    "MachineStats",
    "VirtualIonTrap",
    "TestProgram",
    "TimingModel",
]
