"""repro: reproduction of "Detecting Qubit-coupling Faults in Ion-trap
Quantum Computers" (Maksymov, Nguyen, Chaplin, Nam, Markov -- HPCA 2022).

Public API tour
---------------
Build a virtual machine, inject a fault, diagnose it::

    from repro import VirtualIonTrap, CouplingFault, NoiseParameters
    from repro import SingleFaultProtocol, TestExecutor

    machine = VirtualIonTrap(8, noise=NoiseParameters.paper_scaling(), seed=1)
    machine.inject_fault(CouplingFault(frozenset({2, 6}), under_rotation=0.4))
    executor = TestExecutor(machine, shots=300)
    diagnosis = SingleFaultProtocol(8).diagnose(executor)
    assert diagnosis.identified == frozenset({2, 6})

Sub-packages
------------
* :mod:`repro.core` -- the fault-testing protocols (the contribution).
* :mod:`repro.sim` -- statevector + fast-XX simulation engines.
* :mod:`repro.noise` -- error models (amplitude, 1/f phase, SPAM, drift).
* :mod:`repro.trap` -- the virtual machine, calibration, timing, duty cycle.
* :mod:`repro.circuits` -- application circuits and coupling usage.
* :mod:`repro.scenarios` -- the declarative fault-scenario taxonomy and
  the matrix report behind ``python -m repro scenarios``.
* :mod:`repro.arena` -- the diagnoser tournament: every strategy behind
  one ``diagnose(machine, budget)`` interface, timeout-bounded scoring,
  and the leaderboard report behind ``python -m repro arena``.
* :mod:`repro.fleet` -- the fleet-over-time simulator: drifting
  fault-injected traps under pluggable maintenance policies, with the
  policy sweep behind ``python -m repro fleet``.
* :mod:`repro.exec` -- the resilient execution layer: supervised worker
  pool with retries and per-attempt timeouts, the crash-safe sweep
  journal behind ``--resume``, cache-integrity checking with
  quarantine, and the deterministic chaos injector behind
  ``python -m repro chaos``.
* :mod:`repro.analysis` -- thresholds, reporting, per-figure experiments,
  and the unified experiment runner behind ``python -m repro``.

Command line
------------
Every paper figure/table is runnable through one CLI::

    python -m repro list
    python -m repro run fig3 --smoke

See README.md for the experiment table and EXPERIMENTS.md for full-size
vs ``--smoke`` parameters.
"""

from .core import (
    AdaptiveBinarySearch,
    CostTracker,
    FixedThresholds,
    MagnitudeSearchConfig,
    MultiFaultProtocol,
    OracleExecutor,
    PointCheckStrategy,
    SingleFaultProtocol,
    Syndrome,
    TestExecutor,
    TestSpec,
)
from .noise import (
    CalibrationDriftProcess,
    CompositeUnderRotationDistribution,
    NoiseParameters,
    SpamModel,
)
from .scenarios import (
    SCENARIO_KINDS,
    ScenarioFault,
    ScenarioSpec,
    build_scenario,
    default_scenarios,
)
from .arena import (
    Diagnosis,
    DiagnoserContext,
    TimeBudget,
    build_diagnoser,
    default_diagnosers,
    run_bounded,
)
from .fleet import (
    EventLoop,
    FleetTrap,
    MaintenancePolicy,
    POLICY_NAMES,
    RepairModel,
    build_policy,
    plan_repairs,
    simulate_policy,
)
from .sim import Circuit, StatevectorSimulator
from .trap import (
    CouplingFault,
    CouplingPhaseFault,
    DutyCycleBreakdown,
    TimingModel,
    VirtualIonTrap,
)

__version__ = "1.12.0"

__all__ = [
    "AdaptiveBinarySearch",
    "CostTracker",
    "FixedThresholds",
    "MagnitudeSearchConfig",
    "MultiFaultProtocol",
    "OracleExecutor",
    "PointCheckStrategy",
    "SingleFaultProtocol",
    "Syndrome",
    "TestExecutor",
    "TestSpec",
    "CalibrationDriftProcess",
    "CompositeUnderRotationDistribution",
    "NoiseParameters",
    "SpamModel",
    "SCENARIO_KINDS",
    "ScenarioFault",
    "ScenarioSpec",
    "build_scenario",
    "default_scenarios",
    "Diagnosis",
    "DiagnoserContext",
    "TimeBudget",
    "build_diagnoser",
    "default_diagnosers",
    "run_bounded",
    "EventLoop",
    "FleetTrap",
    "MaintenancePolicy",
    "POLICY_NAMES",
    "RepairModel",
    "build_policy",
    "plan_repairs",
    "simulate_policy",
    "Circuit",
    "StatevectorSimulator",
    "CouplingFault",
    "CouplingPhaseFault",
    "DutyCycleBreakdown",
    "TimingModel",
    "VirtualIonTrap",
    "__version__",
]
