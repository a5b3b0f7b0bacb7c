"""Fleet-over-time simulation: the Fig. 2 uptime claim under operations.

The paper's economics argument (Figs. 2 and 10) says faster coupling
diagnosis converts directly into fleet uptime.  This package pressure-
tests that claim in a seeded discrete-event simulation: virtual traps
drift, suffer scenario faults and serve client jobs while pluggable
maintenance policies — periodic full recalibration, threshold-triggered
probing, the paper's battery, per-coupling point checks and adaptive
search — schedule real diagnosis episodes through the arena's
``diagnose(machine, budget)`` protocol.  The robustness core is the
failure path: misdiagnoses repair the wrong coupling, repairs fail and
retry with backoff, and unfixable couplings are quarantined so traps
degrade gracefully instead of going dark.

Layout:

* :mod:`~repro.fleet.events` — deterministic ``heapq`` event loop.
* :mod:`~repro.fleet.traps` — per-trap drift + fault + quarantine state.
* :mod:`~repro.fleet.repair` — the stochastic repair model.
* :mod:`~repro.fleet.policies` — the five maintenance policies.
* :mod:`~repro.fleet.simulator` — one policy over the whole window.
* :mod:`~repro.fleet.report` — ``FLEET_<label>.json`` schema + checks.
"""

from .events import EventLoop
from .policies import (
    POLICY_NAMES,
    EpisodeOutcome,
    MaintenancePolicy,
    PolicyContext,
    build_policy,
)
from .repair import RepairAction, RepairModel, plan_repairs
from .report import (
    FLEET_SCHEMA_ID,
    fleet_leaderboard,
    fleet_payload,
    validate_fleet_payload,
)
from .simulator import derive_check_interval, simulate_policy
from .traps import TRAP_STATES, FaultRecord, FleetTrap, build_trap

__all__ = [
    "EventLoop",
    "EpisodeOutcome",
    "FLEET_SCHEMA_ID",
    "FaultRecord",
    "FleetTrap",
    "MaintenancePolicy",
    "POLICY_NAMES",
    "PolicyContext",
    "RepairAction",
    "RepairModel",
    "TRAP_STATES",
    "build_policy",
    "build_trap",
    "derive_check_interval",
    "fleet_leaderboard",
    "fleet_payload",
    "plan_repairs",
    "simulate_policy",
    "validate_fleet_payload",
]
