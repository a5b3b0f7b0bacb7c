"""Per-coupling calibration state of the machine.

Every pair of qubits has its own MS-gate calibration; this registry tracks
each coupling's current *under-rotation* (fractional amplitude error, the
dominant deterministic unitary fault of Sec. III) and, since the
fault-scenario taxonomy, its *drive-phase offset* (a phase-miscalibrated
MS gate, which forces the dense simulation path).  The drift process of
:mod:`repro.noise.drift` writes snapshots into it; recalibration zeroes
individual entries; the protocols read it only through the machine's
measurement statistics, never directly.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .faults import CouplingFault, CouplingPhaseFault, Pair

__all__ = ["CalibrationState", "all_pairs"]


def all_pairs(n_qubits: int) -> list[Pair]:
    """All C(N, 2) couplings of an ``n_qubits`` machine, sorted."""
    return [frozenset(p) for p in combinations(range(n_qubits), 2)]


class CalibrationState:
    """Mutable per-coupling under-rotations and drive-phase offsets.

    Both live in symmetric ``(N, N)`` float arrays with a zero diagonal,
    :attr:`under_rotations` and :attr:`phase_offsets`, so a compiled test
    gathers all its couplings' values in one indexing step.  Read the
    arrays freely; write through the setters, which validate the coupling
    and the value and keep both triangles equal.

    Parameters
    ----------
    n_qubits:
        Machine size; couplings default to perfectly calibrated (0.0).
    """

    def __init__(self, n_qubits: int):
        if n_qubits < 2:
            raise ValueError("a machine needs at least two qubits")
        self.n_qubits = n_qubits
        #: Each coupling's ``(i, j)`` array index, ``i < j``, sorted.
        self._index = {
            frozenset(p): p for p in combinations(range(n_qubits), 2)
        }
        self.under_rotations = np.zeros((n_qubits, n_qubits))
        self.phase_offsets = np.zeros((n_qubits, n_qubits))

    # -- access -----------------------------------------------------------------

    def under_rotation(self, pair: Pair | tuple[int, int]) -> float:
        """Current fractional under-rotation of one coupling."""
        return float(self.under_rotations[self._key(pair)])

    def set_under_rotation(
        self, pair: Pair | tuple[int, int], value: float
    ) -> None:
        """Pin one coupling's under-rotation to ``value``."""
        if not -1.0 <= value <= 1.0:
            raise ValueError("under_rotation outside [-1, 1]")
        self._set(self.under_rotations, pair, value)

    def phase_offset(self, pair: Pair | tuple[int, int]) -> float:
        """Current MS drive-phase miscalibration of one coupling (radians)."""
        return float(self.phase_offsets[self._key(pair)])

    def set_phase_offset(
        self, pair: Pair | tuple[int, int], value: float
    ) -> None:
        """Pin one coupling's drive-phase offset to ``value`` radians."""
        if not -3.15 <= value <= 3.15:
            raise ValueError("phase offset outside [-pi, pi]")
        self._set(self.phase_offsets, pair, value)

    def has_phase_offsets(self) -> bool:
        """True if any coupling carries a drive-phase miscalibration.

        The engine-dispatch predicate: phase-offset MS realizations fall
        off the XX form, so compiled batteries must take the dense path
        even when the stochastic noise itself is XX-preserving.
        """
        return bool(self.phase_offsets.any())

    def inject_fault(self, fault: CouplingFault | CouplingPhaseFault) -> None:
        """Apply a fault to its coupling (dispatching on the fault species)."""
        if isinstance(fault, CouplingPhaseFault):
            self.set_phase_offset(fault.pair, fault.phase_offset)
        else:
            self.set_under_rotation(fault.pair, fault.under_rotation)

    def load_snapshot(self, snapshot: dict[Pair, float]) -> None:
        """Overwrite calibration from a drift-process snapshot."""
        for pair, value in snapshot.items():
            self.set_under_rotation(pair, value)

    def snapshot(self) -> dict[Pair, float]:
        """Copy of the current per-coupling under-rotations.

        The inverse of :meth:`load_snapshot`: experiments grade a
        diagnosis against the ground truth captured *before* the
        protocol's recalibration callbacks start zeroing entries.
        """
        return {
            pair: float(self.under_rotations[ij])
            for pair, ij in self._index.items()
        }

    def recalibrate(self, pair: Pair | tuple[int, int] | None = None) -> None:
        """Zero one coupling's errors — amplitude and phase (or all)."""
        if pair is None:
            self.under_rotations.fill(0.0)
            self.phase_offsets.fill(0.0)
        else:
            self._set(self.under_rotations, pair, 0.0)
            self._set(self.phase_offsets, pair, 0.0)

    # -- analysis ----------------------------------------------------------------

    def largest_faults(self, k: int) -> list[CouplingFault]:
        """The ``k`` worst-calibrated couplings, sorted by magnitude."""
        ranked = sorted(
            self.snapshot().items(), key=lambda item: -abs(item[1])
        )
        return [CouplingFault(p, u) for p, u in ranked[:k]]

    def _key(self, pair: Pair | tuple[int, int]) -> tuple[int, int]:
        key = frozenset(pair)
        if key not in self._index:
            raise KeyError(f"unknown coupling {sorted(key)}")
        return self._index[key]

    def _set(
        self, values: np.ndarray, pair: Pair | tuple[int, int], value: float
    ) -> None:
        i, j = self._key(pair)
        values[i, j] = values[j, i] = value
